//! Shared importance scoring for the top-k baselines.
//!
//! InfiniGen-style methods predict per-token importance from
//! query/key dot products (optionally in a reduced sketch dimension, as
//! InfiniGen does with partial SVD weights). For a multi-token query
//! block — the streaming-prefill case the paper highlights — each
//! query row needs its own tokens, so block importance is the maximum
//! score over the rows (a token matters if *any* query attends to it).

use vrex_tensor::Matrix;

/// Per-history-token importance for a query block: max over query rows
/// of the scaled dot product.
///
/// `history_len` restricts scoring to the cached history (the block's
/// own tokens are always attended and never need retrieval).
///
/// # Panics
///
/// Panics if `history_len > keys.rows()` or widths mismatch.
pub fn block_importance(queries: &Matrix, keys: &Matrix, history_len: usize) -> Vec<f32> {
    assert!(history_len <= keys.rows(), "history longer than cache");
    assert_eq!(queries.cols(), keys.cols(), "query/key width mismatch");
    let scale = 1.0 / (queries.cols() as f32).sqrt();
    let mut importance = vec![f32::NEG_INFINITY; history_len];
    for r in 0..queries.rows() {
        let q = queries.row(r);
        for (j, imp) in importance.iter_mut().enumerate() {
            let k = keys.row(j);
            let dot: f32 = q.iter().zip(k).map(|(a, b)| a * b).sum();
            let s = dot * scale;
            if s > *imp {
                *imp = s;
            }
        }
    }
    importance
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn importance_is_max_over_rows() {
        let q = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let k = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[9.0, 9.0]]);
        let imp = block_importance(&q, &k, 2);
        let s = 1.0 / 2f32.sqrt();
        assert!((imp[0] - 2.0 * s).abs() < 1e-6);
        assert!((imp[1] - 3.0 * s).abs() < 1e-6);
    }

    #[test]
    fn zero_history_gives_empty_importance() {
        let mut rng = seeded_rng(1);
        let q = gaussian_matrix(&mut rng, 2, 4, 1.0);
        let k = gaussian_matrix(&mut rng, 2, 4, 1.0);
        assert!(block_importance(&q, &k, 0).is_empty());
    }
}
