//! Causal attention with retrieval-filtered context.
//!
//! The streaming model's attention differs from vanilla decoding in one
//! way: the cached ("old") tokens a query block attends to may be a
//! *subset* chosen by a retrieval policy, while the tokens of the block
//! itself are always visible causally (they are on-device — only the
//! offloaded history is subject to retrieval).

use vrex_tensor::{ops, Matrix};

use crate::policy::Selection;

/// Computes attention output for a block of `q.rows()` new tokens.
///
/// * `q` — `(new × head_dim)` post-RoPE queries.
/// * `keys` / `values` — the **full** per-head cache `(total × head_dim)`
///   *including* the new tokens (appended before calling).
/// * `old_len` — number of cached tokens that precede the block
///   (`total = old_len + new`).
/// * `selected_old` — which of the `old_len` history tokens to attend
///   to.
///
/// Returns the `(new × head_dim)` attention output.
///
/// # Panics
///
/// Panics if shapes are inconsistent or a selected index is out of
/// range.
pub fn attention_with_selection(
    q: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    old_len: usize,
    selected_old: &Selection,
) -> Matrix {
    let new = q.rows();
    let total = keys.rows();
    assert_eq!(total, values.rows(), "key/value cache length mismatch");
    assert_eq!(
        total,
        old_len + new,
        "cache must already contain the new block"
    );
    let d = q.cols();
    assert_eq!(d, keys.cols(), "query/key width mismatch");

    // Effective context = selected old tokens ++ new tokens, read from
    // the cache by row index; the lazy `All` case is the whole cache.
    let context: Option<Vec<usize>> = selected_old.materialized().map(|idx| {
        for &i in idx {
            assert!(
                i < old_len,
                "selected index {i} not in history (len {old_len})"
            );
        }
        let mut rows: Vec<usize> = idx.to_vec();
        rows.extend(old_len..total);
        rows
    });
    let n_sel = selected_old.materialized().map_or(old_len, <[usize]>::len);

    let scale = 1.0 / (d as f32).sqrt();
    let mut scores = match &context {
        None => q.matmul_transposed(keys),
        Some(rows) => q.matmul_transposed_rows(keys, rows),
    };
    scores.scale_in_place(scale);

    // Causal mask over the new-token part of the context.
    for i in 0..new {
        let row = scores.row_mut(i);
        for j_new in (i + 1)..new {
            row[n_sel + j_new] = f32::NEG_INFINITY;
        }
    }
    ops::softmax_rows(&mut scores);
    match &context {
        None => scores.matmul(values),
        Some(rows) => scores.matmul_rows(values, rows),
    }
}

/// Fraction of the *full-attention* probability mass that falls on the
/// selected history tokens, averaged over the query rows.
///
/// This is the attention-recall metric behind the accuracy proxy
/// (`vrex-workload`; ARCHITECTURE.md, "Crate DAG"): a retrieval method
/// that captures nearly all of the true attention mass cannot change
/// the model output much.
///
/// Only history tokens are scored (the block's own tokens are always
/// attended and would inflate recall).
///
/// Returns `1.0` when there is no history.
///
/// # Panics
///
/// Panics if a selected index is not below `old_len`.
pub fn selection_recall(
    q: &Matrix,
    keys: &Matrix,
    old_len: usize,
    selected_old: &Selection,
) -> f64 {
    if old_len == 0 || q.rows() == 0 {
        return 1.0;
    }
    // A selection with no explicit list covers the whole history.
    let Some(idx) = selected_old.materialized() else {
        return 1.0;
    };
    let d = q.cols() as f32;
    let scale = 1.0 / d.sqrt();
    let mut total_recall = 0.0;
    let mut selected = vec![false; old_len];
    for &j in idx {
        selected[j] = true;
    }
    for r in 0..q.rows() {
        let qrow = q.row(r);
        // softmax over history only
        let mut scores = Vec::with_capacity(old_len);
        for j in 0..old_len {
            let krow = keys.row(j);
            let dot: f32 = qrow.iter().zip(krow).map(|(a, b)| a * b).sum();
            scores.push(dot * scale);
        }
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        let mut num = 0.0f64;
        for (j, s) in scores.iter().enumerate() {
            let e = ((s - max) as f64).exp();
            denom += e;
            if selected[j] {
                num += e;
            }
        }
        total_recall += if denom > 0.0 { num / denom } else { 1.0 };
    }
    total_recall / q.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    fn setup(old: usize, new: usize, d: usize) -> (Matrix, Matrix, Matrix) {
        let mut rng = seeded_rng(42);
        let q = gaussian_matrix(&mut rng, new, d, 1.0);
        let k = gaussian_matrix(&mut rng, old + new, d, 1.0);
        let v = gaussian_matrix(&mut rng, old + new, d, 1.0);
        (q, k, v)
    }

    #[test]
    fn select_all_equals_explicit_full_index_list() {
        let (q, k, v) = setup(6, 3, 8);
        let full = attention_with_selection(&q, &k, &v, 6, &Selection::All);
        let explicit =
            attention_with_selection(&q, &k, &v, 6, &Selection::Indices((0..6).collect()));
        assert!(full.max_abs_diff(&explicit) < 1e-5);
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        // With no history, token 0 must be unaffected by token 1's K/V.
        let (q, k, mut v) = setup(0, 2, 4);
        let out_a = attention_with_selection(&q, &k, &v, 0, &Selection::All);
        // perturb token 1's value; token 0's output must not change.
        for x in v.row_mut(1) {
            *x += 100.0;
        }
        let out_b = attention_with_selection(&q, &k, &v, 0, &Selection::All);
        let row0_diff: f32 = out_a
            .row(0)
            .iter()
            .zip(out_b.row(0))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(row0_diff < 1e-6, "token 0 saw the future");
        let row1_diff: f32 = out_a
            .row(1)
            .iter()
            .zip(out_b.row(1))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(row1_diff > 1.0, "token 1 should see its own value");
    }

    #[test]
    fn single_token_context_returns_its_value() {
        // One query, history of one token with overwhelming score.
        let q = Matrix::from_rows(&[&[10.0, 0.0]]);
        let k = Matrix::from_rows(&[&[10.0, 0.0], &[-10.0, 0.0]]);
        let v = Matrix::from_rows(&[&[1.0, 2.0], &[-5.0, -6.0]]);
        let out = attention_with_selection(&q, &k, &v, 1, &Selection::All);
        // History token dominates (its own token has score -100).
        assert!((out[(0, 0)] - 1.0).abs() < 0.01);
        assert!((out[(0, 1)] - 2.0).abs() < 0.01);
    }

    #[test]
    fn subselection_changes_output_but_keeps_shape() {
        let (q, k, v) = setup(10, 2, 8);
        let full = attention_with_selection(&q, &k, &v, 10, &Selection::All);
        let some = attention_with_selection(&q, &k, &v, 10, &Selection::Indices(vec![0, 3, 7]));
        assert_eq!(full.rows(), some.rows());
        assert_eq!(full.cols(), some.cols());
        assert!(full.max_abs_diff(&some) > 1e-6);
    }

    #[test]
    #[should_panic(expected = "not in history")]
    fn selected_index_must_be_history() {
        let (q, k, v) = setup(4, 2, 8);
        let _ = attention_with_selection(&q, &k, &v, 4, &Selection::Indices(vec![5]));
    }

    #[test]
    fn recall_of_all_is_one() {
        let (q, k, _) = setup(5, 2, 8);
        assert_eq!(selection_recall(&q, &k, 5, &Selection::All), 1.0);
    }

    #[test]
    fn recall_of_empty_selection_is_near_zero() {
        let (q, k, _) = setup(5, 2, 8);
        let r = selection_recall(&q, &k, 5, &Selection::Indices(vec![]));
        assert!(r < 1e-9);
    }

    #[test]
    fn recall_is_monotone_in_selection_size() {
        let (q, k, _) = setup(20, 2, 8);
        let r1 = selection_recall(&q, &k, 20, &Selection::Indices(vec![0, 1]));
        let r2 = selection_recall(&q, &k, 20, &Selection::Indices((0..10).collect()));
        let r3 = selection_recall(&q, &k, 20, &Selection::Indices((0..20).collect()));
        assert!(r1 <= r2 + 1e-9);
        assert!(r2 <= r3 + 1e-9);
        assert!((r3 - 1.0).abs() < 1e-9);
    }
}
