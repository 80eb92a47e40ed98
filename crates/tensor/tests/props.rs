//! Property tests for the tensor substrate: algebraic identities the
//! rest of the reproduction silently relies on.

use proptest::prelude::*;
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};
use vrex_tensor::{ops, Matrix, QuantScheme, QuantizedMatrix};

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    gaussian_matrix(&mut seeded_rng(seed), rows, cols, 1.0)
}

/// `m` with about one element in five replaced by `0.0` or `-0.0`.
fn with_zeros(mut m: Matrix, seed: u64) -> Matrix {
    for (i, v) in m.data_mut().iter_mut().enumerate() {
        match (i as u64 ^ seed) % 10 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    m
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
    (
        m.rows(),
        m.cols(),
        m.data().iter().map(|v| v.to_bits()).collect(),
    )
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        n in 1usize..8, m in 1usize..8, k in 1usize..8, seed in 0u64..1000
    ) {
        let a = matrix(n, m, seed);
        let b = matrix(m, k, seed + 1);
        let c = matrix(m, k, seed + 2);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn transpose_of_product_swaps_operands(
        n in 1usize..8, m in 1usize..8, k in 1usize..8, seed in 0u64..1000
    ) {
        let a = matrix(n, m, seed);
        let b = matrix(m, k, seed + 7);
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    /// Every element is the in-order dot product `0.0 + a₀b₀ + …`, bit
    /// for bit, on right operands that straddle the 32-row panel and its
    /// multiples.
    #[test]
    fn matmul_transposed_is_consistent(
        n in 0usize..5,
        m in 0usize..12,
        k_pick in 0usize..9,
        seed in 0u64..1000,
    ) {
        let k = [0, 1, 31, 32, 33, 63, 64, 65, 130][k_pick];
        let a = with_zeros(matrix(n, m, seed), seed);
        let b = with_zeros(matrix(k, m, seed + 13), seed + 1);
        let got = a.matmul_transposed(&b);
        prop_assert_eq!((got.rows(), got.cols()), (n, k));
        for i in 0..n {
            for j in 0..k {
                let mut acc = 0.0f32;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                prop_assert_eq!(got[(i, j)].to_bits(), acc.to_bits(), "element ({}, {})", i, j);
            }
        }
    }

    /// Every element of `matmul` and `matmul_rows` is the in-order sum
    /// `0.0 + a₀b₀ + a₁b₁ + …` that skips each `a_k == 0.0` (either
    /// sign), bit for bit, on widths that straddle the 32-column blocks.
    #[test]
    fn matmul_is_the_in_order_sum_skipping_zeros(
        n in 0usize..10,
        m in 0usize..12,
        w_pick in 0usize..10,
        seed in 0u64..1000,
    ) {
        let w = [0, 1, 15, 16, 17, 31, 32, 33, 64, 65][w_pick];
        let a = with_zeros(matrix(n, m, seed), seed);
        let b = with_zeros(matrix(m, w, seed + 21), seed + 2);
        // Rows of `b` read out of order and with repeats.
        let rows: Vec<usize> = (0..m).map(|k| (k * 5 + seed as usize) % m).collect();
        for (got, row_of) in [
            (a.matmul(&b), (0..m).collect::<Vec<_>>()),
            (a.matmul_rows(&b, &rows), rows.clone()),
        ] {
            prop_assert_eq!((got.rows(), got.cols()), (n, w));
            for i in 0..n {
                for j in 0..w {
                    let mut acc = 0.0f32;
                    for (&x, &r) in a.row(i).iter().zip(&row_of) {
                        if x != 0.0 {
                            acc += x * b[(r, j)];
                        }
                    }
                    prop_assert_eq!(got[(i, j)].to_bits(), acc.to_bits(), "element ({}, {})", i, j);
                }
            }
        }
    }

    /// The row-indexed products equal gather-then-multiply bitwise, for
    /// repeated and unsorted row indices.
    #[test]
    fn row_indexed_products_equal_gather_then_multiply(
        n in 0usize..4,
        m in 1usize..10,
        src in 1usize..140,
        idx in proptest::collection::vec(0usize..1000, 0..140),
        seed in 0u64..1000,
    ) {
        let rows: Vec<usize> = idx.iter().map(|&i| i % src).collect();
        let other = with_zeros(matrix(src, m, seed), seed);
        let a = with_zeros(matrix(n, m, seed + 3), seed + 4);
        let gathered = other.gather_rows(&rows);
        prop_assert_eq!(
            bits(&a.matmul_transposed_rows(&other, &rows)),
            bits(&a.matmul_transposed(&gathered))
        );
        // `matmul_rows` is the `P · V` side: weights over the gathered
        // rows, some exactly zero to exercise `matmul`'s skip.
        let p = with_zeros(matrix(n, rows.len(), seed + 5), seed + 6);
        prop_assert_eq!(
            bits(&p.matmul_rows(&other, &rows)),
            bits(&p.matmul(&gathered))
        );
    }

    #[test]
    fn softmax_rows_are_probability_distributions(
        rows in 1usize..8, cols in 1usize..16, seed in 0u64..1000
    ) {
        let mut m = matrix(rows, cols, seed);
        m.scale_in_place(5.0);
        ops::softmax_rows(&mut m);
        for r in 0..rows {
            let row = m.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row sums to {s}");
        }
    }

    #[test]
    fn softmax_preserves_ordering(cols in 2usize..16, seed in 0u64..1000) {
        let mut m = matrix(1, cols, seed);
        let orig = m.clone();
        ops::softmax_rows(&mut m);
        for i in 0..cols {
            for j in 0..cols {
                if orig[(0, i)] > orig[(0, j)] {
                    prop_assert!(m[(0, i)] >= m[(0, j)] - 1e-7);
                }
            }
        }
    }

    #[test]
    fn rope_is_an_isometry(tokens in 1usize..8, half_dim in 1usize..16, pos in 0usize..5000, seed in 0u64..1000) {
        let mut m = matrix(tokens, half_dim * 2, seed);
        let norms_before: Vec<f32> = (0..tokens)
            .map(|r| m.row(r).iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect();
        ops::apply_rope(&mut m, pos);
        for (r, nb) in norms_before.iter().enumerate() {
            let na: f32 = m.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            prop_assert!((na - nb).abs() < 1e-3 * nb.max(1.0), "norm changed {nb} -> {na}");
        }
    }

    #[test]
    fn rope_preserves_relative_angles(half_dim in 1usize..8, pos in 0usize..1000, seed in 0u64..1000) {
        // RoPE's defining property: dot(q_i, k_j) depends only on i - j.
        // Rotating both vectors by the same position leaves the dot
        // product unchanged.
        let a = matrix(1, half_dim * 2, seed);
        let b = matrix(1, half_dim * 2, seed + 3);
        let dot = |x: &Matrix, y: &Matrix| -> f32 {
            x.row(0).iter().zip(y.row(0)).map(|(p, q)| p * q).sum()
        };
        let before = dot(&a, &b);
        let mut ar = a.clone();
        let mut br = b.clone();
        ops::apply_rope(&mut ar, pos);
        ops::apply_rope(&mut br, pos);
        prop_assert!((dot(&ar, &br) - before).abs() < 1e-2 * before.abs().max(1.0));
    }

    #[test]
    fn gather_rows_preserves_content(rows in 1usize..16, cols in 1usize..8, seed in 0u64..1000) {
        let m = matrix(rows, cols, seed);
        let idx: Vec<usize> = (0..rows).rev().collect();
        let g = m.gather_rows(&idx);
        for (out_r, &src_r) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(out_r), m.row(src_r));
        }
    }

    #[test]
    fn int4_quantization_error_is_bounded_by_half_step(
        rows in 1usize..6, cols in 1usize..64, seed in 0u64..1000
    ) {
        let m = matrix(rows, cols, seed);
        let q = QuantizedMatrix::quantize(&m, QuantScheme::Int4 { group_size: 16 });
        let d = q.dequantize();
        for r in 0..rows {
            for group_start in (0..cols).step_by(16) {
                let group_end = (group_start + 16).min(cols);
                let amax = m.row(r)[group_start..group_end]
                    .iter()
                    .fold(0.0f32, |a, &v| a.max(v.abs()));
                let step = if amax == 0.0 { 1.0 } else { amax / 7.0 };
                for c in group_start..group_end {
                    let err = (m[(r, c)] - d[(r, c)]).abs();
                    prop_assert!(err <= step / 2.0 + 1e-5, "err {err} > step/2 {}", step / 2.0);
                }
            }
        }
    }

    #[test]
    fn top_k_indices_are_actually_the_largest(
        values in proptest::collection::vec(-100.0f32..100.0, 1..64),
        k in 1usize..32,
    ) {
        let idx = vrex_tensor::top_k_indices(&values, k);
        let k_eff = k.min(values.len());
        prop_assert_eq!(idx.len(), k_eff);
        let threshold = idx.iter().map(|&i| values[i]).fold(f32::INFINITY, f32::min);
        let larger = values.iter().filter(|&&v| v > threshold).count();
        prop_assert!(larger < k_eff + 1);
        // No duplicates.
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), idx.len());
    }

    #[test]
    fn partial_top_k_matches_naive_full_sort(
        raw in proptest::collection::vec(-8i32..8, 1..64),
        k in 0usize..72,
    ) {
        // Quantized values force heavy ties, exercising the documented
        // lower-index tie rule on the select_nth fast path.
        let values: Vec<f32> = raw.iter().map(|&v| v as f32 * 0.5).collect();

        // Naive oracle: full sort by (value desc, index asc).
        let mut oracle: Vec<usize> = (0..values.len()).collect();
        oracle.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
        oracle.truncate(k.min(values.len()));

        prop_assert_eq!(vrex_tensor::top_k_indices(&values, k), oracle.clone());

        let expected_thr = if k == 0 || k >= values.len() {
            f32::NEG_INFINITY
        } else {
            values[oracle[k - 1]]
        };
        prop_assert_eq!(vrex_tensor::top_k_threshold(&values, k), expected_thr);
    }
}
