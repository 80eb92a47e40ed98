//! KV-cache quantization.
//!
//! Implements the group-wise low-bit quantization used by the Oaken
//! baseline (4-bit online KV-cache quantization, paper Fig. 15).

use crate::Matrix;

/// Quantization scheme for a [`QuantizedMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// 4-bit signed integers with a per-group scale (Oaken-style).
    Int4 {
        /// Number of consecutive elements sharing one scale.
        group_size: usize,
    },
    /// 8-bit signed integers with a per-group scale.
    Int8 {
        /// Number of consecutive elements sharing one scale.
        group_size: usize,
    },
}

impl QuantScheme {
    /// Bits per stored element (excluding scales).
    pub fn bits(&self) -> u32 {
        match self {
            QuantScheme::Int4 { .. } => 4,
            QuantScheme::Int8 { .. } => 8,
        }
    }

    fn group_size(&self) -> usize {
        match *self {
            QuantScheme::Int4 { group_size } | QuantScheme::Int8 { group_size } => group_size,
        }
    }

    fn qmax(&self) -> f32 {
        match self {
            QuantScheme::Int4 { .. } => 7.0,
            QuantScheme::Int8 { .. } => 127.0,
        }
    }

    /// Storage bytes needed for `elements` values under this scheme,
    /// including the per-group `f16` scales. This is the figure the
    /// memory-capacity model uses for Oaken's effective cache size.
    pub fn storage_bytes(&self, elements: usize) -> usize {
        let g = self.group_size();
        let groups = elements.div_ceil(g);
        (elements * self.bits() as usize).div_ceil(8) + groups * 2
    }
}

/// A matrix stored in group-quantized low precision.
///
/// Only the round trip (quantize → dequantize) and the storage size are
/// needed by the evaluation: Oaken's accuracy effect enters through the
/// dequantization error on attention keys/values, and its capacity
/// effect through [`QuantScheme::storage_bytes`].
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    scheme: QuantScheme,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` row by row under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's group size is zero.
    pub fn quantize(m: &Matrix, scheme: QuantScheme) -> Self {
        let g = scheme.group_size();
        assert!(g > 0, "group size must be positive");
        let qmax = scheme.qmax();
        let mut codes = Vec::with_capacity(m.len());
        let mut scales = Vec::new();
        for row in m.iter_rows() {
            for group in row.chunks(g) {
                let amax = group.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                let scale = if amax == 0.0 { 1.0 } else { amax / qmax };
                scales.push(scale);
                for &v in group {
                    codes.push((v / scale).round().clamp(-qmax, qmax) as i8);
                }
            }
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            scheme,
            codes,
            scales,
        }
    }

    /// Reconstructs the full-precision approximation.
    pub fn dequantize(&self) -> Matrix {
        let g = self.scheme.group_size();
        let groups_per_row = self.cols.div_ceil(g);
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let group = r * groups_per_row + c / g;
                let code = self.codes[r * self.cols + c];
                data.push(code as f32 * self.scales[group]);
            }
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Storage bytes of this quantized matrix (codes + scales).
    pub fn storage_bytes(&self) -> usize {
        self.scheme.storage_bytes(self.rows * self.cols)
    }

    /// The scheme this matrix was quantized under.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn int4_round_trip_error_is_bounded() {
        let m = gaussian_matrix(&mut seeded_rng(5), 16, 64, 1.0);
        let q = QuantizedMatrix::quantize(&m, QuantScheme::Int4 { group_size: 32 });
        let d = q.dequantize();
        // max error per group ≤ scale/2 = amax/14; amax ≤ ~4 sigma here.
        let err = m.max_abs_diff(&d);
        assert!(err < 0.5, "int4 error too large: {err}");
    }

    #[test]
    fn int8_is_more_accurate_than_int4() {
        let m = gaussian_matrix(&mut seeded_rng(6), 8, 64, 1.0);
        let e4 = m.max_abs_diff(
            &QuantizedMatrix::quantize(&m, QuantScheme::Int4 { group_size: 32 }).dequantize(),
        );
        let e8 = m.max_abs_diff(
            &QuantizedMatrix::quantize(&m, QuantScheme::Int8 { group_size: 32 }).dequantize(),
        );
        assert!(e8 < e4, "int8 err {e8} should beat int4 err {e4}");
    }

    #[test]
    fn zero_matrix_round_trips_exactly() {
        let m = Matrix::zeros(4, 8);
        let q = QuantizedMatrix::quantize(&m, QuantScheme::Int4 { group_size: 4 });
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn storage_bytes_counts_codes_and_scales() {
        // 128 elements int4 = 64 bytes + 4 groups * 2B scales = 72.
        let s = QuantScheme::Int4 { group_size: 32 }.storage_bytes(128);
        assert_eq!(s, 72);
        // int4 storage is ~4x smaller than f16.
        assert!(s * 3 < 128 * 2);
    }
}
