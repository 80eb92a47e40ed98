//! Dense row-major `f32` matrix.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Rows of the right operand the transposed products transpose at a
/// time: the width of the accumulator each output row sums into. 32
/// `f32` take 8 of the 16 SSE2 registers; 64 filled all 16 and spilled.
const PANEL: usize = 32;

/// Output columns [`Matrix::matmul`]'s kernel accumulates at a time, in
/// registers: 8 of the 16 SSE2 registers, like [`PANEL`].
const BLOCK: usize = 32;

/// A dense row-major matrix of `f32` values.
///
/// This is the single tensor type used across the whole V-Rex
/// reproduction. It is intentionally simple: owned storage, eager
/// operations, no views. Model dimensions in tests and functional
/// experiments are small enough that clarity wins over absolute speed,
/// while the benchmark harness exercises the O(n·m·k) kernels directly.
///
/// # Examples
///
/// ```
/// use vrex_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use vrex_tensor::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.data().iter().sum::<f32>(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    #[cfg(test)]
    fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns a new matrix containing the given rows, in order: the
    /// reference the fused row-indexed products are tested against.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    // vrex-lint: allow(unreached-pub) — oracle of crates/tensor/tests/props.rs
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn append_rows(&mut self, other: &Matrix) {
        if self.rows == 0 && self.cols == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(self.cols, other.cols, "column mismatch in append_rows");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Appends one row below `self`; a matrix with no rows and no
    /// columns adopts the row's width.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the column count.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(self.cols, row.len(), "column mismatch in push_row");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_by_rows(other, |k| k)
    }

    /// `self · other.gather_rows(rows)` without materialising the
    /// gather: bit-identical to it, `matmul`'s zero skip included.
    ///
    /// This is attention's `P · V` over a retrieved subset of the cache.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rows.len()` or a row index is out of
    /// bounds.
    pub fn matmul_rows(&self, other: &Matrix, rows: &[usize]) -> Matrix {
        assert_eq!(
            self.cols,
            rows.len(),
            "matmul_rows dimension mismatch: {}x{} · {} gathered rows",
            self.rows,
            self.cols,
            rows.len()
        );
        // The zero skip may never touch some rows; reject bad indices
        // the way `gather_rows` would.
        assert!(
            rows.iter().all(|&r| r < other.rows),
            "row index out of bounds ({})",
            other.rows
        );
        self.matmul_by_rows(other, |k| rows[k])
    }

    /// `self · B` where row `k` of `B` is `other.row(row_of(k))`.
    /// Each output row accumulates `a_k · B[k]` for `k` in order,
    /// skipping `a_k == 0.0`.
    ///
    /// The row is summed [`BLOCK`] columns at a time into an
    /// accumulator that stays in registers across the whole `k` loop,
    /// then the last `n % BLOCK` columns in place. Every element is
    /// still `0.0 + a₀b₀ + a₁b₁ + …` in `k` order.
    fn matmul_by_rows(&self, other: &Matrix, row_of: impl Fn(usize) -> usize) -> Matrix {
        let n = other.cols;
        let blocked = n - n % BLOCK;
        let mut out = Matrix::zeros(self.rows, n);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for j0 in (0..blocked).step_by(BLOCK) {
                let mut acc = [0.0f32; BLOCK];
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b: &[f32; BLOCK] = other.row(row_of(k))[j0..j0 + BLOCK]
                        .try_into()
                        .expect("a block is BLOCK wide");
                    for (o, &b) in acc.iter_mut().zip(b) {
                        *o += a * b;
                    }
                }
                out_row[j0..j0 + BLOCK].copy_from_slice(&acc);
            }
            if blocked < n {
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b = &other.row(row_of(k))[blocked..];
                    for (o, &b) in out_row[blocked..].iter_mut().zip(b) {
                        *o += a * b;
                    }
                }
            }
        }
        out
    }

    /// Matrix product against the transpose of `other`: `self · otherᵀ`.
    ///
    /// This is the attention-score kernel (`Q · Kᵀ`); it avoids
    /// materialising the transpose. Every element is the in-order dot
    /// product `0.0 + a₀b₀ + a₁b₁ + …`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.panel_matmul_transposed(other, other.rows, |j| j)
    }

    /// `self · other.gather_rows(rows)ᵀ` without materialising the
    /// gather: bit-identical to it.
    ///
    /// This is attention's `Q · Kᵀ` over a retrieved subset of the cache.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()` or a row index is out of
    /// bounds.
    pub fn matmul_transposed_rows(&self, other: &Matrix, rows: &[usize]) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed_rows dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.panel_matmul_transposed(other, rows.len(), |j| rows[j])
    }

    /// `self · Bᵀ` where row `j` of the `n`-row `B` is
    /// `other.row(row_of(j))`.
    ///
    /// `B` is transposed [`PANEL`] rows at a time, so each output row
    /// of a panel accumulates `a_k · panel[k][..]` for `k` in order: the
    /// inner loop runs across output columns and vectorises, while each
    /// element still sums its products in the order of a plain dot
    /// product.
    fn panel_matmul_transposed(
        &self,
        other: &Matrix,
        n: usize,
        row_of: impl Fn(usize) -> usize,
    ) -> Matrix {
        let d = self.cols;
        let mut out = Matrix::zeros(self.rows, n);
        let mut panel = vec![0.0f32; d * PANEL];
        for j0 in (0..n).step_by(PANEL) {
            let width = PANEL.min(n - j0);
            if width < PANEL {
                // Columns past the matrix edge are computed, not read.
                panel.fill(0.0);
            }
            for jj in 0..width {
                for (k, &b) in other.row(row_of(j0 + jj)).iter().enumerate() {
                    panel[k * PANEL + jj] = b;
                }
            }
            for i in 0..self.rows {
                let mut acc = [0.0f32; PANEL];
                for (&a, b) in self.row(i).iter().zip(panel.chunks_exact(PANEL)) {
                    for (o, &b) in acc.iter_mut().zip(b) {
                        *o += a * b;
                    }
                }
                out.data[i * n + j0..i * n + j0 + width].copy_from_slice(&acc[..width]);
            }
        }
        out
    }

    /// Returns the transposed matrix.
    // vrex-lint: allow(unreached-pub) — oracle of crates/tensor/tests/props.rs
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy with every element multiplied by `s`.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut m = self.clone();
        m.scale_in_place(s);
        m
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    // vrex-lint: allow(unreached-pub) — oracle of crates/tensor/tests/props.rs and crates/model/tests/props.rs
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch in add");
        assert_eq!(self.cols, rhs.cols, "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch in sub");
        assert_eq!(self.cols, rhs.cols, "shape mismatch in sub");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f32) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.25], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn matmul_transposed_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 2.0, 2.0]]);
        let via_t = a.matmul(&b.transposed());
        let fused = a.matmul_transposed(&b);
        assert!(via_t.max_abs_diff(&fused) < 1e-6);
    }

    #[test]
    fn row_products_handle_empty_operands() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(3, 0);
        assert_eq!(a.matmul_transposed(&b), Matrix::zeros(2, 3));
        assert_eq!(a.matmul_transposed_rows(&b, &[2, 2]), Matrix::zeros(2, 2));
        assert_eq!(a.matmul_rows(&b, &[]), Matrix::zeros(2, 0));
        let none = Matrix::zeros(0, 3);
        assert_eq!(
            none.matmul_transposed(&Matrix::zeros(5, 3)),
            Matrix::zeros(0, 5)
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn matmul_rows_rejects_a_skipped_bad_index() {
        // The zero weight skips row 7, which gather_rows would reject.
        let p = Matrix::from_rows(&[&[0.0, 1.0]]);
        let v = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let _ = p.matmul_rows(&v, &[7, 1]);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g, Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn append_rows_grows_matrix() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0]]);
        m.append_rows(&Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn push_row_grows_an_empty_matrix() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn append_rows_into_empty_adopts_shape() {
        let mut m = Matrix::default();
        m.append_rows(&Matrix::from_rows(&[&[9.0, 8.0, 7.0]]));
        assert_eq!((m.rows(), m.cols()), (1, 3));
    }

    #[test]
    fn add_sub_are_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[11.0, 22.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[9.0, 18.0]]));
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn transposed_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Matrix::zeros(0, 0));
        assert!(!s.is_empty());
    }
}
