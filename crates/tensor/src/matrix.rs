//! Dense row-major `f32` matrices with cache-blocked, register-tiled
//! matmul kernels.
//!
//! # Blocked layout
//!
//! All three matmul variants (`A·B`, `A·Bᵀ`, `Aᵀ·B`) walk the output in
//! fixed-size register tiles:
//!
//! * [`Matrix::matmul`] and [`Matrix::matmul_tn`] produce `MR × NR`
//!   (4 × 8) output tiles. The `NR`-wide accumulator rows are fixed-size
//!   arrays with a constant trip count, which the compiler autovectorizes
//!   to SIMD lanes on every target (8 × f32 = two SSE or one AVX
//!   register per row); `MR` output rows share each loaded `B` panel row,
//!   cutting `B` bandwidth 4×. Edge tiles (output fringes narrower than a
//!   full tile) fall back to a scalar loop *with the same k-ascending
//!   summation order*, so tile interior and fringe follow one contract.
//! * [`Matrix::matmul_nt`] is a row-dot kernel: each output element is a
//!   dot product of two contiguous rows, accumulated in `NR` independent
//!   lanes that are folded in fixed lane order, then the `< NR` remainder
//!   is added last.
//!
//! # Determinism and IEEE contract
//!
//! Every kernel sums `k` in ascending index order with a fixed lane
//! layout, so results are bit-identical across runs, platforms with the
//! same float semantics, and call sites — nothing depends on allocation
//! state or thread count.
//!
//! All kernels are dense: every product `a·b` is added, zeros included,
//! so NaN/Inf in either operand propagate exactly as IEEE prescribes
//! (`0 · NaN = NaN`, `0 · ∞ = NaN`). Earlier revisions skipped `a == 0.0`
//! contributions of sparse left operands (one-hot node features,
//! post-ReLU activations), first unconditionally — which silently dropped
//! NaN/Inf from the right operand — then only when the right operand was
//! entirely finite. The guarded skip was bitwise identical to the dense
//! sum, so removing it changed no result; it only cost time, because the
//! per-element branch mispredicts on post-ReLU data and the guard scanned
//! the right operand on every call. The identity: with a finite right
//! operand each skipped product is `±0.0`; an accumulator initialized to
//! `+0.0` can never become `-0.0` through addition (under
//! round-to-nearest `-0.0` arises only from `-0.0 + -0.0`, and `x + (-x)`
//! is `+0.0`); and `x + ±0.0 == x` bitwise for every `x ≠ -0.0`. So
//! adding the zero products leaves every partial sum unchanged.
//!
//! The `*_into` variants write into a caller-provided output matrix so
//! hot loops (the autodiff tape's arena) can recycle buffers instead of
//! reallocating every step. [`Matrix::add_matmul_assign`] runs the `A·B`
//! kernel but adds each finished element to its output instead of storing
//! it, so `C += A·B` needs no product buffer and rounds exactly as the
//! matmul followed by [`Matrix::add_assign`].

use std::fmt;

/// Output-tile height shared by the blocked kernels.
const MR: usize = 4;
/// Output-tile width (f32 lanes) shared by the blocked kernels.
const NR: usize = 8;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Single-element matrix.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes `self` to `rows × cols`, reusing the existing buffer.
    /// Contents are unspecified afterwards (callers overwrite).
    fn reshape_for_output(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other`, written into `out` (reshaped and overwritten).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        out.reshape_for_output(self.rows, other.cols);
        self.matmul_kernel::<false>(other, out);
    }

    /// `self += a · b`, bitwise equal to `a.matmul_into(b, &mut t)`
    /// followed by `self.add_assign(&t)`: each product element is summed
    /// k-ascending from zero exactly as [`Matrix::matmul_into`] sums it,
    /// then added to `self`, without materializing the product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `self` is not
    /// `a.rows × b.cols`.
    pub fn add_matmul_assign(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.cols, b.rows, "matmul inner dimension mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (a.rows, b.cols),
            "add_matmul_assign shape mismatch"
        );
        a.matmul_kernel::<true>(b, self);
    }

    /// The tiled `self · other` kernel over an output already shaped
    /// `self.rows × other.cols`. Each finished element is stored, or with
    /// `ACC` added to what `out` holds.
    fn matmul_kernel<const ACC: bool>(&self, other: &Matrix, out: &mut Matrix) {
        let (m, kk, n) = (self.rows, self.cols, other.cols);
        let a = &self.data;
        let b = &other.data;
        let mut i = 0;
        while i < m {
            let ir = (m - i).min(MR);
            let arows = &a[i * kk..(i + ir) * kk];
            let mut j = 0;
            while j < n {
                let jr = (n - j).min(NR);
                if ir == MR && jr == NR {
                    // Register tile: MR×NR accumulators, k ascending. The
                    // MR left rows are pre-sliced and zipped with the B
                    // rows, so the k loop carries no bounds checks.
                    let (a0, rest) = arows.split_at(kk);
                    let (a1, rest) = rest.split_at(kk);
                    let (a2, a3) = rest.split_at(kk);
                    let mut acc = [[0.0f32; NR]; MR];
                    let lefts = a0.iter().zip(a1).zip(a2).zip(a3);
                    for ((((&x0, &x1), &x2), &x3), bk) in lefts.zip(b.chunks_exact(n)) {
                        let brow = panel(bk, j);
                        for (arow, av) in acc.iter_mut().zip([x0, x1, x2, x3]) {
                            for (o, &bv) in arow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                    for (r, arow) in acc.iter().enumerate() {
                        let orow = &mut out.data[(i + r) * n + j..(i + r) * n + j + NR];
                        if ACC {
                            for (o, &v) in orow.iter_mut().zip(arow) {
                                *o += v;
                            }
                        } else {
                            orow.copy_from_slice(arow);
                        }
                    }
                } else {
                    // Fringe: scalar loop, identical k-ascending order.
                    for r in 0..ir {
                        let arow = &arows[r * kk..(r + 1) * kk];
                        for c in 0..jr {
                            let mut s = 0.0f32;
                            for (k, &av) in arow.iter().enumerate() {
                                s += av * b[k * n + j + c];
                            }
                            let o = &mut out.data[(i + r) * n + j + c];
                            if ACC {
                                *o += s;
                            } else {
                                *o = s;
                            }
                        }
                    }
                }
                j += jr;
            }
            i += ir;
        }
    }

    /// `self · otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ`, written into `out` (reshaped and overwritten).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let (m, n) = (self.rows, other.rows);
        out.reshape_for_output(m, n);
        for i in 0..m {
            let arow = self.row(i);
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, other.row(j));
            }
        }
    }

    /// `selfᵀ · other`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `selfᵀ · other`, written into `out` (reshaped and overwritten).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let (kk, m, n) = (self.rows, self.cols, other.cols);
        out.reshape_for_output(m, n);
        let a = &self.data;
        let b = &other.data;
        // out[i][j] = Σ_k a[k][i] · b[k][j]; the k loop is innermost so
        // every output element sums k in ascending order, matching the
        // other kernels' contract. An MR×NR register tile amortizes the
        // strided a-column loads across NR output columns.
        let mut i = 0;
        while i < m {
            let ir = (m - i).min(MR);
            let mut j = 0;
            while j < n {
                let jr = (n - j).min(NR);
                if ir == MR && jr == NR {
                    let mut acc = [[0.0f32; NR]; MR];
                    for (ak, bk) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                        let brow = panel(bk, j);
                        for (arow, &av) in acc.iter_mut().zip(&ak[i..i + MR]) {
                            for (o, &bv) in arow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                    for (r, arow) in acc.iter().enumerate() {
                        out.data[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(arow);
                    }
                } else {
                    for r in 0..ir {
                        for c in 0..jr {
                            let mut s = 0.0f32;
                            for k in 0..kk {
                                s += a[k * m + i + r] * b[k * n + j + c];
                            }
                            out.data[(i + r) * n + j + c] = s;
                        }
                    }
                }
                j += jr;
            }
            i += ir;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += k · other` (axpy; the gradient-accumulation primitive).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, k: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// `self *= k`.
    pub fn scale_assign(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// `self[r] += bias` for every row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols`.
    pub fn add_row_assign(&mut self, bias: &Matrix) {
        check_bias(self, bias);
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (x, &bv) in row.iter_mut().zip(&bias.data) {
                *x += bv;
            }
        }
    }

    /// `self[r] = relu(self[r] + bias)` for every row `r`: the fused
    /// bias-and-ReLU epilogue. `z > 0 ? z : 0` maps NaN and `-0.0` to
    /// `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols`.
    pub fn add_row_relu_assign(&mut self, bias: &Matrix) {
        check_bias(self, bias);
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (x, &bv) in row.iter_mut().zip(&bias.data) {
                let z = *x + bv;
                *x = if z > 0.0 { z } else { 0.0 };
            }
        }
    }

    /// Multiplies row `r` by `w[r]`.
    pub fn scale_rows_assign(&mut self, w: &[f32]) {
        for (row, &k) in self.data.chunks_exact_mut(self.cols.max(1)).zip(w) {
            for x in row {
                *x *= k;
            }
        }
    }

    /// Scatter-add of rows into `out` (reshaped to `rows × self.cols`):
    /// `out[idx[i]] += self[i]` in ascending `i`, from zeros.
    pub fn scatter_add_into(&self, idx: &[u32], rows: usize, out: &mut Matrix) {
        out.reshape_for_output(rows, self.cols);
        for (i, &j) in idx.iter().enumerate() {
            for (o, &x) in out.row_mut(j as usize).iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
    }

    /// Scatter-max of rows into `out` (reshaped to `rows × self.cols`):
    /// per column, the first row of a segment sets the value and later rows
    /// replace it only when strictly greater; empty segments stay `0.0`.
    /// `argmax` receives, per output element, the winning input row
    /// (`u32::MAX` for empty segments).
    pub fn scatter_max_into(
        &self,
        idx: &[u32],
        rows: usize,
        out: &mut Matrix,
        argmax: &mut Vec<u32>,
    ) {
        let cols = self.cols;
        out.reshape_for_output(rows, cols);
        argmax.clear();
        argmax.resize(rows * cols, u32::MAX);
        for (i, &j) in idx.iter().enumerate() {
            let seg = j as usize * cols..(j as usize + 1) * cols;
            let winners = argmax[seg.clone()].iter_mut();
            for ((o, w), &v) in out.data[seg].iter_mut().zip(winners).zip(self.row(i)) {
                if *w == u32::MAX || v > *o {
                    *o = v;
                    *w = i as u32;
                }
            }
        }
    }

    /// Per-segment softmax of a single column, in place: row `i` belongs to
    /// segment `seg[i]`, and each segment's entries become a softmax of
    /// its inputs (max-subtracted). `maxes` and `sums` are scratch, resized
    /// to `segments`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a column or `seg.len() != self.rows`.
    pub fn segment_softmax_assign(
        &mut self,
        seg: &[u32],
        segments: usize,
        maxes: &mut Vec<f32>,
        sums: &mut Vec<f32>,
    ) {
        assert_eq!(self.cols, 1, "segment_softmax input must be a column");
        assert_eq!(seg.len(), self.rows, "segment index count mismatch");
        maxes.clear();
        maxes.resize(segments, f32::NEG_INFINITY);
        sums.clear();
        sums.resize(segments, 0.0);
        let data = &mut self.data;
        for (&v, &s) in data.iter().zip(seg) {
            if v > maxes[s as usize] {
                maxes[s as usize] = v;
            }
        }
        for (v, &s) in data.iter_mut().zip(seg) {
            *v = (*v - maxes[s as usize]).exp();
            sums[s as usize] += *v;
        }
        for (v, &s) in data.iter_mut().zip(seg) {
            *v /= sums[s as usize];
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Asserts `bias` is a `1 × m.cols` row vector.
fn check_bias(m: &Matrix, bias: &Matrix) {
    assert_eq!(bias.rows, 1, "bias must be a row vector");
    assert_eq!(bias.cols, m.cols, "bias width mismatch");
}

/// The `NR`-wide panel of a right-operand row starting at column `j`, as a
/// fixed-size array so the tile's lane loop has a constant trip count and
/// no per-element bounds checks.
#[inline]
fn panel(row: &[f32], j: usize) -> &[f32; NR] {
    row[j..j + NR].try_into().expect("full register tile")
}

/// Dot product of two equal-length slices: `NR` independent lanes over the
/// `chunks_exact` body, folded in fixed lane order, remainder last. The
/// fixed shape keeps the reduction order deterministic while letting the
/// compiler lower the lane loop to SIMD.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; NR];
    let ac = a.chunks_exact(NR);
    let bc = b.chunks_exact(NR);
    let (ra, rb) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += ca[l] * cb[l];
        }
    }
    let mut s = 0.0f32;
    for &lane in &lanes {
        s += lane;
    }
    for (&x, &y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:+.3}"))
                .collect();
            writeln!(f, "  {}", row.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple-loop reference (k ascending, matching the kernels'
    /// documented summation order).
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut s = 0.0f32;
                for k in 0..a.cols {
                    s += a.at(i, k) * b.at(k, j);
                }
                out.data[i * b.cols + j] = s;
            }
        }
        out
    }

    #[test]
    fn matmul_basic() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn tiled_matmul_matches_reference_across_tile_boundaries() {
        // Shapes straddling the MR×NR tile: interiors, fringes, both.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 4, 8),
            (5, 3, 9),
            (8, 16, 8),
            (13, 7, 17),
            (3, 40, 11),
        ] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|v| (v as f32) * 0.37 - 1.0).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|v| (v as f32) * -0.11 + 2.0).collect());
            let got = a.matmul(&b);
            let want = reference_matmul(&a, &b);
            assert_eq!(got, want, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn add_matmul_assign_equals_matmul_then_add() {
        for &(m, k, n) in &[(1, 1, 1), (4, 4, 8), (9, 4, 32), (13, 7, 17)] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|v| (v as f32) * 0.37 - 1.0).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|v| (v as f32) * -0.11 + 2.0).collect());
            let base =
                Matrix::from_vec(m, n, (0..m * n).map(|v| (v as f32) * 0.013 - 0.5).collect());
            let mut want = base.clone();
            want.add_assign(&a.matmul(&b));
            let mut got = base;
            got.add_matmul_assign(&a, &b);
            assert_eq!(got, want, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, (0..6).map(|v| v as f32).collect());
        let b = Matrix::from_vec(3, 4, (0..12).map(|v| v as f32).collect());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn into_variants_recycle_output_buffers() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // Reuse one output across differently-shaped products.
        let mut out = Matrix::zeros(7, 7);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data, vec![58.0, 64.0, 139.0, 154.0]);
        a.matmul_nt_into(&a, &mut out);
        assert_eq!((out.rows, out.cols), (2, 2));
        assert_eq!(out, a.matmul(&a.transpose()));
        a.matmul_tn_into(&a, &mut out);
        assert_eq!((out.rows, out.cols), (3, 3));
        assert_eq!(out, a.transpose().matmul(&a));
    }

    #[test]
    fn empty_and_vector_edges() {
        // 0-row / 0-col operands must produce empty outputs, not panic.
        let e = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(e.matmul(&b), Matrix::zeros(0, 4));
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]); // 1×N
        let c = Matrix::from_vec(3, 1, vec![4.0, 5.0, 6.0]); // N×1
        assert_eq!(a.matmul(&c).data, vec![32.0]);
        assert_eq!(c.matmul(&a).rows, 3);
        assert_eq!(c.matmul(&a), reference_matmul(&c, &a));
    }

    #[test]
    fn zero_skip_is_bitwise_identical_to_dense_sum() {
        // Left operands the GNN produces — one-hot rows, post-ReLU zeros,
        // -0.0, and tiny values whose products underflow to ±0.0 — must
        // reproduce the dense k-ascending reference bit for bit, on tile
        // interiors and fringes alike.
        let (m, k, n) = (9, 11, 13);
        let b = Matrix::from_vec(k, n, (0..k * n).map(|v| (v as f32) * -0.23 + 1.5).collect());
        let tiny = Matrix::from_vec(k, n, b.data.iter().map(|v| v * 1e-20).collect());
        let left = |f: fn(usize) -> f32| Matrix::from_vec(m, k, (0..m * k).map(f).collect());
        let cases = [
            (
                "mixed zeros",
                left(|v| match v % 7 {
                    0 => (v as f32) * 0.31 - 3.0,
                    3 => -0.0,
                    _ => 0.0,
                }),
                &b,
            ),
            (
                "post-relu",
                left(|v| ((v as f32) * 0.77).sin().max(0.0)),
                &b,
            ),
            (
                "one-hot",
                left(|v| f32::from(u8::from(v % 11 == (v / 11) % 11))),
                &b,
            ),
            (
                "underflow",
                left(|v| if v % 2 == 0 { -1e-30 } else { 1e-30 }),
                &tiny,
            ),
        ];
        for (name, a, right) in cases {
            let want = reference_matmul(&a, right);
            let bits = |x: &Matrix| x.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.matmul(right)), bits(&want), "matmul, {name}");
            assert_eq!(
                bits(&a.transpose().matmul_tn(right)),
                bits(&want),
                "matmul_tn, {name}"
            );
        }
    }

    #[test]
    fn nan_propagates_through_zero_operands() {
        // The dense kernels honor IEEE: 0 · NaN = 0 · ∞ = NaN (the old
        // unguarded sparsity skip silently produced 0 here), on full tiles
        // as well as fringes.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for (m, k, n) in [(1, 2, 1), (4, 3, 8), (5, 3, 9)] {
                let a = Matrix::zeros(m, k);
                let mut b = Matrix::from_vec(k, n, vec![1.0; k * n]);
                for c in 0..n {
                    *b.at_mut(k - 1, c) = bad;
                }
                assert!(a.matmul(&b).data.iter().all(|v| v.is_nan()), "matmul {bad}");
                let at = Matrix::zeros(k, m);
                assert!(
                    at.matmul_tn(&b).data.iter().all(|v| v.is_nan()),
                    "matmul_tn {bad}"
                );
            }
        }
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        assert!(a
            .matmul_nt(&Matrix::from_vec(1, 2, vec![f32::NAN, 0.0]))
            .data[0]
            .is_nan());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        a.scale_assign(2.0);
        assert_eq!(a.data, vec![3.0, 5.0, 7.0]);
        a.add_scaled(&b, 4.0);
        assert_eq!(a.data, vec![5.0, 7.0, 9.0]);
        a.fill_zero();
        assert_eq!(a.data, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn norm_and_finite() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!(a.is_finite());
        let b = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(!b.is_finite());
    }
}
