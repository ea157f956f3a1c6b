//! Dense row-major `f32` matrices with register-tiled matmul kernels,
//! each compiled twice: a portable build and, on x86-64, an AVX2 build.
//!
//! # Kernels
//!
//! * `A·B` ([`Matrix::matmul_into`], [`Matrix::add_matmul_assign`]) and
//!   `Aᵀ·B` ([`Matrix::matmul_tn_into`]) walk the output in `MR × W`
//!   register tiles: `MR = 4` output rows share each loaded `B` panel row,
//!   and the `W`-wide accumulator rows are fixed-size arrays with a
//!   constant trip count, which the compiler lowers to SIMD lanes. Columns
//!   left over after the last full tile go through one `MR × 8` tile if
//!   at least 8 remain, then a scalar loop; rows left over after the last
//!   full block of `MR` go through the scalar loop.
//! * `A·Bᵀ` ([`Matrix::matmul_nt_into`]) sums each element as the
//!   row-dot `dot` does: 8 lanes, lane `l` summing the products at
//!   `k ≡ l (mod 8)`, folded in lane order, the `< 8` remainder added
//!   last. A `1 × W` tile keeps every lane as a vector across `W` output
//!   columns and reads `B` through a transposed copy; the `< W` fringe
//!   columns call `dot` itself.
//!
//! # Two instances, one source
//!
//! Each kernel is one `#[inline(always)]` body generic over the tile width
//! `W`. The portable instance is compiled for the build's baseline target
//! (SSE2 on x86-64): `W = 8` for `A·B` and `Aᵀ·B` (two xmm registers per
//! accumulator row, a `4 × 8` tile) and `W = 4` for `A·Bᵀ`. On
//! x86-64 a second instance is compiled under
//! `#[target_feature(enable = "avx2")]` with `W = 16` (`4 × 16` tiles,
//! two ymm registers per row) and `W = 8` for `A·Bᵀ`. Each entry point
//! picks the AVX2 instance when `std::is_x86_feature_detected!("avx2")`
//! holds; `std` caches the probe. Nothing else selects the path.
//!
//! The two instances give the same bits. The tile width decides which
//! elements are computed together, never the order in which one element's
//! products are summed: every path above sums an element's `k` terms in
//! the same order from `+0.0`. Only `avx2` is enabled, never `fma`, no
//! kernel calls `mul_add`, and rustc does not contract `a * b + c`, so
//! every product and every sum is rounded separately in both instances.
//! The one thing that may differ is which NaN comes out when two NaNs
//! meet, since x86 returns the first operand's and the compiler may
//! commute an add or a multiply. `portable_and_avx2_kernels_agree_bitwise`
//! checks all of this on every tile and fringe boundary.
//!
//! # Determinism and IEEE contract
//!
//! Every kernel sums `k` in ascending index order with a fixed lane
//! layout, so results are bit-identical across runs, platforms with the
//! same float semantics, CPUs with and without AVX2, and call sites —
//! nothing depends on allocation state or thread count.
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
//! reallocating every step. They append every value to the emptied buffer
//! rather than zero-filling it first. [`Matrix::add_matmul_assign`] runs
//! the `A·B` kernel but adds each finished element to its output instead
//! of storing it, so `C += A·B` needs no product buffer and rounds exactly
//! as the matmul followed by [`Matrix::add_assign`].

use std::fmt;

/// Output-tile height shared by the blocked kernels.
const MR: usize = 4;
/// Output-tile width (f32 lanes) of the portable kernels, and the width of
/// the AVX2 kernels' second tile tier.
const NR: usize = 8;
/// Output-tile width of the AVX2 kernels: two 256-bit registers per
/// accumulator row.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 16;

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

    /// Sets `self`'s shape to `rows × cols` and empties its buffer, keeping
    /// the allocation, for a kernel that appends all `rows × cols` values.
    fn reshape_empty(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
    }

    /// Reshapes `self` to `rows × cols` zeros, reusing the existing buffer,
    /// for kernels that add into their output.
    fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
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
        out.reshape_empty(self.rows, other.cols);
        ab::<false>(self, other, &mut out.data);
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
        ab::<true>(a, b, &mut self.data);
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
        out.reshape_empty(self.rows, other.rows);
        nt(self, other, &mut out.data);
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
        out.reshape_empty(self.cols, other.cols);
        tn(self, other, &mut out.data);
    }
    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = (self.rows, self.cols);
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            data.extend((0..rows).map(|r| self.data[r * cols + c]));
        }
        Matrix::from_vec(cols, rows, data)
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
        out.reshape_zeroed(rows, self.cols);
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
        out.reshape_zeroed(rows, cols);
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

// Matmul kernels: one `#[inline(always)]` body each, instantiated portably
// and under AVX2 (see the module docs for why the two agree bit for bit).

/// `a · b`, added to the `a.rows × b.cols` values in `out` with `ACC`,
/// else appended to the empty `out`.
fn ab<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, the only feature `ab_avx2` enables.
        return unsafe { ab_avx2::<ACC>(a, b, out) };
    }
    ab_body::<NR, ACC>(a, b, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ab_avx2<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    ab_body::<NR_AVX2, ACC>(a, b, out)
}

/// Appends `aᵀ · b` to the empty `out`.
fn tn(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, the only feature `tn_avx2` enables.
        return unsafe { tn_avx2(a, b, out) };
    }
    tn_body::<NR>(a, b, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tn_avx2(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    tn_body::<NR_AVX2>(a, b, out)
}

/// Appends `a · bᵀ` to the empty `out`.
fn nt(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, the only feature `nt_avx2` enables.
        return unsafe { nt_avx2(a, b, out) };
    }
    nt_body::<{ NR / 2 }>(a, b, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nt_avx2(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    nt_body::<NR>(a, b, out)
}

/// Runs a kernel over the `m × n` output one block of up to `MR` rows at a
/// time: `rows(i, ir, blk)` writes rows `i..i + ir` into `blk`. With `ACC`
/// the blocks are `out`'s own rows, which hold `m × n` values to add into.
/// Otherwise `out` starts empty and each block is written into an
/// `MR × n` buffer and appended, so the output is never zero-filled.
#[inline(always)]
fn row_blocks<const ACC: bool>(
    m: usize,
    n: usize,
    out: &mut Vec<f32>,
    mut rows: impl FnMut(usize, usize, &mut [f32]),
) {
    let mut blk = if ACC { Vec::new() } else { vec![0.0; MR * n] };
    if !ACC {
        out.reserve(m * n);
    }
    let mut i = 0;
    while i < m {
        let ir = (m - i).min(MR);
        if ACC {
            rows(i, ir, &mut out[i * n..(i + ir) * n]);
        } else {
            let blk = &mut blk[..ir * n];
            rows(i, ir, blk);
            out.extend_from_slice(blk);
        }
        i += ir;
    }
}

/// The `A·B` kernel: `MR × W` register tiles, then one `MR × NR` tile when
/// at least `NR` columns remain, then a scalar fringe. Every element is
/// summed k-ascending from `0.0` (and with `ACC` added to `out` last), so
/// its bits do not depend on `W` or on which of the three paths produced
/// it.
#[inline(always)]
fn ab_body<const W: usize, const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    let (m, kk, n) = (a.rows, a.cols, b.cols);
    let (a, b) = (&a.data[..], &b.data[..]);
    row_blocks::<ACC>(m, n, out, |i, ir, orows| {
        let arows = &a[i * kk..(i + ir) * kk];
        let mut j = 0;
        if ir == MR {
            let (a0, rest) = arows.split_at(kk);
            let (a1, rest) = rest.split_at(kk);
            let (a2, a3) = rest.split_at(kk);
            while j + W <= n {
                store::<W, ACC>(&ab_tile::<W>([a0, a1, a2, a3], b, n, j), orows, n, j);
                j += W;
            }
            if W > NR && j + NR <= n {
                store::<NR, ACC>(&ab_tile::<NR>([a0, a1, a2, a3], b, n, j), orows, n, j);
                j += NR;
            }
        }
        for (r, orow) in orows.chunks_exact_mut(n.max(1)).enumerate() {
            let arow = &arows[r * kk..(r + 1) * kk];
            for (c, o) in orow.iter_mut().enumerate().skip(j) {
                let mut s = 0.0f32;
                for (&av, bk) in arow.iter().zip(b.chunks_exact(n)) {
                    s += av * bk[c];
                }
                if ACC {
                    *o += s;
                } else {
                    *o = s;
                }
            }
        }
    });
}

/// One `MR × T` tile of `A·B` at column `j`. The `MR` left rows are
/// pre-sliced and zipped with the `B` rows, so the k loop carries no
/// bounds checks; `MR` output rows share each loaded `B` panel row. The
/// tile is returned and stored by the caller: storing it from in here,
/// through the output slice, tripled perfbench `loko_fold`'s `pass_s` on
/// a 2-core AVX2 Xeon (0.68 ⇒ 2.0 s).
#[inline(always)]
fn ab_tile<const T: usize>(a: [&[f32]; MR], b: &[f32], n: usize, j: usize) -> [[f32; T]; MR] {
    let [a0, a1, a2, a3] = a;
    let mut acc = [[0.0f32; T]; MR];
    let lefts = a0.iter().zip(a1).zip(a2).zip(a3);
    for ((((&x0, &x1), &x2), &x3), bk) in lefts.zip(b.chunks_exact(n)) {
        let brow = panel::<T>(bk, j);
        for (arow, av) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (o, &bv) in arow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// The `Aᵀ·B` kernel: `out[i][j] = Σ_k a[k][i] · b[k][j]`, tiled and
/// fringed like [`ab_body`]. The k loop is innermost, so every element
/// sums k in ascending order; a tile amortizes the strided `a`-column
/// loads across `W` output columns.
#[inline(always)]
fn tn_body<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    let (m, n) = (a.cols, b.cols);
    let (a, b) = (&a.data[..], &b.data[..]);
    row_blocks::<false>(m, n, out, |i, ir, orows| {
        let mut j = 0;
        if ir == MR {
            while j + W <= n {
                store::<W, false>(&tn_tile::<W>(a, m, i, b, n, j), orows, n, j);
                j += W;
            }
            if W > NR && j + NR <= n {
                store::<NR, false>(&tn_tile::<NR>(a, m, i, b, n, j), orows, n, j);
                j += NR;
            }
        }
        for (r, orow) in orows.chunks_exact_mut(n.max(1)).enumerate() {
            for (c, o) in orow.iter_mut().enumerate().skip(j) {
                let mut s = 0.0f32;
                for (ak, bk) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                    s += ak[i + r] * bk[c];
                }
                *o = s;
            }
        }
    });
}

/// One `MR × T` tile of `Aᵀ·B` at output row `i`, column `j`.
#[inline(always)]
fn tn_tile<const T: usize>(
    a: &[f32],
    m: usize,
    i: usize,
    b: &[f32],
    n: usize,
    j: usize,
) -> [[f32; T]; MR] {
    let mut acc = [[0.0f32; T]; MR];
    for (ak, bk) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let brow = panel::<T>(bk, j);
        for (arow, &av) in acc.iter_mut().zip(&ak[i..i + MR]) {
            for (o, &bv) in arow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// The `A·Bᵀ` kernel, appending `out` in row-major order. Every element
/// is summed as [`dot`] sums it: `NR` lanes, lane `l` summing the
/// products at `k ≡ l (mod NR)` k-ascending, folded in lane order from
/// `0.0`, the `< NR` remainder added last. A `1 × T` tile keeps each lane
/// as a vector across `T` output columns, reading `B` through its
/// transpose; the `< T` fringe columns call [`dot`] itself.
#[inline(always)]
fn nt_body<const T: usize>(a: &Matrix, b: &Matrix, out: &mut Vec<f32>) {
    let n = b.rows;
    let bt = if n >= T {
        b.transpose()
    } else {
        Matrix::default()
    };
    out.reserve(a.rows * n);
    for i in 0..a.rows {
        let arow = a.row(i);
        let mut j = 0;
        while j + T <= n {
            out.extend_from_slice(&nt_tile::<T>(arow, &bt.data, n, j));
            j += T;
        }
        for c in j..n {
            out.push(dot(arow, b.row(c)));
        }
    }
}

/// One `1 × T` tile of `A·Bᵀ`: row `arow` of `A` against columns
/// `j..j + T` of `bt`.
#[inline(always)]
fn nt_tile<const T: usize>(arow: &[f32], bt: &[f32], n: usize, j: usize) -> [f32; T] {
    let mut lanes = [[0.0f32; T]; NR];
    let chunks = arow.chunks_exact(NR);
    let (rest, body) = (chunks.remainder(), arow.len() - chunks.remainder().len());
    for (ca, bq) in chunks.zip(bt.chunks_exact(NR * n)) {
        for ((lane, &av), bk) in lanes.iter_mut().zip(ca).zip(bq.chunks_exact(n)) {
            for (o, &bv) in lane.iter_mut().zip(panel::<T>(bk, j)) {
                *o += av * bv;
            }
        }
    }
    let mut s = [0.0f32; T];
    for lane in &lanes {
        for (o, &v) in s.iter_mut().zip(lane) {
            *o += v;
        }
    }
    for (&av, bk) in rest.iter().zip(bt[body * n..].chunks_exact(n)) {
        for (o, &bv) in s.iter_mut().zip(panel::<T>(bk, j)) {
            *o += av * bv;
        }
    }
    s
}

/// Writes a finished `MR × T` tile into the `MR` output rows `orows` at
/// column `j`: stored, or with `ACC` added to what they hold.
#[inline(always)]
fn store<const T: usize, const ACC: bool>(
    acc: &[[f32; T]; MR],
    orows: &mut [f32],
    n: usize,
    j: usize,
) {
    for (arow, orow) in acc.iter().zip(orows.chunks_exact_mut(n)) {
        let o = &mut orow[j..j + T];
        if ACC {
            for (o, &v) in o.iter_mut().zip(arow) {
                *o += v;
            }
        } else {
            o.copy_from_slice(arow);
        }
    }
}

/// The `T`-wide panel of a right-operand row starting at column `j`, as a
/// fixed-size array so the tile's lane loop has a constant trip count and
/// no per-element bounds checks.
#[inline(always)]
fn panel<const T: usize>(row: &[f32], j: usize) -> &[f32; T] {
    row[j..j + T].try_into().expect("full register tile")
}

/// Dot product of two equal-length slices: `NR` independent lanes over the
/// `chunks_exact` body, folded in fixed lane order, remainder last. The
/// fixed shape keeps the reduction order deterministic while letting the
/// compiler lower the lane loop to SIMD.
#[inline(always)]
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
    use pg_util::Rng64;

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

    /// Dimensions that straddle every tile and fringe boundary of both
    /// kernel instances (`MR = 4`, `NR = 8`, the AVX2 width 16).
    const EDGES: [usize; 14] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33];

    /// Bit patterns, with every NaN folded to one. Which of two NaN
    /// operands an x86 add or multiply returns depends on operand order,
    /// and the compiler may commute either op, so a NaN's sign and payload
    /// are not part of the kernels' contract; where NaNs appear is.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// A `rows × cols` operand of values in `[-2, 2)` with NaN, ±Inf, −0.0
    /// and `+0.0` mixed in.
    fn wild(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.below(200) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3..=12 => -0.0,
                13..=22 => 0.0,
                _ => rng.f32() * 4.0 - 2.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn portable_and_avx2_kernels_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!(
                "AVX2 half skipped: this CPU has no AVX2; checking the portable kernels only"
            );
        }
        let mut rng = Rng64::new(17);
        let mut out = Matrix::default();
        for m in EDGES {
            for k in EDGES {
                for n in EDGES {
                    let shape = format!("m={m} k={k} n={n}");
                    let (a, b) = (wild(m, k, &mut rng), wild(k, n, &mut rng));
                    let base = wild(m, n, &mut rng);
                    let (at, bt) = (wild(k, m, &mut rng), wild(n, k, &mut rng));

                    // The portable instances, called directly.
                    let mut ab_p = Vec::new();
                    ab_body::<NR, false>(&a, &b, &mut ab_p);
                    let mut acc_p = base.data.clone();
                    ab_body::<NR, true>(&a, &b, &mut acc_p);
                    let mut tn_p = Vec::new();
                    tn_body::<NR>(&at, &b, &mut tn_p);
                    let mut nt_p = Vec::new();
                    nt_body::<{ NR / 2 }>(&a, &bt, &mut nt_p);
                    let nt_dot: Vec<f32> = (0..m)
                        .flat_map(|i| (0..n).map(move |j| (i, j)))
                        .map(|(i, j)| dot(a.row(i), bt.row(j)))
                        .collect();
                    assert_eq!(bits(&nt_p), bits(&nt_dot), "A·Bᵀ tile vs dot {shape}");

                    // The entry points run whichever instance this CPU picks.
                    a.matmul_into(&b, &mut out);
                    assert_eq!(bits(&out.data), bits(&ab_p), "matmul_into {shape}");
                    let mut acc = base.clone();
                    acc.add_matmul_assign(&a, &b);
                    assert_eq!(bits(&acc.data), bits(&acc_p), "add_matmul_assign {shape}");
                    at.matmul_tn_into(&b, &mut out);
                    assert_eq!(bits(&out.data), bits(&tn_p), "matmul_tn_into {shape}");
                    a.matmul_nt_into(&bt, &mut out);
                    assert_eq!(bits(&out.data), bits(&nt_p), "matmul_nt_into {shape}");

                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        let mut ab_x = Vec::new();
                        let mut acc_x = base.data.clone();
                        let mut tn_x = Vec::new();
                        let mut nt_x = Vec::new();
                        // SAFETY: the CPU has AVX2, checked above.
                        unsafe {
                            ab_avx2::<false>(&a, &b, &mut ab_x);
                            ab_avx2::<true>(&a, &b, &mut acc_x);
                            tn_avx2(&at, &b, &mut tn_x);
                            nt_avx2(&a, &bt, &mut nt_x);
                        }
                        assert_eq!(bits(&ab_x), bits(&ab_p), "AVX2 A·B {shape}");
                        assert_eq!(bits(&acc_x), bits(&acc_p), "AVX2 C += A·B {shape}");
                        assert_eq!(bits(&tn_x), bits(&tn_p), "AVX2 Aᵀ·B {shape}");
                        assert_eq!(bits(&nt_x), bits(&nt_p), "AVX2 A·Bᵀ {shape}");
                    }
                }
            }
        }
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

        // An output larger than needed and full of NaN leaks into no
        // result: each `*_into` matches the same call into a fresh matrix.
        let mut rng = Rng64::new(3);
        let mut operand = |r: usize, c: usize| {
            Matrix::from_vec(r, c, (0..r * c).map(|_| rng.f32() * 4.0 - 2.0).collect())
        };
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 2),
            (4, 8, 16),
            (5, 9, 17),
            (0, 3, 4),
            (3, 0, 5),
        ] {
            let (a, b, at, bt) = (operand(m, k), operand(k, n), operand(k, m), operand(n, k));
            let idx: Vec<u32> = (0..k as u32).map(|v| (v * 7) % 3).collect();
            let shape = format!("m={m} k={k} n={n}");
            let check = |name: &str, f: &dyn Fn(&mut Matrix)| {
                let mut fresh = Matrix::default();
                f(&mut fresh);
                let mut stale = Matrix::from_vec(12, 12, vec![f32::NAN; 144]);
                f(&mut stale);
                assert_eq!((stale.rows, stale.cols), (fresh.rows, fresh.cols), "{name}");
                assert_eq!(bits(&stale.data), bits(&fresh.data), "{name} {shape}");
                assert!(stale.data.iter().all(|v| !v.is_nan()), "{name} {shape}");
            };
            check("matmul_into", &|o| a.matmul_into(&b, o));
            check("matmul_nt_into", &|o| a.matmul_nt_into(&bt, o));
            check("matmul_tn_into", &|o| at.matmul_tn_into(&b, o));
            check("scatter_add_into", &|o| b.scatter_add_into(&idx, 3, o));
            check("scatter_max_into", &|o| {
                b.scatter_max_into(&idx, 3, o, &mut Vec::new());
            });
            let (mut fresh, mut stale) = (Vec::new(), vec![7; 200]);
            b.scatter_max_into(&idx, 3, &mut Matrix::default(), &mut fresh);
            b.scatter_max_into(&idx, 3, &mut Matrix::default(), &mut stale);
            assert_eq!(stale, fresh, "scatter_max_into argmax {shape}");
        }
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
