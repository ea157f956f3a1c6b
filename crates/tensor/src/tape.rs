//! Reverse-mode automatic differentiation on matrices.
//!
//! A [`Tape`] records a computation graph of matrix ops; [`Tape::backward`]
//! walks it in reverse, producing gradients for every parameter leaf. The op
//! set is exactly what the GNN models need: matmul, broadcast bias, ReLU,
//! dropout, column concatenation, row summation, row gather/scatter (the
//! message-passing primitives), per-row scaling (normalized adjacency), and
//! three fused ops that collapse a layer's chain into one node without
//! materializing the intermediates:
//!
//! * [`Tape::linear_bias_relu`] — `relu(x·W + b)`, the
//!   `matmul → add_row → relu` chain;
//! * [`Tape::add_row_relu`] — `relu(a + b)`, for a pre-summed input;
//! * [`Tape::sum_relu`] — `relu(base + Σ termᵢ + b)`, a convolution's
//!   pre-activation sum, where each [`Term`] is a node or a product `a·b`.
//!   Products are added by [`Matrix::add_matmul_assign`], so no message
//!   buffer exists in the forward, and the backward hands the masked
//!   gradient to every term without cloning it per term.
//!
//! Each fused op gives the same bits, forward and backward, as its unfused
//! chain.
//!
//! # Gradient pruning
//!
//! Every node records at push time whether a gradient can reach a
//! parameter through it: a parameter leaf does, a constant leaf does not,
//! and any other node does if one of its inputs does. [`Tape::backward`]
//! computes, allocates and stores no gradient for a node without the flag,
//! so a constant subgraph (batch features, edge-feature sums, the gather
//! and scatter of constant inputs) costs nothing in backward, and a matmul
//! by a constant left operand yields only its right operand's gradient.
//! Pruning drops only gradients that nothing reads; every parameter
//! gradient is summed from the same contributions in the same order, so it
//! is bit-identical to an unpruned backward.
//!
//! # Arena reuse
//!
//! Tapes recycle their buffers: [`Tape::reset`] returns every node value,
//! dropout mask, index list and loss-target buffer to internal pools, and
//! subsequent ops draw from those pools instead of the allocator. A
//! training loop keeps one long-lived tape per worker and calls `reset`
//! each step, so steady-state forward/backward passes perform no value
//! allocations. Reuse never changes results: every op writes its full
//! output before the node is published.
//!
//! # Tape-boundary finiteness checks
//!
//! The matmul kernels in [`crate::matrix`] are dense and IEEE-faithful —
//! NaN/Inf propagate instead of being masked by sparsity short-circuits.
//! To catch poisoned inputs at the boundary where data enters the graph,
//! [`Tape::leaf`] and [`Tape::param`] `debug_assert` that the incoming
//! matrix is finite, and [`Tape::backward`] asserts the loss value is
//! finite in debug builds.
//!
//! # Examples
//!
//! ```
//! use pg_tensor::{Matrix, Tape};
//! let mut t = Tape::new();
//! let x = t.leaf(&Matrix::from_vec(1, 2, vec![1.0, 2.0]));
//! let w = t.param(0, &Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//! let y = t.matmul(x, w);
//! let loss = t.mse_loss(y, &[1.0]);
//! let grads = t.backward(loss);
//! assert!(grads[0].is_some());
//! ```

use crate::matrix::Matrix;
use pg_util::Rng64;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// One addend of [`Tape::sum_relu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A node's value, added as is.
    Var(Var),
    /// The product `a · b`, added without materializing it.
    MatMul(Var, Var),
}

#[derive(Debug, Clone)]
enum Op {
    Leaf {
        param: Option<usize>,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    AddN(Vec<Var>),
    Relu(Var),
    /// `relu(a · w + bias)` in one node (no intermediate materialization).
    LinearBiasRelu(Var, Var, Var),
    /// `relu(a + bias)` in one node, for pre-summed layer inputs.
    AddRowRelu(Var, Var),
    /// `relu(base + Σ terms + bias)` in one node.
    SumRelu {
        base: Var,
        terms: Vec<Term>,
        bias: Var,
    },
    /// An empty mask means identity (eval mode) — no per-element buffer.
    Dropout(Var, Vec<f32>),
    ConcatCols(Var, Var),
    SumRows(Var),
    Gather(Var, Vec<u32>),
    ScatterAdd(Var, Vec<u32>),
    ScaleRows(Var, Vec<f32>),
    Scale(Var, f32),
    MapeLoss(Var, Vec<f32>),
    MseLoss(Var, Vec<f32>),
    /// Segment max with argmax routing: second index buffer records, per
    /// output element, the winning input row (`u32::MAX` = empty segment).
    ScatterMax(Var, Vec<u32>, Vec<u32>),
    /// Per-segment softmax over a single-column input.
    SegmentSoftmax(Var, Vec<u32>),
    /// Row-broadcast product: `out[r][c] = a[r][c] * w[r][0]`.
    MulCol(Var, Var),
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
    /// Whether a gradient reaching this node can flow on to a parameter
    /// (see "Gradient pruning" in the module docs).
    needs_grad: bool,
}

/// A reverse-mode autodiff tape with pooled (arena-reused) buffers.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    num_params: usize,
    /// Recycled `f32` buffers (node values, masks, loss targets).
    f32_pool: Vec<Vec<f32>>,
    /// Recycled index buffers (gather/scatter).
    u32_pool: Vec<Vec<u32>>,
}

/// Pops a buffer from `pool` (or allocates) and resizes it to `len` zeros,
/// for ops that add into their output.
fn take_zeroed(pool: &mut Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    let mut b = take_empty(pool);
    b.resize(len, 0.0);
    b
}

/// Pops a buffer from `pool` (or allocates) and empties it, for ops that
/// append every value of their output.
fn take_empty(pool: &mut Vec<Vec<f32>>) -> Vec<f32> {
    let mut b = pool.pop().unwrap_or_default();
    b.clear();
    b
}

/// Pops a buffer from `pool` (or allocates) and copies `src` into it.
fn copy_f32(pool: &mut Vec<Vec<f32>>, src: &[f32]) -> Vec<f32> {
    let mut b = take_empty(pool);
    b.extend_from_slice(src);
    b
}

/// Pool-backed copy of a matrix.
fn copy_matrix(pool: &mut Vec<Vec<f32>>, m: &Matrix) -> Matrix {
    Matrix {
        rows: m.rows,
        cols: m.cols,
        data: copy_f32(pool, &m.data),
    }
}

fn copy_u32(pool: &mut Vec<Vec<u32>>, src: &[u32]) -> Vec<u32> {
    let mut b = pool.pop().unwrap_or_default();
    b.clear();
    b.extend_from_slice(src);
    b
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clears the recorded graph, returning every node value and op buffer
    /// to the internal pools for reuse by the next step. Parameter slots
    /// reset too; the tape is indistinguishable from a fresh one except
    /// that subsequent ops allocate from the pools.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.f32_pool.push(node.value.data);
            match node.op {
                Op::Dropout(_, m)
                | Op::ScaleRows(_, m)
                | Op::MapeLoss(_, m)
                | Op::MseLoss(_, m) => self.f32_pool.push(m),
                Op::Gather(_, i) | Op::ScatterAdd(_, i) | Op::SegmentSoftmax(_, i) => {
                    self.u32_pool.push(i)
                }
                Op::ScatterMax(_, i, am) => {
                    self.u32_pool.push(i);
                    self.u32_pool.push(am);
                }
                _ => {}
            }
        }
        self.num_params = 0;
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let needs = |v: &Var| self.nodes[v.0].needs_grad;
        let needs_grad = match &op {
            Op::Leaf { param } => param.is_some(),
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRow(a, b)
            | Op::AddRowRelu(a, b)
            | Op::ConcatCols(a, b)
            | Op::MulCol(a, b) => needs(a) || needs(b),
            Op::LinearBiasRelu(a, w, b) => needs(a) || needs(w) || needs(b),
            Op::AddN(vars) => vars.iter().any(needs),
            Op::SumRelu { base, terms, bias } => {
                needs(base)
                    || needs(bias)
                    || terms.iter().any(|t| match t {
                        Term::Var(a) => needs(a),
                        Term::MatMul(a, b) => needs(a) || needs(b),
                    })
            }
            Op::Relu(a)
            | Op::Dropout(a, _)
            | Op::SumRows(a)
            | Op::Gather(a, _)
            | Op::ScatterAdd(a, _)
            | Op::ScaleRows(a, _)
            | Op::Scale(a, _)
            | Op::MapeLoss(a, _)
            | Op::MseLoss(a, _)
            | Op::ScatterMax(a, _, _)
            | Op::SegmentSoftmax(a, _) => needs(a),
        };
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Whether backward propagates a gradient into `v`.
    fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Constant leaf (no gradient), copied into a pooled buffer.
    ///
    /// Debug builds assert the input is finite — the matmul kernels are
    /// IEEE-faithful, so a NaN entering here poisons everything downstream.
    pub fn leaf(&mut self, m: &Matrix) -> Var {
        debug_assert!(m.is_finite(), "non-finite leaf entered the tape");
        let v = copy_matrix(&mut self.f32_pool, m);
        self.push(v, Op::Leaf { param: None })
    }

    /// Parameter leaf, copied into a pooled buffer; `slot` indexes the
    /// gradient vector returned by [`Tape::backward`]. Debug builds assert
    /// the parameter is finite.
    pub fn param(&mut self, slot: usize, m: &Matrix) -> Var {
        debug_assert!(m.is_finite(), "non-finite parameter entered the tape");
        self.num_params = self.num_params.max(slot + 1);
        let v = copy_matrix(&mut self.f32_pool, m);
        self.push(v, Op::Leaf { param: Some(slot) })
    }

    /// An empty matrix whose storage comes from the tape's pool, for
    /// computations that run outside the recorded graph (the GNN's
    /// tape-free inference forward). Pair with [`Tape::recycle`] so the
    /// buffer returns to the pool.
    pub fn scratch(&mut self) -> Matrix {
        empty(&mut self.f32_pool)
    }

    /// Returns a matrix's storage to the tape's pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.f32_pool.push(m.data);
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.scratch();
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a, b))
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut data = copy_f32(&mut self.f32_pool, &self.nodes[a.0].value.data);
        let av = &self.nodes[a.0].value;
        let mut v = Matrix {
            rows: av.rows,
            cols: av.cols,
            data: std::mem::take(&mut data),
        };
        v.add_assign(&self.nodes[b.0].value);
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast add of a `1 × d` row vector to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let mut v = copy_matrix(&mut self.f32_pool, &self.nodes[a.0].value);
        v.add_row_assign(&self.nodes[bias.0].value);
        self.push(v, Op::AddRow(a, bias))
    }

    /// Sum of several same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or shapes differ.
    pub fn add_n(&mut self, vars: Vec<Var>) -> Var {
        assert!(!vars.is_empty(), "add_n needs at least one input");
        let data = copy_f32(&mut self.f32_pool, &self.nodes[vars[0].0].value.data);
        let first = &self.nodes[vars[0].0].value;
        let mut v = Matrix {
            rows: first.rows,
            cols: first.cols,
            data,
        };
        for x in &vars[1..] {
            v.add_assign(&self.nodes[x.0].value);
        }
        self.push(v, Op::AddN(vars))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let data = copy_f32(&mut self.f32_pool, &self.nodes[a.0].value.data);
        let av = &self.nodes[a.0].value;
        let mut v = Matrix {
            rows: av.rows,
            cols: av.cols,
            data,
        };
        for x in &mut v.data {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        self.push(v, Op::Relu(a))
    }

    /// Fused `relu(a · w + bias)`: the per-layer `matmul → add_row → relu`
    /// chain as a single node, materializing only the final activation.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `bias` is not `1 × w.cols`.
    pub fn linear_bias_relu(&mut self, a: Var, w: Var, bias: Var) -> Var {
        let mut out = self.scratch();
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[w.0].value, &mut out);
        out.add_row_relu_assign(&self.nodes[bias.0].value);
        self.push(out, Op::LinearBiasRelu(a, w, bias))
    }

    /// Fused `relu(a + bias)` for layers whose pre-activation is already
    /// summed (HEC/SAGE/GraphConv aggregation outputs).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols`.
    pub fn add_row_relu(&mut self, a: Var, bias: Var) -> Var {
        let mut v = copy_matrix(&mut self.f32_pool, &self.nodes[a.0].value);
        v.add_row_relu_assign(&self.nodes[bias.0].value);
        self.push(v, Op::AddRowRelu(a, bias))
    }

    /// Fused `relu(base + Σ terms + bias)`: a convolution's pre-activation
    /// sum as one node. The terms are added to a copy of `base` in order —
    /// a [`Term::MatMul`] by [`Matrix::add_matmul_assign`], which rounds
    /// the product exactly as [`Tape::matmul`] would before adding it — so
    /// the value equals `add_row_relu(add_n([base, t₁, …]), bias)` with
    /// each product recorded by `matmul`, bit for bit, and so does every
    /// gradient.
    ///
    /// Backward visits the terms in reverse, as it would the separate
    /// product nodes. A node with three or more gradient contributions
    /// sums them in that order, so a product whose left operand also feeds
    /// other nodes (a layer's `x·W_v`) belongs in `base`, recorded by
    /// [`Tape::matmul`] where the unfused chain recorded it.
    ///
    /// # Panics
    ///
    /// Panics if a term's shape differs from `base` or `bias` is not
    /// `1 × base.cols`.
    pub fn sum_relu(&mut self, base: Var, terms: Vec<Term>, bias: Var) -> Var {
        let mut v = copy_matrix(&mut self.f32_pool, &self.nodes[base.0].value);
        for t in &terms {
            match *t {
                Term::Var(a) => v.add_assign(&self.nodes[a.0].value),
                Term::MatMul(a, b) => {
                    v.add_matmul_assign(&self.nodes[a.0].value, &self.nodes[b.0].value)
                }
            }
        }
        v.add_row_relu_assign(&self.nodes[bias.0].value);
        self.push(v, Op::SumRelu { base, terms, bias })
    }

    /// Inverted dropout with keep-probability `1 - p`; pass `train = false`
    /// for identity.
    pub fn dropout(&mut self, a: Var, p: f32, train: bool, rng: &mut Rng64) -> Var {
        if !train || p <= 0.0 {
            let data = copy_f32(&mut self.f32_pool, &self.nodes[a.0].value.data);
            let av = &self.nodes[a.0].value;
            let v = Matrix {
                rows: av.rows,
                cols: av.cols,
                data,
            };
            // Empty mask = identity; avoids an n-element buffer per call.
            return self.push(v, Op::Dropout(a, Vec::new()));
        }
        let keep = 1.0 - p;
        let (scale, cutoff) = (1.0 / keep, keep_cutoff(keep));
        let mut mask = take_empty(&mut self.f32_pool);
        let mut data = take_empty(&mut self.f32_pool);
        let av = &self.nodes[a.0].value;
        // Keeps an element exactly when `rng.f32() < keep` would.
        mask.extend(av.data.iter().map(|_| {
            if rng.next_u64() >> 11 < cutoff {
                scale
            } else {
                0.0
            }
        }));
        data.extend(av.data.iter().zip(&mask).map(|(&x, &m)| x * m));
        let v = Matrix {
            rows: av.rows,
            cols: av.cols,
            data,
        };
        self.push(v, Op::Dropout(a, mask))
    }

    /// Concatenates columns: `[a | b]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (rows, ca, cb) = {
            let (ma, mb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
            assert_eq!(ma.rows, mb.rows, "concat_cols row mismatch");
            (ma.rows, ma.cols, mb.cols)
        };
        let mut data = take_empty(&mut self.f32_pool);
        data.reserve(rows * (ca + cb));
        let (ma, mb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for r in 0..rows {
            data.extend_from_slice(ma.row(r));
            data.extend_from_slice(mb.row(r));
        }
        let v = Matrix {
            rows,
            cols: ca + cb,
            data,
        };
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Column-wise sum over rows: `[n, d] → [1, d]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let cols = self.nodes[a.0].value.cols;
        let data = take_zeroed(&mut self.f32_pool, cols);
        let m = &self.nodes[a.0].value;
        let mut v = Matrix {
            rows: 1,
            cols,
            data,
        };
        for r in 0..m.rows {
            for (o, &x) in v.data.iter_mut().zip(m.row(r)) {
                *o += x;
            }
        }
        self.push(v, Op::SumRows(a))
    }

    /// Gathers rows: `out[i] = a[idx[i]]`.
    pub fn gather(&mut self, a: Var, idx: &[u32]) -> Var {
        let cols = self.nodes[a.0].value.cols;
        let mut data = take_empty(&mut self.f32_pool);
        data.reserve(idx.len() * cols);
        let owned_idx = copy_u32(&mut self.u32_pool, idx);
        let m = &self.nodes[a.0].value;
        for &j in idx {
            data.extend_from_slice(m.row(j as usize));
        }
        let v = Matrix {
            rows: idx.len(),
            cols,
            data,
        };
        self.push(v, Op::Gather(a, owned_idx))
    }

    /// Scatter-add rows: `out[idx[i]] += a[i]`, `out` has `rows` rows.
    pub fn scatter_add(&mut self, a: Var, idx: &[u32], rows: usize) -> Var {
        let mut v = self.scratch();
        let owned_idx = copy_u32(&mut self.u32_pool, idx);
        self.nodes[a.0].value.scatter_add_into(idx, rows, &mut v);
        self.push(v, Op::ScatterAdd(a, owned_idx))
    }

    /// Scatter-max rows: `out[idx[i]] = max(out[idx[i]], a[i])` per column,
    /// with `out` having `rows` rows. Empty segments yield `0.0` and pass
    /// no gradient. Ties route the gradient to the first contributing row
    /// (strict `>` comparison), so results are order-deterministic.
    pub fn scatter_max(&mut self, a: Var, idx: &[u32], rows: usize) -> Var {
        let mut v = self.scratch();
        let owned_idx = copy_u32(&mut self.u32_pool, idx);
        let mut argmax = self.u32_pool.pop().unwrap_or_default();
        self.nodes[a.0]
            .value
            .scatter_max_into(idx, rows, &mut v, &mut argmax);
        self.push(v, Op::ScatterMax(a, owned_idx, argmax))
    }

    /// Per-segment softmax over a single-column input: row `i` belongs to
    /// segment `seg[i]`, and within each segment the outputs form a softmax
    /// of the inputs (max-subtracted for stability). Rows are visited in
    /// order, so results are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column or `seg.len() != a.rows`.
    pub fn segment_softmax(&mut self, a: Var, seg: &[u32], segments: usize) -> Var {
        let owned_seg = copy_u32(&mut self.u32_pool, seg);
        let mut v = copy_matrix(&mut self.f32_pool, &self.nodes[a.0].value);
        let mut maxes = take_empty(&mut self.f32_pool);
        let mut sums = take_empty(&mut self.f32_pool);
        v.segment_softmax_assign(seg, segments, &mut maxes, &mut sums);
        self.f32_pool.push(maxes);
        self.f32_pool.push(sums);
        self.push(v, Op::SegmentSoftmax(a, owned_seg))
    }

    /// Row-broadcast product: `out[r][c] = a[r][c] * w[r][0]`, where `w`
    /// is a column with one weight per row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `a.rows × 1`.
    pub fn mul_col(&mut self, a: Var, w: Var) -> Var {
        let mut v = copy_matrix(&mut self.f32_pool, &self.nodes[a.0].value);
        let wv = &self.nodes[w.0].value;
        assert_eq!(wv.cols, 1, "mul_col weights must be a column");
        assert_eq!(wv.rows, v.rows, "mul_col weight count mismatch");
        v.scale_rows_assign(&wv.data);
        self.push(v, Op::MulCol(a, w))
    }

    /// Multiplies row `i` by `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != a.rows`.
    pub fn scale_rows(&mut self, a: Var, weights: &[f32]) -> Var {
        let mut v = copy_matrix(&mut self.f32_pool, &self.nodes[a.0].value);
        assert_eq!(weights.len(), v.rows, "scale_rows weight count mismatch");
        let owned_w = copy_f32(&mut self.f32_pool, weights);
        v.scale_rows_assign(weights);
        self.push(v, Op::ScaleRows(a, owned_w))
    }

    /// Scalar multiplication.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let data = copy_f32(&mut self.f32_pool, &self.nodes[a.0].value.data);
        let av = &self.nodes[a.0].value;
        let mut v = Matrix {
            rows: av.rows,
            cols: av.cols,
            data,
        };
        v.scale_assign(k);
        self.push(v, Op::Scale(a, k))
    }

    /// Mean absolute percentage error between the single-column prediction
    /// and `targets`; returns a `1 × 1` loss node.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn mape_loss(&mut self, pred: Var, targets: &[f32]) -> Var {
        let owned_t = copy_f32(&mut self.f32_pool, targets);
        let mut data = take_empty(&mut self.f32_pool);
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.cols, 1, "predictions must be a column");
        assert_eq!(p.rows, targets.len(), "target count mismatch");
        let mut acc = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            if t.abs() > 1e-12 {
                acc += ((p.data[i] - t) / t).abs();
            }
        }
        data.push(acc / targets.len().max(1) as f32);
        let v = Matrix {
            rows: 1,
            cols: 1,
            data,
        };
        self.push(v, Op::MapeLoss(pred, owned_t))
    }

    /// Mean squared error; returns a `1 × 1` loss node.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn mse_loss(&mut self, pred: Var, targets: &[f32]) -> Var {
        let owned_t = copy_f32(&mut self.f32_pool, targets);
        let mut data = take_empty(&mut self.f32_pool);
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.cols, 1, "predictions must be a column");
        assert_eq!(p.rows, targets.len(), "target count mismatch");
        let mut acc = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            let d = p.data[i] - t;
            acc += d * d;
        }
        data.push(acc / targets.len().max(1) as f32);
        let v = Matrix {
            rows: 1,
            cols: 1,
            data,
        };
        self.push(v, Op::MseLoss(pred, owned_t))
    }

    /// Runs backpropagation from `loss` (must be `1 × 1`), returning one
    /// gradient slot per parameter index used (missing slots are `None`,
    /// and so is every slot when no parameter reaches `loss`).
    ///
    /// Only nodes through which a gradient reaches a parameter receive one
    /// (see "Gradient pruning" in the module docs). Intermediate gradient
    /// buffers are recycled into the tape pools as they are consumed, so
    /// steady-state backward passes allocate only the returned parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward(&mut self, loss: Var) -> Vec<Option<Matrix>> {
        assert_eq!(self.nodes[loss.0].value.len(), 1, "loss must be scalar");
        debug_assert!(
            self.nodes[loss.0].value.is_finite(),
            "non-finite loss at the tape boundary"
        );
        let mut out: Vec<Option<Matrix>> = vec![None; self.num_params];
        if !self.needs_grad(loss) {
            return out;
        }
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix {
            rows: 1,
            cols: 1,
            data: copy_f32(&mut self.f32_pool, &[1.0]),
        });

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Leaf { param } => {
                    if let Some(slot) = param {
                        match &mut out[*slot] {
                            Some(acc) => {
                                acc.add_assign(&g);
                                self.f32_pool.push(g.data);
                            }
                            slot_ref => *slot_ref = Some(g),
                        }
                    } else {
                        self.f32_pool.push(g.data);
                    }
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs_grad(a) {
                        let mut ga = self.scratch();
                        g.matmul_nt_into(&self.nodes[b.0].value, &mut ga);
                        accumulate(&mut self.f32_pool, &mut grads, a, ga);
                    }
                    if self.needs_grad(b) {
                        let mut gb = self.scratch();
                        self.nodes[a.0].value.matmul_tn_into(&g, &mut gb);
                        accumulate(&mut self.f32_pool, &mut grads, b, gb);
                    }
                    self.f32_pool.push(g.data);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs_grad(a) {
                        let gc = copy_matrix(&mut self.f32_pool, &g);
                        accumulate(&mut self.f32_pool, &mut grads, a, gc);
                    }
                    self.pass_grad(&mut grads, b, g);
                }
                Op::AddRow(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    self.bias_grad(&mut grads, bias, &g);
                    self.pass_grad(&mut grads, a, g);
                }
                Op::AddN(vars) => {
                    let vars = vars.clone();
                    for &v in &vars[1..] {
                        if self.needs_grad(v) {
                            let gc = copy_matrix(&mut self.f32_pool, &g);
                            accumulate(&mut self.f32_pool, &mut grads, v, gc);
                        }
                    }
                    self.pass_grad(&mut grads, vars[0], g);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let mut ga = g;
                    relu_mask(&mut ga, &self.nodes[i].value);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::LinearBiasRelu(a, w, bias) => {
                    let (a, w, bias) = (*a, *w, *bias);
                    // Mask by the fused output (post-ReLU), then split into
                    // the three operand gradients exactly as the unfused
                    // relu → add_row → matmul chain would.
                    let mut gm = g;
                    relu_mask(&mut gm, &self.nodes[i].value);
                    self.bias_grad(&mut grads, bias, &gm);
                    if self.needs_grad(a) {
                        let mut ga = self.scratch();
                        gm.matmul_nt_into(&self.nodes[w.0].value, &mut ga);
                        accumulate(&mut self.f32_pool, &mut grads, a, ga);
                    }
                    if self.needs_grad(w) {
                        let mut gw = self.scratch();
                        self.nodes[a.0].value.matmul_tn_into(&gm, &mut gw);
                        accumulate(&mut self.f32_pool, &mut grads, w, gw);
                    }
                    self.f32_pool.push(gm.data);
                }
                Op::AddRowRelu(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    let mut gm = g;
                    relu_mask(&mut gm, &self.nodes[i].value);
                    self.bias_grad(&mut grads, bias, &gm);
                    self.pass_grad(&mut grads, a, gm);
                }
                Op::SumRelu { .. } => {
                    // The per-term work below borrows the node list and the
                    // pool side by side, so the tape is split by field.
                    let Tape {
                        nodes, f32_pool, ..
                    } = &mut *self;
                    let Op::SumRelu { base, terms, bias } = &nodes[i].op else {
                        unreachable!()
                    };
                    let needs = |v: Var| nodes[v.0].needs_grad;
                    let mut gm = g;
                    relu_mask(&mut gm, &nodes[i].value);
                    if needs(*bias) {
                        let gb = colsum(f32_pool, &gm);
                        accumulate(f32_pool, &mut grads, *bias, gb);
                    }
                    // Reverse order: the unfused chain's product nodes were
                    // recorded in term order and so were visited backwards.
                    for t in terms.iter().rev() {
                        match *t {
                            Term::Var(a) => {
                                if needs(a) {
                                    let ga = copy_matrix(f32_pool, &gm);
                                    accumulate(f32_pool, &mut grads, a, ga);
                                }
                            }
                            Term::MatMul(a, b) => {
                                if needs(a) {
                                    let mut ga = empty(f32_pool);
                                    gm.matmul_nt_into(&nodes[b.0].value, &mut ga);
                                    accumulate(f32_pool, &mut grads, a, ga);
                                }
                                if needs(b) {
                                    let mut gb = empty(f32_pool);
                                    nodes[a.0].value.matmul_tn_into(&gm, &mut gb);
                                    accumulate(f32_pool, &mut grads, b, gb);
                                }
                            }
                        }
                    }
                    let base = *base;
                    self.pass_grad(&mut grads, base, gm);
                }
                Op::Dropout(a, mask) => {
                    let a = *a;
                    let mut ga = g;
                    if !mask.is_empty() {
                        for (x, &m) in ga.data.iter_mut().zip(mask) {
                            *x *= m;
                        }
                    }
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let (ca, cb) = (self.nodes[a.0].value.cols, self.nodes[b.0].value.cols);
                    for (v, lo, width) in [(a, 0, ca), (b, ca, cb)] {
                        if !self.needs_grad(v) {
                            continue;
                        }
                        let mut data = take_empty(&mut self.f32_pool);
                        data.reserve(g.rows * width);
                        for r in 0..g.rows {
                            data.extend_from_slice(&g.row(r)[lo..lo + width]);
                        }
                        let gv = Matrix {
                            rows: g.rows,
                            cols: width,
                            data,
                        };
                        accumulate(&mut self.f32_pool, &mut grads, v, gv);
                    }
                    self.f32_pool.push(g.data);
                }
                Op::SumRows(a) => {
                    let a = *a;
                    let rows = self.nodes[a.0].value.rows;
                    let mut data = take_empty(&mut self.f32_pool);
                    data.reserve(rows * g.cols);
                    for _ in 0..rows {
                        data.extend_from_slice(g.row(0));
                    }
                    let ga = Matrix {
                        rows,
                        cols: g.cols,
                        data,
                    };
                    self.f32_pool.push(g.data);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::Gather(a, _) => {
                    let a = *a;
                    let (rows, cols) = {
                        let src = &self.nodes[a.0].value;
                        (src.rows, src.cols)
                    };
                    let mut ga = Matrix {
                        rows,
                        cols,
                        data: take_zeroed(&mut self.f32_pool, rows * cols),
                    };
                    let Op::Gather(_, idx) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    for (r, &j) in idx.iter().enumerate() {
                        let dst = ga.row_mut(j as usize);
                        for (o, &x) in dst.iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    self.f32_pool.push(g.data);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::ScatterAdd(a, _) => {
                    let a = *a;
                    let (rows, cols) = {
                        let src = &self.nodes[a.0].value;
                        (src.rows, src.cols)
                    };
                    let Op::ScatterAdd(_, idx) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let mut data = take_empty(&mut self.f32_pool);
                    data.reserve(rows * cols);
                    for &j in idx {
                        data.extend_from_slice(g.row(j as usize));
                    }
                    // Rows past `idx` scattered nothing and get no gradient.
                    data.resize(rows * cols, 0.0);
                    let ga = Matrix { rows, cols, data };
                    self.f32_pool.push(g.data);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::ScaleRows(a, w) => {
                    let a = *a;
                    let mut ga = g;
                    for (r, &k) in w.iter().enumerate() {
                        for x in ga.row_mut(r) {
                            *x *= k;
                        }
                    }
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::Scale(a, k) => {
                    let (a, k) = (*a, *k);
                    let mut ga = g;
                    ga.scale_assign(k);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::MapeLoss(pred, targets) => {
                    let pred = *pred;
                    let rows = self.nodes[pred.0].value.rows;
                    let n = targets.len().max(1) as f32;
                    let scale = g.data[0] / n;
                    let Op::MapeLoss(_, targets) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let p = &self.nodes[pred.0].value;
                    let mut data = take_empty(&mut self.f32_pool);
                    data.extend(targets.iter().zip(&p.data).map(|(&t, &pv)| {
                        if t.abs() > 1e-12 {
                            let sign = if pv >= t { 1.0 } else { -1.0 };
                            scale * sign / t.abs()
                        } else {
                            0.0
                        }
                    }));
                    let gp = Matrix {
                        rows,
                        cols: 1,
                        data,
                    };
                    self.f32_pool.push(g.data);
                    accumulate(&mut self.f32_pool, &mut grads, pred, gp);
                }
                Op::MseLoss(pred, targets) => {
                    let pred = *pred;
                    let rows = self.nodes[pred.0].value.rows;
                    let n = targets.len().max(1) as f32;
                    let scale = 2.0 * g.data[0] / n;
                    let Op::MseLoss(_, targets) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let p = &self.nodes[pred.0].value;
                    let mut data = take_empty(&mut self.f32_pool);
                    data.extend(
                        targets
                            .iter()
                            .zip(&p.data)
                            .map(|(&t, &pv)| scale * (pv - t)),
                    );
                    let gp = Matrix {
                        rows,
                        cols: 1,
                        data,
                    };
                    self.f32_pool.push(g.data);
                    accumulate(&mut self.f32_pool, &mut grads, pred, gp);
                }
                Op::ScatterMax(a, _, _) => {
                    let a = *a;
                    let (rows, cols) = {
                        let src = &self.nodes[a.0].value;
                        (src.rows, src.cols)
                    };
                    let mut ga = Matrix {
                        rows,
                        cols,
                        data: take_zeroed(&mut self.f32_pool, rows * cols),
                    };
                    let Op::ScatterMax(_, _, argmax) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    // Route each output gradient to the row that won the max.
                    for (slot, &am) in argmax.iter().enumerate() {
                        if am != u32::MAX {
                            let c = slot % cols;
                            ga.row_mut(am as usize)[c] += g.data[slot];
                        }
                    }
                    self.f32_pool.push(g.data);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::SegmentSoftmax(a, _) => {
                    let a = *a;
                    let Op::SegmentSoftmax(_, seg) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let segments = seg.iter().max().map_or(0, |&m| m as usize + 1);
                    let mut dots = take_zeroed(&mut self.f32_pool, segments);
                    let y = &self.nodes[i].value;
                    for (r, &s) in seg.iter().enumerate() {
                        dots[s as usize] += y.data[r] * g.data[r];
                    }
                    // dL/dx_i = y_i * (g_i - Σ_{j in segment} y_j g_j)
                    let mut ga = g;
                    for (r, &s) in seg.iter().enumerate() {
                        ga.data[r] = y.data[r] * (ga.data[r] - dots[s as usize]);
                    }
                    self.f32_pool.push(dots);
                    accumulate(&mut self.f32_pool, &mut grads, a, ga);
                }
                Op::MulCol(a, w) => {
                    let (a, w) = (*a, *w);
                    let gw = self.needs_grad(w).then(|| {
                        let rows = g.rows;
                        let av = &self.nodes[a.0].value;
                        let mut data = take_empty(&mut self.f32_pool);
                        data.extend((0..rows).map(|r| {
                            let mut acc = 0.0f32;
                            for (&gx, &ax) in g.row(r).iter().zip(av.row(r)) {
                                acc += gx * ax;
                            }
                            acc
                        }));
                        Matrix {
                            rows,
                            cols: 1,
                            data,
                        }
                    });
                    if self.needs_grad(a) {
                        let wv = &self.nodes[w.0].value;
                        let mut ga = g;
                        for (r, &k) in wv.data.iter().enumerate() {
                            for x in ga.row_mut(r) {
                                *x *= k;
                            }
                        }
                        accumulate(&mut self.f32_pool, &mut grads, a, ga);
                    } else {
                        self.f32_pool.push(g.data);
                    }
                    if let Some(gw) = gw {
                        accumulate(&mut self.f32_pool, &mut grads, w, gw);
                    }
                }
            }
        }
        out
    }

    /// Hands `g` on to `v`, or returns its buffer to the pool when no
    /// gradient flows into `v`.
    fn pass_grad(&mut self, grads: &mut [Option<Matrix>], v: Var, g: Matrix) {
        if self.needs_grad(v) {
            accumulate(&mut self.f32_pool, grads, v, g);
        } else {
            self.f32_pool.push(g.data);
        }
    }

    /// Accumulates the column sum of `g` into `bias` when a gradient flows
    /// into it.
    fn bias_grad(&mut self, grads: &mut [Option<Matrix>], bias: Var, g: &Matrix) {
        if self.needs_grad(bias) {
            let gb = colsum(&mut self.f32_pool, g);
            accumulate(&mut self.f32_pool, grads, bias, gb);
        }
    }

    /// Number of nodes recorded (for memory diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// `u·2⁻⁵³` rounded to `f32`: what [`Rng64::f32`] returns for a draw whose
/// top 53 bits are `u`.
fn unit_f32(u: u64) -> f32 {
    (u as f64 * (1.0 / (1u64 << 53) as f64)) as f32
}

/// The dropout keep test as an integer compare: `rng.f32() < keep` holds
/// exactly when `rng.next_u64() >> 11 < keep_cutoff(keep)`. [`unit_f32`]
/// is monotone in `u`, so the draws below `keep` are a prefix of
/// `0..2⁵³`, and a binary search finds where it ends. The compare skips
/// two float conversions per element.
fn keep_cutoff(keep: f32) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 53);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if unit_f32(mid) < keep {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// An empty matrix whose storage comes from `pool`.
fn empty(pool: &mut Vec<Vec<f32>>) -> Matrix {
    Matrix {
        rows: 0,
        cols: 0,
        data: take_empty(pool),
    }
}

/// Pool-backed column sum `[n, d] → [1, d]` (bias gradient).
fn colsum(pool: &mut Vec<Vec<f32>>, g: &Matrix) -> Matrix {
    let mut gb = Matrix {
        rows: 1,
        cols: g.cols,
        data: take_zeroed(pool, g.cols),
    };
    for r in 0..g.rows {
        for (o, &x) in gb.data.iter_mut().zip(g.row(r)) {
            *o += x;
        }
    }
    gb
}

/// Zeroes the entries of `g` where the ReLU output `out` is not positive.
fn relu_mask(g: &mut Matrix, out: &Matrix) {
    for (x, &v) in g.data.iter_mut().zip(&out.data) {
        if v <= 0.0 {
            *x = 0.0;
        }
    }
}

/// Adds `g` into the gradient slot for `v`, recycling `g`'s buffer into
/// the pool when the slot already holds an accumulator.
fn accumulate(pool: &mut Vec<Vec<f32>>, grads: &mut [Option<Matrix>], v: Var, g: Matrix) {
    match &mut grads[v.0] {
        Some(acc) => {
            acc.add_assign(&g);
            pool.push(g.data);
        }
        slot => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar function of params.
    fn grad_check<F>(param: Matrix, f: F)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut tape = Tape::new();
        let p = tape.param(0, &param);
        let loss = f(&mut tape, p);
        let grads = tape.backward(loss);
        let analytic = grads[0].as_ref().expect("param grad");

        let eps = 1e-3f32;
        for k in 0..param.len() {
            let mut plus = param.clone();
            plus.data[k] += eps;
            let mut tp = Tape::new();
            let vp = tp.param(0, &plus);
            let lp = f(&mut tp, vp);
            let fp = tp.value(lp).data[0];

            let mut minus = param.clone();
            minus.data[k] -= eps;
            let mut tm = Tape::new();
            let vm = tm.param(0, &minus);
            let lm = f(&mut tm, vm);
            let fm = tm.value(lm).data[0];

            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data[k];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad[{k}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_mse() {
        let w = Matrix::from_vec(2, 2, vec![0.3, -0.2, 0.5, 0.7]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(
                3,
                2,
                vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7],
            ));
            let h = t.matmul(x, p);
            let w2 = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(h, w2);
            t.mse_loss(y, &[0.5, -0.2, 0.1])
        });
    }

    #[test]
    fn grad_relu_chain() {
        let w = Matrix::from_vec(2, 1, vec![0.8, -0.6]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]));
            let h = t.matmul(x, p);
            let r = t.relu(h);
            t.mse_loss(r, &[1.0, 0.0])
        });
    }

    #[test]
    fn grad_linear_bias_relu_weight() {
        let w = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(
                3,
                2,
                vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7],
            ));
            let b = t.leaf(&Matrix::from_vec(1, 3, vec![0.05, -0.1, 0.2]));
            let h = t.linear_bias_relu(x, p, b);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, -0.5, 0.25]));
            let y = t.matmul(h, v);
            t.mse_loss(y, &[0.5, -0.2, 0.1])
        });
    }

    #[test]
    fn grad_linear_bias_relu_bias() {
        let b = Matrix::from_vec(1, 2, vec![0.15, -0.35]);
        grad_check(b, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]));
            let w = t.leaf(&Matrix::from_vec(2, 2, vec![0.6, -0.3, 0.2, 0.9]));
            let h = t.linear_bias_relu(x, w, p);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(h, v);
            t.mse_loss(y, &[0.3, -0.6])
        });
    }

    #[test]
    fn grad_add_row_relu() {
        let w = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(
                2,
                3,
                vec![0.4, -0.6, 1.0, -0.2, 0.8, -1.1],
            ));
            let h = t.add_row_relu(x, p);
            let s = t.sum_rows(h);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[1.0])
        });
    }

    #[test]
    fn fused_ops_match_unfused_chain() {
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7]);
        let w = Matrix::from_vec(2, 2, vec![0.3, -0.2, 0.5, 0.7]);
        let b = Matrix::from_vec(1, 2, vec![0.1, -0.4]);

        let v = Matrix::from_vec(2, 1, vec![1.0, -0.75]);

        let mut fused = Tape::new();
        let (xf, wf, bf) = (fused.leaf(&x), fused.param(0, &w), fused.param(1, &b));
        let hf = fused.linear_bias_relu(xf, wf, bf);
        let vf = fused.leaf(&v);
        let yf = fused.matmul(hf, vf);
        let lf = fused.mse_loss(yf, &[1.0, 0.0, -0.5]);
        let fused_val = fused.value(hf).clone();
        let fused_grads = fused.backward(lf);

        let mut plain = Tape::new();
        let (xp, wp, bp) = (plain.leaf(&x), plain.param(0, &w), plain.param(1, &b));
        let mm = plain.matmul(xp, wp);
        let ar = plain.add_row(mm, bp);
        let hp = plain.relu(ar);
        let vp = plain.leaf(&v);
        let yp = plain.matmul(hp, vp);
        let lp = plain.mse_loss(yp, &[1.0, 0.0, -0.5]);
        assert_eq!(fused_val, *plain.value(hp));
        let plain_grads = plain.backward(lp);
        for (f, p) in fused_grads.iter().zip(&plain_grads) {
            assert_eq!(f, p, "fused gradient diverged from unfused chain");
        }
    }

    /// Bit patterns of every gradient slot, for bitwise comparison.
    fn grad_bits(grads: &[Option<Matrix>]) -> Vec<Option<Vec<u32>>> {
        grads
            .iter()
            .map(|g| {
                g.as_ref()
                    .map(|g| g.data.iter().map(|v| v.to_bits()).collect())
            })
            .collect()
    }

    #[test]
    fn sum_relu_matches_unfused_chain_bitwise() {
        // x feeds the base product, a gather and the loss, so it has three
        // gradient contributions; `p` appears in two product terms.
        let mut rng = Rng64::new(5);
        let mut rand = |r: usize, c: usize| {
            Matrix::from_vec(r, c, (0..r * c).map(|_| rng.f32() - 0.5).collect())
        };
        let (x, wv, p, q, b) = (rand(6, 5), rand(5, 3), rand(5, 3), rand(6, 3), rand(1, 3));
        let c = rand(6, 5);
        let record = |t: &mut Tape, fused: bool| {
            let xv = t.param(0, &x);
            let (wvv, pv, qv, bv) = (
                t.param(1, &wv),
                t.param(2, &p),
                t.param(3, &q),
                t.param(4, &b),
            );
            let cv = t.leaf(&c);
            let base = t.matmul(xv, wvv);
            let gx = t.gather(xv, &[5, 4, 3, 2, 1, 0]);
            let h = if fused {
                let terms = vec![Term::MatMul(gx, pv), Term::Var(qv), Term::MatMul(cv, pv)];
                t.sum_relu(base, terms, bv)
            } else {
                let m1 = t.matmul(gx, pv);
                let m2 = t.matmul(cv, pv);
                let s = t.add_n(vec![base, m1, qv, m2]);
                t.add_row_relu(s, bv)
            };
            let pooled = t.sum_rows(h);
            let px = t.sum_rows(xv);
            let u = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, -0.5, 0.25]));
            let y1 = t.matmul(pooled, u);
            let w = t.leaf(&Matrix::from_vec(5, 1, vec![0.3, 0.1, -0.2, 0.4, -0.1]));
            let y2 = t.matmul(px, w);
            let y = t.add(y1, y2);
            let loss = t.mse_loss(y, &[0.7]);
            let value = t.value(h).clone();
            (value, t.backward(loss))
        };
        let (fused_value, fused_grads) = record(&mut Tape::new(), true);
        let (plain_value, plain_grads) = record(&mut Tape::new(), false);
        assert_eq!(fused_value, plain_value);
        assert!(fused_value.data.contains(&0.0), "ReLU mask unexercised");
        assert_eq!(grad_bits(&fused_grads), grad_bits(&plain_grads));
    }

    #[test]
    fn constant_subgraph_is_pruned_and_param_grad_is_exact() {
        let feats = Matrix::from_vec(
            5,
            2,
            vec![0.5, -1.0, 0.25, 2.0, -0.75, 1.5, 1.0, 0.1, -0.3, 0.6],
        );
        let w = Matrix::from_vec(2, 1, vec![0.8, -0.4]);
        let targets = [0.3, -0.2, 0.9];
        let mut t = Tape::new();
        let x = t.leaf(&feats);
        let gathered = t.gather(x, &[4, 0, 0, 3, 1, 2]);
        let summed = t.scatter_add(gathered, &[2, 0, 1, 1, 2, 0], 3);
        let wv = t.param(0, &w);
        let y = t.matmul(summed, wv);
        let loss = t.mse_loss(y, &targets);
        for v in [x, gathered, summed] {
            assert!(!t.needs_grad(v), "constant node flagged");
        }
        for v in [wv, y, loss] {
            assert!(t.needs_grad(v), "parameter path not flagged");
        }
        let s = t.value(summed).clone();
        let yv = t.value(y).clone();
        let grads = t.backward(loss);

        // The same gradient by hand: the MSE backward's row gradient, then
        // one explicit `Sᵀ·g`.
        let scale = 2.0 * 1.0 / targets.len() as f32;
        let gy: Vec<f32> = targets
            .iter()
            .enumerate()
            .map(|(r, &tg)| scale * (yv.data[r] - tg))
            .collect();
        let mut want = Matrix::default();
        s.matmul_tn_into(&Matrix::from_vec(3, 1, gy), &mut want);
        assert_eq!(grad_bits(&grads), grad_bits(&[Some(want)]));
    }

    #[test]
    fn loss_reaching_no_parameter_returns_all_none() {
        let mut t = Tape::new();
        let _unused = t.param(1, &Matrix::scalar(2.0));
        let x = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -3.0]));
        let r = t.relu(x);
        let loss = t.mse_loss(r, &[0.5, 0.5]);
        let pool_before = t.f32_pool.len();
        let grads = t.backward(loss);
        assert_eq!(grads.len(), 2);
        assert!(grads.iter().all(Option::is_none));
        assert_eq!(t.f32_pool.len(), pool_before, "backward touched the pool");
    }

    #[test]
    fn reset_reuses_buffers_and_preserves_results() {
        let mut t = Tape::new();
        let mut reference: Option<Vec<f32>> = None;
        for _ in 0..3 {
            t.reset();
            let x = t.leaf(&Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]));
            let w = t.param(0, &Matrix::from_vec(2, 1, vec![0.8, -0.6]));
            let b = t.param(1, &Matrix::from_vec(1, 1, vec![0.1]));
            let h = t.linear_bias_relu(x, w, b);
            let loss = t.mse_loss(h, &[1.0, 0.0]);
            let grads = t.backward(loss);
            let gw = grads[0].as_ref().expect("weight grad").data.clone();
            match &reference {
                None => reference = Some(gw),
                Some(r) => assert_eq!(r, &gw, "tape reuse changed gradients"),
            }
        }
        assert!(!t.is_empty());
        t.reset();
        assert!(t.is_empty());
    }

    /// One step through every op that takes an output buffer from the
    /// pool; returns the loss and every gradient as bit patterns.
    fn pool_probe_step(t: &mut Tape) -> Vec<u32> {
        let seq = |r: usize, c: usize, k: f32| {
            Matrix::from_vec(r, c, (0..r * c).map(|v| ((v as f32) * k).sin()).collect())
        };
        let x = t.leaf(&seq(5, 3, 0.9));
        let w = t.param(0, &seq(3, 4, 0.7));
        let b = t.param(1, &seq(1, 4, 1.3));
        let e = t.param(2, &seq(4, 4, 0.4));
        let ev = t.param(3, &seq(4, 1, 1.1));
        let v8 = t.param(4, &seq(8, 1, 0.6));
        let h = t.linear_bias_relu(x, w, b);
        let d = t.dropout(h, 0.3, true, &mut Rng64::new(4));
        let g = t.gather(d, &[0, 2, 4, 1, 1, 3]);
        let s = t.scatter_add(g, &[1, 0, 1, 4, 2, 2], 5);
        let m = t.scatter_max(g, &[0, 0, 3, 3, 4, 1], 5);
        let c = t.concat_cols(s, m);
        let xw = t.matmul(x, w);
        let z = t.sum_relu(xw, vec![Term::MatMul(s, e), Term::Var(m)], b);
        let r = t.add_row_relu(s, b);
        let r = t.scale_rows(r, &[0.5, -1.0, 2.0, 0.25, 1.5]);
        let r = t.scale(r, 0.75);
        let r = t.relu(r);
        let z = t.add_n(vec![z, r, m]);
        let z = t.add_row(z, b);
        let sc = t.matmul(z, ev);
        let sm = t.segment_softmax(sc, &[0, 0, 1, 1, 1], 2);
        let mc = t.mul_col(z, sm);
        let p1 = t.matmul(c, v8);
        let p2 = t.matmul(mc, ev);
        let pred = t.add(p1, p2);
        let l1 = t.mape_loss(pred, &[1.0, 0.0, -2.0, 0.5, 3.0]);
        let l2 = t.mse_loss(pred, &[0.5, 1.0, -1.0, 0.0, 2.0]);
        let pooled = t.sum_rows(c);
        let l3 = t.matmul(pooled, v8);
        let loss = t.add_n(vec![l1, l2, l3]);
        let mut bits: Vec<u32> = t.value(loss).data.iter().map(|v| v.to_bits()).collect();
        for grad in t.backward(loss) {
            let grad = grad.expect("every parameter gets a gradient");
            bits.extend(grad.data.iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn nan_poisoned_pool_matches_fresh_tape() {
        // Ops that overwrite their whole output take pooled buffers without
        // zero-filling them; a stale value must never reach a result.
        let want = pool_probe_step(&mut Tape::new());
        assert!(want.iter().all(|&v| !f32::from_bits(v).is_nan()));
        let mut t = Tape::new();
        for _ in 0..3 {
            pool_probe_step(&mut t);
            t.reset();
            assert!(!t.f32_pool.is_empty());
            for buf in &mut t.f32_pool {
                let len = buf.capacity().max(64);
                buf.clear();
                buf.resize(len, f32::NAN);
            }
            assert_eq!(pool_probe_step(&mut t), want);
            t.reset();
        }
    }

    #[test]
    fn pool_size_is_constant_in_steady_state() {
        // Leaves, parameters and the backward seed are copied into pooled
        // buffers, so `reset` files back exactly what a step took and the
        // pool stops growing once it has warmed up.
        let x = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]);
        let y = Matrix::from_vec(2, 2, vec![0.25, 0.5, -0.75, 1.0]);
        let w = Matrix::from_vec(2, 1, vec![0.8, -0.6]);
        let mut t = Tape::new();
        for with_backward in [false, true] {
            let mut sizes = Vec::new();
            for _ in 0..100 {
                t.reset();
                let (xv, yv) = (t.leaf(&x), t.leaf(&y));
                let s = t.add(xv, yv);
                if with_backward {
                    let wv = t.param(0, &w);
                    let h = t.matmul(s, wv);
                    let loss = t.mse_loss(h, &[1.0, 0.0]);
                    let _ = t.backward(loss);
                }
                t.reset();
                sizes.push(t.f32_pool.len());
            }
            assert!(
                sizes[1..].iter().all(|&n| n == sizes[1]),
                "pool grew (backward: {with_backward}): {sizes:?}"
            );
        }
    }

    #[test]
    fn grad_gather_scatter() {
        let w = Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        grad_check(w, |t, p| {
            let g = t.gather(p, &[0, 2, 2, 1]);
            let s = t.scatter_add(g, &[1, 0, 1, 1], 2);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.2, -0.1])
        });
    }

    #[test]
    fn grad_sum_rows_concat() {
        let w = Matrix::from_vec(2, 2, vec![0.4, -0.1, 0.2, 0.9]);
        grad_check(w, |t, p| {
            let s = t.sum_rows(p); // [1,2]
            let c = t.concat_cols(s, s); // [1,4]
            let v = t.leaf(&Matrix::from_vec(4, 1, vec![1.0, 0.5, -0.5, 2.0]));
            let y = t.matmul(c, v);
            t.mse_loss(y, &[0.3])
        });
    }

    #[test]
    fn grad_scale_rows_bias() {
        let w = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 3, vec![1.0; 6]));
            let h = t.add_row(x, p);
            let sc = t.scale_rows(h, &[0.5, 2.0]);
            let s = t.sum_rows(sc);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[1.0])
        });
    }

    #[test]
    fn grad_mape() {
        let w = Matrix::from_vec(1, 1, vec![0.9]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, 2.0]));
            let y = t.matmul(x, p);
            t.mape_loss(y, &[1.2, 1.5])
        });
    }

    #[test]
    fn grad_add_n_and_scale() {
        let w = Matrix::from_vec(2, 2, vec![0.2, 0.3, -0.4, 0.6]);
        grad_check(w, |t, p| {
            let a = t.scale(p, 0.5);
            let b = t.relu(p);
            let s = t.add_n(vec![a, b, p]);
            let sr = t.sum_rows(s);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -2.0]));
            let y = t.matmul(sr, v);
            t.mse_loss(y, &[0.1])
        });
    }

    #[test]
    fn grad_scatter_max() {
        // Values are well-separated so the argmax is stable under the
        // finite-difference epsilon.
        let w = Matrix::from_vec(4, 2, vec![0.9, 0.1, 0.2, 0.8, 0.5, -0.4, -0.3, 0.6]);
        grad_check(w, |t, p| {
            let s = t.scatter_max(p, &[0, 1, 0, 1], 2);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.2, -0.1])
        });
    }

    #[test]
    fn scatter_max_routes_ties_to_first_row_and_zeroes_empty_segments() {
        let mut t = Tape::new();
        let x = t.param(0, &Matrix::from_vec(3, 1, vec![2.0, 2.0, 1.0]));
        // Rows 0 and 1 tie in segment 0; segment 1 is empty.
        let s = t.scatter_max(x, &[0, 0, 0], 2);
        assert_eq!(t.value(s).data, vec![2.0, 0.0]);
        let loss = t.mse_loss(s, &[0.0, 0.0]);
        let g = t.backward(loss);
        let gx = g[0].as_ref().expect("param grad");
        assert!(gx.data[0] != 0.0, "first tying row must take the gradient");
        assert_eq!(gx.data[1], 0.0, "later tying row must get none");
        assert_eq!(gx.data[2], 0.0, "non-max row must get none");
    }

    #[test]
    fn grad_segment_softmax() {
        let w = Matrix::from_vec(5, 1, vec![0.4, -0.6, 1.1, 0.2, -0.9]);
        grad_check(w, |t, p| {
            let a = t.segment_softmax(p, &[0, 1, 0, 1, 1], 2);
            let v = t.leaf(&Matrix::from_vec(
                5,
                2,
                vec![1.0, 0.3, -0.5, 0.8, 0.2, -0.7, 0.6, 0.1, -0.2, 0.9],
            ));
            let wsum = t.mul_col(v, a);
            let s = t.sum_rows(wsum);
            let u = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, u);
            t.mse_loss(y, &[0.25])
        });
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_vec(4, 1, vec![10.0, -3.0, 10.5, 0.0]));
        let y = t.segment_softmax(x, &[1, 0, 1, 0], 2);
        let d = &t.value(y).data;
        assert!((d[1] + d[3] - 1.0).abs() < 1e-6, "segment 0 sums to 1");
        assert!((d[0] + d[2] - 1.0).abs() < 1e-6, "segment 1 sums to 1");
        assert!(d.iter().all(|&p| p > 0.0 && p < 1.0));
    }

    #[test]
    fn grad_mul_col_weights() {
        let w = Matrix::from_vec(3, 1, vec![0.7, -0.2, 1.3]);
        grad_check(w, |t, p| {
            let a = t.leaf(&Matrix::from_vec(
                3,
                2,
                vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7],
            ));
            let m = t.mul_col(a, p);
            let s = t.sum_rows(m);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -0.5]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.4])
        });
    }

    #[test]
    fn grad_mul_col_matrix() {
        let w = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]);
        grad_check(w, |t, p| {
            let k = t.leaf(&Matrix::from_vec(2, 1, vec![0.6, -1.2]));
            let m = t.mul_col(p, k);
            let s = t.sum_rows(m);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, 0.5, -0.5]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.1])
        });
    }

    #[test]
    fn dropout_mask_matches_f32_draws() {
        // `unit_f32` is `Rng64::f32`'s conversion, draw for draw.
        let (mut a, mut b) = (Rng64::new(3), Rng64::new(3));
        for _ in 0..100_000 {
            assert_eq!(a.f32().to_bits(), unit_f32(b.next_u64() >> 11).to_bits());
        }
        for p in [0.2f32, 0.5, 0.9, 1e-7, 0.99999994, 1.0, f32::NAN] {
            let keep = 1.0 - p;
            let cut = keep_cutoff(keep);
            // The cutoff sits exactly on the boundary of the f32 compare.
            assert!(cut == 0 || unit_f32(cut - 1) < keep, "p={p}");
            assert!(
                cut == 1 << 53 || unit_f32(cut) >= keep || keep.is_nan(),
                "p={p}"
            );
            // And the tape's mask equals the one the f32 draws give.
            let mut t = Tape::new();
            let x = t.leaf(&Matrix::from_vec(1, 4096, vec![1.5; 4096]));
            let d = t.dropout(x, p, true, &mut Rng64::new(9));
            let mut rng = Rng64::new(9);
            let want: Vec<u32> = (0..4096)
                .map(|_| {
                    let m = if rng.f32() < keep { 1.0 / keep } else { 0.0 };
                    (1.5 * m).to_bits()
                })
                .collect();
            let got: Vec<u32> = t.value(d).data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = Rng64::new(0);
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let d = t.dropout(x, 0.5, false, &mut rng);
        assert_eq!(t.value(d).data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dropout_train_masks_and_scales() {
        let mut rng = Rng64::new(7);
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_vec(1, 1000, vec![1.0; 1000]));
        let d = t.dropout(x, 0.4, true, &mut rng);
        let kept = t.value(d).data.iter().filter(|&&v| v > 0.0).count();
        assert!((450..750).contains(&kept), "kept {kept}");
        for &v in &t.value(d).data {
            assert!(v == 0.0 || (v - 1.0 / 0.6).abs() < 1e-5);
        }
    }

    #[test]
    fn unused_params_get_none() {
        let mut t = Tape::new();
        let p0 = t.param(0, &Matrix::scalar(1.0));
        let _p1 = t.param(1, &Matrix::scalar(2.0));
        let loss = t.mse_loss(p0, &[0.0]);
        let grads = t.backward(loss);
        assert!(grads[0].is_some());
        assert!(grads[1].is_none());
    }

    #[test]
    fn shared_param_accumulates() {
        let mut t = Tape::new();
        let p = t.param(0, &Matrix::scalar(3.0));
        let s = t.add(p, p); // y = 2p, dy/dp = 2
        let loss = t.mse_loss(s, &[0.0]); // L = (2p)^2, dL/dp = 8p = 24
        let g = t.backward(loss);
        assert!((g[0].as_ref().unwrap().data[0] - 24.0).abs() < 1e-4);
    }
}
