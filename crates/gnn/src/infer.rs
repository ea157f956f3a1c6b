//! Tape-free inference forward.
//!
//! [`PowerModel::forward_eval`] computes exactly what
//! [`PowerModel::forward`] computes with `train = false`, without recording
//! an autodiff graph. It borrows parameters from the
//! [`pg_tensor::ParamStore`] and features from the [`GraphBatch`] instead
//! of copying them onto tape leaves, computes the batch-only terms (the
//! per-relation edge-feature sums of Eq. 5, GraphSAGE's inverse degrees,
//! GraphConv's edge weights) once per forward instead of once per layer,
//! skips the identity copy eval-mode dropout makes, and fuses each
//! gather → scale → scatter chain into one pass. Layer outputs are pooled
//! as soon as they are produced, so only the current activation is kept.
//!
//! HEC relation messages follow the tape's factored Eq. 5 (see
//! [`crate::model`]): the 4 × h product `W_E·W_r` is formed per relation
//! group and the n × 4 edge sums are multiplied by it straight into the
//! layer sum, so no n × h projection or message buffer exists on that
//! path. Per layer and relation at h = 32 this is `128n + 4096`
//! multiply-adds instead of `1152n`.
//!
//! # Bit-identity with the tape
//!
//! Every value is produced by the same float operations in the same order
//! as the tape ops it replaces. Matmuls, bias-and-ReLU epilogues, row
//! scaling, scatter-add/max and the segment softmax are the very
//! [`Matrix`] kernels the tape ops call; each layer sum adds its messages
//! with [`Matrix::add_matmul_assign`] in the order the tape's
//! [`Tape::sum_relu`] adds them. The fused passes add `x[src]·w`
//! (rounded, as the materialized product was) into destination rows in
//! edge order, and GINE's message keeps the tape's plain ReLU. Only copies
//! and allocations disappear, so predictions match the tape forward bit
//! for bit — a property test in `tests/properties.rs` pins this across the
//! model zoo and every ablation switch.
//!
//! The [`Tape`] argument serves only as a buffer pool: every temporary is
//! drawn from it and returned to it, so a serving worker that keeps one
//! tape reaches a steady state with no allocations per batch.

use crate::batch::{GraphBatch, RelEdges};
use crate::model::{Arch, Pool, PowerModel};
use pg_tensor::{Matrix, Tape};

/// Reshapes `m` to `rows × cols` zeros, keeping its allocation.
fn zeroed(m: &mut Matrix, rows: usize, cols: usize) {
    m.rows = rows;
    m.cols = cols;
    m.data.clear();
    m.data.resize(rows * cols, 0.0);
}

/// `out = scatter_add(gather(x, src) · w, dst)` with `out` of `rows` rows:
/// the tape's gather → scale_rows → scatter_add chain in one pass.
/// `w = None` is the unscaled gather → scatter_add chain.
fn gather_scatter(
    x: &Matrix,
    src: &[u32],
    dst: &[u32],
    w: Option<&[f32]>,
    rows: usize,
    out: &mut Matrix,
) {
    let cols = x.cols;
    zeroed(out, rows, cols);
    for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
        let from = x.row(s as usize);
        let to = out.row_mut(d as usize);
        match w {
            Some(w) => {
                let k = w[e];
                for (o, &v) in to.iter_mut().zip(from) {
                    *o += v * k;
                }
            }
            None => {
                for (o, &v) in to.iter_mut().zip(from) {
                    *o += v;
                }
            }
        }
    }
}

/// Temporaries of one forward pass, drawn from the tape's pool.
struct Scratch {
    /// Neighbour aggregate (pre-projection).
    agg: Matrix,
    /// Projected aggregate / second term of a layer, or HEC's `W_E·W_r`.
    proj: Matrix,
    /// Per-head attention scores and softmax weights.
    score: Matrix,
    /// Per-head projected output.
    head: Matrix,
    /// Gathered source embeddings (attention without edge features).
    ein: Matrix,
    /// One layer's pooled readout (layers after the first).
    pooled: Matrix,
    /// Softmax scratch, one entry per node.
    maxes: Vec<f32>,
    sums: Vec<f32>,
    /// Winning rows of the max readout (unused by the result).
    argmax: Vec<u32>,
}

impl Scratch {
    fn take(tape: &mut Tape) -> Scratch {
        Scratch {
            agg: tape.scratch(),
            proj: tape.scratch(),
            score: tape.scratch(),
            head: tape.scratch(),
            ein: tape.scratch(),
            pooled: tape.scratch(),
            maxes: Vec::new(),
            sums: Vec::new(),
            argmax: Vec::new(),
        }
    }

    fn give_back(self, tape: &mut Tape) {
        for m in [
            self.agg,
            self.proj,
            self.score,
            self.head,
            self.ein,
            self.pooled,
        ] {
            tape.recycle(m);
        }
    }
}

/// Batch-only terms shared by every layer of one forward pass.
struct Shared<'b> {
    /// HEC relation groups, as [`PowerModel::hec_groups`] lists them.
    groups: Vec<(usize, &'b RelEdges)>,
    /// `Σ_u e_{u,v,r}` per group (HEC without attention, with edge
    /// features); empty groups hold an unused empty matrix.
    edge_sums: Vec<Matrix>,
    /// Row scale of the neighbour aggregate: GraphSAGE's inverse in-degree
    /// or GraphConv's per-edge weight.
    weights: Vec<f32>,
    /// Inverse node count per graph (mean readout).
    inv_counts: Vec<f32>,
}

impl PowerModel {
    /// Eval-mode forward pass without an autodiff tape: returns the `G × 1`
    /// normalized-power predictions, bit-identical to the value of
    /// [`PowerModel::forward`] with `train = false`.
    ///
    /// `tape` is used only as a buffer pool (it records nothing); hand the
    /// returned matrix back with [`Tape::recycle`] to keep the pool
    /// balanced. See the [module docs](crate::infer) for what the pass
    /// saves over the tape forward.
    ///
    /// # Panics
    ///
    /// Panics if the model uses metadata and the batch's metadata width
    /// differs from `config.meta_dim`.
    pub fn forward_eval(&self, batch: &GraphBatch, tape: &mut Tape) -> Matrix {
        let cfg = &self.config;
        let n = batch.num_nodes;
        let mut sc = Scratch::take(tape);
        let shared = self.shared_terms(batch, tape);

        // `None` = the first layer, whose input is the batch's features.
        let mut x: Option<Matrix> = None;
        let mut hg = tape.scratch();
        for l in 0..cfg.layers {
            let input = x.as_ref().unwrap_or(&batch.node_feats);
            let mut h = tape.scratch();
            match cfg.arch {
                Arch::Hec => self.eval_hec_layer(batch, &shared, input, l, &mut sc, &mut h),
                Arch::Gcn => {
                    gather_scatter(
                        input,
                        &batch.gcn_src,
                        &batch.gcn_dst,
                        Some(&batch.gcn_coeff),
                        n,
                        &mut sc.agg,
                    );
                    sc.agg.matmul_into(self.param(self.slots.wv[l]), &mut h);
                    h.add_row_relu_assign(self.param(self.slots.bias[l]));
                }
                Arch::Sage | Arch::GraphConv => {
                    let all = &batch.all;
                    let (src, dst) = (&all.src, &all.dst);
                    if cfg.arch == Arch::Sage {
                        gather_scatter(input, src, dst, None, n, &mut sc.agg);
                        sc.agg.scale_rows_assign(&shared.weights);
                    } else {
                        gather_scatter(input, src, dst, Some(&shared.weights), n, &mut sc.agg);
                    }
                    input.matmul_into(self.param(self.slots.wv[l]), &mut h);
                    sc.agg
                        .matmul_into(self.param(self.slots.w2[l]), &mut sc.proj);
                    h.add_assign(&sc.proj);
                    h.add_row_relu_assign(self.param(self.slots.bias[l]));
                }
                Arch::Gine => self.eval_gine_layer(batch, input, l, &mut sc, &mut h),
            }
            // Eq. 6, pooled as each layer finishes; layers after the first
            // are added in layer order, as the tape's `add_n` adds them.
            if l == 0 {
                self.eval_pool(batch, &h, &shared.inv_counts, &mut hg, &mut sc.argmax);
            } else {
                self.eval_pool(
                    batch,
                    &h,
                    &shared.inv_counts,
                    &mut sc.pooled,
                    &mut sc.argmax,
                );
                hg.add_assign(&sc.pooled);
            }
            if let Some(prev) = x.replace(h) {
                tape.recycle(prev);
            }
        }
        if let Some(last) = x {
            tape.recycle(last);
        }

        // Eq. 7: metadata embedding, concatenation, regression head.
        let mut joint = tape.scratch();
        let joint_ref = if cfg.use_metadata {
            assert_eq!(
                batch.meta.cols, cfg.meta_dim,
                "metadata width mismatch: batch has {}, model expects {}",
                batch.meta.cols, cfg.meta_dim
            );
            let hm = &mut sc.proj;
            batch.meta.matmul_into(self.param(self.slots.meta_w), hm);
            hm.add_row_relu_assign(self.param(self.slots.meta_b));
            let (ca, cb) = (hg.cols, hm.cols);
            zeroed(&mut joint, hg.rows, ca + cb);
            for r in 0..hg.rows {
                joint.row_mut(r)[..ca].copy_from_slice(hg.row(r));
                joint.row_mut(r)[ca..].copy_from_slice(hm.row(r));
            }
            &joint
        } else {
            &hg
        };
        let z1 = &mut sc.agg;
        joint_ref.matmul_into(self.param(self.slots.head_w1), z1);
        z1.add_row_relu_assign(self.param(self.slots.head_b1));
        let mut out = tape.scratch();
        z1.matmul_into(self.param(self.slots.head_w2), &mut out);
        out.add_row_assign(self.param(self.slots.head_b2));
        tape.recycle(joint);
        tape.recycle(hg);
        for m in shared.edge_sums {
            tape.recycle(m);
        }
        sc.give_back(tape);
        out
    }

    fn param(&self, slot: usize) -> &Matrix {
        self.store.get(slot)
    }

    fn shared_terms<'b>(&self, batch: &'b GraphBatch, tape: &mut Tape) -> Shared<'b> {
        let cfg = &self.config;
        let mut shared = Shared {
            groups: Vec::new(),
            edge_sums: Vec::new(),
            weights: Vec::new(),
            inv_counts: Vec::new(),
        };
        if cfg.pool == Pool::Mean {
            let mut counts = vec![0.0f32; batch.num_graphs];
            for &g in &batch.graph_of {
                counts[g as usize] += 1.0;
            }
            shared.inv_counts = counts.iter().map(|&c| 1.0 / c.max(1.0)).collect();
        }
        match cfg.arch {
            Arch::Hec => {
                shared.groups = self.hec_groups(batch);
                if cfg.heads == 0 && cfg.use_edge_feats {
                    for (_, edges) in &shared.groups {
                        let mut m = tape.scratch();
                        if !edges.is_empty() {
                            edges
                                .feats
                                .scatter_add_into(&edges.dst, batch.num_nodes, &mut m);
                        }
                        shared.edge_sums.push(m);
                    }
                }
            }
            Arch::Sage => {
                shared.weights = batch.in_degree.iter().map(|&d| 1.0 / d.max(1.0)).collect();
            }
            Arch::GraphConv => {
                // Edge weight = mean of the 4 activity features, written
                // exactly as the tape forward computes it.
                shared.weights = (0..batch.all.len())
                    .map(|e| batch.all.feats.row(e).iter().sum::<f32>() / 4.0)
                    .collect();
            }
            Arch::Gcn | Arch::Gine => {}
        }
        shared
    }

    fn eval_hec_layer(
        &self,
        batch: &GraphBatch,
        shared: &Shared<'_>,
        x: &Matrix,
        l: usize,
        sc: &mut Scratch,
        out: &mut Matrix,
    ) {
        let cfg = &self.config;
        let n = batch.num_nodes;
        x.matmul_into(self.param(self.slots.wv[l]), out);
        for (g, &(r, edges)) in shared.groups.iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            let wr = cfg.heterogeneous.then(|| self.param(self.slots.wr[l][r]));
            if cfg.heads == 0 && cfg.use_edge_feats {
                // Eq. 5 as the tape evaluates it: S_r · (W_E · W_r).
                let (summed, we) = (&shared.edge_sums[g], self.param(self.slots.we[l]));
                match wr {
                    Some(wr) => {
                        we.matmul_into(wr, &mut sc.proj);
                        out.add_matmul_assign(summed, &sc.proj);
                    }
                    None => out.add_matmul_assign(summed, we),
                }
                continue;
            }
            if cfg.heads == 0 {
                gather_scatter(x, &edges.src, &edges.dst, None, n, &mut sc.agg);
                sc.agg
                    .matmul_into(self.param(self.slots.we[l]), &mut sc.proj);
            } else {
                self.eval_attention_agg(x, edges, l, n, sc);
            }
            match wr {
                Some(wr) => out.add_matmul_assign(&sc.proj, wr),
                None => out.add_assign(&sc.proj),
            }
        }
        out.add_row_relu_assign(self.param(self.slots.bias[l]));
    }

    /// The tape forward's attention aggregation, leaving the concatenated head
    /// outputs in `sc.proj`.
    fn eval_attention_agg(
        &self,
        x: &Matrix,
        edges: &RelEdges,
        l: usize,
        n: usize,
        sc: &mut Scratch,
    ) {
        let ein = if self.config.use_edge_feats {
            &edges.feats
        } else {
            let (src, e) = (&edges.src, &mut sc.ein);
            zeroed(e, src.len(), x.cols);
            for (i, &s) in src.iter().enumerate() {
                e.row_mut(i).copy_from_slice(x.row(s as usize));
            }
            &sc.ein
        };
        let heads = self.config.heads;
        let hh = self.config.hidden / heads;
        zeroed(&mut sc.proj, n, hh * heads);
        for k in 0..heads {
            ein.matmul_into(self.param(self.slots.wa[l][k]), &mut sc.score);
            sc.score
                .segment_softmax_assign(&edges.dst, n, &mut sc.maxes, &mut sc.sums);
            // mul_col → scatter_add: agg[dst[i]] += ein[i] · alpha[i].
            zeroed(&mut sc.agg, n, ein.cols);
            for (i, (&d, &a)) in edges.dst.iter().zip(&sc.score.data).enumerate() {
                for (o, &v) in sc.agg.row_mut(d as usize).iter_mut().zip(ein.row(i)) {
                    *o += v * a;
                }
            }
            sc.agg
                .matmul_into(self.param(self.slots.weh[l][k]), &mut sc.head);
            for r in 0..n {
                sc.proj.row_mut(r)[k * hh..(k + 1) * hh].copy_from_slice(sc.head.row(r));
            }
        }
    }

    fn eval_gine_layer(
        &self,
        batch: &GraphBatch,
        x: &Matrix,
        l: usize,
        sc: &mut Scratch,
        out: &mut Matrix,
    ) {
        let all = &batch.all;
        let (wv, b) = (self.param(self.slots.wv[l]), self.param(self.slots.bias[l]));
        if all.is_empty() {
            x.matmul_into(wv, out);
            out.add_row_relu_assign(b);
            return;
        }
        // agg[dst] += relu(x[src] + e·W_E), with the tape's plain ReLU
        // (which keeps NaN and -0.0).
        all.feats
            .matmul_into(self.param(self.slots.we[l]), &mut sc.proj);
        zeroed(&mut sc.agg, batch.num_nodes, x.cols);
        for (e, (&s, &d)) in all.src.iter().zip(&all.dst).enumerate() {
            let (from, ep) = (x.row(s as usize), sc.proj.row(e));
            for ((o, &v), &p) in sc.agg.row_mut(d as usize).iter_mut().zip(from).zip(ep) {
                let z = v + p;
                *o += if z < 0.0 { 0.0 } else { z };
            }
        }
        // tot = x + agg (ε = 0), summed in place (addition commutes), then
        // the two-layer MLP.
        sc.agg.add_assign(x);
        sc.agg.matmul_into(wv, &mut sc.head);
        sc.head.add_row_relu_assign(b);
        sc.head.matmul_into(self.param(self.slots.w3[l]), out);
    }

    /// Eq. 6 readout of one layer's output into `out` (`G` rows).
    fn eval_pool(
        &self,
        batch: &GraphBatch,
        h: &Matrix,
        inv_counts: &[f32],
        out: &mut Matrix,
        argmax: &mut Vec<u32>,
    ) {
        let g = batch.num_graphs;
        match self.config.pool {
            Pool::Add => h.scatter_add_into(&batch.graph_of, g, out),
            Pool::Mean => {
                h.scatter_add_into(&batch.graph_of, g, out);
                out.scale_rows_assign(inv_counts);
            }
            Pool::Max => h.scatter_max_into(&batch.graph_of, g, out, argmax),
        }
    }
}
