//! Leave-one-kernel-out (LOKO) evaluation harness — the workspace's one
//! implementation of the paper's cross-kernel protocol.
//!
//! Reproduces §IV-A (Tables 1/2): for each Polybench kernel, train on the
//! other kernels and test on the held-out one, for both power targets.
//! [`run_estimators`] does this for a list of [`Estimator`]s — GNN
//! ensembles, single GNNs, HL-Pow and the calibrated Vivado surrogate —
//! and returns every held-out sample's prediction per estimator × target
//! ([`LokoRun`]). The per-kernel MAPE/RMSE table of any one estimator
//! ([`LokoReport`]) derives from that output. Kernels are visited in
//! dataset order, targets in [`TARGETS`] order, and every mean is a
//! fixed-order fold over those rows — so the output (and each report's
//! digest) is bit-identical at any training thread count, riding the
//! thread-invariant trainer.
//!
//! [`run_loko`] is the one-estimator case: zoo sweeps call it once per
//! [`ModelConfig`] and rank reports by [`LokoReport::mean_mape`]. The
//! paper-table binaries (`table1`, `table2`, `table3`, `fig4`) render
//! from [`run_estimators`].

use pg_datasets::{
    all_splits, build_kernel_dataset_cached, polybench, DatasetConfig, HlsCache, KernelDataset,
    LooSplit, PowerTarget,
};
use pg_gnn::train::Labeled;
use pg_gnn::{train_ensemble, train_single, Ensemble, LabelNorm, ModelConfig, TrainConfig};
use pg_graphcon::PowerGraph;
use pg_hlpow::HlPowModel;
use pg_powersim::VivadoEstimator;
use pg_util::rng::hash64;
use pg_util::{Rng64, Table};
use std::borrow::Cow;

/// The power targets, in harness order.
pub const TARGETS: [PowerTarget; 2] = [PowerTarget::Total, PowerTarget::Dynamic];

/// HL-Pow GBDT seeds, per target in [`TARGETS`] order.
const HLPOW_SEEDS: [u64; 2] = [11, 13];
/// Seed of the Vivado surrogate's calibration subsample.
const VIVADO_CALIB_SEED: u64 = 101;
/// Validation share of [`Estimator::GnnSingle`]'s fixed holdout.
const SINGLE_VAL_FRAC: f64 = 0.2;
/// Holdout-split seed of [`Estimator::GnnSingle`].
const SINGLE_SPLIT_SEED: u64 = 23;
/// Model seed of [`Estimator::GnnSingle`].
const SINGLE_MODEL_SEED: u64 = 29;

/// Configuration for one LOKO evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Dataset build profile (size, samples per kernel, seed, threads).
    pub data: DatasetConfig,
    /// The zoo member under evaluation.
    pub model: ModelConfig,
    /// Training epochs per member model (dynamic power trains 2×).
    pub epochs: usize,
    /// Cross-validation folds per ensemble.
    pub folds: usize,
    /// Ensemble seeds.
    pub seeds: Vec<u64>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training worker threads (pure scheduling: results are
    /// thread-invariant).
    pub threads: usize,
    /// Restrict the sweep to these kernels (`None` = every kernel in the
    /// dataset). Training still uses all *other* kernels of the subset.
    pub kernels: Option<Vec<String>>,
}

impl EvalConfig {
    /// Reduced-scale defaults: small dataset, short training — sized for
    /// CI and golden fixtures, not paper-fidelity numbers.
    pub fn quick(model: ModelConfig) -> Self {
        EvalConfig {
            data: DatasetConfig {
                size: 6,
                max_samples: 10,
                seed: 3,
                threads: 2,
            },
            model,
            epochs: 8,
            folds: 2,
            seeds: vec![17],
            batch_size: 48,
            lr: 2e-3,
            threads: 2,
            kernels: None,
        }
    }

    /// Paper-scale defaults over the full 9-kernel space.
    pub fn paper(model: ModelConfig) -> Self {
        EvalConfig {
            data: DatasetConfig::paper(),
            model,
            epochs: 1200,
            folds: 10,
            seeds: vec![17, 43, 91],
            batch_size: 128,
            lr: 5e-4,
            threads: 2,
            kernels: None,
        }
    }

    /// GNN training config of [`EvalConfig::model`] for one power target.
    pub fn train_config(&self, target: PowerTarget) -> TrainConfig {
        self.train_config_for(&self.model, target)
    }

    /// The per-target training schedule of any zoo member — the one every
    /// GNN in the workspace trains on ([`crate::PowerGearConfig`]
    /// delegates here). Dynamic power trains twice as long, as in the
    /// paper. Total power is offset-dominated (static leakage), so it
    /// standardizes labels to z-scores instead of the paper's mean
    /// scaling, which collapses short runs to the positive-power floor.
    pub fn train_config_for(&self, model: &ModelConfig, target: PowerTarget) -> TrainConfig {
        let mut cfg = TrainConfig::quick(model.clone());
        cfg.epochs = match target {
            PowerTarget::Dynamic => self.epochs * 2,
            PowerTarget::Total => self.epochs,
        };
        cfg.label_norm = match target {
            PowerTarget::Total => LabelNorm::Standardize,
            PowerTarget::Dynamic => LabelNorm::MeanScale,
        };
        cfg.folds = self.folds;
        cfg.seeds = self.seeds.clone();
        cfg.batch_size = self.batch_size;
        cfg.lr = self.lr;
        cfg.threads = self.threads;
        cfg
    }

    /// Held-out kernel names: the `kernels` subset in the order given, or
    /// the whole suite.
    pub fn kernel_names(&self) -> Vec<String> {
        match &self.kernels {
            Some(named) => named.clone(),
            None => polybench::KERNEL_NAMES.map(String::from).to_vec(),
        }
    }

    /// Builds the datasets of the selected kernels, in suite order,
    /// through `hls` (pass the same cache to [`run_estimators`] so the
    /// Vivado surrogate's re-synthesis is a lookup).
    pub fn build_datasets(&self, hls: &HlsCache) -> Vec<KernelDataset> {
        let names = self.kernel_names();
        polybench::polybench(self.data.size)
            .iter()
            .filter(|k| names.contains(&k.name))
            .map(|k| build_kernel_dataset_cached(k, &self.data, hls))
            .collect()
    }
}

/// Parses the `--kernels a,b,c` flag shared by `powergear eval` and the
/// paper-table binaries: the flag needs a value, every name must be a
/// suite kernel listed once, and LOKO needs at least two (train on N−1).
/// `Ok(None)` when the flag is absent.
pub fn kernels_flag(args: &[String]) -> Result<Option<Vec<String>>, String> {
    let Some(i) = args.iter().position(|a| a == "--kernels") else {
        return Ok(None);
    };
    let list = args.get(i + 1).ok_or("flag `--kernels` expects a value")?;
    let kernels: Vec<String> = list.split(',').map(|k| k.trim().to_string()).collect();
    for (j, k) in kernels.iter().enumerate() {
        if !polybench::KERNEL_NAMES.contains(&k.as_str()) {
            return Err(format!(
                "unknown kernel `{k}`; available: {}",
                polybench::KERNEL_NAMES.join(", ")
            ));
        }
        if kernels[..j].contains(k) {
            return Err(format!("kernel `{k}` is listed twice in `--kernels`"));
        }
    }
    if kernels.len() < 2 {
        return Err("`--kernels` needs at least 2 kernels (train on N-1)".into());
    }
    Ok(Some(kernels))
}

/// A power estimator the harness trains and scores on every held-out
/// kernel, for both targets.
#[derive(Debug, Clone, PartialEq)]
pub enum Estimator {
    /// A zoo GNN trained as the paper trains PowerGear: the folds × seeds
    /// prediction-averaging ensemble.
    Gnn(ModelConfig),
    /// One zoo GNN, model-selected on a fixed 80/20 holdout of the
    /// training pool (Table 1's baselines, Table 2's single-model rows).
    GnnSingle(ModelConfig),
    /// HL-Pow: handcrafted graph features + GBDT (`pg_hlpow`).
    HlPow,
    /// The Vivado estimator surrogate, linearly calibrated on
    /// `min(2 × data.max_samples, pool)` designs of the training pool.
    Vivado,
}

impl Estimator {
    /// Report name: the zoo name for an ensemble, suffixed `-single` for a
    /// single model.
    pub fn name(&self) -> String {
        match self {
            Estimator::Gnn(model) => model.zoo_name(),
            Estimator::GnnSingle(model) => format!("{}-single", model.zoo_name()),
            Estimator::HlPow => "hlpow".into(),
            Estimator::Vivado => "vivado".into(),
        }
    }
}

fn slot(target: PowerTarget) -> usize {
    match target {
        PowerTarget::Total => 0,
        PowerTarget::Dynamic => 1,
    }
}

/// One held-out kernel: ground truth and every estimator's predictions,
/// in sample order.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldOut {
    /// Held-out kernel name.
    pub kernel: String,
    /// Training samples (the other kernels).
    pub n_train: usize,
    /// HLS latency (cycles) of each held-out sample.
    pub latency: Vec<f64>,
    /// Ground truth per target, in [`TARGETS`] order.
    pub truth: [Vec<f64>; 2],
    /// `preds[e]`: estimator `e`'s predictions per target, in
    /// [`TARGETS`] order.
    pub preds: Vec<[Vec<f64>; 2]>,
}

impl HeldOut {
    /// Ground truth for `target`.
    pub fn truth_of(&self, target: PowerTarget) -> &[f64] {
        &self.truth[slot(target)]
    }

    /// Estimator `e`'s predictions for `target`.
    pub fn preds_of(&self, e: usize, target: PowerTarget) -> &[f64] {
        &self.preds[e][slot(target)]
    }

    /// Estimator `e`'s MAPE (%) on this kernel for `target`.
    pub fn mape(&self, e: usize, target: PowerTarget) -> f64 {
        pg_util::mape(self.preds_of(e, target), self.truth_of(target))
    }
}

/// The harness output: every estimator's predictions on every held-out
/// kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LokoRun {
    /// The estimators, in the order `preds` indexes them.
    pub estimators: Vec<Estimator>,
    /// One entry per held-out kernel, in dataset order.
    pub folds: Vec<HeldOut>,
}

impl LokoRun {
    /// The held-out entry of `kernel`.
    pub fn fold(&self, kernel: &str) -> Option<&HeldOut> {
        self.folds.iter().find(|f| f.kernel == kernel)
    }

    /// The per-kernel MAPE/RMSE table of estimator `e`.
    pub fn report(&self, e: usize) -> LokoReport {
        let mut rows = Vec::with_capacity(self.folds.len() * TARGETS.len());
        for f in &self.folds {
            for target in TARGETS {
                let (preds, actual) = (f.preds_of(e, target), f.truth_of(target));
                rows.push(KernelEval {
                    kernel: f.kernel.clone(),
                    target,
                    n_train: f.n_train,
                    n_test: actual.len(),
                    mape_pct: pg_util::mape(preds, actual),
                    rmse_w: pg_util::rmse(preds, actual),
                });
            }
        }
        LokoReport {
            config: self.estimators[e].name(),
            rows,
        }
    }
}

/// One held-out kernel × power target evaluation row.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEval {
    /// Held-out kernel name.
    pub kernel: String,
    /// Power target evaluated.
    pub target: PowerTarget,
    /// Training samples (the other kernels).
    pub n_train: usize,
    /// Test samples (the held-out kernel).
    pub n_test: usize,
    /// Mean absolute percentage error on the held-out kernel (percent).
    pub mape_pct: f64,
    /// Root-mean-square error on the held-out kernel (W).
    pub rmse_w: f64,
}

/// A complete LOKO table for one model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LokoReport {
    /// Zoo identifier of the evaluated configuration.
    pub config: String,
    /// Per-kernel rows in fixed (dataset, target) order.
    pub rows: Vec<KernelEval>,
}

/// Table/report name for a power target.
pub fn target_name(target: PowerTarget) -> &'static str {
    match target {
        PowerTarget::Total => "total",
        PowerTarget::Dynamic => "dynamic",
    }
}

impl LokoReport {
    /// Fixed-order mean MAPE over all kernels for one target (the zoo
    /// ranking metric).
    pub fn mean_mape(&self, target: PowerTarget) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.target == target)
            .map(|r| r.mape_pct)
            .collect();
        pg_util::mean(&vals)
    }

    /// Fixed-order mean RMSE over all kernels for one target.
    pub fn mean_rmse(&self, target: PowerTarget) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.target == target)
            .map(|r| r.rmse_w)
            .collect();
        pg_util::mean(&vals)
    }

    /// Content digest over the exact error bits of every row (plus the
    /// config name), in row order. Two runs agree on the digest iff their
    /// tables are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.rows.len() * 32);
        buf.extend_from_slice(self.config.as_bytes());
        for r in &self.rows {
            buf.extend_from_slice(r.kernel.as_bytes());
            buf.extend_from_slice(target_name(r.target).as_bytes());
            buf.extend_from_slice(&(r.n_train as u64).to_le_bytes());
            buf.extend_from_slice(&(r.n_test as u64).to_le_bytes());
            buf.extend_from_slice(&r.mape_pct.to_bits().to_le_bytes());
            buf.extend_from_slice(&r.rmse_w.to_bits().to_le_bytes());
        }
        hash64(&buf)
    }

    /// Renders the paper-style table as TSV: one header line, one row per
    /// (kernel, target), fixed-order `mean` summary rows, and a trailing
    /// digest comment pinning the exact f64 bits.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# powergear loko config={}\n", self.config));
        out.push_str("kernel\ttarget\tn_train\tn_test\tmape_pct\trmse_w\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:.6}\t{:.6}\n",
                r.kernel,
                target_name(r.target),
                r.n_train,
                r.n_test,
                r.mape_pct,
                r.rmse_w
            ));
        }
        for target in [PowerTarget::Total, PowerTarget::Dynamic] {
            if self.rows.iter().any(|r| r.target == target) {
                out.push_str(&format!(
                    "mean\t{}\t-\t-\t{:.6}\t{:.6}\n",
                    target_name(target),
                    self.mean_mape(target),
                    self.mean_rmse(target)
                ));
            }
        }
        out.push_str(&format!("# digest {:016x}\n", self.digest()));
        out
    }

    /// Pretty console table (same contents as the TSV body).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(&[
            "kernel", "target", "n_train", "n_test", "mape_pct", "rmse_w",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.kernel.clone(),
                target_name(r.target).to_string(),
                r.n_train.to_string(),
                r.n_test.to_string(),
                Table::fmt_f(r.mape_pct, 2),
                Table::fmt_f(r.rmse_w, 4),
            ]);
        }
        for target in [PowerTarget::Total, PowerTarget::Dynamic] {
            if self.rows.iter().any(|r| r.target == target) {
                t.row(vec![
                    "mean".to_string(),
                    target_name(target).to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    Table::fmt_f(self.mean_mape(target), 2),
                    Table::fmt_f(self.mean_rmse(target), 4),
                ]);
            }
        }
        t
    }
}

/// Runs the LOKO protocol for every estimator over prebuilt datasets: for
/// every kernel (in dataset order), each estimator trains on the remaining
/// kernels and predicts the held-out one, for both power targets.
/// Estimators never share state, so each one's predictions are independent
/// of the rest of the list.
///
/// `hls` re-synthesizes designs for [`Estimator::Vivado`]; pass the cache
/// that built `datasets` to make that a lookup. `on_ensemble` sees every
/// trained [`Estimator::Gnn`] ensemble with its held-out dataset,
/// estimator index and target before the ensemble is dropped (Table 1's
/// speedup column times one).
///
/// # Panics
///
/// Panics if `cfg.kernels` names a kernel absent from `datasets`, or if a
/// training pool is too small for an estimator.
pub fn run_estimators(
    datasets: &[KernelDataset],
    cfg: &EvalConfig,
    estimators: &[Estimator],
    hls: &HlsCache,
    mut on_ensemble: impl FnMut(&KernelDataset, usize, PowerTarget, &Ensemble),
) -> LokoRun {
    let subset: Cow<'_, [KernelDataset]> = match &cfg.kernels {
        None => Cow::Borrowed(datasets),
        Some(named) => {
            for k in named {
                assert!(
                    datasets.iter().any(|d| &d.kernel == k),
                    "unknown kernel {k:?} in LOKO subset"
                );
            }
            let keep = datasets.iter().filter(|d| named.contains(&d.kernel));
            Cow::Owned(keep.cloned().collect())
        }
    };
    let calib = 2 * cfg.data.max_samples;
    let mut folds = Vec::with_capacity(subset.len());
    for (ds, split) in subset.iter().zip(all_splits(&subset)) {
        let graphs: Vec<&PowerGraph> = split.test.iter().map(|s| &s.graph).collect();
        let mut preds = Vec::with_capacity(estimators.len());
        for (e, est) in estimators.iter().enumerate() {
            preds.push(match est {
                Estimator::Gnn(model) => TARGETS.map(|target| {
                    let train = split.train_labeled(target);
                    let ensemble = train_ensemble(&train, &cfg.train_config_for(model, target));
                    on_ensemble(ds, e, target, &ensemble);
                    ensemble.predict(&graphs)
                }),
                Estimator::GnnSingle(model) => TARGETS.map(|target| {
                    let train = split.train_labeled(target);
                    let (tr, va) = holdout_split(&train, SINGLE_VAL_FRAC, SINGLE_SPLIT_SEED);
                    let tc = cfg.train_config_for(model, target);
                    train_single(&tr, &va, &tc, SINGLE_MODEL_SEED).predict(&graphs)
                }),
                Estimator::HlPow => TARGETS.map(|target| {
                    let seed = HLPOW_SEEDS[slot(target)];
                    HlPowModel::train(&split.train_labeled(target), seed).predict_batch(&graphs)
                }),
                Estimator::Vivado => vivado(&split, &subset, calib, hls),
            });
        }
        folds.push(HeldOut {
            kernel: split.test_kernel.clone(),
            n_train: split.train.len(),
            latency: split.test.iter().map(|s| s.latency as f64).collect(),
            truth: TARGETS.map(|t| split.test.iter().map(|s| s.label(t)).collect()),
            preds,
        });
    }
    LokoRun {
        estimators: estimators.to_vec(),
        folds,
    }
}

/// Calibrated Vivado-surrogate predictions for the held-out samples, per
/// target in [`TARGETS`] order. The linear calibration fits total power on
/// `calib` training designs drawn with a fixed seed.
fn vivado(
    split: &LooSplit<'_>,
    datasets: &[KernelDataset],
    calib: usize,
    hls: &HlsCache,
) -> [Vec<f64>; 2] {
    let kernels: Vec<pg_ir::Kernel> = datasets
        .iter()
        .map(|d| polybench::by_name(&d.kernel, d.size).expect("suite kernel"))
        .collect();
    let design = |s: &pg_datasets::Sample| {
        let kernel = kernels.iter().find(|k| k.name == s.kernel).expect("kernel");
        hls.run(kernel, &s.directives)
            .unwrap_or_else(|e| panic!("{}: {e}", s.kernel))
    };
    let mut est = VivadoEstimator::new();
    let n = split.train.len();
    let pairs: Vec<(f64, f64)> = Rng64::new(VIVADO_CALIB_SEED)
        .sample_indices(n, calib.min(n))
        .into_iter()
        .map(|i| {
            let s = split.train[i];
            (est.estimate_raw(&design(s)).total, s.power.total)
        })
        .collect();
    est.calibrate(&pairs);
    let mut out = [Vec::new(), Vec::new()];
    for s in &split.test {
        let e = est.estimate(&design(s));
        out[0].push(e.total);
        out[1].push(e.dynamic);
    }
    out
}

/// Deterministic holdout split of labeled data: `(train, validation)`,
/// with at least one validation sample.
fn holdout_split<'a>(
    data: &[Labeled<'a>],
    val_frac: f64,
    seed: u64,
) -> (Vec<Labeled<'a>>, Vec<Labeled<'a>>) {
    let mut order: Vec<usize> = (0..data.len()).collect();
    Rng64::new(seed).shuffle(&mut order);
    let n_val = ((data.len() as f64 * val_frac) as usize).max(1);
    let (val_idx, tr_idx) = order.split_at(n_val);
    (
        tr_idx.iter().map(|&i| data[i]).collect(),
        val_idx.iter().map(|&i| data[i]).collect(),
    )
}

/// Runs the LOKO protocol for [`EvalConfig::model`] alone: for every
/// kernel (in dataset order), train an ensemble on the remaining kernels
/// and evaluate on the held-out one, for both power targets.
///
/// # Panics
///
/// Panics if `cfg.kernels` names a kernel absent from `datasets`.
pub fn run_loko(datasets: &[KernelDataset], cfg: &EvalConfig) -> LokoReport {
    let gnn = [Estimator::Gnn(cfg.model.clone())];
    run_estimators(datasets, cfg, &gnn, &HlsCache::new(), |_, _, _, _| {}).report(0)
}

/// [`run_loko`] over freshly built datasets (`cfg.data` profile, selected
/// kernels only).
pub fn run_loko_built(cfg: &EvalConfig) -> LokoReport {
    run_loko(&cfg.build_datasets(&HlsCache::new()), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_gnn::{Arch, Pool};

    fn tiny_cfg() -> EvalConfig {
        let mut cfg = EvalConfig::quick(ModelConfig::hec(8));
        cfg.data.max_samples = 6;
        cfg.epochs = 2;
        cfg.kernels = Some(vec!["atax".into(), "mvt".into(), "bicg".into()]);
        cfg
    }

    #[test]
    fn loko_covers_subset_for_both_targets() {
        let report = run_loko_built(&tiny_cfg());
        assert_eq!(report.rows.len(), 6, "3 kernels x 2 targets");
        let kernels: Vec<&str> = report.rows.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(kernels, ["atax", "atax", "bicg", "bicg", "mvt", "mvt"]);
        for r in &report.rows {
            assert!(r.mape_pct.is_finite() && r.mape_pct >= 0.0, "{r:?}");
            assert!(r.rmse_w.is_finite() && r.rmse_w >= 0.0, "{r:?}");
            assert!(r.n_train > 0 && r.n_test > 0, "{r:?}");
        }
    }

    /// The golden tiny config through every estimator kind: the `Gnn`
    /// report is `run_loko`'s, estimators are independent of their list
    /// order, and the whole output is bit-identical at 1/2/4 threads.
    #[test]
    fn harness_matches_run_loko_and_is_order_and_thread_invariant() {
        let estimators = vec![
            Estimator::Gnn(ModelConfig::hec(8)),
            Estimator::GnnSingle(ModelConfig::baseline(Arch::Gcn, 8)),
            Estimator::HlPow,
            Estimator::Vivado,
        ];
        let run_at = |threads: usize, estimators: &[Estimator]| {
            let mut cfg = tiny_cfg();
            cfg.threads = threads;
            cfg.data.threads = threads;
            let hls = HlsCache::new();
            let datasets = cfg.build_datasets(&hls);
            let run = run_estimators(&datasets, &cfg, estimators, &hls, |_, _, _, _| {});
            (run, run_loko(&datasets, &cfg))
        };
        let (run, loko) = run_at(1, &estimators);
        assert_eq!(run.report(0).digest(), loko.digest());
        assert_eq!(run.report(0).to_tsv(), loko.to_tsv());
        for e in [2, 3] {
            for f in &run.folds {
                for target in TARGETS {
                    let preds = f.preds_of(e, target);
                    assert_eq!(preds.len(), f.truth_of(target).len());
                    assert!(preds.iter().all(|p| p.is_finite()), "{e}: {preds:?}");
                }
            }
        }

        let reversed: Vec<Estimator> = estimators.iter().rev().cloned().collect();
        let (back, _) = run_at(1, &reversed);
        let n = estimators.len();
        for e in 0..n {
            assert_eq!(
                format!("{:?}", run.report(e)),
                format!("{:?}", back.report(n - 1 - e)),
                "estimator {e} moved with the list order"
            );
        }

        let bits = format!("{run:?}");
        for threads in [2, 4] {
            let (other, _) = run_at(threads, &estimators);
            assert_eq!(format!("{other:?}"), bits, "{threads} threads");
        }
    }

    /// The one schedule standardizes Total and mean-scales Dynamic, and a
    /// tiny Total ensemble trained on it stays finite and off the 1 mW
    /// floor that the mean-scale scheme collapsed to at short budgets.
    #[test]
    fn total_standardizes_and_stays_nondegenerate() {
        let mut cfg = EvalConfig::quick(ModelConfig::hec(8));
        cfg.epochs = 10;
        cfg.lr = 4e-3;
        cfg.threads = 1;
        let total = cfg.train_config(PowerTarget::Total);
        let dynamic = cfg.train_config(PowerTarget::Dynamic);
        assert_eq!(total.label_norm, LabelNorm::Standardize);
        assert_eq!(dynamic.label_norm, LabelNorm::MeanScale);
        assert_eq!(dynamic.epochs, 2 * total.epochs);

        let ds = pg_datasets::build_kernel_dataset(&polybench::mvt(6), &DatasetConfig::tiny());
        let data = ds.labeled(PowerTarget::Total);
        let ens = train_ensemble(&data, &total);
        let err = ens.evaluate(&data);
        assert!(
            err.is_finite() && err < 90.0,
            "Total error degenerate: {err}% MAPE"
        );
        let graphs: Vec<&PowerGraph> = data.iter().map(|(g, _)| *g).collect();
        let preds = ens.predict(&graphs);
        let mean_truth = data.iter().map(|(_, t)| *t).sum::<f64>() / data.len() as f64;
        let mean_pred = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(preds.iter().all(|p| p.is_finite()));
        assert!(
            mean_pred > 0.2 * mean_truth,
            "Total predictions collapsed: mean {mean_pred} vs truth {mean_truth}"
        );
    }

    #[test]
    fn holdout_split_partitions() {
        let graphs: Vec<PowerGraph> = (0..10)
            .map(|i| PowerGraph {
                num_nodes: 1,
                node_feats: vec![0.0; PowerGraph::NODE_FEATS],
                design_id: format!("{i}"),
                ..PowerGraph::default()
            })
            .collect();
        let data: Vec<(&PowerGraph, f64)> = graphs.iter().map(|g| (g, 1.0)).collect();
        let (tr, va) = holdout_split(&data, 0.2, 1);
        assert_eq!(tr.len(), 8);
        assert_eq!(va.len(), 2);
        let mut ids: Vec<&str> = tr
            .iter()
            .chain(&va)
            .map(|(g, _)| g.design_id.as_str())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "train and validation partition the data");
    }

    #[test]
    fn kernels_flag_validates() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(kernels_flag(&args(&["--full"])), Ok(None));
        assert_eq!(
            kernels_flag(&args(&["--kernels", "mvt, atax"])),
            Ok(Some(vec!["mvt".to_string(), "atax".to_string()]))
        );
        for (bad, needle) in [
            (vec!["--kernels"], "expects a value"),
            (vec!["--kernels", "atax,nope"], "unknown kernel `nope`"),
            (vec!["--kernels", "atax"], "at least 2 kernels"),
            (vec!["--kernels", "atax,atax"], "listed twice"),
        ] {
            let err = kernels_flag(&args(&bad)).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn tsv_roundtrips_digest_and_marks_config() {
        let report = LokoReport {
            config: ModelConfig::hec(8).with_pool(Pool::Mean).zoo_name(),
            rows: vec![KernelEval {
                kernel: "atax".into(),
                target: PowerTarget::Total,
                n_train: 10,
                n_test: 5,
                mape_pct: 12.5,
                rmse_w: 0.031,
            }],
        };
        let tsv = report.to_tsv();
        assert!(tsv.contains("config=hec-p_mean-l3-h0"));
        assert!(tsv.contains("atax\ttotal\t10\t5\t12.500000\t0.031000"));
        assert!(tsv.contains(&format!("# digest {:016x}", report.digest())));
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_subset_kernel_panics() {
        let mut cfg = tiny_cfg();
        cfg.kernels = Some(vec!["nope".into()]);
        run_loko(&[], &cfg);
    }
}
