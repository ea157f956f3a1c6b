//! `loko_fold`: [`powergear::eval::run_loko`] over the set-up's first three
//! training kernels, holding each out in turn for both power targets.
//!
//! The traced run replays `run_loko` with `train_ensemble_with`, timing
//! the interval between member callbacks and the held-out scoring, and
//! checks the replay's table digest against `run_loko`'s. A step probe
//! then replays one epoch of one member's training call by call (batch
//! assembly, forward and loss, backward, gradient reduction and Adam),
//! bit-checked against `PowerModel::loss_and_grads_in` shard by shard
//! and against `pg_gnn::train_single` for the whole epoch.

use crate::setup::{Setup, THREADS};
use crate::speed::{self, Reference};
use crate::{stats, Outcome};
use pg_datasets::{all_splits, KernelDataset, PowerTarget};
use pg_gnn::{train_ensemble_with, train_single, GraphBatch, LabelNorm, ModelConfig, PowerModel};
use pg_graphcon::PowerGraph;
use pg_tensor::{Adam, GradAccum, Matrix, Tape};
use pg_util::rng::mix64;
use pg_util::Rng64;
use powergear::eval::{run_loko, EvalConfig, KernelEval, LokoReport};
use std::time::{Duration, Instant};

/// Kernels of the set-up the workload evaluates.
pub const LOKO_KERNELS: usize = 3;
/// Epochs per member (the dynamic head trains twice as long). Both
/// budgets stay below the trainer's early-stopping patience of 12, so
/// every member trains for its whole budget and a pass does the same
/// work whatever the seed.
pub const LOKO_EPOCHS: usize = 6;
/// Passes every untraced run makes at least, so passes can be compared.
const MIN_PASSES: usize = 2;
/// Repetitions of the one-epoch step probe.
const PROBE_REPS: usize = 5;
/// Graphs per gradient shard in `pg_gnn`'s trainer.
const SHARD_GRAPHS: usize = 8;

/// The evaluation profile: HEC-GNN of width 32 at the quick settings.
pub fn config() -> EvalConfig {
    let mut cfg = EvalConfig::quick(ModelConfig::hec(32));
    cfg.epochs = LOKO_EPOCHS;
    cfg.threads = THREADS;
    cfg
}

fn datasets(setup: &Setup) -> &[KernelDataset] {
    &setup.datasets[..LOKO_KERNELS]
}

const ROWS: usize = 2 * LOKO_KERNELS;

/// Checks a table's shape and values; returns the rows that failed.
fn check_report(out: &mut Outcome, report: &LokoReport) -> u64 {
    out.check(report.rows.len() == ROWS, || {
        format!("loko_fold: {} rows, expected {ROWS}", report.rows.len())
    });
    let bad = report
        .rows
        .iter()
        .filter(|r| !(r.mape_pct.is_finite() && r.rmse_w.is_finite()))
        .count();
    out.check(bad == 0, || {
        format!("loko_fold: {bad} rows with a non-finite error")
    });
    (bad + ROWS.saturating_sub(report.rows.len())) as u64
}

/// Untraced run: LOKO passes until `seconds` have passed; reports the
/// median pass time, corrected for the box's speed.
pub fn run(setup: &Setup, seconds: f64, reference: &mut Reference) -> Outcome {
    let cfg = config();
    let mut out = Outcome::default();
    let mut first: Option<LokoReport> = None;
    let (walls, samples) = speed::repeat_for(seconds, MIN_PASSES, reference, || {
        let t = Instant::now();
        let report = run_loko(datasets(setup), &cfg);
        let wall = t.elapsed().as_secs_f64();
        let failed = check_report(&mut out, &report);
        out.ops(ROWS as u64, failed);
        match &first {
            None => first = Some(report),
            Some(f) => out.check(f.digest() == report.digest(), || {
                format!(
                    "loko_fold: digest {:016x} differs from the first pass's {:016x}",
                    report.digest(),
                    f.digest()
                )
            }),
        }
        wall
    });
    out.metric("pass_s", speed::corrected(&walls, &samples), "s");
    out.derived("pass_wall_s", stats::median(&walls), "s");
    if let Some(r) = &first {
        out.derived("loko_mape_total_pct", r.mean_mape(PowerTarget::Total), "%");
        out.derived(
            "loko_mape_dynamic_pct",
            r.mean_mape(PowerTarget::Dynamic),
            "%",
        );
        println!("loko_fold digest {:016x}", r.digest());
    }
    out.derived("passes", walls.len() as f64, "count");
    out
}

/// Times gathered while replaying one LOKO pass.
struct Replay {
    report: LokoReport,
    member_s: Vec<f64>,
    score: Duration,
    scored: usize,
}

/// `run_loko`, replayed with a member callback and a timer around scoring.
fn replay(data: &[KernelDataset], cfg: &EvalConfig) -> Replay {
    let mut member_s = Vec::new();
    let mut score = Duration::ZERO;
    let mut scored = 0;
    let mut rows = Vec::with_capacity(ROWS);
    for split in all_splits(data) {
        for target in [PowerTarget::Total, PowerTarget::Dynamic] {
            let train = split.train_labeled(target);
            let test = split.test_labeled(target);
            let tc = cfg.train_config(target);
            let mut last = Instant::now();
            let ensemble = train_ensemble_with(&train, &tc, |_| {
                member_s.push(last.elapsed().as_secs_f64());
                last = Instant::now();
            });
            let graphs: Vec<&PowerGraph> = test.iter().map(|(g, _)| *g).collect();
            let t = Instant::now();
            let preds = ensemble.predict(&graphs);
            score += t.elapsed();
            scored += graphs.len();
            let actual: Vec<f64> = test.iter().map(|(_, p)| *p).collect();
            rows.push(KernelEval {
                kernel: split.test_kernel.clone(),
                target,
                n_train: train.len(),
                n_test: test.len(),
                mape_pct: pg_util::mape(&preds, &actual),
                rmse_w: pg_util::rmse(&preds, &actual),
            });
        }
    }
    Replay {
        report: LokoReport {
            config: cfg.model.zoo_name(),
            rows,
        },
        member_s,
        score,
        scored,
    }
}

/// Busy time of each training stage over one probed epoch.
#[derive(Default)]
struct StepTimes {
    batch: Duration,
    forward: Duration,
    backward: Duration,
    adam: Duration,
    shards: usize,
    steps: usize,
}

fn same_grads(a: &[Option<Matrix>], b: &[Option<Matrix>]) -> bool {
    let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => x.rows == y.rows && x.cols == y.cols && bits(x) == bits(y),
            (None, None) => true,
            _ => false,
        })
}

/// One epoch of the first member of the first fold (held-out kernel 0,
/// total power), replayed from `pg_gnn::train_single`'s loop.
fn step_probe(
    data: &[KernelDataset],
    cfg: &EvalConfig,
    out: &mut Outcome,
    verify: bool,
) -> StepTimes {
    let splits = all_splits(data);
    let labeled = splits[0].train_labeled(PowerTarget::Total);
    let mut tc = cfg.train_config(PowerTarget::Total);
    tc.epochs = 1;

    // Fold 0 of the first ensemble seed, split as `train_ensemble_with`
    // splits it.
    let seed = tc.seeds[0];
    let mut order: Vec<usize> = (0..labeled.len()).collect();
    Rng64::new(seed ^ 0x5eed).shuffle(&mut order);
    let val_idx: Vec<usize> = order.iter().copied().step_by(tc.folds).collect();
    let train: Vec<(&PowerGraph, f64)> = order
        .iter()
        .filter(|i| !val_idx.contains(i))
        .map(|&i| labeled[i])
        .collect();
    let val: Vec<(&PowerGraph, f64)> = val_idx.iter().map(|&i| labeled[i]).collect();
    let model_seed = seed.wrapping_mul(1000);

    let mut model = PowerModel::new(tc.model.clone(), model_seed);
    let labels: Vec<f64> = train.iter().map(|(_, t)| *t).collect();
    let mean = pg_util::stats::mean(&labels);
    match tc.label_norm {
        LabelNorm::MeanScale => {
            model.target_scale = mean.max(1e-6) as f32;
            model.target_shift = 0.0;
        }
        LabelNorm::Standardize => {
            model.target_scale = pg_util::stats::stddev(&labels).max(1e-6) as f32;
            model.target_shift = mean as f32;
        }
    }
    let mut opt = Adam::new(tc.lr);
    let mut rng = Rng64::new(model_seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xABCD);
    let mut order: Vec<usize> = (0..train.len()).collect();
    rng.shuffle(&mut order);

    let max_shards = tc.batch_size.max(1).div_ceil(SHARD_GRAPHS);
    let mut shard_accums: Vec<GradAccum> = (0..max_shards)
        .map(|_| GradAccum::new(model.store.len()))
        .collect();
    let mut accum = GradAccum::new(model.store.len());
    let mut tape = Tape::new();
    let mut reference_tape = Tape::new();
    let mut times = StepTimes::default();
    let mut mismatched = 0;

    for (batch_idx, chunk) in order.chunks(tc.batch_size).enumerate() {
        let shards: Vec<&[usize]> = chunk.chunks(SHARD_GRAPHS).collect();
        for (s, shard) in shards.iter().enumerate() {
            let ws = mix64(&[model_seed, 0, batch_idx as u64, s as u64]);
            let t = Instant::now();
            let graphs: Vec<&PowerGraph> = shard.iter().map(|&i| train[i].0).collect();
            let targets: Vec<f64> = shard.iter().map(|&i| train[i].1).collect();
            let batch = GraphBatch::new(&graphs, &targets);
            times.batch += t.elapsed();

            let t = Instant::now();
            tape.reset();
            let mut wrng = Rng64::new(ws);
            let pred = model.forward(&mut tape, &batch, true, &mut wrng);
            let scaled: Vec<f32> = batch
                .targets
                .iter()
                .map(|&t| (t - model.target_shift) / model.target_scale)
                .collect();
            let loss = if model.target_shift == 0.0 {
                tape.mape_loss(pred, &scaled)
            } else {
                tape.mse_loss(pred, &scaled)
            };
            let loss_value = tape.value(loss).data[0] as f64;
            times.forward += t.elapsed();

            let t = Instant::now();
            let grads = tape.backward(loss);
            times.backward += t.elapsed();

            let (ref_loss, ref_grads) =
                model.loss_and_grads_in(&batch, &mut Rng64::new(ws), &mut reference_tape);
            if ref_loss.to_bits() != loss_value.to_bits() || !same_grads(&grads, &ref_grads) {
                mismatched += 1;
            }

            let t = Instant::now();
            shard_accums[s].add(grads, shard.len());
            times.adam += t.elapsed();
            times.shards += 1;
        }
        let t = Instant::now();
        accum.reset();
        for sa in &mut shard_accums[..shards.len()] {
            accum.merge_from(sa);
            sa.reset();
        }
        opt.step(&mut model.store, accum.mean_in_place());
        times.adam += t.elapsed();
        times.steps += 1;
    }
    out.ops(times.shards as u64, mismatched);
    out.check(mismatched == 0, || {
        format!("loko_fold: {mismatched} probed shards differ from loss_and_grads_in")
    });
    if verify {
        let reference = train_single(&train, &val, &tc, model_seed);
        out.ops(1, u64::from(reference.store != model.store));
        out.check(reference.store == model.store, || {
            "loko_fold: the probed epoch's parameters differ from train_single's".into()
        });
    }
    times
}

/// Traced run: an untraced warm-up pass, the replayed pass, a second
/// untraced pass to compare the replay's cost against, and the step probe.
pub fn traced(setup: &Setup) -> Outcome {
    let cfg = config();
    let data = datasets(setup);
    let mut out = Outcome::default();

    let reference = run_loko(data, &cfg);
    let failed = check_report(&mut out, &reference);
    out.ops(ROWS as u64, failed);

    let t = Instant::now();
    let replayed = replay(data, &cfg);
    let traced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let again = run_loko(data, &cfg);
    let untraced_s = t.elapsed().as_secs_f64();
    let failed = check_report(&mut out, &again);
    out.ops(ROWS as u64, failed);
    out.check(again.digest() == reference.digest(), || {
        "loko_fold: two run_loko passes differ".into()
    });
    let failed = check_report(&mut out, &replayed.report);
    out.ops(ROWS as u64, failed);
    out.check(replayed.report.digest() == reference.digest(), || {
        format!(
            "loko_fold: replay digest {:016x} differs from run_loko's {:016x}",
            replayed.report.digest(),
            reference.digest()
        )
    });

    let probes: Vec<StepTimes> = (0..PROBE_REPS)
        .map(|rep| step_probe(data, &cfg, &mut out, rep == 0))
        .collect();
    let per = |f: fn(&StepTimes) -> (Duration, usize)| {
        let v: Vec<f64> = probes
            .iter()
            .map(|p| {
                let (d, n) = f(p);
                d.as_secs_f64() * 1e6 / n.max(1) as f64
            })
            .collect();
        stats::median(&v)
    };

    out.metric("gnn.train_member_s", stats::median(&replayed.member_s), "s");
    out.metric(
        "gnn.score_us_per_graph",
        replayed.score.as_secs_f64() * 1e6 / replayed.scored.max(1) as f64,
        "us",
    );
    out.metric(
        "gnn.train_batch_us_per_shard",
        per(|p| (p.batch, p.shards)),
        "us",
    );
    out.metric(
        "gnn.train_forward_us_per_shard",
        per(|p| (p.forward, p.shards)),
        "us",
    );
    out.metric(
        "tensor.backward_us_per_shard",
        per(|p| (p.backward, p.shards)),
        "us",
    );
    out.metric("tensor.adam_us_per_step", per(|p| (p.adam, p.steps)), "us");
    out.metric("gnn.members", replayed.member_s.len() as f64, "count");
    out.metric("gnn.shards_per_epoch", probes[0].shards as f64, "count");
    out.metric(
        "loko_fold.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
    );
    out
}
