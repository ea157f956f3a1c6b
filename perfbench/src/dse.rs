//! `dse_sweep`: [`PowerGear::estimate_space`] over seeded design spaces of
//! kernels the model never saw, each kernel in a fresh [`HlsCache`] as a
//! new DSE session would start.
//!
//! The traced run replays `estimate_space` call by call (HLS through the
//! cache, activity trace, graph construction, then batched inference
//! sharded the way the serving engine shards it) with a timer around each
//! call, and checks that the replay's estimates are bit-identical.

use crate::setup::{Setup, SIZE};
use crate::speed::{self, Reference};
use crate::{stats, Outcome};
use pg_activity::{execute, Stimuli};
use pg_datasets::{polybench, sample_space, HlsCache};
use pg_gnn::{Ensemble, GraphBatch, ServeConfig};
use pg_graphcon::{GraphFlow, PowerGraph};
use pg_hls::Directives;
use pg_ir::Kernel;
use pg_tensor::Tape;
use powergear::{PowerEstimate, PowerGear};
use std::time::{Duration, Instant};

/// Kernels swept; none of them is a training kernel.
pub const DSE_KERNELS: [&str; 3] = ["gemm", "2mm", "atax"];
/// Design points per kernel.
pub const POINTS_PER_KERNEL: usize = 256;
/// Passes every untraced run makes at least, so passes can be compared.
const MIN_PASSES: usize = 2;

/// The seeded directive configurations of every swept kernel.
pub struct Space {
    pub kernels: Vec<(Kernel, Vec<Directives>)>,
}

impl Space {
    pub fn points(&self) -> usize {
        self.kernels.iter().map(|(_, c)| c.len()).sum()
    }
}

/// The design space a workload seed selects.
///
/// # Panics
///
/// Panics if a kernel in [`DSE_KERNELS`] is unknown to `pg_datasets`.
pub fn space(seed: u64) -> Space {
    let kernels = DSE_KERNELS
        .iter()
        .map(|name| {
            let kernel = polybench::by_name(name, SIZE).expect("DSE kernels are Polybench kernels");
            let configs = sample_space(&kernel, POINTS_PER_KERNEL, seed);
            (kernel, configs)
        })
        .collect();
    Space { kernels }
}

/// Estimates of one sweep, one entry per kernel.
type Sweep = Vec<Result<Vec<PowerEstimate>, String>>;

fn sweep(gear: &PowerGear, space: &Space) -> Sweep {
    space
        .kernels
        .iter()
        .map(|(kernel, configs)| {
            gear.estimate_space(kernel, configs, &HlsCache::new())
                .map_err(|e| format!("{}: {e}", kernel.name))
        })
        .collect()
}

type EstimateBits = (u64, u64, u64, usize);

fn bits(sweep: &Sweep) -> Vec<Option<Vec<EstimateBits>>> {
    sweep
        .iter()
        .map(|r| {
            r.as_ref().ok().map(|est| {
                est.iter()
                    .map(|e| {
                        let (t, d) = (e.total_w.to_bits(), e.dynamic_w.to_bits());
                        (t, d, e.latency_cycles, e.graph_nodes)
                    })
                    .collect()
            })
        })
        .collect()
}

/// Design points whose estimate failed or came back missing.
fn failed_points(sweep: &Sweep, space: &Space) -> u64 {
    sweep
        .iter()
        .zip(&space.kernels)
        .map(|(r, (_, configs))| match r {
            Ok(est) => configs.len().saturating_sub(est.len()) as u64,
            Err(_) => configs.len() as u64,
        })
        .sum()
}

fn record_errors(out: &mut Outcome, sweep: &Sweep) {
    for e in sweep.iter().filter_map(|r| r.as_ref().err()) {
        out.failures.push(format!("dse_sweep: {e}"));
    }
}

/// Untraced run: sweeps until `seconds` have passed and reports the median
/// pass time, corrected for the box's speed.
pub fn run(setup: &Setup, seed: u64, seconds: f64, reference: &mut Reference) -> Outcome {
    let space = space(seed);
    let mut out = Outcome::default();
    let mut first = None;
    let (walls, samples) = speed::repeat_for(seconds, MIN_PASSES, reference, || {
        let t = Instant::now();
        let result = sweep(&setup.gear, &space);
        let wall = t.elapsed().as_secs_f64();
        out.ops(space.points() as u64, failed_points(&result, &space));
        record_errors(&mut out, &result);
        let result = bits(&result);
        match &first {
            None => first = Some(result),
            Some(f) => out.check(*f == result, || {
                "dse_sweep: a pass's estimates differ from the first pass's".into()
            }),
        }
        wall
    });
    let wall = stats::median(&walls);
    out.metric("pass_s", speed::corrected(&walls, &samples), "s");
    out.derived("pass_wall_s", wall, "s");
    out.derived("dse_points_per_s", space.points() as f64 / wall, "points/s");
    out.derived("passes", walls.len() as f64, "count");
    out
}

/// Time spent in each layer during one traced pass.
#[derive(Default)]
struct Layers {
    hls: Duration,
    activity: Duration,
    graphcon: Duration,
    /// Wall time of the inference sections (batch assembly and forward,
    /// sharded over worker threads).
    inference: Duration,
    /// Busy time of `GraphBatch::new`, summed over workers.
    batch_busy: Duration,
    /// Busy time of `PowerModel::predict_prebuilt_in`, summed over workers.
    forward_busy: Duration,
    batches: u64,
    cache_hits: usize,
    cache_lookups: usize,
    nodes: usize,
    edges: usize,
}

/// One worker's share of an inference call: its predictions and busy
/// times.
struct Shard {
    preds: Vec<f64>,
    batch: Duration,
    forward: Duration,
    batches: u64,
}

fn infer_shard(ensemble: &Ensemble, group: &[&[&PowerGraph]]) -> Shard {
    let mut tape = Tape::new();
    let mut shard = Shard {
        preds: Vec::new(),
        batch: Duration::ZERO,
        forward: Duration::ZERO,
        batches: 0,
    };
    for graphs in group {
        let t = Instant::now();
        let targets = vec![0.0; graphs.len()];
        let batch = GraphBatch::new(graphs, &targets);
        shard.batch += t.elapsed();
        let t = Instant::now();
        let mut acc = vec![0.0f64; graphs.len()];
        for model in &ensemble.models {
            for (a, p) in acc
                .iter_mut()
                .zip(model.predict_prebuilt_in(&batch, &mut tape))
            {
                *a += p;
            }
        }
        for a in &mut acc {
            *a /= ensemble.models.len() as f64;
        }
        shard.forward += t.elapsed();
        shard.batches += 1;
        shard.preds.extend(acc);
    }
    shard
}

/// `InferenceEngine::predict` under `ServeConfig::default()`, replayed:
/// batches of the default size, contiguous shards of batches per worker.
fn infer(ensemble: &Ensemble, graphs: &[&PowerGraph], layers: &mut Layers) -> Vec<f64> {
    let cfg = ServeConfig::default();
    let batches: Vec<&[&PowerGraph]> = graphs.chunks(cfg.batch_size).collect();
    if batches.is_empty() {
        return Vec::new();
    }
    let threads = cfg.threads.max(1).min(batches.len());
    let per_worker = batches.len().div_ceil(threads);
    let shards: Vec<Shard> = if batches.len() <= per_worker {
        vec![infer_shard(ensemble, &batches)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .chunks(per_worker)
                .map(|group| scope.spawn(move || infer_shard(ensemble, group)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("inference worker panicked"))
                .collect()
        })
    };
    let mut preds = Vec::with_capacity(graphs.len());
    for s in shards {
        layers.batch_busy += s.batch;
        layers.forward_busy += s.forward;
        layers.batches += s.batches;
        preds.extend(s.preds);
    }
    preds
}

/// `PowerGear::estimate_space` for one kernel, replayed call by call.
fn replay_kernel(
    gear: &PowerGear,
    kernel: &Kernel,
    configs: &[Directives],
    layers: &mut Layers,
) -> Result<Vec<PowerEstimate>, String> {
    let cache = HlsCache::new();
    let mut graphs = Vec::with_capacity(configs.len());
    let mut latencies = Vec::with_capacity(configs.len());
    let err = |e: pg_hls::HlsError| format!("{}: {e}", kernel.name);
    for d in configs {
        let t = Instant::now();
        let baseline = cache
            .run(kernel, &Directives::new())
            .map_err(err)?
            .report
            .clone();
        let design = cache.run(kernel, d).map_err(err)?;
        layers.hls += t.elapsed();

        let t = Instant::now();
        let stimuli = Stimuli::for_kernel(kernel, 1);
        let trace = execute(&design, &stimuli);
        layers.activity += t.elapsed();

        let t = Instant::now();
        let mut graph = GraphFlow::new().build(&design, &trace);
        graph.meta = design
            .report
            .metadata_features(&baseline)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        layers.graphcon += t.elapsed();

        // Releasing the trace's arena is activity work too.
        let t = Instant::now();
        drop(trace);
        layers.activity += t.elapsed();

        layers.nodes += graph.num_nodes;
        layers.edges += graph.edges.len();
        latencies.push(design.report.latency_cycles);
        graphs.push(graph);
    }
    layers.cache_hits += cache.hits();
    layers.cache_lookups += cache.hits() + cache.misses();

    let refs: Vec<&PowerGraph> = graphs.iter().collect();
    let t = Instant::now();
    let total = infer(&gear.total_model, &refs, layers);
    let dynamic = infer(&gear.dynamic_model, &refs, layers);
    layers.inference += t.elapsed();
    Ok(total
        .into_iter()
        .zip(dynamic)
        .zip(graphs.iter().zip(latencies))
        .map(
            |((total_w, dynamic_w), (graph, latency_cycles))| PowerEstimate {
                total_w,
                dynamic_w,
                latency_cycles,
                graph_nodes: graph.num_nodes,
            },
        )
        .collect())
}

/// Least share of a traced pass's wall time the timed calls must cover,
/// so that the layer times account for the pass.
const MIN_SELF_TIME_SHARE: f64 = 0.9;

/// Traced run: an untraced warm-up pass, the replayed pass, and a second
/// untraced pass to compare the replay's cost against.
pub fn traced(setup: &Setup, seed: u64) -> Outcome {
    let space = space(seed);
    let mut out = Outcome::default();
    let reference = sweep(&setup.gear, &space);
    record_errors(&mut out, &reference);

    let mut layers = Layers::default();
    let t = Instant::now();
    let replay: Sweep = space
        .kernels
        .iter()
        .map(|(kernel, configs)| replay_kernel(&setup.gear, kernel, configs, &mut layers))
        .collect();
    let traced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let again = sweep(&setup.gear, &space);
    let untraced_s = t.elapsed().as_secs_f64();

    out.ops(2 * space.points() as u64, failed_points(&replay, &space));
    out.failed += failed_points(&reference, &space);
    record_errors(&mut out, &replay);
    out.check(bits(&replay) == bits(&reference), || {
        "dse_sweep: the traced replay's estimates differ from estimate_space's".into()
    });
    out.check(bits(&again) == bits(&reference), || {
        "dse_sweep: two estimate_space passes differ".into()
    });

    let points = space.points() as f64;
    let us_per_point = |d: Duration| d.as_secs_f64() * 1e6 / points;
    let covered = layers.hls + layers.activity + layers.graphcon + layers.inference;
    let share = covered.as_secs_f64() / traced_s;
    out.check(share >= MIN_SELF_TIME_SHARE, || {
        format!("dse_sweep: timed calls cover {share:.3} of the traced pass, below {MIN_SELF_TIME_SHARE}")
    });
    out.metric("hls.synth_us_per_point", us_per_point(layers.hls), "us");
    out.metric(
        "activity.trace_us_per_point",
        us_per_point(layers.activity),
        "us",
    );
    out.metric(
        "graphcon.build_us_per_point",
        us_per_point(layers.graphcon),
        "us",
    );
    out.metric(
        "gnn.batch_us_per_graph",
        us_per_point(layers.batch_busy),
        "us",
    );
    out.metric(
        "gnn.forward_us_per_graph",
        us_per_point(layers.forward_busy),
        "us",
    );
    out.metric(
        "hls.cache_hit_ratio",
        layers.cache_hits as f64 / layers.cache_lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "graphcon.nodes_per_graph",
        layers.nodes as f64 / points,
        "count",
    );
    out.metric(
        "graphcon.edges_per_graph",
        layers.edges as f64 / points,
        "count",
    );
    out.metric("gnn.batches", layers.batches as f64, "count");
    out.metric("dse_sweep.self_time_share", share, "ratio");
    out.metric(
        "dse_sweep.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
    );
    out
}
