//! `serve_open`: an in-process serving daemon with its default batching
//! (32 graphs, 500 µs deadline, one engine thread), serving the set-up's
//! artifact from a registry directory, driven over TCP by two client
//! connections.
//!
//! An open-loop phase sends Predict requests on a seeded Poisson schedule
//! at [`OPEN_RATE_RPS`] and times each request from its scheduled send
//! time. Closed-loop passes then send a request set of the same mix
//! back to back; their speed-corrected median is the workload's
//! `pass_s`. Every response is checked bit for bit against in-process
//! `PowerGear::estimate_graphs`, and the daemon's `StatsV2` counters must
//! match the client's tallies exactly.

use crate::schedule::{poisson_schedule, request_mix, RequestSpec};
use crate::setup::Setup;
use crate::speed::{self, Reference};
use crate::{json::Json, stats, Outcome};
use pg_graphcon::PowerGraph;
use pg_store::frame::{self, FrameType, PredictRequest, PredictResponse};
use pg_store::StatsV2Response;
use powergear::daemon::{Daemon, DaemonConfig, DaemonHandle};
use powergear_bench::loadgen::{fetch_stats_v2, server_delta, ServerDelta};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client connections, each with at most one request in flight.
pub const CONNECTIONS: usize = 2;
/// Offered open-loop rate: about half the closed-loop capacity of the
/// daemon on a 2-core x86-64 box (see README.md). Fixed, never adapted.
pub const OPEN_RATE_RPS: f64 = 100.0;
/// Requests of the open-loop phase (enough for 10 samples beyond p99).
pub const OPEN_REQUESTS: usize = 1200;
/// Requests of one closed-loop pass.
pub const CLOSED_REQUESTS: usize = 200;
/// The open-loop generator may wake at most this late (99th percentile)
/// for a run to count; above it the schedule was not honoured.
pub const MAX_GENERATOR_LATE_MS: f64 = 10.0;
/// Closed-loop passes every untraced run makes at least.
const MIN_CLOSED_PASSES: usize = 3;
/// Head start the client threads get to connect before the schedule.
const LEAD: Duration = Duration::from_millis(50);

/// Graphs requests draw from, with the in-process estimates of each.
struct Pool {
    kernels: Vec<String>,
    graphs: Vec<Vec<PowerGraph>>,
    expected: Vec<Vec<(f64, f64)>>,
}

fn pool(setup: &Setup) -> Pool {
    let mut pool = Pool {
        kernels: Vec::new(),
        graphs: Vec::new(),
        expected: Vec::new(),
    };
    for ds in &setup.datasets {
        let graphs: Vec<PowerGraph> = ds.samples.iter().map(|s| s.graph.clone()).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        pool.expected.push(setup.gear.estimate_graphs(&refs));
        pool.kernels.push(ds.kernel.clone());
        pool.graphs.push(graphs);
    }
    pool
}

/// A request ready to send, with the answer it must get.
struct Prepared {
    request: PredictRequest,
    expected: Vec<(f64, f64)>,
}

fn prepare(pool: &Pool, specs: &[RequestSpec]) -> Vec<Prepared> {
    specs
        .iter()
        .map(|s| Prepared {
            request: PredictRequest {
                kernel: pool.kernels[s.kernel].clone(),
                graphs: s
                    .graphs
                    .iter()
                    .map(|&g| pool.graphs[s.kernel][g].clone())
                    .collect(),
            },
            expected: s
                .graphs
                .iter()
                .map(|&g| pool.expected[s.kernel][g])
                .collect(),
        })
        .collect()
}

fn mix(pool: &Pool, seed: u64, n: usize) -> Vec<Prepared> {
    let sizes: Vec<usize> = pool.graphs.iter().map(Vec::len).collect();
    prepare(pool, &request_mix(seed, n, &sizes))
}

/// Client-side record of one phase.
#[derive(Default)]
struct Tally {
    /// Per-request latency in seconds; +∞ for a failed request.
    latencies: Vec<f64>,
    ok_requests: u64,
    ok_graphs: u64,
    /// Requests that got an error frame, a socket error, a malformed or
    /// bit-mismatched response, or no response.
    failed: u64,
    /// How late the generator sent each open-loop request, in seconds.
    late: Vec<f64>,
    encode: Duration,
    decode: Duration,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.ok_requests += other.ok_requests;
        self.ok_graphs += other.ok_graphs;
        self.failed += other.failed;
        self.late.extend(other.late);
        self.encode += other.encode;
        self.decode += other.decode;
    }

    fn requests(&self) -> u64 {
        self.latencies.len() as u64
    }

    fn fail(&mut self) {
        self.failed += 1;
        self.latencies.push(f64::INFINITY);
    }
}

fn same_bits(got: &[(f64, f64)], want: &[(f64, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0.to_bits() == w.0.to_bits() && g.1.to_bits() == w.1.to_bits())
}

/// One connection's requests, in order. With a schedule, request `i` is
/// due at `start + schedule[i]` and timed from then; without, requests go
/// back to back, each timed from its send.
fn connection(
    addr: SocketAddr,
    requests: &[(usize, &Prepared)],
    start: Instant,
    schedule: Option<&[f64]>,
) -> Tally {
    let mut tally = Tally::default();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        for _ in requests {
            tally.fail();
        }
        return tally;
    };
    let _ = stream.set_nodelay(true);
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    for (sent, &(i, p)) in requests.iter().enumerate() {
        let ready = Instant::now();
        let t0 = match schedule {
            Some(s) => {
                let due = start + Duration::from_secs_f64(s[i]);
                if let Some(wait) = due.checked_duration_since(ready) {
                    std::thread::sleep(wait);
                }
                let woke = Instant::now();
                tally
                    .late
                    .push(woke.saturating_duration_since(due.max(ready)).as_secs_f64());
                due
            }
            None => ready,
        };
        let t = Instant::now();
        let payload = p.request.to_payload();
        tally.encode += t.elapsed();
        let raw = frame::RawFrame::new(FrameType::Predict, payload);
        let reply =
            frame::write_frame(&mut stream, &raw).and_then(|()| frame::read_frame(&mut stream));
        let reply = match reply {
            Ok(Some(r)) => r,
            _ => {
                // The stream is no longer usable: this request and every
                // later one on the connection go unanswered.
                for _ in sent..requests.len() {
                    tally.fail();
                }
                return tally;
            }
        };
        let latency = t0.elapsed().as_secs_f64();
        if reply.frame_type() != Some(FrameType::PredictOk) {
            tally.fail();
            continue;
        }
        let t = Instant::now();
        let decoded = PredictResponse::from_payload(&reply.payload);
        tally.decode += t.elapsed();
        match decoded {
            Ok(r) if same_bits(&r.predictions, &p.expected) => {
                tally.latencies.push(latency);
                tally.ok_requests += 1;
                tally.ok_graphs += r.predictions.len() as u64;
            }
            _ => tally.fail(),
        }
    }
    tally
}

/// Sends `requests` over [`CONNECTIONS`] connections (request `i` on
/// connection `i % CONNECTIONS`) and returns the tally and wall time.
fn drive(addr: SocketAddr, requests: &[Prepared], schedule: Option<&[f64]>) -> (Tally, f64) {
    let start = Instant::now() + LEAD;
    let per_conn: Vec<Vec<(usize, &Prepared)>> = (0..CONNECTIONS)
        .map(|c| {
            requests
                .iter()
                .enumerate()
                .filter(|(i, _)| i % CONNECTIONS == c)
                .collect()
        })
        .collect();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|reqs| scope.spawn(move || connection(addr, reqs, start, schedule)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in tallies {
        total.absorb(t);
    }
    (total, wall)
}

fn start_daemon(registry: &Path, trace_out: Option<PathBuf>) -> Result<DaemonHandle, String> {
    let mut cfg = DaemonConfig::new("127.0.0.1:0");
    cfg.registry_dir = Some(registry.to_path_buf());
    cfg.trace_out = trace_out;
    let daemon = Daemon::bind(cfg).map_err(|e| format!("binding the daemon: {e}"))?;
    if daemon.models().is_empty() {
        return Err("the daemon loaded no model from the registry".into());
    }
    Ok(daemon.spawn())
}

fn stats_v2(out: &mut Outcome, addr: SocketAddr) -> Option<StatsV2Response> {
    match fetch_stats_v2(addr) {
        Ok(s) => Some(s),
        Err(e) => {
            out.failures.push(format!("serve_open: StatsV2: {e}"));
            None
        }
    }
}

/// Checks the daemon's counter movement against the client's tally.
fn check_delta(
    out: &mut Outcome,
    phase: &str,
    before: Option<&StatsV2Response>,
    after: Option<&StatsV2Response>,
    tally: &Tally,
) -> Option<ServerDelta> {
    let delta = server_delta(before?, after?);
    out.check(
        delta.requests == tally.ok_requests && delta.graphs == tally.ok_graphs,
        || {
            format!(
                "serve_open {phase}: server counted {} requests / {} graphs, client {} / {}",
                delta.requests, delta.graphs, tally.ok_requests, tally.ok_graphs
            )
        },
    );
    out.check(delta.errors == 0, || {
        format!("serve_open {phase}: server counted {} errors", delta.errors)
    });
    Some(delta)
}

fn stop(out: &mut Outcome, daemon: DaemonHandle) {
    if let Err(e) = daemon.stop() {
        out.failures
            .push(format!("serve_open: stopping the daemon: {e}"));
    }
}

/// 99th percentile of the generator's lateness in ms (the maximum when
/// too few requests were sent for a percentile).
fn generator_late_ms(late: &[f64]) -> f64 {
    let p99 = stats::percentile(late, 99.0);
    1e3 * p99.unwrap_or_else(|| late.iter().copied().fold(0.0, f64::max))
}

fn check_late(out: &mut Outcome, late_ms: f64) {
    out.check(late_ms <= MAX_GENERATOR_LATE_MS, || {
        format!(
            "serve_open: invalid run, the generator ran {late_ms:.3} ms late (bound {MAX_GENERATOR_LATE_MS} ms)"
        )
    });
}

/// Untraced run: the open-loop phase, then closed-loop passes until
/// `seconds` have passed.
pub fn run(setup: &Setup, seed: u64, seconds: f64, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool(setup);
    let open = mix(&pool, seed, OPEN_REQUESTS);
    let schedule = poisson_schedule(seed, OPEN_RATE_RPS, OPEN_REQUESTS);
    let closed = mix(&pool, seed.wrapping_add(1), CLOSED_REQUESTS);
    let start = Instant::now();
    let daemon = match start_daemon(&setup.registry, None) {
        Ok(d) => d,
        Err(e) => {
            out.failures.push(format!("serve_open: {e}"));
            return out;
        }
    };
    let addr = daemon.addr();

    let before = stats_v2(&mut out, addr);
    let (open_tally, _) = drive(addr, &open, Some(&schedule));
    let after = stats_v2(&mut out, addr);
    check_delta(
        &mut out,
        "open loop",
        before.as_ref(),
        after.as_ref(),
        &open_tally,
    );

    let before = stats_v2(&mut out, addr);
    let mut closed_tally = Tally::default();
    let remaining = seconds - start.elapsed().as_secs_f64();
    let (walls, samples) = speed::repeat_for(remaining, MIN_CLOSED_PASSES, reference, || {
        let (tally, wall) = drive(addr, &closed, None);
        closed_tally.absorb(tally);
        wall
    });
    let after = stats_v2(&mut out, addr);
    check_delta(
        &mut out,
        "closed loop",
        before.as_ref(),
        after.as_ref(),
        &closed_tally,
    );
    stop(&mut out, daemon);

    let late_ms = generator_late_ms(&open_tally.late);
    check_late(&mut out, late_ms);
    out.ops(
        open_tally.requests() + closed_tally.requests(),
        open_tally.failed + closed_tally.failed,
    );
    let wall = stats::median(&walls);
    let graphs_per_pass: usize = closed.iter().map(|p| p.request.graphs.len()).sum();
    out.metric("pass_s", speed::corrected(&walls, &samples), "s");
    out.derived("pass_wall_s", wall, "s");
    let ms = |q: f64| stats::percentile(&open_tally.latencies, q).map(|s| s * 1e3);
    match ms(50.0) {
        Some(p50) => out.derived("serve_p50_ms", p50, "ms"),
        None => out
            .failures
            .push("serve_open: too few requests for a p50".into()),
    }
    match ms(99.0) {
        Some(p99) => out.derived("serve_p99_ms", p99, "ms"),
        None => out
            .failures
            .push("serve_open: too few requests for a p99".into()),
    }
    out.derived(
        "serve_capacity_graphs_per_s",
        graphs_per_pass as f64 / wall,
        "graphs/s",
    );
    out.derived("serve.generator_late_ms", late_ms, "ms");
    out.derived("open_loop_requests", open_tally.requests() as f64, "count");
    out.derived("closed_passes", walls.len() as f64, "count");
    out
}

/// Durations of the daemon's trace spans, from its JSONL trace file.
#[derive(Default)]
struct Spans {
    admission_us: Vec<f64>,
    encode_us: Vec<f64>,
    /// Distinct inference spans (one per model group of a micro-batch,
    /// repeated on every request of the group), keyed by start.
    inference: BTreeSet<(u64, u64)>,
}

fn read_spans(path: &Path) -> Result<Spans, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = Spans::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line)?;
        for s in doc.get("spans").and_then(Json::as_array).unwrap_or(&[]) {
            let name = s.get("name").and_then(Json::as_str).unwrap_or("");
            let start = s.get("start_us").and_then(Json::as_f64).unwrap_or(0.0);
            let dur = s.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0);
            match name {
                "admission" => spans.admission_us.push(dur),
                "encode" => spans.encode_us.push(dur),
                "inference" => {
                    spans.inference.insert((start as u64, dur as u64));
                }
                _ => {}
            }
        }
    }
    Ok(spans)
}

/// Traced run: a closed-loop pass against an untraced daemon, then the
/// open-loop phase and a closed-loop pass against a daemon writing span
/// traces, whose spans and counters give the daemon's layer metrics.
pub fn traced(setup: &Setup, seed: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool(setup);
    let open = mix(&pool, seed, OPEN_REQUESTS);
    let schedule = poisson_schedule(seed, OPEN_RATE_RPS, OPEN_REQUESTS);
    let closed = mix(&pool, seed.wrapping_add(1), CLOSED_REQUESTS);

    let untraced_s = match start_daemon(&setup.registry, None) {
        Ok(daemon) => {
            let (warm, _) = drive(daemon.addr(), &closed, None);
            let (tally, wall) = drive(daemon.addr(), &closed, None);
            out.ops(
                warm.requests() + tally.requests(),
                warm.failed + tally.failed,
            );
            stop(&mut out, daemon);
            wall
        }
        Err(e) => {
            out.failures.push(format!("serve_open: {e}"));
            return out;
        }
    };

    let trace_path = dir.join("serve_trace.jsonl");
    let daemon = match start_daemon(&setup.registry, Some(trace_path.clone())) {
        Ok(d) => d,
        Err(e) => {
            out.failures.push(format!("serve_open: {e}"));
            return out;
        }
    };
    let addr = daemon.addr();
    let before = stats_v2(&mut out, addr);
    let (mut tally, _) = drive(addr, &open, Some(&schedule));
    let late_ms = generator_late_ms(&tally.late);
    let (closed_tally, traced_s) = drive(addr, &closed, None);
    tally.absorb(closed_tally);
    let after = stats_v2(&mut out, addr);
    let delta = check_delta(&mut out, "traced", before.as_ref(), after.as_ref(), &tally);
    stop(&mut out, daemon);
    check_late(&mut out, late_ms);
    out.ops(tally.requests(), tally.failed);

    let spans = match read_spans(&trace_path) {
        Ok(s) => s,
        Err(e) => {
            out.failures
                .push(format!("serve_open: reading the span trace: {e}"));
            Spans::default()
        }
    };
    out.check(spans.admission_us.len() as u64 == tally.ok_requests, || {
        format!(
            "serve_open: {} traced requests, {} answered",
            spans.admission_us.len(),
            tally.ok_requests
        )
    });
    let requests = tally.requests().max(1) as f64;
    let per_req = |d: Duration| d.as_secs_f64() * 1e6 / requests;
    out.metric("store.encode_us_per_req", per_req(tally.encode), "us");
    out.metric("store.decode_us_per_req", per_req(tally.decode), "us");
    let admission = |q: f64| stats::percentile(&spans.admission_us, q).unwrap_or(f64::NAN);
    out.metric("daemon.admission_wait_p50_us", admission(50.0), "us");
    out.metric("daemon.admission_wait_p99_us", admission(99.0), "us");
    let inference_us: u64 = spans.inference.iter().map(|&(_, d)| d).sum();
    out.metric(
        "daemon.inference_us_per_graph",
        inference_us as f64 / tally.ok_graphs.max(1) as f64,
        "us",
    );
    let encode_us: f64 = spans.encode_us.iter().sum();
    out.metric(
        "daemon.encode_us",
        encode_us / spans.encode_us.len().max(1) as f64,
        "us",
    );
    let (graphs_per_batch, requests_per_batch) = match delta {
        Some(d) if d.batches > 0 => (
            d.graphs as f64 / d.batches as f64,
            d.requests as f64 / d.batches as f64,
        ),
        _ => (f64::NAN, f64::NAN),
    };
    out.metric("daemon.graphs_per_batch", graphs_per_batch, "count");
    out.metric("daemon.requests_per_batch", requests_per_batch, "count");
    out.metric("serve.generator_late_ms", late_ms, "ms");
    out.metric(
        "serve_open.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "ratio",
    );
    out
}
