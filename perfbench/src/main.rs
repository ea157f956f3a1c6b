//! `perfbench --workload <dse_sweep|loko_fold|serve_open|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a fingerprint line, one line per
//! measured figure, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of `BENCHMARK.json` for the named
//! workload; with `--trace 1` they are the per-layer metrics, which the
//! traced run measures on one pass of every workload whatever the name.

use perfbench::json::Json;
use perfbench::setup::{self, Setup, SetupTimes};
use perfbench::speed::{self, Reference};
use perfbench::{declared_metrics, dse, loko, metric_set_errors, serve, stats, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: perfbench::CountingAlloc = perfbench::CountingAlloc;

const WORKLOADS: [&str; 3] = ["dse_sweep", "loko_fold", "serve_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![(
        "fingerprint".into(),
        Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("nproc".into(), Json::Num(nproc as f64)),
            (
                "rustc".into(),
                Json::Str(command_output("rustc", &["--version"])),
            ),
            (
                "commit".into(),
                Json::Str(command_output("git", &["rev-parse", "HEAD"])),
            ),
        ]),
    )])
}

/// Scratch space for artifacts, registries and span traces: under the
/// build directory, so a run writes nowhere else.
fn scratch_dir(workload: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-tmp")
        .join(format!("{workload}-{}", std::process::id()))
}

fn setup_or_fail(
    seed: u64,
    dir: &Path,
    reps: usize,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Option<(Setup, Vec<SetupTimes>, Vec<f64>)> {
    match setup::build_repeated(seed, dir, reps, reference) {
        Ok(s) => Some(s),
        Err(e) => {
            out.failures.push(format!("set-up: {e}"));
            None
        }
    }
}

/// An untraced run of one workload: the end-to-end metrics.
fn run_untraced(workload: &str, args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new();
    let Some((setup, times, samples)) = setup_or_fail(
        args.seed,
        dir,
        perfbench::SETUP_REPS,
        &mut reference,
        &mut out,
    ) else {
        return out;
    };
    let totals: Vec<f64> = times.iter().map(SetupTimes::total).collect();
    out.metric("setup_s", speed::corrected(&totals, &samples), "s");
    out.derived("setup_wall_s", stats::median(&totals), "s");
    out.absorb(match workload {
        "dse_sweep" => dse::run(&setup, args.seed, args.seconds, &mut reference),
        "loko_fold" => loko::run(&setup, args.seconds, &mut reference),
        _ => serve::run(&setup, args.seed, args.seconds, &mut reference),
    });
    out.metric("peak_heap_mb", perfbench::peak_heap_mb(), "MB");
    if let Some(mb) = perfbench::peak_rss_mb() {
        out.derived("peak_rss_mb", mb, "MB");
    }
    out
}

/// The traced run: one set-up and one traced pass of every workload.
fn run_traced(args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let Some((setup, times, _)) = setup_or_fail(args.seed, dir, 1, &mut Reference::new(), &mut out)
    else {
        return out;
    };
    out.metric("setup.datasets_s", times[0].datasets_s, "s");
    out.metric("setup.train_s", times[0].train_s, "s");
    out.metric("setup.artifact_s", times[0].artifact_s, "s");
    out.absorb(dse::traced(&setup, args.seed));
    out.absorb(loko::traced(&setup));
    out.absorb(serve::traced(&setup, args.seed, dir));
    out
}

fn print_figures(workload: &str, out: &Outcome) {
    for m in out.metrics.iter().chain(&out.derived) {
        println!("{workload} {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload} ops attempted = {}, failed = {}",
        out.attempted, out.failed
    );
    for f in &out.failures {
        println!("{workload} FAILED CHECK: {f}");
        eprintln!("{workload} FAILED CHECK: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dse_sweep|loko_fold|serve_open|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let key = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match declared_metrics(perfbench::BENCHMARK_JSON, key) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint(&args).render());

    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let mut result = Outcome::default();
    for workload in workloads {
        let dir = scratch_dir(workload);
        let mut out = match std::fs::create_dir_all(&dir) {
            Ok(()) if args.trace => run_traced(&args, &dir),
            Ok(()) => run_untraced(workload, &args, &dir),
            Err(e) => {
                let mut out = Outcome::default();
                out.failures
                    .push(format!("creating {}: {e}", dir.display()));
                out
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        out.failures
            .extend(metric_set_errors(&declared, &out.metrics));
        print_figures(if args.trace { "traced" } else { workload }, &out);
        if args.workload == "all" {
            for m in &mut out.metrics {
                m.name = format!("{workload}.{}", m.name);
            }
        }
        result.absorb(out);
        if args.trace {
            // The traced run already covers every workload.
            break;
        }
    }
    println!("{}", result.result_json().render());
    ExitCode::SUCCESS
}
