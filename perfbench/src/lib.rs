//! End-to-end and per-layer benchmark of the PowerGear workspace.
//!
//! Three workloads drive the system through its public APIs:
//! `dse_sweep` (bulk design-space estimation), `loko_fold`
//! (leave-one-kernel-out training and scoring) and `serve_open` (the
//! serving daemon under an open-loop request stream). An untraced run
//! measures the end-to-end metrics of one workload; a traced run times
//! the calls into each crate from this package's own code and reports
//! per-layer metrics for all three. `README.md` maps every layer metric to
//! the end-to-end metric and workload it should move.

pub mod dse;
pub mod json;
pub mod loko;
pub mod schedule;
pub mod serve;
pub mod setup;
pub mod speed;
pub mod stats;

use json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The benchmark definition this package reports against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Set-up repetitions per untraced run; `setup_s` is their
/// speed-corrected median.
pub const SETUP_REPS: usize = 3;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run did: operations attempted and failed, the
/// correctness checks that failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed correctness checks; any entry makes the
    /// run incorrect.
    pub failures: Vec<String>,
    /// Metrics declared in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed for people, outside the
    /// declared metric set.
    pub derived: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn derived(&mut self, name: &str, value: f64, unit: &'static str) {
        self.derived.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.metrics.extend(other.metrics);
        self.derived.extend(other.derived);
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`
/// (`end_to_end` or `per_layer`).
///
/// # Errors
///
/// A message when the document or the list is malformed.
pub fn declared_metrics(doc: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(doc)?;
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("malformed `{key}` entry {}", m.render())),
            }
        })
        .collect()
}

/// Names of declared metrics the outcome lacks, metrics it reports that
/// are not declared, and unit disagreements; empty when they match.
pub fn metric_set_errors(declared: &[(String, String)], reported: &[Metric]) -> Vec<String> {
    let mut errors = Vec::new();
    for (name, unit) in declared {
        match reported.iter().find(|m| &m.name == name) {
            None => errors.push(format!("metric {name} was not measured")),
            Some(m) if m.unit != unit => {
                errors.push(format!("metric {name} has unit {} not {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => {
                errors.push(format!("metric {name} is not finite ({})", m.value))
            }
            Some(_) => {}
        }
    }
    for m in reported {
        if !declared.iter().any(|(n, _)| n == &m.name) {
            errors.push(format!("metric {} is not declared", m.name));
        }
    }
    errors
}

/// Peak resident set size of this process in MB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

/// The system allocator, counting the bytes the process holds and their
/// peak. Peak heap is the memory figure the benchmark gates on: peak
/// resident memory also counts freed memory the allocator keeps, which
/// depends on how worker threads interleave and varies by ±15 % between
/// runs of one seed.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// updated after the call and never affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator, which only forwards.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantee that
        // `new_size` is valid for `layout`'s alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak bytes held at once through [`CountingAlloc`], in MB; 0 when the
/// running binary does not install it.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
