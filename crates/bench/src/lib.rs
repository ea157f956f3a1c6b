//! Benchmark harness shared code: the paper-table binaries' presets and
//! cache, runtime probes, the serve load generator and the perf gate.
//!
//! The table/figure binaries are thin renderers over the one
//! leave-one-kernel-out harness, [`powergear::eval`]:
//!
//! * `table1` — dataset properties, total/dynamic power estimation errors
//!   for Vivado / HL-Pow / PowerGear / GCN / GraphSage / GraphConv / GINE,
//!   and the runtime speedup column;
//! * `table2` — the HEC-GNN ablation (w/o opt., w/o e.f., w/o dir.,
//!   w/o hetr., w/o md., sgl., prop.);
//! * `table3` — DSE ADRS at 20/30/40 % sampling budgets with the three
//!   prediction models;
//! * `fig4` — latency/dynamic-power Pareto frontiers for Atax and Mvt
//!   (CSV + ASCII rendering).
//!
//! Each takes a plain [`powergear::eval::EvalConfig`] preset
//! ([`tables::preset`]); `--full` raises the scale toward the paper's
//! settings and `--kernels a,b` restricts the held-out kernels. `table1`,
//! `table3` and `fig4` share one cached evaluation ([`tables::table1_eval`]).

pub mod loadgen;
pub mod perf;
pub mod runtime;
pub mod tables;

pub use loadgen::{fetch_stats_v2, run_load, server_delta, LoadConfig, LoadReport, ServerDelta};
pub use perf::{PerfConfig, PerfResult};
