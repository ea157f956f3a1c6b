//! Shared utilities for the PowerGear reproduction workspace.
//!
//! Provides a deterministic pseudo-random number generator ([`Rng64`]),
//! summary statistics used throughout the evaluation harness, plain-text
//! table/CSV writers used by the benchmark binaries to regenerate the
//! paper's tables and figures, lightweight timer-scope instrumentation
//! ([`prof`]) attributing cold-synthesis time across pipeline stages, the
//! ordered work-stealing map ([`par`]) the cold path runs on, and the
//! workspace observability layer ([`metrics`] registry + [`trace`]
//! per-request spans) surfaced by the serving daemon.
//!
//! # Examples
//!
//! ```
//! use pg_util::{mean, Rng64};
//! let mut rng = Rng64::new(1);
//! let xs: Vec<f64> = (0..8).map(|_| rng.f64()).collect();
//! assert!(mean(&xs) > 0.0);
//! ```

pub mod csv;
pub mod metrics;
pub mod par;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;

pub use csv::CsvWriter;
pub use rng::Rng64;
pub use stats::{mape, mean, median, percentile, rmse, stddev};
pub use table::Table;
