//! Shared pieces of the paper-table binaries: the reduced and `--full`
//! presets, Table I's estimator list, and the cached Table I evaluation
//! that `table1`, `table3` and `fig4` render from.
//!
//! Every number comes from the LOKO harness ([`powergear::eval`]); this
//! module only adds the speedup column's runtime probes and the cache.
//! The cache file holds the harness output bit-exactly (f64 `Display`
//! round-trips), keyed by the config and the estimator list; a file that
//! fails to parse or holds the wrong number of rows is a miss.

use crate::runtime::measure_runtimes;
use pg_datasets::{DatasetConfig, HlsCache, PowerTarget};
use pg_gnn::{Arch, ModelConfig};
use pg_util::rng::hash64;
use powergear::eval::{kernels_flag, run_estimators, Estimator, EvalConfig, HeldOut, LokoRun};
use std::path::PathBuf;

/// Designs per held-out kernel the speedup column times.
pub const RUNTIME_PROBES: usize = 5;

/// Index of PowerGear (the HEC ensemble) in [`table1_estimators`].
pub const PG: usize = 0;
/// Index of HL-Pow in [`table1_estimators`].
pub const HLPOW: usize = 1;
/// Index of the Vivado surrogate in [`table1_estimators`].
pub const VIVADO: usize = 2;
/// Indices of the GCN, GraphSage, GraphConv and GINE baselines.
pub const BASELINES: [usize; 4] = [3, 4, 5, 6];

/// The preset the arguments select — reduced by default (minutes on 2
/// cores), `--full` for a scale closer to the paper (hours) — restricted
/// to `--kernels a,b` when given.
pub fn preset(args: &[String]) -> Result<EvalConfig, String> {
    let full = args.iter().any(|a| a == "--full");
    let data = DatasetConfig {
        size: 16,
        max_samples: if full { 200 } else { 40 },
        seed: 1,
        threads: 2,
    };
    let kernels = kernels_flag(args)?;
    Ok(if full {
        EvalConfig {
            data,
            model: ModelConfig::hec(64),
            epochs: 150,
            folds: 5,
            seeds: vec![17, 43],
            batch_size: 96,
            lr: 1e-3,
            threads: 2,
            kernels,
        }
    } else {
        EvalConfig {
            data,
            model: ModelConfig::hec(32),
            epochs: 48,
            folds: 2,
            seeds: vec![17],
            batch_size: 48,
            lr: 4e-3,
            threads: 2,
            kernels,
        }
    })
}

/// Table I's estimators: PowerGear (the ensemble of `cfg.model`), HL-Pow,
/// the Vivado surrogate, then the four baseline GNNs as single models.
pub fn table1_estimators(cfg: &EvalConfig) -> Vec<Estimator> {
    let mut out = vec![
        Estimator::Gnn(cfg.model.clone()),
        Estimator::HlPow,
        Estimator::Vivado,
    ];
    out.extend(
        [Arch::Gcn, Arch::Sage, Arch::GraphConv, Arch::Gine]
            .map(|arch| Estimator::GnnSingle(ModelConfig::baseline(arch, cfg.model.hidden))),
    );
    out
}

/// Per held-out kernel figures Table I adds to the harness output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelInfo {
    /// Mean graph node count of the kernel's samples.
    pub avg_nodes: f64,
    /// Median PowerGear flow time per design (ms).
    pub pg_ms: f64,
    /// Median Vivado-surrogate flow time per design (ms).
    pub viv_ms: f64,
}

/// Table I's evaluation: the harness output and, fold for fold, the
/// kernel figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Eval {
    /// Predictions of [`table1_estimators`] on every held-out kernel.
    pub run: LokoRun,
    /// One entry per fold of `run`.
    pub info: Vec<KernelInfo>,
}

impl Table1Eval {
    /// The fold and figures of `kernel`.
    pub fn kernel(&self, kernel: &str) -> Option<(&HeldOut, &KernelInfo)> {
        let i = self.run.folds.iter().position(|f| f.kernel == kernel)?;
        Some((&self.run.folds[i], &self.info[i]))
    }
}

/// Directory for cached evaluations and rendered tables.
pub fn results_dir() -> PathBuf {
    let p = PathBuf::from("results");
    std::fs::create_dir_all(&p).ok();
    p
}

/// Cache file of Table I's evaluation under `cfg`.
pub fn cache_path(cfg: &EvalConfig) -> PathBuf {
    results_dir().join(format!("loko_{:016x}.tsv", cache_key(cfg)))
}

fn cache_key(cfg: &EvalConfig) -> u64 {
    let key = format!("{cfg:?}|{:?}|{RUNTIME_PROBES}", table1_estimators(cfg));
    hash64(key.as_bytes())
}

/// Table I's evaluation under `cfg`: loaded from [`cache_path`] when that
/// holds a complete one (`true`), else run through the harness — the
/// speedup column timing each fold's dynamic PowerGear ensemble — and
/// cached (`false`).
pub fn table1_eval(cfg: &EvalConfig) -> (Table1Eval, bool) {
    let estimators = table1_estimators(cfg);
    let path = cache_path(cfg);
    let n_folds = cfg.kernel_names().len();
    if let Some(hit) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse(&text, &estimators, n_folds))
    {
        return (hit, true);
    }
    let hls = HlsCache::new();
    let datasets = cfg.build_datasets(&hls);
    let mut info = Vec::new();
    let run = run_estimators(&datasets, cfg, &estimators, &hls, |ds, e, target, ens| {
        if e == PG && target == PowerTarget::Dynamic {
            let (pg_ms, viv_ms) = measure_runtimes(ds, ens, RUNTIME_PROBES, ds.size, &hls);
            info.push(KernelInfo {
                avg_nodes: ds.avg_nodes(),
                pg_ms,
                viv_ms,
            });
        }
    });
    let eval = Table1Eval { run, info };
    std::fs::write(&path, to_text(&eval)).ok();
    (eval, false)
}

/// Cache text: per fold a `fold` header line, then one line per held-out
/// sample — latency, truth per target, each estimator's predictions per
/// target — tab-separated.
fn to_text(eval: &Table1Eval) -> String {
    let mut text = String::new();
    for (f, i) in eval.run.folds.iter().zip(&eval.info) {
        text.push_str(&format!(
            "fold\t{}\t{}\t{}\t{}\t{}\t{}\n",
            f.kernel,
            f.n_train,
            f.latency.len(),
            i.avg_nodes,
            i.pg_ms,
            i.viv_ms
        ));
        for j in 0..f.latency.len() {
            text.push_str(&format!(
                "{}\t{}\t{}",
                f.latency[j], f.truth[0][j], f.truth[1][j]
            ));
            for p in &f.preds {
                text.push_str(&format!("\t{}\t{}", p[0][j], p[1][j]));
            }
            text.push('\n');
        }
    }
    text
}

/// Parses [`to_text`] output; `None` unless it is well-formed and holds
/// exactly `n_folds` complete folds of `estimators`.
fn parse(text: &str, estimators: &[Estimator], n_folds: usize) -> Option<Table1Eval> {
    let mut lines = text.lines();
    let mut eval = Table1Eval {
        run: LokoRun {
            estimators: estimators.to_vec(),
            folds: Vec::new(),
        },
        info: Vec::new(),
    };
    while let Some(header) = lines.next() {
        let fields: Vec<&str> = header.split('\t').collect();
        let ["fold", kernel, n_train, n_test, avg_nodes, pg_ms, viv_ms] = fields[..] else {
            return None;
        };
        let mut fold = HeldOut {
            kernel: kernel.to_string(),
            n_train: n_train.parse().ok()?,
            latency: Vec::new(),
            truth: Default::default(),
            preds: vec![Default::default(); estimators.len()],
        };
        for _ in 0..n_test.parse::<usize>().ok()? {
            let vals: Vec<f64> = lines
                .next()?
                .split('\t')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?;
            if vals.len() != 3 + 2 * estimators.len() {
                return None;
            }
            fold.latency.push(vals[0]);
            for (t, truth) in fold.truth.iter_mut().enumerate() {
                truth.push(vals[1 + t]);
            }
            for (e, preds) in fold.preds.iter_mut().enumerate() {
                for (t, p) in preds.iter_mut().enumerate() {
                    p.push(vals[3 + 2 * e + t]);
                }
            }
        }
        eval.run.folds.push(fold);
        eval.info.push(KernelInfo {
            avg_nodes: avg_nodes.parse().ok()?,
            pg_ms: pg_ms.parse().ok()?,
            viv_ms: viv_ms.parse().ok()?,
        });
    }
    (eval.run.folds.len() == n_folds).then_some(eval)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn sample_eval(cfg: &EvalConfig) -> Table1Eval {
        let estimators = table1_estimators(cfg);
        let n_est = estimators.len();
        let fold = |kernel: &str, n: usize| HeldOut {
            kernel: kernel.into(),
            n_train: 7,
            latency: (0..n).map(|i| 100.0 + i as f64).collect(),
            truth: [vec![0.5; n], vec![0.1 / 3.0; n]],
            preds: (0..n_est)
                .map(|e| [vec![0.51 + e as f64; n], vec![1e-7 * e as f64; n]])
                .collect(),
        };
        let info = KernelInfo {
            avg_nodes: 120.25,
            pg_ms: 4.0 / 3.0,
            viv_ms: 16.0,
        };
        Table1Eval {
            run: LokoRun {
                estimators,
                folds: vec![fold("atax", 3), fold("mvt", 2)],
            },
            info: vec![info, info],
        }
    }

    #[test]
    fn presets_parse_flags() {
        let cfg = preset(&args(&["--full", "--kernels", "atax,mvt"])).unwrap();
        assert_eq!(cfg.data.max_samples, 200);
        assert_eq!(cfg.kernel_names(), ["atax", "mvt"]);
        assert_eq!(preset(&[]).unwrap().data.max_samples, 40);
        assert!(preset(&args(&["--kernels", "atax,nope"])).is_err());
        assert!(preset(&args(&["--kernels"])).is_err());
    }

    #[test]
    fn cache_key_tracks_config() {
        let quick = preset(&[]).unwrap();
        let mut wider = quick.clone();
        wider.model.hidden = 64;
        assert_ne!(cache_key(&quick), cache_key(&wider));
        assert_eq!(cache_key(&quick), cache_key(&preset(&[]).unwrap()));
    }

    #[test]
    fn cache_roundtrips_bit_exactly() {
        let cfg = preset(&[]).unwrap();
        let eval = sample_eval(&cfg);
        let text = to_text(&eval);
        assert_eq!(parse(&text, &eval.run.estimators, 2), Some(eval));
    }

    #[test]
    fn malformed_or_partial_cache_is_a_miss() {
        let cfg = preset(&[]).unwrap();
        let eval = sample_eval(&cfg);
        let est = &eval.run.estimators;
        let text = to_text(&eval);
        let lines: Vec<&str> = text.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        let extra = format!("{text}1\t2\t3\n");
        let garbled = text.replacen("0.51", "x", 1);
        let short_row = text.replacen("\t0.51\t0", "", 1);
        for bad in [&truncated, &extra, &garbled, &short_row, &String::new()] {
            assert_eq!(parse(bad, est, 2), None, "{bad}");
        }
        assert_eq!(parse(&text, est, 3), None, "wrong fold count");
    }
}
