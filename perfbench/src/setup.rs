//! The set-up every workload shares: seeded datasets, a trained PowerGear,
//! and its `.pgm` artifact saved into a model registry and loaded back.

use crate::speed::Reference;
use pg_datasets::{build_kernel_dataset_cached, polybench, DatasetConfig, HlsCache, KernelDataset};
use pg_store::{ArtifactMeta, ModelRegistry};
use powergear::{PowerGear, PowerGearConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Problem size of every kernel the benchmark builds.
pub const SIZE: usize = 12;
/// Training kernels; `loko_fold` uses the first three.
pub const SETUP_KERNELS: [&str; 4] = ["bicg", "gesummv", "mvt", "syrk"];
/// Design points per training kernel.
pub const SAMPLES_PER_KERNEL: usize = 40;
/// Training epochs of the total head (the dynamic head trains twice as
/// long). Accuracy does not matter to the workloads that use this model.
pub const TRAIN_EPOCHS: usize = 4;
/// Worker threads for dataset building and training, in the set-up and in
/// `loko_fold`. Results are the same at any thread count; on a 2-core box
/// shared with other tenants, with two threads that meet at every batch
/// the pass time of `loko_fold` spread by 10–19 % between runs, against
/// 3 % on one thread.
pub const THREADS: usize = 1;
/// Registry name the artifact is published under.
pub const MODEL_NAME: &str = "bench";
/// Graphs in the artifact's bit-exactness probe.
const PROBE_GRAPHS: usize = 8;

/// Everything the workloads start from.
pub struct Setup {
    pub datasets: Vec<KernelDataset>,
    /// The estimator as loaded back from its artifact.
    pub gear: PowerGear,
    /// Registry directory holding the artifact.
    pub registry: PathBuf,
}

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub datasets_s: f64,
    pub train_s: f64,
    pub artifact_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datasets_s + self.train_s + self.artifact_s
    }
}

/// Dataset profile of the training kernels for a workload seed.
pub fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        size: SIZE,
        max_samples: SAMPLES_PER_KERNEL,
        seed,
        threads: THREADS,
    }
}

/// Training profile: HEC-GNN of width 32, 2 folds × 1 seed per head.
pub fn train_config() -> PowerGearConfig {
    PowerGearConfig {
        folds: 2,
        seeds: vec![17],
        epochs: TRAIN_EPOCHS,
        threads: THREADS,
        ..PowerGearConfig::quick()
    }
}

/// Runs the set-up once into `dir`.
///
/// # Errors
///
/// A message when a kernel is unknown or the artifact cannot be saved or
/// loaded (the load runs the artifact's probe verification).
pub fn build(seed: u64, dir: &Path) -> Result<(Setup, SetupTimes), String> {
    let t = Instant::now();
    let cache = HlsCache::new();
    let cfg = dataset_config(seed);
    let datasets = SETUP_KERNELS
        .iter()
        .map(|name| {
            let kernel = polybench::by_name(name, SIZE).ok_or(format!("unknown kernel {name}"))?;
            Ok(build_kernel_dataset_cached(&kernel, &cfg, &cache))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let datasets_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let trained = PowerGear::fit(&datasets, &train_config());
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let registry = ModelRegistry::open(dir.join("registry")).map_err(|e| e.to_string())?;
    let path = registry.path_of(MODEL_NAME).map_err(|e| e.to_string())?;
    let probe: Vec<_> = datasets
        .iter()
        .flat_map(|d| d.samples.iter().take(PROBE_GRAPHS / SETUP_KERNELS.len()))
        .map(|s| s.graph.clone())
        .collect();
    let meta = ArtifactMeta::now(&SETUP_KERNELS.join(","), "total+dynamic");
    trained
        .save(&path, meta, &probe, PROBE_GRAPHS)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    let gear = PowerGear::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let artifact_s = t.elapsed().as_secs_f64();

    if gear.total_model != trained.total_model || gear.dynamic_model != trained.dynamic_model {
        return Err("the reloaded artifact differs from the trained model".into());
    }
    let times = SetupTimes {
        datasets_s,
        train_s,
        artifact_s,
    };
    let setup = Setup {
        datasets,
        gear,
        registry: registry.root().to_path_buf(),
    };
    Ok((setup, times))
}

/// Runs the set-up `reps` times (at least once), sampling the reference
/// speed before every repetition and after the last, and keeps the last
/// set-up. Returns it with each repetition's times and the samples.
///
/// # Errors
///
/// Any error of [`build`], or a message when two repetitions train
/// different models (the set-up must be deterministic).
pub fn build_repeated(
    seed: u64,
    dir: &Path,
    reps: usize,
    reference: &mut Reference,
) -> Result<(Setup, Vec<SetupTimes>, Vec<f64>), String> {
    let mut samples = vec![reference.sample()];
    let (mut setup, first) = build(seed, dir)?;
    let mut times = vec![first];
    for _ in 1..reps {
        samples.push(reference.sample());
        let (again, t) = build(seed, dir)?;
        if again.gear.total_model != setup.gear.total_model
            || again.gear.dynamic_model != setup.gear.dynamic_model
        {
            return Err("two set-ups from one seed trained different models".into());
        }
        setup = again;
        times.push(t);
    }
    samples.push(reference.sample());
    Ok((setup, times, samples))
}
