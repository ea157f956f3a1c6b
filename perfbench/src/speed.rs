//! Correction for the speed of a shared box.
//!
//! On a box shared with other tenants the same code runs up to a quarter
//! slower in one minute than in the next, so wall times taken in
//! different runs drift apart although the code did not change. A run
//! therefore samples a fixed reference workload between its timed passes
//! and scales each pass's wall time by how fast the reference ran just
//! before and after it: `wall × REFERENCE_S / mean(sample before, sample
//! after)`. The reference uses neither the program's code nor the
//! allocator after start-up, so a change to the program moves the scaled
//! time exactly as it moves the wall time.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// About the seconds one reference sample takes on the 2-core x86-64 box
/// the benchmark was sized on: corrected times are wall times at that
/// speed.
pub const REFERENCE_S: f64 = 0.12;

/// Entries of the lookup table the reference probes (about 1 MB): enough
/// to leave the core's private caches like the program's own data, few
/// enough that a sample does not depend on how the table's pages were
/// mapped.
const TABLE: u64 = 1 << 15;
/// Lookups per sample.
const LOOKUPS: usize = 600_000;
/// Side of the square matrices the reference multiplies.
const N: usize = 64;
/// Matrix products per sample.
const PRODUCTS: usize = 300;

/// The reference workload's data, built once so that sampling allocates
/// nothing.
pub struct Reference {
    table: BTreeMap<u64, u64>,
    a: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE)
            .map(|i| {
                x = xorshift(x);
                (x % (4 * TABLE), i)
            })
            .collect();
        Reference {
            table,
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect(),
            c: vec![0.0; N * N],
        }
    }

    /// Seconds the fixed workload (table lookups, then small dense matrix
    /// products) takes now.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut hits = 0u64;
        for _ in 0..LOOKUPS {
            x = xorshift(x);
            if let Some((_, v)) = self.table.range(x % (4 * TABLE)..).next() {
                hits = hits.wrapping_add(*v);
            }
        }
        let (a, c) = (&self.a, &mut self.c);
        c.fill(0.0);
        for _ in 0..PRODUCTS {
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += aik * a[k * N + j];
                    }
                }
            }
        }
        std::hint::black_box((hits, &self.c));
        t.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Median over passes of each pass's wall time scaled to the reference
/// speed measured around it: `samples[i]` was taken just before
/// `walls[i]` and `samples[i + 1]` just after.
///
/// # Panics
///
/// Panics unless there is exactly one more sample than passes.
pub fn corrected(walls: &[f64], samples: &[f64]) -> f64 {
    assert_eq!(
        samples.len(),
        walls.len() + 1,
        "one sample around each pass"
    );
    let scaled: Vec<f64> = walls
        .iter()
        .zip(samples.windows(2))
        .map(|(w, s)| w * REFERENCE_S / ((s[0] + s[1]) / 2.0))
        .collect();
    stats::median(&scaled)
}

/// Runs `pass` until `seconds` have passed and at least `min` times,
/// sampling the reference before every pass and after the last. `pass`
/// returns its own wall time. Returns the wall times and the samples.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    reference: &mut Reference,
    mut pass: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut walls, mut samples) = (Vec::new(), Vec::new());
    while walls.len() < min || start.elapsed().as_secs_f64() < seconds {
        samples.push(reference.sample());
        walls.push(pass());
    }
    samples.push(reference.sample());
    (walls, samples)
}
