//! Seeded request generation for the serving workload: which graphs each
//! Predict request carries, and when an open-loop client sends it.

use pg_util::Rng64;

/// Most graphs one request carries; sizes run `1..=MAX_GRAPHS`.
pub const MAX_GRAPHS: usize = 8;

/// One Predict request: a kernel of the graph pool and the pool indices
/// of the graphs it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Index into the pool's kernel list.
    pub kernel: usize,
    /// Pool indices (within that kernel) of the request's graphs.
    pub graphs: Vec<usize>,
}

/// `n` requests over a pool of `kernel_sizes[k]` graphs per kernel.
///
/// Request sizes are a seeded shuffle of the fixed multiset that holds
/// each size in `1..=MAX_GRAPHS` equally often, so the graph total of a
/// request set does not depend on the seed; kernels and graphs are drawn
/// uniformly.
///
/// # Panics
///
/// Panics if the pool is empty or a kernel has no graphs.
pub fn request_mix(seed: u64, n: usize, kernel_sizes: &[usize]) -> Vec<RequestSpec> {
    assert!(
        !kernel_sizes.is_empty() && kernel_sizes.iter().all(|&s| s > 0),
        "empty graph pool"
    );
    let mut rng = Rng64::new(seed ^ 0x5e7e_0001);
    let mut sizes: Vec<usize> = (0..n).map(|i| 1 + i % MAX_GRAPHS).collect();
    rng.shuffle(&mut sizes);
    sizes
        .into_iter()
        .map(|size| {
            let kernel = rng.below(kernel_sizes.len());
            let graphs = (0..size).map(|_| rng.below(kernel_sizes[kernel])).collect();
            RequestSpec { kernel, graphs }
        })
        .collect()
}

/// Send times (seconds after the start) of `n` requests arriving as a
/// Poisson process at `rate` requests per second.
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = Rng64::new(seed ^ 0x5e7e_0002);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 - U lies in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.f64()).ln() / rate;
            t
        })
        .collect()
}
