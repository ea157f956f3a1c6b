//! Ordered work-stealing map: the one parallel loop behind the cold path
//! (HLS cache population, dataset sample assembly and DSE graph building).
//!
//! Workers pull indices off a shared atomic cursor, so a slow item never
//! holds back a whole static chunk — design points vary in cost by more
//! than an order of magnitude. Each worker owns one state value (a trace
//! scratch buffer, say) for every item it steals. Results are placed by
//! input index, never by completion order, so the output is a pure
//! function of the input at any thread count whenever `f` is.
//!
//! # Examples
//!
//! ```
//! use pg_util::par;
//! let squares = par::map_ordered(&[1u32, 2, 3, 4, 5], 3, || (), |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on up to `threads` work-stealing workers and
/// returns the results in input order.
///
/// Every worker calls `init` once for its own state value and passes it to
/// `f` for each item it steals. With one thread (or zero), or fewer than
/// two items, everything runs inline on the caller's thread and nothing is
/// spawned.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` after every worker has stopped.
pub fn map_ordered<T, S, R>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    match try_map_ordered(items, threads, init, |s, x| {
        Ok::<R, std::convert::Infallible>(f(s, x))
    }) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// [`map_ordered`] for a fallible `f`: the first error in input order, or
/// every result in input order.
///
/// After any item fails, workers claim no further items. Every index below
/// a failed one was claimed before it (the cursor only moves forward), so
/// those items still run to completion and the error returned is always
/// the lowest-indexed one — the same error a sequential loop stops at.
///
/// # Errors
///
/// The error of the lowest-indexed failing item.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` after every worker has stopped.
pub fn try_map_ordered<T, S, R, E>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
{
    // Results are pushed into exactly-sized vectors: collecting an
    // iterator of `Result`s loses the length hint and over-allocates.
    let mut out = Vec::with_capacity(items.len());
    let workers = threads.min(items.len());
    if workers <= 1 {
        let mut state = init();
        for x in items {
            out.push(f(&mut state, x)?);
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    // Only a stop hint: the results travel through the mutex below.
    let failed = AtomicBool::new(false);
    let done: Mutex<Vec<(usize, Result<R, E>)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                let mut local = Vec::new();
                while !failed.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(x) = items.get(i) else { break };
                    let r = f(&mut state, x);
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    local.push((i, r));
                }
                done.lock()
                    .expect("a worker panicked while holding the result lock")
                    .extend(local);
            });
        }
    });
    let mut done = done
        .into_inner()
        .expect("a worker panicked while holding the result lock");
    done.sort_unstable_by_key(|(i, _)| *i);
    // Indices are unique and, up to the first failure, contiguous from 0.
    for (_, r) in done {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let reference: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [0, 1, 2, 3, 4, 8] {
            let out = map_ordered(&items, threads, || (), |_, x| x * 3 + 1);
            assert_eq!(out, reference, "order broke at {threads} threads");
        }
    }

    #[test]
    fn state_is_per_worker() {
        // Each state records the id of the worker that created it; a
        // worker's items must all see its own state, and no more states
        // exist than workers.
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4] {
            inits.store(0, Ordering::Relaxed);
            let out = map_ordered(
                &items,
                threads,
                || (inits.fetch_add(1, Ordering::Relaxed), 0usize),
                |(id, seen), _| {
                    *seen += 1;
                    (*id, *seen)
                },
            );
            let states = inits.load(Ordering::Relaxed);
            assert!(states >= 1 && states <= threads, "{states} states");
            // per state, the running count goes 1, 2, 3, ... in input
            // order: no other worker touched it
            for id in 0..states {
                let seen: Vec<usize> = out
                    .iter()
                    .filter(|(w, _)| *w == id)
                    .map(|(_, s)| *s)
                    .collect();
                assert_eq!(seen, (1..=seen.len()).collect::<Vec<_>>());
            }
            assert_eq!(out.len(), items.len());
        }
    }

    #[test]
    fn empty_single_and_short_inputs() {
        let none: [u8; 0] = [];
        assert!(map_ordered(&none, 4, || (), |_, x| *x).is_empty());
        assert_eq!(map_ordered(&[7u8], 4, || (), |_, x| *x + 1), vec![8]);
        // fewer items than threads
        assert_eq!(
            map_ordered(&[1u8, 2, 3], 8, || (), |_, x| *x * 2),
            vec![2, 4, 6]
        );
        // inline paths never spawn: the state is the caller's thread
        let caller = std::thread::current().id();
        let ids = map_ordered(&[0u8, 1], 1, || (), |_, _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        let ids = map_ordered(&[0u8], 4, || (), |_, _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn first_error_in_input_order_wins() {
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 4] {
            let out = try_map_ordered(
                &items,
                threads,
                || (),
                |_, &x| {
                    if x == 37 || x == 150 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            );
            assert_eq!(out, Err(37), "wrong error at {threads} threads");
        }
        let ok = try_map_ordered(&items, 4, || (), |_, &x| Ok::<_, ()>(x));
        assert_eq!(ok, Ok(items.clone()));
    }
}
