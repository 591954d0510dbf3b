//! The one morsel loop.
//!
//! Corra blocks are self-contained by construction (every horizontal codec
//! references columns of the *same* block), so block-granular morsels are
//! the only parallelism the engine needs. Every multi-block driver —
//! compression, scans, aggregates, TOP-K, join probes, the serve front
//! door — is a `map` over morsel indices plus an in-order `merge`, and
//! [`run`] is the only place that shape meets a thread.

use std::sync::atomic::{AtomicUsize, Ordering};

use corra_columnar::error::{Error, Result};

/// Runs `map(i)` for every `i in 0..n` and hands each result to
/// `merge(i, _)` **in index order**, so the merged outcome is the same for
/// any `threads`.
///
/// With `threads <= 1` or `n <= 1` this is a plain loop on the calling
/// thread: each result is merged before the next morsel is mapped (nothing
/// is buffered) and the first `Err` — from `map` or `merge` — returns
/// immediately, leaving later morsels unvisited.
///
/// Otherwise `threads.min(n)` scoped workers pull indices off one shared
/// counter. Every morsel is mapped (an `Err` does not stop the others, so
/// the work done is independent of worker interleaving), results merge in
/// index order once all workers have joined, and the first `Err` by index
/// wins — the error a serial run would have returned.
///
/// # Errors
///
/// The first `Err` by index; a panicking `map` surfaces as
/// [`Error::InvalidData`] rather than unwinding into the caller.
pub(crate) fn run<T, M, F>(n: usize, threads: usize, map: M, mut merge: F) -> Result<()>
where
    T: Send,
    M: Fn(usize) -> Result<T> + Sync,
    F: FnMut(usize, T) -> Result<()>,
{
    if is_serial(n, threads) {
        for i in 0..n {
            merge(i, map(i)?)?;
        }
        return Ok(());
    }
    // Relaxed: the counter only hands out indices; results travel back
    // through the join, which is the synchronization point.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, map(i)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(n)).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // No worker panicked past this loop, so the counter handed every index
    // out exactly once and `done` holds all `n` results.
    let mut done = Vec::with_capacity(n);
    for worker in joined {
        done.extend(worker.map_err(|_| Error::invalid("morsel worker panicked"))?);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    for (i, out) in done {
        merge(i, out?)?;
    }
    Ok(())
}

/// Whether [`run`] stays on the calling thread for `n` morsels: a `map`
/// that shares state between morsels may skip its locking discipline.
pub(crate) fn is_serial(n: usize, threads: usize) -> bool {
    threads.min(n) <= 1
}

/// [`run`] whose merge is "push": the `map` outputs, in index order.
pub(crate) fn collect<T: Send>(
    n: usize,
    threads: usize,
    map: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(n);
    run(n, threads, map, |_, v| {
        out.push(v);
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn zero_and_one_morsel_never_spawn() {
        let caller = std::thread::current().id();
        for threads in [0, 1, 8] {
            assert_eq!(collect(0, threads, Ok).unwrap(), Vec::<usize>::new());
            let ran_on = collect(1, threads, |_| Ok(std::thread::current().id())).unwrap();
            assert_eq!(ran_on, vec![caller], "threads {threads}");
        }
    }

    #[test]
    fn more_threads_than_morsels_visits_each_once() {
        assert_eq!(collect(3, 64, |i| Ok(i * 10)).unwrap(), vec![0, 10, 20]);
    }

    #[test]
    fn merge_order_is_index_order_under_skewed_task_times() {
        // Morsel 0 cannot finish until every other morsel has: completion
        // order is forced to differ from index order, merge order must not.
        let n = 6;
        let others_done = Barrier::new(2);
        let remaining = AtomicUsize::new(n - 1);
        let got = collect(n, 2, |i| {
            if i == 0 || remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                others_done.wait();
            }
            Ok(i)
        })
        .unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn workers_really_run_concurrently() {
        // Four morsels meet at a four-way barrier: that only returns if
        // four distinct threads are inside `map` at the same time.
        let threads = 4;
        let barrier = Barrier::new(threads);
        let ids = Mutex::new(HashSet::new());
        collect(threads, threads, |_| {
            barrier.wait();
            ids.lock().unwrap().insert(std::thread::current().id());
            Ok(())
        })
        .unwrap();
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), threads);
        assert!(!ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn first_error_by_index_wins_and_stops_a_serial_run() {
        for threads in [1, 2, 4, 16] {
            let mapped = AtomicUsize::new(0);
            let mut merged = Vec::new();
            let err = run(
                8,
                threads,
                |i| {
                    mapped.fetch_add(1, Ordering::SeqCst);
                    if i == 2 || i == 5 || i == 7 {
                        return Err(Error::invalid(format!("morsel {i}")));
                    }
                    Ok(i)
                },
                |i, _| {
                    merged.push(i);
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("morsel 2"), "{threads}: {err}");
            assert_eq!(merged, vec![0, 1], "threads {threads}");
            // Serial: morsels 3.. are never mapped. Parallel: all are, so
            // the work done does not depend on which worker failed first.
            let want = if threads == 1 { 3 } else { 8 };
            assert_eq!(mapped.load(Ordering::SeqCst), want, "threads {threads}");
        }
    }

    #[test]
    fn merge_errors_propagate() {
        for threads in [1, 3] {
            let err = run(4, threads, Ok, |i, _| {
                if i == 1 {
                    Err(Error::invalid("merge 1"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("merge 1"));
        }
    }

    #[test]
    fn a_panicking_morsel_is_an_error_not_a_panic() {
        let res = run(
            8,
            3,
            |i| {
                if i == 4 {
                    panic!("boom");
                }
                Ok(i)
            },
            |_, _| Ok(()),
        );
        let err = res.unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
    }
}
