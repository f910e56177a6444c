//! Deterministic scoped worker pool for data-parallel tensor work.
//!
//! Every parallel loop in the crate partitions its work into a *fixed*
//! number of groups that depends only on the problem size (never on the
//! machine's core count), then lets up to [`max_threads`] workers drain
//! those groups from a shared queue. Because each group's result is
//! written to its own pre-assigned slot and any cross-group reduction
//! happens on the calling thread in group order, results are bitwise
//! identical whatever the thread count — including fully serial runs.
//!
//! The thread budget lives on the [`crate::runtime::Runtime`] current
//! at the call site ([`set_max_threads`] is the default-runtime shim),
//! so two runtimes can run different budgets concurrently in one
//! process. Worker threads spawned here **inherit the spawner's
//! runtime**: everything a worker allocates, profiles or dispatches
//! stays charged to the runtime that launched the loop.
//!
//! Nested parallelism is suppressed: a `run_*` call made from inside a
//! worker runs inline on that worker. The partitioning is unchanged, so
//! numerics are unchanged; only the thread fan-out is.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::runtime;

/// Upper bound on the number of work groups any loop is split into.
///
/// The group count is part of the numeric contract (reductions happen
/// per group), so it must not track `available_parallelism`; eight
/// groups saturate the thread budgets we target while keeping the
/// per-group reduction cheap.
pub const MAX_GROUPS: usize = 8;

/// The host's logical CPU count (floor of 1).
pub fn host_logical_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Sets the worker-thread budget of the **current runtime** (the
/// process-wide default runtime outside any
/// [`crate::runtime::Runtime::enter`] scope, which preserves the old
/// global behavior for single-job binaries).
///
/// `0` restores the default (the host's available parallelism). `1`
/// forces fully serial execution. The setting applies to conv/pool/warp
/// kernels as well as the attack-loop frame fan-out run under that
/// runtime.
///
/// Requests above [`host_logical_cpus`] are stored as-is (see
/// [`crate::Runtime::threads_requested`]) but [`max_threads`] clamps the
/// effective budget to the host: oversubscribing a smaller machine only adds
/// scheduler thrash — the partitioning (and therefore the numerics) is
/// group-based and unaffected either way.
pub fn set_max_threads(n: usize) {
    runtime::current().set_threads(n);
}

/// Returns the current *effective* worker-thread budget: the current
/// runtime's requested budget clamped to [`host_logical_cpus`], with
/// "auto" (0) resolving to the host's available parallelism and a floor
/// of 1.
pub fn max_threads() -> usize {
    let host = host_logical_cpus();
    let n = runtime::current().threads_requested();
    if n == 0 {
        host
    } else {
        n.min(host).max(1)
    }
}

/// Number of work groups for a loop over `items` independent items:
/// `items` clamped to `1..=MAX_GROUPS`. Depends only on the problem
/// size, so the induced reduction order is machine-independent.
pub fn groups_for(items: usize) -> usize {
    items.clamp(1, MAX_GROUPS)
}

/// Number of worker threads to actually spawn for `groups` groups:
/// never more threads than groups (spawning more would only waste
/// scope/spawn overhead on small batches).
pub fn workers_for(groups: usize) -> usize {
    max_threads().clamp(1, groups.max(1))
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside one of this module's worker threads.
/// Nested parallel loops consult this and run inline instead of
/// spawning a second tier of threads.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Runs `f(0..n)` across the worker pool and returns the results in
/// index order.
///
/// Work items are drained from an atomic queue, but each result lands
/// in its own slot, so the returned `Vec` is identical to the serial
/// `(0..n).map(f).collect()` whatever the thread count. Runs inline
/// when the budget is 1, `n <= 1`, or we are already inside a worker.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = if in_worker() { 1 } else { workers_for(n) };
    if workers <= 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    // Workers run under the spawner's runtime: arena takes/recycles,
    // profiler samples and nested budget reads all resolve to it.
    let rt = runtime::current();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                rt.enter(|| {
                    IN_WORKER.with(|fl| fl.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let v = f(i);
                        *slots[i].lock().expect("parallel slot poisoned") = Some(v);
                    }
                    IN_WORKER.with(|fl| fl.set(false));
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("parallel slot poisoned")
                .expect("parallel slot left unfilled")
        })
        .collect()
}

/// Splits `data` into chunks of `chunk` elements and runs
/// `f(group_index, chunk)` on each across the worker pool.
///
/// The chunks are disjoint, so each group owns its output slice
/// exclusively; no reduction is needed and determinism is structural.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let slots: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let n = slots.len();
    run_indexed(n, |i| {
        let c = slots[i]
            .lock()
            .expect("chunk slot poisoned")
            .take()
            .expect("chunk taken twice");
        f(i, c);
    });
}

/// Like [`for_each_chunk_mut`] but over two parallel arrays chunked in
/// lockstep (`a` by `chunk_a`, `b` by `chunk_b`); both must split into
/// the same number of chunks. Used where a kernel writes an output
/// plane and a side-band (e.g. max-pool values + argmax indices).
pub fn for_each_chunk2_mut<A, B, F>(a: &mut [A], b: &mut [B], chunk_a: usize, chunk_b: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "chunk sizes must be positive");
    let sa: Vec<Mutex<Option<&mut [A]>>> =
        a.chunks_mut(chunk_a).map(|c| Mutex::new(Some(c))).collect();
    let sb: Vec<Mutex<Option<&mut [B]>>> =
        b.chunks_mut(chunk_b).map(|c| Mutex::new(Some(c))).collect();
    assert_eq!(
        sa.len(),
        sb.len(),
        "parallel arrays must split into the same number of chunks"
    );
    run_indexed(sa.len(), |i| {
        let ca = sa[i]
            .lock()
            .expect("chunk slot poisoned")
            .take()
            .expect("chunk taken twice");
        let cb = sb[i]
            .lock()
            .expect("chunk slot poisoned")
            .take()
            .expect("chunk taken twice");
        f(i, ca, cb);
    });
}

#[cfg(test)]
mod tests {
    // Every test that tunes the thread budget enters its own Runtime,
    // so concurrent `cargo test` threads can no longer race on a shared
    // MAX_THREADS global (the pre-Runtime failure mode).
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        Runtime::new(RuntimeConfig {
            threads: n,
            ..RuntimeConfig::default()
        })
        .enter(f)
    }

    #[test]
    fn groups_are_machine_independent() {
        assert_eq!(groups_for(0), 1);
        assert_eq!(groups_for(1), 1);
        assert_eq!(groups_for(5), 5);
        assert_eq!(groups_for(100), MAX_GROUPS);
    }

    #[test]
    fn workers_never_exceed_groups_or_host() {
        let host = host_logical_cpus();
        with_threads(16, || {
            assert_eq!(runtime::current().threads_requested(), 16);
            assert_eq!(max_threads(), 16.min(host));
            assert_eq!(workers_for(3), 16.min(host).min(3));
            assert_eq!(workers_for(0), 1);
        });
        with_threads(2, || assert_eq!(workers_for(8), 2.min(host)));
        with_threads(0, || {
            assert_eq!(runtime::current().threads_requested(), 0);
            assert_eq!(max_threads(), host);
        });
    }

    #[test]
    fn run_indexed_matches_serial_order() {
        let par = with_threads(4, || run_indexed(37, |i| i * i));
        let ser = with_threads(1, || run_indexed(37, |i| i * i));
        assert_eq!(par, ser);
    }

    #[test]
    fn chunked_writes_cover_all_elements() {
        with_threads(4, || {
            let mut v = vec![0usize; 103];
            for_each_chunk_mut(&mut v, 10, |g, c| {
                for (j, x) in c.iter_mut().enumerate() {
                    *x = g * 10 + j;
                }
            });
            assert!(v.iter().enumerate().all(|(i, &x)| x == i));
        });
    }

    #[test]
    fn nested_calls_run_inline() {
        with_threads(4, || {
            // With the host clamp, a 1-CPU machine legitimately runs the
            // outer loop inline on the calling thread.
            let spawns = workers_for(4) > 1;
            let out = run_indexed(4, |i| {
                assert_eq!(in_worker(), spawns);
                let inner = run_indexed(3, move |j| i * 10 + j);
                inner.iter().sum::<usize>()
            });
            assert_eq!(out, vec![3, 33, 63, 93]);
        });
    }

    #[test]
    fn workers_inherit_the_spawning_runtime() {
        let rt = Runtime::new(RuntimeConfig {
            threads: 4,
            ..RuntimeConfig::default()
        });
        let ids = rt
            .clone()
            .enter(|| run_indexed(8, |_| runtime::current().id()));
        assert!(ids.iter().all(|&id| id == rt.id()));
    }

    /// The satellite regression for the old `set_max_threads` test
    /// race: two runtimes with different thread budgets coexist on
    /// concurrent threads, neither sees the other's budget, and the
    /// parallel results are bitwise-deterministic either way.
    #[test]
    fn two_runtimes_with_different_budgets_coexist() {
        let work = |seed: usize| run_indexed(23, move |i| ((seed * 31 + i) as f32).sin().to_bits());
        let expected = with_threads(1, || (work(1), work(2)));
        let a = Runtime::new(RuntimeConfig {
            threads: 1,
            ..RuntimeConfig::default()
        });
        let b = Runtime::new(RuntimeConfig {
            threads: 4,
            ..RuntimeConfig::default()
        });
        std::thread::scope(|s| {
            let ja = s.spawn(|| {
                a.enter(|| {
                    assert_eq!(runtime::current().threads_requested(), 1);
                    work(1)
                })
            });
            let jb = s.spawn(|| {
                b.enter(|| {
                    assert_eq!(runtime::current().threads_requested(), 4);
                    work(2)
                })
            });
            let ra = ja.join().expect("runtime A thread");
            let rb = jb.join().expect("runtime B thread");
            assert_eq!(ra, expected.0, "serial runtime diverged");
            assert_eq!(rb, expected.1, "parallel runtime diverged");
        });
    }
}
