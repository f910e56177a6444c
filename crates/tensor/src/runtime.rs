//! Instance-scoped execution runtime: worker-pool budget, scratch
//! arena, profiler registry, execution tier and cancellation state
//! bundled into one caller-owned handle.
//!
//! Before this module existed, [`crate::parallel`], [`crate::arena`],
//! [`crate::profile`] and [`crate::tier`] were process-global
//! singletons: one process could run exactly one training/eval job, and
//! any job's panic poisoned the arena free list (and its tier or
//! `set_max_threads` calls leaked into every other caller) for the
//! whole process. A [`Runtime`] owns all four pieces of state, so
//! independent jobs in one process are fully isolated: each gets its
//! own thread budget, its own buffer pool, its own profiler and its own
//! tier, and a panicked job's runtime can be quarantined and discarded
//! without touching anyone else's.
//!
//! # Ownership model
//!
//! * A [`Runtime`] is a cheap cloneable handle (`Arc` inside). The
//!   *caller* owns it and threads it into trainers (their
//!   `with_runtime` builders) and the supervisor in `road_decals`, or
//!   enters it around plain calls.
//! * [`Runtime::enter`] installs the handle as the calling thread's
//!   *current* runtime for the duration of a closure (re-entrant, and
//!   restored on unwind). Kernels and the arena always consult the
//!   current runtime, so everything executed inside `enter` — including
//!   worker threads spawned by [`crate::parallel`], which inherit the
//!   spawner's runtime — charges its buffers, samples and thread budget
//!   to that runtime.
//! * Buffers taken from a runtime's arena are recycled back to the
//!   runtime that is current at drop time. State that holds buffers
//!   across calls ([`crate::TrainStep`], between its forward and
//!   backward) binds its runtime at construction and re-enters it on
//!   drop, so capacity never migrates to (or leaks poison into) an
//!   unrelated runtime. [`crate::InferPlan::execute`] takes and
//!   recycles its buffers within one call, under one runtime.
//!
//! # The default-runtime shim
//!
//! The pre-existing free-function API (`parallel::set_max_threads`,
//! `arena::take`, `profile::set_enabled`, `tier::current`, …) still
//! works: each function delegates to the current runtime, and when no
//! runtime has been entered, to a lazily-created process-wide *default
//! runtime*. Single-job binaries and tests therefore behave exactly as
//! before. This module is the **only** place in `rd-tensor` allowed to
//! hold `static` mutable state (the default-runtime cell and the
//! thread-local current pointer) — ci.sh greps for strays.
//!
//! # Quarantine rules
//!
//! A supervisor that catches a job's panic calls [`Runtime::quarantine`]
//! on the job's runtime before discarding it. A quarantined runtime's
//! arena stops pooling entirely: `take` always allocates fresh and
//! `recycle` drops, so a buffer that was in flight when the job died can
//! never be handed out again. Lock poisoning is also contained
//! per-runtime: if a panicking thread poisons one runtime's arena or
//! profiler `Mutex`, the next accessor clears the poison and discards
//! that runtime's pooled state ([`Runtime::arena_poison_discards`]
//! counts these) — other runtimes, holding their own locks, are
//! untouched.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::arena::ArenaState;
use crate::profile::ProfilerState;
use crate::tier::Tier;

/// Construction-time knobs for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker-thread budget: 0 = auto (host parallelism), 1 = serial.
    pub threads: usize,
    /// Execution tier for compiled plans run under this runtime.
    pub tier: Tier,
    /// Whether the per-op profiler starts enabled.
    pub profiling: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            threads: 0,
            tier: Tier::Reference,
            profiling: false,
        }
    }
}

/// Why a cooperative cancellation check tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cancelled {
    /// [`Runtime::cancel`] was called.
    Requested,
    /// The runtime's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cancelled::Requested => write!(f, "cancelled"),
            Cancelled::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// Unwind payload used by [`check_cancelled_or_unwind`]. Supervisors
/// downcast panics to this type to tell a cooperative cancellation
/// unwind apart from a genuine crash.
#[derive(Debug, Clone, Copy)]
pub struct CancelUnwind(pub Cancelled);

pub(crate) struct RuntimeInner {
    id: u64,
    /// Requested worker budget (0 = auto); effective budget is clamped
    /// to the host in [`crate::parallel::max_threads`].
    threads: AtomicUsize,
    /// 0 = Reference, 1 = Fast.
    tier: AtomicU8,
    quarantined: AtomicBool,
    cancelled: AtomicBool,
    /// Cooperative deadline; `None` means no deadline.
    deadline: Mutex<Option<Instant>>,
    pub(crate) arena: ArenaState,
    pub(crate) profiler: ProfilerState,
}

/// A caller-owned execution context: worker-pool budget, scratch arena,
/// profiler, tier and cancellation state. Cloning is cheap and shares
/// the same underlying state.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

// ---------------------------------------------------------------------
// The default-runtime shim: the only process-global mutable state in
// rd-tensor. `DEFAULT` backs the pre-Runtime free-function API;
// `CURRENT` is the per-thread stack of entered runtimes.
static DEFAULT: OnceLock<Runtime> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: RefCell<Vec<Runtime>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's current runtime: the innermost [`Runtime::enter`]
/// scope, or the process-wide default runtime outside any scope.
pub fn current() -> Runtime {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(default_runtime)
}

/// The process-wide default runtime backing the free-function API for
/// callers that never construct their own [`Runtime`].
pub fn default_runtime() -> Runtime {
    DEFAULT
        .get_or_init(|| Runtime::new(RuntimeConfig::default()))
        .clone()
}

/// Checks the current runtime's cancellation state.
///
/// # Errors
///
/// Returns the [`Cancelled`] reason when the current runtime has been
/// cancelled or its deadline has passed.
pub fn check_cancelled() -> Result<(), Cancelled> {
    match current().cancel_state() {
        Some(c) => Err(c),
        None => Ok(()),
    }
}

/// Cooperative cancellation point for deep call stacks whose signatures
/// cannot return a `Result` (per-frame eval loops). Panics with a
/// [`CancelUnwind`] payload when the current runtime is cancelled; a
/// supervising `catch_unwind` downcasts it and reports a deadline, not
/// a crash. Outside a supervisor this aborts the run loudly, which is
/// the right behavior for an expired unsupervised deadline.
pub fn check_cancelled_or_unwind() {
    if let Some(c) = current().cancel_state() {
        std::panic::panic_any(CancelUnwind(c));
    }
}

/// RAII guard that pops the entered runtime on drop (including unwind).
struct EnterGuard;

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

impl Runtime {
    /// Creates a fresh, fully isolated runtime.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Runtime {
            inner: Arc::new(RuntimeInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                threads: AtomicUsize::new(cfg.threads),
                tier: AtomicU8::new(matches!(cfg.tier, Tier::Fast) as u8),
                quarantined: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
                deadline: Mutex::new(None),
                arena: ArenaState::new(),
                profiler: ProfilerState::new(cfg.profiling),
            }),
        }
    }

    /// A unique id for logs and reports.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Crate-internal access to this runtime's arena state.
    pub(crate) fn inner_arena<R>(&self, f: impl FnOnce(&ArenaState) -> R) -> R {
        f(&self.inner.arena)
    }

    /// Crate-internal access to this runtime's profiler state.
    pub(crate) fn inner_profiler<R>(&self, f: impl FnOnce(&ProfilerState) -> R) -> R {
        f(&self.inner.profiler)
    }

    /// True when `other` is a handle to the same underlying runtime.
    pub fn same_as(&self, other: &Runtime) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Runs `f` with this runtime installed as the calling thread's
    /// current runtime. Re-entrant; restored on unwind.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        let _guard = EnterGuard;
        f()
    }

    // ------------------------------------------------------- thread pool

    /// Sets the requested worker-thread budget (0 = auto, 1 = serial).
    pub fn set_threads(&self, n: usize) {
        self.inner.threads.store(n, Ordering::SeqCst);
    }

    /// The requested worker-thread budget, before the host clamp.
    pub fn threads_requested(&self) -> usize {
        self.inner.threads.load(Ordering::SeqCst)
    }

    // -------------------------------------------------------------- tier

    /// Selects the execution tier for compiled runs under this runtime.
    pub fn set_tier(&self, t: Tier) {
        self.inner
            .tier
            .store(matches!(t, Tier::Fast) as u8, Ordering::SeqCst);
    }

    /// The runtime's execution tier.
    pub fn tier(&self) -> Tier {
        if self.inner.tier.load(Ordering::SeqCst) == 0 {
            Tier::Reference
        } else {
            Tier::Fast
        }
    }

    // -------------------------------------------------------- quarantine

    /// Marks the runtime as quarantined: its arena stops handing out or
    /// accepting pooled buffers, so state touched by a panicked job can
    /// never be reused. Quarantine is one-way.
    pub fn quarantine(&self) {
        self.inner.quarantined.store(true, Ordering::SeqCst);
        self.inner.arena.set_quarantined();
    }

    /// Whether [`Runtime::quarantine`] has been called.
    pub fn is_quarantined(&self) -> bool {
        self.inner.quarantined.load(Ordering::SeqCst)
    }

    /// How many times this runtime's arena recovered from a poisoned
    /// lock by discarding its pooled buffers (see module docs).
    pub fn arena_poison_discards(&self) -> usize {
        self.inner.arena.poison_discards()
    }

    /// This runtime's arena high-water mark: the most `f32` elements
    /// ever simultaneously checked out of its arena (see
    /// [`crate::arena::high_water`]).
    pub fn arena_high_water(&self) -> usize {
        self.inner.arena.high_water()
    }

    // ------------------------------------------------------ cancellation

    /// Requests cooperative cancellation: every subsequent
    /// [`check_cancelled`] under this runtime fails.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Arms (or clears) a cooperative deadline `d` from now.
    pub fn set_deadline(&self, d: Option<Duration>) {
        let mut g = self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *g = d.map(|d| Instant::now() + d);
    }

    /// Why this runtime's cancellation checks trip, if they do.
    pub fn cancel_state(&self) -> Option<Cancelled> {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return Some(Cancelled::Requested);
        }
        let g = self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match *g {
            Some(at) if Instant::now() >= at => Some(Cancelled::DeadlineExceeded),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("id", &self.id())
            .field("threads_requested", &self.threads_requested())
            .field("tier", &self.tier().label())
            .field("quarantined", &self.is_quarantined())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_scopes_nest_and_restore() {
        let a = Runtime::new(RuntimeConfig::default());
        let b = Runtime::new(RuntimeConfig {
            tier: Tier::Fast,
            ..RuntimeConfig::default()
        });
        a.enter(|| {
            assert!(current().same_as(&a));
            b.enter(|| {
                assert!(current().same_as(&b));
                assert_eq!(current().tier(), Tier::Fast);
            });
            assert!(current().same_as(&a));
        });
        assert!(current().same_as(&default_runtime()));
    }

    #[test]
    fn enter_restores_current_on_unwind() {
        let a = Runtime::new(RuntimeConfig::default());
        let res = std::panic::catch_unwind(|| {
            a.enter(|| panic!("boom"));
        });
        assert!(res.is_err());
        assert!(current().same_as(&default_runtime()));
    }

    #[test]
    fn cancellation_and_deadline_trip_checks() {
        let rt = Runtime::new(RuntimeConfig::default());
        rt.enter(|| {
            assert!(check_cancelled().is_ok());
        });
        rt.set_deadline(Some(Duration::from_secs(0)));
        rt.enter(|| {
            assert_eq!(check_cancelled(), Err(Cancelled::DeadlineExceeded));
        });
        rt.set_deadline(None);
        rt.cancel();
        rt.enter(|| {
            assert_eq!(check_cancelled(), Err(Cancelled::Requested));
        });
        // the default runtime is unaffected
        assert!(check_cancelled().is_ok());
    }

    #[test]
    fn cancel_unwind_carries_the_reason() {
        let rt = Runtime::new(RuntimeConfig::default());
        rt.cancel();
        let err = std::panic::catch_unwind(|| rt.enter(check_cancelled_or_unwind))
            .expect_err("must unwind");
        let cu = err
            .downcast_ref::<CancelUnwind>()
            .expect("payload is CancelUnwind");
        assert_eq!(cu.0, Cancelled::Requested);
    }

    #[test]
    fn runtimes_have_distinct_ids_and_identity() {
        let a = Runtime::new(RuntimeConfig::default());
        let b = Runtime::new(RuntimeConfig::default());
        assert_ne!(a.id(), b.id());
        assert!(!a.same_as(&b));
        assert!(a.same_as(&a.clone()));
    }
}
