//! Parallel execution façade for the fedsched workspace.
//!
//! The experiments harness fans its seeded trials out through this crate
//! instead of touching the vendored `worksteal` pool directly; FEDCONS and
//! `MINPROCS` themselves run on the calling thread. The façade buys three
//! things:
//!
//! * **One global pool.** [`global`] builds the pool lazily on first use,
//!   sized from (in priority order) [`configure_threads`] —
//!   `run_experiments --threads` — the `FEDSCHED_THREADS` environment
//!   variable, and finally [`std::thread::available_parallelism`].
//! * **A sequential escape hatch.** A pool of width 1 spawns no threads and
//!   runs every work item inline, in submission order, on the calling
//!   thread. `FEDSCHED_THREADS=1` (or `--threads 1`) therefore reproduces
//!   the fully sequential execution exactly.
//! * **A determinism contract.** [`par_map`] preserves input order: the
//!   result vector is indexed exactly like the input slice regardless of
//!   which thread computed which element, and callers reduce over it in
//!   input order, so every experiment table is byte-identical at any pool
//!   width (see `docs/PERFORMANCE.md`).
//!
//! Tests that need a specific width without disturbing the process-global
//! pool use [`Pool::new`] + [`Pool::install`], which scopes the pool to a
//! closure (and to every work item transitively spawned from it).

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

use worksteal::ThreadPool;

/// A handle to a work-stealing pool of fixed width. Cheap to clone.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<ThreadPool>,
}

impl Pool {
    /// Builds a pool of the given width (clamped to at least 1). Width 1
    /// spawns no threads: everything submitted runs inline.
    #[must_use]
    pub fn new(width: usize) -> Pool {
        Pool {
            inner: Arc::new(ThreadPool::new(width)),
        }
    }

    /// The concurrency width of this pool (≥ 1).
    #[must_use]
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// Runs `f` with this pool installed as the current pool of the calling
    /// thread: every [`par_map`] reached from inside `f` — including from
    /// work items this pool executes on its workers — uses this pool
    /// instead of the global one. The previous installation is restored on
    /// return.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let previous = CURRENT.with(|c| c.replace(Some(self.clone())));
        let guard = RestoreCurrent { previous };
        let result = f();
        drop(guard);
        result
    }

    /// Applies `f` to every element of `items` — in parallel when both the
    /// pool and the input are wider than one — and returns the results *in
    /// input order*.
    ///
    /// # Panics
    ///
    /// If `f` panics on any element, the (first) panic is re-raised here
    /// after all work items have been joined.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.width() <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let f = &f;
        self.inner.scope(|scope| {
            for (slot, item) in slots.iter().zip(items) {
                let pool = self.clone();
                scope.spawn(move || {
                    // Re-install this pool on the worker so nested fan-outs
                    // stay on the pool the caller chose.
                    let value = pool.install(|| f(item));
                    *slot.lock().unwrap() = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("scope joined every work item")
            })
            .collect()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Pool>> = const { RefCell::new(None) };
}

struct RestoreCurrent {
    previous: Option<Pool>,
}

impl Drop for RestoreCurrent {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();
static REQUESTED: Mutex<Option<usize>> = Mutex::new(None);

/// Requests a width for the global pool. Effective only before the pool is
/// first used (`run_experiments` calls this while parsing `--threads`,
/// before any trial runs); returns `false` if the pool already exists, in
/// which case the request is ignored.
pub fn configure_threads(width: usize) -> bool {
    *REQUESTED.lock().unwrap() = Some(width.max(1));
    GLOBAL.get().is_none()
}

/// The process-global pool, built on first use. Width resolution order:
/// [`configure_threads`], then `FEDSCHED_THREADS` (values ≥ 1; `0`,
/// unparsable, or unset mean "auto"), then the machine's available
/// parallelism.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(resolve_width()))
}

fn resolve_width() -> usize {
    if let Some(width) = *REQUESTED.lock().unwrap() {
        return width;
    }
    if let Some(width) = env_threads() {
        return width;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    let raw = std::env::var("FEDSCHED_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(width) if width >= 1 => Some(width),
        _ => None, // 0 or garbage: fall through to auto
    }
}

/// The pool [`par_map`] would use right now: the innermost
/// [`Pool::install`] on this thread, or the global pool.
#[must_use]
pub fn current() -> Pool {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| global().clone())
}

/// The width of the [`current`] pool, without building the global pool:
/// the innermost [`Pool::install`] on this thread, else the global pool
/// if it is built, else the width it would be built with.
#[must_use]
pub fn width() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(Pool::width))
        .or_else(|| GLOBAL.get().map(Pool::width))
        .unwrap_or_else(resolve_width)
}

/// [`Pool::par_map`] on the [`current`] pool: applies `f` to every element
/// and returns the results in input order.
///
/// # Panics
///
/// Re-raises the first panic of `f`, after joining all work items.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    current().par_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for width in [1, 2, 8] {
            let pool = Pool::new(width);
            let items: Vec<u64> = (0..200).collect();
            let out = pool.par_map(&items, |&x| x * x);
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "width {width}");
        }
    }

    #[test]
    fn par_map_on_empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |&x| x).is_empty());
        assert_eq!(pool.par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn install_scopes_the_current_pool() {
        let one = Pool::new(1);
        let wide = Pool::new(4);
        one.install(|| {
            assert_eq!(width(), 1);
            wide.install(|| assert_eq!(width(), 4));
            assert_eq!(width(), 1, "outer installation restored");
        });
    }

    #[test]
    fn installed_pool_propagates_into_workers() {
        let pool = Pool::new(3);
        let items: Vec<u32> = (0..16).collect();
        let widths = pool.install(|| par_map(&items, |_| width()));
        assert!(
            widths.iter().all(|&w| w == 3),
            "nested fan-outs see the installed pool: {widths:?}"
        );
    }

    #[test]
    fn nested_par_map_results_are_deterministic() {
        let items: Vec<u64> = (0..12).collect();
        let expected: Vec<Vec<u64>> = items
            .iter()
            .map(|&i| (0..6).map(|j| i * 10 + j).collect())
            .collect();
        for width in [1, 2, 8] {
            let pool = Pool::new(width);
            let out = pool.install(|| {
                par_map(&items, |&i| {
                    let inner: Vec<u64> = (0..6).collect();
                    par_map(&inner, |&j| i * 10 + j)
                })
            });
            assert_eq!(out, expected, "width {width}");
        }
    }

    #[test]
    fn panics_propagate_through_par_map() {
        let pool = Pool::new(2);
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 5, "boom at {x}");
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn global_pool_has_nonzero_width() {
        assert!(global().width() >= 1);
    }
}
