//! Offline-safe scoped data parallelism for the DP-Box evaluation suite.
//!
//! The regeneration binaries sweep (dataset × mechanism × ε × rep) grids
//! whose cells are mutually independent once each cell derives its own
//! seeded RNG stream. This crate provides the minimal `rayon`-style surface
//! those sweeps need — [`par_map`] over a slice — built
//! on `std::thread::scope` with a chunked work-stealing index counter, so it
//! works in the offline build environment with **no external dependencies**.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns *exactly* the vector `items.iter().map(f)`
//! would: results are written back by item index, and `f` receives only the
//! item (no worker identity, no scheduling information). As long as `f` is a
//! pure function of its input — in this workspace, every evaluation cell
//! seeds a fresh [`Taus88`](https://docs.rs/) stream from data it owns — the
//! output is byte-identical for **any** thread count, including the serial
//! fallback. The workspace test suite asserts this for every rewired sweep.
//!
//! # Thread-count policy
//!
//! The pool width comes from, in priority order:
//!
//! 1. the `ULP_PAR_THREADS` environment variable (a positive integer;
//!    `1` forces the serial path, useful for determinism A/B runs),
//! 2. [`std::thread::available_parallelism`],
//! 3. a serial fallback of `1` if neither is available.
//!
//! A set-but-malformed `ULP_PAR_THREADS` (`0`, `"all"`, an empty string…)
//! is **rejected, never silently defaulted**: [`try_threads`] returns the
//! typed [`EnvError`] for binaries that want to report it, and [`threads`]
//! panics with the same message. The variable is read once per process.
//! Nested `par_map` calls from inside a worker run serially (no thread
//! explosion): the outermost sweep owns the pool.
//!
//! # Examples
//!
//! ```
//! let squares = ulp_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Any explicit width gives the same bytes.
//! assert_eq!(squares, ulp_par::par_map_with(3, &[1u64, 2, 3, 4], |&x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use ulp_obs::EnvError;

/// Environment variable overriding the worker count (`1` = serial).
const THREADS_ENV: &str = "ULP_PAR_THREADS";

thread_local! {
    // Set while executing inside a worker; nested calls degrade to serial.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What `ULP_PAR_THREADS` accepts.
const THREADS_EXPECTED: &str = "a positive integer (1 = serial)";

fn positive(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker count [`threads`] would use, as a `Result`: binaries call
/// this at startup so a malformed `ULP_PAR_THREADS` is reported as a
/// proper error instead of a panic mid-sweep.
///
/// # Errors
///
/// [`EnvError`] for a set-but-malformed `ULP_PAR_THREADS`.
pub fn try_threads() -> Result<usize, EnvError> {
    let threads = ulp_obs::parse_env(THREADS_ENV, THREADS_EXPECTED, positive)?;
    Ok(threads.unwrap_or_else(default_threads))
}

/// The worker count used by [`par_map`]: the
/// `ULP_PAR_THREADS` override if set to a positive integer, otherwise the
/// machine's available parallelism. Read once per process.
///
/// # Panics
///
/// Panics on a set-but-malformed `ULP_PAR_THREADS` — a misspelled
/// thread-count override must never be silently replaced by a different
/// pool width. Binaries that prefer an error value call [`try_threads`]
/// first.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| try_threads().unwrap_or_else(|e| panic!("{e}")))
}

/// Whether the calling thread is itself a pool worker (nested sweeps run
/// serially).
fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Maps `f` over `items` on up to [`threads`] workers, returning results in
/// item order — byte-identical to `items.iter().map(f).collect()` for any
/// thread count.
///
/// # Panics
///
/// A panic in `f` is propagated to the caller after the scope unwinds.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(threads(), items, f)
}

/// [`par_map`] with an explicit worker count (`1` runs inline with no
/// spawned threads). The result is independent of `threads`.
///
/// # Panics
///
/// A panic in `f` is propagated to the caller after the scope unwinds.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 || in_pool() {
        return items.iter().map(f).collect();
    }
    // Chunked work stealing: workers claim `chunk` contiguous indices at a
    // time from a shared counter, so imbalanced cells (e.g. dataset sizes
    // spanning 300 → 20k entries) do not serialize on the slowest worker.
    let chunk = (items.len() / (workers * 4)).max(1);
    let next = AtomicUsize::new(0);
    let f = &f;
    let mut labelled: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_POOL.with(|flag| flag.set(true));
                    let mut local = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            local.push((i, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => labelled.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    // Restore item order: each index was produced exactly once.
    labelled.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(labelled.len(), items.len());
    labelled.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_for_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for w in [1usize, 2, 3, 4, 7, 16, 300] {
            let par = par_map_with(w, &items, |&x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(par, serial, "width {w}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[42u32], |&x| x + 1), vec![43]);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let outer: Vec<usize> = (0..8).collect();
        let nested = par_map_with(4, &outer, |&i| {
            assert!(in_pool(), "worker must be flagged as in-pool");
            // A nested sweep must not spawn (and must still be correct).
            par_map_with(4, &[1usize, 2, 3], |&x| x * i)
                .iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&i| 6 * i).collect();
        assert_eq!(nested, expected);
    }

    #[test]
    fn uneven_work_is_balanced_and_ordered() {
        // Heavily skewed per-item cost: correctness must not depend on which
        // worker claims which chunk.
        let items: Vec<u64> = (0..64).collect();
        let f = |&x: &u64| -> u64 {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(
            par_map_with(5, &items, f),
            items.iter().map(f).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..32).collect();
        par_map_with(4, &items, |&x| {
            assert!(x != 17, "deliberate");
            x
        });
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }

    #[test]
    fn threads_grammar_accepts_positive_integers() {
        assert_eq!(positive("1"), Some(1));
        assert_eq!(positive(" 8 "), Some(8));
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_grammar_rejects_garbage_instead_of_defaulting() {
        for bad in ["0", "-2", "all", "", "4x", "1.5"] {
            assert_eq!(positive(bad), None, "{bad:?}");
        }
    }
}
