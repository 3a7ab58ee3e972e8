//! The parallel point executor.
//!
//! A fixed pool of scoped worker threads pulls point indices from one
//! shared atomic queue — the degenerate (single-injector) form of work
//! stealing: whichever worker goes idle first claims the next point,
//! so imbalanced point costs never leave threads parked, and there is
//! no per-thread queue to rebalance. Results land in their point's
//! slot, so output order equals enumeration order regardless of thread
//! interleaving; combined with per-point RNG seeding
//! ([`crate::hash::point_seed`]) this makes parallel runs bit-identical
//! to serial ones.

use parking_lot::Mutex;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A cooperative cancellation flag shared between a dispatcher and its
/// worker closures (fail-fast sweeps trip it on the first quarantined
/// point; workers consult it before starting new work).
///
/// Cancellation is advisory: items already being evaluated run to
/// completion, and every slot still gets a result — the closure
/// decides what a cancelled item's result looks like.
#[derive(Debug, Default)]
pub struct CancelToken(AtomicBool);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once any party has cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A reusable parallel map over indexed work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// One worker per available CPU.
    #[must_use]
    pub fn per_cpu() -> Self {
        Executor::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel; `f` receives the item index
    /// and the item. The returned vector is in item order.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || items.len() == 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(items.len());
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                let next = &next;
                let slots = &slots;
                let f = &f;
                scope.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    *slots[i].lock() = Some(f(i, item));
                });
            }
        })
        .expect("executor workers do not panic");
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled"))
            .collect()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::per_cpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_under_parallelism() {
        let items: Vec<u64> = (0..257).collect();
        let serial = Executor::new(1).run(&items, |i, &x| x * 2 + i as u64);
        let parallel = Executor::new(8).run(&items, |i, &x| x * 2 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 30);
    }

    #[test]
    fn uneven_work_completes() {
        let items: Vec<u64> = (0..64).collect();
        let out = Executor::new(4).run(&items, |_, &x| {
            // Skewed cost: make late items heavy to exercise the
            // shared queue.
            (0..(x * 1000)).fold(0u64, |acc, v| acc.wrapping_add(v))
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Executor::new(4);
        assert!(e.run(&[] as &[u64], |_, &x| x).is_empty());
        assert_eq!(e.run(&[5u64], |i, &x| x + i as u64), vec![5]);
    }

    #[test]
    fn cancel_token_is_advisory_and_sticky() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let items: Vec<u64> = (0..10).collect();
        // Workers consult the token in their closure; items claimed
        // after cancellation resolve to a sentinel instead of running.
        // Serial execution makes the outcome deterministic: item 3
        // trips the token, items 4.. are skipped.
        let out = Executor::new(1).run(&items, |_, &x| {
            if token.is_cancelled() {
                return u64::MAX;
            }
            if x == 3 {
                token.cancel();
            }
            x
        });
        assert_eq!(out.len(), 10, "every slot still filled");
        assert!(token.is_cancelled());
        assert_eq!(&out[..4], &[0, 1, 2, 3]);
        assert!(out[4..].iter().all(|&v| v == u64::MAX));
        token.cancel();
        assert!(token.is_cancelled(), "idempotent");
    }

    #[test]
    fn thread_count_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert!(Executor::per_cpu().threads() >= 1);
    }
}
