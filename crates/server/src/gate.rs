//! The admission gate: how many pipeline requests execute at once and
//! how many more may wait.
//!
//! Up to `workers` callers of [`Gate::enter`] are admitted at once, up
//! to `depth` more park **in arrival order**, and anyone after that is
//! refused on the spot. A dropped [`Permit`] — dropped normally or by
//! an unwinding thread — hands its slot to the longest waiter directly
//! and unparks that one thread: a bare `Condvar` lets late arrivals
//! overtake early ones under a burst, and `notify_all` wakes every
//! waiter per release.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

/// One parked caller: the thread to wake and the flag that tells it the
/// wake-up is an admission (`park` may also return spuriously).
struct Waiter {
    thread: Thread,
    admitted: AtomicBool,
}

#[derive(Default)]
struct State {
    /// Permits outstanding, at most `workers`.
    running: usize,
    /// Parked callers, oldest first; non-empty only while
    /// `running == workers`.
    waiters: VecDeque<Arc<Waiter>>,
}

/// Bounded, first-come-first-served admission.
pub(crate) struct Gate {
    state: Mutex<State>,
    workers: usize,
    depth: usize,
}

/// Proof of admission; dropping it passes the slot on.
pub(crate) struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate admitting `workers` callers with `depth` more waiting
    /// (each at least 1).
    pub(crate) fn new(workers: usize, depth: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            workers: workers.max(1),
            depth: depth.max(1),
        }
    }

    /// Admits the caller — at once if a slot is free, after waiting its
    /// turn if `depth` allows — or returns `None` when the wait line is
    /// full.
    pub(crate) fn enter(&self) -> Option<Permit<'_>> {
        let mut state = self.state.lock().expect("gate poisoned");
        if state.running < self.workers {
            state.running += 1;
        } else if state.waiters.len() < self.depth {
            let me = Arc::new(Waiter {
                thread: thread::current(),
                admitted: AtomicBool::new(false),
            });
            state.waiters.push_back(Arc::clone(&me));
            drop(state);
            while !me.admitted.load(Ordering::Acquire) {
                thread::park();
            }
        } else {
            return None;
        }
        Some(Permit { gate: self })
    }

    /// Callers currently parked.
    pub(crate) fn waiting(&self) -> usize {
        self.state.lock().expect("gate poisoned").waiters.len()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Nothing panics while holding the lock, and taking it while
        // already unwinding does not poison it.
        let mut state = self.gate.state.lock().expect("gate poisoned");
        match state.waiters.pop_front() {
            // The slot changes hands: `running` stays where it is.
            Some(next) => {
                next.admitted.store(true, Ordering::Release);
                next.thread.unpark();
            }
            None => state.running -= 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Spins until `done()` holds.
    fn await_that(done: impl Fn() -> bool) {
        while !done() {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn admits_workers_parks_depth_in_arrival_order_and_refuses_the_next() {
        let gate = Gate::new(2, 3);
        let first = gate.enter().expect("slot 1 is free");
        let second = gate.enter().expect("slot 2 is free");
        assert_eq!(gate.waiting(), 0);

        let order = Mutex::new(Vec::new());
        let admitted = || order.lock().unwrap().clone();
        let release = AtomicBool::new(false);
        thread::scope(|s| {
            for k in 0..3 {
                let (gate, order, release) = (&gate, &order, &release);
                s.spawn(move || {
                    let _permit = gate.enter().expect("room in the wait line");
                    order.lock().unwrap().push(k);
                    await_that(|| release.load(Ordering::Relaxed));
                });
                // Park them one at a time so arrival order is known.
                await_that(|| gate.waiting() == k + 1);
            }
            assert!(gate.enter().is_none(), "wait line is full");
            assert!(admitted().is_empty(), "both slots are still held");

            // One freed slot admits exactly the longest waiter.
            drop(first);
            await_that(|| !admitted().is_empty());
            thread::sleep(Duration::from_millis(5));
            assert_eq!((admitted(), gate.waiting()), (vec![0], 2));
            drop(second);
            await_that(|| admitted().len() == 2);
            assert_eq!(admitted(), [0, 1]);
            release.store(true, Ordering::Relaxed);
        });
        assert_eq!((admitted(), gate.waiting()), (vec![0, 1, 2], 0));
        // Every slot came back: `workers` callers are admitted at once again.
        let _a = gate.enter().unwrap();
        let _b = gate.enter().unwrap();
    }

    #[test]
    fn a_permit_dropped_by_an_unwinding_thread_frees_its_slot() {
        let gate = Gate::new(1, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.enter().unwrap();
            panic!("handler panicked while holding a permit");
        }));
        assert!(unwound.is_err());
        // Released, and without poisoning the lock.
        assert_eq!(gate.state.lock().unwrap().running, 0);
        assert!(gate.enter().is_some());
    }
}
