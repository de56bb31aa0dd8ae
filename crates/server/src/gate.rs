//! The solve-slot gate: the bounded queue an [`AdmissionPolicy`] judges.
//!
//! One request solves at a time; every other request that needs the
//! solver waits here — which is what makes queue-depth admission (and
//! "budget expired while queued") physically real behind a
//! thread-per-connection accept loop.

use std::sync::Arc;
// The parking_lot shim's MutexGuard *is* `std::sync::MutexGuard`, so std's
// Condvar pairs with it directly (same pattern as the solve cache).
use std::sync::Condvar;
use std::time::{Duration, Instant};

use netsolve_core::admission::AdmissionPolicy;
use netsolve_core::clock::Clock;
use parking_lot::Mutex;

/// Milliseconds left of a `deadline_ms` budget once a request has existed
/// for `waited`: `None` without a deadline, `Some(0)` once it is spent.
/// The one deadline test — the receipt check, the policy's input and the
/// slot wait all read it.
pub(crate) fn budget_left_ms(deadline_ms: u64, waited: Duration) -> Option<u64> {
    (deadline_ms > 0).then(|| deadline_ms.saturating_sub(waited.as_millis() as u64))
}

#[derive(Default)]
struct Queue {
    solving: bool,
    waiting: u32,
}

/// An admission policy plus the one solve slot it guards.
pub(crate) struct AdmissionGate {
    pub(crate) policy: Arc<AdmissionPolicy>,
    queue: Mutex<Queue>,
    cond: Condvar,
}

/// The solve slot, held: dropping it frees the slot for the next waiter.
pub(crate) struct Slot<'a>(&'a AdmissionGate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.queue.lock().solving = false;
        self.0.cond.notify_one();
    }
}

impl AdmissionGate {
    pub(crate) fn new(policy: Arc<AdmissionPolicy>) -> Self {
        AdmissionGate { policy, queue: Mutex::default(), cond: Condvar::new() }
    }

    /// The solve queue a new arrival would join: requests waiting for the
    /// slot plus the one solving, if any.
    pub(crate) fn depth(&self) -> usize {
        let queue = self.queue.lock();
        queue.waiting as usize + usize::from(queue.solving)
    }

    /// Wait for the solve slot: `None` if the deadline budget ran out
    /// first, in which case no slot was ever reserved. `deadline_ms == 0`
    /// waits indefinitely. The budget is read on `clock`; the wait for a
    /// slot itself is the condvar's, on wall time (DESIGN.md §4q).
    pub(crate) fn acquire(
        &self,
        clock: &dyn Clock,
        received_at: Instant,
        deadline_ms: u64,
    ) -> Option<Slot<'_>> {
        let mut queue = self.queue.lock();
        queue.waiting += 1;
        let acquired = loop {
            // Budget check *before* reserving: an expired request must
            // never consume a slot.
            let left = budget_left_ms(deadline_ms, clock.since(received_at));
            if left == Some(0) {
                break false;
            }
            if !queue.solving {
                queue.solving = true;
                break true;
            }
            queue = match left {
                Some(ms) => {
                    self.cond
                        .wait_timeout(queue, Duration::from_millis(ms))
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
                None => self.cond.wait(queue).unwrap_or_else(|poisoned| poisoned.into_inner()),
            };
        };
        queue.waiting -= 1;
        // Lazily: a `Slot` built and dropped here would free the slot.
        acquired.then(|| Slot(self))
    }
}
