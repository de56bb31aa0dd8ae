//! The simulator's pending-event queue: one binary heap.
//!
//! Ordering contract (load-bearing for determinism): events pop in
//! exactly ascending `(time, seq)` order, where `seq` is the push order.
//! Same-timestamp events therefore come back FIFO, and a scenario's
//! outcome depends on its seed alone.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A pending-event set popping in ascending `(time, push-order)` order.
pub struct EventCalendar<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventCalendar<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventCalendar { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at `time` (seconds, finite, non-negative). Events
    /// at equal times pop in push order.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(time.is_finite() && time >= 0.0, "event time {time} out of range");
        self.heap.push(Reverse(Entry { time, seq: self.next_seq, event }));
        self.next_seq += 1;
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }
}

impl<E> Default for EventCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::rng::{cases, Rng64};

    #[test]
    fn pops_in_time_order() {
        let mut cal = EventCalendar::new();
        for (i, t) in [5.0, 1.0, 3.0, 0.5, 4.0, 2.0].iter().enumerate() {
            cal.push(*t, i);
        }
        assert_eq!(cal.len(), 6);
        let mut times = Vec::new();
        while let Some((t, _)) = cal.pop() {
            times.push(t);
        }
        assert_eq!(times, vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(cal.is_empty());
    }

    #[test]
    fn same_timestamp_events_pop_fifo() {
        let mut cal = EventCalendar::new();
        for i in 0..100u64 {
            cal.push(7.25, i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // DES-style usage: pop the head, push new events at or after it.
        let mut cal = EventCalendar::new();
        let mut rng = Rng64::new(7);
        cal.push(0.0, 0u64);
        let mut last = -1.0f64;
        let mut pushed = 1u64;
        for _ in 0..5_000 {
            let (t, _) = cal.pop().expect("non-empty");
            assert!(t >= last, "time went backwards: {t} < {last}");
            last = t;
            // 0–2 follow-up events, sometimes exactly at `now`.
            for _ in 0..(rng.uniform(0.0, 3.0) as usize) {
                let dt = if rng.chance(0.2) { 0.0 } else { rng.exponential(1.0) };
                cal.push(t + dt, pushed);
                pushed += 1;
            }
            if cal.is_empty() {
                cal.push(last + rng.exponential(0.1), pushed);
                pushed += 1;
            }
        }
    }

    /// Seeded interleaved pushes and pops — exact ties with the head,
    /// dense clusters, typical gaps and sparse jumps — must pop in
    /// ascending (time, push order): each event carries its push order,
    /// so a pop is checked against the one before it.
    #[test]
    fn seeded_interleaving_pops_in_time_then_push_order() {
        cases("seeded_interleaving_pops_in_time_then_push_order", 20, |rng| {
            let mut cal = EventCalendar::new();
            let (mut pushed, mut now) = (0u64, 0.0f64);
            let mut last = (-1.0f64, 0u64);
            let mut check = |popped: (f64, u64)| {
                assert!(last < popped, "{last:?} popped before {popped:?}");
                last = popped;
            };
            for _ in 0..10_000 {
                if rng.chance(0.55) || cal.is_empty() {
                    let t = match (rng.uniform(0.0, 1.0) * 4.0) as u32 {
                        0 => now,
                        1 => now + rng.uniform(0.0, 0.01),
                        2 => now + rng.exponential(2.0),
                        _ => now + rng.uniform(50.0, 500.0),
                    };
                    cal.push(t, pushed);
                    pushed += 1;
                } else {
                    let popped = cal.pop().expect("non-empty");
                    check(popped);
                    now = popped.0;
                }
            }
            while let Some(popped) = cal.pop() {
                check(popped);
            }
        });
    }
}
