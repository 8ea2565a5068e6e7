//! Deterministic discrete-event queue: a monotone **radix heap**.
//!
//! The fabric never schedules an event before the last one popped, and
//! a radix heap exploits exactly that. It keeps `last`, the time of the
//! last pop, and files an event at time `t` by the highest bit in which
//! `t` differs from `last`; events at `last` itself wait in a FIFO,
//! ready to pop. When that FIFO runs dry, the lowest non-empty bucket
//! holds the earliest events: its minimum becomes the new `last` and
//! its entries are re-filed, each into a strictly lower bucket. Higher
//! buckets keep their index, since the new `last` agrees with the old
//! one on every bit above the re-filed bucket's. Push is an append, and
//! an event moves at most 64 times (usually two or three) before it
//! pops.
//!
//! **Determinism.** Pop order is the total order on `(time, push
//! order)`: earliest time first, FIFO within a cycle. Equal times
//! always share a bucket (the bucket is a function of the time and
//! `last`), every bucket keeps push order, and re-filing walks a bucket
//! front to back, so no sequence numbers are needed.
//!
//! A push before `last` would break the bucket invariant, so it fails
//! the [`invariants::time_monotone`] assertion instead of silently
//! misordering. A bounded pop that refuses (see
//! [`EventQueue::pop_at_most`]) leaves `last` where it was, so a caller
//! may still schedule between the last pop and the refused bound.

use crate::invariants;
use crate::time::Cycles;
use std::collections::VecDeque;

/// An event kind processed by the fabric loop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Event {
    /// A flow's source emits its next packet.
    Generate {
        /// Index into the fabric's flow table.
        flow: u32,
    },
    /// A transfer on an output port completes.
    Complete {
        /// Node owning the output port (encoded; see
        /// [`crate::fabric::NodeId`]).
        node: u32,
        /// Output port number.
        port: u8,
    },
    /// A scheduled fault action fires (see [`crate::fault`]).
    Fault {
        /// Index into the fabric's registered fault actions.
        index: u32,
    },
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    time: Cycles,
    event: Event,
}

/// A time-ordered event queue with FIFO tie-breaking (two events at the
/// same cycle fire in insertion order), which makes runs reproducible.
pub struct EventQueue {
    /// Events at exactly `last`, in push order.
    current: VecDeque<Event>,
    /// `buckets[b]`: the events whose time differs from `last` first
    /// (from the top) at bit `b`, in push order.
    buckets: [Vec<Entry>; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Time of the last pop; no pending event is earlier.
    last: Cycles,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            current: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// If `time` is before the last popped event's time.
    #[inline]
    pub fn push(&mut self, time: Cycles, event: Event) {
        assert!(
            invariants::time_monotone(self.last, time),
            "invariant time_monotone violated: event at {time} pushed after a pop at {}",
            self.last
        );
        self.len += 1;
        self.file(Entry { time, event });
    }

    /// Files an entry at or after `last` into its bucket.
    #[inline]
    fn file(&mut self, e: Entry) {
        let diff = e.time ^ self.last;
        if diff == 0 {
            self.current.push_back(e.event);
        } else {
            let b = 63 - diff.leading_zeros() as usize;
            self.buckets[b].push(e);
            self.occupied |= 1 << b;
        }
    }

    /// Removes the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, Event)> {
        self.pop_at_most(Cycles::MAX)
    }

    /// Removes the earliest event if its time is `<= t_end`; a bounded
    /// pop that fuses the event loop's peek-then-pop pair into one
    /// queue operation. A refusal leaves the queue untouched, so events
    /// may still be pushed at any time from the last pop on.
    #[inline]
    pub fn pop_at_most(&mut self, t_end: Cycles) -> Option<(Cycles, Event)> {
        if self.current.is_empty() && !self.advance(t_end) {
            return None;
        }
        if self.last > t_end {
            return None;
        }
        let event = self.current.pop_front()?;
        self.len -= 1;
        Some((self.last, event))
    }

    /// Moves `last` to the earliest pending time, if that is `<= t_end`,
    /// and re-files the lowest non-empty bucket around it; the events
    /// at the new `last` land in `current`. Returns whether it moved.
    fn advance(&mut self, t_end: Cycles) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let min = bucket.iter().map(|e| e.time).min().unwrap_or(Cycles::MAX);
        if min > t_end {
            self.buckets[b] = bucket;
            return false;
        }
        self.last = min;
        self.occupied &= !(1 << b);
        for e in bucket.drain(..) {
            self.file(e);
        }
        // Hand the emptied vector back so its capacity is reused.
        self.buckets[b] = bucket;
        true
    }

    /// Time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycles> {
        if !self.current.is_empty() {
            return Some(self.last);
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.buckets.get(b)?.iter().map(|e| e.time).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending events?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Convenience alias used by tests.
pub type Timestamped = (Cycles, Event);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Generate { flow: 3 });
        q.push(10, Event::Generate { flow: 1 });
        q.push(20, Event::Generate { flow: 2 });
        let times: Vec<Cycles> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for flow in 0..10u32 {
            q.push(5, Event::Generate { flow });
        }
        let flows: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Generate { flow } => flow,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(flows, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7, Event::Complete { node: 0, port: 1 });
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_ring_wraparound() {
        let mut q = EventQueue::new();
        // Default geometry: 256 buckets x 256 cycles = one 65536-cycle
        // lap. These events straddle several laps.
        q.push(5, Event::Generate { flow: 0 });
        q.push(70_000, Event::Generate { flow: 1 });
        q.push(1_000_000, Event::Generate { flow: 2 });
        q.push(70_001, Event::Generate { flow: 3 });
        let order: Vec<(Cycles, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![5, 70_000, 70_001, 1_000_000]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(100, Event::Generate { flow: 0 });
        assert_eq!(q.pop().unwrap().0, 100);
        // Pushes at the current time after a pop still surface.
        q.push(100, Event::Generate { flow: 1 });
        q.push(356, Event::Generate { flow: 2 });
        assert_eq!(q.pop().unwrap().0, 100);
        assert_eq!(q.pop().unwrap().0, 356);
        assert!(q.pop().is_none());
    }

    #[test]
    fn resize_preserves_order_and_fifo() {
        // Push far past the grow threshold (512 events for the initial
        // 256-bucket ring) with clustered and duplicate times.
        let mut q = EventQueue::new();
        let mut expect: Vec<(Cycles, u64)> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4096u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = state % 10_000;
            q.push(t, Event::Generate { flow: i as u32 });
            expect.push((t, i));
        }
        expect.sort();
        let got: Vec<(Cycles, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Generate { flow } => (t, flow),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got.len(), expect.len());
        for ((t, seq), (gt, gflow)) in expect.iter().zip(got.iter()) {
            assert_eq!(t, gt);
            assert_eq!(*seq as u32, *gflow, "FIFO broken at t={t}");
        }
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Differential check against a BinaryHeap with the same
        // (time, seq) order, under a mixed push/pop pattern that mimics
        // the simulator (times never before the last popped time).
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut h: BinaryHeap<Reverse<(Cycles, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut state = 42u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20_000u32 {
            let burst = rand() % 4;
            for _ in 0..burst {
                let t = now + rand() % 5000;
                q.push(t, Event::Generate { flow: round });
                h.push(Reverse((t, seq, round)));
                seq += 1;
            }
            if rand() % 3 != 0 {
                let got = q.pop();
                let want = h.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some((t, Event::Generate { flow })), Some(Reverse((wt, _, wf)))) => {
                        assert_eq!((t, flow), (wt, wf), "diverged at round {round}");
                        now = t;
                    }
                    other => panic!("diverged at round {round}: {other:?}"),
                }
            }
        }
        while let Some(Reverse((wt, _, wf))) = h.pop() {
            let (t, e) = q.pop().expect("calendar queue ran dry early");
            let Event::Generate { flow } = e else {
                unreachable!()
            };
            assert_eq!((t, flow), (wt, wf));
        }
        assert!(q.pop().is_none());
    }
    #[test]
    fn refused_bounded_pop_keeps_earlier_pushes_legal() {
        // `run_until(50)` refuses the event at 100; `add_flow` or
        // `schedule_fault` at now = 50 then pushes 60, which must still
        // pop first.
        let mut q = EventQueue::new();
        q.push(100, Event::Generate { flow: 0 });
        assert_eq!(q.pop_at_most(50), None);
        q.push(60, Event::Generate { flow: 1 });
        assert_eq!(q.pop(), Some((60, Event::Generate { flow: 1 })));
        assert_eq!(q.pop(), Some((100, Event::Generate { flow: 0 })));
        assert!(q.is_empty());
    }

    #[test]
    fn matches_reference_heap_under_bounded_pops() {
        // Differential check against a BinaryHeap like the one above,
        // with the fabric's `run_until` pattern mixed in: bounded pops
        // that refuse, pushes exactly at a refused bound, and bursts of
        // pushes at one shared time.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut h: BinaryHeap<Reverse<(Cycles, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut refusals = 0u32;
        let mut state = 7u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut push = |q: &mut EventQueue, h: &mut BinaryHeap<_>, t: Cycles, flow: u32| {
            q.push(t, Event::Generate { flow });
            h.push(Reverse((t, seq, flow)));
            seq += 1;
        };
        for round in 0..20_000u32 {
            match rand() % 5 {
                0 => {
                    // A burst at one time, possibly `now` itself.
                    let t = now + rand() % 3 * 100;
                    for _ in 0..=rand() % 2 {
                        push(&mut q, &mut h, t, round);
                    }
                }
                1 => {
                    let t = now + rand() % 5000;
                    push(&mut q, &mut h, t, round);
                }
                2 | 3 => {
                    // Bounded pop; on refusal the bound becomes `now`
                    // and an event lands exactly on it.
                    let bound = now + rand() % 600;
                    let want = match h.peek() {
                        Some(Reverse((t, _, _))) if *t <= bound => h.pop(),
                        _ => None,
                    };
                    match (q.pop_at_most(bound), want) {
                        (None, None) => {
                            refusals += 1;
                            now = bound;
                            push(&mut q, &mut h, bound, round);
                        }
                        (Some((t, Event::Generate { flow })), Some(Reverse((wt, _, wf)))) => {
                            assert_eq!((t, flow), (wt, wf), "diverged at round {round}");
                            now = t;
                        }
                        other => panic!("diverged at round {round}: {other:?}"),
                    }
                }
                _ => match (q.pop(), h.pop()) {
                    (None, None) => {}
                    (Some((t, Event::Generate { flow })), Some(Reverse((wt, _, wf)))) => {
                        assert_eq!((t, flow), (wt, wf), "diverged at round {round}");
                        now = t;
                    }
                    other => panic!("diverged at round {round}: {other:?}"),
                },
            }
            assert_eq!(q.len(), h.len());
            assert_eq!(q.peek_time(), h.peek().map(|Reverse((t, _, _))| *t));
        }
        assert!(refusals > 100, "only {refusals} refused bounded pops");
        while let Some(Reverse((wt, _, wf))) = h.pop() {
            assert_eq!(q.pop(), Some((wt, Event::Generate { flow: wf })));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "invariant time_monotone violated")]
    fn push_before_last_pop_is_rejected() {
        let mut q = EventQueue::new();
        q.push(100, Event::Generate { flow: 0 });
        q.pop();
        q.push(99, Event::Generate { flow: 1 });
    }
}
