//! The event calendar: pending simulation events ordered by time.
//!
//! A binary heap (`O(log n)` push/pop). It is deterministic: ties in time
//! are broken by a monotonically increasing sequence number assigned at
//! insertion.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the calendar: fire `payload` at `time`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence (tie-break; smaller fires first).
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

impl<T: Eq> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Eq> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for BinaryHeap (max-heap → min-queue).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Pending-event set ordered by `(time, seq)`.
#[derive(Debug)]
pub struct BinaryHeapCalendar<T: Eq> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T: Eq> Default for BinaryHeapCalendar<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T: Eq> BinaryHeapCalendar<T> {
    /// Empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` at `time`. Returns the assigned sequence number.
    pub fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        seq
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.heap.pop()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_ordering_and_ties() {
        let mut cal = BinaryHeapCalendar::new();
        cal.schedule(SimTime::new(3.0), 30);
        cal.schedule(SimTime::new(1.0), 10);
        cal.schedule(SimTime::new(2.0), 20);
        // Tie at t=1.0 — insertion order wins.
        cal.schedule(SimTime::new(1.0), 11);

        assert_eq!(cal.len(), 4);
        let first = cal.pop().unwrap();
        assert_eq!((first.time, first.payload), (SimTime::new(1.0), 10));
        assert_eq!(cal.pop().unwrap().payload, 11);
        assert_eq!(cal.pop().unwrap().payload, 20);
        assert_eq!(cal.pop().unwrap().payload, 30);
        assert!(cal.pop().is_none());
        assert!(cal.is_empty());
    }

    #[test]
    fn heap_matches_a_stable_sort_on_random_schedule() {
        let mut heap = BinaryHeapCalendar::new();
        let mut reference = Vec::new();
        // Deterministic pseudo-random times (LCG), including duplicates.
        let mut x: u64 = 12345;
        for i in 0..1000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = ((x >> 33) % 100) as f64 * 0.5;
            heap.schedule(SimTime::new(t), i);
            reference.push((SimTime::new(t), i));
        }
        // A stable sort by time keeps insertion order within ties.
        reference.sort_by_key(|&(t, _)| t);
        for (t, i) in reference {
            let e = heap.pop().unwrap();
            assert_eq!((e.time, e.payload), (t, i));
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut cal = BinaryHeapCalendar::new();
        cal.schedule(SimTime::new(5.0), 1);
        assert_eq!(cal.pop().unwrap().payload, 1);
        cal.schedule(SimTime::new(2.0), 2);
        cal.schedule(SimTime::new(1.0), 3);
        assert_eq!(cal.pop().unwrap().payload, 3);
        cal.schedule(SimTime::new(0.5), 4);
        // 0.5 < 2.0 even though scheduled after the pop at t=1.0 — the
        // calendar itself doesn't enforce causality; the kernel does.
        assert_eq!(cal.pop().unwrap().payload, 4);
        assert_eq!(cal.pop().unwrap().payload, 2);
    }
}
