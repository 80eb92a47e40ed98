//! The serving scheduler's event queue.
//!
//! The serving event core ([`crate::serve()`]) is a discrete-event
//! simulation on integer picoseconds whose only ordering requirement is
//! a min-queue over a total order: pop the smallest `(time, kind,
//! payload)` next, deterministically, including among same-time events.
//! [`EventQueue`] is that, a `BinaryHeap<Reverse<T>>`. The serving loop
//! arms arrivals lazily, so it holds ≈ 48 events even at 10⁶ sessions.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// An item with a picosecond timestamp: the key [`EventQueue::peek_ps`]
/// and [`EventQueue::pop_due`] read. The full `Ord` on the item (time
/// first, then tie-breaks) decides pop order.
pub trait TimeKeyed {
    /// The item's scheduled time in integer picoseconds. Must agree
    /// with the item's `Ord` (equal times compare by the tie-break
    /// fields only).
    fn time_ps(&self) -> u64;
}

/// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The binary heap.
    #[default]
    Heap,
    /// An alias of [`QueueKind::Heap`].
    Wheel,
}

impl QueueKind {
    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    #[must_use]
    pub fn resolve(self, _remaining_hint: usize) -> QueueKind {
        self
    }
}

/// A min-queue over `T`'s total order.
#[derive(Debug)]
pub struct EventQueue<T>(BinaryHeap<Reverse<T>>);

impl<T: Ord + TimeKeyed> EventQueue<T> {
    /// An empty queue pre-sized for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue(BinaryHeap::with_capacity(capacity))
    }

    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    pub fn new(_: QueueKind, capacity: usize) -> Self {
        Self::with_capacity(capacity)
    }

    /// Inserts an item.
    pub fn push(&mut self, x: T) {
        self.0.push(Reverse(x));
    }

    /// Removes and returns the minimum item.
    pub fn pop(&mut self) -> Option<T> {
        self.0.pop().map(|Reverse(x)| x)
    }

    /// The minimum item's time without removing it.
    pub fn peek_ps(&self) -> Option<u64> {
        self.0.peek().map(|Reverse(x)| x.time_ps())
    }

    /// Removes and returns the minimum item if it is due at or before
    /// `now` (one call in place of peek-then-pop).
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        let head = self.0.peek_mut()?;
        if head.0.time_ps() > now {
            return None;
        }
        Some(PeekMut::pop(head).0)
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve's `Event` shape: time, then kind in the serve's
    /// tie-break order, then the kind's payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Ev(u64, Kind);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        Arrival(u32),
        Patience(u32),
        WorkReady(u32),
        StepComplete(u32),
    }
    use Kind::*;

    impl TimeKeyed for Ev {
        fn time_ps(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn same_tick_collisions_pop_in_tie_break_order() {
        let expected = [
            Ev(5, Patience(9)),
            Ev(7, Arrival(0)),
            Ev(7, Arrival(1)),
            Ev(7, Patience(0)),
            Ev(7, WorkReady(1)),
            Ev(7, WorkReady(2)),
            Ev(7, StepComplete(0)),
            Ev(u64::MAX, Arrival(0)),
        ];
        let mut q = EventQueue::with_capacity(8);
        for i in [6, 5, 0, 2, 4, 3, 1, 7] {
            q.push(expected[i]);
        }
        assert_eq!(std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn pop_due_pops_only_items_at_or_before_now() {
        let mut q = EventQueue::with_capacity(4);
        assert_eq!(q.pop_due(u64::MAX), None, "empty queue");
        for e in [Ev(10, WorkReady(0)), Ev(5, Arrival(0)), Ev(10, Arrival(0))] {
            q.push(e);
        }
        assert_eq!(q.pop_due(4), None, "before the head");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_due(5), Some(Ev(5, Arrival(0))), "at the head");
        assert_eq!(q.pop_due(9), None, "before the next head");
        assert_eq!(q.pop_due(11), Some(Ev(10, Arrival(0))), "after the head");
        assert_eq!(q.pop_due(11), Some(Ev(10, WorkReady(0))));
        assert_eq!(q.pop_due(11), None, "drained");
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_behind_the_cursor_stay_correct() {
        // The serving loop pushes wake-ups at (or before) the cursor,
        // the time it just popped; each must become the head at once.
        let mut q = EventQueue::with_capacity(2);
        let state = |q: &EventQueue<Ev>| (q.peek_ps(), q.len());
        assert_eq!(state(&q), (None, 0));
        q.push(Ev(20, WorkReady(0)));
        q.push(Ev(10, WorkReady(0)));
        assert_eq!(state(&q), (Some(10), 2));
        assert_eq!(q.pop(), Some(Ev(10, WorkReady(0))));
        assert_eq!(state(&q), (Some(20), 1));
        q.push(Ev(10, StepComplete(0)));
        q.push(Ev(10, Arrival(0)));
        assert_eq!(state(&q), (Some(10), 3));
        assert_eq!(q.pop(), Some(Ev(10, Arrival(0))));
        q.push(Ev(15, Patience(0)));
        assert_eq!(state(&q), (Some(10), 3));
        assert_eq!(q.pop(), Some(Ev(10, StepComplete(0))));
        assert_eq!(q.pop(), Some(Ev(15, Patience(0))));
        assert_eq!(q.pop(), Some(Ev(20, WorkReady(0))));
        assert_eq!(state(&q), (None, 0));
    }
}
