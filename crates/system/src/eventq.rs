//! Pluggable event queues for the serving scheduler: binary heap and
//! hierarchical timer wheel.
//!
//! The serving event core ([`crate::serve()`]) is a discrete-event
//! simulation on integer picoseconds. Its only ordering requirement is
//! a *min-queue over a total order*: pop the smallest `(time, kind,
//! payload)` tuple next, deterministically, including among same-time
//! events. [`EventQueue`] captures exactly that contract, with two
//! implementations selected by [`QueueKind`]:
//!
//! * [`QueueKind::Heap`] — `BinaryHeap<Reverse<T>>`, `O(log n)` per
//!   operation. Simple and cache-friendly at tens of events; the
//!   reference implementation.
//! * [`QueueKind::Wheel`] — a hierarchical timer wheel (calendar
//!   queue), amortized `O(1)` per operation at fleet scale, where the
//!   queue holds one arrival + one patience + one work-ready wake-up
//!   per session and heap `log n` starts to show.
//!
//! ## Wheel geometry: why picosecond wheels don't explode
//!
//! A naive calendar queue at ps granularity would need ~10¹² slots per
//! simulated second. Two standard tricks keep the table at 384 slots
//! total:
//!
//! 1. **Coarse finest slot.** Events within one slot don't need wheel
//!    ordering — they are ordered by a tiny per-slot heap when the
//!    cursor reaches them. The finest slot is `2^BASE_SHIFT` ps
//!    (2²⁴ ps ≈ 16.8 µs), far below the µs-to-ms gaps between serving
//!    wake-ups, so that heap almost always holds one batch's worth of
//!    same-instant events.
//! 2. **Hierarchy with cascade.** `LEVELS` (6) wheels of `SLOTS` (64) slots
//!    each cover geometrically coarser spans: level ℓ's slot spans
//!    `2^(BASE_SHIFT + 6ℓ)` ps, so six levels reach
//!    `2^(24+36)` ps ≈ 13 simulated days. An event lands in the level
//!    matching the highest differing slot-index bits between its
//!    quantized time and the cursor; when the cursor enters a coarse
//!    slot, that slot's events *cascade* down (re-insert) into finer
//!    wheels. Each event cascades at most `LEVELS` times, which is
//!    the amortized-`O(1)` argument.
//!
//! Beyond the 13-day horizon (e.g. patience deadlines from
//! effectively-infinite `max_wait_s`) events go to an unsorted
//! **overflow bucket**, scanned only when every wheel is empty — the
//! far-future case is rare by construction.
//!
//! ## Determinism contract
//!
//! Both implementations pop the exact same sequence for the same push
//! sequence: the wheel routes by *time only* and delegates same-slot
//! ordering to a `BinaryHeap` over the full `Ord`, so ties break on
//! `(kind, payload)` exactly like the reference heap. The property
//! tests in `tests/props.rs` pin byte-identical `ServeReport`s and
//! golden-trace fingerprints across both.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// An item with a picosecond timestamp — the key the wheel routes by.
/// The full `Ord` on the item (time first, then tie-breaks) decides
/// pop order among same-slot items.
pub trait TimeKeyed {
    /// The item's scheduled time in integer picoseconds. Must agree
    /// with the item's `Ord` (equal times compare by the tie-break
    /// fields only).
    fn time_ps(&self) -> u64;
}

/// Which [`EventQueue`] implementation a serving run uses.
///
/// The two kinds are byte-identical by contract (property-tested and
/// golden-pinned), so the choice is purely a host-time one, and the
/// repo benchmark (`BENCHMARK.json`, `fleet_reject` workload) is where
/// it is measured. The serving loop arms arrivals lazily and holds
/// ~48 events even at 10⁶ sessions; at that occupancy
/// `system.eventq.{heap,wheel}_ns_per_op.occ48` are level (35 vs
/// 39 ns) and the queue is `system.eventq.est_share` ≈ 4 % of the
/// serve. The wheel wins only at the flash-crowd probe (`.occ20k`:
/// 31 vs 83 ns), a depth no shipped run reaches. The wheel stays the
/// default and the heap the reference the equivalence tests compare
/// against; whether both survive is an open ROADMAP item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `BinaryHeap<Reverse<T>>` — the reference implementation.
    Heap,
    /// Hierarchical timer wheel — amortized `O(1)` at fleet scale.
    #[default]
    Wheel,
}

impl QueueKind {
    /// The identity: every kind is concrete. Kept only because
    /// `benchmark/src/workloads/fleet.rs` calls it and the benchmark's
    /// files are frozen between benchmark PRs.
    #[must_use]
    pub fn resolve(self, _remaining_hint: usize) -> QueueKind {
        self
    }
}

/// log2 of the finest slot width in ps (2²⁴ ps ≈ 16.8 µs).
const BASE_SHIFT: u32 = 24;
/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; horizon = `2^(BASE_SHIFT + 6·LEVELS)` ps ≈ 13 days.
const LEVELS: usize = 6;

/// Hierarchical timer wheel over [`TimeKeyed`] items (see the module
/// docs for the geometry). Pop order is identical to a min-heap over
/// the items' full `Ord`.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Quantized time (`time_ps >> BASE_SHIFT`) of the slot the cursor
    /// last drained. Items quantizing at or before the cursor bypass
    /// the wheels into `current` — which is what makes pushes of
    /// already-due events (the scheduler pushes wake-ups at `now`)
    /// correct without ever moving the cursor backwards.
    cursor: u64,
    /// Items of the current (and past) slots, ordered by full `Ord`.
    current: BinaryHeap<Reverse<T>>,
    /// `LEVELS × SLOTS` unsorted buckets.
    slots: Vec<Vec<T>>,
    /// Per-level occupancy bitmask (bit `j` = slot `j` non-empty).
    occ: [u64; LEVELS],
    /// Items beyond the wheel horizon, scanned only when all wheels
    /// are empty.
    overflow: Vec<T>,
    /// Cascade scratch, recycled so draining a bucket never allocates
    /// once the queue has warmed up.
    scratch: Vec<T>,
    len: usize,
}

impl<T: Ord + TimeKeyed> TimerWheel<T> {
    /// An empty wheel whose current-slot heap is pre-sized for
    /// `capacity` same-slot items.
    pub fn with_capacity(capacity: usize) -> Self {
        TimerWheel {
            cursor: 0,
            current: BinaryHeap::with_capacity(capacity),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: Vec::new(),
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `x` (any time, including at or before the last pop).
    pub fn push(&mut self, x: T) {
        self.len += 1;
        self.place(x);
    }

    /// Routes `x` to `current`, a wheel bucket, or overflow. Does not
    /// touch `len` (shared by push and cascade re-insertion).
    fn place(&mut self, x: T) {
        let q = x.time_ps() >> BASE_SHIFT;
        if q <= self.cursor {
            self.current.push(Reverse(x));
            return;
        }
        // The level is set by the highest slot-index digit in which
        // `q` and the cursor differ: all coarser digits agree, so the
        // cursor reaches the bucket before the item is due.
        let diff = q ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(x);
            return;
        }
        let slot = ((q >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(x);
        self.occ[level] |= 1 << slot;
    }

    /// Ensures `current` holds the global minimum (cascading coarse
    /// buckets as needed). Returns `false` iff the wheel is empty.
    fn advance(&mut self) -> bool {
        loop {
            if !self.current.is_empty() {
                return true;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occ[l] != 0) else {
                if self.overflow.is_empty() {
                    return false;
                }
                // All wheels drained: jump the cursor to the earliest
                // far-future item and re-insert the overflow under it.
                // Re-insertion is O(overflow), amortized by how rarely
                // the horizon (≈13 simulated days) is crossed.
                let min_q = self
                    .overflow
                    .iter()
                    .map(|x| x.time_ps() >> BASE_SHIFT)
                    .min()
                    // vrex-lint: allow(panicking-seam) — refill runs only on the non-empty overflow branch of the drained-wheel check.
                    .expect("non-empty overflow");
                self.cursor = min_q;
                let mut items = std::mem::take(&mut self.scratch);
                std::mem::swap(&mut items, &mut self.overflow);
                for x in items.drain(..) {
                    self.place(x);
                }
                self.scratch = items;
                continue;
            };
            // The earliest occupied slot of the finest occupied level
            // is next in time: drain it. For level 0 the bucket's
            // items all quantize to the new cursor and fall into
            // `current`; coarser buckets cascade into finer wheels.
            let slot = self.occ[level].trailing_zeros() as usize;
            self.occ[level] &= !(1u64 << slot);
            let shift = level as u32 * SLOT_BITS;
            // Advance the cursor: this level's digit becomes `slot`,
            // every finer digit resets to 0 (coarser digits already
            // agree with everything in the bucket).
            self.cursor = ((self.cursor >> (shift + SLOT_BITS)) << (shift + SLOT_BITS))
                | ((slot as u64) << shift);
            let idx = level * SLOTS + slot;
            let mut items =
                std::mem::replace(&mut self.slots[idx], std::mem::take(&mut self.scratch));
            for x in items.drain(..) {
                self.place(x);
            }
            self.scratch = items;
        }
    }

    /// Removes and returns the minimum item (by full `Ord`).
    pub fn pop(&mut self) -> Option<T> {
        if !self.advance() {
            return None;
        }
        self.len -= 1;
        self.current.pop().map(|Reverse(x)| x)
    }

    /// The minimum item's time without removing it. `&mut` because the
    /// lookup may cascade buckets (a pure reorganisation — the queue's
    /// contents are unchanged).
    pub fn peek_ps(&mut self) -> Option<u64> {
        if !self.advance() {
            return None;
        }
        self.current.peek().map(|Reverse(x)| x.time_ps())
    }

    /// Removes and returns the minimum item if it is due at or before
    /// `now`; otherwise leaves the wheel's contents unchanged.
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if !self.advance() {
            return None;
        }
        let head = self.current.peek_mut()?;
        if head.0.time_ps() > now {
            return None;
        }
        self.len -= 1;
        Some(PeekMut::pop(head).0)
    }
}

/// A min-queue over `T`'s total order, dispatching to the
/// [`QueueKind`] implementation chosen at construction.
#[derive(Debug)]
pub enum EventQueue<T> {
    /// Binary-heap implementation.
    Heap(BinaryHeap<Reverse<T>>),
    /// Timer-wheel implementation.
    Wheel(TimerWheel<T>),
}

impl<T: Ord + TimeKeyed> EventQueue<T> {
    /// An empty queue of the given kind, pre-sized for `capacity`
    /// items (fleet-scale runs size this from the plan source so the
    /// hot loop never reallocates the heap).
    pub fn new(kind: QueueKind, capacity: usize) -> Self {
        match kind {
            QueueKind::Heap => EventQueue::Heap(BinaryHeap::with_capacity(capacity)),
            // The wheel spreads items across buckets; its heap only
            // ever holds one slot's worth.
            QueueKind::Wheel => EventQueue::Wheel(TimerWheel::with_capacity(64.min(capacity))),
        }
    }

    /// Inserts an item.
    pub fn push(&mut self, x: T) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(x)),
            EventQueue::Wheel(w) => w.push(x),
        }
    }

    /// Removes and returns the minimum item.
    pub fn pop(&mut self) -> Option<T> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(x)| x),
            EventQueue::Wheel(w) => w.pop(),
        }
    }

    /// The minimum item's time without removing it.
    pub fn peek_ps(&mut self) -> Option<u64> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(x)| x.time_ps()),
            EventQueue::Wheel(w) => w.peek_ps(),
        }
    }

    /// Removes and returns the minimum item if it is due at or before
    /// `now` (one call in place of peek-then-pop).
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        match self {
            EventQueue::Heap(h) => {
                let head = h.peek_mut()?;
                if head.0.time_ps() > now {
                    return None;
                }
                Some(PeekMut::pop(head).0)
            }
            EventQueue::Wheel(w) => w.pop_due(now),
        }
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Wheel(w) => w.len(),
        }
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (time, tie-break) test item mirroring the serve `Event` shape.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Item {
        ps: u64,
        tag: u32,
    }

    impl TimeKeyed for Item {
        fn time_ps(&self) -> u64 {
            self.ps
        }
    }

    fn item(ps: u64, tag: u32) -> Item {
        Item { ps, tag }
    }

    /// Feeds the same push/pop script to both implementations and
    /// asserts identical pop sequences.
    fn assert_same_order(pushes: &[Item]) {
        let mut heap = EventQueue::new(QueueKind::Heap, pushes.len());
        let mut wheel = EventQueue::new(QueueKind::Wheel, pushes.len());
        for &x in pushes {
            heap.push(x);
            wheel.push(x);
        }
        loop {
            assert_eq!(heap.peek_ps(), wheel.peek_ps());
            let (a, b) = (heap.pop(), wheel.pop());
            assert_eq!(a, b, "pop order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_tick_collisions_pop_in_tie_break_order() {
        // Many items in one finest slot (same quantized time) and even
        // at the same exact ps: order must come from the tie-break.
        let mut pushes = Vec::new();
        for tag in (0..32).rev() {
            pushes.push(item(1_000_000, tag));
            pushes.push(item(1_000_001, tag));
        }
        assert_same_order(&pushes);
    }

    #[test]
    fn cascade_boundaries_preserve_order() {
        // Items straddling every level boundary: 2^(24+6ℓ) ± 1 for
        // each level, plus exact multiples of slot widths.
        let mut pushes = Vec::new();
        for level in 0..LEVELS as u32 {
            let width = 1u64 << (BASE_SHIFT + SLOT_BITS * level);
            for k in [1u64, 2, 63, 64, 65] {
                pushes.push(item(k.wrapping_mul(width) - 1, level));
                pushes.push(item(k.wrapping_mul(width), level));
                pushes.push(item(k.wrapping_mul(width) + 1, level));
            }
        }
        assert_same_order(&pushes);
    }

    #[test]
    fn far_future_overflow_is_reachable_and_ordered() {
        // Saturated patience deadlines (u64::MAX) and other
        // beyond-horizon times land in the overflow bucket and still
        // pop in order after the near-term items.
        let horizon = 1u64 << (BASE_SHIFT + SLOT_BITS * LEVELS as u32);
        let pushes = [
            item(u64::MAX, 1),
            item(0, 0),
            item(horizon - 1, 2),
            item(horizon, 3),
            item(horizon + 12_345, 4),
            item(u64::MAX, 0),
            item(3 * horizon, 5),
        ];
        assert_same_order(&pushes);
    }

    #[test]
    fn interleaved_pushes_behind_the_cursor_stay_correct() {
        // The serving loop pushes wake-ups at (or before) the time it
        // just popped; the wheel must accept them without rewinding.
        let mut heap = EventQueue::new(QueueKind::Heap, 8);
        let mut wheel = EventQueue::new(QueueKind::Wheel, 8);
        let script: &[(u64, u64)] = &[
            // (push at, then push this after popping one item)
            (5_000_000_000, 5_000_000_000),
            (10_000_000_000, 5_000_000_001),
            (20_000_000_000, 10_000_000_000),
        ];
        for &(a, _) in script {
            heap.push(item(a, 0));
            wheel.push(item(a, 0));
        }
        for &(_, b) in script {
            let (x, y) = (heap.pop(), wheel.pop());
            assert_eq!(x, y);
            // Re-arm at a time ≤ the item just popped — legal because
            // the scheduler only pushes wake-ups at or after `now`.
            heap.push(item(b, 1));
            wheel.push(item(b, 1));
        }
        loop {
            let (x, y) = (heap.pop(), wheel.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn randomized_against_reference_heap() {
        // Deterministic xorshift scripts across a wide time range
        // (including same-slot collisions and overflow).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20 {
            let mut heap = EventQueue::new(QueueKind::Heap, 64);
            let mut wheel = EventQueue::new(QueueKind::Wheel, 64);
            let mut floor = 0u64; // pops are nondecreasing; pushes are ≥ last pop
            for _ in 0..300 {
                let r = next();
                if r % 3 != 0 {
                    // Spread pushes over slot widths of every level.
                    let span = 1u64 << (BASE_SHIFT as u64 - 4 + (r >> 8) % 40);
                    let at = floor.saturating_add(next() % span);
                    let x = item(at, (next() % 4) as u32);
                    heap.push(x);
                    wheel.push(x);
                } else {
                    let (a, b) = (heap.pop(), wheel.pop());
                    assert_eq!(a, b, "round {round}: pop diverged");
                    if let Some(x) = a {
                        floor = floor.max(x.ps);
                    }
                }
            }
            loop {
                let (a, b) = (heap.pop(), wheel.pop());
                assert_eq!(a, b, "round {round}: drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn pop_due_pops_only_items_at_or_before_now() {
        let horizon = 1u64 << (BASE_SHIFT + SLOT_BITS * LEVELS as u32);
        for kind in [QueueKind::Heap, QueueKind::Wheel] {
            let mut q = EventQueue::new(kind, 4);
            assert_eq!(q.pop_due(u64::MAX), None, "{kind:?}: empty queue");
            for x in [item(10, 1), item(5, 0), item(10, 0), item(1 << 40, 0)] {
                q.push(x);
            }
            q.push(item(horizon + 3, 0));
            assert_eq!(q.pop_due(4), None, "{kind:?}: nothing due before 5");
            assert_eq!(q.len(), 5);
            assert_eq!(q.pop_due(10), Some(item(5, 0)));
            assert_eq!(q.pop_due(10), Some(item(10, 0)));
            assert_eq!(q.pop_due(10), Some(item(10, 1)));
            assert_eq!(q.pop_due(10), None, "{kind:?}: 2^40 is not due at 10");
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_ps(), Some(1 << 40));
            assert_eq!(q.pop_due(horizon + 3), Some(item(1 << 40, 0)));
            assert_eq!(q.pop_due(horizon + 2), None, "{kind:?}: overflow item");
            assert_eq!(q.pop_due(horizon + 3), Some(item(horizon + 3, 0)));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn len_is_tracked_through_cascades_and_overflow() {
        let mut wheel = EventQueue::new(QueueKind::Wheel, 4);
        assert!(wheel.is_empty());
        let horizon = 1u64 << (BASE_SHIFT + SLOT_BITS * LEVELS as u32);
        for (i, ps) in [0u64, 1 << 30, 1 << 45, horizon + 7, u64::MAX]
            .into_iter()
            .enumerate()
        {
            wheel.push(item(ps, i as u32));
        }
        assert_eq!(wheel.len(), 5);
        let mut popped = 0;
        while wheel.pop().is_some() {
            popped += 1;
            assert_eq!(wheel.len(), 5 - popped);
        }
        assert_eq!(popped, 5);
        assert!(wheel.is_empty());
    }
}
