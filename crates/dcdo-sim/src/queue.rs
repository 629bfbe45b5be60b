//! The engine's event queue: an indexed four-ary heap plus a same-tick ring.
//!
//! The previous queue was a `BinaryHeap` with a tombstone set for cancelled
//! timers: cancellation was O(1) but left the dead entry in the heap until
//! its due time, so cancel-heavy workloads (every RPC retry timer that is
//! settled before it fires) grew the heap and the tombstone set without
//! bound. This queue stores events in a slab, keeps a four-ary heap of
//! `(key, slot)` pairs with back-pointers from the slab, and indexes live
//! timers by id — so cancellation physically removes the entry in
//! O(log n) and reclaims its slot immediately.
//!
//! Two structural choices target the hot paths of the simulator:
//!
//! - **Four-ary layout.** Sift-down visits ≤ 4 children per level but the
//!   tree has half the height of a binary heap; for the pop-dominated
//!   workload of a discrete-event loop this trades cheap comparisons for
//!   fewer cache-missing levels.
//! - **Same-tick ring.** Deliveries scheduled for the *current* instant
//!   (instant-network tests, local fan-out) never touch the heap at all:
//!   they go to a FIFO ring and pop in `(time, seq)` order ahead of any
//!   later heap entry. Timers always go through the heap, even at zero
//!   delay, so every timer stays cancellable.
//!
//! Ordering is by the packed key `(at.as_nanos() << 64) | sub`: `sub` is a
//! 64-bit sub-key the engine structures as `(lane << 48) | lane_seq`, where
//! a *lane* is one execution context (the driver, or one node's handlers).
//! Per-lane sequence numbers make keys unique, and a lane's counter
//! advances only with that lane's own events. The queue itself only relies
//! on keys being unique and totally ordered; the engine packs its keys
//! itself and uses the raw-key API (`push_raw`, `pop_raw`).

use std::collections::VecDeque;

use dcdo_trace::IdMap;

use crate::time::SimTime;

/// Packs `(at, seq)` into a single totally ordered `u128` key.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

/// Unpacks the time half of a key.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

const ARITY: usize = 4;
/// Sentinel for "this slab entry carries no timer id" (real ids start at 1).
const NO_TIMER: u64 = 0;
/// Sentinel for "this slab entry is not in the heap" (it is free).
const NOT_IN_HEAP: u32 = u32::MAX;

struct HeapEntry {
    key: u128,
    slot: u32,
}

struct SlabEntry<T> {
    item: Option<T>,
    /// Position of this slot's entry in `heap`, or [`NOT_IN_HEAP`].
    heap_pos: u32,
    /// Timer id carried by the item, or [`NO_TIMER`] for deliveries.
    timer_id: u64,
}

/// Event queue with O(log n) push/pop and O(log n) *true* timer
/// cancellation (no tombstones). Generic over the stored event type so the
/// engine can keep its `EventKind` private.
pub(crate) struct EventQueue<T> {
    heap: Vec<HeapEntry>,
    slab: Vec<SlabEntry<T>>,
    free: Vec<u32>,
    /// FIFO of events due at the current instant; always pops before any
    /// heap entry with a later time, in `(time, seq)` order.
    ring: VecDeque<(u128, T)>,
    /// Live (scheduled, uncancelled, unfired) timer id → slab slot.
    timers: IdMap<u64, u32>,
    peak_len: usize,
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            ring: VecDeque::new(),
            timers: IdMap::default(),
            peak_len: 0,
        }
    }

    /// Number of pending events (live timers + undelivered messages).
    pub fn len(&self) -> usize {
        self.heap.len() + self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.ring.is_empty()
    }

    /// High-water mark of [`len`](Self::len) — the memory-boundedness
    /// witness for cancel-heavy workloads.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Earliest pending `(time, seq)` without removing it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.peek_raw_key().map(|key| (key_time(key), key as u64))
    }

    /// Enqueues a delivery due at the current instant. The caller guarantees
    /// `at == now`; such events FIFO ahead of everything later without
    /// touching the heap.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn push_same_tick(&mut self, at: SimTime, seq: u64, item: T) {
        self.push_same_tick_raw(pack(at, seq), item);
    }

    /// Raw-key variant of [`push_same_tick`](Self::push_same_tick).
    ///
    /// The ring must stay key-sorted, but same-instant pushes are not
    /// globally key-ordered under lane-structured sub-keys (a lower lane can
    /// push after a higher one at the same tick): an entry that would break
    /// the ring's order is diverted to the heap instead.
    pub fn push_same_tick_raw(&mut self, key: u128, item: T) {
        if self.ring.back().is_some_and(|(back, _)| *back > key) {
            self.push_slab(key, NO_TIMER, item);
            return;
        }
        self.ring.push_back((key, item));
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Enqueues a future delivery.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.push_slab(pack(at, seq), NO_TIMER, item);
    }

    /// Raw-key variant of [`push`](Self::push) (future delivery).
    pub fn push_raw(&mut self, key: u128, item: T) {
        self.push_slab(key, NO_TIMER, item);
    }

    /// Enqueues a timer. `timer_id` must be nonzero and unique among live
    /// timers; it becomes cancellable via [`cancel_timer`](Self::cancel_timer)
    /// until it pops.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn push_timer(&mut self, at: SimTime, seq: u64, timer_id: u64, item: T) {
        debug_assert_ne!(timer_id, NO_TIMER);
        let slot = self.push_slab(pack(at, seq), timer_id, item);
        self.timers.insert(timer_id, slot);
    }

    /// Raw-key variant of [`push_timer`](Self::push_timer).
    pub fn push_raw_timer(&mut self, key: u128, timer_id: u64, item: T) {
        debug_assert_ne!(timer_id, NO_TIMER);
        let slot = self.push_slab(key, timer_id, item);
        self.timers.insert(timer_id, slot);
    }

    /// Removes a pending timer from the queue. Returns `false` if the timer
    /// already fired or was never scheduled (cancel is then a no-op).
    pub fn cancel_timer(&mut self, timer_id: u64) -> bool {
        let Some(slot) = self.timers.remove(&timer_id) else {
            return false;
        };
        let pos = self.slab[slot as usize].heap_pos as usize;
        self.remove_heap_entry(pos);
        self.release_slot(slot);
        true
    }

    /// Removes every pending timer whose item matches `pred`, returning how
    /// many were cancelled. O(n) over the slab plus O(log n) per removal —
    /// used for rare sweeping events (a node crash cancelling every timer
    /// owned by its dead actors), not on the hot path.
    pub fn cancel_timers_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut ids = Vec::new();
        for entry in &self.slab {
            if entry.timer_id == NO_TIMER {
                continue;
            }
            if let Some(item) = &entry.item {
                if pred(item) {
                    ids.push(entry.timer_id);
                }
            }
        }
        for &id in &ids {
            self.cancel_timer(id);
        }
        ids.len()
    }

    /// Earliest pending key without removing it.
    pub fn peek_raw_key(&self) -> Option<u128> {
        let ring = self.ring.front().map(|(k, _)| *k);
        let heap = self.heap.first().map(|e| e.key);
        match (ring, heap) {
            (Some(r), Some(h)) => Some(r.min(h)),
            (Some(r), None) => Some(r),
            (None, Some(h)) => Some(h),
            (None, None) => None,
        }
    }

    /// Pops the earliest event in `(time, seq)` order.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_raw().map(|(key, item)| (key_time(key), item))
    }

    /// Pops the earliest event, returning its full packed key.
    pub fn pop_raw(&mut self) -> Option<(u128, T)> {
        // Keys are unique (per-lane seq), so a strict comparison suffices.
        let take_heap = match (self.ring.front(), self.heap.first()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((r, _)), Some(h)) => h.key < *r,
        };
        if take_heap {
            let slot = self.heap[0].slot;
            let key = self.heap[0].key;
            self.remove_heap_entry(0);
            let item = self.slab[slot as usize]
                .item
                .take()
                .expect("heap entry has an item");
            let timer_id = self.slab[slot as usize].timer_id;
            if timer_id != NO_TIMER {
                self.timers.remove(&timer_id);
            }
            self.release_slot(slot);
            Some((key, item))
        } else {
            let (key, item) = self.ring.pop_front().expect("ring checked non-empty");
            Some((key, item))
        }
    }

    fn push_slab(&mut self, key: u128, timer_id: u64, item: T) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slab[s as usize];
                e.item = Some(item);
                e.timer_id = timer_id;
                s
            }
            None => {
                self.slab.push(SlabEntry {
                    item: Some(item),
                    heap_pos: NOT_IN_HEAP,
                    timer_id,
                });
                (self.slab.len() - 1) as u32
            }
        };
        let pos = self.heap.len();
        self.heap.push(HeapEntry { key, slot });
        self.slab[slot as usize].heap_pos = pos as u32;
        self.sift_up(pos);
        self.peak_len = self.peak_len.max(self.len());
        slot
    }

    fn release_slot(&mut self, slot: u32) {
        let e = &mut self.slab[slot as usize];
        e.item = None;
        e.timer_id = NO_TIMER;
        e.heap_pos = NOT_IN_HEAP;
        self.free.push(slot);
    }

    /// Removes the heap entry at `pos`, restoring the heap property.
    fn remove_heap_entry(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        if pos != last {
            self.heap.swap(pos, last);
            self.slab[self.heap[pos].slot as usize].heap_pos = pos as u32;
        }
        self.heap.pop();
        if pos < self.heap.len() {
            // The moved entry may need to go either direction.
            let pos = self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[pos].key >= self.heap[parent].key {
                break;
            }
            self.swap_entries(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) -> usize {
        let len = self.heap.len();
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= len {
                return pos;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                if self.heap[c].key < self.heap[best].key {
                    best = c;
                }
            }
            if self.heap[best].key >= self.heap[pos].key {
                return pos;
            }
            self.swap_entries(pos, best);
            pos = best;
        }
    }

    #[inline]
    fn swap_entries(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slab[self.heap[a].slot as usize].heap_pos = a as u32;
        self.slab[self.heap[b].slot as usize].heap_pos = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    /// Drains the queue, returning the items in pop order.
    fn drain(q: &mut EventQueue<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut last = None;
        while let Some((at, item)) = q.pop() {
            if let Some(prev) = last {
                assert!(at >= prev, "time went backwards");
            }
            last = Some(at);
            out.push(item);
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 1, 301);
        q.push(t(10), 2, 102);
        q.push(t(20), 3, 203);
        q.push(t(10), 4, 104);
        assert_eq!(drain(&mut q), vec![102, 104, 203, 301]);
        assert!(q.is_empty());
    }

    #[test]
    fn ring_interleaves_with_heap_by_seq() {
        // Same-tick ring entries and zero-delay heap timers at the same
        // time must interleave by seq, not by which structure holds them.
        let mut q = EventQueue::new();
        q.push_same_tick(t(0), 1, 1);
        q.push_timer(t(0), 2, 77, 2);
        q.push_same_tick(t(0), 3, 3);
        q.push(t(5), 4, 4);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cancel_removes_the_entry_for_real() {
        let mut q = EventQueue::new();
        q.push_timer(t(10), 1, 5, 50);
        q.push_timer(t(20), 2, 6, 60);
        q.push(t(30), 3, 70);
        assert_eq!(q.len(), 3);
        assert!(q.cancel_timer(5));
        assert_eq!(q.len(), 2, "cancellation must shrink the queue");
        assert!(!q.cancel_timer(5), "double cancel is a no-op");
        assert_eq!(drain(&mut q), vec![60, 70]);
    }

    #[test]
    fn cancelled_timer_slot_is_reused() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push_timer(t(1000 + i), i + 1, i + 1, i);
            assert!(q.cancel_timer(i + 1));
        }
        assert!(q.is_empty());
        assert!(
            q.peak_len() <= 1,
            "schedule/cancel churn must not accumulate entries, peak {}",
            q.peak_len()
        );
    }

    #[test]
    fn cancel_timers_where_sweeps_matching_timers_only() {
        let mut q = EventQueue::new();
        // Items are plain u64s; sweep the odd ones.
        q.push_timer(t(10), 1, 1, 11);
        q.push_timer(t(20), 2, 2, 22);
        q.push_timer(t(30), 3, 3, 33);
        q.push(t(40), 4, 55); // a delivery matching the predicate: untouched
        let removed = q.cancel_timers_where(|item| item % 2 == 1);
        assert_eq!(removed, 2);
        assert_eq!(drain(&mut q), vec![22, 55]);
        assert!(!q.cancel_timer(1), "swept timers are really gone");
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut q = EventQueue::new();
        q.push_timer(t(1), 1, 9, 90);
        assert_eq!(q.pop().map(|(_, i)| i), Some(90));
        assert!(!q.cancel_timer(9));
    }

    #[test]
    fn peek_key_sees_earliest_of_ring_and_heap() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.push(t(50), 7, 1);
        assert_eq!(q.peek_key(), Some((t(50), 7)));
        q.push_same_tick(t(50), 3, 2);
        assert_eq!(q.peek_key(), Some((t(50), 3)));
        q.pop();
        assert_eq!(q.peek_key(), Some((t(50), 7)));
    }

    #[test]
    fn out_of_order_same_tick_push_diverts_to_heap() {
        // Lane-structured sub-keys mean a same-instant push can carry a
        // smaller key than the ring's back entry; it must still pop in key
        // order (via the heap), not break the ring's FIFO invariant.
        let mut q = EventQueue::new();
        q.push_same_tick(t(0), 5, 50);
        q.push_same_tick(t(0), 2, 20); // smaller key after larger: diverted
        q.push_same_tick(t(0), 7, 70);
        assert_eq!(drain(&mut q), vec![20, 50, 70]);
    }

    #[test]
    fn randomized_against_reference_sort() {
        // Deterministic LCG; no external randomness in tests.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut seq = 0u64;
        let mut live_timers = Vec::new();
        for round in 0..2000u64 {
            seq += 1;
            let at = t(next() % 10_000);
            match next() % 4 {
                0 | 1 => {
                    q.push(at, seq, seq);
                    expected.push((at, seq));
                }
                2 => {
                    q.push_timer(at, seq, seq, seq);
                    expected.push((at, seq));
                    live_timers.push(seq);
                }
                _ => {
                    if let Some(id) = live_timers.pop() {
                        assert!(q.cancel_timer(id));
                        expected.retain(|&(_, s)| s != id);
                    } else {
                        q.push(at, seq, seq);
                        expected.push((at, seq));
                    }
                }
            }
            let _ = round;
        }
        expected.sort();
        let got = drain(&mut q);
        let want: Vec<u64> = expected.iter().map(|&(_, s)| s).collect();
        assert_eq!(got, want);
    }
}
