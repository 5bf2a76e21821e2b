//! [`SwapCell`]: a wait-free-read publication cell for `Arc<T>`.
//!
//! The daemon's readers used to grab the published snapshot by cloning
//! an `Arc` under a mutex. The critical section was two refcount bumps —
//! but under hundreds of reader threads the *lock itself* is the
//! contention point, and one descheduled lock holder convoys everyone.
//! This cell removes the lock from the read path entirely:
//!
//! * [`SwapCell::load`] is two atomic RMWs and an `Arc::clone` — no
//!   locks, no spinning, no allocation. Readers never wait on the writer
//!   or on each other.
//! * [`SwapCell::store`] (the single writer in `mcm-serve`, though any
//!   number of writers is safe) swaps the head pointer and reclaims old
//!   values once their registered readers have drained. Writers serialize
//!   on a mutex readers never touch.
//!
//! ## How reclamation works (external counting)
//!
//! The naive lock-free design — `AtomicPtr` + "load pointer, then bump
//! its refcount" — has a classic use-after-free window between the load
//! and the bump. The standard fix is to count readers *outside* the
//! object: the head word packs `{slot index, reader registrations}`, so
//! a reader's single `fetch_add` atomically both picks the current slot
//! and registers itself on it. When the writer swaps the head it learns
//! exactly how many readers ever registered on the outgoing slot; the
//! slot's value is dropped only after that many readers have bumped the
//! slot's `done` counter (which each does *after* cloning the `Arc`).
//! Nothing is freed while any reader is mid-`load`.
//!
//! 48 bits of registration count per published value and 16 bits of slot
//! index bound the design: a value would need 2^48 concurrent-era reads
//! before its counter could overflow, and the writer recycles among
//! [`SLOTS`] slots (it spins only in the pathological case where every
//! slot is still pinned by an in-flight reader).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const IDX_SHIFT: u32 = 48;
const COUNT_MASK: u64 = (1u64 << IDX_SHIFT) - 1;
/// Slots the writer cycles through; readers pin a slot only for the
/// nanoseconds a clone takes, so this never runs dry in practice.
const SLOTS: usize = 64;
/// `expected` sentinel: the slot is live (or free) — not yet retired.
const LIVE: u64 = u64::MAX;

struct Slot<T> {
    val: UnsafeCell<Option<Arc<T>>>,
    /// Readers that have finished cloning out of this slot.
    done: AtomicU64,
    /// Total readers that ever registered on this slot; written once at
    /// retirement ([`LIVE`] until then).
    expected: AtomicU64,
    free: AtomicBool,
}

/// Lock-free snapshot cell: wait-free `Arc` reads, mutex-serialized
/// writes, deferred reclamation via external reader counting.
pub struct SwapCell<T> {
    /// `{slot index : 16 | reader registrations on that slot : 48}`.
    head: AtomicU64,
    slots: Box<[Slot<T>]>,
    /// Retired slot indices awaiting reclamation. Writer-side only — the
    /// read path never touches this mutex.
    retired: Mutex<Vec<usize>>,
}

// SAFETY: the external-counting protocol (see module docs) guarantees a
// slot's value is only dropped/overwritten when no reader can reach it;
// readers only ever clone `Arc<T>`, so `T: Send + Sync` suffices.
unsafe impl<T: Send + Sync> Send for SwapCell<T> {}
unsafe impl<T: Send + Sync> Sync for SwapCell<T> {}

impl<T> SwapCell<T> {
    /// A cell initially publishing `value`.
    pub fn new(value: Arc<T>) -> Self {
        let slots: Box<[Slot<T>]> = (0..SLOTS)
            .map(|i| Slot {
                val: UnsafeCell::new(if i == 0 { Some(value.clone()) } else { None }),
                done: AtomicU64::new(0),
                expected: AtomicU64::new(LIVE),
                free: AtomicBool::new(i != 0),
            })
            .collect();
        SwapCell { head: AtomicU64::new(0), slots, retired: Mutex::new(Vec::new()) }
    }

    /// The currently published value. Wait-free: two atomic RMWs and an
    /// `Arc::clone`, regardless of writer activity or reader count.
    pub fn load(&self) -> Arc<T> {
        // One fetch_add atomically picks the current slot AND registers
        // this reader on it: any subsequent store() observes our
        // registration in the count it swaps out, so the slot cannot be
        // reclaimed until our matching `done` bump below.
        let prev = self.head.fetch_add(1, Ordering::Acquire);
        let idx = (prev >> IDX_SHIFT) as usize;
        let slot = &self.slots[idx];
        // SAFETY: the registration above pins the slot (reclamation
        // requires done == expected, and expected includes us); the
        // Acquire read of head sees the store()'s value write.
        let arc = unsafe { (*slot.val.get()).as_ref().expect("published slot is live").clone() };
        slot.done.fetch_add(1, Ordering::Release);
        arc
    }

    /// Publishes `value`; the previous value is dropped once the readers
    /// registered on it have drained. Writers serialize on an internal
    /// mutex; readers are never blocked by a store.
    pub fn store(&self, value: Arc<T>) {
        let mut retired = self.retired.lock().unwrap();
        let idx = loop {
            self.reclaim(&mut retired);
            if let Some(i) = self.slots.iter().position(|s| s.free.load(Ordering::Relaxed)) {
                break i;
            }
            // Every slot pinned by an in-flight reader: yield and retry.
            std::thread::yield_now();
        };
        let slot = &self.slots[idx];
        slot.free.store(false, Ordering::Relaxed);
        slot.done.store(0, Ordering::Relaxed);
        slot.expected.store(LIVE, Ordering::Relaxed);
        // SAFETY: the slot was free — no reader can hold its index (all
        // registered readers drained before it was freed) and head does
        // not point at it, so this write is unobservable until the swap.
        unsafe { *slot.val.get() = Some(value) };
        let old = self.head.swap((idx as u64) << IDX_SHIFT, Ordering::AcqRel);
        let old_idx = (old >> IDX_SHIFT) as usize;
        // The swap closed registration on the old slot: exactly this many
        // readers ever saw it, and no more can.
        self.slots[old_idx].expected.store(old & COUNT_MASK, Ordering::Release);
        retired.push(old_idx);
        self.reclaim(&mut retired);
    }

    /// Drops retired values whose registered readers have all finished.
    fn reclaim(&self, retired: &mut Vec<usize>) {
        retired.retain(|&idx| {
            let slot = &self.slots[idx];
            let expected = slot.expected.load(Ordering::Acquire);
            if expected == LIVE || slot.done.load(Ordering::Acquire) != expected {
                return true; // still pinned
            }
            // SAFETY: every reader that ever registered has bumped
            // `done` (Release) after its clone; our Acquire loads order
            // those clones before this drop. No new reader can register:
            // head moved away at retirement.
            unsafe { *slot.val.get() = None };
            slot.done.store(0, Ordering::Relaxed);
            slot.free.store(true, Ordering::Release);
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn load_returns_what_was_stored() {
        let cell = SwapCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn old_values_are_reclaimed_not_leaked() {
        let cell = SwapCell::new(Arc::new(String::from("a")));
        let weak_a = Arc::downgrade(&cell.load());
        cell.store(Arc::new(String::from("b"))); // retires a's slot
        cell.store(Arc::new(String::from("c"))); // reclaim pass drops a
        assert!(weak_a.upgrade().is_none(), "value a must be dropped once unpinned");
        assert_eq!(*cell.load(), "c");
    }

    #[test]
    fn slot_churn_far_beyond_capacity() {
        let cell = SwapCell::new(Arc::new(0usize));
        for i in 1..=10 * SLOTS {
            cell.store(Arc::new(i));
            assert_eq!(*cell.load(), i);
        }
    }

    #[test]
    fn held_guards_pin_their_value_across_many_stores() {
        let cell = SwapCell::new(Arc::new(0usize));
        let pinned = cell.load();
        for i in 1..=3 * SLOTS {
            cell.store(Arc::new(i));
        }
        assert_eq!(*pinned, 0, "a held Arc survives unbounded later publishes");
        assert_eq!(*cell.load(), 3 * SLOTS);
    }

    #[test]
    fn hammer_concurrent_readers_see_monotonic_sequence() {
        // One writer publishes 0..N in order; readers assert they never
        // observe the sequence going backwards and never touch freed
        // memory (the payload validates itself). The writer starts only
        // once every reader has loaded, so a loaded host cannot finish
        // all stores before any reader is scheduled.
        const N: usize = 4000;
        struct Payload {
            seq: usize,
            check: usize,
        }
        let cell = Arc::new(SwapCell::new(Arc::new(Payload { seq: 0, check: !0 })));
        let stop = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                let reads = reads.clone();
                let started = started.clone();
                std::thread::spawn(move || {
                    let mut p = cell.load();
                    started.wait();
                    let mut last = 0usize;
                    loop {
                        assert_eq!(p.seq ^ p.check, !0, "torn or freed payload");
                        assert!(p.seq >= last, "sequence went backwards: {} < {last}", p.seq);
                        last = p.seq;
                        reads.fetch_add(1, Ordering::Relaxed);
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        p = cell.load();
                    }
                })
            })
            .collect();
        started.wait();
        for i in 1..=N {
            cell.store(Arc::new(Payload { seq: i, check: i ^ !0 }));
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(cell.load().seq, N);
        assert!(reads.load(Ordering::Relaxed) > 0, "readers must have run");
    }
}
