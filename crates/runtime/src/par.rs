//! Shared-nothing parallel vocabulary: the primitives behind the
//! cluster's epoch-parallel shard lanes.
//!
//! The build environment has no crates.io access, so there is no `rayon`
//! and no `crossbeam`: everything here is built on `std::thread::scope`,
//! atomics and `UnsafeCell`. Three pieces:
//!
//! * [`DisjointSlice`] — a slice whose elements are mutated from several
//!   threads under a *disjoint-index* contract. It backs the cluster's
//!   shard lanes (each lane owned by one worker thread during an epoch,
//!   by the coordinator between epochs) and their per-task readiness
//!   state (each task's cells owned by its placement lane's thread).
//!   Debug builds check the contract with per-element claim tags.
//! * [`PhaseCell`] — a single value handed back and forth between threads
//!   at barrier-separated phases (the epoch control block).
//! * [`SpinBarrier`] — a sense-reversing spinning barrier with panic
//!   poisoning, cheap enough to sit inside a simulation epoch loop where
//!   `std::sync::Barrier`'s mutex/condvar round trip would dominate.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(debug_assertions)]
use std::sync::OnceLock;

/// A slice shared across threads under a disjoint-access contract.
///
/// Wraps `&mut [T]` so that multiple threads can each mutate *their own*
/// elements without locks. The wrapper itself enforces nothing beyond
/// bounds checks — soundness rests entirely on the caller's discipline,
/// which is why [`DisjointSlice::get`] is `unsafe`.
///
/// # Safety contract
///
/// For every index `i`, at most one thread may hold the `&mut T` returned
/// by `get(i)` at a time, and handing an index from one thread to another
/// must happen across a synchronisation point (a barrier wait, a scoped
/// join, an atomic acquire/release pair) so the writes are visible.
///
/// Between two [`DisjointSlice::as_mut_slice`] calls an index belongs to
/// the first thread that calls `get` on it; debug builds tag each element
/// with that thread and panic when another thread claims it. Release
/// builds carry no tags. The tags cost a debug build one zeroed atomic
/// per element, allocated on the first `get` of each wrapper, so a
/// wrapper built per call (the cluster builds its per-task ones once per
/// drive) pays O(len) there.
///
/// The cluster's epoch engine satisfies the contract structurally: each
/// lane (and each task's readiness state, owned by the task's placement
/// lane) is touched by exactly one worker thread during an epoch's
/// compute phase, and only by the coordinator — through `as_mut_slice` —
/// between the two barrier waits that delimit it.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
    /// Per-element owner tags (0 = unclaimed), debug builds only;
    /// allocated by the first `get`.
    #[cfg(debug_assertions)]
    owners: OnceLock<Box<[AtomicU64]>>,
}

/// A nonzero tag naming the calling thread, for the debug claim check.
#[cfg(debug_assertions)]
fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

// SAFETY: sending `&DisjointSlice` to another thread only grants access
// through the `unsafe` accessors, whose contract (disjoint indices,
// synchronised hand-off) is exactly what makes cross-thread `&mut T`
// sound. `T: Send` is required because elements are mutated from (and
// may be dropped on) threads other than the owner's. The debug claim
// tags are atomics, safe to share as they are.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps a mutable slice for disjoint multi-threaded access.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
            #[cfg(debug_assertions)]
            owners: OnceLock::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    ///
    /// The caller must uphold the type's disjoint-access contract: no
    /// other thread may access index `i` while the returned borrow lives,
    /// and cross-thread hand-offs of an index must be synchronised.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds, and in debug builds when another
    /// thread claimed `i` since the last [`DisjointSlice::as_mut_slice`].
    #[allow(clippy::mut_from_ref)] // the whole point, governed by the contract
    pub unsafe fn get(&self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        // The tags publish no data (the contract's synchronisation point
        // orders every hand-off), so relaxed ordering suffices.
        #[cfg(debug_assertions)]
        {
            let me = thread_tag();
            let owners = self
                .owners
                .get_or_init(|| (0..self.len).map(|_| AtomicU64::new(0)).collect());
            if let Err(owner) =
                owners[i].compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
            {
                assert!(
                    owner == me,
                    "DisjointSlice index {i} claimed by two threads"
                );
            }
        }
        &mut *self.ptr.add(i)
    }

    /// The whole slice, mutably. Clears every element's claim, so the
    /// next epoch's threads may claim afresh.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to *every* index for the
    /// lifetime of the returned borrow — the coordinator-between-barriers
    /// position, when all worker threads are parked.
    #[allow(clippy::mut_from_ref)] // the whole point, governed by the contract
    pub unsafe fn as_mut_slice(&self) -> &mut [T] {
        #[cfg(debug_assertions)]
        for owner in self.owners.get().into_iter().flatten() {
            owner.store(0, Ordering::Relaxed);
        }
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

impl<T> std::fmt::Debug for DisjointSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DisjointSlice(len={})", self.len)
    }
}

/// A single value handed between threads at barrier-separated phases.
///
/// The multi-value counterpart is [`DisjointSlice`]; `PhaseCell` is the
/// one-element case (e.g. an epoch control block written by a coordinator
/// thread and read by workers after a barrier).
pub struct PhaseCell<T> {
    cell: UnsafeCell<T>,
}

// SAFETY: same argument as `DisjointSlice` with a single element.
unsafe impl<T: Send> Sync for PhaseCell<T> {}

impl<T> PhaseCell<T> {
    /// Wraps a value for phase-disciplined shared access.
    pub fn new(value: T) -> Self {
        PhaseCell {
            cell: UnsafeCell::new(value),
        }
    }

    /// Mutable access to the value.
    ///
    /// # Safety
    ///
    /// At most one thread may hold the returned borrow at a time, and
    /// hand-offs between threads must cross a synchronisation point.
    #[allow(clippy::mut_from_ref)] // the whole point, governed by the contract
    pub unsafe fn get(&self) -> &mut T {
        &mut *self.cell.get()
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }
}

impl<T> std::fmt::Debug for PhaseCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseCell")
    }
}

/// A sense-reversing spinning barrier with panic poisoning.
///
/// Simulation epochs are microseconds long, so the barrier at each epoch
/// edge must cost nanoseconds, not a mutex/condvar round trip. Waiters
/// spin with [`std::hint::spin_loop`], falling back to
/// [`std::thread::yield_now`] so oversubscribed machines (more waiters
/// than cores) still make progress.
///
/// A thread that observes a panic in its phase work calls
/// [`SpinBarrier::poison`]; every current and future waiter then panics
/// instead of spinning forever on a participant that will never arrive.
#[derive(Debug)]
pub struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    total: usize,
}

impl SpinBarrier {
    /// A barrier for `total` participating threads.
    ///
    /// # Panics
    ///
    /// Panics when `total` is zero.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a barrier needs at least one participant");
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            total,
        }
    }

    /// Marks the barrier poisoned: every waiter panics out of its spin.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Blocks until all `total` participants have called `wait` for this
    /// generation; returns `true` on exactly one of them (the last
    /// arriver). The release/acquire pair on the generation counter makes
    /// every write performed before a participant's `wait` visible to all
    /// participants after it — the hand-off edge [`DisjointSlice`] and
    /// [`PhaseCell`] users rely on.
    ///
    /// # Panics
    ///
    /// Panics when the barrier is (or becomes) poisoned.
    pub fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.total {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::Release);
            if self.poisoned.load(Ordering::Acquire) {
                panic!("spin barrier poisoned by a panicking participant");
            }
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if self.poisoned.load(Ordering::Acquire) {
                panic!("spin barrier poisoned by a panicking participant");
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // Oversubscribed (or the leader is descheduled): yield the
                // core instead of burning it.
                std::thread::yield_now();
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            panic!("spin barrier poisoned by a panicking participant");
        }
        false
    }
}

/// The default worker-thread count: the machine's available parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn disjoint_slice_cursor_claims_are_exclusive() {
        // A work-queue shape: an atomic cursor hands out indices, each
        // written exactly once from whichever thread claimed it.
        let mut out = vec![0u64; 1000];
        let cursor = AtomicUsize::new(0);
        let slots = DisjointSlice::new(&mut out);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    // SAFETY: the cursor hands each index to one thread;
                    // the scoped join publishes the writes.
                    unsafe { *slots.get(i) = i as u64 * 3 };
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_bounds_checked() {
        let mut v = vec![0u8; 4];
        let s = DisjointSlice::new(&mut v);
        // SAFETY: single-threaded access.
        unsafe {
            s.get(4);
        }
    }

    #[test]
    fn spin_barrier_phases_hand_off_writes() {
        // Coordinator/worker shape: workers fill their lanes, the
        // coordinator sums between barriers, workers read the published
        // total next phase.
        const THREADS: usize = 4;
        const ROUNDS: usize = 50;
        let barrier = SpinBarrier::new(THREADS);
        let mut lanes = vec![0u64; THREADS];
        let shared = DisjointSlice::new(&mut lanes);
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let barrier = &barrier;
                let shared = &shared;
                let total = &total;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // SAFETY: lane `tid` is this thread's alone during
                        // the compute phase.
                        unsafe { *shared.get(tid) = (round * (tid + 1)) as u64 };
                        if barrier.wait() {
                            // SAFETY: every worker is parked between the
                            // two waits; the leader owns all lanes.
                            let sum: u64 = unsafe { shared.as_mut_slice() }.iter().sum();
                            total.store(sum, Ordering::Release);
                        }
                        barrier.wait();
                        let expect = (round * THREADS * (THREADS + 1) / 2) as u64;
                        assert_eq!(total.load(Ordering::Acquire), expect);
                    }
                });
            }
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    fn disjoint_slice_debug_claims_catch_a_second_thread() {
        let mut v = vec![0u32; 2];
        let s = DisjointSlice::new(&mut v);
        let second = std::thread::scope(|scope| {
            // SAFETY (both threads): the joins order the two accesses; the
            // second one breaks the one-owner-per-claim contract on
            // purpose, which the debug tags must catch.
            scope.spawn(|| unsafe { *s.get(0) = 1 }).join().unwrap();
            scope.spawn(|| unsafe { *s.get(0) = 2 }).join()
        });
        let msg = second.expect_err("a second thread's claim must panic");
        let msg = msg.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("claimed by two threads"), "got: {msg}");
        // The coordinator's whole-slice access resets the claims.
        // SAFETY: no other thread holds an element.
        assert_eq!(unsafe { s.as_mut_slice() }, &[1, 0]);
        std::thread::scope(|scope| {
            // SAFETY: index 0 is unclaimed again; one thread takes it.
            scope.spawn(|| unsafe { *s.get(0) = 3 }).join().unwrap();
        });
        assert_eq!(v, [3, 0]);
    }

    #[test]
    fn poisoned_barrier_releases_waiters() {
        let barrier = SpinBarrier::new(2);
        let r = std::thread::scope(|scope| {
            let h = scope.spawn(|| barrier.wait());
            std::thread::sleep(std::time::Duration::from_millis(5));
            barrier.poison();
            h.join()
        });
        assert!(r.is_err(), "waiter must panic out of a poisoned barrier");
    }

    #[test]
    fn phase_cell_roundtrip() {
        let cell = PhaseCell::new(7u32);
        // SAFETY: single-threaded access.
        unsafe {
            *cell.get() += 1;
        }
        assert_eq!(cell.into_inner(), 8);
    }
}
