//! The threaded Algorithm 1 and Algorithm 2 locks allocate nothing once
//! warmed up.  Algorithm 1's line-4 snapshot reuses the automaton's view
//! buffer and the register handle's two collect buffers, and so does the
//! snapshot of a withdraw; Algorithm 2's line-3 collect reuses a spare
//! buffer of the thread's.
//!
//! A counting global allocator counts the calls each thread makes, so
//! the test harness's own threads cannot disturb the measured one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amx_core::lock::BuildLock;
use amx_core::{MutexSpec, RmwAnonLock, RwAnonLock};
use amx_registers::Adversary;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by
    /// this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other work is a
// const-initialized thread-local `Cell` update that neither allocates
// nor re-enters the allocator (`try_with` skips it during thread
// teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocations();
    let v = std::hint::black_box(vec![0u8; 16]);
    assert_eq!(allocations() - before, 1);
    drop(v);
}

#[test]
fn steady_state_alg1_lock_unlock_allocates_nothing() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let mut parts = RwAnonLock::with_participants(spec, &Adversary::Random(1)).unwrap();
    let p = &mut parts[0];
    // Warm-up: the first snapshot sizes the view and collect buffers.
    for _ in 0..10 {
        drop(p.lock());
    }
    let before = allocations();
    for _ in 0..1_000 {
        drop(std::hint::black_box(p.lock()));
    }
    let per_1000 = allocations() - before;
    assert_eq!(
        per_1000, 0,
        "1,000 warmed-up Alg 1 (2, 3) lock/unlock cycles allocated {per_1000} times"
    );
    assert_eq!(p.entries(), 1_010);
}

#[test]
fn steady_state_alg2_lock_unlock_allocates_nothing() {
    let spec = MutexSpec::rmw(2, 3).unwrap();
    let mut parts = RmwAnonLock::with_participants(spec, &Adversary::Random(1)).unwrap();
    let p = &mut parts[0];
    // Warm-up: the first read loop sizes the thread's collect buffer.
    for _ in 0..10 {
        drop(p.lock());
    }
    let before = allocations();
    for _ in 0..1_000 {
        drop(std::hint::black_box(p.lock()));
    }
    let per_1000 = allocations() - before;
    assert_eq!(
        per_1000, 0,
        "1,000 warmed-up Alg 2 (2, 3) lock/unlock cycles allocated {per_1000} times"
    );
    assert_eq!(p.entries(), 1_010);
}

#[test]
fn warmed_up_alg1_withdraw_allocates_nothing() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let mut parts = RwAnonLock::with_participants(spec, &Adversary::Random(1)).unwrap();
    let p = &mut parts[0];
    for _ in 0..10 {
        drop(p.lock());
    }
    let before = allocations();
    for _ in 0..100 {
        // Three steps claim a register and leave the attempt pending.
        assert!(std::hint::black_box(p.try_lock_steps(3)).is_none());
        p.withdraw();
    }
    let per_100 = allocations() - before;
    assert_eq!(
        per_100, 0,
        "100 warmed-up Alg 1 (2, 3) try_lock_steps(3) + withdraw() calls allocated {per_100} times"
    );
    assert_eq!(p.counters().snapshot_counts().writes, 10 * 6 + 100 * 2);
}
