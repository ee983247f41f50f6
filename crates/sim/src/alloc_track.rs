//! Forwarding-path allocation accounting.
//!
//! "Heap allocations per forwarded data packet" is measured, not
//! asserted, and this module is how. Routers bracket their data
//! forwarding code in a [`scope`] guard and tick [`note_forward`] per
//! packet; a binary that installs [`CountingAllocator`] as its
//! `#[global_allocator]` (`tests/zero_alloc.rs` in `dcn-experiments`)
//! then counts every allocation landing inside a scope. The quotient
//! `scoped_allocs() / forwarded()` is the honest per-packet figure:
//! endpoint work (packet generation, terminal host delivery) and engine
//! bookkeeping stay outside the scope. Scopes nest, so one held around a
//! whole `run_until` counts every allocation of the run instead — how the
//! same test binary pins the edges' one-buffer-per-frame budgets.
//!
//! With no counting allocator installed (the normal case: library tests,
//! the simulation proper) the cost is two thread-local stores per
//! forwarded packet and the allocation counter simply stays zero —
//! [`counting_allocator_installed`] lets reports distinguish "measured
//! zero" from "not measured".
//!
//! The scope flag and both totals are per-thread. A simulation forwards
//! on the thread that calls `run_until`, so a measurement is
//! [`reset`] → run → read, all on one thread, and concurrent
//! measurements — parallel test threads, campaign pool workers — cannot
//! see or zero each other's counts. A `#[global_allocator]` runs before —
//! and during — thread-local teardown, so the state is const-initialized
//! `Cell`s (no lazy init, no destructor registration on read) which the
//! allocator reads with `try_with`, treating a thread that is tearing
//! down as "not in scope".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

thread_local! {
    /// Forwarding-scope nesting depth of the current thread. Const-init
    /// keeps first access allocation-free, which matters inside the
    /// global allocator.
    static SCOPE_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Allocations this thread made inside forwarding scopes.
    static SCOPED_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Data packets this thread forwarded.
    static FORWARDED: Cell<u64> = const { Cell::new(0) };
}

static INSTALLED: AtomicBool = AtomicBool::new(false);

/// RAII guard marking the current extent as forwarding-path code.
/// Nested scopes are harmless (depth-counted); guards are per-thread and
/// must be dropped on the thread that created them (they are `!Send` by
/// construction).
pub struct ScopeGuard {
    /// Guards are thread-affine; forbid sending one across threads.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Enter a forwarding scope: allocations on *this thread* until the
/// guard drops are charged to the forwarding path.
#[inline]
pub fn scope() -> ScopeGuard {
    SCOPE_DEPTH.with(|d| d.set(d.get() + 1));
    ScopeGuard { _not_send: std::marker::PhantomData }
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        SCOPE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Record one forwarded data packet (the denominator).
#[inline]
pub fn note_forward() {
    FORWARDED.with(|c| c.set(c.get() + 1));
}

/// Zero this thread's counters (start of a measurement window).
pub fn reset() {
    SCOPED_ALLOCS.with(|c| c.set(0));
    FORWARDED.with(|c| c.set(0));
}

/// Allocations this thread made inside forwarding scopes since
/// [`reset`].
pub fn scoped_allocs() -> u64 {
    SCOPED_ALLOCS.with(Cell::get)
}

/// Packets this thread forwarded since [`reset`].
pub fn forwarded() -> u64 {
    FORWARDED.with(Cell::get)
}

/// Has a [`CountingAllocator`] observed any allocation in this process?
/// `false` means `scoped_allocs()` is trivially zero and must not be
/// reported as a measurement.
pub fn counting_allocator_installed() -> bool {
    INSTALLED.load(Relaxed)
}

/// A `System`-delegating allocator that attributes allocations to the
/// active forwarding scope of the allocating thread. Install in a
/// *binary* (never a library):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: dcn_sim::alloc_track::CountingAllocator =
///     dcn_sim::alloc_track::CountingAllocator;
/// ```
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn count(&self) {
        if !INSTALLED.load(Relaxed) {
            INSTALLED.store(true, Relaxed);
        }
        // `try_with` instead of `with`: the allocator is reachable while
        // this thread's TLS is being torn down, where access fails —
        // teardown allocations are engine bookkeeping, not forwarding.
        let in_scope = SCOPE_DEPTH.try_with(|d| d.get() > 0).unwrap_or(false);
        if in_scope {
            let _ = SCOPED_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: pure delegation to `System`; the counters never allocate
// (all state is const-initialized thread-local `Cell`s). The workspace's
// only `unsafe`: every other crate root forbids it, dcn-sim's denies it.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow that moves is a fresh allocation from the forwarding
        // path's point of view.
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_scope() -> bool {
        SCOPE_DEPTH.with(|d| d.get() > 0)
    }

    #[test]
    fn scope_nesting_restores_state() {
        assert!(!in_scope());
        {
            let _a = scope();
            assert!(in_scope());
            {
                let _b = scope();
                assert!(in_scope());
            }
            assert!(in_scope(), "inner guard restored outer scope");
        }
        assert!(!in_scope());
    }

    #[test]
    fn scopes_are_thread_local() {
        let _outer = scope();
        assert!(in_scope());
        // A worker thread starts outside any scope regardless of the
        // spawning thread's state, and its own guards don't leak back.
        std::thread::spawn(|| {
            assert!(!in_scope(), "scope must not leak into worker threads");
            let _inner = scope();
            assert!(in_scope());
        })
        .join()
        .unwrap();
        assert!(in_scope(), "worker scopes must not clobber the spawner");
    }

    #[test]
    fn concurrent_threads_count_only_their_own_forwards() {
        // Both threads reset, then count between the same two barriers,
        // so every `note_forward` of one overlaps the other's window.
        let barrier = std::sync::Barrier::new(2);
        let count = |n: u64| {
            reset();
            barrier.wait();
            for _ in 0..n {
                note_forward();
            }
            barrier.wait();
            // No counting allocator in unit tests: scoped allocs stay zero.
            (forwarded(), scoped_allocs())
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| count(3));
            let b = s.spawn(|| count(5));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, (3, 0));
        assert_eq!(b, (5, 0));
    }
}
