//! Allocation budget of one satisfiability probe.
//!
//! A probe narrows one region in place and keeps every level's live
//! exclusions in one array, and both buffers are its thread's, reused
//! from the previous probe. So once a probe has run on the thread, a
//! refuted probe allocates nothing and a satisfiable one allocates only
//! its witness, however deep it recurses. Both instances below are
//! chains: `k` strips tile the x axis, and every level of the search
//! excludes one more strip, so the search runs `k` levels deep. A
//! counting global allocator measures the probe at 4 and at 16 strips.

use pc_predicate::{sat, Atom, AttrType, Predicate, Region, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations. Tests run on parallel threads, so a
/// process-wide counter would also count the other tests' work.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations belong to no probe.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a `const`-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the arguments are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The strips `x ∈ [i, i+1] ∧ y ∈ [-1, 2]` for `i < k`, and the base
/// `x ∈ [0, k + gap] ∧ y ∈ [0, 1]`: covered when `gap` is 0, otherwise
/// satisfiable only past the last strip.
fn strips(k: usize, gap: f64) -> (Region, Vec<Predicate>) {
    let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
    let mut base = Region::full(&schema);
    base.intersect_atom(&Atom::between(0, 0.0, k as f64 + gap));
    base.intersect_atom(&Atom::between(1, 0.0, 1.0));
    let negs = (0..k)
        .map(|i| {
            Predicate::always()
                .and(Atom::between(0, i as f64, i as f64 + 1.0))
                .and(Atom::between(1, -1.0, 2.0))
        })
        .collect();
    (base, negs)
}

/// Allocations of one `find_witness` call on the `k`-strip instance,
/// after one warm-up probe of it on this thread, and whether it found a
/// witness.
fn probe_allocs(k: usize, gap: f64) -> (u64, bool) {
    let (base, negs) = strips(k, gap);
    let refs: Vec<&Predicate> = negs.iter().collect();
    sat::find_witness(&base, &refs);
    let (allocs, witness) = allocs_during(|| sat::find_witness(&base, &refs));
    (allocs, witness.is_some())
}

#[test]
fn covered_probe_allocations_do_not_grow_with_depth() {
    let (shallow, sat4) = probe_allocs(4, 0.0);
    let (deep, sat16) = probe_allocs(16, 0.0);
    assert!(!sat4 && !sat16, "the strips cover the base");
    assert!(
        deep <= shallow,
        "16 exclusions allocated {deep} times, 4 exclusions {shallow}"
    );
    assert_eq!((shallow, deep), (0, 0), "a refuted probe allocates nothing");
}

#[test]
fn uncovered_probe_allocations_do_not_grow_with_depth() {
    let (shallow, sat4) = probe_allocs(4, 0.5);
    let (deep, sat16) = probe_allocs(16, 0.5);
    assert!(sat4 && sat16, "the base reaches past the last strip");
    assert!(
        deep <= shallow,
        "16 exclusions allocated {deep} times, 4 exclusions {shallow}"
    );
    assert_eq!(
        (shallow, deep),
        (1, 1),
        "a satisfiable probe allocates only its witness"
    );
}
