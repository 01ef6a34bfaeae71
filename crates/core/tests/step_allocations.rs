//! Heap allocations per warm `TrackingSession::step`, counted exactly by
//! a counting global allocator.
//!
//! A warm step reuses the thread's query and climb buffers, so all it
//! allocates is the tie list the match returns. The counts are pinned: a
//! change that adds an allocation to the round fails here with the new
//! count, and a change that removes one updates the pin and says so in
//! CHANGES.md.
//!
//! Only allocations made on the test's own thread while it counts are
//! seen, so the harness's other threads cannot disturb the numbers.

use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Matching, Tracker, TrackerOptions};
use fttt::PaperParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsn_geometry::Point;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (COUNT.with(Cell::get), out)
}

/// Allocations of the fourth of four steps on groupings sampled near one
/// spot: the first three warm the session and the thread's buffers.
fn warm_step_allocations(nodes: usize, extended: bool, matching: Matching) -> usize {
    let params = PaperParams::default().with_nodes(nodes).with_cell_size(2.0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let field = params.random_field(&mut rng);
    let map = params.face_map(&field);
    let sampler = params.sampler();
    let options = TrackerOptions { extended, matching };
    let mut session = TrackingSession::new(Tracker::new(map, options), SessionOptions::new(5));
    let groups: Vec<_> = (0..4)
        .map(|i| sampler.sample(&field, Point::new(40.0 + i as f64, 55.0), &mut rng))
        .collect();
    for (i, group) in groups[..3].iter().enumerate() {
        session.step(i as f64, group);
    }
    let (count, round) = allocations(|| session.step(3.0, &groups[3]));
    assert!(round.face.is_some(), "the counted round must match");
    count
}

#[test]
fn warm_steps_allocate_only_the_tie_list() {
    let heuristic = TrackerOptions::heuristic().matching;
    let cases = [(10, false, 1), (10, true, 1), (40, false, 1), (40, true, 1)];
    let counts: Vec<usize> = cases
        .iter()
        .map(|&(nodes, extended, _)| warm_step_allocations(nodes, extended, heuristic))
        .collect();
    for (&(nodes, extended, pinned), &count) in cases.iter().zip(&counts) {
        assert_eq!(
            count, pinned,
            "n = {nodes}, extended = {extended}: {count} allocations per warm step, pinned {pinned} \
             (all cases: {counts:?})"
        );
    }
}

/// An Exhaustive-mode step runs the indexed descent every round; its
/// frontier heap is the thread's, so the round still allocates only the
/// tie list.
#[test]
fn warm_exhaustive_steps_allocate_only_the_tie_list() {
    let cases = [(10, false, 1), (10, true, 1), (40, false, 1), (40, true, 1)];
    let counts: Vec<usize> = cases
        .iter()
        .map(|&(nodes, extended, _)| warm_step_allocations(nodes, extended, Matching::Exhaustive))
        .collect();
    for (&(nodes, extended, pinned), &count) in cases.iter().zip(&counts) {
        assert_eq!(
            count, pinned,
            "n = {nodes}, extended = {extended}: {count} allocations per warm exhaustive step, \
             pinned {pinned} (all cases: {counts:?})"
        );
    }
}
