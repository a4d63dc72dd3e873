//! A collection over the continuation slab is allocation-free: a
//! counting global allocator observes zero (Rust) allocations from
//! `begin_gc` through the marks to the end of `sweep`, however many
//! records die, and the records that survive are exactly the marked ones.
//! `ctak` kills 8 192 one-shot records per cycle; a per-collection
//! snapshot of the slab's indices used to be 1.6 % of its profile.
//!
//! So is control on a warm stack, under either promotion strategy: a
//! one-shot capture and its reinstatement, and a prompt, take and push,
//! take their records, promotion flags and segments from what the last
//! collection recycled. And so is the [`Slab`] itself, which the reactor,
//! the engine host and the socket table share: once it has held its
//! high-water count, inserts and removes in any order allocate nothing.
//!
//! An integration test (its own crate) because a `GlobalAlloc` impl is
//! necessarily unsafe and the library denies unsafe code outside its
//! audited modules.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oneshot_core::{
    Config, ControlError, KontId, PromotionStrategy, Reinstated, SegStack, Slab, Underflow,
};

struct CountingAlloc;

thread_local! {
    /// Per thread, so the tests here can run side by side.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations and reallocations the calling thread has made.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Val(i64),
    Ret { pc: usize, disp: usize },
    Marker,
}

fn walker(s: &Slot) -> Option<usize> {
    match s {
        Slot::Ret { disp, .. } => Some(*disp),
        _ => None,
    }
}

const FRAME: usize = 4;
const CAPTURES: usize = 2_000;

/// Captures `CAPTURES` one-shot continuations, each of one frame on a
/// chain of its own (the stack is emptied after every capture, so no
/// record is kept alive by another's link or by the current chain), and
/// invokes every third — a shot record holds no segment, the other way a
/// record dies in `ctak`.
fn capture_round(st: &mut SegStack<Slot>) -> Vec<KontId> {
    let mut ids = Vec::with_capacity(CAPTURES);
    for i in 0..CAPTURES {
        st.push_frame(FRAME, Slot::Ret { pc: i, disp: FRAME });
        st.set(st.fp() + 1, Slot::Val(i as i64));
        st.ensure(2 * FRAME, 2, &walker);
        let k = st.capture_one(2 * FRAME).expect("a frame to capture");
        if i % 3 == 0 {
            st.reinstate(k, &walker).expect("a fresh one-shot reinstates");
        }
        st.clear_to_empty();
        ids.push(k);
    }
    ids
}

/// Every fourth record is a root.
fn kept(i: usize) -> bool {
    i % 4 == 1
}

/// One embedder-driven collection: clear marks, mark the roots (tracing
/// links as an embedder does), sweep. Returns the allocator calls made.
fn collect(st: &mut SegStack<Slot>, ids: &[KontId]) -> u64 {
    let before = alloc_calls();
    st.begin_gc();
    for (i, &id) in ids.iter().enumerate() {
        if kept(i) {
            let mut cursor = Some(id);
            while let Some(k) = cursor {
                cursor = if st.mark_kont(k) { st.kont_link(k) } else { None };
            }
        }
    }
    st.sweep(false);
    alloc_calls() - before
}

#[test]
fn a_collection_over_the_continuation_arena_performs_zero_allocations() {
    let cfg = Config { segment_slots: 64, copy_bound: 24, min_headroom: 8, ..Config::default() };
    let mut st = SegStack::new(cfg, Slot::Marker);

    // Round 1 warms the segment cache (it grows to `cache_limit` entries
    // the first time that many segments are released); nothing else a
    // collection touches can grow.
    let first = capture_round(&mut st);
    collect(&mut st, &first);
    let survivors = first.iter().enumerate().filter(|&(i, _)| kept(i)).count();
    assert_eq!(st.kont_count(), survivors);

    let second = capture_round(&mut st);
    assert_eq!(st.kont_count(), survivors + CAPTURES);
    let allocs = collect(&mut st, &second);
    assert_eq!(allocs, 0, "begin_gc + marks + sweep must not call the allocator");

    // Round 1's survivors were not roots this time: gone with the rest.
    assert_eq!(st.kont_count(), survivors);
    for (i, &id) in second.iter().enumerate() {
        assert_eq!(st.kont_alive(id), kept(i), "record {i}");
        if !kept(i) {
            assert_eq!(st.reinstate(id, &walker), Err(ControlError::DeadContinuation));
        }
    }
    // A survivor is still the continuation it was: it resumes where it
    // was captured, once.
    for (i, &id) in second.iter().enumerate().filter(|&(i, _)| kept(i)) {
        match st.reinstate(id, &walker) {
            Ok(r) => {
                assert_eq!(r.ret, Slot::Ret { pc: i, disp: FRAME }, "record {i}");
                assert!(r.one_shot);
            }
            // Every third record was shot before the collection.
            Err(e) => assert_eq!((e, i % 3), (ControlError::AlreadyShot, 0), "record {i}"),
        }
        st.clear_to_empty();
    }
}

const ROUND_TRIPS: usize = 1_000;

/// Pushes a frame whose return address is tagged `pc`.
fn call(st: &mut SegStack<Slot>, pc: usize) {
    st.push_frame(FRAME, Slot::Ret { pc, disp: FRAME });
    st.ensure(2 * FRAME, 1, &walker);
}

/// Returns through `r`, as the return point it names would.
fn deliver(st: &mut SegStack<Slot>, r: &Reinstated<Slot>, pc: usize) {
    assert_eq!(r.ret, Slot::Ret { pc, disp: FRAME });
    st.pop_frame(FRAME);
}

type RoundTrip = fn(&mut SegStack<Slot>);

/// `capture_one` → `reinstate` → return.
fn one_shot_round_trip(st: &mut SegStack<Slot>) {
    call(st, 1);
    let k = st.capture_one(2 * FRAME).expect("a frame to capture");
    let r = st.reinstate(k, &walker).expect("a fresh one-shot reinstates");
    deliver(st, &r, 1);
}

/// `push_prompt` → `take_subcont` → `push_subcont` → return through the
/// base into the record the push sealed below the subcontinuation.
fn prompt_round_trip(st: &mut SegStack<Slot>) {
    call(st, 1);
    let p = st.push_prompt(Slot::Val(0), 2 * FRAME);
    call(st, 2);
    let (head, _) = st.take_subcont(p, &walker).expect("the prompt is on the chain");
    let r = st.push_subcont(head.expect("a frame above the prompt"), &walker).expect("unshot");
    deliver(st, &r, 2);
    match st.underflow(&walker) {
        Ok(Underflow::Resumed(r)) => deliver(st, &r, 1),
        other => panic!("expected the sealed record below, got {other:?}"),
    }
}

#[test]
fn warm_control_round_trips_perform_zero_allocations() {
    let trips: [(&str, RoundTrip); 2] =
        [("capture_one/reinstate", one_shot_round_trip), ("prompt/take/push", prompt_round_trip)];
    for promotion in [PromotionStrategy::EagerWalk, PromotionStrategy::SharedFlag] {
        for (name, trip) in trips {
            let mut st = SegStack::new(Config { promotion, ..Config::default() }, Slot::Marker);
            // Warm: the slab, the flag table and the segment cache grow
            // to one round's worth, and a collection frees it all again.
            (0..ROUND_TRIPS).for_each(|_| trip(&mut st));
            collect(&mut st, &[]);
            assert_eq!(st.kont_count(), 0, "{name}: every record was shot and swept");

            let before = alloc_calls();
            (0..ROUND_TRIPS).for_each(|_| trip(&mut st));
            let allocs = alloc_calls() - before;
            assert_eq!(allocs, 0, "{name} under {promotion:?}: {ROUND_TRIPS} round trips");
            assert!(matches!(st.underflow(&walker), Ok(Underflow::Exhausted)), "{name}");
        }
    }
}

#[test]
fn a_warm_slab_inserts_and_removes_without_allocating() {
    const HIGH: usize = 4_096;
    let mut slab = Slab::new();
    let mut keys: Vec<_> = (0..HIGH).map(|i| slab.insert(i)).collect();
    keys.drain(..).for_each(|k| assert!(slab.remove(k).is_some()));
    keys.reserve(HIGH);

    let before = alloc_calls();
    for round in 0..8 {
        // Fill to the high-water count, then free every other key, then
        // the rest: removes in an order unlike the inserts.
        keys.extend((0..HIGH).map(|i| slab.insert(round * HIGH + i)));
        for k in keys.iter().step_by(2).chain(keys.iter().skip(1).step_by(2)) {
            assert!(slab.remove(*k).is_some());
        }
        assert!(keys.drain(..).all(|k| slab.get(k).is_none()), "every key is retired");
    }
    assert_eq!(alloc_calls() - before, 0, "a warm slab must not call the allocator");
    assert!(slab.is_empty());
}
