//! Unit tests for the segmented stack, using a miniature frame discipline
//! that mirrors the VM's call protocol: every frame holds its return
//! address at the base, frames have a fixed maximum size, and an overflow
//! check runs at each simulated function entry.

use super::*;
use crate::error::ControlError;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Val(i64),
    Ret { pc: usize, disp: usize },
    Marker,
}

type St = SegStack<Slot>;

const MAXF: usize = 8;

fn walker(s: &Slot) -> Option<usize> {
    match s {
        Slot::Ret { disp, .. } => Some(*disp),
        _ => None,
    }
}

fn small_cfg() -> Config {
    Config {
        segment_slots: 64,
        copy_bound: 24,
        hysteresis_slots: 0,
        min_headroom: MAXF,
        cache_limit: 8,
        ..Config::default()
    }
}

fn new_st(cfg: Config) -> St {
    SegStack::new(cfg, Slot::Marker)
}

/// Simulates a function entry: overflow check with only the return address
/// live above `fp`.
fn enter(st: &mut St) {
    st.ensure(MAXF, 1, &walker);
}

/// Simulates a call with frame displacement `d`, tagging the return address
/// with `pc` so tests can observe where control resumes.
fn call(st: &mut St, d: usize, pc: usize) {
    assert!(d <= MAXF);
    st.push_frame(d, Slot::Ret { pc, disp: d });
    enter(st);
}

/// Simulates a return; panics on underflow (use `st.underflow` for that).
fn ret(st: &mut St) -> usize {
    let r = st.get(st.fp()).clone();
    match r {
        Slot::Ret { pc, disp } => {
            st.pop_frame(disp);
            pc
        }
        other => panic!("expected return address at fp, found {other:?}"),
    }
}

/// Delivers a reinstatement result the way a return point would: pops the
/// frame by the displacement encoded in the return address and reports its
/// pc tag.
fn resume(st: &mut St, r: &Reinstated<Slot>) -> usize {
    match &r.ret {
        Slot::Ret { pc, disp } => {
            st.pop_frame(*disp);
            *pc
        }
        other => panic!("expected return address, found {other:?}"),
    }
}

fn at_marker(st: &St) -> bool {
    *st.get(st.fp()) == Slot::Marker
}

#[test]
fn frames_push_and_pop() {
    let mut st = new_st(small_cfg());
    assert!(at_marker(&st));
    call(&mut st, 4, 1);
    st.set(st.fp() + 1, Slot::Val(10));
    call(&mut st, 3, 2);
    assert_eq!(ret(&mut st), 2);
    assert_eq!(*st.get(st.fp() + 1), Slot::Val(10));
    assert_eq!(ret(&mut st), 1);
    assert!(at_marker(&st));
}

#[test]
fn capture_multi_at_empty_top_level_returns_none() {
    let mut st = new_st(small_cfg());
    assert_eq!(st.capture_multi(), None);
    assert_eq!(st.stats().captures_empty, 1);
}

#[test]
fn capture_multi_seals_without_copying() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 7);
    let copied_before = st.stats().slots_copied;
    let k = st.capture_multi().expect("non-empty");
    assert_eq!(st.stats().slots_copied, copied_before, "capture copies nothing");
    assert_eq!(st.base(), st.fp(), "record shortened to the frame pointer");
    assert!(at_marker(&st), "sealed frame's return address replaced by handler");
    let kont = st.kont(k);
    assert_eq!(kont.occupied(), kont.owned(), "multi-shot invariant");
    assert!(!kont.is_one_shot_by_sizes());
    assert_eq!(kont.occupied(), 4);
}

#[test]
fn multi_shot_reinstates_repeatedly() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 7);
    st.set(st.fp() + 1, Slot::Val(42));
    // fp now points at the frame whose ret has pc=7; capture here. The
    // value 42 lives *below* the seal boundary? No: fp+1 is above fp, so it
    // is dead at capture time. Store a value in the caller frame instead.
    call(&mut st, 3, 8);
    let k = st.capture_multi().expect("non-empty");
    for _ in 0..3 {
        // Wander off: push junk frames, then come back.
        call(&mut st, 5, 99);
        call(&mut st, 5, 98);
        let r = st.reinstate(k, &walker).unwrap();
        assert!(!r.one_shot);
        assert_eq!(r.ret, Slot::Ret { pc: 8, disp: 3 });
        // Deliver: pop the frame as the return point would.
        st.pop_frame(3);
        assert_eq!(*st.get(st.fp() + 1), Slot::Val(42), "caller locals preserved");
        // Climb back up so the next iteration starts from a clean spot.
        call(&mut st, 3, 8);
        let k2 = st.capture_multi().unwrap();
        assert!(
            st.kont(k2).occupied() >= 3,
            "the re-pushed frame (and any reinstated residue) is sealed"
        );
    }
    assert!(st.stats().reinstates_multi >= 3);
}

#[test]
fn one_shot_capture_takes_whole_segment_and_fresh_current() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 7);
    let segs_before = st.segment_count();
    let k = st.capture_one(2).expect("non-empty");
    assert!(st.kont(k).is_one_shot_by_sizes(), "sizes differ for one-shots");
    assert!(st.kont(k).is_live_one_shot());
    assert_eq!(st.fp(), 0, "fresh segment starts at its base");
    assert!(at_marker(&st));
    assert_eq!(st.segment_count(), segs_before + 1);
}

#[test]
fn one_shot_reinstates_in_constant_time_and_only_once() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 7);
    call(&mut st, 3, 8);
    st.set(st.fp() + 1, Slot::Val(5));
    call(&mut st, 2, 9);
    let k = st.capture_one(2).expect("non-empty");
    let copied_before = st.stats().slots_copied;
    let r = st.reinstate(k, &walker).unwrap();
    assert!(r.one_shot);
    assert_eq!(r.ret, Slot::Ret { pc: 9, disp: 2 });
    assert_eq!(st.stats().slots_copied, copied_before, "one-shot reinstatement copies nothing");
    st.pop_frame(2);
    assert_eq!(*st.get(st.fp() + 1), Slot::Val(5));
    // Second shot is an error.
    assert_eq!(st.reinstate(k, &walker), Err(ControlError::AlreadyShot));
    assert!(st.kont(k).is_shot());
    assert_eq!(st.stats().shots, 1);
}

#[test]
fn returning_from_capture_context_underflows_into_link() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 7);
    let _k = st.capture_one(2).expect("non-empty");
    // The fresh record is empty; simulate the passed procedure returning
    // normally: control underflows into the captured continuation.
    assert!(at_marker(&st));
    match st.underflow(&walker).unwrap() {
        Underflow::Resumed(r) => {
            assert!(r.one_shot);
            assert_eq!(r.ret, Slot::Ret { pc: 7, disp: 4 });
        }
        Underflow::Exhausted => panic!("link existed"),
    }
    st.pop_frame(4);
    // Return once more: the chain is exhausted.
    assert!(at_marker(&st));
    match st.underflow(&walker).unwrap() {
        Underflow::Exhausted => {}
        other => panic!("expected exhaustion, got {other:?}"),
    }
}

#[test]
fn tail_position_capture_reuses_link() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 7);
    let k1 = st.capture_multi().expect("non-empty");
    // fp is now at the record base: a capture here is in tail position.
    let k2 = st.capture_multi().expect("link exists");
    assert_eq!(k1, k2, "empty capture returns the link, allocating nothing");
    let k3 = st.capture_one(2).expect("link exists");
    assert_eq!(k1, k3);
    assert_eq!(st.stats().captures_empty, 2);
}

#[test]
fn eager_walk_promotion_converts_chain_up_to_first_multi() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let m0 = st.capture_multi().unwrap();
    call(&mut st, 4, 2);
    let o1 = st.capture_one(2).unwrap();
    call(&mut st, 4, 3);
    let o2 = st.capture_one(2).unwrap();
    call(&mut st, 4, 4);
    assert!(st.kont(o1).is_live_one_shot());
    assert!(st.kont(o2).is_live_one_shot());
    let _m = st.capture_multi().unwrap();
    assert!(matches!(st.kont(o1).kind(), KontKind::MultiShot), "promoted");
    assert!(matches!(st.kont(o2).kind(), KontKind::MultiShot), "promoted");
    assert!(matches!(st.kont(m0).kind(), KontKind::MultiShot));
    assert_eq!(st.stats().promotions, 2);
    // Promotion restored the multi-shot size invariant.
    assert!(!st.kont(o1).is_one_shot_by_sizes());
    // A promoted one-shot may now be invoked repeatedly.
    let r1 = st.reinstate(o2, &walker).unwrap();
    assert!(!r1.one_shot, "promoted continuations take the copying path");
    st.pop_frame(4);
    call(&mut st, 4, 9);
    let r2 = st.reinstate(o2, &walker).unwrap();
    assert_eq!(r1.ret, r2.ret);
}

#[test]
fn promotion_stops_at_multi_shot_boundary() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let o_low = st.capture_one(2).unwrap();
    call(&mut st, 4, 2);
    let _m = st.capture_multi().unwrap(); // promotes o_low
    assert_eq!(st.stats().promotion_steps, 1);
    call(&mut st, 4, 3);
    let _m2 = st.capture_multi().unwrap();
    // The second capture stops at the multi-shot immediately below; no
    // further steps are taken even though o_low sits deeper in the chain.
    assert_eq!(st.stats().promotion_steps, 1);
    assert!(matches!(st.kont(o_low).kind(), KontKind::MultiShot));
}

#[test]
fn shared_flag_promotion_is_constant_time_and_promotes_whole_chain() {
    let cfg = Config { promotion: PromotionStrategy::SharedFlag, ..small_cfg() };
    let mut st = new_st(cfg);
    call(&mut st, 4, 1);
    let o1 = st.capture_one(2).unwrap();
    call(&mut st, 4, 2);
    let o2 = st.capture_one(2).unwrap();
    call(&mut st, 4, 3);
    let _m = st.capture_multi().unwrap();
    assert_eq!(st.stats().promotion_steps, 0, "no chain walk under SharedFlag");
    assert_eq!(st.stats().promotions, 1, "one flag set promotes the chain");
    assert!(!st.kont(o1).is_live_one_shot());
    assert!(!st.kont(o2).is_live_one_shot());
    // Promoted one-shots reinstate via the copying path.
    let r = st.reinstate(o2, &walker).unwrap();
    assert!(!r.one_shot);
}

#[test]
fn overflow_one_shot_relocates_active_frame_and_returns_without_copying() {
    let mut st = new_st(small_cfg());
    let mut pcs = Vec::new();
    // Push enough frames to overflow the 64-slot segment a few times.
    for i in 0..40 {
        call(&mut st, 6, i);
        pcs.push(i);
    }
    assert!(st.stats().overflows >= 2, "expected overflows, got {:?}", st.stats());
    let copied_at_peak = st.stats().slots_copied;
    // Unwind all the way down; underflows reinstate the implicit one-shot
    // continuations in O(1).
    let mut expected = pcs.clone();
    while let Some(expect) = expected.pop() {
        let pc = if at_marker(&st) {
            match st.underflow(&walker).unwrap() {
                Underflow::Resumed(r) => {
                    assert!(r.one_shot, "overflow continuations are one-shot");
                    assert_eq!(st.stats().slots_copied, copied_at_peak);
                    resume(&mut st, &r)
                }
                Underflow::Exhausted => panic!("frames remain"),
            }
        } else {
            ret(&mut st)
        };
        assert_eq!(pc, expect);
    }
    assert!(at_marker(&st));
    assert!(matches!(st.underflow(&walker).unwrap(), Underflow::Exhausted));
    assert_eq!(st.stats().slots_copied, copied_at_peak, "no copying on underflow");
}

#[test]
fn overflow_multi_shot_policy_copies_on_underflow() {
    let cfg = Config { overflow_policy: OverflowPolicy::MultiShot, ..small_cfg() };
    let mut st = new_st(cfg);
    for i in 0..40 {
        call(&mut st, 6, i);
    }
    assert!(st.stats().overflows >= 2);
    let copied_at_peak = st.stats().slots_copied;
    for expect in (0..40).rev() {
        let pc = if at_marker(&st) {
            match st.underflow(&walker).unwrap() {
                Underflow::Resumed(r) => {
                    assert!(!r.one_shot);
                    resume(&mut st, &r)
                }
                Underflow::Exhausted => panic!("frames remain"),
            }
        } else {
            ret(&mut st)
        };
        assert_eq!(pc, expect);
    }
    assert!(
        st.stats().slots_copied > copied_at_peak,
        "multi-shot overflow policy pays copying on the way down"
    );
}

#[test]
fn hysteresis_relocates_extra_frames() {
    let cfg = Config { hysteresis_slots: 20, ..small_cfg() };
    let mut st = new_st(cfg);
    for i in 0..20 {
        call(&mut st, 6, i);
    }
    assert!(st.stats().overflows >= 1);
    // With hysteresis, each overflow relocates multiple frames: copied
    // slots exceed overflows * live(1).
    let s = st.stats();
    assert!(
        s.slots_copied > s.overflows,
        "hysteresis should copy more than the bare return address"
    );
    // And the stack still unwinds correctly.
    for expect in (0..20).rev() {
        let pc = if at_marker(&st) {
            match st.underflow(&walker).unwrap() {
                Underflow::Resumed(r) => resume(&mut st, &r),
                Underflow::Exhausted => panic!("frames remain"),
            }
        } else {
            ret(&mut st)
        };
        assert_eq!(pc, expect);
    }
}

#[test]
fn copy_bound_splits_large_continuations_lazily() {
    let cfg = Config { segment_slots: 512, copy_bound: 24, ..small_cfg() };
    let mut st = new_st(cfg);
    for i in 0..30 {
        call(&mut st, 6, i); // 180 occupied slots, no overflow
    }
    assert_eq!(st.stats().overflows, 0);
    let k = st.capture_multi().unwrap();
    assert!(st.kont(k).occupied() > 24 * 2);
    let konts_before = st.kont_count();
    let r = st.reinstate(k, &walker).unwrap();
    assert_eq!(r.ret, Slot::Ret { pc: 29, disp: 6 });
    assert!(st.stats().splits >= 1, "large continuation was split");
    assert!(st.kont_count() > konts_before, "split created bottom parts");
    // Each reinstatement copies at most the bound.
    assert!(st.stats().slots_copied <= 24 * (st.stats().reinstates_multi + 1));
    // Unwind through the split chain: every frame comes back in order.
    st.pop_frame(6);
    for expect in (0..29).rev() {
        let pc = if at_marker(&st) {
            match st.underflow(&walker).unwrap() {
                Underflow::Resumed(r) => resume(&mut st, &r),
                Underflow::Exhausted => panic!("frames remain"),
            }
        } else {
            ret(&mut st)
        };
        assert_eq!(pc, expect);
    }
    // Invoke the (now split) continuation again: still works.
    let r2 = st.reinstate(k, &walker).unwrap();
    assert_eq!(r2.ret, Slot::Ret { pc: 29, disp: 6 });
}

#[test]
fn segment_cache_recycles_one_shot_segments() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let mut k = st.capture_one(2).expect("non-empty");
    let allocated_after_warmup = st.stats().segments_allocated;
    for i in 0..100 {
        // Typical one-shot pattern (§3.2): capture, then immediately invoke
        // a previously saved one-shot.
        call(&mut st, 4, 100 + i);
        let next = st.capture_one(2).expect("non-empty");
        let r = st.reinstate(k, &walker).unwrap();
        assert!(r.one_shot);
        st.pop_frame(4);
        k = next;
    }
    let s = st.stats();
    assert!(
        s.segments_allocated <= allocated_after_warmup + 1,
        "steady-state capture/invoke cycles are served by the cache: {s:?}"
    );
    assert!(s.cache_hits >= 99);
}

#[test]
fn disabling_cache_allocates_every_time() {
    let cfg = Config { cache_limit: 0, ..small_cfg() };
    let mut st = new_st(cfg);
    call(&mut st, 4, 1);
    let mut k = st.capture_one(2).expect("non-empty");
    let before = st.stats().segments_allocated;
    for i in 0..50 {
        call(&mut st, 4, 100 + i);
        let next = st.capture_one(2).expect("non-empty");
        st.reinstate(k, &walker).unwrap();
        st.pop_frame(4);
        k = next;
    }
    let s = st.stats();
    assert_eq!(s.cache_hits, 0);
    assert!(
        s.segments_allocated >= before + 50,
        "every cycle allocates a fresh segment without the cache"
    );
}

#[test]
fn seal_with_pad_bounds_fragmentation() {
    // 100 "threads", each a shallow one-shot continuation, as in §3.4.
    let fresh = {
        let mut st = new_st(Config { cache_limit: 0, ..small_cfg() });
        for i in 0..100 {
            call(&mut st, 4, i);
            st.capture_one(2).unwrap();
        }
        st.resident_slots()
    };
    let padded = {
        let cfg = Config {
            segment_slots: 4096,
            oneshot_policy: OneShotPolicy::SealWithPad(16),
            cache_limit: 0,
            min_headroom: MAXF,
            ..Config::default()
        };
        let mut st = new_st(cfg);
        for i in 0..100 {
            call(&mut st, 4, i);
            st.capture_one(2).unwrap();
        }
        st.resident_slots()
    };
    assert!(padded < 3 * 4096, "sealing with pad packs many continuations per segment");
    // `fresh` used 64-slot segments and still allocated one per capture.
    assert!(fresh >= 100 * 64 / 2);
}

#[test]
fn seal_with_pad_continuations_still_work() {
    let cfg = Config {
        segment_slots: 256,
        copy_bound: 24,
        min_headroom: MAXF,
        oneshot_policy: OneShotPolicy::SealWithPad(MAXF),
        ..Config::default()
    };
    let mut st = new_st(cfg);
    call(&mut st, 4, 1);
    st.set(st.fp() + 1, Slot::Val(11));
    call(&mut st, 3, 2);
    let k = st.capture_one(2).expect("non-empty");
    assert!(st.kont(k).is_one_shot_by_sizes());
    assert!(st.kont(k).owned() < 256, "only a padded prefix is encapsulated");
    call(&mut st, 4, 50);
    let r = st.reinstate(k, &walker).unwrap();
    assert!(r.one_shot);
    assert_eq!(r.ret, Slot::Ret { pc: 2, disp: 3 });
    st.pop_frame(3);
    assert_eq!(*st.get(st.fp() + 1), Slot::Val(11));
}

#[test]
fn gc_sweep_frees_unmarked_konts_but_keeps_current_chain() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let dead = st.capture_multi().unwrap();
    call(&mut st, 4, 2);
    let live = st.capture_multi().unwrap();
    call(&mut st, 4, 3);
    let chained = st.capture_multi().unwrap(); // part of the current chain
    assert_eq!(st.kont_count(), 3);
    st.begin_gc();
    // Mark only `live` (as if only it were referenced from the heap); the
    // current chain keeps `chained` and — through links — everything below.
    assert!(st.mark_kont(live));
    assert!(!st.mark_kont(live), "already marked");
    // Trace its link like an embedder would.
    let mut cursor = st.kont_link(live);
    while let Some(id) = cursor {
        if !st.mark_kont(id) {
            break;
        }
        cursor = st.kont_link(id);
    }
    st.sweep(false);
    assert!(st.kont_alive(live));
    assert!(st.kont_alive(chained), "current chain survives unmarked");
    assert!(st.kont_alive(dead), "reachable through live's link");
    // Now drop everything reachable only from the heap.
    st.begin_gc();
    st.sweep(false);
    assert!(st.kont_alive(chained) && st.kont_alive(live) && st.kont_alive(dead));
    // chained links live links dead: all on the current chain. Cut the
    // chain by clearing the stack, then sweep again.
    st.clear_to_empty();
    st.begin_gc();
    st.sweep(true);
    assert_eq!(st.kont_count(), 0);
    assert_eq!(st.cache_len(), 0, "flush_cache drops cached segments");
}

#[test]
fn clear_to_empty_exhausts_immediately() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let _k = st.capture_multi().unwrap();
    call(&mut st, 4, 2);
    st.clear_to_empty();
    assert!(at_marker(&st));
    assert!(matches!(st.underflow(&walker).unwrap(), Underflow::Exhausted));
}

#[test]
fn shot_konts_report_empty_slices_and_survive_marking() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let k = st.capture_one(2).unwrap();
    assert!(!st.kont_slice(k).is_empty());
    st.reinstate(k, &walker).unwrap();
    assert!(st.kont_slice(k).is_empty(), "shot continuations hold no slots");
    st.begin_gc();
    st.mark_kont(k);
    st.sweep(false);
    assert!(st.kont_alive(k));
    assert_eq!(st.reinstate(k, &walker), Err(ControlError::AlreadyShot));
}

#[test]
fn dead_continuation_is_reported() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let k = st.capture_multi().unwrap();
    st.clear_to_empty();
    st.begin_gc();
    st.sweep(false);
    assert!(!st.kont_alive(k));
    assert_eq!(st.reinstate(k, &walker), Err(ControlError::DeadContinuation));
}

#[test]
fn deep_recursion_survives_many_overflow_cycles() {
    // The E3 scenario in miniature: recur deeply, unwind, repeat; after the
    // first round the cache supplies every segment.
    let mut st = new_st(Config { cache_limit: 32, ..small_cfg() });
    for round in 0..5 {
        for i in 0..200 {
            call(&mut st, 5, i);
        }
        for expect in (0..200).rev() {
            let pc = if at_marker(&st) {
                match st.underflow(&walker).unwrap() {
                    Underflow::Resumed(r) => resume(&mut st, &r),
                    Underflow::Exhausted => panic!("frames remain"),
                }
            } else {
                ret(&mut st)
            };
            assert_eq!(pc, expect);
        }
        assert!(at_marker(&st));
        if round > 0 {
            // Steady state reached: the cache absorbs all segment churn.
            let s = st.stats();
            assert!(s.cache_hits > 0);
        }
    }
    let s = st.stats();
    assert!(s.segments_allocated < 30, "cache bounds total allocation across rounds: {s:?}");
}

#[test]
fn stats_deltas_capture_benchmark_regions() {
    let mut st = new_st(small_cfg());
    let before = *st.stats();
    call(&mut st, 4, 1);
    let _ = st.capture_one(2);
    let delta = st.stats().delta_since(&before);
    assert_eq!(delta.captures_one, 1);
    assert_eq!(delta.captures_multi, 0);
}

// ----------------------------------------------------------------------
// Delimited control
// ----------------------------------------------------------------------

/// Pushes a frame so the record is non-empty, then seals a prompt tagged
/// with `tag`, returning the record id. The frame's return address carries
/// `pc` so tests can observe control resuming at the prompt.
fn prompt(st: &mut St, tag: i64, pc: usize) -> KontId {
    call(st, 2, pc);
    st.push_prompt(Slot::Val(tag), MAXF)
}

fn find_tag(st: &St, tag: i64) -> Option<KontId> {
    st.find_prompt(|s| *s == Slot::Val(tag))
}

#[test]
fn take_and_push_subcont_round_trip() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let p = prompt(&mut st, 7, 90);
    assert_eq!(find_tag(&st, 7), Some(p));
    // Build a delimited context above the prompt.
    call(&mut st, 3, 2);
    st.set(st.fp() + 1, Slot::Val(42));
    call(&mut st, 2, 3);
    let (head, r) = st.take_subcont(p, &walker).unwrap();
    let head = head.expect("non-empty context");
    // Control resumed at the prompt's return address; the prompt is gone.
    assert_eq!(resume(&mut st, &r), 90);
    assert_eq!(find_tag(&st, 7), None);
    assert_eq!(st.stats().subconts_taken, 1);
    assert_eq!(st.stats().prompts_pushed, 1);
    // Splice the context back in: control resumes at the take point, the
    // saved frames are intact, and no slots were copied (pure steal).
    let r2 = st.push_subcont(head, &walker).unwrap();
    assert_eq!(resume(&mut st, &r2), 3);
    assert_eq!(*st.get(st.fp() + 1), Slot::Val(42));
    assert_eq!(ret(&mut st), 2);
    assert_eq!(st.stats().subconts_pushed, 1);
    assert_eq!(st.stats().slots_copied, 0);
    // Returning off the spliced record's base underflows into the record
    // sealed by push_subcont, resuming the original bottom frame.
    match st.underflow(&walker).unwrap() {
        Underflow::Resumed(u) => assert_eq!(resume(&mut st, &u), 1),
        other => panic!("expected resumption, got {other:?}"),
    }
    assert!(at_marker(&st));
}

#[test]
fn take_with_empty_context_yields_no_head() {
    let mut st = new_st(small_cfg());
    let p = prompt(&mut st, 1, 50);
    let (head, r) = st.take_subcont(p, &walker).unwrap();
    assert!(head.is_none());
    assert_eq!(resume(&mut st, &r), 50);
    // Pushing an empty subcontinuation is the embedder's no-op; the stack
    // only sees the non-empty case.
    assert_eq!(st.stats().subcont_slots, 0);
}

#[test]
fn find_prompt_returns_nearest_and_misses_report_errors() {
    let mut st = new_st(small_cfg());
    let outer = prompt(&mut st, 5, 10);
    call(&mut st, 3, 2);
    let inner = prompt(&mut st, 5, 11);
    assert_ne!(outer, inner);
    assert_eq!(find_tag(&st, 5), Some(inner));
    assert_eq!(find_tag(&st, 6), None);
    // A prompt that is not on the chain is rejected without mutation.
    let (h, r) = st.take_subcont(inner, &walker).unwrap();
    assert_eq!(resume(&mut st, &r), 11);
    assert_eq!(st.take_subcont(inner, &walker).unwrap_err(), ControlError::NoMatchingPrompt);
    assert_eq!(st.abort_to_prompt(inner, &walker).unwrap_err(), ControlError::NoMatchingPrompt);
    assert_eq!(find_tag(&st, 5), Some(outer));
    assert!(h.is_none());
}

#[test]
fn push_subcont_twice_reports_already_shot() {
    let mut st = new_st(small_cfg());
    let p = prompt(&mut st, 9, 30);
    call(&mut st, 3, 2);
    let (head, r) = st.take_subcont(p, &walker).unwrap();
    let head = head.unwrap();
    assert_eq!(resume(&mut st, &r), 30);
    let r2 = st.push_subcont(head, &walker).unwrap();
    assert_eq!(resume(&mut st, &r2), 2);
    assert_eq!(st.push_subcont(head, &walker).unwrap_err(), ControlError::AlreadyShot);
}

#[test]
fn abort_to_prompt_discards_context_and_releases_segments() {
    let mut st = new_st(small_cfg());
    let p = prompt(&mut st, 3, 70);
    // Grow a context deep enough to overflow into extra segments.
    for i in 0..40 {
        call(&mut st, 4, 100 + i);
    }
    assert!(st.live_segment_count() > 1);
    let before = *st.stats();
    let r = st.abort_to_prompt(p, &walker).unwrap();
    assert_eq!(resume(&mut st, &r), 70);
    let delta = st.stats().delta_since(&before);
    assert_eq!(delta.aborts_to_prompt, 1);
    assert_eq!(delta.subconts_taken, 0);
    // The discarded records' segments were released eagerly: after the
    // abort only the current segment remains live.
    assert_eq!(st.live_segment_count(), 1);
    assert!(at_marker(&st));
    assert!(matches!(st.underflow(&walker).unwrap(), Underflow::Exhausted));
}

#[test]
fn take_copies_promoted_records_and_leaves_originals_invokable() {
    let mut st = new_st(small_cfg());
    let p = prompt(&mut st, 2, 60);
    call(&mut st, 3, 2);
    st.set(st.fp() + 1, Slot::Val(7));
    // A multi-shot capture above the prompt promotes the context records.
    let k = st.capture_multi().unwrap();
    call(&mut st, 2, 3);
    let before = *st.stats();
    let (head, r) = st.take_subcont(p, &walker).unwrap();
    let head = head.unwrap();
    assert_eq!(resume(&mut st, &r), 60);
    let delta = st.stats().delta_since(&before);
    // Head record stolen (2 slots), promoted capture_multi record copied
    // (3 slots); the promoted prompt's own reinstatement copies 2 more.
    assert_eq!(delta.subcont_slots, 5);
    assert_eq!(delta.slots_copied, 5);
    // The promoted original still reinstates through the multi-shot path.
    let rk = st.reinstate(k, &walker).unwrap();
    assert!(!rk.one_shot);
    assert_eq!(resume(&mut st, &rk), 2);
    // And the copied subcontinuation splices in independently.
    let r2 = st.push_subcont(head, &walker).unwrap();
    assert_eq!(resume(&mut st, &r2), 3);
    assert_eq!(*st.get(st.fp() + 1), Slot::Val(7));
}

#[test]
fn nested_prompt_tags_travel_with_the_subcontinuation() {
    let mut st = new_st(small_cfg());
    let outer = prompt(&mut st, 1, 10);
    call(&mut st, 3, 2);
    let _inner = prompt(&mut st, 2, 11);
    call(&mut st, 2, 3);
    // Take to the *outer* prompt: the inner prompt is part of the context.
    let (head, r) = st.take_subcont(outer, &walker).unwrap();
    let head = head.unwrap();
    assert_eq!(resume(&mut st, &r), 10);
    assert_eq!(find_tag(&st, 2), None);
    // Splicing back reinstalls the inner prompt on the chain.
    let r2 = st.push_subcont(head, &walker).unwrap();
    assert_eq!(resume(&mut st, &r2), 3);
    assert!(find_tag(&st, 2).is_some());
    let inner_now = find_tag(&st, 2).unwrap();
    let (_h2, r3) = st.take_subcont(inner_now, &walker).unwrap();
    assert_eq!(resume(&mut st, &r3), 11);
}

#[test]
fn traced_events_sum_to_the_stats_across_delimited_ops() {
    let mut st = SegStack::with_trace(small_cfg(), Slot::Marker, 1 << 10);
    st.push_frame(2, Slot::Ret { pc: 1, disp: 2 });
    st.ensure(MAXF, 1, &walker);
    let p = st.push_prompt(Slot::Val(4), MAXF);
    st.push_frame(3, Slot::Ret { pc: 2, disp: 3 });
    st.ensure(MAXF, 1, &walker);
    let _ = st.capture_one(4);
    st.push_frame(2, Slot::Ret { pc: 3, disp: 2 });
    st.ensure(MAXF, 1, &walker);
    let (head, r) = st.take_subcont(p, &walker).unwrap();
    match &r.ret {
        Slot::Ret { disp, .. } => st.pop_frame(*disp),
        other => panic!("unexpected ret {other:?}"),
    }
    let r2 = st.push_subcont(head.unwrap(), &walker).unwrap();
    match &r2.ret {
        Slot::Ret { disp, .. } => st.pop_frame(*disp),
        other => panic!("unexpected ret {other:?}"),
    }
    let ring = st.trace().unwrap();
    assert_eq!(ring.dropped(), 0);
    let mut folded = Stats::default();
    ring.events().for_each(|ev| folded.record(ev));
    assert_eq!(&folded, st.stats(), "the ring missed or repeated an event");
    assert!(st.stats().prompts_pushed == 1 && st.stats().subconts_taken == 1);
    assert!(st.stats().slots_encapsulated > 0);
}

// ---------------------------------------------------------------------
// The cached pointer to the current segment's slots
// ---------------------------------------------------------------------

/// After an operation that may have switched the current record, checks
/// that `get`/`set` (which go through the cached slot pointer) and `slice`
/// (which walks the arena to segment `cur_seg`) see the same segment: a
/// sentinel written through `set` just above the live frame reads back
/// through both, and the two views agree on every slot of the record. A
/// cache left on the previous segment fails the first; one pointing at the
/// right segment's old storage cannot exist (storage never moves).
fn assert_slot_cache_current(st: &mut St, tag: i64) {
    let at = st.fp() + 1;
    assert!(at < st.end(), "no headroom above fp for the sentinel");
    st.set(at, Slot::Val(tag));
    assert_eq!(*st.get(at), Slot::Val(tag), "sentinel through get");
    assert_eq!(st.slice(at, at + 1), &[Slot::Val(tag)], "sentinel through slice");
    let (lo, hi) = (st.base(), at + 1);
    for (i, s) in st.slice(lo, hi).iter().enumerate() {
        assert_eq!(st.get(lo + i), s, "get and slice disagree at slot {}", lo + i);
    }
}

#[test]
fn slot_cache_follows_overflow_with_and_without_hysteresis() {
    for hysteresis_slots in [0, 20] {
        let mut st = new_st(Config { hysteresis_slots, ..small_cfg() });
        let mut overflows = 0;
        for i in 0..60 {
            call(&mut st, 6, i);
            if st.stats().overflows > overflows {
                overflows = st.stats().overflows;
                assert_slot_cache_current(&mut st, -(i as i64));
                // The relocated frame still returns to its caller's tag.
                assert!(matches!(st.get(st.fp()), Slot::Ret { .. } | Slot::Marker));
            }
        }
        assert!(overflows >= 3, "hysteresis {hysteresis_slots}: {overflows} overflows");
    }
}

#[test]
fn slot_cache_follows_underflow() {
    let mut st = new_st(small_cfg());
    for i in 0..40 {
        call(&mut st, 6, i);
    }
    let mut underflows = 0;
    for expect in (0..40).rev() {
        let pc = if at_marker(&st) {
            match st.underflow(&walker).unwrap() {
                Underflow::Resumed(r) => {
                    underflows += 1;
                    let pc = resume(&mut st, &r);
                    assert_slot_cache_current(&mut st, 1000 + pc as i64);
                    pc
                }
                Underflow::Exhausted => panic!("frames remain"),
            }
        } else {
            ret(&mut st)
        };
        assert_eq!(pc, expect);
    }
    assert!(underflows >= 2);
}

#[test]
fn slot_cache_follows_one_shot_multi_shot_and_promoted_reinstatement() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    st.set(st.fp() + 1, Slot::Val(11));
    call(&mut st, 3, 2);
    // Multi-shot: copied back into the current record, twice.
    let m = st.capture_multi().unwrap();
    assert_slot_cache_current(&mut st, 1);
    for round in 0..2 {
        call(&mut st, 5, 50 + round);
        let r = st.reinstate(m, &walker).unwrap();
        assert!(!r.one_shot);
        assert_eq!(resume(&mut st, &r), 2);
        assert_slot_cache_current(&mut st, 2);
        call(&mut st, 3, 2);
    }
    // One-shot: the capture moves to a fresh segment, the reinstatement
    // swaps back (Figure 4).
    let o = st.capture_one(MAXF).unwrap();
    assert_slot_cache_current(&mut st, 3);
    call(&mut st, 2, 60);
    let r = st.reinstate(o, &walker).unwrap();
    assert!(r.one_shot);
    assert_eq!(resume(&mut st, &r), 2);
    assert_slot_cache_current(&mut st, 4);
    // Promoted one-shot: reinstated by copying.
    call(&mut st, 3, 7);
    let p = st.capture_one(MAXF).unwrap();
    call(&mut st, 2, 8);
    let _ = st.capture_multi().unwrap();
    call(&mut st, 2, 9);
    let r = st.reinstate(p, &walker).unwrap();
    assert!(!r.one_shot, "a promoted one-shot is copied");
    assert_eq!(resume(&mut st, &r), 7);
    assert_slot_cache_current(&mut st, 5);
}

#[test]
fn slot_cache_follows_clear_to_empty() {
    let mut st = new_st(small_cfg());
    for i in 0..30 {
        call(&mut st, 6, i);
    }
    let _ = st.capture_one(MAXF);
    st.clear_to_empty();
    assert!(at_marker(&st));
    assert_slot_cache_current(&mut st, 9);
    assert!(matches!(st.underflow(&walker).unwrap(), Underflow::Exhausted));
}

#[test]
fn slot_cache_follows_subcont_take_push_and_abort() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    let p = prompt(&mut st, 7, 90);
    assert_slot_cache_current(&mut st, 1);
    call(&mut st, 3, 2);
    st.set(st.fp() + 1, Slot::Val(42));
    call(&mut st, 2, 3);
    let (head, r) = st.take_subcont(p, &walker).unwrap();
    assert_eq!(resume(&mut st, &r), 90);
    assert_slot_cache_current(&mut st, 2);
    let r = st.push_subcont(head.unwrap(), &walker).unwrap();
    assert_eq!(resume(&mut st, &r), 3);
    assert_slot_cache_current(&mut st, 3);
    assert_eq!(ret(&mut st), 2);
    // A promoted prompt record (take installs a fresh record first), then
    // an abort across several segments.
    let q = prompt(&mut st, 8, 91);
    call(&mut st, 3, 4);
    let _ = st.capture_multi().unwrap();
    call(&mut st, 2, 5);
    let (_, r) = st.take_subcont(q, &walker).unwrap();
    assert_eq!(resume(&mut st, &r), 91);
    assert_slot_cache_current(&mut st, 4);
    let a = prompt(&mut st, 9, 92);
    for i in 0..40 {
        call(&mut st, 4, 100 + i);
    }
    let r = st.abort_to_prompt(a, &walker).unwrap();
    assert_eq!(resume(&mut st, &r), 92);
    assert_slot_cache_current(&mut st, 5);
}

#[test]
fn slot_cache_follows_segment_cache_hit_and_miss() {
    for cache_limit in [8, 0] {
        let mut st = new_st(Config { cache_limit, ..small_cfg() });
        call(&mut st, 4, 1);
        for round in 0..4 {
            // Each capture takes a segment (from the cache when it can);
            // each reinstatement gives the current one back.
            let k = st.capture_one(MAXF).unwrap();
            assert_slot_cache_current(&mut st, round);
            call(&mut st, 3, 9);
            let r = st.reinstate(k, &walker).unwrap();
            assert_eq!(resume(&mut st, &r), 1);
            assert_slot_cache_current(&mut st, 10 + round);
            call(&mut st, 4, 1);
        }
        if cache_limit == 0 {
            assert_eq!(st.stats().cache_hits, 0);
        } else {
            assert!(st.stats().cache_hits >= 3, "{:?}", st.stats());
        }
    }
}

#[test]
fn slot_cache_survives_an_injected_segment_fault() {
    let mut st = new_st(small_cfg());
    call(&mut st, 4, 1);
    st.set(st.fp() + 1, Slot::Val(5));
    st.arm_segment_fault(2);
    assert_eq!(st.ensure(MAXF, 1, &walker), Overflow::Fits);
    let (fp, segments) = (st.fp(), st.segment_count());
    assert_eq!(st.ensure(MAXF, 1, &walker), Overflow::Ceiling, "the armed check reports Ceiling");
    assert!(st.in_overflow_grace());
    assert_eq!((st.fp(), st.segment_count()), (fp, segments), "a refused ensure changes nothing");
    assert_slot_cache_current(&mut st, 6);
    // The clock fired once; growth resumes, and overflow past the fault
    // keeps the cache in step.
    assert!(!st.segment_fault_armed());
    for i in 0..20 {
        call(&mut st, 6, i);
    }
    assert!(st.stats().overflows >= 1);
    assert_slot_cache_current(&mut st, 7);
}
