//! Integration tests for the control-probe layer.
//!
//! Two properties are checked against randomized workloads (plus
//! deterministic anchors):
//!
//! 1. **Counting parity** — a second [`Stats`] installed as the probe at
//!    construction accumulates totals identical to the stack's built-in
//!    counters, field for field, after every operation — every event
//!    reaches the probe exactly once — including under the `SharedFlag`
//!    promotion strategy and the `SealWithPad` one-shot policy.
//! 2. **Event ordering** — in a [`RingTraceProbe`] trace, every
//!    `Reinstate` event names a continuation previously *introduced* by a
//!    `CaptureOne`, `CaptureMulti`, `Overflow` (implicit, `kont: Some`),
//!    or `Split` (bottom part) event, and one-shot reinstatements copy
//!    nothing.

use std::collections::HashSet;

use oneshot_core::{
    Config, ControlError, ControlProbe, KontId, OneShotPolicy, OverflowPolicy, ProbeEvent,
    PromotionStrategy, Reinstated, RingTraceProbe, SegStack, Stats, Underflow,
};
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Val(i64),
    Ret { pc: u32, disp: usize },
    Marker,
}

fn walker(s: &Slot) -> Option<usize> {
    match s {
        Slot::Ret { disp, .. } => Some(*disp),
        _ => None,
    }
}

const MAXF: usize = 8;
const HEADROOM: usize = 2 * MAXF;

/// Drives a probed stack through call/return/capture/invoke/GC traffic,
/// swallowing the legitimate control errors (shot or dead continuations).
struct Driver<P: ControlProbe> {
    st: SegStack<Slot, P>,
    konts: Vec<KontId>,
}

impl<P: ControlProbe> Driver<P> {
    fn new(cfg: Config, probe: P) -> Self {
        Driver { st: SegStack::with_probe(cfg, Slot::Marker, probe), konts: Vec::new() }
    }

    fn call(&mut self, pc: u32, disp: usize, local: Option<i64>) {
        self.st.push_frame(disp, Slot::Ret { pc, disp });
        self.st.ensure(MAXF + 2, 1, &walker);
        if let Some(v) = local {
            let fp = self.st.fp();
            self.st.set(fp + 1, Slot::Val(v));
        }
    }

    fn deliver(&mut self, r: &Reinstated<Slot>) {
        match r.ret {
            Slot::Ret { disp, .. } => self.st.pop_frame(disp),
            ref other => panic!("bad return address {other:?}"),
        }
    }

    fn ret(&mut self) {
        let top = self.st.get(self.st.fp()).clone();
        match top {
            Slot::Ret { disp, .. } => self.st.pop_frame(disp),
            Slot::Marker => match self.st.underflow(&walker) {
                Ok(Underflow::Exhausted) | Err(ControlError::AlreadyShot) => {}
                Ok(Underflow::Resumed(r)) => self.deliver(&r),
                Err(e) => panic!("unexpected error {e}"),
            },
            other => panic!("unexpected slot at fp: {other:?}"),
        }
    }

    fn capture(&mut self, one_shot: bool) {
        let captured = if one_shot { self.st.capture_one(2) } else { self.st.capture_multi() };
        if let Some(id) = captured {
            self.konts.push(id);
        }
    }

    fn invoke(&mut self, i: usize) {
        if self.konts.is_empty() {
            return;
        }
        let id = self.konts[i % self.konts.len()];
        match self.st.reinstate(id, &walker) {
            Ok(r) => self.deliver(&r),
            Err(ControlError::AlreadyShot | ControlError::DeadContinuation) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    fn gc(&mut self) {
        self.st.begin_gc();
        let mut work = self.konts.clone();
        while let Some(id) = work.pop() {
            if self.st.kont_alive(id) && self.st.mark_kont(id) {
                if let Some(l) = self.st.kont_link(id) {
                    work.push(l);
                }
            }
        }
        self.st.sweep(false);
        self.konts.retain(|&id| self.st.kont_alive(id));
    }
}

// ---------------------------------------------------------------------
// Operations and configurations
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Call { pc: u32, disp: usize, local: Option<i64> },
    Ret,
    CaptureOne,
    CaptureMulti,
    Invoke(usize),
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..10_000, 2usize..=MAXF, proptest::option::of(any::<i64>()))
            .prop_map(|(pc, disp, local)| Op::Call { pc, disp, local }),
        3 => Just(Op::Ret),
        2 => Just(Op::CaptureOne),
        1 => Just(Op::CaptureMulti),
        2 => (0usize..16).prop_map(Op::Invoke),
        1 => Just(Op::Gc),
    ]
}

fn config_strategy() -> impl Strategy<Value = Config> {
    (
        prop_oneof![Just(64usize), Just(256)],
        prop_oneof![Just(16usize), Just(48)],
        prop_oneof![Just(0usize), Just(16)],
        prop_oneof![Just(OverflowPolicy::OneShot), Just(OverflowPolicy::MultiShot)],
        prop_oneof![Just(OneShotPolicy::FreshSegment), Just(OneShotPolicy::SealWithPad(MAXF)),],
        prop_oneof![Just(PromotionStrategy::EagerWalk), Just(PromotionStrategy::SharedFlag)],
        prop_oneof![Just(0usize), Just(8)],
    )
        .prop_map(
            |(segment_slots, copy_bound, hysteresis_slots, overflow, oneshot, promotion, cache)| {
                Config {
                    segment_slots,
                    copy_bound,
                    hysteresis_slots,
                    overflow_policy: overflow,
                    oneshot_policy: oneshot,
                    promotion,
                    cache_limit: cache,
                    min_headroom: HEADROOM,
                    max_segments: 0,
                }
            },
        )
}

fn apply(d: &mut Driver<impl ControlProbe>, op: &Op) {
    match *op {
        Op::Call { pc, disp, local } => d.call(pc, disp, local),
        Op::Ret => d.ret(),
        Op::CaptureOne => d.capture(true),
        Op::CaptureMulti => d.capture(false),
        Op::Invoke(i) => d.invoke(i),
        Op::Gc => d.gc(),
    }
}

// ---------------------------------------------------------------------
// 1. Counting parity
// ---------------------------------------------------------------------

fn assert_parity(d: &Driver<Stats>, context: &str) {
    assert_eq!(*d.st.probe(), *d.st.stats(), "probe/stats divergence {context}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn counting_probe_reproduces_stats(
        cfg in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let mut d = Driver::new(cfg, Stats::default());
        for (i, op) in ops.iter().enumerate() {
            apply(&mut d, op);
            prop_assert_eq!(
                *d.st.probe(),
                *d.st.stats(),
                "probe/stats divergence after op {} ({:?})",
                i,
                op
            );
        }
        // Drain so underflow/exhaustion paths are exercised too.
        for _ in 0..10_000 {
            let at_marker = matches!(d.st.get(d.st.fp()), Slot::Marker);
            d.ret();
            if at_marker && matches!(d.st.get(d.st.fp()), Slot::Marker) {
                break;
            }
        }
        prop_assert_eq!(*d.st.probe(), *d.st.stats());
    }
}

/// Deterministic anchor: a one-shot chain promoted by `call/cc` under the
/// `SharedFlag` strategy, then reinvoked, keeps probe and stats in
/// lockstep (promotions are reported through the probe even though no
/// chain walk happens).
#[test]
fn counting_parity_under_shared_flag_promotion() {
    let cfg = Config {
        segment_slots: 256,
        copy_bound: 64,
        promotion: PromotionStrategy::SharedFlag,
        min_headroom: HEADROOM,
        ..Config::default()
    };
    let mut d = Driver::new(cfg, Stats::default());
    for i in 0..20u32 {
        d.call(i, 4, Some(i64::from(i)));
        d.capture(true); // a chain of one-shots
    }
    d.capture(false); // call/cc promotes the whole chain
    assert_parity(&d, "after promotion");
    assert!(d.st.stats().promotions > 0, "the multi-shot capture promoted the chain");
    assert_eq!(d.st.stats().promotion_steps, 0, "SharedFlag walks no links");
    for i in 0..8 {
        d.invoke(i * 3);
        assert_parity(&d, "after invoke");
    }
    for _ in 0..200 {
        d.ret();
    }
    assert_parity(&d, "after drain");
}

/// Deterministic anchor: the `SealWithPad` policy seals one-shots in place
/// (emitting `capture_one` + `seal`), and probe totals still match.
#[test]
fn counting_parity_under_seal_with_pad() {
    let cfg = Config {
        segment_slots: 256,
        copy_bound: 64,
        oneshot_policy: OneShotPolicy::SealWithPad(MAXF),
        cache_limit: 0,
        min_headroom: HEADROOM,
        ..Config::default()
    };
    let mut d = Driver::new(cfg, Stats::default());
    for i in 0..30u32 {
        d.call(i, 3, None);
        d.capture(true);
        assert_parity(&d, "after sealed capture");
    }
    assert!(d.st.stats().captures_one >= 30);
    for i in 0..30 {
        d.invoke(29 - i);
        assert_parity(&d, "after invoke");
    }
}

// ---------------------------------------------------------------------
// 2. Event ordering
// ---------------------------------------------------------------------

/// Checks the documented ordering invariant over a recorded trace:
/// a reinstated continuation was introduced by an earlier event, and
/// one-shot reinstatement copies zero slots.
fn check_ordering(events: &[ProbeEvent], seeded: &[KontId]) {
    let mut introduced: HashSet<u32> = seeded.iter().map(|k| k.index()).collect();
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            ProbeEvent::CaptureOne { kont, .. } | ProbeEvent::CaptureMulti { kont, .. } => {
                introduced.insert(kont.index());
            }
            ProbeEvent::Overflow { kont: Some(k), .. } => {
                introduced.insert(k.index());
            }
            ProbeEvent::Split { kont, bottom, .. } => {
                assert!(
                    introduced.contains(&kont.index()),
                    "event {i}: split of unintroduced k{}",
                    kont.index()
                );
                introduced.insert(bottom.index());
            }
            ProbeEvent::Reinstate { kont, one_shot, slots_copied, .. } => {
                assert!(
                    introduced.contains(&kont.index()),
                    "event {i}: reinstate of unintroduced k{}",
                    kont.index()
                );
                if one_shot {
                    assert_eq!(slots_copied, 0, "event {i}: one-shot reinstatement copied");
                }
            }
            ProbeEvent::Promotion { kont, .. } => {
                assert!(
                    introduced.contains(&kont.index()),
                    "event {i}: promotion of unintroduced k{}",
                    kont.index()
                );
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn trace_reinstates_only_introduced_continuations(
        cfg in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        // Capacity far above anything 120 operations can generate, so the
        // trace is complete and the invariant can be checked from genesis.
        let mut d = Driver::new(cfg, RingTraceProbe::new(1 << 16));
        for op in &ops {
            apply(&mut d, op);
        }
        for _ in 0..10_000 {
            let at_marker = matches!(d.st.get(d.st.fp()), Slot::Marker);
            d.ret();
            if at_marker && matches!(d.st.get(d.st.fp()), Slot::Marker) {
                break;
            }
        }
        prop_assert_eq!(d.st.probe().dropped(), 0, "trace must be complete for this check");
        let events: Vec<ProbeEvent> = d.st.probe().events().copied().collect();
        check_ordering(&events, &[]);
    }
}

/// The trace of a simple capture/invoke round trip reads sensibly end to
/// end (a deterministic smoke test of the symbolic rendering).
#[test]
fn trace_renders_a_round_trip() {
    let cfg =
        Config { segment_slots: 128, copy_bound: 48, min_headroom: HEADROOM, ..Config::default() };
    let mut d = Driver::new(cfg, RingTraceProbe::new(64));
    d.call(1, 4, None);
    d.call(2, 4, None);
    d.capture(true);
    d.invoke(0);
    let text: Vec<String> = d.st.probe().events().map(ToString::to_string).collect();
    assert!(text.iter().any(|l| l.starts_with("capture/1cc")), "missing capture event in {text:?}");
    assert!(
        text.iter().any(|l| l.contains("one-shot, O(1)")),
        "missing O(1) reinstatement in {text:?}"
    );
}
