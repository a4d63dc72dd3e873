//! Integration tests for the control-probe layer.
//!
//! Two properties are checked against randomized workloads (plus
//! deterministic anchors):
//!
//! 1. **Counting parity** — after every operation, the events in the
//!    stack's trace ring, folded through [`Stats::record`], equal the
//!    stack's own counters field for field: every event the counters saw
//!    reached the ring exactly once — including under the `SharedFlag`
//!    promotion strategy and the `SealWithPad` one-shot policy, and across
//!    prompts, takes, pushes and aborts.
//! 2. **Event ordering** — in the trace, every
//!    `Reinstate` event names a continuation previously *introduced* by a
//!    `CaptureOne`, `CaptureMulti`, `Overflow` (implicit, `kont: Some`),
//!    or `Split` (bottom part) event, and one-shot reinstatements copy
//!    nothing.

use std::collections::HashSet;

use oneshot_core::{
    Config, ControlError, KontId, OneShotPolicy, OverflowPolicy, ProbeEvent, PromotionStrategy,
    Reinstated, SegStack, Stats, Underflow,
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

/// Drives a traced stack through call/return/capture/invoke/prompt/GC
/// traffic, swallowing the legitimate control errors (shot or dead
/// continuations, prompts no longer on the chain).
struct Driver {
    st: SegStack<Slot>,
    konts: Vec<KontId>,
    prompts: Vec<KontId>,
    subconts: Vec<KontId>,
}

/// The return address of every prompt's frame.
const PROMPT_PC: u32 = 1 << 20;

impl Driver {
    /// A driver whose ring holds far more events than any workload here
    /// generates, so every check sees the trace from genesis.
    fn new(cfg: Config) -> Self {
        Driver {
            st: SegStack::with_trace(cfg, Slot::Marker, 1 << 16),
            konts: Vec::new(),
            prompts: Vec::new(),
            subconts: Vec::new(),
        }
    }

    /// The whole trace, oldest first.
    fn events(&self) -> Vec<ProbeEvent> {
        let ring = self.st.trace().expect("a traced stack");
        assert_eq!(ring.dropped(), 0, "the trace must be complete for these checks");
        ring.events().copied().collect()
    }

    /// Whether the trace, folded through `Stats::record`, is the stack's
    /// counters.
    fn in_parity(&self) -> bool {
        let mut folded = Stats::default();
        self.events().iter().for_each(|ev| folded.record(ev));
        folded == *self.st.stats()
    }

    fn drain(&mut self) {
        for _ in 0..10_000 {
            let at_marker = matches!(self.st.get(self.st.fp()), Slot::Marker);
            self.ret();
            if at_marker && matches!(self.st.get(self.st.fp()), Slot::Marker) {
                break;
            }
        }
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
        if let Some(&id) = pick(&self.konts, i) {
            let r = self.st.reinstate(id, &walker);
            self.settle(r);
        }
    }

    /// Delivers a transfer's result, or swallows a legitimate refusal.
    fn settle(&mut self, r: Result<Reinstated<Slot>, ControlError>) {
        match r {
            Ok(r) => self.deliver(&r),
            Err(
                ControlError::AlreadyShot
                | ControlError::DeadContinuation
                | ControlError::NoMatchingPrompt,
            ) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    /// Plants a frame to resume through, then seals it as a prompt. The
    /// room comes first, so no overflow moves the frame to a record's base.
    fn push_prompt(&mut self) {
        self.st.ensure(2 + MAXF + 2, 1, &walker);
        self.st.push_frame(2, Slot::Ret { pc: PROMPT_PC, disp: 2 });
        let tag = Slot::Val(self.prompts.len() as i64);
        self.prompts.push(self.st.push_prompt(tag, 2));
    }

    fn take(&mut self, i: usize) {
        if let Some(&p) = pick(&self.prompts, i) {
            let r = self.st.take_subcont(p, &walker).map(|(head, r)| {
                self.subconts.extend(head);
                r
            });
            self.settle(r);
        }
    }

    fn push(&mut self, i: usize) {
        if let Some(&head) = pick(&self.subconts, i) {
            let r = self.st.push_subcont(head, &walker);
            self.settle(r);
        }
    }

    fn abort(&mut self, i: usize) {
        if let Some(&p) = pick(&self.prompts, i) {
            let r = self.st.abort_to_prompt(p, &walker);
            self.settle(r);
        }
    }

    fn gc(&mut self) {
        self.st.begin_gc();
        let mut work: Vec<KontId> =
            [&self.konts, &self.prompts, &self.subconts].into_iter().flatten().copied().collect();
        while let Some(id) = work.pop() {
            if self.st.kont_alive(id) && self.st.mark_kont(id) {
                if let Some(l) = self.st.kont_link(id) {
                    work.push(l);
                }
            }
        }
        self.st.sweep(false);
        for ids in [&mut self.konts, &mut self.prompts, &mut self.subconts] {
            ids.retain(|&id| self.st.kont_alive(id));
        }
    }
}

/// The `i`-th id, wrapping; `None` when there are none.
fn pick(ids: &[KontId], i: usize) -> Option<&KontId> {
    (!ids.is_empty()).then(|| &ids[i % ids.len()])
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
    PushPrompt,
    Take(usize),
    Push(usize),
    Abort(usize),
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

/// [`op_strategy`] plus delimited control.
fn delimited_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        13 => op_strategy(),
        2 => Just(Op::PushPrompt),
        1 => (0usize..16).prop_map(Op::Take),
        1 => (0usize..16).prop_map(Op::Push),
        1 => (0usize..16).prop_map(Op::Abort),
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

fn apply(d: &mut Driver, op: &Op) {
    match *op {
        Op::Call { pc, disp, local } => d.call(pc, disp, local),
        Op::Ret => d.ret(),
        Op::CaptureOne => d.capture(true),
        Op::CaptureMulti => d.capture(false),
        Op::Invoke(i) => d.invoke(i),
        Op::Gc => d.gc(),
        Op::PushPrompt => d.push_prompt(),
        Op::Take(i) => d.take(i),
        Op::Push(i) => d.push(i),
        Op::Abort(i) => d.abort(i),
    }
}

// ---------------------------------------------------------------------
// 1. Counting parity
// ---------------------------------------------------------------------

fn assert_parity(d: &Driver, context: &str) {
    assert!(d.in_parity(), "trace/stats divergence {context}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn traced_events_sum_to_the_stats(
        cfg in config_strategy(),
        ops in proptest::collection::vec(delimited_op_strategy(), 0..120),
    ) {
        let mut d = Driver::new(cfg);
        for (i, op) in ops.iter().enumerate() {
            apply(&mut d, op);
            prop_assert!(d.in_parity(), "trace/stats divergence after op {} ({:?})", i, op);
        }
        // Drain so underflow/exhaustion paths are exercised too.
        d.drain();
        prop_assert!(d.in_parity(), "trace/stats divergence after the drain");
    }
}

/// Deterministic anchor: a one-shot chain promoted by `call/cc` under the
/// `SharedFlag` strategy, then reinvoked, keeps trace and stats in
/// lockstep (promotions are traced even though no chain walk happens).
#[test]
fn counting_parity_under_shared_flag_promotion() {
    let cfg = Config {
        segment_slots: 256,
        copy_bound: 64,
        promotion: PromotionStrategy::SharedFlag,
        min_headroom: HEADROOM,
        ..Config::default()
    };
    let mut d = Driver::new(cfg);
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
/// (emitting `CaptureOne` + `Seal`), and the trace still sums to the stats.
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
    let mut d = Driver::new(cfg);
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

/// The push-cycle hang, minimized from parity seed 87 to 13 operations: a
/// shot record keeps its `link` into a record that `take_subcont` later
/// steals, and the final push links a cycle that a prompt lookup's walk
/// never leaves.
#[test]
#[ignore = "the push-cycle hang: a shot record links into a stolen one"]
fn a_push_after_taking_an_invoked_context_terminates() {
    let cfg = Config {
        segment_slots: 256,
        copy_bound: 16,
        hysteresis_slots: 16,
        overflow_policy: OverflowPolicy::MultiShot,
        oneshot_policy: OneShotPolicy::FreshSegment,
        promotion: PromotionStrategy::EagerWalk,
        cache_limit: 0,
        min_headroom: HEADROOM,
        max_segments: 0,
    };
    let ops = [
        Op::PushPrompt,
        Op::CaptureOne,
        Op::CaptureMulti,
        Op::PushPrompt,
        Op::PushPrompt,
        Op::Call { pc: 1318, disp: 6, local: None },
        Op::CaptureOne,
        Op::Call { pc: 7569, disp: 5, local: None },
        Op::CaptureOne,
        Op::Invoke(14),
        Op::Take(13),
        Op::Invoke(11),
        Op::Push(12),
    ];
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut d = Driver::new(cfg);
        ops.iter().for_each(|op| apply(&mut d, op));
        // The last push closed the cycle; the next prompt lookup walks it.
        d.abort(0);
        d.drain();
        let _ = tx.send(d.in_parity());
    });
    let in_parity =
        rx.recv_timeout(std::time::Duration::from_secs(10)).expect("still running after 10 s");
    worker.join().unwrap();
    assert!(in_parity, "trace/stats divergence");
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
        let mut d = Driver::new(cfg);
        for op in &ops {
            apply(&mut d, op);
        }
        d.drain();
        check_ordering(&d.events(), &[]);
    }
}

/// The trace of a simple capture/invoke round trip reads sensibly end to
/// end (a deterministic smoke test of the symbolic rendering).
#[test]
fn trace_renders_a_round_trip() {
    let cfg =
        Config { segment_slots: 128, copy_bound: 48, min_headroom: HEADROOM, ..Config::default() };
    let mut d = Driver::new(cfg);
    d.call(1, 4, None);
    d.call(2, 4, None);
    d.capture(true);
    d.invoke(0);
    let text: Vec<String> = d.events().iter().map(ToString::to_string).collect();
    assert!(text.iter().any(|l| l.starts_with("capture/1cc")), "missing capture event in {text:?}");
    assert!(
        text.iter().any(|l| l.contains("one-shot, O(1)")),
        "missing O(1) reinstatement in {text:?}"
    );
}
