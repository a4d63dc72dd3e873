//! Model-based property test for the segmented stack.
//!
//! A naive reference model implements first-class continuation *semantics*
//! with full snapshots (cloned frame vectors, no segments, no cache, no copy
//! bounds, no hysteresis). Random operation sequences are run against both
//! the model and [`SegStack`]; every observable — resumed pc tags, frame
//! locals, shot errors, exhaustion — must agree under every configuration.
//! This exercises exactly the machinery the paper adds: all the segment
//! management must be semantically invisible.

use std::cell::Cell;
use std::rc::Rc;

use oneshot_core::{
    Config, ControlError, OneShotPolicy, OverflowPolicy, PromotionStrategy, Reinstated, SegStack,
    Underflow,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The slot type and walker shared with the real stack
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Reference model: continuation chains as Rc snapshots
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Frame {
    pc: u32,
    disp: usize,
    local: Option<i64>,
}

#[derive(Debug)]
struct MKont {
    frames: Vec<Frame>,
    parent: Option<Rc<MKont>>,
    one_shot: bool,
    promoted: Cell<bool>,
    used: Cell<bool>,
}

#[derive(Debug, Default)]
struct Model {
    frames: Vec<Frame>,
    link: Option<Rc<MKont>>,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Pc(u32),
    Exhausted,
    Shot,
}

impl Model {
    fn call(&mut self, pc: u32, disp: usize, local: Option<i64>) {
        self.frames.push(Frame { pc, disp, local });
    }

    fn promote(&self) {
        let mut cursor = self.link.clone();
        while let Some(k) = cursor {
            // The real walk stops at the first continuation that is not a
            // live one-shot — including shot (used) ones.
            if k.one_shot && !k.promoted.get() && !k.used.get() {
                k.promoted.set(true);
                cursor = k.parent.clone();
            } else {
                break;
            }
        }
    }

    fn capture(&mut self, one_shot: bool) -> Option<Rc<MKont>> {
        if !one_shot {
            self.promote();
        }
        if self.frames.is_empty() {
            return self.link.clone();
        }
        let mut frames = std::mem::take(&mut self.frames);
        if let Some(top) = frames.last_mut() {
            // The top frame's local lives above the frame pointer and is
            // not part of the sealed region; only its return address (the
            // continuation's ret field) survives.
            top.local = None;
        }
        let k = Rc::new(MKont {
            frames,
            parent: self.link.take(),
            one_shot,
            promoted: Cell::new(false),
            used: Cell::new(false),
        });
        self.link = Some(k.clone());
        Some(k)
    }

    /// Returns from the current frame (or underflows), reporting what the
    /// resumed return point observes. In `lenient` mode a used one-shot is
    /// promoted and restored instead of erroring — the behaviour the real
    /// stack exhibits when an implicit multi-shot capture (the `MultiShot`
    /// overflow policy) has already promoted it.
    fn ret(&mut self, lenient: bool) -> Outcome {
        loop {
            if let Some(f) = self.frames.pop() {
                return Outcome::Pc(f.pc);
            }
            match self.link.clone() {
                None => return Outcome::Exhausted,
                Some(k) => {
                    if let Err(()) = self.restore(&k, lenient) {
                        return Outcome::Shot;
                    }
                }
            }
        }
    }

    fn restore(&mut self, k: &Rc<MKont>, lenient: bool) -> Result<(), ()> {
        if k.one_shot && !k.promoted.get() {
            if k.used.get() {
                if !lenient {
                    return Err(());
                }
                // The real implementation promoted this continuation via an
                // implicit call/cc; promotion is permanent.
                k.promoted.set(true);
            } else {
                k.used.set(true);
            }
        }
        self.frames = k.frames.clone();
        self.link = k.parent.clone();
        Ok(())
    }

    fn invoke(&mut self, k: &Option<Rc<MKont>>, lenient: bool) -> Outcome {
        match k {
            None => {
                self.frames.clear();
                self.link = None;
                Outcome::Exhausted
            }
            Some(k) => {
                if self.restore(k, lenient).is_err() {
                    return Outcome::Shot;
                }
                // Delivering the value pops the saved top frame.
                let f = self.frames.pop().expect("captured frames are non-empty");
                Outcome::Pc(f.pc)
            }
        }
    }

    fn top_local(&self) -> Option<i64> {
        self.frames.last().and_then(|f| f.local)
    }
}

// ---------------------------------------------------------------------
// Driver for the real stack mirroring the model's observables
// ---------------------------------------------------------------------

struct Real {
    st: SegStack<Slot>,
}

impl Real {
    fn new(cfg: Config) -> Self {
        Real { st: SegStack::new(cfg, Slot::Marker) }
    }

    fn call(&mut self, pc: u32, disp: usize, local: Option<i64>) {
        self.st.push_frame(disp, Slot::Ret { pc, disp });
        self.st.ensure(MAXF + 2, 1, &walker);
        if let Some(v) = local {
            let fp = self.st.fp();
            self.st.set(fp + 1, Slot::Val(v));
        }
    }

    fn deliver(&mut self, r: &Reinstated<Slot>) -> Outcome {
        match &r.ret {
            Slot::Ret { pc, disp } => {
                self.st.pop_frame(*disp);
                Outcome::Pc(*pc)
            }
            other => panic!("bad return address {other:?}"),
        }
    }

    fn ret(&mut self) -> Outcome {
        let top = self.st.get(self.st.fp()).clone();
        match top {
            Slot::Ret { pc, disp } => {
                self.st.pop_frame(disp);
                Outcome::Pc(pc)
            }
            Slot::Marker => match self.st.underflow(&walker) {
                Ok(Underflow::Exhausted) => Outcome::Exhausted,
                Ok(Underflow::Resumed(r)) => self.deliver(&r),
                Err(ControlError::AlreadyShot) => Outcome::Shot,
                Err(e) => panic!("unexpected error {e}"),
            },
            other => panic!("unexpected slot at fp: {other:?}"),
        }
    }

    fn invoke(&mut self, k: &Option<oneshot_core::KontId>) -> Outcome {
        match k {
            None => {
                self.st.clear_to_empty();
                Outcome::Exhausted
            }
            Some(id) => match self.st.reinstate(*id, &walker) {
                Ok(r) => self.deliver(&r),
                Err(ControlError::AlreadyShot) => Outcome::Shot,
                Err(e) => panic!("unexpected error {e}"),
            },
        }
    }

    fn at_marker(&self) -> bool {
        *self.st.get(self.st.fp()) == Slot::Marker
    }

    fn top_local(&self) -> Option<i64> {
        match self.st.get(self.st.fp()) {
            Slot::Ret { disp, .. } if *disp >= 2 => match self.st.get(self.st.fp() + 1) {
                Slot::Val(v) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    /// Holds every live slot of the current record against the model's
    /// frames — the shadow stack — reading each through both `get` (the
    /// cached slot pointer) and `slice` (the arena). The record holds a
    /// suffix of the logical frames: walking down from the frame pointer,
    /// each return address must be the next shadow frame's, each local the
    /// shadow's (where the model still knows it), and the walk must end on
    /// the marker at the record base. A sentinel written through `set`
    /// above the live frame must read back through both paths.
    fn check_against(&mut self, shadow: &[Frame]) {
        let st = &mut self.st;
        let (base, fp) = (st.base(), st.fp());
        let dead = fp + 2;
        st.set(dead, Slot::Val(i64::MIN));
        let record = st.slice(base, dead + 1);
        for (i, s) in record.iter().enumerate() {
            assert_eq!(st.get(base + i), s, "get and slice disagree at slot {}", base + i);
        }
        assert_eq!(record[dead - base], Slot::Val(i64::MIN), "sentinel lost");
        let mut pos = fp;
        let mut frames = shadow.iter().rev();
        loop {
            match &record[pos - base] {
                Slot::Ret { pc, disp } => {
                    let f = frames.next().expect("more frames on the stack than in the shadow");
                    assert_eq!((*pc, *disp), (f.pc, f.disp), "return address diverged at {pos}");
                    if let Some(v) = f.local {
                        assert_eq!(record[pos + 1 - base], Slot::Val(v), "local diverged at {pos}");
                    }
                    pos -= disp;
                }
                Slot::Marker => {
                    assert_eq!(pos, base, "marker above the record base");
                    break;
                }
                other => panic!("value slot {other:?} where a frame base should be ({pos})"),
            }
        }
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
        1 => Just(Op::CaptureOne),
        1 => Just(Op::CaptureMulti),
        2 => (0usize..16).prop_map(Op::Invoke),
        1 => Just(Op::Gc),
    ]
}

fn config_strategy() -> impl Strategy<Value = Config> {
    (
        prop_oneof![Just(64usize), Just(128), Just(512)],
        prop_oneof![Just(16usize), Just(24), Just(48)],
        prop_oneof![Just(0usize), Just(16), Just(32)],
        prop_oneof![Just(OverflowPolicy::OneShot), Just(OverflowPolicy::MultiShot)],
        prop_oneof![
            Just(OneShotPolicy::FreshSegment),
            Just(OneShotPolicy::SealWithPad(MAXF)),
            Just(OneShotPolicy::SealWithPad(32)),
        ],
        prop_oneof![Just(0usize), Just(4), Just(64)],
    )
        .prop_map(|(segment_slots, copy_bound, hysteresis_slots, overflow, oneshot, cache)| {
            Config {
                segment_slots,
                copy_bound,
                hysteresis_slots,
                overflow_policy: overflow,
                oneshot_policy: oneshot,
                promotion: PromotionStrategy::EagerWalk,
                cache_limit: cache,
                min_headroom: HEADROOM,
                max_segments: 0,
            }
        })
}

fn run(cfg: Config, ops: Vec<Op>) {
    // Invoking a one-shot continuation twice "is an error" — a may-error
    // the system is permitted not to detect. The real stack legitimately
    // loses the check in two situations the model cannot see: implicit
    // call/cc captures (MultiShot overflow policy) promote chains, and a
    // tail-position call/1cc can return an existing multi-shot continuation
    // (e.g. the bottom part of a copy-bound split). The model therefore
    // follows the real outcome in the permissive direction only: whenever
    // the real stack reports Shot, the strict model must agree.
    let lenient_base = true;
    let _ = &cfg;
    let mut model = Model::default();
    let mut real = Real::new(cfg);
    let mut mkonts: Vec<Option<Rc<MKont>>> = Vec::new();
    let mut rkonts: Vec<Option<oneshot_core::KontId>> = Vec::new();

    for op in ops {
        match op {
            Op::Call { pc, disp, local } => {
                model.call(pc, disp, local);
                real.call(pc, disp, local);
            }
            Op::Ret => {
                let r = real.ret();
                let lenient = lenient_base && r != Outcome::Shot;
                let m = model.ret(lenient);
                assert_eq!(m, r, "return outcomes diverged");
            }
            Op::CaptureOne => {
                mkonts.push(model.capture(true));
                rkonts.push(real.st.capture_one(2));
            }
            Op::CaptureMulti => {
                mkonts.push(model.capture(false));
                rkonts.push(real.st.capture_multi());
            }
            Op::Invoke(i) => {
                if mkonts.is_empty() {
                    continue;
                }
                let i = i % mkonts.len();
                let mk = mkonts[i].clone();
                let rk = rkonts[i];
                let r = real.invoke(&rk);
                let lenient = lenient_base && r != Outcome::Shot;
                let m = model.invoke(&mk, lenient);
                assert_eq!(m, r, "invoke outcomes diverged at kont {i}");
            }
            Op::Gc => {
                real.st.begin_gc();
                // The embedder (this test) keeps every captured kont alive.
                let mut work: Vec<oneshot_core::KontId> =
                    rkonts.iter().flatten().copied().collect();
                while let Some(id) = work.pop() {
                    if real.st.mark_kont(id) {
                        if let Some(l) = real.st.kont_link(id) {
                            work.push(l);
                        }
                    }
                }
                real.st.sweep(false);
            }
        }
        // The real record holds only a suffix of the logical frames (the
        // rest live in parent continuations), so the local is comparable
        // only when the real frame pointer sits on an actual frame.
        if let (Some(v), false) = (model.top_local(), real.at_marker()) {
            assert_eq!(real.top_local(), Some(v), "frame locals diverged");
        }
        real.check_against(&model.frames);
    }

    // Drain both stacks completely and compare the full unwind trace.
    for _ in 0..100_000 {
        let r = real.ret();
        let lenient = lenient_base && r != Outcome::Shot;
        let m = model.ret(lenient);
        assert_eq!(m, r, "drain outcomes diverged");
        if !matches!(m, Outcome::Pc(_)) {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn segmented_stack_matches_snapshot_model(
        cfg in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..140),
    ) {
        run(cfg, ops);
    }
}

/// A fixed deep-recursion scenario under the smallest configuration, as a
/// deterministic regression anchor alongside the random cases.
#[test]
fn deep_recursion_matches_model() {
    let cfg = Config {
        segment_slots: 64,
        copy_bound: 16,
        hysteresis_slots: 16,
        min_headroom: HEADROOM,
        cache_limit: 4,
        ..Config::default()
    };
    let mut ops = Vec::new();
    for i in 0..300u32 {
        ops.push(Op::Call { pc: i, disp: 2 + (i as usize % 6), local: Some(i as i64) });
        if i % 37 == 0 {
            ops.push(Op::CaptureOne);
        }
        if i % 53 == 0 {
            ops.push(Op::CaptureMulti);
        }
    }
    for i in 0..40 {
        ops.push(Op::Invoke(i % 13));
        ops.push(Op::Ret);
        ops.push(Op::Gc);
    }
    run(cfg, ops);
}

#[test]
fn split_artifact_tail_capture_regression() {
    // Minimal case found by proptest: a promoted one-shot is reinstated
    // with splitting; a later tail-position call/1cc returns the split's
    // multi-shot bottom part, so a double invocation is (permissibly) not
    // detected. The model must tolerate the missing may-error.
    let cfg = Config {
        segment_slots: 64,
        copy_bound: 16,
        hysteresis_slots: 0,
        oneshot_policy: OneShotPolicy::FreshSegment,
        overflow_policy: OverflowPolicy::OneShot,
        promotion: PromotionStrategy::EagerWalk,
        cache_limit: 0,
        min_headroom: 16,
        max_segments: 0,
    };
    let ops = vec![
        Op::Call { pc: 0, disp: 5, local: None },
        Op::Call { pc: 1, disp: 8, local: None },
        Op::Call { pc: 2, disp: 4, local: None },
        Op::CaptureOne,
        Op::CaptureOne,
        Op::CaptureOne,
        Op::CaptureOne,
        Op::CaptureOne,
        Op::CaptureMulti,
        Op::CaptureOne,
        Op::Invoke(0),
        Op::CaptureOne,
        Op::Invoke(7),
        Op::CaptureOne,
        Op::Ret,
        Op::Invoke(8),
    ];
    run(cfg, ops);
}
