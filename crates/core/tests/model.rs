//! Model-based property test for the segmented stack.
//!
//! A naive reference model implements first-class continuation *semantics*
//! with full snapshots (cloned frame vectors, no segments, no cache, no copy
//! bounds, no hysteresis). Random operation sequences are run against both
//! the model and [`SegStack`]; every observable — resumed pc tags, frame
//! locals, shot errors, exhaustion — must agree under every configuration.
//! This exercises exactly the machinery the paper adds: all the segment
//! management must be semantically invisible.
//!
//! Delimited control is modelled at the first level of the CPS hierarchy
//! (Biernacka–Biernacki–Danvy's abstract machine, one layer of delimiters):
//! a prompt is a tagged record boundary, a subcontinuation is the list of
//! frames between the nearest such boundary and the top of the stack —
//! nested tags included — and it can be spliced back once. Every pool
//! slice is one `push_prompt` / `take_subcont` / `push_subcont` cycle, so
//! the same sequences also run under seeded [`FaultPlan`] segment faults,
//! with the embedder's reaction (abort to the nearest prompt) modelled too.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use oneshot_core::{
    Config, ControlError, FaultPlan, KontId, OneShotPolicy, Overflow, OverflowPolicy,
    PromotionStrategy, Reinstated, SegStack, Underflow,
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
    /// Rewritten only on the bottom record of a subcontinuation, when
    /// `push_subcont` splices it onto another stack.
    parent: RefCell<Option<Rc<MKont>>>,
    one_shot: bool,
    promoted: Cell<bool>,
    used: Cell<bool>,
    /// The tag when this record is a prompt boundary.
    prompt: Option<i64>,
}

impl MKont {
    fn parent(&self) -> Option<Rc<MKont>> {
        self.parent.borrow().clone()
    }

    fn live_one_shot(&self) -> bool {
        self.one_shot && !self.promoted.get() && !self.used.get()
    }

    /// A one-shot record that was already resumed: an error waiting for
    /// the return (or abort) that reaches it.
    fn shot(&self) -> bool {
        self.one_shot && !self.promoted.get() && self.used.get()
    }
}

/// The chain between the top of the stack and a prompt, nearest record
/// first, and the prompt record itself.
type Context = (Vec<Rc<MKont>>, Rc<MKont>);

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
            if k.live_one_shot() {
                k.promoted.set(true);
                cursor = k.parent();
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
        Some(self.seal(one_shot, None))
    }

    /// Seals the (non-empty) current frames into a record at the head of
    /// the chain.
    fn seal(&mut self, one_shot: bool, prompt: Option<i64>) -> Rc<MKont> {
        let mut frames = std::mem::take(&mut self.frames);
        // The top frame's local lives above the frame pointer and is not
        // part of the sealed region; only its return address (the
        // continuation's ret field) survives.
        frames.last_mut().expect("sealing a non-empty record").local = None;
        let k = Rc::new(MKont {
            frames,
            parent: RefCell::new(self.link.take()),
            one_shot,
            promoted: Cell::new(false),
            used: Cell::new(false),
            prompt,
        });
        self.link = Some(k.clone());
        k
    }

    /// Plants a resume frame returning to `pc` and seals everything below
    /// the delimited extent as a one-shot record tagged `tag`.
    fn push_prompt(&mut self, tag: i64, pc: u32) {
        self.call(pc, 2, None);
        self.seal(true, Some(tag));
    }

    /// The context up to the nearest prompt tagged `tag` (any prompt when
    /// `None`), or `None` when no such prompt is on the chain.
    fn context(&self, tag: Option<i64>) -> Option<Context> {
        let mut between = Vec::new();
        let mut cursor = self.link.clone();
        while let Some(k) = cursor {
            if k.prompt.is_some() && (tag.is_none() || k.prompt == tag) {
                return Some((between, k));
            }
            cursor = k.parent();
            between.push(k);
        }
        None
    }

    /// `control0`: detaches the frames above `prompt` as a fresh one-shot
    /// chain (the frame list, nested tags kept; `None` when there are no
    /// frames) and resumes at the prompt, consuming it.
    fn take_subcont(&mut self, (between, prompt): &Context) -> (Option<Rc<MKont>>, Outcome) {
        let top = (!self.frames.is_empty()).then(|| self.seal(true, None));
        let mut head = None;
        for k in between.iter().rev().chain(top.iter()) {
            head = Some(Rc::new(MKont {
                frames: k.frames.clone(),
                parent: RefCell::new(head.take()),
                one_shot: true,
                promoted: Cell::new(false),
                used: Cell::new(false),
                prompt: k.prompt,
            }));
        }
        (head, self.invoke(&Some(prompt.clone()), false))
    }

    /// Splices `head`'s frames on top of the current stack and returns
    /// into their top frame; a second push of the same chain is shot.
    fn push_subcont(&mut self, head: &Rc<MKont>) -> Outcome {
        if head.used.get() {
            return Outcome::Shot;
        }
        let below = self.capture(true);
        let mut tail = head.clone();
        while let Some(next) = tail.parent() {
            tail = next;
        }
        *tail.parent.borrow_mut() = below;
        self.invoke(&Some(head.clone()), false)
    }

    /// Discards the frames above `prompt` — a live one-shot record among
    /// them can never be resumed again — and resumes at the prompt.
    fn abort_to_prompt(&mut self, (between, prompt): &Context) -> Outcome {
        for k in between.iter().filter(|k| k.live_one_shot()) {
            k.used.set(true);
        }
        self.frames.clear();
        self.invoke(&Some(prompt.clone()), false)
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
        self.link = k.parent();
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

    /// Pushes a frame. `false` means an injected segment fault refused it:
    /// the stack is as it was before the call.
    fn call(&mut self, pc: u32, disp: usize, local: Option<i64>) -> bool {
        self.st.push_frame(disp, Slot::Ret { pc, disp });
        if self.st.ensure(MAXF + 2, 1, &walker) == Overflow::Ceiling {
            self.st.pop_frame(disp);
            return false;
        }
        if let Some(v) = local {
            let fp = self.st.fp();
            self.st.set(fp + 1, Slot::Val(v));
        }
        true
    }

    /// Plants the resume frame and seals the prompt, the way the VM's
    /// `%push-prompt` does: room is ensured *before* the frame is planted,
    /// so an overflow cannot relocate it and leave the record empty.
    fn push_prompt(&mut self, tag: i64, pc: u32) -> bool {
        if self.st.ensure(MAXF + 2, 1, &walker) == Overflow::Ceiling {
            return false;
        }
        self.st.push_frame(2, Slot::Ret { pc, disp: 2 });
        self.st.push_prompt(Slot::Val(tag), MAXF + 2);
        true
    }

    fn find_prompt(&self, tag: Option<i64>) -> Option<KontId> {
        self.st.find_prompt(|s| tag.is_none_or(|t| *s == Slot::Val(t)))
    }

    fn take_subcont(&mut self, prompt: KontId) -> (Option<KontId>, Outcome) {
        let (head, r) = self.st.take_subcont(prompt, &walker).expect("a live prompt on the chain");
        (head, self.deliver(&r))
    }

    fn push_subcont(&mut self, head: KontId) -> Outcome {
        match self.st.push_subcont(head, &walker) {
            Ok(r) => self.deliver(&r),
            Err(ControlError::AlreadyShot) => Outcome::Shot,
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    fn abort_to_prompt(&mut self, prompt: KontId) -> Outcome {
        let r = self.st.abort_to_prompt(prompt, &walker).expect("a live prompt on the chain");
        self.deliver(&r)
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
    /// cached slot pointer) and `slice` (the slab). The record holds a
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
    PushPrompt { tag: i64, pc: u32 },
    TakeSubcont(i64),
    PushSubcont(usize),
    AbortToPrompt(i64),
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
        3 => (0i64..2, 10_000u32..20_000).prop_map(|(tag, pc)| Op::PushPrompt { tag, pc }),
        3 => (0i64..2).prop_map(Op::TakeSubcont),
        2 => (0usize..4).prop_map(Op::PushSubcont),
        1 => (0i64..2).prop_map(Op::AbortToPrompt),
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

/// The nearest prompt tagged `tag` (any prompt when `None`) on both
/// stacks, which must agree on whether there is one. A prompt whose record
/// is already shot is an error waiting for whoever reaches it, not a
/// target: `None`, like no prompt at all.
fn lookup(model: &Model, real: &Real, tag: Option<i64>) -> Option<(Context, KontId)> {
    let ctx = model.context(tag);
    let rp = real.find_prompt(tag);
    assert_eq!(ctx.is_some(), rp.is_some(), "prompt lookups diverged for {tag:?}");
    ctx.zip(rp).filter(|(ctx, _)| !ctx.1.shot())
}

/// Aborts both stacks to the nearest prompt tagged `tag` (any prompt when
/// `None`, the reaction to a fault) and compares where control resumes.
fn abort(model: &mut Model, real: &mut Real, tag: Option<i64>) {
    let Some((ctx, rp)) = lookup(model, real, tag) else { return };
    let r = real.abort_to_prompt(rp);
    assert_eq!(model.abort_to_prompt(&ctx), r, "abort outcomes diverged");
}

/// Whether continuation `k`'s chain runs through any of `records`.
fn reaches(k: &Option<Rc<MKont>>, records: &[Rc<MKont>]) -> bool {
    let mut cursor = k.clone();
    while let Some(k) = cursor {
        if records.iter().any(|r| Rc::ptr_eq(r, &k)) {
            return true;
        }
        cursor = k.parent();
    }
    false
}

/// Arms the real stack's segment fault from the seeded plan, if the plan
/// has one. The horizon keeps the countdown inside a 140-operation run.
fn arm_segment_fault(real: &mut Real, seed: u64) {
    if let Some(n) = FaultPlan::seeded(seed, 48).segment_fault_after {
        real.st.arm_segment_fault(n);
    }
}

fn run(cfg: Config, ops: Vec<Op>, fault_seed: Option<u64>) {
    // Invoking a one-shot continuation twice "is an error" — a may-error
    // the system is permitted not to detect. The real stack legitimately
    // loses the check in two situations the model cannot see: implicit
    // call/cc captures (MultiShot overflow policy) promote chains, and a
    // tail-position call/1cc can return an existing multi-shot continuation
    // (e.g. the bottom part of a copy-bound split). The model therefore
    // follows the real outcome in the permissive direction only: whenever
    // the real stack reports Shot, the strict model must agree.
    let lenient_base = true;
    let mut model = Model::default();
    let mut real = Real::new(cfg);
    let mut mkonts: Vec<Option<Rc<MKont>>> = Vec::new();
    let mut rkonts: Vec<Option<KontId>> = Vec::new();
    let mut msubs: Vec<Rc<MKont>> = Vec::new();
    let mut rsubs: Vec<KontId> = Vec::new();
    let mut faults = 0;
    if let Some(seed) = fault_seed {
        arm_segment_fault(&mut real, seed);
    }

    for op in ops {
        // An injected segment fault refuses the frame an operation needs.
        // The embedder's reaction is modelled too: the operation does not
        // happen, and control aborts to the nearest prompt (the escape a
        // guard makes when the VM raises stack-overflow).
        let mut faulted = false;
        match op {
            Op::Call { pc, disp, local } => {
                if real.call(pc, disp, local) {
                    model.call(pc, disp, local);
                } else {
                    faulted = true;
                }
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
                // The embedder (this test) keeps every captured kont and
                // every subcontinuation alive.
                let mut work: Vec<KontId> =
                    rkonts.iter().flatten().chain(rsubs.iter()).copied().collect();
                while let Some(id) = work.pop() {
                    if real.st.mark_kont(id) {
                        if let Some(l) = real.st.kont_link(id) {
                            work.push(l);
                        }
                    }
                }
                real.st.sweep(false);
            }
            Op::PushPrompt { tag, pc } => {
                if real.push_prompt(tag, pc) {
                    model.push_prompt(tag, pc);
                } else {
                    faulted = true;
                }
            }
            Op::TakeSubcont(tag) => {
                let Some((ctx, rp)) = lookup(&model, &real, Some(tag)) else { continue };
                // A take would launder a shot record into the
                // subcontinuation instead of reporting it; skip those.
                if ctx.0.iter().any(|k| k.shot()) {
                    continue;
                }
                // The context's records now belong to the subcontinuation:
                // the real stack steals the live one-shot ones in place and
                // copies the rest, which the model (that cannot see every
                // promotion) cannot tell apart. Continuations captured
                // inside the context are dropped rather than compared.
                for i in (0..mkonts.len()).rev() {
                    if reaches(&mkonts[i], &ctx.0) {
                        mkonts.remove(i);
                        rkonts.remove(i);
                    }
                }

                let (rhead, r) = real.take_subcont(rp);
                let (mhead, m) = model.take_subcont(&ctx);
                assert_eq!(m, r, "take outcomes diverged");
                assert_eq!(mhead.is_some(), rhead.is_some(), "empty contexts diverged");
                if let (Some(mh), Some(rh)) = (mhead, rhead) {
                    msubs.push(mh);
                    rsubs.push(rh);
                }
            }
            Op::PushSubcont(i) => {
                if msubs.is_empty() {
                    continue;
                }
                // Counted back from the newest, so most pushes are first
                // pushes; the rest must report the shot.
                let i = msubs.len() - 1 - i % msubs.len();
                let r = real.push_subcont(rsubs[i]);
                let m = model.push_subcont(&msubs[i]);
                assert_eq!(m, r, "push outcomes diverged at subcontinuation {i}");
            }
            Op::AbortToPrompt(tag) => abort(&mut model, &mut real, Some(tag)),
        }
        if faulted {
            abort(&mut model, &mut real, None);
            faults += 1;
            arm_segment_fault(&mut real, fault_seed.expect("only a seeded run faults") + faults);
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
        run(cfg, ops, None);
    }

    #[test]
    fn segmented_stack_matches_snapshot_model_under_segment_faults(
        cfg in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..140),
        seed in any::<u32>(),
    ) {
        run(cfg, ops, Some(u64::from(seed)));
    }
}

/// One pool job as the executor drives it: every slice is a prompt around
/// a splice of the parked subcontinuation, ended by a take — under the
/// smallest configuration, with a segment fault somewhere in the middle.
#[test]
fn engine_slices_match_model() {
    let cfg = Config {
        segment_slots: 64,
        copy_bound: 16,
        hysteresis_slots: 16,
        min_headroom: HEADROOM,
        cache_limit: 4,
        ..Config::default()
    };
    let mut ops = vec![Op::Call { pc: 1, disp: 4, local: Some(1) }];
    for slice in 0..40u32 {
        ops.push(Op::PushPrompt { tag: 0, pc: 10_000 + slice });
        if slice > 0 {
            ops.push(Op::PushSubcont(0));
        }
        for i in 0..(slice % 7) {
            ops.push(Op::Call { pc: 100 * slice + i, disp: 2 + (i as usize % 6), local: Some(7) });
        }
        if slice % 9 == 4 {
            ops.push(Op::PushPrompt { tag: 1, pc: 20_000 + slice });
        }
        if slice % 5 == 3 {
            ops.push(Op::Gc);
        }
        ops.push(Op::TakeSubcont(0));
    }
    run(cfg.clone(), ops.clone(), None);
    for seed in 0..32 {
        run(cfg.clone(), ops.clone(), Some(seed));
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
    run(cfg, ops, None);
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
    run(cfg, ops, None);
}
