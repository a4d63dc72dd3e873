//! The segmented stack and its continuation operations.
//!
//! See the crate-level documentation for the model. Absolute *slot indices*
//! index into the current segment; the *frame pointer* `fp` is such an
//! index, pointing at the base of the active frame (which holds the frame's
//! return address, per §3.1 of the paper). There is deliberately no stack
//! pointer: the embedder adjusts `fp` by compile-time displacements before
//! and after calls, exactly as the paper's compiler does.
//!
//! # The paper's figures, in ASCII
//!
//! Figure 1 — the segmented stack model. A logical stack is a list of
//! segments linked through records; each frame holds its return address at
//! the base:
//!
//! ```text
//!        current record                segment
//!   ┌──────────────────────┐      ┌──────────────┐◄─ end
//!   │ segment  ────────────┼───┐  │   (free)     │
//!   │ base, size           │   │  ├──────────────┤
//!   │ link ──► older kont  │   │  │ local m      │
//!   └──────────────────────┘   │  │ ...          │
//!                              │  │ argument n   │
//!                 fp ──────────┼─►│ return addr  │◄─ frame base
//!                              │  ├──────────────┤
//!                              │  │ caller frames│
//!                              └─►│ [marker]     │◄─ record base
//!                                 └──────────────┘
//! ```
//!
//! Figure 2 — capture. `call/cc` ([`SegStack::capture_multi`]) seals the
//! occupied portion `[base, fp)` into a continuation and keeps the
//! remainder as the current record; `call/1cc`
//! ([`SegStack::capture_one`]) encapsulates the *whole* segment
//! (`size != current_size`) and takes a fresh segment from the cache:
//!
//! ```text
//!   call/cc:  [ sealed kont │ new current record ]   (same segment)
//!   call/1cc: [ whole segment → kont ]  +  fresh segment from cache
//! ```
//!
//! Figure 3 — multi-shot reinstatement copies the saved slots back into
//! the current segment ([`SegStack::reinstate`], multi path), splitting
//! first when the saved portion exceeds the copy bound.
//!
//! Figure 4 — one-shot reinstatement swaps segments in O(1): the current
//! segment is discarded into the cache, the continuation's record becomes
//! current, and the continuation is marked *shot* (the paper sets both
//! size fields to −1).
//!
//! # Frame walking
//!
//! Operations that must find frame boundaries (splitting at the copy bound,
//! overflow hysteresis) take a *walker*: a function mapping a return-address
//! slot to the displacement between the frame holding it and its caller's
//! frame. The paper stores this displacement in the code stream immediately
//! before each return point (§3.1), and so does the `oneshot-vm` embedder:
//! its walker reads the frame-size word at the return address
//! (`slot::ret_disp`), with no side table. The walker returns `None` for the
//! underflow marker (or any non-return-address slot), which terminates a
//! walk. Both operations walk with one routine, `frame_floor`.

use std::mem::MaybeUninit;
use std::ptr::NonNull;

use crate::config::{Config, OneShotPolicy, OverflowPolicy, PromotionStrategy};
use crate::error::ControlError;
use crate::fault::FaultClock;
use crate::kont::{Kont, KontId, KontKind};
use crate::probe::{ProbeEvent, RingTraceProbe};
use crate::slab::{Key, Slab};
use crate::stats::Stats;

/// Reports one control event, named by its [`ProbeEvent`] variant: builds
/// it once and hands it to the built-in counters ([`Stats::record`], so
/// they are derived from the events and cannot drift from them) and, on a
/// traced stack, to the ring. It borrows only the `stats` and `trace`
/// fields, so it may run while a continuation is borrowed out of `konts`.
macro_rules! emit {
    ($stack:ident, $variant:ident $($fields:tt)?) => {{
        let ev = ProbeEvent::$variant $($fields)?;
        $stack.stats.record(&ev);
        if let Some(ring) = &mut $stack.trace {
            ring.push(ev);
        }
    }};
}

/// Identifies a physical stack segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub(crate) Key);

impl SegmentId {
    /// The slot index, useful for rendering probe traces. A freed
    /// segment's index is reused; the identifier is not.
    pub fn index(self) -> u32 {
        self.0.index()
    }
}

#[derive(Debug)]
struct Segment<S> {
    /// The slot storage: a boxed slice of `MaybeUninit<S>`, allocated
    /// uninitialised, owned through the raw pointer `Box::leak` gave back
    /// and freed in `Drop`. It is held raw rather than as a `Box` because
    /// [`SegStack::cur_slots`] keeps a second pointer to the current
    /// segment's storage: a `Box` asserts unique access to its allocation
    /// each time it is used, which would invalidate that alias; two copies
    /// of one raw pointer do not.
    store: NonNull<[MaybeUninit<S>]>,
    /// The watermark: slots `[0, init)` have been written, and no slot at
    /// or above `init` ever has been, so pages past it are never touched.
    /// Never falls; at least 1 (the marker in slot 0).
    init: usize,
    /// Number of continuations referencing this segment, plus one if it is
    /// the current segment. A segment with `rc == 0` is dead (or cached).
    rc: u32,
    /// Whether the segment has the default capacity and is therefore
    /// eligible for the segment cache.
    default_size: bool,
}

#[allow(unsafe_code)]
impl<S> Segment<S> {
    /// A segment of `cap` slots, of which only slot 0, holding `marker`, is
    /// written: O(1) whatever the capacity.
    fn new(cap: usize, marker: S, default_size: bool) -> Self {
        let mut store = Box::<[S]>::new_uninit_slice(cap);
        store[0].write(marker);
        Segment { store: NonNull::from(Box::leak(store)), init: 1, rc: 1, default_size }
    }

    /// The slot capacity, written or not.
    #[inline]
    fn cap(&self) -> usize {
        self.store.len()
    }

    /// The written slots `[0, init)` as a raw slice — what
    /// [`SegStack::cur_slots`] caches for the current segment.
    #[inline]
    fn written(&self) -> NonNull<[S]> {
        NonNull::slice_from_raw_parts(self.store.cast::<S>(), self.init)
    }

    #[inline]
    fn slots(&self) -> &[S] {
        // SAFETY: `store` is the live allocation `new` leaked and its first
        // `init` slots are initialised (the watermark's invariant); shared
        // access to the segment (and so to the stack that owns it) means
        // nothing is writing through the other copy of the pointer.
        unsafe { self.written().as_ref() }
    }

    #[inline]
    fn slots_mut(&mut self) -> &mut [S] {
        // SAFETY: as `slots`; exclusive access to the segment comes from
        // exclusive access to the stack, the only holder of the alias.
        unsafe { self.written().as_mut() }
    }

    /// Raises the watermark to `hi`, writing `marker` into every slot
    /// between. A no-op when `hi` is not above it.
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds the capacity.
    fn cover(&mut self, hi: usize, marker: &S)
    where
        S: Clone,
    {
        assert!(hi <= self.cap(), "watermark past segment capacity: {hi}");
        let base = self.store.cast::<S>().as_ptr();
        while self.init < hi {
            // SAFETY: `init < hi <= cap`, so the slot lies inside the
            // allocation, and it is uninitialised (at or above the
            // watermark), so writing without dropping loses nothing. The
            // watermark rises after each write, so a panicking `clone`
            // leaves it covering exactly the written slots.
            unsafe { base.add(self.init).write(marker.clone()) };
            self.init += 1;
        }
    }
}

#[allow(unsafe_code)]
impl<S> Drop for Segment<S> {
    fn drop(&mut self) {
        // SAFETY: the first `init` slots are initialised and dropped here
        // only; `store` came from `Box::leak` in `new` and is freed only
        // here, once (a `MaybeUninit` box drops no element itself).
        unsafe {
            std::ptr::drop_in_place(self.written().as_ptr());
            drop(Box::from_raw(self.store.as_ptr()));
        }
    }
}

// SAFETY: a segment owns its slot storage exactly as a `Box<[S]>` holding
// the `init` written slots would (the `MaybeUninit` tail holds no `S`), so
// it is as thread-safe as that box; `init`, `rc` and `default_size` are
// plain data.
#[allow(unsafe_code)]
unsafe impl<S: Send> Send for Segment<S> {}
#[allow(unsafe_code)]
unsafe impl<S: Sync> Sync for Segment<S> {}

/// One shared promotion flag (§3.3): an entry of a stack's flag table.
#[derive(Debug, Clone, Copy, Default)]
struct Flag {
    /// Set once a multi-shot capture has promoted the chain holding it.
    set: bool,
    /// Scratch for [`SegStack::sweep`]: whether a surviving `OneShot`
    /// record holds the flag.
    held: bool,
}

/// The result of reinstating a continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Reinstated<S> {
    /// The return address through which control resumes: the embedder
    /// should deliver the continuation's value and jump here. The frame
    /// pointer has already been repositioned.
    pub ret: S,
    /// Whether the O(1) one-shot path was taken (no copying).
    pub one_shot: bool,
}

/// The result of returning through the base of the current segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Underflow<S> {
    /// The link continuation was reinstated; resume through this result.
    Resumed(Reinstated<S>),
    /// The continuation chain is exhausted: the program is complete.
    Exhausted,
}

/// The action taken by [`SegStack::ensure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// The frame fits; nothing happened.
    Fits,
    /// The stack overflowed and was handled per [`OverflowPolicy`]; the
    /// frame pointer has moved to the relocated frame in a new segment.
    Handled,
    /// The segment ceiling ([`Config::max_segments`]) was hit — or an
    /// injected segment fault fired — and nothing was allocated. The stack
    /// is unchanged. An injected fault arms the *grace* period itself; for a
    /// real ceiling the embedder may first reclaim dead segments and retry,
    /// then call [`SegStack::enter_overflow_grace`] so the frames needed to
    /// unwind (e.g. raise a catchable `stack-overflow` condition) can be
    /// pushed past the ceiling. The grace period ends when segments are
    /// released back below the ceiling, when a continuation is explicitly
    /// reinstated, or when the stack is cleared.
    Ceiling,
}

/// A segmented control stack (Figures 1–4 of the paper).
///
/// `S` is the slot type stored in frames — typically a tagged value type
/// that can also represent return addresses and the underflow marker.
///
/// Every control transition is one [`ProbeEvent`], summed into
/// [`SegStack::stats`] and, on a stack built with [`SegStack::with_trace`],
/// recorded in its ring as well.
#[derive(Debug)]
pub struct SegStack<S> {
    segs: Slab<Segment<S>>,
    konts: Slab<Kont<S>>,
    /// Free list of default-size segments (§3.2's stack segment cache).
    cache: Vec<SegmentId>,
    cfg: Config,
    marker: S,
    /// Minimum headroom guaranteed above `fp` after any reinstatement; the
    /// embedder raises this to its maximum static frame size.
    reserve: usize,
    // --- the current stack record (Figure 1) ---
    cur_seg: SegmentId,
    /// The written slots of segment `cur_seg`, cached so a frame-slot
    /// access is one load, not a lookup in the slab. Invariant: it is
    /// the `written()` slice of the live segment `cur_seg`, its length that
    /// segment's watermark — the current record's reference is counted in
    /// that segment's `rc`, so the segment is neither freed nor cached while
    /// current, and its storage never moves (the slab may move the
    /// `Segment` header, not the allocation). Assigned only by
    /// [`SegStack::set_cur_seg`], with `cur_seg`, and by `cover`.
    cur_slots: NonNull<[S]>,
    cur_base: usize,
    cur_end: usize,
    /// `min(cur_end, cur_slots.len())`: the frame pointer plus what the
    /// current record may use without raising the watermark. Refreshed by
    /// `cover`, which runs wherever a record is installed or resized.
    limit: usize,
    cur_link: Option<KontId>,
    fp: usize,
    /// The promotion flags `OneShot` records hold by index (§3.3). Entry 0
    /// is never set; under `EagerWalk` it is the only one, so the default
    /// strategy allocates no flag.
    flags: Vec<Flag>,
    /// Flags no surviving record holds, rebuilt by `sweep`. Its capacity
    /// covers the whole table, so the rebuild allocates nothing.
    free_flags: Vec<u32>,
    stats: Stats,
    /// The ring recording every control event, on a traced stack.
    trace: Option<RingTraceProbe>,
    /// Injected segment-fault countdown: when it fires, the next `ensure`
    /// reports [`Overflow::Ceiling`] regardless of actual occupancy.
    fault: FaultClock,
    /// While set, `ensure` neither ticks nor fires the fault countdown
    /// (critical sections such as winder entries).
    fault_deferred: bool,
    /// Whether the ceiling is temporarily waived so the embedder can unwind
    /// (set by an injected fault or [`SegStack::enter_overflow_grace`];
    /// cleared when occupancy drops back under the ceiling, a continuation
    /// is explicitly reinstated, or the stack is cleared).
    grace: bool,
}

// SAFETY: `cur_slots` is the one field that is not `Send`/`Sync` by itself.
// It points into a segment owned by `segs`, so it travels with the stack and
// is dereferenced only through `&self`/`&mut self` — it adds no sharing the
// owning `Segment` does not already account for. Every other field is `S`
// (`marker`, and inside `segs`/`konts`) or plain data, hence the bounds.
#[allow(unsafe_code)]
unsafe impl<S: Send> Send for SegStack<S> {}
#[allow(unsafe_code)]
unsafe impl<S: Sync> Sync for SegStack<S> {}

impl<S: Clone> SegStack<S> {
    /// Creates a stack with one large initial segment, an empty cache, and
    /// the given underflow `marker`, which is installed in the base slot of
    /// every stack record.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::validate`]; use `validate` first for
    /// a recoverable error.
    pub fn new(cfg: Config, marker: S) -> Self {
        Self::build(cfg, marker, None)
    }

    /// Like [`SegStack::new`], but every control event, from the initial
    /// segment's allocation on, is also recorded in a [`RingTraceProbe`]
    /// keeping the last `capacity` events (see [`SegStack::trace`]).
    ///
    /// # Panics
    ///
    /// As [`SegStack::new`].
    pub fn with_trace(cfg: Config, marker: S, capacity: usize) -> Self {
        Self::build(cfg, marker, Some(RingTraceProbe::new(capacity)))
    }

    fn build(cfg: Config, marker: S, trace: Option<RingTraceProbe>) -> Self {
        cfg.validate().expect("invalid segmented stack configuration");
        let reserve = cfg.min_headroom;
        let mut st = SegStack {
            segs: Slab::new(),
            konts: Slab::new(),
            cache: Vec::new(),
            cfg,
            marker,
            reserve,
            // Neither names a segment until the first is installed below.
            cur_seg: SegmentId(Key::DANGLING),
            cur_slots: NonNull::slice_from_raw_parts(NonNull::dangling(), 0),
            cur_base: 0,
            cur_end: 0,
            limit: 0,
            cur_link: None,
            fp: 0,
            flags: vec![Flag::default()],
            free_flags: Vec::new(),
            stats: Stats::default(),
            trace,
            fault: FaultClock::disarmed(),
            fault_deferred: false,
            grace: false,
        };
        let seg = st.alloc_segment(st.cfg.segment_slots);
        st.install_record(seg, None, 0);
        st
    }

    /// The event ring of a stack built with [`SegStack::with_trace`].
    pub fn trace(&self) -> Option<&RingTraceProbe> {
        self.trace.as_ref()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The configuration this stack was created with.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The current frame pointer (an absolute slot index).
    #[inline]
    pub fn fp(&self) -> usize {
        self.fp
    }

    /// Repositions the frame pointer. The embedder is responsible for
    /// keeping it within the current record.
    #[inline]
    pub fn set_fp(&mut self, fp: usize) {
        debug_assert!(fp >= self.cur_base && fp < self.cur_end);
        self.fp = fp;
    }

    /// Base slot index of the current stack record.
    pub fn base(&self) -> usize {
        self.cur_base
    }

    /// One past the last slot available to the current record.
    pub fn end(&self) -> usize {
        self.cur_end
    }

    /// Slots available above the frame pointer: `[fp, fp + headroom)` may
    /// be written with [`SegStack::set`] without calling
    /// [`SegStack::ensure`] first. It can be less than `end() - fp`: the
    /// rest of the record lies past the segment's watermark, and `ensure`
    /// raises it.
    #[inline]
    pub fn headroom(&self) -> usize {
        self.limit.saturating_sub(self.fp)
    }

    /// The continuation the current record returns into, if any.
    pub fn current_link(&self) -> Option<KontId> {
        self.cur_link
    }

    /// Makes `seg` the current segment and refreshes the cached pointer to
    /// its written slots — the one place `cur_seg` is assigned. Returns the
    /// segment's capacity. The caller sets the record's bounds and then
    /// calls `cover`, which refreshes `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not live.
    fn set_cur_seg(&mut self, seg: SegmentId) -> usize {
        let s = &self.segs[seg.0];
        self.cur_slots = s.written();
        self.cur_seg = seg;
        s.cap()
    }

    /// Slots the watermark rises by at a time: about 1 KiB of them, so a
    /// growing stack leaves the fast path of `ensure` once per step.
    const COVER_STEP: usize = match std::mem::size_of::<S>() {
        0 => 1024,
        n if n >= 1024 => 1,
        n => 1024 / n,
    };

    /// Raises the current segment's watermark so that `[0, hi)` is written,
    /// clamped to the record end, and refreshes `limit`.
    #[inline]
    fn cover(&mut self, hi: usize) {
        let hi = hi.min(self.cur_end);
        if hi > self.cur_slots.len() {
            self.raise_watermark(hi);
        }
        self.limit = self.cur_end.min(self.cur_slots.len());
    }

    /// `cover`'s write: marks up to `hi` rounded up to a whole step, no
    /// further than the record end.
    #[cold]
    fn raise_watermark(&mut self, hi: usize) {
        let to = hi.next_multiple_of(Self::COVER_STEP).min(self.cur_end);
        let seg = &mut self.segs[self.cur_seg.0];
        seg.cover(to, &self.marker);
        self.cur_slots = seg.written();
    }

    /// The `cur_slots` invariant, checked against the slab (debug builds
    /// assert it on every slot access).
    fn cache_is_current(&self) -> bool {
        let s = &self.segs[self.cur_seg.0];
        std::ptr::addr_eq(self.cur_slots.as_ptr(), s.store.as_ptr())
            && self.cur_slots.len() == s.init
    }

    /// Reads the slot at absolute index `i` in the current segment.
    ///
    /// The bounds check is a `debug_assert`: the caller must keep `i`
    /// below the current segment's watermark, which every slot below
    /// `fp() + headroom()` is. Embedder indices are frame-relative
    /// displacements validated by [`SegStack::ensure`] at frame entry, so
    /// the per-access check is pure overhead on the dispatch hot path; the
    /// debug-profile test run keeps the assertion armed.
    #[allow(unsafe_code)]
    #[inline]
    pub fn get(&self, i: usize) -> &S {
        debug_assert!(self.cache_is_current(), "stale segment cache");
        debug_assert!(i < self.cur_slots.len(), "slot read out of segment: {i}");
        // SAFETY: `cur_slots` is the live current segment's written storage
        // (the field's invariant); `i` is within it per the documented
        // contract (debug-asserted above); and `&self` rules out a
        // concurrent write, which needs `&mut self`.
        unsafe { &*self.cur_slots.as_ptr().cast::<S>().add(i) }
    }

    /// Writes the slot at absolute index `i` in the current segment.
    ///
    /// Same contract as [`SegStack::get`]: the bounds check is a
    /// `debug_assert`, and `i` must lie below the watermark, so the slot
    /// written over holds a value.
    #[allow(unsafe_code)]
    #[inline]
    pub fn set(&mut self, i: usize, v: S) {
        debug_assert!(self.cache_is_current(), "stale segment cache");
        debug_assert!(i < self.cur_slots.len(), "slot write out of segment: {i}");
        // SAFETY: as for `get`; `&mut self` makes this the only access to
        // the stack, and so to the segment's storage, for its duration.
        unsafe { *self.cur_slots.as_ptr().cast::<S>().add(i) = v };
    }

    /// A slice of the current segment, `[lo, hi)` — used by embedder GCs to
    /// trace the live portion of the running stack.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the current segment's watermark,
    /// which is at least `fp() + headroom()` (GC-rate, not dispatch-rate,
    /// so the checked index stays — and so does the lookup in the slab,
    /// which makes this the independent view of the current segment that
    /// the tests hold `get`/`set` against).
    pub fn slice(&self, lo: usize, hi: usize) -> &[S] {
        &self.segs[self.cur_seg.0].slots()[lo..hi]
    }

    /// Pushes a frame: writes `ret` at `fp + disp` and advances the frame
    /// pointer there, mirroring the paper's pre-call adjustment.
    ///
    /// The new frame base must lie below [`SegStack::end`]; it need not
    /// lie within the headroom, so a caller may push frames up to the
    /// record's end without [`SegStack::ensure`] (the watermark rises with
    /// them). Only debug builds check the bound: past `end()` the write
    /// would leave the record.
    #[inline]
    pub fn push_frame(&mut self, disp: usize, ret: S) {
        let nfp = self.fp + disp;
        debug_assert!(nfp < self.cur_end, "frame pushed past segment end; missing ensure()");
        if nfp >= self.limit {
            self.cover(nfp + 1);
        }
        self.set(nfp, ret);
        self.fp = nfp;
    }

    /// Pops a frame: moves the frame pointer down by `disp`, mirroring the
    /// paper's post-return adjustment.
    #[inline]
    pub fn pop_frame(&mut self, disp: usize) {
        debug_assert!(self.fp >= self.cur_base + disp);
        self.fp -= disp;
    }

    /// Looks up a continuation object. `id` must be live (an embedder's
    /// GC-traced ids are); [`SegStack::kont_alive`] tells.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a collected continuation whose slot is
    /// still free, and in debug builds whenever `id` is stale (see
    /// [`Slab`]'s `Index`).
    pub fn kont(&self, id: KontId) -> &Kont<S> {
        &self.konts[id.0]
    }

    /// Whether `id` refers to a live (uncollected) continuation object.
    pub fn kont_alive(&self, id: KontId) -> bool {
        self.konts.contains(id.0)
    }

    /// The occupied saved slots of a continuation — what a multi-shot
    /// reinstatement would copy. Empty for shot continuations.
    ///
    /// # Panics
    ///
    /// As [`SegStack::kont`].
    pub fn kont_slice(&self, id: KontId) -> &[S] {
        let k = &self.konts[id.0];
        match k.kind {
            KontKind::Shot => &[],
            // An unshot continuation holds a reference to its segment, so
            // `k.seg` is live. GC and backtrace rate: the index is checked.
            _ => &self.segs[k.seg.0].slots()[k.base..k.base + k.cur],
        }
    }

    /// Number of live continuation objects.
    pub fn kont_count(&self) -> usize {
        self.konts.len()
    }

    /// Number of live segments (including cached ones).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Number of segments currently in the cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of live segments *excluding* cached ones — the occupancy
    /// measure the [`Config::max_segments`] ceiling is checked against.
    pub fn live_segment_count(&self) -> usize {
        self.segs.len() - self.cache.len()
    }

    /// Whether the stack is in the post-[`Overflow::Ceiling`] grace period
    /// during which the ceiling is waived.
    pub fn in_overflow_grace(&self) -> bool {
        self.grace
    }

    /// Arms the injected segment fault: the `n`-th subsequent
    /// [`SegStack::ensure`] check (1-based) reports [`Overflow::Ceiling`]
    /// even though the stack has room — the deterministic "premature
    /// overflow" fault of a [`FaultPlan`](crate::FaultPlan).
    pub fn arm_segment_fault(&mut self, n: u64) {
        self.fault = FaultClock::arm(n);
    }

    /// Whether an injected segment fault is armed and has not fired yet.
    /// (To tell an injected ceiling from a real one after the fact, check
    /// [`SegStack::in_overflow_grace`]: only the injected fault arms the
    /// grace period itself.)
    pub fn segment_fault_armed(&self) -> bool {
        self.fault.is_armed()
    }

    /// Defers the injected segment fault: while `on`, [`SegStack::ensure`]
    /// neither ticks nor fires the fault countdown. Embedders set this
    /// around checks made in critical sections (e.g. `dynamic-wind` winder
    /// entries) where an asynchronous fault would unbalance bookkeeping;
    /// the countdown is preserved, not consumed.
    pub fn defer_segment_fault(&mut self, on: bool) {
        self.fault_deferred = on;
    }

    /// Total slot capacity of all live segments, cached ones included —
    /// the stack memory measure of the fragmentation experiment (E7). It
    /// counts capacity, written or not: a segment's pages past its
    /// watermark were never touched and need not be resident.
    pub fn resident_slots(&self) -> usize {
        self.segs.iter().map(|(_, s)| s.cap()).sum()
    }

    /// Raises the post-reinstatement headroom guarantee to at least
    /// `slots`. Embedders call this with their maximum static frame size so
    /// that resumed code can never write past a segment end between two
    /// overflow checks.
    pub fn raise_reserve(&mut self, slots: usize) {
        self.reserve = self.reserve.max(slots);
    }

    // ------------------------------------------------------------------
    // Capture (Figure 2)
    // ------------------------------------------------------------------

    /// Captures the current continuation as a multi-shot continuation
    /// (`call/cc`): seals the occupied portion of the current segment and
    /// shortens the current record. No slots are copied. One-shot
    /// continuations in the chain are promoted per the configured
    /// [`PromotionStrategy`] (§3.3).
    ///
    /// Returns `None` when the continuation chain is empty and the stack is
    /// empty — the continuation is then "return from the program".
    pub fn capture_multi(&mut self) -> Option<KontId> {
        self.promote_chain();
        let occupied = self.fp - self.cur_base;
        if occupied == 0 {
            // Proper tail recursion (§3.2): the link is the continuation.
            emit!(self, CaptureEmpty);
            return self.cur_link;
        }
        let id = self.seal(self.fp, occupied, KontKind::MultiShot, 0, None);
        emit!(self, CaptureMulti { kont: id, seg: self.cur_seg, slots: occupied });
        // The remainder of the segment becomes the current record.
        self.cur_base = self.fp;
        self.cur_link = Some(id);
        let fp = self.fp;
        let m = self.marker.clone();
        self.set(fp, m);
        Some(id)
    }

    /// Seals `[cur_base, top)` of the current record — its frames, with the
    /// return address at `top` — into a record of `kind` owning `size`
    /// slots from the base, linked to the current link. The record takes a
    /// reference to the current segment.
    fn seal(
        &mut self,
        top: usize,
        size: usize,
        kind: KontKind,
        flag: u32,
        prompt: Option<S>,
    ) -> KontId {
        let k = Kont {
            seg: self.cur_seg,
            base: self.cur_base,
            size,
            cur: top - self.cur_base,
            ret: self.get(top).clone(),
            link: self.cur_link,
            kind,
            flag,
            prompt,
            mark: false,
        };
        self.segs[self.cur_seg.0].rc += 1;
        KontId(self.konts.insert(k))
    }

    /// Captures the current continuation as a one-shot continuation
    /// (`call/1cc`): encapsulates the segment in the continuation without
    /// copying and installs a new current segment per the configured
    /// [`OneShotPolicy`]. `need` is the number of slots the embedder will
    /// write above the new frame pointer before the next overflow check.
    ///
    /// Returns `None` under the same conditions as
    /// [`SegStack::capture_multi`]. When the stack is empty the link is
    /// reused and no segment changes occur (tail rule).
    pub fn capture_one(&mut self, need: usize) -> Option<KontId> {
        if self.fp == self.cur_base {
            emit!(self, CaptureEmpty);
            return self.cur_link;
        }
        Some(self.seal_one_shot(None, need))
    }

    /// Seals the current, non-empty record as a one-shot record — a
    /// `call/1cc` continuation, or a prompt when `prompt` carries its tag —
    /// per the configured [`OneShotPolicy`], and installs the record that
    /// replaces it.
    fn seal_one_shot(&mut self, prompt: Option<S>, need: usize) -> KontId {
        let occupied = self.fp - self.cur_base;
        let flag = self.flag_below();
        // `SealWithPad` seals at a fixed displacement above the occupied
        // portion when the remainder of the segment has room, and the
        // remainder stays current (§3.4). Otherwise the record takes the
        // whole segment, as in the basic scheme (§3.2).
        let pad = match self.cfg.oneshot_policy {
            OneShotPolicy::SealWithPad(pad) => {
                let pad = pad.max(self.reserve);
                let room_after = self.cur_end.saturating_sub(self.fp + pad);
                (room_after > need.max(self.reserve)).then_some(pad)
            }
            OneShotPolicy::FreshSegment => None,
        };
        let end = pad.map_or(self.cur_end, |pad| self.fp + pad);
        let (seg, span, is_prompt) = (self.cur_seg, end - self.cur_base, prompt.is_some());
        let id = self.seal(self.fp, span, KontKind::OneShot, flag, prompt);
        // Sealed in place, the record is a second reference to the segment;
        // otherwise it takes over the current record's reference.
        if pad.is_none() {
            self.segs[seg.0].rc -= 1;
        }
        if is_prompt {
            emit!(self, PromptPush { kont: id, seg, slots: occupied });
        } else {
            emit!(self, CaptureOne { kont: id, seg, slots: occupied, span });
        }
        match pad {
            Some(pad) => {
                emit!(self, Seal { kont: id, seg, pad });
                self.cur_base = end;
                self.cur_link = Some(id);
                self.fp = end;
                self.cover(end + need.max(self.reserve) + 1);
                let m = self.marker.clone();
                self.set(end, m);
            }
            None => {
                let new_seg = self.obtain_segment(need.max(self.reserve) + 1);
                self.install_record(new_seg, Some(id), need);
            }
        }
        id
    }

    // ------------------------------------------------------------------
    // Delimited control (prompts and subcontinuations)
    //
    // A prompt is just a stack-record boundary: `push_prompt` seals the
    // current record exactly like a one-shot capture, but tags the record
    // with an embedder-supplied slot value. "The continuation up to the
    // prompt" is then the chain of records between the top of stack and
    // the tagged record, so taking a subcontinuation is a chain splice —
    // unpromoted one-shot records are *stolen* in place (they are uniquely
    // owned by the current chain), and only records that were promoted to
    // multi-shot status have to be copied.
    // ------------------------------------------------------------------

    /// Seals the current record as a delimited-control prompt tagged with
    /// `tag`. The record behaves exactly like a one-shot capture — same
    /// sealing policy, same promotion rules — but carries the tag so
    /// [`SegStack::find_prompt`] can locate it. `need` is as for
    /// [`SegStack::capture_one`].
    ///
    /// The current record must be non-empty: the slot at the frame pointer
    /// becomes the record's return address, through which control resumes
    /// when the prompt is consumed by [`SegStack::take_subcont`] or
    /// [`SegStack::abort_to_prompt`]. Embedders plant a resume slot first.
    pub fn push_prompt(&mut self, tag: S, need: usize) -> KontId {
        debug_assert!(
            self.fp > self.cur_base,
            "push_prompt on an empty record; plant a resume slot first"
        );
        self.seal_one_shot(Some(tag), need)
    }

    /// The nearest prompt record on the current chain whose tag satisfies
    /// `matches`, walking from the top of stack toward the root.
    pub fn find_prompt<F>(&self, mut matches: F) -> Option<KontId>
    where
        F: FnMut(&S) -> bool,
    {
        let mut cursor = self.cur_link;
        while let Some(id) = cursor {
            let k = &self.konts[id.0];
            if let Some(tag) = &k.prompt {
                if matches(tag) {
                    return Some(id);
                }
            }
            cursor = k.link;
        }
        None
    }

    /// Validates that `prompt` names a live prompt record reachable on the
    /// current chain, and reports whether a record from the top of stack
    /// down to it, the prompt included, was already shot.
    fn check_prompt_reachable(&self, prompt: KontId) -> Result<bool, ControlError> {
        if self.konts.get(prompt.0).is_none_or(|k| k.prompt.is_none()) {
            return Err(ControlError::NoMatchingPrompt);
        }
        let (mut shot, mut cursor) = (false, self.cur_link);
        while let Some(id) = cursor {
            let k = &self.konts[id.0];
            shot |= k.is_shot();
            if id == prompt {
                return Ok(shot);
            }
            cursor = k.link;
        }
        Err(ControlError::NoMatchingPrompt)
    }

    /// Detaches the delimited context — every record between the top of
    /// stack and `prompt` — into a subcontinuation, consumes the prompt,
    /// and reinstates the prompt's record (`control0` semantics; operators
    /// that keep the prompt re-push it around the handler).
    ///
    /// Returns the head of the detached chain (`None` when the delimited
    /// context was empty) along with the reinstatement of the prompt's
    /// record. The subcontinuation is one-shot: its records hold a fresh
    /// promotion flag, disconnected from the chain they left, and
    /// [`SegStack::push_subcont`] shoots the head. Unpromoted one-shot
    /// records are stolen in place — no copying, the splice the paper's
    /// representation makes O(chain length) instead of O(slots) — while
    /// promoted records (still invokable through other continuation
    /// values) are copied into fresh one-shot records, preserving nested
    /// prompt tags.
    ///
    /// # Errors
    ///
    /// [`ControlError::NoMatchingPrompt`] if `prompt` is not a live prompt
    /// record on the current chain; [`ControlError::AlreadyShot`] if a
    /// record of the delimited context, or the prompt's, was already
    /// resumed through a one-shot continuation. Nothing is mutated in
    /// either case.
    pub fn take_subcont<W>(
        &mut self,
        prompt: KontId,
        walker: &W,
    ) -> Result<(Option<KontId>, Reinstated<S>), ControlError>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        if self.check_prompt_reachable(prompt)? {
            return Err(ControlError::AlreadyShot);
        }
        self.grace = false;
        // The detached chain gets its own promotion flag: sharing one with
        // the records staying behind would let an unrelated capture_multi
        // promote the subcontinuation (SharedFlag sets one flag per chain).
        let flag = self.fresh_flag();

        // Seal the occupied portion of the current record as the
        // subcontinuation's top record. No replacement record is installed:
        // the prompt's record is about to become current. As a one-shot the
        // record owns its whole span, so pushing it back restores the
        // original headroom (Figure 4 applies unchanged to the spliced-in
        // record).
        let occupied = self.fp - self.cur_base;
        let head_start = if occupied == 0 {
            self.cur_link
        } else {
            let span = self.cur_end - self.cur_base;
            Some(self.seal(self.fp, span, KontKind::OneShot, flag, None))
        };

        // Walk [head_start, prompt): steal unpromoted one-shots in place,
        // copy promoted records, re-linking as we go.
        let mut records = 0usize;
        let mut slots = 0usize;
        let mut copied = 0usize;
        let mut new_head: Option<KontId> = None;
        let mut prev: Option<KontId> = None;
        let mut cursor = head_start;
        while let Some(id) = cursor {
            if id == prompt {
                break;
            }
            let k = &self.konts[id.0];
            let (next, live) = (k.link, self.live(k));
            let keep = if live {
                let k = &mut self.konts[id.0];
                slots += k.cur;
                k.flag = flag;
                id
            } else {
                // Promoted or multi-shot: copy the occupied slots into a
                // fresh one-shot record; the original remains invokable
                // through whatever continuation values reference it.
                let (src_seg, src_base, n, ret, ptag) = {
                    let k = &self.konts[id.0];
                    (k.seg, k.base, k.cur, k.ret.clone(), k.prompt.clone())
                };
                let seg = self.obtain_segment(n + self.reserve + 1);
                self.copy_slots(src_seg, src_base, seg, 0, n);
                // The bottom frame of the copy returns into the link (for
                // a split top part the source base slot holds a real
                // return address owned by the bottom part).
                let m = self.marker.clone();
                self.segs[seg.0].slots_mut()[0] = m;
                let size = self.segs[seg.0].cap();
                copied += n;
                slots += n;
                let nk = Kont {
                    seg,
                    base: 0,
                    size,
                    cur: n,
                    ret,
                    link: next,
                    kind: KontKind::OneShot,
                    flag,
                    prompt: ptag,
                    mark: false,
                };
                KontId(self.konts.insert(nk))
            };
            records += 1;
            match prev {
                None => new_head = Some(keep),
                Some(p) => self.konts[p.0].link = Some(keep),
            }
            prev = Some(keep);
            cursor = next;
        }
        // Detach the tail from the prompt.
        if let Some(p) = prev {
            self.konts[p.0].link = None;
        }
        let head = new_head;

        emit!(self, SubcontTake { head, records, slots, copied });

        // The sealed head took over the current record's span; if the
        // prompt record is promoted, its multi-shot reinstatement copies
        // into the current record, so install a fresh one first. (A live
        // one-shot prompt swaps segments and never reads the old record.)
        if occupied > 0 && !self.is_live_one_shot(prompt) {
            let n = self.konts[prompt.0].cur;
            let old = self.cur_seg;
            self.release_segment(old);
            let seg = self.obtain_segment(n + self.reserve + 1);
            self.install_record(seg, None, 0);
        }
        let r = self.reinstate_inner(prompt, walker)?;
        Ok((head, r))
    }

    /// Splices a subcontinuation taken by [`SegStack::take_subcont`] back
    /// onto the current stack: seals the current record, links the
    /// subcontinuation's tail to it, re-unifies promotion flags with the
    /// current chain (restoring the shared-flag invariant), and reinstates
    /// the head — the O(1) segment swap of Figure 4, which also shoots it.
    ///
    /// # Errors
    ///
    /// [`ControlError::AlreadyShot`] if the head was already pushed, or if
    /// any record of the subcontinuation was already resumed through a
    /// one-shot continuation captured inside it (splicing its remains back
    /// in could link the chain into a cycle);
    /// [`ControlError::DeadContinuation`] if the head was collected.
    /// Nothing is mutated in either case.
    pub fn push_subcont<W>(
        &mut self,
        head: KontId,
        walker: &W,
    ) -> Result<Reinstated<S>, ControlError>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        if !self.konts.contains(head.0) {
            return Err(ControlError::DeadContinuation);
        }
        let (mut records, mut tail, mut cursor) = (0usize, head, Some(head));
        while let Some(id) = cursor {
            let k = &self.konts[id.0];
            if k.is_shot() {
                return Err(ControlError::AlreadyShot);
            }
            (records, tail, cursor) = (records + 1, id, k.link);
        }
        self.grace = false;
        let flag = self.flag_below();

        // Seal the current record; the subcontinuation's bottom frame
        // returns into it (tail rule when empty).
        let occupied = self.fp - self.cur_base;
        let below = if occupied == 0 {
            emit!(self, CaptureEmpty);
            self.cur_link
        } else {
            let span = self.cur_end - self.cur_base;
            Some(self.seal(self.fp, span, KontKind::OneShot, flag, None))
        };

        // Unify flags down the spliced chain (a promoted record, if any,
        // is itself a flag boundary and stops nothing). Under `EagerWalk`
        // every flag is entry 0 already.
        let mut cursor = (self.cfg.promotion == PromotionStrategy::SharedFlag).then_some(head);
        while let Some(id) = cursor {
            if self.is_live_one_shot(id) {
                self.konts[id.0].flag = flag;
            }
            cursor = self.konts[id.0].link;
        }
        self.konts[tail.0].link = below;

        emit!(self, SubcontPush { head, records });
        self.reinstate_inner(head, walker)
    }

    /// Aborts straight to `prompt`: discards every record between the top
    /// of stack and the prompt, consumes the prompt, and reinstates its
    /// record — the subcontinuation is never materialized. Discarded
    /// unpromoted one-shot records are uniquely owned by this chain, so
    /// they are marked shot and their segment references released eagerly;
    /// promoted records may be shared and are left for the sweep.
    ///
    /// # Errors
    ///
    /// [`ControlError::NoMatchingPrompt`] as for
    /// [`SegStack::take_subcont`]. Nothing is mutated in that case.
    pub fn abort_to_prompt<W>(
        &mut self,
        prompt: KontId,
        walker: &W,
    ) -> Result<Reinstated<S>, ControlError>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        // A shot record in the context is discarded like the rest.
        self.check_prompt_reachable(prompt)?;
        self.grace = false;
        let mut records = 0usize;
        let mut cursor = self.cur_link;
        while let Some(id) = cursor {
            if id == prompt {
                break;
            }
            let (next, seg) = {
                let k = &self.konts[id.0];
                (k.link, k.seg)
            };
            if self.is_live_one_shot(id) {
                let m = self.marker.clone();
                let k = &mut self.konts[id.0];
                k.kind = KontKind::Shot;
                k.size = 0;
                k.cur = 0;
                k.ret = m;
                self.release_segment(seg);
            }
            records += 1;
            cursor = next;
        }
        self.cur_link = Some(prompt);
        emit!(self, AbortToPrompt { prompt, records });
        self.reinstate_inner(prompt, walker)
    }

    /// Whether `id` is a live one-shot: of `OneShot` kind, with its
    /// chain's promotion flag unset.
    pub(crate) fn is_live_one_shot(&self, id: KontId) -> bool {
        self.live(&self.konts[id.0])
    }

    /// [`SegStack::is_live_one_shot`] of a record already looked up.
    fn live(&self, k: &Kont<S>) -> bool {
        k.kind == KontKind::OneShot && !self.flags[k.flag as usize].set
    }

    /// The promotion flag for a one-shot record sealed above the current
    /// link: the link's own when it is a live one-shot (so a whole chain
    /// shares one flag), a fresh one otherwise.
    fn flag_below(&mut self) -> u32 {
        match self.cur_link.map(|l| &self.konts[l.0]) {
            Some(k) if self.live(k) => k.flag,
            _ => self.fresh_flag(),
        }
    }

    /// An unset flag that no live record holds: entry 0 under
    /// [`PromotionStrategy::EagerWalk`], which never sets a flag, so the
    /// default strategy allocates nothing; otherwise one recycled by
    /// `sweep` or a new entry.
    fn fresh_flag(&mut self) -> u32 {
        if self.cfg.promotion == PromotionStrategy::EagerWalk {
            return 0;
        }
        if let Some(f) = self.free_flags.pop() {
            self.flags[f as usize].set = false;
            return f;
        }
        self.flags.push(Flag::default());
        self.free_flags.reserve(self.flags.len());
        (self.flags.len() - 1) as u32
    }

    /// Promotes every live one-shot continuation reachable through the
    /// current link chain, stopping at the first continuation that is not a
    /// live one-shot (§3.3: the operation that created a multi-shot
    /// continuation already promoted everything below it).
    fn promote_chain(&mut self) {
        match self.cfg.promotion {
            PromotionStrategy::SharedFlag => {
                if let Some(l) = self.cur_link.filter(|&l| self.is_live_one_shot(l)) {
                    let f = self.konts[l.0].flag;
                    self.flags[f as usize].set = true;
                    emit!(self, Promotion { kont: l, walked: false });
                }
            }
            PromotionStrategy::EagerWalk => {
                let mut cursor = self.cur_link;
                while let Some(id) = cursor.filter(|&id| self.is_live_one_shot(id)) {
                    // Promotion sets the size of a one-shot continuation
                    // equal to its current size, restoring the multi-shot
                    // invariant. The segment tail it owned beyond the
                    // occupied portion is abandoned (fragmentation, §3.4).
                    let k = &mut self.konts[id.0];
                    k.size = k.cur;
                    k.kind = KontKind::MultiShot;
                    cursor = k.link;
                    emit!(self, Promotion { kont: id, walked: true });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reinstatement (Figures 3 and 4)
    // ------------------------------------------------------------------

    /// Reinstates continuation `id`, repositioning the frame pointer at its
    /// saved frame. The embedder should deliver the continuation's value
    /// and jump through the returned return address.
    ///
    /// One-shot continuations are reinstated in O(1) by discarding the
    /// current segment into the cache (Figure 4); multi-shot continuations
    /// are copied into the current segment, splitting first if the saved
    /// portion exceeds the copy bound (Figure 3).
    ///
    /// `walker` maps a return-address slot to its frame displacement (see
    /// the module docs on frame walking); it is consulted only when
    /// splitting.
    ///
    /// # Errors
    ///
    /// [`ControlError::AlreadyShot`] if `id` was a one-shot continuation
    /// that has already been invoked; [`ControlError::DeadContinuation`] if
    /// `id` was collected.
    pub fn reinstate<W>(&mut self, id: KontId, walker: &W) -> Result<Reinstated<S>, ControlError>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        // An explicit reinstatement transfers control out of whatever extent
        // overflowed, so any ceiling grace period is over: the next ensure
        // re-checks occupancy (after the embedder's collect-and-retry).
        self.grace = false;
        if !self.konts.contains(id.0) {
            return Err(ControlError::DeadContinuation);
        }
        self.reinstate_inner(id, walker)
    }

    /// [`SegStack::reinstate`] minus the grace-period reset and the
    /// liveness check — the underflow path resumes the *same* logical
    /// extent (returning into a caller's frames), which must not end a
    /// grace period that is letting error delivery run above the ceiling.
    /// `id` is live: a link of the current chain, or an id its caller
    /// has checked.
    fn reinstate_inner<W>(&mut self, id: KontId, walker: &W) -> Result<Reinstated<S>, ControlError>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        let k = &self.konts[id.0];
        match k.kind {
            KontKind::Shot => Err(ControlError::AlreadyShot),
            KontKind::OneShot if self.live(k) => Ok(self.reinstate_one(id)),
            _ => Ok(self.reinstate_multi(id, walker)),
        }
    }

    /// Figure 4: O(1) one-shot reinstatement. The current segment is
    /// discarded (into the cache if unshared), the continuation's record
    /// becomes current, and the continuation is marked shot.
    fn reinstate_one(&mut self, id: KontId) -> Reinstated<S> {
        let k = &mut self.konts[id.0];
        let (seg, base, size, cur, link) = (k.seg, k.base, k.size, k.cur, k.link);
        emit!(self, Reinstate { kont: id, seg, one_shot: true, slots_copied: 0 });
        let ret = std::mem::replace(&mut k.ret, self.marker.clone());
        // Mark shot (the paper sets both size fields to -1).
        k.kind = KontKind::Shot;
        k.size = 0;
        k.cur = 0;
        // The current record's reference moves off the old segment...
        let old = self.cur_seg;
        self.release_segment(old);
        // ...and takes over the continuation's reference to its segment.
        self.set_cur_seg(seg);
        self.cur_base = base;
        self.cur_end = base + size;
        self.cur_link = link;
        self.fp = base + cur;
        self.cover(self.fp + self.reserve + 1);
        Reinstated { ret, one_shot: true }
    }

    /// Figure 3: multi-shot reinstatement by copying, with lazy splitting
    /// at frame boundaries when the saved portion exceeds the copy bound.
    fn reinstate_multi<W>(&mut self, mut id: KontId, walker: &W) -> Reinstated<S>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        if self.konts[id.0].cur > self.cfg.copy_bound {
            id = self.split(id, walker);
        }
        let (src_seg, src_base, n, link, ret) = {
            let k = &self.konts[id.0];
            (k.seg, k.base, k.cur, k.link, k.ret.clone())
        };

        // Make room at the base of the current record; if the record is too
        // short, move to a fresh (possibly oversized) segment. The source
        // segment is kept alive by the continuation's own reference.
        if self.cur_end - self.cur_base < n + self.reserve + 1 {
            let old = self.cur_seg;
            self.release_segment(old);
            let seg = self.obtain_segment(n + self.reserve + 1);
            self.install_record(seg, link, 0);
        } else {
            self.cur_link = link;
        }
        // The copy and the headroom after it lie below the watermark.
        self.cover(self.cur_base + n + self.reserve + 1);

        // Copy the saved frames to the base of the current record.
        emit!(self, Reinstate { kont: id, seg: src_seg, one_shot: false, slots_copied: n });
        self.copy_slots(src_seg, src_base, self.cur_seg, self.cur_base, n);
        // Patch the underflow marker into the copy: the bottom frame of the
        // record must return into the link. (For an unsplit continuation
        // the source base slot already holds the marker; for a split one it
        // holds a real return address owned by the bottom part.)
        let b = self.cur_base;
        let m = self.marker.clone();
        self.set(b, m);
        self.fp = self.cur_base + n;
        Reinstated { ret, one_shot: false }
    }

    /// Splits continuation `id` at a frame boundary so that its occupied
    /// portion does not exceed the copy bound, mutating it in place into
    /// the top part linked to a freshly created bottom part (§3.2). Returns
    /// `id` (now the top part). The split persists, so repeated invocations
    /// of the same large continuation split at most once per boundary.
    fn split<W>(&mut self, id: KontId, walker: &W) -> KontId
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        let k = &self.konts[id.0];
        let (seg, base, top, link) = (k.seg, k.base, k.base + k.cur, k.link);
        // Split off as much as the bound allows (§3.2).
        let x = self.frame_floor(seg, base, top, &k.ret, top - self.cfg.copy_bound, walker);
        if x == top || x == base {
            // A single frame exceeds the bound (or nothing to split):
            // give up and copy whole. The paper notes splitting off a
            // single frame is always sufficient under its compiler's frame
            // size limits; we degrade gracefully instead.
            return id;
        }
        let boundary_ret = self.segs[seg.0].slots()[x].clone();
        let bottom = Kont {
            seg,
            base,
            size: x - base,
            cur: x - base,
            ret: boundary_ret,
            link,
            kind: KontKind::MultiShot,
            flag: 0,
            // A prompt tag marks the boundary at the *top* of its record,
            // so a split prompt keeps the tag on the top part (`id`).
            prompt: None,
            mark: false,
        };
        self.segs[seg.0].rc += 1;
        let bottom_id = KontId(self.konts.insert(bottom));
        let k = &mut self.konts[id.0];
        k.base = x;
        k.size = top - x;
        k.cur = top - x;
        k.link = Some(bottom_id);
        emit!(self, Split { kont: id, bottom: bottom_id, slots: x - base });
        id
    }

    /// The lowest frame boundary in `seg` reachable by walking down from
    /// the frame at `top`, whose return address is `ret`, without passing
    /// below `lowest` or the record base `base` (§3.2's split and
    /// hysteresis). Returns `top` when even the top frame's caller lies
    /// below `lowest`.
    fn frame_floor<W>(
        &self,
        seg: SegmentId,
        base: usize,
        top: usize,
        ret: &S,
        lowest: usize,
        walker: &W,
    ) -> usize
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        let slots = self.segs[seg.0].slots();
        let (mut x, mut r) = (top, ret);
        while let Some(d) = walker(r) {
            if d == 0 || d > x - base || x - d < lowest {
                break;
            }
            x -= d;
            if x == base {
                break;
            }
            r = &slots[x];
        }
        x
    }

    // ------------------------------------------------------------------
    // Underflow and overflow (§3.2)
    // ------------------------------------------------------------------

    /// Handles a return through the base of the current record (the slot
    /// holding the underflow marker): reinstates the link continuation
    /// implicitly, or reports that the continuation chain is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates [`ControlError::AlreadyShot`] when the link is a one-shot
    /// continuation that has already been invoked through another path.
    pub fn underflow<W>(&mut self, walker: &W) -> Result<Underflow<S>, ControlError>
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        debug_assert_eq!(self.fp, self.cur_base, "underflow away from record base");
        emit!(self, Underflow { seg: self.cur_seg });
        match self.cur_link {
            None => Ok(Underflow::Exhausted),
            Some(link) => Ok(Underflow::Resumed(self.reinstate_inner(link, walker)?)),
        }
    }

    /// Ensures the active frame can grow to `need` slots above the frame
    /// pointer, handling stack overflow per the configured
    /// [`OverflowPolicy`] if not (§3.2). `live` is the number of slots at
    /// and above `fp` that are currently live (at least 1, for the return
    /// address at the frame base) and must be relocated with the frame.
    ///
    /// On overflow, the old segment is encapsulated in an implicit
    /// continuation and the top frames — bounded by the hysteresis
    /// setting — are copied into a fresh segment.
    ///
    /// When a segment ceiling is configured ([`Config::max_segments`]) or
    /// an injected segment fault fires ([`SegStack::arm_segment_fault`]),
    /// this can instead report [`Overflow::Ceiling`]: nothing is allocated
    /// and the embedder is expected to unwind (the ceiling is waived until
    /// occupancy drops back under it, so the unwinding itself can grow the
    /// stack).
    #[inline]
    pub fn ensure<W>(&mut self, need: usize, live: usize, walker: &W) -> Overflow
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        debug_assert!(live >= 1 && live <= need);
        // §3.1: the common case is one compare of the frame pointer against
        // the segment end. Everything else — the fault clock, the ceiling,
        // the overflow itself — is out of line.
        // `limit` is the end, or the watermark below it.
        if !self.fault.is_armed() && self.fp + need <= self.limit {
            return Overflow::Fits;
        }
        self.ensure_slow(need, live, walker)
    }

    /// [`SegStack::ensure`] when the frame does not fit or an injected
    /// segment fault is armed.
    #[cold]
    fn ensure_slow<W>(&mut self, need: usize, live: usize, walker: &W) -> Overflow
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        if self.fault.is_armed() && !self.fault_deferred && self.fault.tick() && !self.grace {
            self.grace = true;
            return Overflow::Ceiling;
        }
        if self.fp + need <= self.cur_end {
            self.cover(self.fp + need);
            return Overflow::Fits;
        }
        if !self.grace
            && self.cfg.max_segments > 0
            && self.live_segment_count() >= self.cfg.max_segments
        {
            // The occupancy count may be pinned by dead segments awaiting a
            // sweep; the embedder decides whether to reclaim and retry or to
            // unwind (calling [`SegStack::enter_overflow_grace`] first so the
            // unwinding itself can grow the stack).
            return Overflow::Ceiling;
        }
        self.overflow(need, live, walker);
        Overflow::Handled
    }

    /// Begins the post-ceiling grace period: the segment ceiling is waived
    /// so that error-delivery machinery can push frames past it. The grace
    /// period ends when occupancy drops back under the ceiling, when a
    /// continuation is explicitly reinstated (control has escaped the
    /// overflowing extent), or when the stack is cleared.
    pub fn enter_overflow_grace(&mut self) {
        self.grace = true;
    }

    fn overflow<W>(&mut self, need: usize, live: usize, walker: &W)
    where
        W: Fn(&S) -> Option<usize> + ?Sized,
    {
        // Choose the relocation boundary: at least the active frame moves;
        // hysteresis moves up to `hysteresis_slots` more (§3.2).
        let (fp, base, old_seg) = (self.fp, self.cur_base, self.cur_seg);
        let lowest = (fp + live).saturating_sub(self.cfg.hysteresis_slots);
        let x = self.frame_floor(old_seg, base, fp, self.get(fp), lowest, walker);
        let relocated = fp + live - x;
        let occupied = x - base;

        let created = if occupied == 0 {
            // The whole record relocates; no continuation is created (the
            // empty-capture rule) and the old segment loses the current
            // record's reference. (Defer the release until after the copy
            // below.)
            None
        } else if self.cfg.overflow_policy == OverflowPolicy::MultiShot {
            // An implicit call/cc must promote the chain below (§3.3).
            self.promote_chain();
            Some(self.seal(x, occupied, KontKind::MultiShot, 0, None))
        } else {
            let flag = self.flag_below();
            Some(self.seal(x, self.cur_end - base, KontKind::OneShot, flag, None))
        };
        let link = created.or(self.cur_link);

        let new_seg = self.obtain_segment(relocated + need - live + self.reserve);
        // Copy the relocated frames to the base of the new segment.
        emit!(self, Overflow { kont: created, from: old_seg, to: new_seg, slots_moved: relocated });
        self.copy_slots(old_seg, x, new_seg, 0, relocated);
        self.cur_end = self.set_cur_seg(new_seg);
        self.cur_base = 0;
        self.cur_link = link;
        self.fp = fp - x;
        self.cover(self.fp + need.max(self.reserve) + 1);
        // The bottom relocated frame returns into the implicit continuation
        // (or straight into the old link when the record was empty, in
        // which case slot 0 already held the marker and this is a no-op).
        let m = self.marker.clone();
        self.set(0, m);
        // The current record's reference leaves the old segment. When a
        // continuation was created it holds its own reference, so the
        // segment survives; when the record was empty the segment may drop
        // to the cache here.
        self.release_segment(old_seg);
    }

    /// Abandons the current record and installs a fresh empty record with
    /// no link — the state in which returning from the bottom frame ends
    /// the program. Used by embedders to implement invocation of the empty
    /// ("halt") continuation. Captured continuations are unaffected.
    pub fn clear_to_empty(&mut self) {
        let old = self.cur_seg;
        self.release_segment(old);
        let seg = self.obtain_segment(self.cfg.segment_slots);
        self.install_record(seg, None, 0);
        self.grace = false;
    }

    // ------------------------------------------------------------------
    // Segment management (§3.2's cache)
    // ------------------------------------------------------------------

    fn alloc_segment(&mut self, min_slots: usize) -> SegmentId
    where
        S: Clone,
    {
        let cap = min_slots.max(self.cfg.segment_slots);
        let seg = Segment::new(cap, self.marker.clone(), cap == self.cfg.segment_slots);
        let id = SegmentId(self.segs.insert(seg));
        emit!(self, SegmentAlloc { seg: id, slots: cap });
        id
    }

    /// Obtains a segment with at least `min_slots` capacity: from the cache
    /// when possible (§3.2), else freshly allocated.
    fn obtain_segment(&mut self, min_slots: usize) -> SegmentId {
        if min_slots <= self.cfg.segment_slots {
            if let Some(seg) = self.cache.pop() {
                emit!(self, CacheHit { seg });
                self.segs[seg.0].rc = 1;
                return seg;
            }
        }
        self.alloc_segment(min_slots)
    }

    /// Drops one reference to `seg`; caches or frees it when unreferenced.
    fn release_segment(&mut self, seg: SegmentId) {
        let s = &mut self.segs[seg.0];
        debug_assert!(s.rc > 0);
        s.rc -= 1;
        if s.rc == 0 {
            if s.default_size && self.cache.len() < self.cfg.cache_limit {
                emit!(self, CacheReturn { seg });
                self.cache.push(seg);
            } else {
                self.segs.remove(seg.0);
            }
        }
        // End the ceiling grace period once occupancy drops back under the
        // ceiling (injected faults fire once, so grace is done either way).
        if self.grace
            && (self.cfg.max_segments == 0 || self.live_segment_count() < self.cfg.max_segments)
        {
            self.grace = false;
        }
    }

    /// Installs a fresh record covering all of `seg`, linked to `link`,
    /// with `need` slots (and at least the reserve) writable above its
    /// base.
    fn install_record(&mut self, seg: SegmentId, link: Option<KontId>, need: usize) {
        self.cur_end = self.set_cur_seg(seg);
        self.cur_base = 0;
        self.cur_link = link;
        self.fp = 0;
        self.cover(need.max(self.reserve) + 1);
        let m = self.marker.clone();
        self.set(0, m);
    }

    /// Copies `n` slots between (possibly identical) segments, first
    /// raising the destination's watermark over the range. The current
    /// segment's is raised by the caller, through `cover`, so that
    /// `cur_slots` follows it.
    fn copy_slots(
        &mut self,
        src: SegmentId,
        src_at: usize,
        dst: SegmentId,
        dst_at: usize,
        n: usize,
    ) {
        debug_assert!(dst != self.cur_seg || dst_at + n <= self.cur_slots.len());
        if src == dst {
            let seg = &mut self.segs[src.0];
            seg.cover(dst_at + n, &self.marker);
            let slots = seg.slots_mut();
            debug_assert!(src_at + n <= dst_at || dst_at + n <= src_at);
            for i in 0..n {
                slots[dst_at + i] = slots[src_at + i].clone();
            }
        } else {
            // Split-borrow both segments and clone straight across — no
            // temporary buffer on the reinstate/overflow path.
            let (s, d) = self.segs.get2_mut(src.0, dst.0);
            d.cover(dst_at + n, &self.marker);
            d.slots_mut()[dst_at..dst_at + n].clone_from_slice(&s.slots()[src_at..src_at + n]);
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection interface
    // ------------------------------------------------------------------

    /// Begins a collection: clears all continuation marks. The embedder
    /// then marks roots with [`SegStack::mark_kont`] (tracing slot values
    /// itself via [`SegStack::kont_slice`]) and finishes with
    /// [`SegStack::sweep`].
    pub fn begin_gc(&mut self) {
        self.konts.values_mut().for_each(|k| k.mark = false);
    }

    /// Marks continuation `id`; returns `true` when newly marked (the
    /// embedder should then trace its slice and its link).
    pub fn mark_kont(&mut self, id: KontId) -> bool {
        let k = &mut self.konts[id.0];
        if k.mark {
            false
        } else {
            k.mark = true;
            true
        }
    }

    /// The link of continuation `id` (for embedder tracing).
    pub fn kont_link(&self, id: KontId) -> Option<KontId> {
        self.konts[id.0].link
    }

    /// Completes a collection: frees unmarked continuations and any
    /// segments that become unreferenced. The current link chain is always
    /// preserved regardless of marks. When `flush_cache` is set, cached
    /// segments are freed too (the paper notes the storage manager may
    /// discard them).
    pub fn sweep(&mut self, flush_cache: bool) {
        // The current chain is implicitly live.
        let mut cursor = self.cur_link;
        while let Some(id) = cursor {
            let k = &mut self.konts[id.0];
            if k.mark {
                break;
            }
            k.mark = true;
            cursor = k.link;
        }
        for i in 0..self.konts.slot_count() {
            let dead = self.konts.key_at(i).filter(|&id| !self.konts[id].mark);
            if let Some(k) = dead.and_then(|id| self.konts.remove(id)) {
                if k.kind != KontKind::Shot {
                    self.release_segment(k.seg);
                }
            }
        }
        // Free every flag no surviving record holds (entry 0 stays).
        if self.flags.len() > 1 {
            self.flags.iter_mut().for_each(|f| f.held = false);
            for (_, k) in self.konts.iter().filter(|(_, k)| k.kind == KontKind::OneShot) {
                self.flags[k.flag as usize].held = true;
            }
            self.free_flags.clear();
            let unheld = (1..self.flags.len() as u32).filter(|&f| !self.flags[f as usize].held);
            self.free_flags.extend(unheld);
        }
        if flush_cache {
            while let Some(seg) = self.cache.pop() {
                self.segs.remove(seg.0);
            }
        }
    }
}

#[cfg(test)]
mod tests;
