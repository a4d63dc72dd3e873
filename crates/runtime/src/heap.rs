//! The mark–sweep heap, organized as segregated per-kind pools.
//!
//! Every object kind gets its own dense pool: a bump-allocated `Vec` of
//! payloads plus a free list, with `u64`-word *alive* and *mark* bitmaps.
//! Pairs — the dominant kind in Scheme workloads — therefore pack as bare
//! `(Value, Value)` tuples with no enum discriminant and no `Option`
//! wrapper, and a mark clear is a `memset` of one `u64` per 64 objects
//! instead of a per-object boolean loop.
//!
//! The kind lives in the top bits of [`ObjRef`] (see
//! [`ObjRef::kind`](crate::ObjRef::kind)), so type predicates never touch
//! heap memory and every accessor is a single bounds-checked index into the
//! right pool.
//!
//! Collection is embedder-driven tri-color, as before: the embedder marks
//! roots ([`Heap::mark_value`]), drains the gray worklist with
//! [`Heap::mark_children`], interleaves continuation-stack marking via
//! [`Heap::pop_kont`], then calls [`Heap::sweep`]. The mark phase performs
//! **no heap allocation**: children are scanned in place by index, and
//! [`Heap::begin_gc`] pre-reserves worklist capacity for every live object.

use oneshot_core::KontId;

use crate::value::{ObjRef, Value};

pub use crate::value::ObjKind;

/// A heap-allocated object, as passed to [`Heap::alloc`].
///
/// This is the *allocation description*: the heap immediately explodes it
/// into the matching pool, so no `Obj` value is ever stored. Reads go
/// through the typed accessors ([`Heap::pair`], [`Heap::vector`], ...) or
/// the borrowing [`Heap::view`].
#[derive(Debug, Clone, PartialEq)]
pub enum Obj {
    /// A mutable pair.
    Pair(Value, Value),
    /// A mutable vector.
    Vector(Vec<Value>),
    /// A mutable string (characters for O(1) `string-set!`).
    Str(Vec<char>),
    /// A closure: a code-object index owned by the embedding VM plus the
    /// captured free-variable values (flat closure representation).
    Closure {
        /// Index into the VM's code table.
        code: u32,
        /// Captured free-variable values.
        free: Box<[Value]>,
    },
    /// A first-class continuation: the control part lives in the segmented
    /// stack (`oneshot-core`); `winders` snapshots the `dynamic-wind` chain
    /// at capture time. With `prompt` set it is a subcontinuation: a
    /// delimited context to splice, not a procedure to call.
    Kont {
        /// The sealed stack record, or `None` for the empty ("halt")
        /// continuation captured at an empty top level (or an empty
        /// delimited context).
        kont: Option<KontId>,
        /// The winder list captured with it.
        winders: Value,
        /// A subcontinuation's prompt-side winder list — the tail of
        /// `winders` its extent did not add; `None` for `call/cc` and
        /// `call/1cc` continuations.
        prompt: Option<Value>,
    },
    /// A boxed (assignment-converted) variable cell.
    Cell(Value),
}

impl Obj {
    /// Approximate size in words, for allocation accounting.
    fn words(&self) -> u64 {
        match self {
            Obj::Pair(..) => 2,
            Obj::Vector(v) => 1 + v.len() as u64,
            Obj::Str(s) => 1 + (s.len() as u64).div_ceil(8),
            Obj::Closure { free, .. } => 2 + free.len() as u64,
            Obj::Kont { prompt, .. } => 3 + u64::from(prompt.is_some()),
            Obj::Cell(_) => 1,
        }
    }
}

/// A borrowed read-only view of a heap object, returned by [`Heap::view`].
///
/// Printers, converters and `equal?` traverse arbitrary objects through
/// this; hot VM paths use the typed accessors instead.
#[derive(Debug, Clone, Copy)]
pub enum ObjView<'a> {
    /// A pair's car and cdr.
    Pair(Value, Value),
    /// A vector's elements.
    Vector(&'a [Value]),
    /// A string's characters.
    Str(&'a [char]),
    /// A closure's code index and captured free values.
    Closure {
        /// Index into the VM's code table.
        code: u32,
        /// Captured free-variable values.
        free: &'a [Value],
    },
    /// A continuation's stack record and winder snapshot.
    Kont {
        /// The sealed stack record, or `None` for the halt continuation.
        kont: Option<KontId>,
        /// The winder list captured with it.
        winders: Value,
        /// A subcontinuation's prompt-side winder list.
        prompt: Option<Value>,
    },
    /// A cell's contents.
    Cell(Value),
}

/// Inline capacity for closure free-variable payloads. Captures of at
/// most this many values live directly in the pool slot; larger ones
/// fall back to a boxed slice.
const CLOSURE_INLINE: usize = 4;

/// A closure's captured free variables. Small captures (the common case
/// by far) are stored inline so closure allocation performs no Rust-side
/// heap allocation — continuation-heavy workloads allocate one closure
/// per capture, which made the payload box a hot malloc.
#[derive(Debug)]
enum FreeVals {
    /// `len` live values in a fixed slot-resident array.
    Inline(u8, [Value; CLOSURE_INLINE]),
    /// Overflow representation for large captures.
    Boxed(Box<[Value]>),
}

impl Default for FreeVals {
    fn default() -> Self {
        FreeVals::Inline(0, [Value::NIL; CLOSURE_INLINE])
    }
}

impl FreeVals {
    #[inline]
    fn from_slice(free: &[Value]) -> Self {
        if free.len() <= CLOSURE_INLINE {
            let mut a = [Value::NIL; CLOSURE_INLINE];
            a[..free.len()].copy_from_slice(free);
            FreeVals::Inline(free.len() as u8, a)
        } else {
            FreeVals::Boxed(free.into())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[Value] {
        match self {
            FreeVals::Inline(n, a) => &a[..*n as usize],
            FreeVals::Boxed(b) => b,
        }
    }
}

/// A closure payload in the closure pool.
#[derive(Debug, Default)]
struct ClosureObj {
    code: u32,
    free: FreeVals,
}

/// A continuation payload in the kont pool.
#[derive(Debug)]
struct KontObj {
    kont: Option<KontId>,
    winders: Value,
    prompt: Option<Value>,
}

impl Default for KontObj {
    fn default() -> Self {
        KontObj { kont: None, winders: Value::NIL, prompt: None }
    }
}

oneshot_core::counters! {
    /// Heap statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    #[non_exhaustive]
    pub struct HeapStats {
        /// Words allocated since creation.
        words_allocated: sum => "heap-words",
        /// Objects allocated since creation.
        objects_allocated: sum => "heap-objects",
        /// Collections performed.
        collections: sum,
        /// Closures allocated since creation — drives the §5
        /// closure-creation-overhead comparison with CPS compilation.
        closures_allocated: sum => "closures",
        /// Objects freed across all sweeps.
        objects_freed: sum => _,
        /// Live objects right now.
        live: gauge => _,
        /// Most objects ever simultaneously live.
        peak_live: max => _,
    }
}

/// What sweeping must do to a freed slot. Plain-value payloads leave the
/// stale bytes in place (the slot is dead — its alive bit is clear — and
/// [`Pool::alloc`] overwrites the whole slot on reuse); payloads that own
/// Rust-side memory release it here so a sweep, not a later reuse, is
/// what returns memory to the allocator.
trait PoolPayload: Default {
    /// Drops any owned memory in a freed slot. The default is a no-op.
    #[inline]
    fn release(&mut self) {}
}

impl PoolPayload for (Value, Value) {}
impl PoolPayload for Value {}
impl PoolPayload for KontObj {}

impl PoolPayload for Vec<Value> {
    fn release(&mut self) {
        *self = Vec::new();
    }
}

impl PoolPayload for Vec<char> {
    fn release(&mut self) {
        *self = Vec::new();
    }
}

impl PoolPayload for ClosureObj {
    fn release(&mut self) {
        // Inline captures own nothing; only a spilled box must drop.
        if matches!(self.free, FreeVals::Boxed(_)) {
            self.free = FreeVals::default();
        }
    }
}

/// One segregated pool: dense payload slots, a free list, and `u64`-word
/// *alive*/*mark* bitmaps (bit `i` of word `i / 64` covers slot `i`).
#[derive(Debug, Default)]
struct Pool<T> {
    slots: Vec<T>,
    /// Alive bitmap: set at alloc, cleared at sweep. Sweep walks this.
    alive: Vec<u64>,
    /// Mark bitmap: cleared wholesale in `begin_gc`, set during marking.
    marks: Vec<u64>,
    free: Vec<u32>,
    live: usize,
}

impl<T: PoolPayload> Pool<T> {
    /// Stores `v`, reusing a freed slot if one exists.
    fn alloc(&mut self, v: T) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = v;
                set_bit(&mut self.alive, i);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("heap pool overflow");
                assert!(i <= crate::value::INDEX_MASK, "heap pool overflow");
                self.slots.push(v);
                if self.slots.len() > self.alive.len() * 64 {
                    self.alive.push(0);
                    self.marks.push(0);
                }
                set_bit(&mut self.alive, i);
                i
            }
        }
    }

    #[inline]
    fn is_live(&self, i: u32) -> bool {
        bit(&self.alive, i)
    }

    /// Marks slot `i`; true if it was not already marked.
    #[inline]
    fn try_mark(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        let hit = self.marks[w] & (1 << b) == 0;
        self.marks[w] |= 1 << b;
        hit
    }

    /// Word-granularity mark clear.
    fn clear_marks(&mut self) {
        self.marks.fill(0);
    }

    /// Frees every alive-but-unmarked slot (releasing any owned payload
    /// memory — see [`PoolPayload::release`]), returning how many were
    /// freed.
    fn sweep(&mut self) -> u64 {
        let mut freed = 0u64;
        for w in 0..self.alive.len() {
            let mut garbage = self.alive[w] & !self.marks[w];
            if garbage == 0 {
                continue;
            }
            self.alive[w] &= self.marks[w];
            while garbage != 0 {
                let i = w as u32 * 64 + garbage.trailing_zeros();
                self.slots[i as usize].release();
                self.free.push(i);
                freed += 1;
                garbage &= garbage - 1;
            }
        }
        self.live -= freed as usize;
        freed
    }
}

#[inline]
fn set_bit(words: &mut [u64], i: u32) {
    words[i as usize / 64] |= 1 << (i % 64);
}

#[inline]
fn bit(words: &[u64], i: u32) -> bool {
    words[i as usize / 64] & (1 << (i % 64)) != 0
}

/// A mark–sweep heap of segregated per-kind object pools.
#[derive(Debug, Default)]
pub struct Heap {
    pairs: Pool<(Value, Value)>,
    vectors: Pool<Vec<Value>>,
    strs: Pool<Vec<char>>,
    closures: Pool<ClosureObj>,
    konts: Pool<KontObj>,
    cells: Pool<Value>,
    /// Pool indices of live `Kont` objects with a stack record — maintained
    /// at alloc/sweep so [`Heap::konts`] never scans the heap.
    kont_registry: Vec<u32>,
    gray: Vec<ObjRef>,
    /// Continuation records discovered during marking, for the embedder to
    /// drain (their stack slices live outside the heap).
    kont_gray: Vec<KontId>,
    stats: HeapStats,
    /// Highest [`Heap::len`] any collection has started from; `stats`
    /// folds in the current length.
    peak_live: usize,
    alloc_since_gc: usize,
    gc_threshold: usize,
    /// Whether the threshold tracks the live set (the default) or was
    /// pinned by [`Heap::set_gc_threshold`].
    adaptive_threshold: bool,
    /// Injected allocation fault: the `objects_allocated` count at which
    /// the fault fires (see [`Heap::arm_alloc_fault`]). Piggybacking on
    /// the allocation counter keeps the alloc hot paths untouched — the
    /// threshold is only compared at embedder safe points.
    alloc_fault_at: Option<u64>,
}

/// Bounds for the adaptive collection threshold (objects allocated
/// between collections). The floor keeps sweep amortization sane for
/// tiny live sets while the pools stay cache-resident; the ceiling
/// bounds the memory held by a collection cycle.
const ADAPTIVE_THRESHOLD_MIN: usize = 1 << 14;
const ADAPTIVE_THRESHOLD_MAX: usize = 1 << 20;

impl Heap {
    /// Creates an empty heap with the adaptive collection threshold.
    pub fn new() -> Self {
        Heap { gc_threshold: ADAPTIVE_THRESHOLD_MIN, adaptive_threshold: true, ..Heap::default() }
    }

    /// Statistics snapshot: allocation volume, collections, live objects.
    pub fn stats(&self) -> HeapStats {
        let mut s = self.stats;
        s.live = self.len() as u64;
        s.peak_live = self.peak_live.max(self.len()) as u64;
        s
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.pairs.live
            + self.vectors.live
            + self.strs.live
            + self.closures.live
            + self.konts.live
            + self.cells.live
    }

    /// Whether the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Words allocated since creation (monotone) — the allocation-volume
    /// measure used throughout the paper's evaluation.
    pub fn words_allocated(&self) -> u64 {
        self.stats.words_allocated
    }

    /// Pins the number of allocations after which
    /// [`Heap::wants_collection`] reports true, disabling the adaptive
    /// trigger (experiments sweep fixed thresholds).
    pub fn set_gc_threshold(&mut self, objects: usize) {
        self.gc_threshold = objects.max(16);
        self.adaptive_threshold = false;
    }

    /// Arms the injected allocation fault: the `n`-th subsequent
    /// allocation (1-based) *latches* a fault that the embedder observes
    /// with [`Heap::take_alloc_fault`] at its next safe point. The
    /// allocation itself still succeeds — Scheme semantics require the
    /// failure to surface as a raised condition, not a torn object graph.
    pub fn arm_alloc_fault(&mut self, n: u64) {
        self.alloc_fault_at = Some(self.stats.objects_allocated + n.max(1));
    }

    /// Consumes a latched allocation fault, returning whether one had
    /// fired since the last call. Injected faults fire once per arming.
    pub fn take_alloc_fault(&mut self) -> bool {
        if self.alloc_fault_pending() {
            self.alloc_fault_at = None;
            true
        } else {
            false
        }
    }

    /// Whether a fired allocation fault is latched and waiting for
    /// [`Heap::take_alloc_fault`]. Lets the embedder skip the consuming
    /// check at safe points where fault delivery is deferred.
    #[must_use]
    pub fn alloc_fault_pending(&self) -> bool {
        self.alloc_fault_at.is_some_and(|at| self.stats.objects_allocated >= at)
    }

    /// Allocates `o`, returning its reference. Never collects — the
    /// embedder drives collection (it owns the roots).
    pub fn alloc(&mut self, o: Obj) -> ObjRef {
        self.stats.words_allocated += o.words();
        self.stats.objects_allocated += 1;
        self.alloc_since_gc += 1;
        match o {
            Obj::Pair(a, d) => ObjRef::pack(ObjKind::Pair, self.pairs.alloc((a, d))),
            Obj::Vector(v) => ObjRef::pack(ObjKind::Vector, self.vectors.alloc(v)),
            Obj::Str(s) => ObjRef::pack(ObjKind::Str, self.strs.alloc(s)),
            Obj::Closure { code, free } => {
                self.stats.closures_allocated += 1;
                let free = FreeVals::from_slice(&free);
                ObjRef::pack(ObjKind::Closure, self.closures.alloc(ClosureObj { code, free }))
            }
            Obj::Kont { kont, winders, prompt } => {
                let i = self.konts.alloc(KontObj { kont, winders, prompt });
                if kont.is_some() {
                    self.kont_registry.push(i);
                }
                ObjRef::pack(ObjKind::Kont, i)
            }
            Obj::Cell(v) => ObjRef::pack(ObjKind::Cell, self.cells.alloc(v)),
        }
    }

    /// Allocates a closure directly from a borrowed free-variable slice
    /// (the hot path for the VM's `closure` opcode). Captures of at most
    /// four values (`CLOSURE_INLINE`) are copied into the pool slot, so
    /// this performs no Rust-side allocation for them.
    #[inline]
    pub fn alloc_closure(&mut self, code: u32, free: &[Value]) -> ObjRef {
        self.stats.words_allocated += 2 + free.len() as u64;
        self.stats.objects_allocated += 1;
        self.stats.closures_allocated += 1;
        self.alloc_since_gc += 1;
        let free = FreeVals::from_slice(free);
        ObjRef::pack(ObjKind::Closure, self.closures.alloc(ClosureObj { code, free }))
    }

    /// Allocates a pair directly (the hot path for `cons`).
    #[inline]
    pub fn alloc_pair(&mut self, car: Value, cdr: Value) -> ObjRef {
        self.stats.words_allocated += 2;
        self.stats.objects_allocated += 1;
        self.alloc_since_gc += 1;
        ObjRef::pack(ObjKind::Pair, self.pairs.alloc((car, cdr)))
    }

    /// Whether enough allocation has happened that the embedder should run
    /// a collection at the next safe point.
    #[inline]
    pub fn wants_collection(&self) -> bool {
        self.alloc_since_gc >= self.gc_threshold
    }

    // ------------------------------------------------------------------
    // Typed accessors (hot VM paths)
    // ------------------------------------------------------------------

    /// The car and cdr, if `r` is a pair.
    #[inline]
    pub fn pair(&self, r: ObjRef) -> Option<(Value, Value)> {
        (r.kind() == ObjKind::Pair).then(|| {
            debug_assert!(self.pairs.is_live(r.pool_index()), "access to collected pair");
            self.pairs.slots[r.pool_index() as usize]
        })
    }

    /// Mutable car/cdr, if `r` is a pair (`set-car!` / `set-cdr!`).
    #[inline]
    pub fn pair_mut(&mut self, r: ObjRef) -> Option<&mut (Value, Value)> {
        (r.kind() == ObjKind::Pair).then(|| {
            debug_assert!(self.pairs.is_live(r.pool_index()), "access to collected pair");
            &mut self.pairs.slots[r.pool_index() as usize]
        })
    }

    /// The elements, if `r` is a vector.
    #[inline]
    pub fn vector(&self, r: ObjRef) -> Option<&[Value]> {
        (r.kind() == ObjKind::Vector).then(|| {
            debug_assert!(self.vectors.is_live(r.pool_index()), "access to collected vector");
            &self.vectors.slots[r.pool_index() as usize][..]
        })
    }

    /// Mutable elements, if `r` is a vector.
    #[inline]
    pub fn vector_mut(&mut self, r: ObjRef) -> Option<&mut Vec<Value>> {
        (r.kind() == ObjKind::Vector).then(|| {
            debug_assert!(self.vectors.is_live(r.pool_index()), "access to collected vector");
            &mut self.vectors.slots[r.pool_index() as usize]
        })
    }

    /// The characters, if `r` is a string.
    #[inline]
    pub fn string(&self, r: ObjRef) -> Option<&[char]> {
        (r.kind() == ObjKind::Str).then(|| {
            debug_assert!(self.strs.is_live(r.pool_index()), "access to collected string");
            &self.strs.slots[r.pool_index() as usize][..]
        })
    }

    /// Mutable characters, if `r` is a string.
    #[inline]
    pub fn string_mut(&mut self, r: ObjRef) -> Option<&mut Vec<char>> {
        (r.kind() == ObjKind::Str).then(|| {
            debug_assert!(self.strs.is_live(r.pool_index()), "access to collected string");
            &mut self.strs.slots[r.pool_index() as usize]
        })
    }

    /// The code index and free values, if `r` is a closure.
    #[inline]
    pub fn closure(&self, r: ObjRef) -> Option<(u32, &[Value])> {
        (r.kind() == ObjKind::Closure).then(|| {
            debug_assert!(self.closures.is_live(r.pool_index()), "access to collected closure");
            let c = &self.closures.slots[r.pool_index() as usize];
            (c.code, c.free.as_slice())
        })
    }

    /// The stack record and winder snapshot, if `r` is a `call/cc` or
    /// `call/1cc` continuation (a subcontinuation is not one).
    #[inline]
    pub fn kont(&self, r: ObjRef) -> Option<(Option<KontId>, Value)> {
        self.kont_obj(r).filter(|k| k.prompt.is_none()).map(|k| (k.kont, k.winders))
    }

    /// The stack record, winders inside the extent and winders at the
    /// prompt, if `r` is a subcontinuation.
    #[inline]
    pub fn subcont(&self, r: ObjRef) -> Option<(Option<KontId>, Value, Value)> {
        let k = self.kont_obj(r)?;
        k.prompt.map(|p| (k.kont, k.winders, p))
    }

    #[inline]
    fn kont_obj(&self, r: ObjRef) -> Option<&KontObj> {
        (r.kind() == ObjKind::Kont).then(|| {
            debug_assert!(self.konts.is_live(r.pool_index()), "access to collected continuation");
            &self.konts.slots[r.pool_index() as usize]
        })
    }

    /// The contents, if `r` is a cell.
    #[inline]
    pub fn cell(&self, r: ObjRef) -> Option<Value> {
        (r.kind() == ObjKind::Cell).then(|| {
            debug_assert!(self.cells.is_live(r.pool_index()), "access to collected cell");
            self.cells.slots[r.pool_index() as usize]
        })
    }

    /// Mutable contents, if `r` is a cell (`set!` on a boxed variable).
    #[inline]
    pub fn cell_mut(&mut self, r: ObjRef) -> Option<&mut Value> {
        (r.kind() == ObjKind::Cell).then(|| {
            debug_assert!(self.cells.is_live(r.pool_index()), "access to collected cell");
            &mut self.cells.slots[r.pool_index() as usize]
        })
    }

    /// A borrowed view of any object — the uniform path for printers,
    /// converters and `equal?`.
    pub fn view(&self, r: ObjRef) -> ObjView<'_> {
        let i = r.pool_index() as usize;
        match r.kind() {
            ObjKind::Pair => {
                let (a, d) = self.pairs.slots[i];
                ObjView::Pair(a, d)
            }
            ObjKind::Vector => ObjView::Vector(&self.vectors.slots[i]),
            ObjKind::Str => ObjView::Str(&self.strs.slots[i]),
            ObjKind::Closure => {
                let c = &self.closures.slots[i];
                ObjView::Closure { code: c.code, free: c.free.as_slice() }
            }
            ObjKind::Kont => {
                let k = &self.konts.slots[i];
                ObjView::Kont { kont: k.kont, winders: k.winders, prompt: k.prompt }
            }
            ObjKind::Cell => ObjView::Cell(self.cells.slots[i]),
        }
    }

    // ------------------------------------------------------------------
    // Collection (embedder-driven tri-color)
    // ------------------------------------------------------------------

    /// Begins a collection: clears all mark bitmaps (one `u64` write per 64
    /// objects) and the worklists, and pre-reserves worklist capacity for
    /// every live object so the mark phase never allocates.
    pub fn begin_gc(&mut self) {
        // Only `sweep` frees, so the live count peaks either right here or
        // at whatever moment `stats` is read — the two places that look.
        self.peak_live = self.peak_live.max(self.len());
        self.pairs.clear_marks();
        self.vectors.clear_marks();
        self.strs.clear_marks();
        self.closures.clear_marks();
        self.konts.clear_marks();
        self.cells.clear_marks();
        self.gray.clear();
        self.gray.reserve(self.len());
        self.kont_gray.clear();
        self.kont_gray.reserve(self.konts.live);
    }

    /// Marks a value's object (if any) and queues it for scanning.
    #[inline]
    pub fn mark_value(&mut self, v: Value) {
        // One tag test filters out every immediate; only heap words reach
        // the per-kind bitmaps.
        if let Some(r) = v.as_obj() {
            let i = r.pool_index();
            let hit = match r.kind() {
                ObjKind::Pair => self.pairs.try_mark(i),
                ObjKind::Vector => self.vectors.try_mark(i),
                ObjKind::Str => self.strs.try_mark(i),
                ObjKind::Closure => self.closures.try_mark(i),
                ObjKind::Kont => self.konts.try_mark(i),
                ObjKind::Cell => self.cells.try_mark(i),
            };
            if hit {
                self.gray.push(r);
            }
        }
    }

    /// Pops the next object awaiting a scan of its children.
    pub fn pop_gray(&mut self) -> Option<ObjRef> {
        self.gray.pop()
    }

    /// Pops the next continuation record discovered during marking; the
    /// embedder must mark its stack slice (those values live in the
    /// segmented stack, not the heap).
    pub fn pop_kont(&mut self) -> Option<KontId> {
        self.kont_gray.pop()
    }

    /// Marks every value directly referenced by `r`, in place — no
    /// allocation, no callbacks. Continuations additionally enqueue their
    /// stack record for the embedder (see [`Heap::pop_kont`]).
    pub fn mark_children(&mut self, r: ObjRef) {
        let i = r.pool_index() as usize;
        match r.kind() {
            ObjKind::Pair => {
                let (a, d) = self.pairs.slots[i];
                self.mark_value(a);
                self.mark_value(d);
            }
            ObjKind::Vector => {
                // Index loop: `mark_value` only touches bitmaps and the
                // gray stack, never vector payloads, so re-borrowing per
                // element is sound and copies nothing.
                for j in 0..self.vectors.slots[i].len() {
                    let v = self.vectors.slots[i][j];
                    self.mark_value(v);
                }
            }
            ObjKind::Str => {}
            ObjKind::Closure => {
                for j in 0..self.closures.slots[i].free.as_slice().len() {
                    let v = self.closures.slots[i].free.as_slice()[j];
                    self.mark_value(v);
                }
            }
            ObjKind::Kont => {
                let KontObj { kont, winders, prompt } = self.konts.slots[i];
                if let Some(k) = kont {
                    self.kont_gray.push(k);
                }
                self.mark_value(winders);
                if let Some(p) = prompt {
                    self.mark_value(p);
                }
            }
            ObjKind::Cell => {
                let v = self.cells.slots[i];
                self.mark_value(v);
            }
        }
    }

    /// Frees all unmarked objects (word-wise `alive & !mark`), prunes the
    /// kont registry, and resets the allocation clock.
    pub fn sweep(&mut self) {
        let mut freed = self.pairs.sweep();
        freed += self.vectors.sweep();
        freed += self.strs.sweep();
        freed += self.closures.sweep();
        let kont_freed = self.konts.sweep();
        freed += kont_freed;
        freed += self.cells.sweep();
        if kont_freed > 0 {
            let konts = &self.konts;
            self.kont_registry.retain(|&i| konts.is_live(i));
        }
        self.stats.collections += 1;
        self.stats.objects_freed += freed;
        self.alloc_since_gc = 0;
        if self.adaptive_threshold {
            // Grow the budget with the surviving set: a large live graph
            // makes each mark expensive (collect rarely), while a small
            // one keeps pools cache-resident at the floor.
            self.gc_threshold =
                (self.len() * 4).clamp(ADAPTIVE_THRESHOLD_MIN, ADAPTIVE_THRESHOLD_MAX);
        }
    }

    /// Iterates over live continuation heap objects — used by embedders to
    /// seed stack-continuation marking. Backed by a registry maintained at
    /// alloc/sweep time, not a heap scan.
    pub fn konts(&self) -> impl Iterator<Item = (ObjRef, KontId)> + '_ {
        self.kont_registry.iter().filter_map(|&i| {
            self.konts.slots[i as usize].kont.map(|k| (ObjRef::pack(ObjKind::Kont, i), k))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the gray worklist, ignoring kont records (none in these
    /// tests reference the stack).
    fn drain(h: &mut Heap) {
        while let Some(r) = h.pop_gray() {
            h.mark_children(r);
        }
    }

    #[test]
    fn alloc_get_mutate() {
        let mut h = Heap::new();
        let r = h.alloc(Obj::Pair(Value::fixnum(1), Value::NIL));
        assert_eq!(h.pair(r), Some((Value::fixnum(1), Value::NIL)));
        h.pair_mut(r).unwrap().0 = Value::fixnum(2);
        assert_eq!(h.pair(r), Some((Value::fixnum(2), Value::NIL)));
        assert_eq!(r.kind(), ObjKind::Pair);
        assert_eq!(h.vector(r), None);
    }

    #[test]
    fn mark_sweep_frees_garbage_keeps_reachable() {
        let mut h = Heap::new();
        let dead = h.alloc(Obj::Pair(Value::fixnum(1), Value::NIL));
        let inner = h.alloc(Obj::Pair(Value::fixnum(2), Value::NIL));
        let root = h.alloc(Obj::Pair(Value::obj(inner), Value::NIL));
        h.begin_gc();
        h.mark_value(Value::obj(root));
        drain(&mut h);
        h.sweep();
        assert_eq!(h.len(), 2);
        assert_eq!(h.pair(inner), Some((Value::fixnum(2), Value::NIL)));
        // The dead pair slot is recycled for the next pair.
        let again = h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        assert_eq!(again, dead);
    }

    #[test]
    fn cycles_are_collected_and_survive_marking() {
        let mut h = Heap::new();
        let a = h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        let b = h.alloc(Obj::Pair(Value::obj(a), Value::NIL));
        h.pair_mut(a).unwrap().1 = Value::obj(b);
        // Marking a cycle terminates.
        h.begin_gc();
        h.mark_value(Value::obj(a));
        drain(&mut h);
        h.sweep();
        assert_eq!(h.len(), 2);
        // Unreachable cycle is collected.
        h.begin_gc();
        h.sweep();
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn words_accounting_grows() {
        let mut h = Heap::new();
        let w0 = h.words_allocated();
        h.alloc(Obj::Vector(vec![Value::NIL; 10]));
        assert_eq!(h.words_allocated(), w0 + 11);
        h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        assert_eq!(h.words_allocated(), w0 + 13);
    }

    #[test]
    fn closure_allocations_are_counted() {
        let mut h = Heap::new();
        assert_eq!(h.stats().closures_allocated, 0);
        h.alloc(Obj::Closure { code: 0, free: Box::new([]) });
        h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        assert_eq!(h.stats().closures_allocated, 1);
    }

    #[test]
    fn wants_collection_after_threshold() {
        let mut h = Heap::new();
        h.set_gc_threshold(16);
        for _ in 0..16 {
            h.alloc(Obj::Cell(Value::NIL));
        }
        assert!(h.wants_collection());
        h.begin_gc();
        h.sweep();
        assert!(!h.wants_collection());
    }

    #[test]
    fn konts_registry_finds_continuations() {
        let mut h = Heap::new();
        h.alloc(Obj::Cell(Value::NIL));
        // Halt konts (no stack record) are not in the registry.
        h.alloc(Obj::Kont { kont: None, winders: Value::NIL, prompt: None });
        let k = h.alloc(Obj::Kont {
            kont: Some(KontId::from_index(7)),
            winders: Value::NIL,
            prompt: None,
        });
        let found: Vec<_> = h.konts().collect();
        assert_eq!(found, vec![(k, KontId::from_index(7))]);
        // Sweeping an unmarked kont prunes the registry.
        h.begin_gc();
        h.sweep();
        assert_eq!(h.konts().count(), 0);
    }

    #[test]
    fn kont_children_enqueue_stack_record() {
        let mut h = Heap::new();
        let p = h.alloc(Obj::Pair(Value::fixnum(0), Value::NIL));
        let w = h.alloc(Obj::Pair(Value::fixnum(1), Value::obj(p)));
        let (kont, winders) = (Some(KontId::from_index(3)), Value::obj(w));
        let k = h.alloc(Obj::Kont { kont, winders, prompt: Some(Value::obj(p)) });
        assert_eq!(h.kont(k), None, "a subcontinuation is not a continuation");
        assert_eq!(h.subcont(k), Some((kont, winders, Value::obj(p))));
        h.begin_gc();
        h.mark_value(Value::obj(k));
        drain(&mut h);
        assert_eq!(h.pop_kont(), kont);
        h.sweep();
        assert_eq!(h.len(), 3, "both winder lists survive through the subcontinuation");
    }

    #[test]
    fn typed_refs_are_pool_local() {
        let mut h = Heap::new();
        let p = h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        let c = h.alloc(Obj::Cell(Value::NIL));
        // Same pool index, different kinds — distinct references.
        assert_eq!(p.pool_index(), c.pool_index());
        assert_ne!(p, c);
        assert_eq!(c.kind(), ObjKind::Cell);
        assert_eq!(h.cell(c), Some(Value::NIL));
        assert_eq!(h.cell(p), None);
    }

    #[test]
    fn stats_gauges_track_occupancy_and_peak() {
        let mut h = Heap::new();
        let keep = h.alloc(Obj::Pair(Value::NIL, Value::NIL));
        h.alloc(Obj::Vector(vec![Value::NIL]));
        h.alloc(Obj::Str(vec!['a']));
        let s = h.stats();
        assert_eq!(s.live, 3);
        assert_eq!(s.peak_live, 3);
        h.begin_gc();
        h.mark_value(Value::obj(keep));
        drain(&mut h);
        h.sweep();
        let s = h.stats();
        assert_eq!(s.live, 1);
        assert_eq!(s.peak_live, 3, "peak is a running max");
        assert_eq!(s.objects_freed, 2);
        assert_eq!(s.collections, 1);
    }

    /// `peak_live` is maintained at collections and at reads, not per
    /// allocation; it must still read what the per-allocation running
    /// maximum would, at every read, through every allocator entry point.
    #[test]
    fn peak_live_matches_the_per_allocation_definition() {
        let mut h = Heap::new();
        let mut kept: Vec<Value> = Vec::new();
        let mut model_peak = 0;
        // A fixed script of (burst size, objects kept per burst, collect?,
        // read stats?) covering bursts that raise the peak, bursts that
        // stay under it, back-to-back collections and unread stretches.
        let script = [
            (40, 10, false, true),
            (25, 0, true, false),
            (5, 5, false, false),
            (90, 1, true, true),
            (10, 0, true, true),
            (0, 0, true, false),
            (70, 30, false, false),
            (60, 0, false, true),
            (1, 1, true, true),
        ];
        for (round, &(burst, keep, collect, read)) in script.iter().enumerate() {
            for i in 0..burst {
                let r = match (round + i) % 3 {
                    0 => h.alloc_pair(Value::fixnum(i as i64), Value::NIL),
                    1 => h.alloc_closure(0, &[Value::NIL]),
                    _ => h.alloc(Obj::Cell(Value::NIL)),
                };
                if i < keep {
                    kept.push(Value::obj(r));
                }
                model_peak = model_peak.max(h.len());
            }
            if collect {
                h.begin_gc();
                for &v in &kept {
                    h.mark_value(v);
                }
                drain(&mut h);
                h.sweep();
                assert_eq!(h.len(), kept.len());
            }
            if read {
                assert_eq!(h.stats().peak_live, model_peak as u64, "round {round}");
            }
        }
        assert_eq!(h.stats().peak_live, model_peak as u64);
        assert!(model_peak > h.len(), "the script must end below its peak");
    }

    #[test]
    fn alloc_fault_latches_once_at_nth_alloc() {
        let mut h = Heap::new();
        h.arm_alloc_fault(3);
        h.alloc_pair(Value::NIL, Value::NIL);
        h.alloc_pair(Value::NIL, Value::NIL);
        assert!(!h.take_alloc_fault());
        h.alloc_pair(Value::NIL, Value::NIL);
        assert!(h.take_alloc_fault());
        // Consumed: subsequent allocations do not re-trip.
        assert!(!h.take_alloc_fault());
        h.alloc_pair(Value::NIL, Value::NIL);
        assert!(!h.take_alloc_fault());
    }

    #[test]
    fn sweep_resets_freed_payloads() {
        let mut h = Heap::new();
        let v = h.alloc(Obj::Vector(vec![Value::fixnum(9); 100]));
        h.begin_gc();
        h.sweep();
        assert!(h.is_empty());
        // The recycled slot starts empty, not with stale contents.
        let v2 = h.alloc(Obj::Vector(Vec::new()));
        assert_eq!(v2, v);
        assert_eq!(h.vector(v2), Some(&[][..]));
    }
}
