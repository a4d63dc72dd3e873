//! Continuation objects.

use crate::slab::Key;
use crate::stack::SegmentId;

/// Identifies a continuation object owned by a [`SegStack`](crate::SegStack).
///
/// Identifiers are stable until the continuation is collected by
/// [`SegStack::sweep`](crate::SegStack::sweep). A collected continuation's
/// record slot is reused, but its identifier is not: it names a slot
/// generation, so it resolves to nothing ever after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KontId(pub(crate) Key);

// Heap continuation objects hold an `Option<KontId>`: it must not grow.
const _: () = assert!(std::mem::size_of::<Option<KontId>>() == 8);

impl KontId {
    /// The record's slot index, for rendering (traces print `k{index}`).
    /// A collected continuation's index is reused; the identifier is not.
    pub fn index(self) -> u32 {
        self.0.index()
    }
}

/// The flavour and state of a continuation — plain data, like the rest of
/// a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KontKind {
    /// A traditional multi-shot continuation: may be invoked any number of
    /// times; reinstatement copies the saved frames.
    MultiShot,
    /// A one-shot continuation that has not yet been invoked. Under
    /// [`PromotionStrategy::EagerWalk`](crate::PromotionStrategy::EagerWalk)
    /// promotion rewrites the kind to `MultiShot`; under `SharedFlag` it
    /// sets the flag the record's chain shares instead, in a table the
    /// owning stack keeps, and the kind stays `OneShot`.
    OneShot,
    /// A one-shot continuation that has been invoked; invoking it again is
    /// an error. (The paper represents this state by setting both size
    /// fields to -1.)
    Shot,
}

/// A continuation object: a sealed stack record (Figure 2 of the paper).
///
/// A continuation owns the slice `[base, base + size)` of its segment, of
/// which `[base, base + cur)` is occupied by frames. For multi-shot
/// continuations `size == cur` always; for live one-shot continuations the
/// two differ (the segment's unoccupied tail is encapsulated too) — the
/// paper uses exactly this inequality to distinguish the two varieties, and
/// [`Kont::is_one_shot_by_sizes`] exposes the same test.
#[derive(Debug, Clone)]
pub struct Kont<S> {
    /// The segment holding the saved frames.
    pub(crate) seg: SegmentId,
    /// Absolute slot index of the base of the saved region.
    pub(crate) base: usize,
    /// Total slots owned (from `base`).
    pub(crate) size: usize,
    /// Occupied slots (the "current size" field of Figure 2); the saved
    /// frame pointer is `base + cur`.
    pub(crate) cur: usize,
    /// The return address of the most recent frame — the slot value through
    /// which control resumes when the continuation is invoked.
    pub(crate) ret: S,
    /// The next (older) continuation in the chain, if any.
    pub(crate) link: Option<KontId>,
    /// Flavour and state.
    pub(crate) kind: KontKind,
    /// A `OneShot` record's promotion flag: an index into the owning
    /// stack's flag table (§3.3), shared by every record of its chain.
    /// Entry 0, which is never set, under `EagerWalk` and for other kinds.
    pub(crate) flag: u32,
    /// The prompt tag when this record is a delimited-control prompt
    /// boundary (sealed by [`SegStack::push_prompt`]
    /// (crate::SegStack::push_prompt)); `None` for ordinary records. The
    /// tag is a slot value so embedders can store arbitrary (GC-traced)
    /// identity there; it survives promotion and splitting.
    pub(crate) prompt: Option<S>,
    /// GC mark bit, managed by the embedder via
    /// [`SegStack::mark_kont`](crate::SegStack::mark_kont).
    pub(crate) mark: bool,
}

impl<S> Kont<S> {
    /// The next (older) continuation in the chain, or `None` at the root.
    pub fn link(&self) -> Option<KontId> {
        self.link
    }

    /// The saved return address of the most recent frame — what control
    /// resumes through when the continuation is invoked. Stack walkers
    /// (debuggers, exception handlers; §3.1 of the paper) start here.
    pub fn ret(&self) -> &S {
        &self.ret
    }

    /// The flavour and state of this continuation.
    pub fn kind(&self) -> KontKind {
        self.kind
    }

    /// Occupied slots — the number of slots a multi-shot reinstatement of
    /// this continuation would copy.
    pub fn occupied(&self) -> usize {
        self.cur
    }

    /// Total slots owned, including the unoccupied tail encapsulated by a
    /// one-shot capture. Drives the fragmentation measurements of §3.4.
    pub fn owned(&self) -> usize {
        self.size
    }

    /// Whether this continuation has been shot (invoked as a one-shot).
    pub fn is_shot(&self) -> bool {
        matches!(self.kind, KontKind::Shot)
    }

    /// The paper's size-field test: a continuation is one-shot exactly when
    /// its total size and current size differ. Kept for fidelity; the
    /// tests check it against the authoritative state, [`Kont::kind`].
    pub fn is_one_shot_by_sizes(&self) -> bool {
        self.size != self.cur
    }

    /// The prompt tag if this record is a delimited-control prompt
    /// boundary, `None` for ordinary records. Embedders must trace the
    /// returned slot during GC alongside [`Kont::ret`].
    pub fn prompt(&self) -> Option<&S> {
        self.prompt.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(kind: KontKind, size: usize, cur: usize) -> Kont<u32> {
        Kont {
            seg: SegmentId(Key::first(0)),
            base: 0,
            size,
            cur,
            ret: 0,
            link: None,
            kind,
            flag: 0,
            prompt: None,
            mark: false,
        }
    }

    #[test]
    fn size_field_test_matches_kind_for_fresh_konts() {
        let multi = mk(KontKind::MultiShot, 10, 10);
        assert!(!multi.is_one_shot_by_sizes());
        let one = mk(KontKind::OneShot, 64, 10);
        assert!(one.is_one_shot_by_sizes());
    }
}
