//! Control-event probes: fine-grained observability for the segmented stack.
//!
//! Every interesting transition of a [`SegStack`](crate::SegStack) — capture,
//! reinstatement, overflow, underflow, promotion, splitting, sealing, and
//! segment-cache traffic — is reported to a [`ControlProbe`] chosen by the
//! embedder at construction time ([`SegStack::with_probe`]
//! (crate::SegStack::with_probe)). The probe is a *type parameter* of the
//! stack, so the default [`NoopProbe`] monomorphizes to empty inlined calls
//! and costs nothing on the hot paths.
//!
//! Three probes ship with the crate:
//!
//! * [`NoopProbe`] — the default; statically inlined away.
//! * [`Stats`] — the stack's own counters. Every stack feeds each event to
//!   its built-in `Stats` and then to the installed probe, so
//!   [`SegStack::stats`](crate::SegStack::stats) is derived from the events
//!   by construction; a second `Stats` installed as the probe attributes
//!   counters to a *region* of a workload by swapping totals in and out.
//! * [`RingTraceProbe`] — records the last *N* events, with segment ids and
//!   slot counts, for post-mortem debugging of control-heavy code.
//!
//! # Event ↔ counter correspondence
//!
//! | Callback | `Stats` fields |
//! |---|---|
//! | [`capture_multi`](ControlProbe::capture_multi) | `captures_multi` |
//! | [`capture_one`](ControlProbe::capture_one) | `captures_one`, `slots_encapsulated` |
//! | [`capture_empty`](ControlProbe::capture_empty) | `captures_empty` |
//! | [`reinstate`](ControlProbe::reinstate) | `reinstates_one`/`reinstates_multi`, `shots`, `slots_copied` |
//! | [`overflow`](ControlProbe::overflow) | `overflows`, `slots_copied` |
//! | [`underflow`](ControlProbe::underflow) | `underflows` |
//! | [`promotion`](ControlProbe::promotion) | `promotions`, `promotion_steps` |
//! | [`split`](ControlProbe::split) | `splits` |
//! | [`seal`](ControlProbe::seal) | — (`SealWithPad` detail) |
//! | [`cache_hit`](ControlProbe::cache_hit)/[`cache_return`](ControlProbe::cache_return) | `cache_hits`, `cache_returns` |
//! | [`segment_alloc`](ControlProbe::segment_alloc) | `segments_allocated`, `segment_slots_allocated` |
//! | [`prompt_push`](ControlProbe::prompt_push) | `prompts_pushed` |
//! | [`subcont_take`](ControlProbe::subcont_take) | `subconts_taken`, `subcont_slots`, `slots_copied` |
//! | [`subcont_push`](ControlProbe::subcont_push) | `subconts_pushed` |
//! | [`abort_to_prompt`](ControlProbe::abort_to_prompt) | `aborts_to_prompt` |
//!
//! # Ordering guarantees
//!
//! A continuation id appears in a [`reinstate`](ControlProbe::reinstate)
//! event only after it was *introduced* by an earlier `capture_one`,
//! `capture_multi`, `overflow` (implicit capture, `kont: Some(..)`), or
//! `split` (the freshly created bottom part) event, or sealed by a
//! `prompt_push` or `subcont_take` (the head and any copied records of the
//! detached chain count as introduced). `capture_empty` returns an
//! already-introduced continuation (the tail rule) and introduces nothing.
//! The property test in `tests/probe.rs` checks this invariant against
//! randomized workloads.

use std::collections::VecDeque;
use std::fmt;

use crate::kont::KontId;
use crate::stack::SegmentId;
use crate::stats::Stats;

/// Receiver for fine-grained control events from a
/// [`SegStack`](crate::SegStack).
///
/// All methods default to no-ops, so a probe implements only what it needs.
/// Methods take `&mut self`: the probe is owned by the stack and mutated in
/// place (retrieve it with [`SegStack::probe`](crate::SegStack::probe) /
/// [`probe_mut`](crate::SegStack::probe_mut)).
pub trait ControlProbe {
    /// A multi-shot capture (`call/cc`) sealed `slots` occupied slots of
    /// `seg` into continuation `kont`.
    #[inline]
    fn capture_multi(&mut self, kont: KontId, seg: SegmentId, slots: usize) {
        let _ = (kont, seg, slots);
    }

    /// A one-shot capture (`call/1cc`) encapsulated `slots` occupied slots
    /// of `seg` into continuation `kont`. `span` is the total slot span the
    /// record now owns — occupied or not, the whole span is unusable until
    /// the continuation is shot (the encapsulation cost of §3.4).
    #[inline]
    fn capture_one(&mut self, kont: KontId, seg: SegmentId, slots: usize, span: usize) {
        let _ = (kont, seg, slots, span);
    }

    /// A capture found the record empty and returned the existing link
    /// continuation (the proper-tail-recursion rule); nothing was created.
    #[inline]
    fn capture_empty(&mut self) {}

    /// A `SealWithPad` one-shot capture sealed continuation `kont` in place,
    /// leaving `pad` spare slots above the occupied portion; the remainder
    /// of `seg` stays current (no segment switch).
    #[inline]
    fn seal(&mut self, kont: KontId, seg: SegmentId, pad: usize) {
        let _ = (kont, seg, pad);
    }

    /// Continuation `kont` (saved in `seg`) was reinstated. `one_shot` is
    /// true for the O(1) segment-swap path (`slots_copied == 0`); otherwise
    /// `slots_copied` slots were copied back onto the stack.
    #[inline]
    fn reinstate(&mut self, kont: KontId, seg: SegmentId, one_shot: bool, slots_copied: usize) {
        let _ = (kont, seg, one_shot, slots_copied);
    }

    /// The stack overflowed: `slots_moved` live slots relocated from `from`
    /// to `to`, and the remainder of `from` was encapsulated in the implicit
    /// continuation `kont` (`None` when the record was empty and no
    /// continuation was needed).
    #[inline]
    fn overflow(
        &mut self,
        kont: Option<KontId>,
        from: SegmentId,
        to: SegmentId,
        slots_moved: usize,
    ) {
        let _ = (kont, from, to, slots_moved);
    }

    /// A return ran off the base of the current record in `seg`; the link
    /// continuation is being reinstated (a matching [`reinstate`]
    /// (ControlProbe::reinstate) event follows), or the program is complete.
    #[inline]
    fn underflow(&mut self, seg: SegmentId) {
        let _ = seg;
    }

    /// One-shot continuation `kont` was promoted to multi-shot status.
    /// `walked` is true under `EagerWalk` (the object was rewritten in a
    /// chain walk — one step per event) and false under `SharedFlag` (one
    /// flag flip promoted the whole chain).
    #[inline]
    fn promotion(&mut self, kont: KontId, walked: bool) {
        let _ = (kont, walked);
    }

    /// Continuation `kont` exceeded the copy bound and was split at a frame
    /// boundary: `bottom` is the freshly created bottom part holding
    /// `slots` slots.
    #[inline]
    fn split(&mut self, kont: KontId, bottom: KontId, slots: usize) {
        let _ = (kont, bottom, slots);
    }

    /// Segment `seg` was taken from the segment cache.
    #[inline]
    fn cache_hit(&mut self, seg: SegmentId) {
        let _ = seg;
    }

    /// Segment `seg` became unreferenced and was returned to the cache.
    #[inline]
    fn cache_return(&mut self, seg: SegmentId) {
        let _ = seg;
    }

    /// A fresh segment `seg` with `slots` capacity was allocated.
    #[inline]
    fn segment_alloc(&mut self, seg: SegmentId, slots: usize) {
        let _ = (seg, slots);
    }

    /// A prompt boundary was sealed: `slots` occupied slots of `seg` became
    /// the tagged record `kont` (a delimited-control mark on the chain).
    #[inline]
    fn prompt_push(&mut self, kont: KontId, seg: SegmentId, slots: usize) {
        let _ = (kont, seg, slots);
    }

    /// The chain between the top of stack and a prompt was detached into a
    /// subcontinuation headed by `head` (`None` when the delimited context
    /// was empty). `records` records holding `slots` occupied slots were
    /// captured; `copied` of those slots belonged to promoted records and
    /// had to be copied (the rest were stolen in place).
    #[inline]
    fn subcont_take(&mut self, head: Option<KontId>, records: usize, slots: usize, copied: usize) {
        let _ = (head, records, slots, copied);
    }

    /// A detached subcontinuation of `records` records headed by `head` was
    /// spliced back onto the current stack (a matching [`reinstate`]
    /// (ControlProbe::reinstate) event for `head` follows).
    #[inline]
    fn subcont_push(&mut self, head: KontId, records: usize) {
        let _ = (head, records);
    }

    /// Control aborted straight to `prompt`, discarding `records` chain
    /// records without materializing a subcontinuation (a matching
    /// [`reinstate`](ControlProbe::reinstate) event for `prompt` follows).
    #[inline]
    fn abort_to_prompt(&mut self, prompt: KontId, records: usize) {
        let _ = (prompt, records);
    }
}

/// The default probe: every callback is an empty inlined default, so probed
/// call sites compile to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl ControlProbe for NoopProbe {}

/// The built-in counters are a probe: every [`SegStack`](crate::SegStack)
/// hands each event to its own [`Stats`] before the installed probe, so
/// [`SegStack::stats`](crate::SegStack::stats) is the event stream summed
/// (the table in the module docs is this impl). Installing a second `Stats`
/// as the probe (`SegStack<S, Stats>`) gives totals that can be swapped or
/// zeroed mid-run.
impl ControlProbe for Stats {
    #[inline]
    fn capture_multi(&mut self, _kont: KontId, _seg: SegmentId, _slots: usize) {
        self.captures_multi += 1;
    }
    #[inline]
    fn capture_one(&mut self, _kont: KontId, _seg: SegmentId, _slots: usize, span: usize) {
        self.captures_one += 1;
        self.slots_encapsulated += span as u64;
    }
    #[inline]
    fn capture_empty(&mut self) {
        self.captures_empty += 1;
    }
    #[inline]
    fn reinstate(&mut self, _kont: KontId, _seg: SegmentId, one_shot: bool, slots_copied: usize) {
        if one_shot {
            self.reinstates_one += 1;
            self.shots += 1;
        } else {
            self.reinstates_multi += 1;
            self.slots_copied += slots_copied as u64;
        }
    }
    #[inline]
    fn overflow(
        &mut self,
        _kont: Option<KontId>,
        _from: SegmentId,
        _to: SegmentId,
        slots_moved: usize,
    ) {
        self.overflows += 1;
        self.slots_copied += slots_moved as u64;
    }
    #[inline]
    fn underflow(&mut self, _seg: SegmentId) {
        self.underflows += 1;
    }
    #[inline]
    fn promotion(&mut self, _kont: KontId, walked: bool) {
        self.promotions += 1;
        self.promotion_steps += u64::from(walked);
    }
    #[inline]
    fn split(&mut self, _kont: KontId, _bottom: KontId, _slots: usize) {
        self.splits += 1;
    }
    #[inline]
    fn cache_hit(&mut self, _seg: SegmentId) {
        self.cache_hits += 1;
    }
    #[inline]
    fn cache_return(&mut self, _seg: SegmentId) {
        self.cache_returns += 1;
    }
    #[inline]
    fn segment_alloc(&mut self, _seg: SegmentId, slots: usize) {
        self.segments_allocated += 1;
        self.segment_slots_allocated += slots as u64;
    }
    #[inline]
    fn prompt_push(&mut self, _kont: KontId, _seg: SegmentId, _slots: usize) {
        self.prompts_pushed += 1;
    }
    #[inline]
    fn subcont_take(
        &mut self,
        _head: Option<KontId>,
        _records: usize,
        slots: usize,
        copied: usize,
    ) {
        self.subconts_taken += 1;
        self.subcont_slots += slots as u64;
        self.slots_copied += copied as u64;
    }
    #[inline]
    fn subcont_push(&mut self, _head: KontId, _records: usize) {
        self.subconts_pushed += 1;
    }
    #[inline]
    fn abort_to_prompt(&mut self, _prompt: KontId, _records: usize) {
        self.aborts_to_prompt += 1;
    }
}

/// One recorded control event (see [`RingTraceProbe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeEvent {
    /// See [`ControlProbe::capture_multi`].
    CaptureMulti {
        /// The created continuation.
        kont: KontId,
        /// The segment whose occupied portion was sealed.
        seg: SegmentId,
        /// Occupied slots sealed.
        slots: usize,
    },
    /// See [`ControlProbe::capture_one`].
    CaptureOne {
        /// The created continuation.
        kont: KontId,
        /// The encapsulated segment.
        seg: SegmentId,
        /// Occupied slots encapsulated.
        slots: usize,
        /// Total slot span owned by the record (occupied or not).
        span: usize,
    },
    /// See [`ControlProbe::capture_empty`].
    CaptureEmpty,
    /// See [`ControlProbe::seal`].
    Seal {
        /// The sealed continuation.
        kont: KontId,
        /// The segment sealed in place.
        seg: SegmentId,
        /// Spare slots left above the occupied portion.
        pad: usize,
    },
    /// See [`ControlProbe::reinstate`].
    Reinstate {
        /// The reinstated continuation.
        kont: KontId,
        /// The segment holding its saved frames.
        seg: SegmentId,
        /// Whether the O(1) one-shot path was taken.
        one_shot: bool,
        /// Slots copied (zero on the one-shot path).
        slots_copied: usize,
    },
    /// See [`ControlProbe::overflow`].
    Overflow {
        /// The implicit continuation, if one was created.
        kont: Option<KontId>,
        /// The overflowed segment.
        from: SegmentId,
        /// The fresh segment.
        to: SegmentId,
        /// Live slots relocated.
        slots_moved: usize,
    },
    /// See [`ControlProbe::underflow`].
    Underflow {
        /// The segment whose record base was crossed.
        seg: SegmentId,
    },
    /// See [`ControlProbe::promotion`].
    Promotion {
        /// The promoted continuation.
        kont: KontId,
        /// True under `EagerWalk`, false under `SharedFlag`.
        walked: bool,
    },
    /// See [`ControlProbe::split`].
    Split {
        /// The split continuation (now the top part).
        kont: KontId,
        /// The freshly created bottom part.
        bottom: KontId,
        /// Slots held by the bottom part.
        slots: usize,
    },
    /// See [`ControlProbe::cache_hit`].
    CacheHit {
        /// The reused segment.
        seg: SegmentId,
    },
    /// See [`ControlProbe::cache_return`].
    CacheReturn {
        /// The cached segment.
        seg: SegmentId,
    },
    /// See [`ControlProbe::segment_alloc`].
    SegmentAlloc {
        /// The new segment.
        seg: SegmentId,
        /// Its slot capacity.
        slots: usize,
    },
    /// See [`ControlProbe::prompt_push`].
    PromptPush {
        /// The sealed prompt record.
        kont: KontId,
        /// The segment whose occupied portion was sealed.
        seg: SegmentId,
        /// Occupied slots sealed.
        slots: usize,
    },
    /// See [`ControlProbe::subcont_take`].
    SubcontTake {
        /// The head of the detached chain (`None` for an empty context).
        head: Option<KontId>,
        /// Records captured.
        records: usize,
        /// Occupied slots captured.
        slots: usize,
        /// Slots copied from promoted records.
        copied: usize,
    },
    /// See [`ControlProbe::subcont_push`].
    SubcontPush {
        /// The head of the spliced-in chain.
        head: KontId,
        /// Records spliced in.
        records: usize,
    },
    /// See [`ControlProbe::abort_to_prompt`].
    AbortToPrompt {
        /// The prompt control aborted to.
        prompt: KontId,
        /// Chain records discarded.
        records: usize,
    },
}

impl fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProbeEvent::CaptureMulti { kont, seg, slots } => {
                write!(f, "capture/cc   k{} seg{} ({slots} slots)", kont.index(), seg.index())
            }
            ProbeEvent::CaptureOne { kont, seg, slots, span } => {
                write!(
                    f,
                    "capture/1cc  k{} seg{} ({slots} slots, span {span})",
                    kont.index(),
                    seg.index()
                )
            }
            ProbeEvent::CaptureEmpty => write!(f, "capture      (empty record, link reused)"),
            ProbeEvent::Seal { kont, seg, pad } => {
                write!(f, "seal         k{} seg{} (pad {pad})", kont.index(), seg.index())
            }
            ProbeEvent::Reinstate { kont, seg, one_shot, slots_copied } => {
                if one_shot {
                    write!(f, "reinstate    k{} seg{} (one-shot, O(1))", kont.index(), seg.index())
                } else {
                    write!(
                        f,
                        "reinstate    k{} seg{} (copied {slots_copied} slots)",
                        kont.index(),
                        seg.index()
                    )
                }
            }
            ProbeEvent::Overflow { kont, from, to, slots_moved } => match kont {
                Some(k) => write!(
                    f,
                    "overflow     seg{} -> seg{} (moved {slots_moved} slots, implicit k{})",
                    from.index(),
                    to.index(),
                    k.index()
                ),
                None => write!(
                    f,
                    "overflow     seg{} -> seg{} (moved {slots_moved} slots)",
                    from.index(),
                    to.index()
                ),
            },
            ProbeEvent::Underflow { seg } => write!(f, "underflow    seg{}", seg.index()),
            ProbeEvent::Promotion { kont, walked } => {
                let how = if walked { "eager walk" } else { "shared flag" };
                write!(f, "promote      k{} ({how})", kont.index())
            }
            ProbeEvent::Split { kont, bottom, slots } => {
                write!(
                    f,
                    "split        k{} -> bottom k{} ({slots} slots)",
                    kont.index(),
                    bottom.index()
                )
            }
            ProbeEvent::CacheHit { seg } => write!(f, "cache hit    seg{}", seg.index()),
            ProbeEvent::CacheReturn { seg } => write!(f, "cache return seg{}", seg.index()),
            ProbeEvent::SegmentAlloc { seg, slots } => {
                write!(f, "seg alloc    seg{} ({slots} slots)", seg.index())
            }
            ProbeEvent::PromptPush { kont, seg, slots } => {
                write!(f, "prompt push  k{} seg{} ({slots} slots)", kont.index(), seg.index())
            }
            ProbeEvent::SubcontTake { head, records, slots, copied } => match head {
                Some(h) => write!(
                    f,
                    "subcont take k{} ({records} records, {slots} slots, {copied} copied)",
                    h.index()
                ),
                None => write!(f, "subcont take (empty context)"),
            },
            ProbeEvent::SubcontPush { head, records } => {
                write!(f, "subcont push k{} ({records} records)", head.index())
            }
            ProbeEvent::AbortToPrompt { prompt, records } => {
                write!(
                    f,
                    "abort        -> prompt k{} ({records} records discarded)",
                    prompt.index()
                )
            }
        }
    }
}

/// A probe recording the last *N* events in a ring buffer, for post-mortem
/// debugging: when control-heavy code misbehaves, the trace shows the exact
/// capture/reinstate/overflow sequence that led there, with segment ids and
/// slot counts.
#[derive(Debug, Clone, Default)]
pub struct RingTraceProbe {
    buf: VecDeque<ProbeEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingTraceProbe {
    /// A probe keeping the most recent `capacity` events (0 keeps nothing).
    pub fn new(capacity: usize) -> Self {
        RingTraceProbe { buf: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    fn push(&mut self, ev: ProbeEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ProbeEvent> {
        self.buf.iter()
    }

    /// Number of retained events (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events that fell off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the buffer (the dropped count resets too).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

impl ControlProbe for RingTraceProbe {
    fn capture_multi(&mut self, kont: KontId, seg: SegmentId, slots: usize) {
        self.push(ProbeEvent::CaptureMulti { kont, seg, slots });
    }
    fn capture_one(&mut self, kont: KontId, seg: SegmentId, slots: usize, span: usize) {
        self.push(ProbeEvent::CaptureOne { kont, seg, slots, span });
    }
    fn capture_empty(&mut self) {
        self.push(ProbeEvent::CaptureEmpty);
    }
    fn seal(&mut self, kont: KontId, seg: SegmentId, pad: usize) {
        self.push(ProbeEvent::Seal { kont, seg, pad });
    }
    fn reinstate(&mut self, kont: KontId, seg: SegmentId, one_shot: bool, slots_copied: usize) {
        self.push(ProbeEvent::Reinstate { kont, seg, one_shot, slots_copied });
    }
    fn overflow(
        &mut self,
        kont: Option<KontId>,
        from: SegmentId,
        to: SegmentId,
        slots_moved: usize,
    ) {
        self.push(ProbeEvent::Overflow { kont, from, to, slots_moved });
    }
    fn underflow(&mut self, seg: SegmentId) {
        self.push(ProbeEvent::Underflow { seg });
    }
    fn promotion(&mut self, kont: KontId, walked: bool) {
        self.push(ProbeEvent::Promotion { kont, walked });
    }
    fn split(&mut self, kont: KontId, bottom: KontId, slots: usize) {
        self.push(ProbeEvent::Split { kont, bottom, slots });
    }
    fn cache_hit(&mut self, seg: SegmentId) {
        self.push(ProbeEvent::CacheHit { seg });
    }
    fn cache_return(&mut self, seg: SegmentId) {
        self.push(ProbeEvent::CacheReturn { seg });
    }
    fn segment_alloc(&mut self, seg: SegmentId, slots: usize) {
        self.push(ProbeEvent::SegmentAlloc { seg, slots });
    }
    fn prompt_push(&mut self, kont: KontId, seg: SegmentId, slots: usize) {
        self.push(ProbeEvent::PromptPush { kont, seg, slots });
    }
    fn subcont_take(&mut self, head: Option<KontId>, records: usize, slots: usize, copied: usize) {
        self.push(ProbeEvent::SubcontTake { head, records, slots, copied });
    }
    fn subcont_push(&mut self, head: KontId, records: usize) {
        self.push(ProbeEvent::SubcontPush { head, records });
    }
    fn abort_to_prompt(&mut self, prompt: KontId, records: usize) {
        self.push(ProbeEvent::AbortToPrompt { prompt, records });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut p = RingTraceProbe::new(3);
        for i in 0..5 {
            p.cache_hit(SegmentId(i));
        }
        assert_eq!(p.len(), 3);
        assert_eq!(p.dropped(), 2);
        let segs: Vec<u32> = p
            .events()
            .map(|e| match e {
                ProbeEvent::CacheHit { seg } => seg.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(segs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut p = RingTraceProbe::new(0);
        p.capture_empty();
        assert!(p.is_empty());
        assert_eq!(p.dropped(), 1);
    }

    #[test]
    fn stats_sum_the_events() {
        let mut p = Stats::default();
        p.capture_multi(KontId(0), SegmentId(0), 8);
        p.capture_one(KontId(1), SegmentId(0), 4, 64);
        p.capture_empty();
        p.reinstate(KontId(1), SegmentId(0), true, 0);
        p.reinstate(KontId(0), SegmentId(0), false, 8);
        p.overflow(None, SegmentId(0), SegmentId(1), 5);
        p.promotion(KontId(2), true);
        p.promotion(KontId(3), false);
        p.prompt_push(KontId(4), SegmentId(0), 3);
        p.subcont_take(Some(KontId(5)), 2, 9, 4);
        p.subcont_push(KontId(5), 2);
        p.abort_to_prompt(KontId(4), 1);
        let s = p;
        assert_eq!(s.captures_multi, 1);
        assert_eq!(s.captures_one, 1);
        assert_eq!(s.slots_encapsulated, 64);
        assert_eq!(s.prompts_pushed, 1);
        assert_eq!(s.subconts_taken, 1);
        assert_eq!(s.subcont_slots, 9);
        assert_eq!(s.subconts_pushed, 1);
        assert_eq!(s.aborts_to_prompt, 1);
        assert_eq!(s.captures_empty, 1);
        assert_eq!(s.reinstates_one, 1);
        assert_eq!(s.shots, 1);
        assert_eq!(s.reinstates_multi, 1);
        assert_eq!(s.slots_copied, 17); // 8 reinstated + 5 relocated + 4 from promoted subcont records
        assert_eq!(s.overflows, 1);
        assert_eq!(s.promotions, 2);
        assert_eq!(s.promotion_steps, 1);
    }

    #[test]
    fn events_render_symbolically() {
        let ev = ProbeEvent::Reinstate {
            kont: KontId(3),
            seg: SegmentId(1),
            one_shot: true,
            slots_copied: 0,
        };
        assert_eq!(ev.to_string(), "reinstate    k3 seg1 (one-shot, O(1))");
        let ov = ProbeEvent::Overflow {
            kont: None,
            from: SegmentId(0),
            to: SegmentId(2),
            slots_moved: 7,
        };
        assert_eq!(ov.to_string(), "overflow     seg0 -> seg2 (moved 7 slots)");
    }
}
