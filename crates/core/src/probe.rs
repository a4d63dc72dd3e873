//! Control events: fine-grained observability for the segmented stack.
//!
//! Every interesting transition of a [`SegStack`](crate::SegStack) —
//! capture, reinstatement, overflow, underflow, promotion, splitting,
//! sealing, segment-cache traffic and the prompt operations — is one
//! [`ProbeEvent`] value. The stack builds each event once and hands it to
//! [`Stats::record`], which sums it into the counters
//! [`SegStack::stats`](crate::SegStack::stats) returns, and — when the
//! stack was built with
//! [`SegStack::with_trace`](crate::SegStack::with_trace) — to a
//! [`RingTraceProbe`] recording the last *N* events, with segment ids and
//! slot counts, for post-mortem debugging of control-heavy code.
//!
//! # Ordering guarantees
//!
//! A continuation id appears in a [`Reinstate`](ProbeEvent::Reinstate)
//! event only after it was *introduced* by an earlier `CaptureOne`,
//! `CaptureMulti`, `Overflow` (implicit capture, `kont: Some(..)`), or
//! `Split` (the freshly created bottom part) event, or sealed by a
//! `PromptPush` or `SubcontTake` (the head and any copied records of the
//! detached chain count as introduced). `CaptureEmpty` returns an
//! already-introduced continuation (the tail rule) and introduces nothing.
//! The property test in `tests/probe.rs` checks this invariant against
//! randomized workloads.

use std::collections::VecDeque;
use std::fmt;

use crate::kont::KontId;
use crate::stack::SegmentId;
use crate::stats::Stats;

/// One control event of a [`SegStack`](crate::SegStack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeEvent {
    /// A multi-shot capture (`call/cc`) sealed `slots` occupied slots of
    /// `seg` into continuation `kont`.
    CaptureMulti {
        /// The created continuation.
        kont: KontId,
        /// The segment whose occupied portion was sealed.
        seg: SegmentId,
        /// Occupied slots sealed.
        slots: usize,
    },
    /// A one-shot capture (`call/1cc`) encapsulated `slots` occupied slots
    /// of `seg` into continuation `kont`. The whole `span` is unusable
    /// until the continuation is shot (the encapsulation cost of §3.4).
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
    /// A capture found the record empty and returned the existing link
    /// continuation (the proper-tail-recursion rule); nothing was created.
    CaptureEmpty,
    /// A `SealWithPad` one-shot record was sealed in place; the remainder
    /// of `seg` stays current (no segment switch).
    Seal {
        /// The sealed continuation.
        kont: KontId,
        /// The segment sealed in place.
        seg: SegmentId,
        /// Spare slots left above the occupied portion.
        pad: usize,
    },
    /// Continuation `kont` (saved in `seg`) was reinstated.
    Reinstate {
        /// The reinstated continuation.
        kont: KontId,
        /// The segment holding its saved frames.
        seg: SegmentId,
        /// Whether the O(1) one-shot segment swap was taken.
        one_shot: bool,
        /// Slots copied back onto the stack (zero on the one-shot path).
        slots_copied: usize,
    },
    /// The stack overflowed: live slots moved from `from` to `to`, and the
    /// remainder of `from` became an implicit continuation.
    Overflow {
        /// The implicit continuation (`None` when the record was empty and
        /// no continuation was needed).
        kont: Option<KontId>,
        /// The overflowed segment.
        from: SegmentId,
        /// The fresh segment.
        to: SegmentId,
        /// Live slots relocated.
        slots_moved: usize,
    },
    /// A return ran off the base of the current record; the link
    /// continuation is being reinstated (a matching `Reinstate` follows),
    /// or the program is complete.
    Underflow {
        /// The segment whose record base was crossed.
        seg: SegmentId,
    },
    /// One-shot continuation `kont` was promoted to multi-shot status.
    Promotion {
        /// The promoted continuation.
        kont: KontId,
        /// True under `EagerWalk` (one event per chain step), false under
        /// `SharedFlag` (one flag flip promoted the whole chain).
        walked: bool,
    },
    /// Continuation `kont` exceeded the copy bound and was split at a frame
    /// boundary.
    Split {
        /// The split continuation (now the top part).
        kont: KontId,
        /// The freshly created bottom part.
        bottom: KontId,
        /// Slots held by the bottom part.
        slots: usize,
    },
    /// A segment was taken from the segment cache.
    CacheHit {
        /// The reused segment.
        seg: SegmentId,
    },
    /// A segment became unreferenced and was returned to the cache.
    CacheReturn {
        /// The cached segment.
        seg: SegmentId,
    },
    /// A fresh segment was allocated.
    SegmentAlloc {
        /// The new segment.
        seg: SegmentId,
        /// Its slot capacity.
        slots: usize,
    },
    /// A prompt boundary was sealed: `slots` occupied slots of `seg`
    /// became the tagged record `kont` (a delimited-control mark on the
    /// chain).
    PromptPush {
        /// The sealed prompt record.
        kont: KontId,
        /// The segment whose occupied portion was sealed.
        seg: SegmentId,
        /// Occupied slots sealed.
        slots: usize,
    },
    /// The chain between the top of stack and a prompt was detached into a
    /// subcontinuation.
    SubcontTake {
        /// The head of the detached chain (`None` for an empty context).
        head: Option<KontId>,
        /// Records captured.
        records: usize,
        /// Occupied slots captured.
        slots: usize,
        /// Slots copied from promoted records (the rest were stolen in
        /// place).
        copied: usize,
    },
    /// A detached subcontinuation was spliced back onto the current stack
    /// (a matching `Reinstate` of `head` follows).
    SubcontPush {
        /// The head of the spliced-in chain.
        head: KontId,
        /// Records spliced in.
        records: usize,
    },
    /// Control aborted straight to a prompt without materializing a
    /// subcontinuation (a matching `Reinstate` of `prompt` follows).
    AbortToPrompt {
        /// The prompt control aborted to.
        prompt: KontId,
        /// Chain records discarded.
        records: usize,
    },
}

impl Stats {
    /// Sums one event into the counters — the one place an event's effect
    /// on them is written down. `Seal` is a `SealWithPad` detail of a
    /// capture already counted and counts nothing.
    #[inline]
    pub fn record(&mut self, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::CaptureMulti { .. } => self.captures_multi += 1,
            ProbeEvent::CaptureOne { span, .. } => {
                self.captures_one += 1;
                self.slots_encapsulated += span as u64;
            }
            ProbeEvent::CaptureEmpty => self.captures_empty += 1,
            ProbeEvent::Seal { .. } => {}
            ProbeEvent::Reinstate { one_shot: true, .. } => {
                self.reinstates_one += 1;
                self.shots += 1;
            }
            ProbeEvent::Reinstate { one_shot: false, slots_copied, .. } => {
                self.reinstates_multi += 1;
                self.slots_copied += slots_copied as u64;
            }
            ProbeEvent::Overflow { slots_moved, .. } => {
                self.overflows += 1;
                self.slots_copied += slots_moved as u64;
            }
            ProbeEvent::Underflow { .. } => self.underflows += 1,
            ProbeEvent::Promotion { walked, .. } => {
                self.promotions += 1;
                self.promotion_steps += u64::from(walked);
            }
            ProbeEvent::Split { .. } => self.splits += 1,
            ProbeEvent::CacheHit { .. } => self.cache_hits += 1,
            ProbeEvent::CacheReturn { .. } => self.cache_returns += 1,
            ProbeEvent::SegmentAlloc { slots, .. } => {
                self.segments_allocated += 1;
                self.segment_slots_allocated += slots as u64;
            }
            ProbeEvent::PromptPush { .. } => self.prompts_pushed += 1,
            ProbeEvent::SubcontTake { slots, copied, .. } => {
                self.subconts_taken += 1;
                self.subcont_slots += slots as u64;
                self.slots_copied += copied as u64;
            }
            ProbeEvent::SubcontPush { .. } => self.subconts_pushed += 1,
            ProbeEvent::AbortToPrompt { .. } => self.aborts_to_prompt += 1,
        }
    }
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

/// The last *N* control events of a stack, in a ring buffer, for
/// post-mortem debugging: when control-heavy code misbehaves, the trace
/// shows the exact capture/reinstate/overflow sequence that led there,
/// with segment ids and slot counts.
#[derive(Debug, Clone, Default)]
pub struct RingTraceProbe {
    buf: VecDeque<ProbeEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingTraceProbe {
    /// A ring keeping the most recent `capacity` events (0 keeps nothing).
    pub fn new(capacity: usize) -> Self {
        RingTraceProbe { buf: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Records `ev`, evicting the oldest event when full. Out of line: a
    /// traced stack is a debugging configuration.
    #[cold]
    pub(crate) fn push(&mut self, ev: ProbeEvent) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut p = RingTraceProbe::new(3);
        for i in 0..5 {
            p.push(ProbeEvent::CacheHit { seg: SegmentId(i) });
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
        p.push(ProbeEvent::CaptureEmpty);
        assert!(p.is_empty());
        assert_eq!(p.dropped(), 1);
    }

    #[test]
    fn stats_sum_the_events() {
        let (k, seg) = (KontId, SegmentId);
        let mut s = Stats::default();
        for ev in [
            ProbeEvent::CaptureMulti { kont: k(0), seg: seg(0), slots: 8 },
            ProbeEvent::CaptureOne { kont: k(1), seg: seg(0), slots: 4, span: 64 },
            ProbeEvent::Seal { kont: k(1), seg: seg(0), pad: 16 },
            ProbeEvent::CaptureEmpty,
            ProbeEvent::Reinstate { kont: k(1), seg: seg(0), one_shot: true, slots_copied: 0 },
            ProbeEvent::Reinstate { kont: k(0), seg: seg(0), one_shot: false, slots_copied: 8 },
            ProbeEvent::Overflow { kont: None, from: seg(0), to: seg(1), slots_moved: 5 },
            ProbeEvent::Promotion { kont: k(2), walked: true },
            ProbeEvent::Promotion { kont: k(3), walked: false },
            ProbeEvent::PromptPush { kont: k(4), seg: seg(0), slots: 3 },
            ProbeEvent::SubcontTake { head: Some(k(5)), records: 2, slots: 9, copied: 4 },
            ProbeEvent::SubcontPush { head: k(5), records: 2 },
            ProbeEvent::AbortToPrompt { prompt: k(4), records: 1 },
        ] {
            s.record(&ev);
        }
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
