//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] describes *when* faults fire — "fail the Nth heap
//! allocation", "force a premature stack overflow at the Nth segment
//! check", "expire the engine timer early" — as plain countdowns. The
//! plan is either written out explicitly by a test or derived from a seed
//! with [`FaultPlan::seeded`], using an xorshift64\* generator, so a chaos
//! schedule is reproducible from a single integer.
//!
//! Each countdown is armed as a [`FaultClock`] at the site that consumes
//! it (the heap allocator, the segmented stack's `ensure`, the VM's timer
//! tick). A disarmed clock is a `None` check on the hot path — release
//! builds with no plan configured pay one predictable branch, in the same
//! spirit as the [`probe`](crate::probe) layer.

/// A single-shot countdown: fires exactly once, after `n - 1` ticks have
/// passed, then disarms itself.
///
/// `FaultClock::default()` is disarmed and never fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultClock {
    remaining: Option<u64>,
}

impl FaultClock {
    /// A clock that fires on the `n`-th call to [`FaultClock::tick`]
    /// (1-based). `arm(0)` is treated as `arm(1)`: the next tick fires.
    #[must_use]
    pub fn arm(n: u64) -> Self {
        FaultClock { remaining: Some(n.max(1)) }
    }

    /// A disarmed clock that never fires.
    #[must_use]
    pub fn disarmed() -> Self {
        FaultClock::default()
    }

    /// Whether the clock is armed and will eventually fire.
    #[must_use]
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.remaining.is_some()
    }

    /// Advances the clock. Returns `true` exactly once — on the tick the
    /// countdown reaches zero — and disarms the clock afterwards.
    #[inline]
    pub fn tick(&mut self) -> bool {
        match self.remaining {
            None => false,
            Some(1) => {
                self.remaining = None;
                true
            }
            Some(n) => {
                self.remaining = Some(n - 1);
                false
            }
        }
    }
}

/// A deterministic schedule of injected faults, one optional countdown per
/// fault site.
///
/// All fields count *events at the site* (allocations, ensure checks,
/// timer ticks), not instructions, so a plan is stable across unrelated
/// code changes at other sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct FaultPlan {
    /// Fail the Nth heap allocation (1-based), surfacing as a catchable
    /// `out-of-memory` condition at the next safe point.
    pub alloc_fault_after: Option<u64>,
    /// Force a premature stack-segment ceiling at the Nth `ensure` check
    /// (1-based), surfacing as a catchable `stack-overflow` condition.
    pub segment_fault_after: Option<u64>,
    /// Force the engine timer to expire at the Nth safe-point tick
    /// (1-based), surfacing as a catchable `fuel-exhausted` condition when
    /// no timer-interrupt handler is installed.
    pub timer_fault_after: Option<u64>,
    /// Truncate the Nth guest TCP read (1-based) to a single byte — a
    /// short read. The guest's `tcp-read` loop must reassemble.
    pub io_short_after: Option<u64>,
    /// Make the Nth guest TCP read or write (1-based) spuriously report
    /// would-block even though the fd was reported ready — the
    /// `EAGAIN`-after-readiness race. The guest re-suspends and retries;
    /// the VM logs the fd as still ready for the embedder's reactor.
    pub io_spurious_after: Option<u64>,
    /// Fail the Nth guest TCP read or write (1-based) with an injected
    /// connection reset, surfacing as a catchable `io-error` condition at
    /// the suspended continuation's resumption point.
    pub io_reset_after: Option<u64>,
    /// Delay the Nth readiness delivery (1-based) inside the reactor by a
    /// few milliseconds — a late wakeup, whose job the reactor holds
    /// aside until it is handed back.
    pub readiness_delay_after: Option<u64>,
    /// Drop the Nth readiness delivery (1-based) inside the reactor
    /// entirely. The edge is consumed, so recovery is bounded by the
    /// connection's I/O deadline (`io-timeout`).
    pub readiness_drop_after: Option<u64>,
    /// Interrupt the Nth reactor wait (1-based) with a synthetic `EINTR`
    /// before the syscall runs, exercising the recomputed-timeout retry.
    pub wait_eintr_after: Option<u64>,
}

impl FaultPlan {
    /// A plan with every fault site disarmed.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Derives a plan from `seed`: each fault site independently gets a
    /// countdown drawn uniformly from `1..=horizon`, or is left disarmed
    /// (each site is armed with probability 3/4). The generator is
    /// xorshift64\*, so the same seed always yields the same schedule.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut x = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            x
        };
        let horizon = horizon.max(1);
        let mut draw = move || {
            let r = next();
            // Armed with probability 3/4; countdown uniform in 1..=horizon.
            (r & 3 != 0).then(|| 1 + (r >> 2) % horizon)
        };
        // Draw order is part of the seed contract: the three original
        // sites first (so pre-I/O chaos schedules replay bit-identically),
        // then the I/O sites in field order. New sites must be appended.
        FaultPlan {
            alloc_fault_after: draw(),
            segment_fault_after: draw(),
            timer_fault_after: draw(),
            io_short_after: draw(),
            io_spurious_after: draw(),
            io_reset_after: draw(),
            readiness_delay_after: draw(),
            readiness_drop_after: draw(),
            wait_eintr_after: draw(),
        }
    }

    /// Sets the allocation-fault countdown (the struct is
    /// `#[non_exhaustive]`, so plans are built with these setters).
    #[must_use]
    pub fn with_alloc_fault(mut self, n: u64) -> Self {
        self.alloc_fault_after = Some(n);
        self
    }

    /// Sets the segment-fault countdown.
    #[must_use]
    pub fn with_segment_fault(mut self, n: u64) -> Self {
        self.segment_fault_after = Some(n);
        self
    }

    /// Sets the timer-fault countdown.
    #[must_use]
    pub fn with_timer_fault(mut self, n: u64) -> Self {
        self.timer_fault_after = Some(n);
        self
    }

    /// Sets the short-read countdown.
    #[must_use]
    pub fn with_io_short(mut self, n: u64) -> Self {
        self.io_short_after = Some(n);
        self
    }

    /// Sets the spurious-would-block countdown.
    #[must_use]
    pub fn with_io_spurious(mut self, n: u64) -> Self {
        self.io_spurious_after = Some(n);
        self
    }

    /// Sets the injected-connection-reset countdown.
    #[must_use]
    pub fn with_io_reset(mut self, n: u64) -> Self {
        self.io_reset_after = Some(n);
        self
    }

    /// Sets the delayed-readiness countdown.
    #[must_use]
    pub fn with_readiness_delay(mut self, n: u64) -> Self {
        self.readiness_delay_after = Some(n);
        self
    }

    /// Sets the dropped-readiness countdown.
    #[must_use]
    pub fn with_readiness_drop(mut self, n: u64) -> Self {
        self.readiness_drop_after = Some(n);
        self
    }

    /// Sets the synthetic-`EINTR` countdown.
    #[must_use]
    pub fn with_wait_eintr(mut self, n: u64) -> Self {
        self.wait_eintr_after = Some(n);
        self
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.alloc_fault_after.is_some()
            || self.segment_fault_after.is_some()
            || self.timer_fault_after.is_some()
            || self.io_sites_active()
    }

    /// Whether any I/O or reactor fault site is armed.
    #[must_use]
    pub fn io_sites_active(&self) -> bool {
        self.io_short_after.is_some()
            || self.io_spurious_after.is_some()
            || self.io_reset_after.is_some()
            || self.readiness_delay_after.is_some()
            || self.readiness_drop_after.is_some()
            || self.wait_eintr_after.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_fires_exactly_once() {
        let mut c = FaultClock::arm(3);
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick());
        assert!(!c.tick());
        assert!(!c.is_armed());
    }

    #[test]
    fn disarmed_clock_never_fires() {
        let mut c = FaultClock::disarmed();
        for _ in 0..100 {
            assert!(!c.tick());
        }
    }

    #[test]
    fn arm_zero_fires_next_tick() {
        let mut c = FaultClock::arm(0);
        assert!(c.tick());
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 1000);
        let b = FaultPlan::seeded(42, 1000);
        assert_eq!(a, b);
        // Countdowns respect the horizon.
        for n in [
            a.alloc_fault_after,
            a.segment_fault_after,
            a.timer_fault_after,
            a.io_short_after,
            a.io_spurious_after,
            a.io_reset_after,
            a.readiness_delay_after,
            a.readiness_drop_after,
            a.wait_eintr_after,
        ]
        .into_iter()
        .flatten()
        {
            assert!((1..=1000).contains(&n));
        }
    }

    #[test]
    fn seeded_draw_order_is_pinned() {
        // Golden values: the generator and the draw order are part of the
        // replay contract. If this test moves, every recorded chaos seed
        // silently means a different schedule.
        let p = FaultPlan::seeded(1, 100);
        assert_eq!(
            (p.alloc_fault_after, p.segment_fault_after, p.timer_fault_after),
            (Some(92), Some(82), Some(13)),
            "pre-I/O draw prefix changed: recorded seeds no longer replay"
        );
        assert_eq!(
            (
                p.io_short_after,
                p.io_spurious_after,
                p.io_reset_after,
                p.readiness_delay_after,
                p.readiness_drop_after,
                p.wait_eintr_after,
            ),
            (None, Some(59), Some(67), Some(74), None, None),
            "appended I/O draws changed: recorded chaos-serve seeds no longer replay"
        );
        // And two derivations are bit-identical, I/O sites included.
        assert_eq!(FaultPlan::seeded(0xDEAD_BEEF, 512), FaultPlan::seeded(0xDEAD_BEEF, 512));
    }

    #[test]
    fn seeds_differ() {
        // Not a strong statistical claim — just that the seed is used.
        let plans: Vec<_> = (0..16).map(|s| FaultPlan::seeded(s, 1 << 20)).collect();
        let distinct = plans.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct > 8, "expected varied plans, got {distinct} distinct");
    }
}
