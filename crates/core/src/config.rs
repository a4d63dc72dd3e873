//! Tuning knobs for the segmented stack.

use crate::error::ConfigError;

/// How one-shot capture obtains the new current segment (§3.2 / §3.4 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OneShotPolicy {
    /// Encapsulate the entire current segment in the continuation and take a
    /// fresh segment (from the segment cache when possible). This is the
    /// basic scheme of §3.2; it is fastest but can fragment memory when many
    /// shallow one-shot continuations (e.g. threads) are live at once.
    FreshSegment,
    /// Seal the segment at the given displacement (in slots) above the
    /// occupied portion and keep the remainder as the current segment
    /// (§3.4). This bounds the unoccupied memory encapsulated per
    /// continuation at the cost of more frequent overflows. Falls back to a
    /// fresh segment when the remainder would be too small to be useful.
    SealWithPad(usize),
}

/// How stack overflow is handled (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverflowPolicy {
    /// Overflow is an implicit `call/1cc`: the old segment is encapsulated
    /// in a one-shot continuation and returning into it is O(1). Hysteresis
    /// (see [`Config::hysteresis_slots`]) copies the top few frames up to
    /// avoid bouncing. This is the paper's recommendation — deeply recursive
    /// programs incur no copying on stack underflow.
    OneShot,
    /// Overflow is an implicit `call/cc`: the occupied portion is sealed
    /// into a multi-shot continuation. Returning into it copies frames back
    /// (subject to the copy bound). Used as the baseline in experiment E3.
    MultiShot,
}

/// How one-shot continuations are promoted to multi-shot status when they
/// are captured as part of a multi-shot continuation (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PromotionStrategy {
    /// Walk the continuation chain, converting each one-shot continuation
    /// until a multi-shot continuation is found. Linear per capture, but a
    /// one-shot continuation can be promoted only once, so there is no
    /// quadratic behaviour. This is what the paper implements.
    EagerWalk,
    /// Share one flag among all one-shot continuations in a chain and
    /// promote them all simultaneously by setting the flag — the paper's
    /// proposed (but unimplemented) bounded-time `call/cc`. We implement it
    /// and compare both in experiment E8.
    SharedFlag,
}

/// Configuration for a [`SegStack`](crate::SegStack).
///
/// The defaults mirror the paper: 4096-word segments (here 4096 slots —
/// slots play the role of machine words), a copy bound well below the
/// segment size, and a little hysteresis on overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Capacity, in slots, of a freshly allocated segment. The paper's
    /// default stack size is 16 KB, i.e. 4096 32-bit words; a slot here is
    /// `size_of::<S>()` bytes, so the same 4096 slots of the Scheme VM's
    /// 16-byte `Slot` are 64 KiB of address space. A segment is allocated
    /// uninitialised and written only as its stack grows, so its pages
    /// become resident only as far as the stack reaches.
    pub segment_slots: usize,
    /// Maximum number of slots copied by a single multi-shot reinstatement;
    /// larger continuations are split lazily at frame boundaries (§3.2).
    pub copy_bound: usize,
    /// On overflow, up to this many slots worth of topmost frames are copied
    /// into the fresh segment so that an immediate return does not bounce
    /// straight back into a full segment (§3.2). Zero disables hysteresis.
    pub hysteresis_slots: usize,
    /// Policy for obtaining the new segment on one-shot capture.
    pub oneshot_policy: OneShotPolicy,
    /// Policy for stack overflow.
    pub overflow_policy: OverflowPolicy,
    /// Promotion strategy for one-shot continuations captured by `call/cc`.
    pub promotion: PromotionStrategy,
    /// Maximum number of default-size segments kept in the segment cache.
    /// Zero disables the cache entirely (the ablation of experiment E5; the
    /// paper found call/1cc-intensive programs "unacceptably slow" without
    /// it).
    pub cache_limit: usize,
    /// Minimum headroom, in slots, required above the occupied portion when
    /// `SealWithPad` keeps the remainder of a segment as the current
    /// segment; below this the policy falls back to a fresh segment.
    pub min_headroom: usize,
    /// Ceiling on the number of *live* (non-cached) segments the stack may
    /// hold. When growing past the ceiling,
    /// [`SegStack::ensure`](crate::SegStack::ensure) reports
    /// [`Overflow::Ceiling`](crate::Overflow::Ceiling) instead of
    /// allocating, letting the embedder unwind (e.g. raise a catchable
    /// `stack-overflow` condition). Zero — the default — disables the
    /// ceiling.
    pub max_segments: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            segment_slots: 4096,
            copy_bound: 1024,
            hysteresis_slots: 128,
            oneshot_policy: OneShotPolicy::FreshSegment,
            overflow_policy: OverflowPolicy::OneShot,
            promotion: PromotionStrategy::EagerWalk,
            cache_limit: 64,
            min_headroom: 64,
            max_segments: 0,
        }
    }
}

impl Config {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error when the segment size is too small to host the copy
    /// bound plus headroom (a reinstated multi-shot portion must always fit
    /// in a default-size segment), or when any size is zero where a positive
    /// value is required.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.segment_slots < 16 {
            return Err(ConfigError::new("segment_slots must be at least 16"));
        }
        if self.copy_bound == 0 {
            return Err(ConfigError::new("copy_bound must be positive"));
        }
        if self.copy_bound + self.min_headroom > self.segment_slots {
            return Err(ConfigError::new(
                "copy_bound plus min_headroom must not exceed segment_slots",
            ));
        }
        if let OneShotPolicy::SealWithPad(pad) = self.oneshot_policy {
            if pad == 0 {
                return Err(ConfigError::new("SealWithPad displacement must be positive"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        Config::default().validate().unwrap();
    }

    #[test]
    fn rejects_tiny_segments() {
        let cfg = Config { segment_slots: 4, ..Config::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_copy_bound_exceeding_segment() {
        let cfg =
            Config { segment_slots: 64, copy_bound: 64, min_headroom: 16, ..Config::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_pad() {
        let cfg = Config { oneshot_policy: OneShotPolicy::SealWithPad(0), ..Config::default() };
        assert!(cfg.validate().is_err());
    }
}
