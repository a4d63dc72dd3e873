//! Operation counters, and the `counters!` table every counter struct in
//! the workspace is declared with.
//!
//! The paper's evaluation reports allocation volumes and copying costs; the
//! VM layer adds instruction counts on top. All counters here are
//! monotonically increasing and hardware-independent, so the experiment
//! harness can report deterministic numbers alongside wall-clock times.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares a counter struct as one table: each field once, with its doc
/// comment, its kind and — for the tables `(vm-stats)` reports — its key
/// where that is not the field name with `-` for `_` (`=> _`: not
/// reported). Generates the struct, `delta_since`, `plus`, `visit` and
/// `FIELDS`. The kinds:
///
/// * `sum` — a volume. A delta subtracts (saturating: the tables feed
///   reports, and a delta taken across a rebuilt source or in the wrong
///   order reads 0 rather than aborting a debug run or wrapping in a
///   release one); `plus`, which folds VM incarnations or workers, adds.
/// * `max` — a running maximum. A delta carries the later value; `plus`
///   takes the larger.
/// * `gauge` — a reading. Both carry the later value.
/// * `nested(T)` — a table of its own, combined by its own methods.
///
/// A `+ { field: Type = (delta_fn, plus_fn), }` tail declares hand-written
/// fields with the functions that combine them. An `atomic struct Name;`
/// clause before the struct adds a twin of shared cells (`sum` →
/// [`SumCell`], `max` → [`MaxCell`]) whose `snapshot` fills the counters
/// and defaults the tail.
#[doc(hidden)]
#[macro_export]
macro_rules! counters {
    (
        $(#[$ameta:meta])*
        atomic $avis:vis struct $atomic:ident;
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $($body:tt)* }
        $($rest:tt)*
    ) => {
        $crate::counters!(@atomic [$(#[$ameta])*] $avis $atomic $name $($body)*);
        $crate::counters! { $(#[$meta])* $vis struct $name { $($body)* } $($rest)* }
    };
    (
        @atomic [$($ameta:tt)*] $avis:vis $atomic:ident $name:ident
        $($(#[$fmeta:meta])* $field:ident: $kind:ident $(($ty:ty))? $(=> $key:tt)?,)*
    ) => {
        $($ameta)*
        #[derive(Debug, Default)]
        $avis struct $atomic {
            $(pub $field: $crate::counters!(@cell $kind),)*
        }

        impl $atomic {
            /// The counters' current values; hand-written fields are left
            /// at their defaults.
            $avis fn snapshot(&self) -> $name {
                let mut s = $name::default();
                $(s.$field = self.$field.get();)*
                s
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $kind:ident $(($ty:ty))? $(=> $key:tt)?,
            )*
        }
        $(+ {
            $(
                $(#[$xmeta:meta])*
                $xvis:vis $xfield:ident: $xty:ty = ($xdelta:expr, $xplus:expr),
            )*
        })?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $crate::counters!(@ty $($ty)?),)*
            $($($(#[$xmeta])* $xvis $xfield: $xty,)*)?
        }

        impl $name {
            /// Every declared field, in declaration order.
            pub const FIELDS: &'static [$crate::CounterField] = &[$($crate::CounterField {
                name: stringify!($field),
                kind: stringify!($kind),
                key: $crate::counters!(@key $($key)?),
                reported: $crate::counters!(@reported $($key)?),
            },)*];

            /// What accumulated between `earlier` and `self`, field by
            /// field according to its kind.
            #[must_use]
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: $crate::counters!(@delta $kind self.$field, earlier.$field),)*
                    $($($xfield: ($xdelta)(&self.$xfield, &earlier.$xfield),)*)?
                }
            }

            /// `self` and a later `other` as one (VM incarnations, workers).
            #[must_use]
            pub fn plus(&self, other: &$name) -> $name {
                $name {
                    $($field: $crate::counters!(@plus $kind self.$field, other.$field),)*
                    $($($xfield: ($xplus)(&self.$xfield, &other.$xfield),)*)?
                }
            }

            /// Calls `f` with every `u64` field and its value, nested
            /// tables included, in declaration order.
            pub fn visit<F: FnMut(&$crate::CounterField, u64)>(&self, f: &mut F) {
                let mut _fields = Self::FIELDS.iter();
                $(
                    let _field = _fields.next().expect("one FIELDS entry per field");
                    $crate::counters!(@visit f $kind [$($ty)?] self.$field, _field);
                )*
            }
        }
    };
    (@ty) => { u64 };
    (@ty $ty:ty) => { $ty };
    (@key $key:literal) => { Some($key) };
    (@key $($none:tt)?) => { None };
    (@reported _) => { false };
    (@reported $($key:literal)?) => { true };
    (@delta sum $now:expr, $then:expr) => { $now.saturating_sub($then) };
    (@delta nested $now:expr, $then:expr) => { $now.delta_since(&$then) };
    (@delta $carried:ident $now:expr, $then:expr) => { $now };
    (@plus sum $a:expr, $b:expr) => { $a + $b };
    (@plus max $a:expr, $b:expr) => { $a.max($b) };
    (@plus gauge $a:expr, $b:expr) => { $b };
    (@plus nested $a:expr, $b:expr) => { $a.plus(&$b) };
    (@visit $f:ident nested [$ty:ty] $v:expr, $field:expr) => { $v.visit($f) };
    (@visit $f:ident $kind:ident [] $v:expr, $field:expr) => { $f($field, $v) };
    (@cell sum) => { $crate::SumCell };
    (@cell max) => { $crate::MaxCell };
}

/// One declared field of a [`counters!`] table.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterField {
    /// The Rust field name.
    pub name: &'static str,
    /// `sum`, `max`, `gauge` or `nested`.
    pub kind: &'static str,
    /// The `(vm-stats)` key, where it is not [`name`](Self::name) with `-`
    /// for `_`.
    pub key: Option<&'static str>,
    /// Whether `(vm-stats)` reports the field.
    pub reported: bool,
}

impl CounterField {
    /// The key `(vm-stats)` reports this field under, if it does.
    pub fn vm_key(&self) -> Option<String> {
        let key = self.key.map_or_else(|| self.name.replace('_', "-"), str::to_string);
        self.reported.then_some(key)
    }
}

/// A `sum` counter shared between threads. (The cells hold statistics and
/// publish nothing else, so their operations are `Relaxed`.)
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct SumCell(AtomicU64);

impl SumCell {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A `max` counter shared between threads.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct MaxCell(AtomicU64);

impl MaxCell {
    /// Raises the maximum to `n`.
    #[inline]
    pub fn raise(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// The maximum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

crate::counters! {
    /// Counters maintained by a [`SegStack`](crate::SegStack).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    #[non_exhaustive]
    pub struct Stats {
        /// Segments allocated from the system (cache misses included the
        /// first time a segment is created).
        segments_allocated: sum => "segments",
        /// Slot capacity of all segments ever allocated — the paper's
        /// "allocates less memory" measurements for stacks. Every slot of a
        /// fresh segment is initialised, so this is also the slots written
        /// to set segments up.
        segment_slots_allocated: sum => _,
        /// Fresh-segment requests satisfied by the segment cache (§3.2).
        cache_hits: sum => "segment-cache-hits",
        /// Segments returned to the cache.
        cache_returns: sum => _,
        /// Multi-shot captures performed (`call/cc`).
        captures_multi: sum,
        /// One-shot captures performed (`call/1cc`).
        captures_one: sum,
        /// Empty-stack captures that reused the link instead of allocating
        /// a continuation (the proper-tail-recursion rule of §3.2).
        captures_empty: sum => _,
        /// Multi-shot reinstatements (copying).
        reinstates_multi: sum,
        /// One-shot reinstatements (O(1) segment swap).
        reinstates_one: sum,
        /// Slots copied by multi-shot reinstatement, overflow hysteresis,
        /// and splitting combined — the copying overhead the one-shot
        /// mechanism eliminates.
        slots_copied: sum,
        /// Continuation splits performed to honour the copy bound.
        splits: sum => _,
        /// One-shot continuations promoted to multi-shot status (§3.3).
        promotions: sum,
        /// Continuation-chain links walked during promotion (measures the
        /// eager-walk cost; stays 0 under `SharedFlag`).
        promotion_steps: sum => _,
        /// Stack overflows handled.
        overflows: sum,
        /// Stack underflows handled (returns through a segment base).
        underflows: sum,
        /// One-shot continuations marked shot.
        shots: sum,
        /// Prompt records pushed (delimited-control boundaries sealed).
        prompts_pushed: sum,
        /// Subcontinuations taken (chain spliced out up to a prompt).
        subconts_taken: sum,
        /// Subcontinuations pushed back (chain spliced into the current
        /// stack).
        subconts_pushed: sum,
        /// Aborts delivered straight to a prompt without materializing the
        /// subcontinuation in between.
        aborts_to_prompt: sum,
        /// Occupied slots placed into subcontinuations by `take_subcont` —
        /// the delimited analogue of a capture's payload. Stolen one-shot
        /// records contribute without copying; promoted records are copied
        /// (and also counted in `slots_copied`).
        subcont_slots: sum,
        /// Total slots encapsulated (owned span, occupied or not) by
        /// explicit one-shot captures — the sealed region a `call/1cc`
        /// renders unusable until the continuation is shot.
        slots_encapsulated: sum,
    }
}

#[cfg(test)]
mod tests {
    crate::counters! {
        #[derive(Debug, Clone, Copy, Default)]
        struct Kinds {
            volume: sum,
            peak: max,
            reading: gauge,
        }
    }

    const EARLY: Kinds = Kinds { volume: 3, peak: 4, reading: 4 };
    const LATE: Kinds = Kinds { volume: 5, peak: 2, reading: 2 };

    #[test]
    fn a_sum_delta_subtracts_saturating_and_plus_adds() {
        assert_eq!(LATE.delta_since(&EARLY).volume, 2);
        assert_eq!(EARLY.delta_since(&LATE).volume, 0, "a backwards delta reads 0");
        assert_eq!(EARLY.plus(&LATE).volume, 8);
    }

    #[test]
    fn a_max_delta_carries_the_later_value_and_plus_takes_the_larger() {
        assert_eq!(LATE.delta_since(&EARLY).peak, 2);
        assert_eq!(EARLY.plus(&LATE).peak, 4);
        assert_eq!(LATE.plus(&EARLY).peak, 4);
    }

    #[test]
    fn a_gauge_carries_the_later_value_both_ways() {
        assert_eq!(LATE.delta_since(&EARLY).reading, 2);
        assert_eq!(EARLY.plus(&LATE).reading, 2);
        assert_eq!(LATE.plus(&EARLY).reading, 4);
    }

    #[test]
    fn fields_and_visit_follow_the_declaration() {
        let mut seen = Vec::new();
        EARLY.visit(&mut |f, v| seen.push((f.name, f.kind, v)));
        assert_eq!(seen, [("volume", "sum", 3), ("peak", "max", 4), ("reading", "gauge", 4)]);
        assert_eq!(Kinds::FIELDS.len(), seen.len());
    }
}
