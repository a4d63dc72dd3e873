//! The stack slot type.

use oneshot_runtime::Value;

/// What a staged builtin resumes into when control returns to it.
///
/// Multi-step builtins (`dynamic-wind`, `call-with-values`, `%push-prompt`
/// and the winder walk every control transfer shares) call back into
/// Scheme; the frame slot below the callee holds one of these instead of a
/// normal return address, and the VM dispatches to the builtin's next
/// stage when the callee returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// `dynamic-wind`: after `before` returned — push the winder and call
    /// the thunk.
    WindBody,
    /// `dynamic-wind`: after the thunk returned — pop the winder, stash the
    /// result, call `after`.
    WindAfter,
    /// `dynamic-wind`: after `after` returned — restore the stashed result
    /// and return.
    WindDone,
    /// `call-with-values`: the producer returned — apply the consumer to
    /// its values.
    CwvConsume,
    /// `%push-prompt`: the delimited body returned normally — deliver its
    /// value through the prompt's continuation.
    PromptReturn,
    /// The winder walk (continuation invocation, `%take-subcont`,
    /// `%push-subcont`, `%abort-to-prompt`): an `after` returned — take the
    /// next step toward the target winder list.
    Unwound,
    /// The winder walk: a `before` returned — enter its winder, then take
    /// the next step.
    Rewound,
}

/// One stack slot.
///
/// Mirrors the paper's frame layout: the base slot of a frame holds the
/// return address; parameter and local slots hold values. The displacement
/// stored in return addresses is the paper's frame-size word (kept in the
/// code stream there, inside the return address here) — it is what lets
/// the runtime walk frames for splitting and overflow hysteresis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// A value.
    Val(Value),
    /// A return address: resume `code` at `pc`, popping the frame by
    /// `disp`; `closure` restores the caller's closure register (it is a
    /// `Value` so the garbage collector traces it with the frame).
    Ret {
        /// Code-object index.
        code: u32,
        /// Absolute index into the VM's flat instruction arena to resume
        /// at (not relative to `code`'s own body).
        pc: u32,
        /// Frame displacement (the paper's frame-size word).
        disp: u32,
        /// The caller's closure, or `Value::UNSPECIFIED`.
        closure: Value,
    },
    /// A staged-builtin resume point (see [`Resume`]).
    Resume {
        /// Which stage to run.
        kind: Resume,
        /// Frame displacement, as for `Ret`.
        disp: u32,
    },
    /// The underflow marker installed at the base slot of every stack
    /// record; returning through it reinstates the link continuation.
    Marker,
}

/// Every overflow, capture copy and reinstatement moves slots: a slot is
/// `Ret`'s three `u32`s, its closure word and the tag, and must not grow.
const _: () = assert!(std::mem::size_of::<Slot>() <= 24, "Slot grew past Ret's packed size");

impl Slot {
    /// The value stored here.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds control data — that would be a compiler or
    /// VM bug, not a user error.
    #[inline]
    pub fn value(&self) -> Value {
        match self {
            Slot::Val(v) => *v,
            other => panic!("expected value slot, found {other:?}"),
        }
    }
}

/// The frame walker for the segmented stack: the displacement carried by
/// return addresses and resume points; `None` for the marker and values.
#[inline]
pub fn slot_disp(s: &Slot) -> Option<usize> {
    match s {
        Slot::Ret { disp, .. } => Some(*disp as usize),
        Slot::Resume { disp, .. } => Some(*disp as usize),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_reads_displacements() {
        let r = Slot::Ret { code: 0, pc: 3, disp: 7, closure: Value::UNSPECIFIED };
        assert_eq!(slot_disp(&r), Some(7));
        let w = Slot::Resume { kind: Resume::CwvConsume, disp: 4 };
        assert_eq!(slot_disp(&w), Some(4));
        assert_eq!(slot_disp(&Slot::Marker), None);
        assert_eq!(slot_disp(&Slot::Val(Value::NIL)), None);
    }

    #[test]
    fn value_accessor() {
        assert_eq!(Slot::Val(Value::fixnum(3)).value(), Value::fixnum(3));
    }
}
