//! The stack slot type.

use oneshot_compiler::Op;
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
/// return address; parameter and local slots hold values. As in §3.1, a
/// return address is only a code position: the frame-size word lives in
/// the code stream, in the instruction just before the return point
/// (`ret_disp`), and it is what lets the runtime walk frames for
/// splitting and overflow hysteresis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// A value.
    Val(Value),
    /// A return address: resume at `pc`, popping the frame by the size
    /// word before it; `closure` restores the caller's closure register
    /// (it is a `Value` so the garbage collector traces it with the frame).
    Ret {
        /// Absolute index into the VM's flat instruction arena to resume
        /// at.
        pc: u32,
        /// The caller's closure, or `Value::UNSPECIFIED`.
        closure: Value,
    },
    /// A staged-builtin resume point (see [`Resume`]).
    Resume {
        /// Which stage to run.
        kind: Resume,
        /// Frame displacement: a builtin's frame has no code stream.
        disp: u32,
    },
    /// The underflow marker installed at the base slot of every stack
    /// record; returning through it reinstates the link continuation.
    Marker,
}

/// Every overflow, capture copy and reinstatement moves slots: a slot is
/// `Ret`'s `pc`, its closure word and the tag, and must not grow.
const _: () = assert!(std::mem::size_of::<Slot>() == 16, "Slot must stay two words");

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

/// The frame-size word of return point `pc` (§3.1), read from the code
/// stream: a return point follows either the `Call`/`CallGlobal` that
/// pushed it, whose displacement is the frame size, or — for a timer
/// interrupt's frame — the `Entry` it resumes past, whose frame is the
/// procedure's extent less the spare slot.
#[inline]
pub(crate) fn ret_disp(flat: &[Op], pc: u32) -> usize {
    match flat[pc as usize - 1] {
        Op::Call { disp, .. } | Op::CallGlobal { disp, .. } => disp.into(),
        Op::Entry { need, .. } => need as usize - 1,
        other => unreachable!("return point after {other:?}"),
    }
}

/// The frame walker for the segmented stack over code arena `flat`: the
/// displacement of a return address or resume point; `None` for the marker
/// and values.
#[inline]
pub(crate) fn slot_disp(flat: &[Op]) -> impl Fn(&Slot) -> Option<usize> + '_ {
    move |s| match *s {
        Slot::Ret { pc, .. } => Some(ret_disp(flat, pc)),
        Slot::Resume { disp, .. } => Some(disp as usize),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_reads_displacements() {
        let flat = [
            Op::Entry { required: 0, rest: false, need: 9 },
            Op::Call { disp: 7, argc: 0 },
            Op::CallGlobal { g: 0, disp: 5, argc: 1 },
        ];
        let (walk, ret) = (slot_disp(&flat), |pc| Slot::Ret { pc, closure: Value::UNSPECIFIED });
        assert_eq!(walk(&ret(1)), Some(8));
        assert_eq!(walk(&ret(2)), Some(7));
        assert_eq!(walk(&ret(3)), Some(5));
        assert_eq!(walk(&Slot::Resume { kind: Resume::CwvConsume, disp: 4 }), Some(4));
        assert_eq!(walk(&Slot::Marker), None);
        assert_eq!(walk(&Slot::Val(Value::NIL)), None);
    }

    #[test]
    fn value_accessor() {
        assert_eq!(Slot::Val(Value::fixnum(3)).value(), Value::fixnum(3));
    }
}
