//! The bytecode instruction set and compiled-program containers.
//!
//! The machine is an accumulator machine over the segmented stack: one
//! value register (`acc`), a frame pointer, and frame slots addressed
//! relative to it. Calls follow §3.1 of the paper: the caller stores the
//! return address at a compile-time displacement `disp` above its own
//! frame base, arguments above that, then advances the frame pointer by
//! `disp`; the return point subtracts the same displacement. As in the
//! paper, that frame-size word sits in the code stream just before the
//! return point — it is the `disp` of the call the return address follows
//! (or, for a timer interrupt's frame, derived from the `Entry` it resumes
//! past) — which is what lets the runtime walk, split, and relocate frames.

use std::fmt;

use oneshot_sexp::Datum;

/// Declares the instruction set, once. The [`Op`] enum, [`MNEMONICS`],
/// [`Op::KIND_COUNT`], [`Op::kind_index`], the branch-offset accessors and
/// the tests' `one_of_each` all expand from this table, so a new opcode is
/// one entry: `Variant = "mnemonic";`, with `, branch FIELD` before the
/// semicolon when `FIELD` (`0` in a tuple variant) holds a relative branch
/// offset.
macro_rules! opcodes {
    ($(
        $(#[$doc:meta])*
        $name:ident
        $( ( $tuple:ty ) )?
        $( { $( $(#[$fdoc:meta])* $field:ident : $fty:ty ),+ $(,)? } )?
        = $mnemonic:literal $(, branch $off:tt)? ;
    )+) => {
        /// One bytecode instruction.
        ///
        /// `Op` is a fixed-width word: `Copy`, at most 16 bytes (enforced by a
        /// compile-time assertion below), so the VM's flat code arena can fetch
        /// instructions by value — one bounds-checked load per dispatch, no
        /// per-transfer allocation or reference counting.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $(
                $(#[$doc])*
                $name $( ( $tuple ) )? $( { $( $(#[$fdoc])* $field: $fty ),+ } )?,
            )+
        }

        /// The instruction kinds without their operands, in table order:
        /// a kind's discriminant is its dense index.
        enum Kind {
            $( $name, )+
        }

        /// Mnemonics indexed by [`Op::kind_index`]; `MNEMONICS[op.kind_index()]`
        /// names any instruction.
        pub const MNEMONICS: [&str; Op::KIND_COUNT] = [$( $mnemonic ),+];

        impl Op {
            /// Number of instruction kinds — the length of a per-opcode histogram.
            pub const KIND_COUNT: usize = [$( $mnemonic ),+].len();

            /// A dense index identifying the instruction kind (operands ignored),
            /// in `0..Op::KIND_COUNT`. Histograms index by this; [`MNEMONICS`]
            /// names each index.
            pub fn kind_index(&self) -> usize {
                match self {
                    $( Op::$name { .. } => Kind::$name as usize, )+
                }
            }

            /// The mnemonic for this instruction's kind.
            pub fn mnemonic(&self) -> &'static str {
                MNEMONICS[self.kind_index()]
            }

            /// The relative branch offset carried by this instruction, if it is a
            /// (possibly fused) jump or branch. Offsets are relative to the *next*
            /// instruction.
            pub fn branch_offset(&self) -> Option<i32> {
                match *self {
                    $( $( Op::$name { $off: off, .. } => Some(off), )? )+
                    _ => None,
                }
            }

            /// Replaces the relative branch offset of a jump or branch.
            ///
            /// # Panics
            ///
            /// Panics if the instruction carries no branch offset.
            pub fn set_branch_offset(&mut self, new: i32) {
                match self {
                    $( $( Op::$name { $off: off, .. } => *off = new, )? )+
                    other => panic!("set_branch_offset on non-branch {other:?}"),
                }
            }
        }

        /// One instance of every instruction kind, in `kind_index` order.
        #[cfg(test)]
        fn one_of_each() -> Vec<Op> {
            vec![$(
                Op::$name
                    $( ( <$tuple>::default() ) )?
                    $( { $( $field: <$fty>::default() ),+ } )?,
            )+]
        }
    };
}

opcodes! {
    /// `acc := consts[i]`.
    Const(u32) = "const";
    /// `acc := fixnum(n)` (small-constant fast path).
    FixInt(i32) = "fixint";
    /// `acc := unspecified`.
    Unspec = "unspec";
    /// `acc := slot[fp + i]`.
    LocalRef(u16) = "local-ref";
    /// `slot[fp + i] := acc`.
    LocalSet(u16) = "local-set";
    /// `acc := closure.free[i]`.
    FreeRef(u16) = "free-ref";
    /// `acc := cell(slot[fp + i]).value` (boxed local read).
    CellRefLocal(u16) = "cell-ref-local";
    /// `acc := cell(closure.free[i]).value` (boxed capture read).
    CellRefFree(u16) = "cell-ref-free";
    /// `cell(slot[fp + i]).value := acc`.
    CellSetLocal(u16) = "cell-set-local";
    /// `cell(closure.free[i]).value := acc`.
    CellSetFree(u16) = "cell-set-free";
    /// `slot[fp + i] := new cell(slot[fp + i])` (box a binding).
    MakeCell(u16) = "make-cell";
    /// `acc := globals[i]`; error if undefined.
    GlobalRef(u32) = "global-ref";
    /// `globals[i] := acc`; error if undefined.
    GlobalSet(u32) = "global-set";
    /// `globals[i] := acc`, defining it.
    GlobalDef(u32) = "global-def";
    /// `acc := new closure(codes[i])`, capturing per the target's
    /// free-variable spec.
    Closure(u32) = "closure";
    /// Unconditional relative jump.
    Jump(i32) = "jump", branch 0;
    /// Jump if `acc` is `#f`.
    BranchFalse(i32) = "branch-false", branch 0;
    /// Function prologue: arity check (collecting a rest list if variadic),
    /// stack-overflow check for this code object's maximum frame extent,
    /// GC safe point, and engine-timer tick.
    Entry {
        /// Required parameter count.
        required: u16,
        /// Whether extra arguments are collected into a rest list.
        rest: bool,
        /// Slots the overflow check must find above the frame pointer: the
        /// maximum frame extent plus the return address and one spare.
        /// Filled in when the code is linked; a timer interrupt's frame,
        /// which resumes just past this instruction, is `need - 1` slots.
        need: u32,
    } = "entry";
    /// Call: `slot[fp+disp] := return address; fp += disp; apply(acc, argc)`.
    Call {
        /// Frame displacement (the new frame's base relative to ours).
        disp: u16,
        /// Argument count (arguments sit at `disp+1 ..= disp+argc`).
        argc: u16,
    } = "call";
    /// Tail call: move arguments at `disp+1..` down to `1..`, keep the
    /// current frame's return address, `apply(acc, argc)`.
    TailCall {
        /// Where the argument block was built.
        disp: u16,
        /// Argument count.
        argc: u16,
    } = "tail-call";
    /// Return `acc` through the return address at `slot[fp]`.
    Return = "return";
    // --- inlined primitives (operand slot × accumulator) ---
    /// `acc := slot[fp+i] + acc`.
    Add(u16) = "add";
    /// `acc := slot[fp+i] - acc`.
    Sub(u16) = "sub";
    /// `acc := slot[fp+i] * acc`.
    Mul(u16) = "mul";
    /// `acc := slot[fp+i] < acc`.
    Lt(u16) = "lt";
    /// `acc := slot[fp+i] <= acc`.
    Le(u16) = "le";
    /// `acc := slot[fp+i] > acc`.
    Gt(u16) = "gt";
    /// `acc := slot[fp+i] >= acc`.
    Ge(u16) = "ge";
    /// `acc := slot[fp+i] = acc` (numeric).
    NumEq(u16) = "num-eq";
    /// `acc := cons(slot[fp+i], acc)`.
    Cons(u16) = "cons";
    /// `acc := (eq? slot[fp+i] acc)` (also `eqv?` — values are immediates
    /// or references).
    Eq(u16) = "eq";
    /// `acc := car(acc)`.
    Car = "car";
    /// `acc := cdr(acc)`.
    Cdr = "cdr";
    /// `acc := (null? acc)`.
    NullP = "null?";
    /// `acc := (pair? acc)`.
    PairP = "pair?";
    /// `acc := (not acc)`.
    Not = "not";
    /// `acc := (zero? acc)`.
    ZeroP = "zero?";
    /// `acc := acc + 1`.
    Add1 = "add1";
    /// `acc := acc - 1`.
    Sub1 = "sub1";
    /// `acc := vector-ref(slot[fp+i], acc)`.
    VecRef(u16) = "vec-ref";
    /// `vector-set!(slot[fp+v], slot[fp+i], acc); acc := unspecified`.
    VecSet {
        /// Slot holding the vector.
        v: u16,
        /// Slot holding the index.
        i: u16,
    } = "vec-set";
    // --- fused superinstructions (see `peephole`) ---
    /// `Lt(i); BranchFalse(off)`: `acc := slot[fp+i] < acc`, branch on `#f`.
    BrLt {
        /// Operand slot.
        i: u16,
        /// Relative branch offset (taken when the comparison is false).
        off: i32,
    } = "br-lt", branch off;
    /// `Le(i); BranchFalse(off)` fused.
    BrLe {
        /// Operand slot.
        i: u16,
        /// Relative branch offset.
        off: i32,
    } = "br-le", branch off;
    /// `Gt(i); BranchFalse(off)` fused.
    BrGt {
        /// Operand slot.
        i: u16,
        /// Relative branch offset.
        off: i32,
    } = "br-gt", branch off;
    /// `Ge(i); BranchFalse(off)` fused.
    BrGe {
        /// Operand slot.
        i: u16,
        /// Relative branch offset.
        off: i32,
    } = "br-ge", branch off;
    /// `NumEq(i); BranchFalse(off)` fused.
    BrNumEq {
        /// Operand slot.
        i: u16,
        /// Relative branch offset.
        off: i32,
    } = "br-num-eq", branch off;
    /// `Eq(i); BranchFalse(off)` fused.
    BrEq {
        /// Operand slot.
        i: u16,
        /// Relative branch offset.
        off: i32,
    } = "br-eq", branch off;
    /// `ZeroP; BranchFalse(off)` fused.
    BrZeroP(i32) = "br-zero?", branch 0;
    /// `NullP; BranchFalse(off)` fused.
    BrNullP(i32) = "br-null?", branch 0;
    /// `LocalRef(i); Return` fused: return `slot[fp+i]`.
    ReturnLocal(u16) = "return-local";
    /// `FixInt(n); Add(i)` fused: `acc := slot[fp+i] + n`. Also
    /// `LocalRef(i); Add1` with `n = 1`.
    AddImm {
        /// Operand slot.
        i: u16,
        /// Immediate addend.
        n: i32,
    } = "add-imm";
    /// `FixInt(n); Sub(i)` fused: `acc := slot[fp+i] - n`. Also
    /// `LocalRef(i); Sub1` with `n = 1`.
    SubImm {
        /// Operand slot.
        i: u16,
        /// Immediate subtrahend.
        n: i32,
    } = "sub-imm";
    /// `LocalRef(src); LocalSet(dst)` fused:
    /// `acc := slot[fp+src]; slot[fp+dst] := acc` — the argument-shuffle
    /// move that dominates call-heavy code.
    Move {
        /// Source slot.
        src: u16,
        /// Destination slot.
        dst: u16,
    } = "move";
    /// `Not; BranchFalse(off)` fused: `acc := (not acc)`, branch when the
    /// original accumulator was true (i.e. when the negation is `#f`).
    BrTrue(i32) = "br-true", branch 0;
    /// `FixInt(n); BrLt { i, off }` fused (second fusion generation):
    /// `acc := slot[fp+i] < n`, branch when false — the
    /// compare-against-constant guard of counting recursion.
    BrLtImm {
        /// Operand slot.
        i: u16,
        /// Immediate right-hand side.
        n: i32,
        /// Relative branch offset.
        off: i32,
    } = "br-lt-imm", branch off;
    /// `GlobalRef(g); Call { disp, argc }` fused: call the procedure in
    /// `globals[g]` — the dominant call sequence in recursive code.
    CallGlobal {
        /// Global index of the callee.
        g: u32,
        /// Frame displacement.
        disp: u16,
        /// Argument count.
        argc: u16,
    } = "call-global";
    /// `GlobalRef(g); TailCall { disp, argc }` fused.
    TailCallGlobal {
        /// Global index of the callee.
        g: u32,
        /// Where the argument block was built.
        disp: u16,
        /// Argument count.
        argc: u16,
    } = "tail-call-global";
    // --- the to-slot generation: an argument computed straight into its
    // outgoing frame slot, a compare of two frame slots ---
    /// `FreeRef(src); LocalSet(dst)` fused:
    /// `acc := closure.free[src]; slot[fp+dst] := acc` — [`Op::Move`] for a
    /// captured variable passed as an argument.
    MoveFree {
        /// Capture index.
        src: u16,
        /// Destination slot.
        dst: u16,
    } = "move-free";
    /// `SubImm { i, n }; LocalSet(dst)` fused:
    /// `acc := slot[fp+i] - n; slot[fp+dst] := acc` — the `(- n 1)`
    /// argument of counting recursion. On error `dst` is untouched.
    SubImmTo {
        /// Operand slot.
        i: u16,
        /// Destination slot.
        dst: u16,
        /// Immediate subtrahend.
        n: i32,
    } = "sub-imm-to";
    /// `LocalRef(b); Lt(a)` fused: `acc := slot[fp+a] < slot[fp+b]`.
    LtLL {
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
    } = "lt-ll";
}

// The dispatch loop fetches instructions by value from the flat arena;
// keep them at most two machine words wide.
const _: () = assert!(std::mem::size_of::<Op>() <= 16, "Op must stay within 16 bytes");

/// Where a created closure's captured value comes from, relative to the
/// *creating* context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeSrc {
    /// A slot in the creator's frame.
    Local(u16),
    /// A capture of the creator's own closure.
    Free(u16),
}

/// A compiled procedure body.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeObject {
    /// Diagnostic name.
    pub name: String,
    /// Required parameter count.
    pub required: u16,
    /// Whether extra arguments form a rest list.
    pub rest: bool,
    /// Maximum frame extent in slots (arguments, locals, temporaries, and
    /// outgoing call frames) — the overflow check at [`Op::Entry`] reserves
    /// this much.
    pub frame_slots: u16,
    /// Instructions; index 0 is always [`Op::Entry`].
    pub ops: Vec<Op>,
    /// Constant pool (lowered to runtime values at load time).
    pub consts: Vec<Datum>,
    /// Capture spec: how the creator builds this code's closure.
    pub free_spec: Vec<FreeSrc>,
}

impl fmt::Display for CodeObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "code {:?} required={} rest={} frame={} free={}",
            self.name,
            self.required,
            self.rest,
            self.frame_slots,
            self.free_spec.len()
        )?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  {i:4}: {op:?}")?;
        }
        Ok(())
    }
}

/// A compiled program: code objects plus the global names they reference.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// All code objects; nested lambdas refer to others by index.
    pub codes: Vec<CodeObject>,
    /// Index of the toplevel thunk (zero-argument entry point).
    pub entry: u32,
    /// Global-variable names; `Op::GlobalRef(i)` etc. index this table and
    /// are relinked against the VM's global table at load time.
    pub globals: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_distinct() {
        let all = one_of_each();
        assert_eq!(all.len(), Op::KIND_COUNT, "one_of_each must cover every variant");
        let mut seen = [false; Op::KIND_COUNT];
        for op in &all {
            let k = op.kind_index();
            assert!(k < Op::KIND_COUNT, "{op:?} index {k} out of range");
            assert!(!seen[k], "duplicate kind_index {k} for {op:?}");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&b| b), "kind indices must be dense");
    }

    #[test]
    fn mnemonics_are_exhaustive_and_unique() {
        for op in one_of_each() {
            assert!(!op.mnemonic().is_empty(), "{op:?}");
        }
        let mut names: Vec<&str> = MNEMONICS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::KIND_COUNT, "mnemonics must be unique");
    }

    #[test]
    fn branch_offsets_round_trip() {
        for mut op in one_of_each() {
            // A field named `off` is a branch offset; the table entry must
            // say so, or the peephole would not remap it.
            let has_off_field = format!("{op:?}").contains(" off: ");
            assert!(!has_off_field || op.branch_offset().is_some(), "{op:?} lacks `branch off`");
            if let Some(off) = op.branch_offset() {
                assert_eq!(off, 0);
                op.set_branch_offset(7);
                assert_eq!(op.branch_offset(), Some(7), "{op:?}");
            }
        }
    }

    #[test]
    fn display_lists_ops() {
        let c = CodeObject {
            name: "t".into(),
            required: 0,
            rest: false,
            frame_slots: 4,
            ops: vec![Op::Entry { required: 0, rest: false, need: 0 }, Op::FixInt(1), Op::Return],
            consts: vec![],
            free_spec: vec![],
        };
        let text = c.to_string();
        assert!(text.contains("FixInt(1)"));
        assert!(text.contains("frame=4"));
    }
}
