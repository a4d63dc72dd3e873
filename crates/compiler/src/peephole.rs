//! Peephole superinstruction fusion.
//!
//! Runs after code generation (all branch offsets already patched) and
//! fuses the dominant instruction pairs of the opcode histogram into
//! single superinstructions, halving dispatch cost on the hottest
//! sequences:
//!
//! | pair                         | fused                          |
//! |------------------------------|--------------------------------|
//! | `Lt(i)` … `BranchFalse(off)` | `BrLt { i, off }` (likewise `Le`, `Gt`, `Ge`, `NumEq`, `Eq`) |
//! | `ZeroP` `BranchFalse(off)`   | `BrZeroP(off)` (likewise `NullP`, `Not` → `BrTrue`) |
//! | `LocalRef(i)` `Return`       | `ReturnLocal(i)`               |
//! | `LocalRef(s)` `LocalSet(d)`  | `Move { src, dst }`            |
//! | `FixInt(n)` `Add(i)`         | `AddImm { i, n }` (likewise `Sub`) |
//! | `GlobalRef(g)` `Call{..}`    | `CallGlobal { g, .. }` (likewise `TailCall`) |
//! | `FreeRef(s)` `LocalSet(d)`   | `MoveFree { src, dst }`        |
//! | `LocalRef(i)` `Add1`         | `AddImm { i, n: 1 }` (likewise `Sub1`) |
//! | `LocalRef(b)` `Lt(a)`        | `LtLL { a, b }`                |
//! | `FixInt(n)` `BrLt { i, off }`| `BrLtImm { i, n, off }` (second generation) |
//! | `SubImm { i, n }` `LocalSet(d)` | `SubImmTo { i, dst, n }` (second generation) |
//!
//! The pass runs to a fixpoint, so later-generation pairs — a plain
//! instruction next to a superinstruction produced by the previous pass,
//! like `FixInt` feeding a fused compare-and-branch — fuse too:
//! `LocalRef(1); Sub1; LocalSet(3)`, the `(- n 1)` argument of a call,
//! becomes `SubImmTo { i: 1, dst: 3, n: 1 }` in two passes.
//!
//! A superinstruction is admitted only when it removes at least 2 % of
//! the dynamic instructions of a ledger program (EXPERIMENTS.md as of
//! PR 18, in git history, lists each with the share that admitted it, and
//! the candidates that missed).
//!
//! Every fused form computes exactly what the pair computed — including
//! leaving the same value in the accumulator — so fusion is semantically
//! invisible: results, control events, and `SegStack` counters are
//! identical with and without it (a property test in `oneshot-vm`
//! enforces this).
//!
//! The pass is branch-offset aware: a pair is only fused when no branch
//! targets its second instruction, and all surviving relative offsets are
//! remapped across the removals.

use crate::ops::Op;

/// Fuses adjacent instruction pairs in `ops` until no pair is left,
/// remapping branch offsets. Iterating to a fixpoint lets pairs formed by
/// an earlier pass fuse again (e.g. `FixInt` + `BrLt` → `BrLtImm`).
///
/// `ops` must be a complete, branch-patched code body (index 0 is the
/// `Entry` prologue, which is never part of a pair).
pub fn fuse(ops: &mut Vec<Op>) {
    loop {
        let before = ops.len();
        fuse_once(ops);
        if ops.len() == before {
            return;
        }
    }
}

/// One greedy left-to-right fusion pass.
fn fuse_once(ops: &mut Vec<Op>) {
    let n = ops.len();
    // Indices that are the target of some branch; a pair whose second
    // instruction is a target cannot be fused (the branch would land in
    // the middle of the superinstruction).
    let mut is_target = vec![false; n + 1];
    for (at, op) in ops.iter().enumerate() {
        if let Some(off) = op.branch_offset() {
            let target = (at as i64 + 1 + i64::from(off)) as usize;
            debug_assert!(target <= n, "branch target {target} outside code of length {n}");
            is_target[target] = true;
        }
    }
    // Greedy left-to-right pairing: `fused_with_next[at]` marks the first
    // instruction of a fused pair.
    let mut fused_with_next = vec![false; n];
    let mut at = 0;
    while at + 1 < n {
        if !is_target[at + 1] && fuse_pair(ops[at], ops[at + 1]).is_some() {
            fused_with_next[at] = true;
            at += 2;
        } else {
            at += 1;
        }
    }
    // Old index -> new index (defined for every old index and for `n`, so
    // end-of-code targets survive).
    let mut map = vec![0usize; n + 1];
    let mut new_len = 0;
    let mut at = 0;
    while at < n {
        map[at] = new_len;
        if fused_with_next[at] {
            // The second instruction of a pair maps to the fused slot; no
            // branch targets it (checked above), but a conservative mapping
            // keeps the debug assertion below meaningful.
            map[at + 1] = new_len;
            at += 2;
        } else {
            at += 1;
        }
        new_len += 1;
    }
    map[n] = new_len;
    // Emit, rewriting offsets relative to the new layout.
    let mut out = Vec::with_capacity(new_len);
    let mut at = 0;
    while at < n {
        let mut op = if fused_with_next[at] {
            let fused = fuse_pair(ops[at], ops[at + 1]).expect("pair was checked fusible");
            debug_assert!(
                !is_target[at + 1],
                "branch target lands inside fused pair at {at}: {:?} {:?}",
                ops[at],
                ops[at + 1]
            );
            fused
        } else {
            ops[at]
        };
        let width: usize = if fused_with_next[at] { 2 } else { 1 };
        if let Some(off) = op.branch_offset() {
            let old_target = (at as i64 + width as i64 + i64::from(off)) as usize;
            let new_off = map[old_target] as i64 - (map[at] as i64 + 1);
            op.set_branch_offset(i32::try_from(new_off).expect("offset fits after shrink"));
        }
        out.push(op);
        at += width;
    }
    debug_assert_eq!(out.len(), new_len);
    *ops = out;
}

/// The fused form of an adjacent pair, if one exists. The second
/// instruction's branch offset (when present) is carried through verbatim;
/// [`fuse`] remaps it afterwards.
fn fuse_pair(a: Op, b: Op) -> Option<Op> {
    Some(match (a, b) {
        (Op::Lt(i), Op::BranchFalse(off)) => Op::BrLt { i, off },
        (Op::Le(i), Op::BranchFalse(off)) => Op::BrLe { i, off },
        (Op::Gt(i), Op::BranchFalse(off)) => Op::BrGt { i, off },
        (Op::Ge(i), Op::BranchFalse(off)) => Op::BrGe { i, off },
        (Op::NumEq(i), Op::BranchFalse(off)) => Op::BrNumEq { i, off },
        (Op::Eq(i), Op::BranchFalse(off)) => Op::BrEq { i, off },
        (Op::ZeroP, Op::BranchFalse(off)) => Op::BrZeroP(off),
        (Op::NullP, Op::BranchFalse(off)) => Op::BrNullP(off),
        (Op::LocalRef(i), Op::Return) => Op::ReturnLocal(i),
        (Op::FixInt(n), Op::Add(i)) => Op::AddImm { i, n },
        (Op::FixInt(n), Op::Sub(i)) => Op::SubImm { i, n },
        (Op::LocalRef(src), Op::LocalSet(dst)) => Op::Move { src, dst },
        (Op::FreeRef(src), Op::LocalSet(dst)) => Op::MoveFree { src, dst },
        (Op::Not, Op::BranchFalse(off)) => Op::BrTrue(off),
        (Op::GlobalRef(g), Op::Call { disp, argc }) => Op::CallGlobal { g, disp, argc },
        (Op::GlobalRef(g), Op::TailCall { disp, argc }) => Op::TailCallGlobal { g, disp, argc },
        (Op::LocalRef(i), Op::Add1) => Op::AddImm { i, n: 1 },
        (Op::LocalRef(i), Op::Sub1) => Op::SubImm { i, n: 1 },
        (Op::LocalRef(b), Op::Lt(a)) => Op::LtLL { a, b },
        // Second generation: FixInt feeding a fused compare-and-branch,
        // an immediate subtract stored to its argument slot.
        (Op::FixInt(n), Op::BrLt { i, off }) => Op::BrLtImm { i, n, off },
        (Op::SubImm { i, n }, Op::LocalSet(dst)) => Op::SubImmTo { i, dst, n },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Op {
        Op::Entry { required: 0, rest: false }
    }

    #[test]
    fn compare_branch_pairs_fuse() {
        let mut ops = vec![entry(), Op::Lt(1), Op::BranchFalse(2), Op::FixInt(1), Op::Return];
        fuse(&mut ops);
        assert_eq!(ops[1], Op::BrLt { i: 1, off: 2 });
        assert_eq!(ops.len(), 4);
    }

    #[test]
    fn offsets_crossing_a_fusion_shrink() {
        // BranchFalse at 1 jumps over the fusible pair at 2-3.
        let mut ops = vec![
            entry(),
            Op::BranchFalse(3), // -> index 5 (Unspec)
            Op::LocalRef(1),
            Op::Return,
            Op::Jump(1), // -> index 6 (end)
            Op::Unspec,
            Op::Return,
        ];
        fuse(&mut ops);
        assert_eq!(
            ops,
            vec![
                entry(),
                Op::BranchFalse(2), // -> Unspec, now index 4
                Op::ReturnLocal(1),
                Op::Jump(1), // -> end, now index 5
                Op::Unspec,
                Op::Return,
            ]
        );
    }

    #[test]
    fn branch_into_pair_blocks_fusion() {
        // The Jump targets the Return at index 3 — the second half of what
        // would otherwise fuse into ReturnLocal.
        let mut ops = vec![
            entry(),
            Op::Jump(1), // -> index 3 (Return)
            Op::LocalRef(1),
            Op::Return,
        ];
        let before = ops.clone();
        fuse(&mut ops);
        assert_eq!(ops, before, "fusion must not swallow a branch target");
    }

    #[test]
    fn immediate_arithmetic_fuses() {
        let mut ops =
            vec![entry(), Op::FixInt(5), Op::Add(2), Op::FixInt(3), Op::Sub(2), Op::Return];
        fuse(&mut ops);
        assert_eq!(ops[1], Op::AddImm { i: 2, n: 5 });
        assert_eq!(ops[2], Op::SubImm { i: 2, n: 3 });
    }

    #[test]
    fn zero_and_null_tests_fuse() {
        let mut ops = vec![
            entry(),
            Op::ZeroP,
            Op::BranchFalse(1),
            Op::Return,
            Op::NullP,
            Op::BranchFalse(0),
            Op::Return,
        ];
        fuse(&mut ops);
        assert!(ops.contains(&Op::BrZeroP(1)));
        assert!(ops.contains(&Op::BrNullP(0)));
    }

    #[test]
    fn moves_and_negated_branches_fuse() {
        // The ctak-aux shape: argument shuffles plus (not (< y x)).
        let mut ops = vec![
            entry(),
            Op::LocalRef(3),
            Op::LocalSet(5),
            Op::LocalRef(2),
            Op::Lt(5),
            Op::Not,
            Op::BranchFalse(2),
            Op::LocalRef(4),
            Op::LocalSet(6),
            Op::Return,
        ];
        fuse(&mut ops);
        assert_eq!(
            ops,
            vec![
                entry(),
                Op::Move { src: 3, dst: 5 },
                Op::LtLL { a: 5, b: 2 },
                Op::BrTrue(1), // -> Return, shrunk past the fused move
                Op::Move { src: 4, dst: 6 },
                Op::Return,
            ]
        );
    }

    /// The operand-direct and to-slot pairs, each as `(first, second,
    /// fused)`.
    fn to_slot_pairs() -> [(Op, Op, Op); 5] {
        [
            (Op::LocalRef(3), Op::Add1, Op::AddImm { i: 3, n: 1 }),
            (Op::LocalRef(3), Op::Sub1, Op::SubImm { i: 3, n: 1 }),
            (Op::LocalRef(2), Op::Lt(1), Op::LtLL { a: 1, b: 2 }),
            (Op::FreeRef(0), Op::LocalSet(4), Op::MoveFree { src: 0, dst: 4 }),
            (Op::SubImm { i: 1, n: 2 }, Op::LocalSet(4), Op::SubImmTo { i: 1, dst: 4, n: 2 }),
        ]
    }

    #[test]
    fn operand_direct_and_to_slot_pairs_fuse() {
        for (a, b, fused) in to_slot_pairs() {
            let mut ops = vec![entry(), a, b, Op::Return];
            fuse(&mut ops);
            assert_eq!(ops, vec![entry(), fused, Op::Return], "{a:?}; {b:?}");
        }
    }

    #[test]
    fn a_branch_to_the_second_instruction_blocks_each_new_pair() {
        for (a, b, _) in to_slot_pairs() {
            // The Jump lands on `b`: the pair must stay two instructions.
            let mut ops = vec![entry(), Op::Jump(1), a, b, Op::Return];
            let before = ops.clone();
            fuse(&mut ops);
            assert_eq!(ops, before, "{a:?}; {b:?}");
        }
    }

    #[test]
    fn offsets_crossing_a_three_generation_fusion_still_land() {
        // `(- n 1)` as an argument: LocalRef; Sub1 fuse, then take the
        // store; `(- n 2)`: FixInt; Sub fuse, then take the store. One
        // branch jumps forward over both, one backward over both.
        let mut ops = vec![
            entry(),
            Op::BranchFalse(7), // -> index 9 (Unspec)
            Op::LocalRef(1),
            Op::Sub1,
            Op::LocalSet(3),
            Op::FixInt(2),
            Op::Sub(1),
            Op::LocalSet(4),
            Op::Return,
            Op::Unspec,
            Op::Jump(-9), // -> index 2 (LocalRef)
        ];
        fuse(&mut ops);
        assert_eq!(
            ops,
            vec![
                entry(),
                Op::BranchFalse(3), // -> Unspec, now index 5
                Op::SubImmTo { i: 1, dst: 3, n: 1 },
                Op::SubImmTo { i: 1, dst: 4, n: 2 },
                Op::Return,
                Op::Unspec,
                Op::Jump(-5), // -> the first SubImmTo, index 2
            ]
        );
    }

    #[test]
    fn global_calls_fuse() {
        let mut ops = vec![
            entry(),
            Op::GlobalRef(3),
            Op::Call { disp: 4, argc: 2 },
            Op::GlobalRef(1),
            Op::TailCall { disp: 4, argc: 1 },
        ];
        fuse(&mut ops);
        assert_eq!(
            ops,
            vec![
                entry(),
                Op::CallGlobal { g: 3, disp: 4, argc: 2 },
                Op::TailCallGlobal { g: 1, disp: 4, argc: 1 },
            ]
        );
    }

    #[test]
    fn second_generation_compare_immediate_fuses() {
        // The fib guard: (< n 2) compiles to FixInt(2); Lt(i); BranchFalse.
        // Pass one forms BrLt; the fixpoint pass folds the immediate in.
        let mut ops = vec![
            entry(),
            Op::FixInt(2),
            Op::Lt(2),
            Op::BranchFalse(1),
            Op::ReturnLocal(1),
            Op::Return,
        ];
        fuse(&mut ops);
        assert_eq!(
            ops,
            vec![entry(), Op::BrLtImm { i: 2, n: 2, off: 1 }, Op::ReturnLocal(1), Op::Return,]
        );
    }

    #[test]
    fn end_of_code_targets_survive() {
        // BranchFalse targeting one past the last instruction.
        let mut ops = vec![entry(), Op::LocalRef(1), Op::Return, Op::BranchFalse(0)];
        fuse(&mut ops);
        assert_eq!(ops, vec![entry(), Op::ReturnLocal(1), Op::BranchFalse(0)]);
    }

    #[test]
    fn greedy_pairing_does_not_overlap() {
        // Lt; BranchFalse; Return — the BranchFalse belongs to the Lt pair,
        // so Return stays unfused (no LocalRef anyway); then
        // LocalRef; Return fuses independently.
        let mut ops = vec![entry(), Op::Lt(1), Op::BranchFalse(1), Op::LocalRef(2), Op::Return];
        fuse(&mut ops);
        assert_eq!(ops, vec![entry(), Op::BrLt { i: 1, off: 1 }, Op::LocalRef(2), Op::Return]);
    }
}
