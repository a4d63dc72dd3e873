//! The inline arithmetic and comparison instructions, their fused forms,
//! and the same primitives reached through `apply` must be one function:
//! for every operand class — fixnums out to the 50-bit edges, flonums
//! including NaN, both zeros and the infinities, and non-numbers — they
//! agree on the value, or on the condition kind *and message text*.
//!
//! The dispatch loop takes a both-fixnum fast path inline and sends
//! everything else (overflow, flonums, type errors) to one cold routine;
//! the builtins fold the same routines over their argument lists. This
//! test is what says the fast path, the cold path and the fold did not
//! drift apart.

use oneshot_vm::{CompilerOptions, Value, Vm, VmConfig};
use proptest::prelude::*;

const FIXNUM_MAX: i64 = (1 << 49) - 1;
const FIXNUM_MIN: i64 = -(1 << 49);

/// An operand, as source text that evaluates to it.
fn operand() -> BoxedStrategy<String> {
    let fixnum = prop_oneof![
        proptest::sample::select(vec![
            0,
            1,
            -1,
            2,
            FIXNUM_MAX,
            FIXNUM_MAX - 1,
            FIXNUM_MIN,
            FIXNUM_MIN + 1,
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            1 << 25,
            -(1 << 25),
        ]),
        -100i64..100,
        FIXNUM_MIN..=FIXNUM_MAX,
    ]
    .prop_map(|n| n.to_string());
    let flonum = prop_oneof![
        proptest::sample::select(vec![
            "0.0".to_string(),
            "-0.0".to_string(),
            "1.5".to_string(),
            "-2.25".to_string(),
            "1e100".to_string(),
            "5e-324".to_string(),
            "(/ 1. 0.)".to_string(),
            "(/ -1. 0.)".to_string(),
            "(- (/ 1. 0.) (/ 1. 0.))".to_string(),
        ]),
        (-1.0e6..1.0e6).prop_map(|x: f64| format!("{x:?}")),
    ];
    let other = proptest::sample::select(vec![
        "'a".to_string(),
        "\"s\"".to_string(),
        "#t".to_string(),
        "'()".to_string(),
        "#\\x".to_string(),
        "(list 1)".to_string(),
        "car".to_string(),
    ]);
    prop_oneof![4 => fixnum, 3 => flonum, 1 => other].boxed()
}

/// What an evaluation came to: the written value, or the uncaught
/// condition's kind and message.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Value(String),
    Condition(Option<String>, String),
}

fn outcome(vm: &mut Vm, src: &str) -> Outcome {
    match vm.eval_str(src) {
        Ok(v) => Outcome::Value(vm.write_value(&v)),
        Err(e) => Outcome::Condition(e.condition_kind().map(str::to_string), e.to_string()),
    }
}

/// The two VMs every form is run on: with and without superinstruction
/// fusion, so `(if (< a b) ..)` is `BrLt` on one and `Lt; BranchFalse` on
/// the other, `(+ a 5)` is `AddImm` on one and `FixInt; Add` on the other,
/// `(< a b)` on two locals `LtLL` on one and `LocalRef; Lt` on the other,
/// and the argument `(- a 5)` in `(pass (- a 5))` is `SubImmTo` on one and
/// `FixInt; Sub; LocalSet` on the other.
struct Vms {
    fused: Vm,
    unfused: Vm,
}

impl Vms {
    fn new() -> Self {
        let unfused = VmConfig { compiler: CompilerOptions { fuse: false }, ..VmConfig::default() };
        let mut vms = Vms { fused: Vm::new(), unfused: Vm::builder().config(unfused).build() };
        // An identity to pass arguments to: an argument is computed
        // straight into its outgoing frame slot (the to-slot forms).
        vms.both("(define (pass x) x)");
        vms
    }

    /// Runs `src` on both VMs; they must agree exactly. Returns the
    /// shared outcome.
    fn both(&mut self, src: &str) -> Outcome {
        let f = outcome(&mut self.fused, src);
        let u = outcome(&mut self.unfused, src);
        assert_eq!(f, u, "fused and unfused disagree on {src}");
        f
    }
}

/// `apply` folds `+` from an exact zero, so `(apply + (list -0.0 -0.0))`
/// is `0.0` where the two-operand instruction gives `-0.0`; the two are
/// `=`. That one sign is the only licence taken here.
fn modulo_zero_sign(o: Outcome) -> Outcome {
    match o {
        Outcome::Value(s) if s == "-0.0" => Outcome::Value("0.0".into()),
        other => other,
    }
}

const BINARY: [&str; 8] = ["+", "-", "*", "<", "<=", ">", ">=", "="];

fn check_binary(vms: &mut Vms, op: &str, a: &str, b: &str) {
    // The instruction: operands in a slot and the accumulator.
    let inline = vms.both(&format!("((lambda (a b) ({op} a b)) {a} {b})"));
    // Feeding a branch: the fused compare-and-branch forms.
    let truth = |o: &Outcome| match o {
        Outcome::Value(s) if s == "#f" => Outcome::Value("no".into()),
        Outcome::Value(_) => Outcome::Value("yes".into()),
        c => c.clone(),
    };
    let branched = vms.both(&format!("((lambda (a b) (if ({op} a b) 'yes 'no)) {a} {b})"));
    assert_eq!(branched, truth(&inline), "({op} {a} {b}) under `if`");
    // With an immediate right-hand side (`AddImm`, `SubImm`, `BrLtImm`),
    // when the operand is a literal the compiler can embed.
    if b.parse::<i32>().is_ok() {
        let imm = vms.both(&format!("((lambda (a) ({op} a {b})) {a})"));
        assert_eq!(imm, inline, "({op} {a} {b}) with an immediate");
        let imm_branched = vms.both(&format!("((lambda (a) (if ({op} a {b}) 'yes 'no)) {a})"));
        assert_eq!(imm_branched, truth(&inline), "({op} {a} {b}) immediate under `if`");
        // ... and computed into an argument slot (`SubImmTo`; `AddImm`
        // then its store).
        let to_slot = vms.both(&format!("((lambda (a) (pass ({op} a {b}))) {a})"));
        assert_eq!(to_slot, inline, "({op} {a} {b}) as an argument");
    }
    // The same primitive as a procedure value.
    let applied = vms.both(&format!("(apply {op} (list {a} {b}))"));
    assert_eq!(
        modulo_zero_sign(applied),
        modulo_zero_sign(inline),
        "({op} {a} {b}) inline against apply"
    );
}

fn check_unary(vms: &mut Vms, a: &str) {
    // add1 / sub1 are how the compiler spells `(+ e 1)` / `(- e 1)`.
    for (inline_form, applied_form) in [
        (format!("((lambda (a) (+ a 1)) {a})"), format!("(apply + (list {a} 1))")),
        (format!("((lambda (a) (- a 1)) {a})"), format!("(apply - (list {a} 1))")),
        // On the accumulator (`Add1`/`Sub1`) rather than a local.
        (format!("((lambda (a) (+ (pass a) 1)) {a})"), format!("(apply + (list {a} 1))")),
        (format!("((lambda (a) (- (pass a) 1)) {a})"), format!("(apply - (list {a} 1))")),
        // As an argument: `SubImmTo { n: 1 }`, `AddImm { n: 1 }` and a store.
        (format!("((lambda (a) (pass (+ a 1))) {a})"), format!("(apply + (list {a} 1))")),
        (format!("((lambda (a) (pass (- a 1))) {a})"), format!("(apply - (list {a} 1))")),
        (format!("((lambda (a) (zero? a)) {a})"), format!("(apply zero? (list {a}))")),
    ] {
        let inline = vms.both(&inline_form);
        let applied = vms.both(&applied_form);
        assert_eq!(modulo_zero_sign(applied), modulo_zero_sign(inline.clone()), "{inline_form}");
    }
    let z = vms.both(&format!("((lambda (a) (zero? a)) {a})"));
    let zb = vms.both(&format!("((lambda (a) (if (zero? a) #t #f)) {a})"));
    assert_eq!(zb, z, "(zero? {a}) under `if`");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn inline_fused_and_applied_arithmetic_agree(
        pairs in proptest::collection::vec((operand(), operand()), 1..12),
    ) {
        let mut vms = Vms::new();
        for (a, b) in &pairs {
            for op in BINARY {
                check_binary(&mut vms, op, a, b);
            }
            check_unary(&mut vms, a);
        }
    }
}

/// The edges, exhaustively: every pair from a fixed set that spans the
/// classes, through every operator and form.
#[test]
fn edge_operands_agree_across_forms() {
    let edges = [
        "0",
        "1",
        "-1",
        &FIXNUM_MAX.to_string(),
        &(FIXNUM_MAX - 1).to_string(),
        &FIXNUM_MIN.to_string(),
        &(FIXNUM_MIN + 1).to_string(),
        "0.0",
        "-0.0",
        "2.5",
        "(/ 1. 0.)",
        "(/ -1. 0.)",
        "(- (/ 1. 0.) (/ 1. 0.))",
        "'a",
        "\"s\"",
    ];
    let mut vms = Vms::new();
    for a in edges {
        for b in edges {
            for op in BINARY {
                check_binary(&mut vms, op, a, b);
            }
        }
        check_unary(&mut vms, a);
    }
}

#[test]
fn fixnum_overflow_is_still_a_catchable_error_naming_the_operator() {
    let mut vm = Vm::new();
    let max = FIXNUM_MAX;
    let min = FIXNUM_MIN;
    for (expr, op) in [
        (format!("((lambda (a b) (+ a b)) {max} 1)"), "+"),
        (format!("((lambda (a b) (- a b)) {min} 1)"), "-"),
        (format!("((lambda (a b) (* a b)) {max} 2)"), "*"),
        (format!("((lambda (a b) (* a b)) {max} {max})"), "*"),
        (format!("((lambda (a) (+ a 1)) {max})"), "+"),
        (format!("((lambda (a) (- a 1)) {min})"), "-"),
        (format!("((lambda (a) (+ a 7)) {max})"), "+"),
        (format!("((lambda (a) (- a 7)) {min})"), "-"),
        (format!("((lambda (a) (list (- a 1))) {min})"), "-"),
        (format!("((lambda (a) (list (- a 7))) {min})"), "-"),
        (format!("((lambda (a) (list (+ a 1))) {max})"), "+"),
        (format!("(apply + (list {max} 1))"), "+"),
        (format!("(apply * (list {min} -1))"), "*"),
    ] {
        let caught = vm
            .eval_str(&format!("(call-with-guard (lambda (c) c) (lambda () {expr}))"))
            .unwrap_or_else(|e| panic!("{expr}: not caught: {e}"));
        assert_eq!(
            vm.write_value(&caught),
            format!("(error . \"fixnum overflow in {op}\")"),
            "{expr}"
        );
    }
    // One step inside the range is not an overflow.
    let v = vm.eval_str(&format!("((lambda (a) (+ a 1)) {})", max - 1)).unwrap();
    assert_eq!(v, Value::fixnum(max));
    let v = vm.eval_str(&format!("((lambda (a) (- a 1)) {})", min + 1)).unwrap();
    assert_eq!(v, Value::fixnum(min));
}
