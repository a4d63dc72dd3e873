//! Continuation-passing-style conversion.
//!
//! Converts an expanded program so that every user-procedure call passes an
//! explicit continuation closure as its first argument and every call is a
//! tail call. Control context then lives entirely in heap-allocated
//! closures — the representation Appel and MacQueen's SML/NJ uses and the
//! baseline the paper compares against (§4's CPS thread system, §5's
//! Appel–Shao closure-overhead discussion).
//!
//! The converter holds no list of builtins: the caller passes a
//! direct-call test, and a global it accepts is called without a
//! continuation, unless the program defines or assigns the name
//! ([`Program::defined_globals`]). The VM's test accepts every row of its
//! builtin table except the ones its CPS prelude redefines in hand-written
//! CPS form: the control operators (`call/cc`, `apply`, `values`, ...).
//!
//! The converter is the standard one-pass higher-order transform:
//! continuations are either atoms (variables) duplicated freely, or Rust
//! closures inlined at their single use; `if` with a non-atomic
//! continuation reifies it as a join-point lambda — one of the closure
//! allocations the direct-style compiler never performs.
//!
//! Each call in a body or an argument list nests the rest of it inside its
//! continuation, so the converted program is as deep as the source is
//! long, and every pass after this one recurses that deep. The converter
//! refuses a program whose continuations would nest deeper than twice
//! [`MAX_NESTING`] (the expander already holds the source's own nesting to
//! `MAX_NESTING`), which bounds the native stack those passes use.

use std::collections::HashSet;
use std::rc::Rc;
use std::vec;

use oneshot_sexp::{Datum, MAX_NESTING};

use crate::ast::{Expr, Lambda, Program, VarId};
use crate::expand::CompileError;

/// The deepest nesting of continuations the converter builds: calls in
/// one body or argument list, plus the source's own nesting. A program
/// twice this deep still compiles and runs on a 2 MiB thread in a release
/// build, whatever its shape (calls in a `begin`, a `let`, a builtin's or a
/// procedure's argument list).
const MAX_DEPTH: usize = 2 * MAX_NESTING;

/// Converts `program` to continuation-passing style. A call to a global
/// that `direct` accepts, and the program neither defines nor assigns,
/// stays a direct call without a continuation argument.
///
/// The toplevel forms are chained through one continuation (a single
/// `Seq`), so a continuation captured in one form resumes the rest of the
/// program exactly as it does under the direct pipeline, where all forms
/// run inside one toplevel thunk.
///
/// # Errors
///
/// Refuses a program whose conversion would nest continuations deeper
/// than twice [`MAX_NESTING`].
pub fn cps_convert(program: Program, direct: fn(&str) -> bool) -> Result<Program, CompileError> {
    let mut c = Cps {
        next: program.var_count,
        builtin: direct,
        depth: 0,
        too_deep: false,
        defined_globals: program.defined_globals,
    };
    let whole = match program.forms.len() {
        0 => Expr::Unspecified,
        1 => program.forms.into_iter().next().expect("one form"),
        _ => Expr::Seq(program.forms),
    };
    let converted = c.cps(whole, K::Ctx(Box::new(|_, a| a)));
    if c.too_deep {
        return Err(CompileError::new(format!(
            "program too long for the CPS pipeline: its continuations nest deeper than \
             {MAX_DEPTH}"
        )));
    }
    Ok(Program { forms: vec![converted], var_count: c.next, defined_globals: c.defined_globals })
}

struct Cps {
    next: u32,
    /// `cps` calls in progress.
    depth: usize,
    /// Set when a `cps` call would pass [`MAX_DEPTH`]; that call and
    /// every deeper one convert nothing, and the result is refused.
    too_deep: bool,
    /// The caller's direct-call test: is a global a builtin that needs
    /// no continuation?
    builtin: fn(&str) -> bool,
    /// The program's own globals: never called direct-style.
    defined_globals: HashSet<Rc<str>>,
}

type Ctx = Box<dyn FnOnce(&mut Cps, Expr) -> Expr>;
type ListCtx = Box<dyn FnOnce(&mut Cps, Vec<Expr>) -> Expr>;

/// A meta-continuation: what to do with the (atomic) value of the
/// expression being converted.
enum K {
    /// An atomic expression denoting a one-argument continuation
    /// procedure; safe to duplicate.
    Atom(Expr),
    /// A Rust-side context, inlined at its single use site.
    Ctx(Ctx),
}

impl K {
    fn apply(self, c: &mut Cps, v: Expr) -> Expr {
        match self {
            K::Atom(k) => Expr::App(Box::new(k), vec![v]),
            K::Ctx(f) => f(c, v),
        }
    }

    /// An atomic expression for this continuation (reifying contexts as
    /// join-point lambdas).
    fn reify(self, c: &mut Cps) -> Expr {
        match self {
            K::Atom(k) => k,
            K::Ctx(f) => {
                let x = c.fresh();
                Expr::Lambda(Rc::new(Lambda {
                    params: vec![x],
                    rest: None,
                    body: f(c, Expr::Ref(x)),
                    name: Some("%k".into()),
                }))
            }
        }
    }
}

/// Is `e` free of control effects (evaluable without calls)?
fn atomic(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Quote(_) | Expr::Unspecified | Expr::Ref(_) | Expr::GlobalRef(_) | Expr::Lambda(_)
    )
}

impl Cps {
    /// Whether a call to global `name` is a direct builtin call.
    fn direct(&self, name: &str) -> bool {
        (self.builtin)(name) && !self.defined_globals.contains(name)
    }

    fn fresh(&mut self) -> VarId {
        let id = VarId(self.next);
        self.next += 1;
        id
    }

    fn convert_lambda(&mut self, l: Rc<Lambda>) -> Expr {
        // The expander builds every lambda once, so this moves it.
        let Lambda { params: user_params, rest, body, name } = Rc::unwrap_or_clone(l);
        let kv = self.fresh();
        let mut params = Vec::with_capacity(user_params.len() + 1);
        params.push(kv);
        params.extend(user_params);
        let body = self.cps(body, K::Atom(Expr::Ref(kv)));
        Expr::Lambda(Rc::new(Lambda { params, rest, body, name }))
    }

    fn convert_atom(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Lambda(l) => self.convert_lambda(l),
            // A direct builtin escaping as a first-class value must obey
            // the CPS calling convention at its eventual call sites:
            // eta-wrap it as (lambda (k . args) (%apply-args k <f> (list args))).
            Expr::GlobalRef(name) if self.direct(&name) => self.eta_wrap(&name),
            other => other,
        }
    }

    fn eta_wrap(&mut self, name: &Rc<str>) -> Expr {
        let kv = self.fresh();
        let rv = self.fresh();
        let spec = Expr::App(
            Box::new(Expr::GlobalRef(Rc::from("cons"))),
            vec![Expr::Ref(rv), Expr::Quote(Datum::Nil)],
        );
        let body = Expr::App(
            Box::new(Expr::GlobalRef(Rc::from("%apply-args"))),
            vec![Expr::Ref(kv), Expr::GlobalRef(name.clone()), spec],
        );
        Expr::Lambda(Rc::new(Lambda {
            params: vec![kv],
            rest: Some(rv),
            body,
            name: Some(format!("%cps:{name}")),
        }))
    }

    /// Converts `e`, delivering its (atomic) value to `f`.
    fn atomize(&mut self, e: Expr, f: Ctx) -> Expr {
        if atomic(&e) {
            let a = self.convert_atom(e);
            f(self, a)
        } else {
            self.cps(e, K::Ctx(f))
        }
    }

    /// Converts a list of expressions left to right, delivering the atomic
    /// values to `f`. A run of atoms is converted in a loop; each call
    /// nests the rest of the list in its continuation.
    fn atomize_list(
        &mut self,
        mut es: vec::IntoIter<Expr>,
        mut acc: Vec<Expr>,
        f: ListCtx,
    ) -> Expr {
        loop {
            let Some(head) = es.next() else { return f(self, acc) };
            if atomic(&head) {
                acc.push(self.convert_atom(head));
                continue;
            }
            return self.cps(
                head,
                K::Ctx(Box::new(move |c, a| {
                    acc.push(a);
                    c.atomize_list(es, acc, f)
                })),
            );
        }
    }

    /// Converts a body left to right. Atoms before the last form are
    /// converted and dropped in a loop; each call nests the rest of the
    /// body in its continuation.
    fn cps_seq(&mut self, mut es: vec::IntoIter<Expr>, k: K) -> Expr {
        loop {
            let Some(head) = es.next() else { return k.apply(self, Expr::Unspecified) };
            if es.len() == 0 {
                return self.cps(head, k);
            }
            if atomic(&head) {
                self.convert_atom(head);
                continue;
            }
            return self.cps(head, K::Ctx(Box::new(move |c, _discard| c.cps_seq(es, k))));
        }
    }

    /// Converts `e`, delivering its value to `k`, unless that would nest
    /// deeper than [`MAX_DEPTH`].
    fn cps(&mut self, e: Expr, k: K) -> Expr {
        if self.depth == MAX_DEPTH {
            self.too_deep = true;
            return Expr::Unspecified;
        }
        self.depth += 1;
        let converted = self.cps_step(e, k);
        self.depth -= 1;
        converted
    }

    #[allow(clippy::too_many_lines)]
    fn cps_step(&mut self, e: Expr, k: K) -> Expr {
        match e {
            Expr::Quote(_)
            | Expr::Unspecified
            | Expr::Ref(_)
            | Expr::GlobalRef(_)
            | Expr::Lambda(_) => {
                let a = self.convert_atom(e);
                k.apply(self, a)
            }
            Expr::Set(v, rhs) => self.atomize(
                *rhs,
                Box::new(move |c, a| {
                    let assign = Expr::Set(v, Box::new(a));
                    let rest = k.apply(c, Expr::Unspecified);
                    Expr::Seq(vec![assign, rest])
                }),
            ),
            Expr::GlobalSet(name, rhs) => self.atomize(
                *rhs,
                Box::new(move |c, a| {
                    let assign = Expr::GlobalSet(name, Box::new(a));
                    let rest = k.apply(c, Expr::Unspecified);
                    Expr::Seq(vec![assign, rest])
                }),
            ),
            Expr::GlobalDef(name, rhs) => self.atomize(
                *rhs,
                Box::new(move |c, a| {
                    let assign = Expr::GlobalDef(name, Box::new(a));
                    let rest = k.apply(c, Expr::Unspecified);
                    Expr::Seq(vec![assign, rest])
                }),
            ),
            Expr::If(cond, t, f) => {
                // Avoid duplicating non-atomic continuations: bind a join
                // point.
                match k {
                    K::Atom(ka) => {
                        let ka2 = ka.clone();
                        self.atomize(
                            *cond,
                            Box::new(move |c, a| {
                                let tt = c.cps(*t, K::Atom(ka));
                                let ff = c.cps(*f, K::Atom(ka2));
                                Expr::If(Box::new(a), Box::new(tt), Box::new(ff))
                            }),
                        )
                    }
                    ctx @ K::Ctx(_) => {
                        let j = self.fresh();
                        let join = ctx.reify(self);
                        let body = self.cps(Expr::If(cond, t, f), K::Atom(Expr::Ref(j)));
                        Expr::Let(vec![(j, join)], Box::new(body))
                    }
                }
            }
            Expr::Seq(es) => self.cps_seq(es.into_iter(), k),
            Expr::Let(mut bindings, body) => {
                if bindings.is_empty() {
                    return self.cps(*body, k);
                }
                let (v, init) = bindings.remove(0);
                self.atomize(
                    init,
                    Box::new(move |c, a| {
                        let rest = c.cps(Expr::Let(bindings, body), k);
                        Expr::Let(vec![(v, a)], Box::new(rest))
                    }),
                )
            }
            Expr::App(f, args) => {
                // Direct builtins stay direct, but their call is *not* an
                // atom: it must be evaluated at this point in the program,
                // so a context continuation receives it through a binding
                // (otherwise an escaping continuation later in the
                // argument list could reorder or skip its evaluation).
                if let Expr::GlobalRef(name) = &*f {
                    if self.direct(name) {
                        let name = name.clone();
                        return self.atomize_list(
                            args.into_iter(),
                            Vec::new(),
                            Box::new(move |c, atoms| {
                                let call = Expr::App(Box::new(Expr::GlobalRef(name)), atoms);
                                match k {
                                    K::Atom(_) => k.apply(c, call),
                                    K::Ctx(fk) => {
                                        let t = c.fresh();
                                        let body = fk(c, Expr::Ref(t));
                                        Expr::Let(vec![(t, call)], Box::new(body))
                                    }
                                }
                            }),
                        );
                    }
                }
                // General call: (f k a...) in tail position.
                let f = *f;
                self.atomize(
                    f,
                    Box::new(move |c, af| {
                        c.atomize_list(
                            args.into_iter(),
                            Vec::new(),
                            Box::new(move |c, atoms| {
                                let kr = k.reify(c);
                                let mut full = Vec::with_capacity(atoms.len() + 1);
                                full.push(kr);
                                full.extend(atoms);
                                Expr::App(Box::new(af), full)
                            }),
                        )
                    }),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand_program;
    use oneshot_sexp::read_all;

    /// A stand-in for the VM's direct-call test: the builtins these tests
    /// call direct-style (`call/cc` is a control operator).
    fn direct(name: &str) -> bool {
        matches!(name, "+" | "-" | "<" | "cons")
    }

    fn convert(src: &str) -> Program {
        cps_convert(expand_program(&read_all(src).unwrap()).unwrap(), direct).unwrap()
    }

    /// The converted program is one chained form; digs out the first
    /// `GlobalDef`'s value.
    fn first_define(p: &Program) -> &Expr {
        fn find(e: &Expr) -> Option<&Expr> {
            match e {
                Expr::GlobalDef(_, v) => Some(v),
                Expr::Seq(es) => es.iter().find_map(find),
                Expr::Let(bs, body) => bs.iter().find_map(|(_, i)| find(i)).or_else(|| find(body)),
                Expr::App(f, args) => find(f).or_else(|| args.iter().find_map(find)),
                Expr::Lambda(l) => find(&l.body),
                Expr::If(a, b, c) => find(a).or_else(|| find(b)).or_else(|| find(c)),
                _ => None,
            }
        }
        p.forms.iter().find_map(find).expect("a define")
    }

    /// Checks the CPS invariant: every non-builtin application is in tail
    /// position.
    fn check_tail_only(e: &Expr, tail: bool) {
        match e {
            Expr::App(f, args) => {
                let builtin = matches!(&**f, Expr::GlobalRef(n) if direct(n));
                let lambda_app = matches!(&**f, Expr::Lambda(_));
                assert!(
                    builtin || lambda_app || tail,
                    "non-tail general call in CPS output: {e:?}"
                );
                if lambda_app {
                    if let Expr::Lambda(l) = &**f {
                        check_tail_only(&l.body, tail);
                    }
                }
                for a in args {
                    check_tail_only(a, false);
                }
            }
            Expr::Lambda(l) => check_tail_only(&l.body, true),
            Expr::If(c, t, f) => {
                check_tail_only(c, false);
                check_tail_only(t, tail);
                check_tail_only(f, tail);
            }
            Expr::Let(bs, body) => {
                for (_, init) in bs {
                    check_tail_only(init, false);
                }
                check_tail_only(body, tail);
            }
            Expr::Seq(es) => {
                let n = es.len();
                for (i, x) in es.iter().enumerate() {
                    check_tail_only(x, tail && i + 1 == n);
                }
            }
            Expr::Set(_, rhs) | Expr::GlobalSet(_, rhs) | Expr::GlobalDef(_, rhs) => {
                check_tail_only(rhs, false);
            }
            Expr::Quote(_) | Expr::Unspecified | Expr::Ref(_) | Expr::GlobalRef(_) => {}
        }
    }

    #[test]
    fn lambdas_gain_a_continuation_parameter() {
        let p = convert("(define (f x) x)");
        let Expr::Lambda(l) = first_define(&p) else { panic!() };
        assert_eq!(l.params.len(), 2, "k plus x");
        // Body: (k x)
        let Expr::App(f, args) = &l.body else { panic!("{:?}", l.body) };
        assert_eq!(**f, Expr::Ref(l.params[0]));
        assert_eq!(args[0], Expr::Ref(l.params[1]));
    }

    #[test]
    fn all_general_calls_become_tail_calls() {
        let p = convert("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)");
        for form in &p.forms {
            check_tail_only(form, true);
        }
    }

    #[test]
    fn builtins_stay_direct() {
        let p = convert("(define (f x) (cons x 1))");
        let Expr::Lambda(l) = first_define(&p) else { panic!() };
        // Body: (k (cons x 1)) — cons call stays direct inside.
        let Expr::App(_, args) = &l.body else { panic!() };
        assert!(
            matches!(&args[0], Expr::App(f, _) if matches!(&**f, Expr::GlobalRef(n) if &**n == "cons"))
        );
    }

    #[test]
    fn control_operators_are_converted() {
        let p = convert("(define (f g) (call/cc g))");
        let Expr::Lambda(l) = first_define(&p) else { panic!() };
        // call/cc gets the continuation as an explicit argument.
        let Expr::App(f, args) = &l.body else { panic!("{:?}", l.body) };
        assert!(matches!(&**f, Expr::GlobalRef(n) if &**n == "call/cc"));
        assert_eq!(args.len(), 2, "continuation + g");
    }

    #[test]
    fn if_with_context_gets_join_point() {
        let p = convert("(define (f g x) (+ (if x (g 1) 2) 5))");
        for form in &p.forms {
            check_tail_only(form, true);
        }
        // There must be a join-point lambda somewhere.
        fn has_join(e: &Expr) -> bool {
            match e {
                Expr::Lambda(l) => l.name.as_deref() == Some("%k") || has_join(&l.body),
                Expr::Let(bs, body) => bs.iter().any(|(_, i)| has_join(i)) || has_join(body),
                Expr::If(a, b, c) => has_join(a) || has_join(b) || has_join(c),
                Expr::App(f, args) => has_join(f) || args.iter().any(has_join),
                Expr::Seq(es) => es.iter().any(has_join),
                Expr::Set(_, r) | Expr::GlobalSet(_, r) | Expr::GlobalDef(_, r) => has_join(r),
                _ => false,
            }
        }
        assert!(p.forms.iter().any(has_join), "join point expected");
    }

    #[test]
    fn seq_discards_intermediate_values() {
        let p = convert("(define (f g) (g 1) (g 2))");
        for form in &p.forms {
            check_tail_only(form, true);
        }
    }

    #[test]
    fn fresh_vars_do_not_collide() {
        let p = convert("(define (f x) (f (f x)))");
        assert!(p.var_count > 2);
    }
}
