//! Static analyses over the core AST: assignment analysis (which variables
//! are `set!` targets and must be boxed into cells) and free-variable
//! analysis (which variables a lambda captures).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use crate::ast::{Expr, Lambda, VarId};

/// All lexical variables that are targets of `set!` anywhere in `forms`.
///
/// These are boxed (assignment conversion): their binding sites allocate a
/// cell, references read through it, assignments write through it. This
/// keeps the flat-closure representation sound in the presence of shared
/// mutable captures.
pub fn mutated_vars(forms: &[Expr]) -> HashSet<VarId> {
    let mut out = HashSet::new();
    for f in forms {
        collect_mutated(f, &mut out);
    }
    out
}

fn collect_mutated(e: &Expr, out: &mut HashSet<VarId>) {
    match e {
        Expr::Quote(_) | Expr::Unspecified | Expr::Ref(_) | Expr::GlobalRef(_) => {}
        Expr::Set(v, rhs) => {
            out.insert(*v);
            collect_mutated(rhs, out);
        }
        Expr::GlobalSet(_, rhs) | Expr::GlobalDef(_, rhs) => collect_mutated(rhs, out),
        Expr::If(c, t, f) => {
            collect_mutated(c, out);
            collect_mutated(t, out);
            collect_mutated(f, out);
        }
        Expr::Lambda(l) => collect_mutated(&l.body, out),
        Expr::Let(bindings, body) => {
            for (_, init) in bindings {
                collect_mutated(init, out);
            }
            collect_mutated(body, out);
        }
        Expr::Seq(es) => {
            for x in es {
                collect_mutated(x, out);
            }
        }
        Expr::App(f, args) => {
            collect_mutated(f, out);
            for a in args {
                collect_mutated(a, out);
            }
        }
    }
}

/// The free lexical variables of every lambda in a program, each list in
/// ascending [`VarId`] order, keyed by the lambda's address.
pub(crate) struct FreeVars(HashMap<*const Lambda, Vec<VarId>>);

impl FreeVars {
    /// The free variables of `l`, a lambda of the analysed program.
    pub(crate) fn of(&self, l: &Rc<Lambda>) -> &[VarId] {
        &self.0[&Rc::as_ptr(l)]
    }
}

/// Computes the free variables of every lambda in `forms` in one
/// bottom-up walk: a nested lambda contributes the set already computed
/// for it instead of being walked again, so the cost is linear in the
/// program however deeply lambdas nest (CPS nests one per call).
pub(crate) fn free_vars(forms: &[Expr]) -> FreeVars {
    let mut all = FreeVars(HashMap::new());
    let (mut bound, mut free) = (HashSet::new(), BTreeSet::new());
    for f in forms {
        collect_free(f, &mut bound, &mut free, &mut all);
    }
    all
}

/// `l`'s free variables, computed on first sight.
fn lambda_free<'a>(l: &Rc<Lambda>, all: &'a mut FreeVars) -> &'a [VarId] {
    let key = Rc::as_ptr(l);
    if !all.0.contains_key(&key) {
        let mut bound: HashSet<VarId> = l.params.iter().copied().collect();
        bound.extend(l.rest);
        let mut free = BTreeSet::new();
        collect_free(&l.body, &mut bound, &mut free, all);
        all.0.insert(key, free.into_iter().collect());
    }
    &all.0[&key]
}

fn collect_free(
    e: &Expr,
    bound: &mut HashSet<VarId>,
    free: &mut BTreeSet<VarId>,
    all: &mut FreeVars,
) {
    match e {
        Expr::Quote(_) | Expr::Unspecified | Expr::GlobalRef(_) => {}
        Expr::Ref(v) => {
            if !bound.contains(v) {
                free.insert(*v);
            }
        }
        Expr::Set(v, rhs) => {
            if !bound.contains(v) {
                free.insert(*v);
            }
            collect_free(rhs, bound, free, all);
        }
        Expr::GlobalSet(_, rhs) | Expr::GlobalDef(_, rhs) => collect_free(rhs, bound, free, all),
        Expr::If(c, t, f) => {
            collect_free(c, bound, free, all);
            collect_free(t, bound, free, all);
            collect_free(f, bound, free, all);
        }
        Expr::Lambda(l) => {
            // Variables free in a nested lambda and not bound here are free
            // here too.
            for v in lambda_free(l, all) {
                if !bound.contains(v) {
                    free.insert(*v);
                }
            }
        }
        Expr::Let(bindings, body) => {
            for (_, init) in bindings {
                collect_free(init, bound, free, all);
            }
            let newly: Vec<VarId> =
                bindings.iter().map(|(v, _)| *v).filter(|v| bound.insert(*v)).collect();
            collect_free(body, bound, free, all);
            for v in newly {
                bound.remove(&v);
            }
        }
        Expr::Seq(es) => {
            for x in es {
                collect_free(x, bound, free, all);
            }
        }
        Expr::App(f, args) => {
            collect_free(f, bound, free, all);
            for a in args {
                collect_free(a, bound, free, all);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cps::cps_convert;
    use crate::expand::expand_program;
    use oneshot_sexp::{read_all, Datum};
    use proptest::prelude::*;
    use proptest::test_runner::run;

    fn expand(src: &str) -> Vec<Expr> {
        expand_program(&read_all(src).unwrap()).unwrap().forms
    }

    /// The free variables of a lambda by a top-down walk that re-walks
    /// every nested lambda: the definition [`free_vars`] must agree with.
    fn reference(l: &Lambda) -> Vec<VarId> {
        fn walk(e: &Expr, bound: &mut HashSet<VarId>, free: &mut BTreeSet<VarId>) {
            match e {
                Expr::Quote(_) | Expr::Unspecified | Expr::GlobalRef(_) => {}
                Expr::Ref(v) => {
                    if !bound.contains(v) {
                        free.insert(*v);
                    }
                }
                Expr::Set(v, rhs) => {
                    if !bound.contains(v) {
                        free.insert(*v);
                    }
                    walk(rhs, bound, free);
                }
                Expr::GlobalSet(_, rhs) | Expr::GlobalDef(_, rhs) => walk(rhs, bound, free),
                Expr::If(c, t, f) => {
                    walk(c, bound, free);
                    walk(t, bound, free);
                    walk(f, bound, free);
                }
                Expr::Lambda(l) => {
                    for v in reference(l) {
                        if !bound.contains(&v) {
                            free.insert(v);
                        }
                    }
                }
                Expr::Let(bindings, body) => {
                    for (_, init) in bindings {
                        walk(init, bound, free);
                    }
                    let newly: Vec<VarId> =
                        bindings.iter().map(|(v, _)| *v).filter(|v| bound.insert(*v)).collect();
                    walk(body, bound, free);
                    for v in newly {
                        bound.remove(&v);
                    }
                }
                Expr::Seq(es) => {
                    for x in es {
                        walk(x, bound, free);
                    }
                }
                Expr::App(f, args) => {
                    walk(f, bound, free);
                    for a in args {
                        walk(a, bound, free);
                    }
                }
            }
        }
        let mut bound: HashSet<VarId> = l.params.iter().copied().collect();
        bound.extend(l.rest);
        let mut free = BTreeSet::new();
        walk(&l.body, &mut bound, &mut free);
        free.into_iter().collect()
    }

    /// Every lambda in `e`, outermost first.
    fn lambdas<'a>(e: &'a Expr, out: &mut Vec<&'a Rc<Lambda>>) {
        match e {
            Expr::Quote(_) | Expr::Unspecified | Expr::Ref(_) | Expr::GlobalRef(_) => {}
            Expr::Set(_, x) | Expr::GlobalSet(_, x) | Expr::GlobalDef(_, x) => lambdas(x, out),
            Expr::If(a, b, c) => {
                lambdas(a, out);
                lambdas(b, out);
                lambdas(c, out);
            }
            Expr::Lambda(l) => {
                out.push(l);
                lambdas(&l.body, out);
            }
            Expr::Let(bs, body) => {
                bs.iter().for_each(|(_, init)| lambdas(init, out));
                lambdas(body, out);
            }
            Expr::Seq(es) => es.iter().for_each(|x| lambdas(x, out)),
            Expr::App(f, args) => {
                lambdas(f, out);
                args.iter().for_each(|x| lambdas(x, out));
            }
        }
    }

    #[test]
    fn set_targets_are_mutated() {
        let forms = expand("(lambda (x y) (set! x 1) y)");
        let m = mutated_vars(&forms);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn free_vars_cross_lambda_boundaries() {
        let forms = expand("(lambda (x) (lambda (y) (x y)))");
        let all = free_vars(&forms);
        let Expr::Lambda(outer) = &forms[0] else { panic!() };
        assert!(all.of(outer).is_empty());
        let Expr::Lambda(inner) = &outer.body else { panic!() };
        assert_eq!(all.of(inner), [outer.params[0]]);
    }

    #[test]
    fn let_bindings_are_not_free_in_body() {
        let forms = expand("(lambda (x) (let ((y x)) (lambda () y)))");
        let all = free_vars(&forms);
        let Expr::Lambda(outer) = &forms[0] else { panic!() };
        assert!(all.of(outer).is_empty());
        let Expr::Let(bindings, body) = &outer.body else { panic!() };
        let Expr::Lambda(inner) = &**body else { panic!() };
        assert_eq!(all.of(inner), [bindings[0].0]);
    }

    #[test]
    fn set_of_free_var_is_free() {
        let forms = expand("(lambda (x) (lambda () (set! x 1)))");
        let all = free_vars(&forms);
        let Expr::Lambda(outer) = &forms[0] else { panic!() };
        let Expr::Lambda(inner) = &outer.body else { panic!() };
        assert_eq!(all.of(inner), [outer.params[0]]);
    }

    /// Expressions over five names, some bound by the generated binders
    /// and some left global, nesting lambdas, `let`s, `set!`s, `if`s and
    /// calls.
    fn expr() -> impl Strategy<Value = Datum> {
        let name =
            || proptest::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Datum::symbol);
        let sym = |s: &str| Datum::symbol(s);
        let leaf = prop_oneof![3 => name(), 1 => (0i64..3).prop_map(Datum::Fixnum)];
        leaf.prop_recursive(8, 64, 4, move |inner| {
            prop_oneof![
                3 => (proptest::collection::vec(name(), 0..3), inner.clone()).prop_map(move |(ps, body)| {
                    Datum::list([sym("lambda"), Datum::list(ps), body])
                }),
                2 => (name(), inner.clone(), inner.clone()).prop_map(move |(v, init, body)| {
                    Datum::list([sym("let"), Datum::list([Datum::list([v, init])]), body])
                }),
                1 => (name(), inner.clone())
                    .prop_map(move |(v, x)| Datum::list([sym("set!"), v, x])),
                1 => (inner.clone(), inner.clone(), inner.clone())
                    .prop_map(move |(a, b, c)| Datum::list([sym("if"), a, b, c])),
                3 => proptest::collection::vec(inner, 1..4).prop_map(Datum::list),
            ]
        })
    }

    #[test]
    fn bottom_up_free_vars_match_the_reference_on_both_pipelines() {
        let config = ProptestConfig { cases: 256, ..ProptestConfig::default() };
        run(config, (proptest::collection::vec(expr(), 1..4),), |(body,)| {
            let params = Datum::list([Datum::symbol("a"), Datum::symbol("b")]);
            let src = Datum::list([Datum::symbol("lambda"), params].into_iter().chain(body));
            let Ok(program) = expand_program(&[src]) else { return };
            for forms in [program.forms.clone(), cps_convert(program, |_| false).unwrap().forms] {
                let all = free_vars(&forms);
                let mut ls = Vec::new();
                forms.iter().for_each(|f| lambdas(f, &mut ls));
                for l in ls {
                    assert_eq!(all.of(l), reference(l), "{l:?}");
                }
            }
        });
    }
}
