//! The expander: reader data → core AST.
//!
//! Handles the core forms (`quote`, `if`, `set!`, `lambda`, `begin`,
//! `define`) and lowers the derived forms of R4RS: `let` (plain and named),
//! `let*`, `letrec`, `cond` (including `=>`), `case`, `and`, `or`, `when`,
//! `unless`, `do`, and `quasiquote`/`unquote`/`unquote-splicing` with
//! nesting. Internal defines at the head of a body are lowered to `letrec`
//! semantics. Variables are alpha-renamed to unique [`VarId`]s against a
//! lexical environment, so keywords can be shadowed (`(let ((if list)) (if
//! 1 2 3))` builds a list).
//!
//! Every derived form is lowered once, straight to [`Expr`], from the
//! borrowed source: none is rebuilt as source and expanded again, so a
//! local binding named `if`, `lambda` or `cons` cannot change what `do`,
//! `define` or quasiquote mean. The variables a lowering introduces are
//! bound only by [`VarId`], and the procedures it calls (`memv`, `list`,
//! `append`, `list->vector`) are named by global reference.
//!
//! The expander counts the depth of the tree it builds — one per nested
//! expression, and one per level a folded chain adds (`let*` bindings,
//! `cond`/`case` clauses, `and`/`or` operands) — and refuses a program
//! whose tree would pass [`MAX_NESTING`], so no later pass recurses
//! deeper than that.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use oneshot_sexp::{Datum, MAX_NESTING};

use crate::ast::{Expr, Lambda, Program, VarId};

/// A compile-time error.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Description, including the offending form where helpful.
    pub message: String,
}

impl CompileError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CompileError { message: message.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

type Result<T> = std::result::Result<T, CompileError>;

/// The names the expander treats as syntax unless a lexical binding
/// shadows them.
const KEYWORDS: [&str; 21] = [
    "quote",
    "quasiquote",
    "unquote",
    "unquote-splicing",
    "if",
    "set!",
    "lambda",
    "begin",
    "define",
    "let",
    "let*",
    "letrec",
    "letrec*",
    "cond",
    "case",
    "and",
    "or",
    "when",
    "unless",
    "do",
    "else",
];

/// The end of a vector's elements, as a quasiquoted list's tail.
const NIL: &Datum = &Datum::Nil;

/// Lexical environment: name → variable. Names borrow from the source.
/// An error ends the expansion, so a scope an early return leaves open is
/// never looked up again.
#[derive(Debug, Default)]
struct Env<'d> {
    frames: Vec<HashMap<&'d str, VarId>>,
}

impl<'d> Env<'d> {
    fn lookup(&self, name: &str) -> Option<VarId> {
        self.frames.iter().rev().find_map(|f| f.get(name).copied())
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn bind(&mut self, name: &'d str, id: VarId) {
        self.frames.last_mut().expect("bind outside any scope").insert(name, id);
    }
}

/// The expander state.
struct Expander<'d> {
    env: Env<'d>,
    next_var: u32,
    defined_globals: HashSet<Rc<str>>,
}

/// What a `define` binds its name to.
enum Definiens<'d> {
    /// `(define name)`.
    Unspecified,
    /// `(define name value)`.
    Value(&'d Datum),
    /// `(define (name . formals) body...)`.
    Lambda(&'d Datum, Vec<&'d Datum>),
}

/// Expands a whole program (a sequence of toplevel forms).
///
/// # Errors
///
/// Returns a [`CompileError`] on malformed special forms, misplaced
/// `define`, bad binding syntax, or a program whose expanded tree would
/// nest deeper than [`MAX_NESTING`].
pub fn expand_program(forms: &[Datum]) -> Result<Program> {
    let mut x = Expander { env: Env::default(), next_var: 0, defined_globals: HashSet::new() };
    x.env.push();
    let forms = forms.iter().map(|form| x.toplevel(form, 0)).collect::<Result<_>>()?;
    Ok(Program { forms, var_count: x.next_var, defined_globals: x.defined_globals })
}

fn err(msg: impl Into<String>) -> CompileError {
    CompileError::new(msg)
}

/// `at`, the depth of a node `form` is about to build, unless that passes
/// the bound.
fn within(at: usize, form: &str) -> Result<usize> {
    if at > MAX_NESTING {
        return Err(err(format!("{form}: expands deeper than {MAX_NESTING} levels")));
    }
    Ok(at)
}

/// A call to the global procedure `name`.
fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::App(Box::new(Expr::GlobalRef(Rc::from(name))), args)
}

/// Parses `(define name)`, `(define name value)` or `(define (name .
/// formals) body...)`.
fn parse_define<'d>(items: &[&'d Datum]) -> Result<(&'d str, Definiens<'d>)> {
    match *items {
        [_, Datum::Symbol(name)] => Ok((name.as_str(), Definiens::Unspecified)),
        [_, Datum::Symbol(name), value] => Ok((name.as_str(), Definiens::Value(value))),
        [_, Datum::Pair(header), ref body @ ..] => match &header.0 {
            Datum::Symbol(name) => Ok((name.as_str(), Definiens::Lambda(&header.1, body.to_vec()))),
            _ => Err(err(format!("bad define header: {}", items[1]))),
        },
        _ => Err(err("malformed define")),
    }
}

fn binding_specs(spec: &Datum) -> Result<Vec<(&str, &Datum)>> {
    let Some(pairs) = spec.proper_list() else {
        return Err(err(format!("bad binding list: {spec}")));
    };
    pairs
        .into_iter()
        .map(|b| match b.proper_list().as_deref() {
            Some([Datum::Symbol(n), init]) => Ok((n.as_str(), *init)),
            _ => Err(err(format!("bad binding: {b}"))),
        })
        .collect()
}

/// The operand of `(unquote x)`, `(unquote-splicing x)` or `(quasiquote
/// x)`, with the keyword; `None` when `d` is not headed by one of them.
fn quasi_tag(d: &Datum) -> Option<(&str, Result<&Datum>)> {
    let tag = d.car()?.as_symbol()?;
    if !matches!(tag, "unquote" | "unquote-splicing" | "quasiquote") {
        return None;
    }
    let operand = match d.proper_list().as_deref() {
        Some(&[_, x]) => Ok(x),
        _ => Err(err(format!("malformed {tag}"))),
    };
    Some((tag, operand))
}

/// Attaches `name` to a lambda built a moment ago, for diagnostics.
fn name_lambda(mut e: Expr, name: &str) -> Expr {
    if let Expr::Lambda(lam) = &mut e {
        if let Some(lam) = Rc::get_mut(lam) {
            lam.name.get_or_insert_with(|| name.to_string());
        }
    }
    e
}

impl<'d> Expander<'d> {
    fn fresh(&mut self) -> VarId {
        let id = VarId(self.next_var);
        self.next_var += 1;
        id
    }

    /// A fresh variable, bound to `name` in the innermost scope.
    fn bind(&mut self, name: &'d str) -> VarId {
        let id = self.fresh();
        self.env.bind(name, id);
        id
    }

    /// Is `name` a keyword here (not shadowed by a lexical binding)?
    fn keyword(&self, name: &str) -> bool {
        KEYWORDS.contains(&name) && self.env.lookup(name).is_none()
    }

    /// The items of `d` when it is a `(define ...)` form here.
    fn define_form(&self, d: &'d Datum) -> Option<Vec<&'d Datum>> {
        let items = d.proper_list()?;
        (items.first()?.as_symbol() == Some("define") && self.keyword("define")).then_some(items)
    }

    /// Expands toplevel form `d` into a node at depth `at`.
    fn toplevel(&mut self, d: &'d Datum, at: usize) -> Result<Expr> {
        if let Some(items) = d.proper_list() {
            match items[..] {
                [Datum::Symbol(ref h), ..] if h == "define" && self.keyword("define") => {
                    let (name, value) = parse_define(&items)?;
                    let name_rc: Rc<str> = Rc::from(name);
                    self.defined_globals.insert(Rc::clone(&name_rc));
                    let value = self.definiens(name, value, at + 1)?;
                    return Ok(Expr::GlobalDef(name_rc, Box::new(value)));
                }
                // Toplevel begin splices.
                [Datum::Symbol(ref h), ref forms @ ..] if h == "begin" && self.keyword("begin") => {
                    if forms.is_empty() {
                        return Ok(Expr::unspecified());
                    }
                    let forms = forms.iter().map(|&f| self.toplevel(f, at + 1));
                    return Ok(Expr::Seq(forms.collect::<Result<_>>()?));
                }
                _ => {}
            }
        }
        self.expr(d, at)
    }

    /// Expands what a `define` binds `name` to, at depth `at`.
    fn definiens(&mut self, name: &'d str, value: Definiens<'d>, at: usize) -> Result<Expr> {
        match value {
            Definiens::Unspecified => Ok(Expr::unspecified()),
            Definiens::Value(value) => Ok(name_lambda(self.expr(value, at)?, name)),
            Definiens::Lambda(formals, body) => self.lambda(formals, &body, Some(name), at),
        }
    }

    /// Expands `d` into a node at depth `at`.
    fn expr(&mut self, d: &'d Datum, at: usize) -> Result<Expr> {
        let form = d.car().unwrap_or(d).as_symbol().unwrap_or("expression");
        within(at, form)?;
        match d {
            Datum::Bool(_)
            | Datum::Fixnum(_)
            | Datum::Flonum(_)
            | Datum::Char(_)
            | Datum::Str(_)
            | Datum::Vector(_) => Ok(Expr::Quote(d.clone())),
            Datum::Nil => Err(err("empty application ()")),
            Datum::Symbol(name) => match self.env.lookup(name) {
                Some(v) => Ok(Expr::Ref(v)),
                None => Ok(Expr::GlobalRef(Rc::from(name.as_str()))),
            },
            Datum::Pair(_) => self.form(d, at),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn form(&mut self, d: &'d Datum, at: usize) -> Result<Expr> {
        let Some(items) = d.proper_list() else {
            return Err(err(format!("improper list in expression position: {d}")));
        };
        if let Some(head) = items[0].as_symbol().filter(|h| self.keyword(h)) {
            return match head {
                "quote" => match *items.as_slice() {
                    [_, x] => Ok(Expr::Quote(x.clone())),
                    _ => Err(err("quote takes one operand")),
                },
                "if" => match *items.as_slice() {
                    [_, c, t] => Ok(Expr::If(
                        Box::new(self.expr(c, at + 1)?),
                        Box::new(self.expr(t, at + 1)?),
                        Box::new(Expr::unspecified()),
                    )),
                    [_, c, t, e] => Ok(Expr::If(
                        Box::new(self.expr(c, at + 1)?),
                        Box::new(self.expr(t, at + 1)?),
                        Box::new(self.expr(e, at + 1)?),
                    )),
                    _ => Err(err("malformed if")),
                },
                "set!" => match *items.as_slice() {
                    [_, Datum::Symbol(name), value] => {
                        let value = Box::new(self.expr(value, at + 1)?);
                        match self.env.lookup(name) {
                            Some(v) => Ok(Expr::Set(v, value)),
                            None => {
                                let name: Rc<str> = Rc::from(name.as_str());
                                self.defined_globals.insert(Rc::clone(&name));
                                Ok(Expr::GlobalSet(name, value))
                            }
                        }
                    }
                    _ => Err(err("malformed set!")),
                },
                "lambda" => {
                    if items.len() < 3 {
                        return Err(err("malformed lambda"));
                    }
                    self.lambda(items[1], &items[2..], None, at)
                }
                "begin" => {
                    if items.len() == 1 {
                        Ok(Expr::unspecified())
                    } else {
                        self.body(&items[1..], at)
                    }
                }
                "define" => Err(err("define is not allowed in expression position")),
                "let" => self.let_form(&items, at),
                "let*" => self.let_star(&items, at),
                "letrec" | "letrec*" => {
                    if items.len() < 3 {
                        return Err(err("malformed letrec"));
                    }
                    let specs = binding_specs(items[1])?;
                    let defs = specs.into_iter().map(|(n, init)| (n, Definiens::Value(init)));
                    let body = &items[2..];
                    self.letrec(defs.collect(), at, |x| Ok(vec![x.body(body, at + 2)?]))
                }
                "cond" => self.cond(&items[1..], at),
                "case" => self.case(&items, at),
                "and" => self.and(&items[1..], at),
                "or" => self.or(&items[1..], at),
                "when" | "unless" => {
                    if items.len() < 3 {
                        return Err(err(format!("malformed {head}")));
                    }
                    let c = self.expr(items[1], at + 1)?;
                    let body = self.body(&items[2..], at + 1)?;
                    let (t, e) = if head == "when" {
                        (body, Expr::unspecified())
                    } else {
                        (Expr::unspecified(), body)
                    };
                    Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)))
                }
                "do" => self.do_form(&items, at),
                "quasiquote" => match *items.as_slice() {
                    [_, x] => self.quasi(x, 1, at),
                    _ => Err(err("quasiquote takes one operand")),
                },
                "unquote" | "unquote-splicing" => Err(err(format!("{head} outside quasiquote"))),
                "else" => Err(err("else outside cond/case")),
                _ => unreachable!("keyword list covers match"),
            };
        }
        // Application.
        let f = self.expr(items[0], at + 1)?;
        let args: Vec<Expr> =
            items[1..].iter().map(|&a| self.expr(a, at + 1)).collect::<Result<_>>()?;
        // Direct lambda application becomes Let (no closure allocation).
        match f {
            Expr::Lambda(lam) if lam.rest.is_none() && lam.params.len() == args.len() => {
                let lam = Rc::into_inner(lam).expect("a lambda built just above is not shared");
                Ok(Expr::Let(lam.params.into_iter().zip(args).collect(), Box::new(lam.body)))
            }
            f => Ok(Expr::App(Box::new(f), args)),
        }
    }

    /// Expands a lambda at depth `at`: `formals` is a symbol, a proper
    /// list, or an improper list; `body` is one or more forms.
    fn lambda(
        &mut self,
        formals: &'d Datum,
        body: &[&'d Datum],
        name: Option<&str>,
        at: usize,
    ) -> Result<Expr> {
        // A symbol for `formals` has no elements and is its own tail.
        self.env.push();
        let mut formals = formals.iter();
        let params = formals.by_ref().map(|p| match p.as_symbol() {
            Some(n) => Ok(self.bind(n)),
            None => Err(err(format!("bad parameter: {p}"))),
        });
        let params = params.collect::<Result<Vec<_>>>()?;
        let rest = match formals.tail() {
            Datum::Nil => None,
            Datum::Symbol(n) => Some(self.bind(n)),
            other => return Err(err(format!("bad rest parameter: {other}"))),
        };
        let body = self.body(body, at + 1)?;
        self.env.pop();
        Ok(Expr::Lambda(Rc::new(Lambda { params, rest, body, name: name.map(String::from) })))
    }

    /// Expands a body into a node at depth `at`: internal defines at the
    /// head become `letrec*` bindings; the rest is a sequence.
    fn body(&mut self, forms: &[&'d Datum], at: usize) -> Result<Expr> {
        if forms.is_empty() {
            return Err(err("empty body"));
        }
        let mut defines = Vec::new();
        let mut rest = forms;
        while let Some(items) = rest.first().and_then(|f| self.define_form(f)) {
            defines.push(parse_define(&items)?);
            rest = &rest[1..];
        }
        if rest.is_empty() {
            return Err(err("body consists only of definitions"));
        }
        if defines.is_empty() {
            return self.seq(rest, at);
        }
        self.letrec(defines, at, |x| rest.iter().map(|&f| x.expr(f, at + 2)).collect())
    }

    /// `forms` in order, as one node at depth `at`.
    fn seq(&mut self, forms: &[&'d Datum], at: usize) -> Result<Expr> {
        match forms {
            [form] => self.expr(form, at),
            _ => Ok(Expr::Seq(forms.iter().map(|&f| self.expr(f, at + 1)).collect::<Result<_>>()?)),
        }
    }

    /// `letrec*` at depth `at`: binds every name in `defs` to a fresh
    /// variable, assigns the values in order, then runs `rest` (whose
    /// nodes sit at depth `at + 2`).
    fn letrec(
        &mut self,
        defs: Vec<(&'d str, Definiens<'d>)>,
        at: usize,
        rest: impl FnOnce(&mut Self) -> Result<Vec<Expr>>,
    ) -> Result<Expr> {
        self.env.push();
        let ids: Vec<VarId> = defs.iter().map(|&(name, _)| self.bind(name)).collect();
        let mut seq = Vec::with_capacity(defs.len() + 1);
        for ((name, value), &id) in defs.into_iter().zip(&ids) {
            let value = self.definiens(name, value, at + 3)?;
            seq.push(Expr::Set(id, Box::new(value)));
        }
        seq.extend(rest(self)?);
        self.env.pop();
        let bindings = ids.into_iter().map(|id| (id, Expr::unspecified())).collect();
        Ok(Expr::Let(bindings, Box::new(Expr::Seq(seq))))
    }

    fn let_form(&mut self, items: &[&'d Datum], at: usize) -> Result<Expr> {
        if items.len() < 3 {
            return Err(err("malformed let"));
        }
        if let Some(name) = items[1].as_symbol() {
            if items.len() < 4 {
                return Err(err("malformed named let"));
            }
            let specs = binding_specs(items[2])?;
            let body = &items[3..];
            return self.named_let(Some(name), &specs, at, |x, _, _| x.body(body, at + 4));
        }
        let specs = binding_specs(items[1])?;
        let inits: Vec<Expr> =
            specs.iter().map(|&(_, init)| self.expr(init, at + 1)).collect::<Result<_>>()?;
        self.env.push();
        let bindings = specs.iter().zip(inits).map(|(&(name, _), init)| (self.bind(name), init));
        let bindings = bindings.collect();
        let body = self.body(&items[2..], at + 1)?;
        self.env.pop();
        Ok(Expr::Let(bindings, Box::new(body)))
    }

    /// The loop that named `let` and `do` lower to, at depth `at`:
    /// `(letrec ((loop (lambda (var...) body))) (loop init...))`. The
    /// inits are expanded outside the loop; `name`, when given, is bound
    /// to the loop in `body`'s scope. `body` gets the loop variable and
    /// the parameters, and builds a node at depth `at + 4`.
    fn named_let(
        &mut self,
        name: Option<&'d str>,
        specs: &[(&'d str, &'d Datum)],
        at: usize,
        body: impl FnOnce(&mut Self, VarId, &[VarId]) -> Result<Expr>,
    ) -> Result<Expr> {
        let inits: Vec<Expr> =
            specs.iter().map(|&(_, init)| self.expr(init, at + 3)).collect::<Result<_>>()?;
        self.env.push();
        let loop_id = self.fresh();
        if let Some(name) = name {
            self.env.bind(name, loop_id);
        }
        self.env.push();
        let params: Vec<VarId> = specs.iter().map(|&(n, _)| self.bind(n)).collect();
        let body = body(self, loop_id, &params)?;
        self.env.pop();
        self.env.pop();
        let name = Some(name.unwrap_or("do").to_string());
        let lam = Expr::Lambda(Rc::new(Lambda { params, rest: None, body, name }));
        let call = Expr::App(Box::new(Expr::Ref(loop_id)), inits);
        Ok(Expr::Let(
            vec![(loop_id, Expr::unspecified())],
            Box::new(Expr::Seq(vec![Expr::Set(loop_id, Box::new(lam)), call])),
        ))
    }

    /// `let*` at depth `at`: one `Let` per binding, each one level deeper.
    fn let_star(&mut self, items: &[&'d Datum], at: usize) -> Result<Expr> {
        if items.len() < 3 {
            return Err(err("malformed let*"));
        }
        let specs = binding_specs(items[1])?;
        let end = within(at + specs.len(), "let*")?;
        // One frame serves every binding: each init is expanded before
        // its own name is bound, so it sees only the bindings before it.
        self.env.push();
        let mut bindings = Vec::with_capacity(specs.len());
        for (i, &(name, init)) in specs.iter().enumerate() {
            let init = self.expr(init, at + i + 1)?;
            bindings.push((self.bind(name), init));
        }
        let body = self.body(&items[2..], end)?;
        self.env.pop();
        // Nested lets, innermost first.
        Ok(bindings.into_iter().rev().fold(body, |acc, b| Expr::Let(vec![b], Box::new(acc))))
    }

    /// `cond` at depth `at`: one `If` per clause (a `Let` and an `If` for
    /// `(test => f)` and `(test)`), each nested in the one before.
    fn cond(&mut self, clauses: &[&'d Datum], at: usize) -> Result<Expr> {
        let mut links = Vec::with_capacity(clauses.len());
        let mut otherwise = None;
        let mut depth = at;
        for clause in clauses {
            let Some(parts) = clause.proper_list() else {
                return Err(err(format!("bad cond clause: {clause}")));
            };
            if parts.is_empty() {
                return Err(err("empty cond clause"));
            }
            if parts[0].as_symbol() == Some("else") && self.keyword("else") {
                otherwise = Some(parts);
                break;
            }
            let binds_test =
                parts.len() == 1 || parts.len() == 3 && parts[1].as_symbol() == Some("=>");
            links.push((parts, binds_test, depth));
            depth = within(depth + 1 + usize::from(binds_test), "cond")?;
        }
        let mut out = match otherwise {
            Some(parts) => self.body(&parts[1..], depth)?,
            None => Expr::unspecified(),
        };
        // Built last clause first, so each If wraps the ones after it.
        for (parts, binds_test, at) in links.into_iter().rev() {
            let test = self.expr(parts[0], at + 1)?;
            if !binds_test {
                out = Expr::If(
                    Box::new(test),
                    Box::new(self.body(&parts[1..], at + 1)?),
                    Box::new(out),
                );
                continue;
            }
            // (test => receiver) applies the receiver to the test's value;
            // (test) is that value.
            let receiver = parts.get(2).map(|&r| self.expr(r, at + 3)).transpose()?;
            let tmp = self.fresh();
            let hit = match receiver {
                Some(f) => Expr::App(Box::new(f), vec![Expr::Ref(tmp)]),
                None => Expr::Ref(tmp),
            };
            out = Expr::Let(
                vec![(tmp, test)],
                Box::new(Expr::If(Box::new(Expr::Ref(tmp)), Box::new(hit), Box::new(out))),
            );
        }
        Ok(out)
    }

    /// `case` at depth `at`: the key in a temporary, then one `If` per
    /// clause whose test is one `memv` of the clause's data.
    fn case(&mut self, items: &[&'d Datum], at: usize) -> Result<Expr> {
        if items.len() < 2 {
            return Err(err("malformed case"));
        }
        let key = self.expr(items[1], at + 1)?;
        let tmp = self.fresh();
        let mut clauses = Vec::with_capacity(items.len() - 2);
        let mut otherwise = None;
        for clause in &items[2..] {
            let parts = clause.proper_list().filter(|parts| parts.len() >= 2);
            let Some(parts) = parts else {
                return Err(err(format!("bad case clause: {clause}")));
            };
            if parts[0].as_symbol() == Some("else") && self.keyword("else") {
                otherwise = Some(parts);
                break;
            }
            if parts[0].proper_list().is_none() {
                return Err(err(format!("bad case datum list: {}", parts[0])));
            }
            clauses.push(parts);
        }
        let depth = within(at + 1 + clauses.len(), "case")?;
        let mut out = match otherwise {
            Some(parts) => self.body(&parts[1..], depth)?,
            None => Expr::unspecified(),
        };
        for (i, parts) in clauses.iter().enumerate().rev() {
            let test = call("memv", vec![Expr::Ref(tmp), Expr::Quote(parts[0].clone())]);
            let body = self.body(&parts[1..], at + 2 + i)?;
            out = Expr::If(Box::new(test), Box::new(body), Box::new(out));
        }
        Ok(Expr::Let(vec![(tmp, key)], Box::new(out)))
    }

    /// `and` at depth `at`: `(if a (if b c #f) #f)`, one level per operand.
    fn and(&mut self, args: &[&'d Datum], at: usize) -> Result<Expr> {
        let Some((last, init)) = args.split_last() else { return Ok(Expr::bool(true)) };
        let end = within(at + init.len(), "and")?;
        let mut heads = Vec::with_capacity(init.len());
        for (i, &arg) in init.iter().enumerate() {
            heads.push(self.expr(arg, at + i + 1)?);
        }
        let last = self.expr(last, end)?;
        Ok(heads.into_iter().rev().fold(last, |tail, head| {
            Expr::If(Box::new(head), Box::new(tail), Box::new(Expr::bool(false)))
        }))
    }

    /// `or` at depth `at`: each operand but the last in a temporary,
    /// tested and returned if true — two levels per operand.
    fn or(&mut self, args: &[&'d Datum], at: usize) -> Result<Expr> {
        let Some((last, init)) = args.split_last() else { return Ok(Expr::bool(false)) };
        let end = within(at + 2 * init.len(), "or")?;
        let mut heads = Vec::with_capacity(init.len());
        for (i, &arg) in init.iter().enumerate() {
            heads.push(self.expr(arg, at + 2 * i + 1)?);
        }
        let last = self.expr(last, end)?;
        Ok(heads.into_iter().rev().fold(last, |tail, head| {
            let tmp = self.fresh();
            Expr::Let(
                vec![(tmp, head)],
                Box::new(Expr::If(
                    Box::new(Expr::Ref(tmp)),
                    Box::new(Expr::Ref(tmp)),
                    Box::new(tail),
                )),
            )
        }))
    }

    /// `(do ((var init step)...) (test result...) body...)` at depth `at`:
    /// the named-let loop `(if test (begin result...) (begin body...
    /// (loop step...)))`, its loop bound by no name.
    fn do_form(&mut self, items: &[&'d Datum], at: usize) -> Result<Expr> {
        if items.len() < 3 {
            return Err(err("malformed do"));
        }
        let Some(specs) = items[1].proper_list() else {
            return Err(err("bad do bindings"));
        };
        let mut vars = Vec::with_capacity(specs.len());
        let mut steps = Vec::with_capacity(specs.len());
        for spec in specs {
            match spec.proper_list().as_deref() {
                Some([Datum::Symbol(n), init, step @ ..]) if step.len() <= 1 => {
                    vars.push((n.as_str(), *init));
                    steps.push(step.first().copied());
                }
                _ => return Err(err(format!("bad do binding: {spec}"))),
            }
        }
        let exit = items[2].proper_list().filter(|exit| !exit.is_empty());
        let Some(exit) = exit else {
            return Err(err("bad do exit clause"));
        };
        let body = &items[3..];
        self.named_let(None, &vars, at, |x, loop_id, params| {
            // The If sits at `at + 4`, its arms one deeper.
            let arm = at + 5;
            let test = x.expr(exit[0], arm)?;
            let result = match &exit[1..] {
                [] => Expr::unspecified(),
                results => x.seq(results, arm)?,
            };
            let recur_at = if body.is_empty() { arm } else { arm + 1 };
            let mut iterate =
                body.iter().map(|&f| x.expr(f, arm + 1)).collect::<Result<Vec<_>>>()?;
            let steps = steps.iter().zip(params).map(|(&step, &param)| match step {
                Some(step) => x.expr(step, recur_at + 1),
                None => Ok(Expr::Ref(param)),
            });
            let recur = Expr::App(Box::new(Expr::Ref(loop_id)), steps.collect::<Result<_>>()?);
            let iterate = if iterate.is_empty() {
                recur
            } else {
                iterate.push(recur);
                Expr::Seq(iterate)
            };
            Ok(Expr::If(Box::new(test), Box::new(result), Box::new(iterate)))
        })
    }

    /// Lowers the quasiquote template `d` at nesting `level` into a node
    /// at depth `at`: calls to `list`, `append` and `list->vector` by
    /// global reference, and quoted atoms.
    fn quasi(&mut self, d: &'d Datum, level: u32, at: usize) -> Result<Expr> {
        within(at, "quasiquote")?;
        if let Some((tag, operand)) = quasi_tag(d) {
            let x = operand?;
            return match (tag, level) {
                ("unquote", 1) => self.expr(x, at),
                ("unquote-splicing", 1) => Err(err("unquote-splicing outside a list")),
                _ => {
                    let level = if tag == "quasiquote" { level + 1 } else { level - 1 };
                    let inner = self.quasi(x, level, at + 1)?;
                    let keyword = Expr::Quote(d.car().expect("a tagged form").clone());
                    Ok(call("list", vec![keyword, inner]))
                }
            };
        }
        match d {
            Datum::Pair(_) => {
                // The spine, up to a tail that is an atom or a tagged form
                // (`(a . ,b)` is `(a unquote b)`).
                let mut items = Vec::new();
                let mut tail = d;
                while let Datum::Pair(p) = tail {
                    if !items.is_empty() && quasi_tag(tail).is_some() {
                        break;
                    }
                    items.push(&p.0);
                    tail = &p.1;
                }
                self.quasi_list(&items, tail, level, at)
            }
            Datum::Vector(items) => {
                let items: Vec<&Datum> = items.iter().collect();
                let list = self.quasi_list(&items, NIL, level, at + 1)?;
                Ok(call("list->vector", vec![list]))
            }
            atom => Ok(Expr::Quote(atom.clone())),
        }
    }

    /// A quasiquoted list of `items` ending in `tail`, at depth `at`: one
    /// `list` call, or one `append` of `list` runs and spliced operands.
    /// A spliced list is copied, as `(append x '())` copies it.
    fn quasi_list(
        &mut self,
        items: &[&'d Datum],
        tail: &'d Datum,
        level: u32,
        at: usize,
    ) -> Result<Expr> {
        let spliced = |d: &'d Datum| match quasi_tag(d) {
            Some(("unquote-splicing", operand)) if level == 1 => Some(operand),
            _ => None,
        };
        let flat = matches!(tail, Datum::Nil) && !items.iter().any(|&d| spliced(d).is_some());
        let item_at = if flat { at + 1 } else { at + 2 };
        let mut args = Vec::new();
        let mut run = Vec::new();
        for &item in items {
            match spliced(item) {
                Some(operand) => {
                    if !run.is_empty() {
                        args.push(call("list", std::mem::take(&mut run)));
                    }
                    args.push(self.expr(operand?, at + 1)?);
                }
                None => run.push(self.quasi(item, level, item_at)?),
            }
        }
        if flat {
            return Ok(call("list", run));
        }
        if !run.is_empty() {
            args.push(call("list", run));
        } else if matches!(tail, Datum::Nil) {
            args.push(Expr::Quote(Datum::Nil));
        }
        if !matches!(tail, Datum::Nil) {
            args.push(self.quasi(tail, level, at + 1)?);
        }
        Ok(call("append", args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneshot_sexp::read_all;

    fn expand1(src: &str) -> Expr {
        let forms = read_all(src).unwrap();
        let p = expand_program(&forms).unwrap();
        assert_eq!(p.forms.len(), 1, "expected one form from {src}");
        p.forms.into_iter().next().unwrap()
    }

    #[test]
    fn constants_self_evaluate() {
        assert!(matches!(expand1("42"), Expr::Quote(Datum::Fixnum(42))));
        assert!(matches!(expand1("\"s\""), Expr::Quote(Datum::Str(_))));
        assert!(matches!(expand1("#(1)"), Expr::Quote(Datum::Vector(_))));
    }

    #[test]
    fn variables_resolve_lexically() {
        let e = expand1("(lambda (x) x)");
        let Expr::Lambda(lam) = e else { panic!() };
        assert_eq!(lam.params.len(), 1);
        assert_eq!(lam.body, Expr::Ref(lam.params[0]));
    }

    #[test]
    fn unbound_variables_are_global() {
        assert!(matches!(expand1("x"), Expr::GlobalRef(n) if &*n == "x"));
    }

    #[test]
    fn shadowing_keywords_works() {
        // `if` bound as a variable is an ordinary variable.
        let e = expand1("(lambda (if) (if 1 2 3))");
        let Expr::Lambda(lam) = e else { panic!() };
        assert!(matches!(lam.body, Expr::App(..)), "shadowed if is a call");
    }

    #[test]
    fn one_armed_if_gets_unspecified() {
        let Expr::If(_, _, e) = expand1("(if #t 1)") else { panic!() };
        assert_eq!(*e, Expr::unspecified());
    }

    #[test]
    fn let_becomes_let_node() {
        let Expr::Let(bindings, body) = expand1("(let ((x 1) (y 2)) y)") else { panic!() };
        assert_eq!(bindings.len(), 2);
        assert_eq!(*body, Expr::Ref(bindings[1].0));
    }

    #[test]
    fn direct_lambda_application_becomes_let() {
        assert!(matches!(expand1("((lambda (x) x) 1)"), Expr::Let(..)));
    }

    #[test]
    fn named_let_builds_loop() {
        let e = expand1("(let loop ((i 0)) (if (< i 3) (loop (+ i 1)) i))");
        assert!(matches!(e, Expr::Let(..)));
    }

    #[test]
    fn let_star_nests() {
        let Expr::Let(b1, body) = expand1("(let* ((x 1) (y x)) y)") else { panic!() };
        assert_eq!(b1.len(), 1);
        let Expr::Let(b2, _) = &*body else { panic!("inner let") };
        // y's init references x.
        assert_eq!(b2[0].1, Expr::Ref(b1[0].0));
    }

    #[test]
    fn variadic_lambda() {
        let Expr::Lambda(lam) = expand1("(lambda (a . rest) rest)") else { panic!() };
        assert_eq!(lam.params.len(), 1);
        assert!(lam.rest.is_some());
        let Expr::Lambda(lam2) = expand1("(lambda all all)") else { panic!() };
        assert!(lam2.params.is_empty() && lam2.rest.is_some());
    }

    #[test]
    fn cond_with_arrow_and_else() {
        let e = expand1("(cond ((assv 1 l) => cdr) (else 0))");
        assert!(matches!(e, Expr::If(..) | Expr::Let(..)));
    }

    #[test]
    fn and_or_lower_to_ifs() {
        assert_eq!(expand1("(and)"), Expr::bool(true));
        assert_eq!(expand1("(or)"), Expr::bool(false));
        assert!(matches!(expand1("(and 1 2)"), Expr::If(..)));
        assert!(matches!(expand1("(or 1 2)"), Expr::Let(..)));
    }

    #[test]
    fn internal_defines_become_letrec() {
        let Expr::Lambda(lam) = expand1("(lambda (x) (define y 1) (+ x y))") else { panic!() };
        assert!(matches!(lam.body, Expr::Let(..)));
    }

    #[test]
    fn define_procedure_shorthand() {
        let forms = read_all("(define (f x) x)").unwrap();
        let p = expand_program(&forms).unwrap();
        let Expr::GlobalDef(name, v) = &p.forms[0] else { panic!() };
        assert_eq!(&**name, "f");
        assert!(matches!(&**v, Expr::Lambda(lam) if lam.name.as_deref() == Some("f")));
        assert!(p.defined_globals.contains("f"));
    }

    #[test]
    fn quasiquote_lowers_to_constructors() {
        // `(a ,b ,@c) => (append (list 'a b) c '())
        let Expr::Let(_, body) = expand1("(let ((b 1) (c '())) `(a ,b ,@c))") else { panic!() };
        let Expr::App(f, args) = &*body else { panic!("{body:?}") };
        assert!(matches!(&**f, Expr::GlobalRef(n) if &**n == "append"));
        assert_eq!(args.len(), 3);
        assert!(matches!(&args[0], Expr::App(f, items)
            if matches!(&**f, Expr::GlobalRef(n) if &**n == "list") && items.len() == 2));
        // A list without splices is one `list` call, however long.
        let Expr::App(f, items) = expand1(&format!("`({})", "x ".repeat(1000))) else { panic!() };
        assert!(matches!(&*f, Expr::GlobalRef(n) if &**n == "list"));
        assert_eq!(items.len(), 1000);
        // Nested quasiquote keeps inner unquote quoted.
        let forms = read_all("``(,a)").unwrap();
        assert!(expand_program(&forms).is_ok());
    }

    #[test]
    fn do_loops_expand() {
        let e = expand1("(do ((i 0 (+ i 1)) (acc 1)) ((= i 3) acc) acc)");
        assert!(matches!(e, Expr::Let(..)));
    }

    #[test]
    fn case_tests_each_clause_with_one_memv() {
        let Expr::Let(_, body) = expand1("(case 2 ((1 2) 'small) (else 'big))") else { panic!() };
        let Expr::If(test, ..) = &*body else { panic!("{body:?}") };
        let Expr::App(f, args) = &**test else { panic!("{test:?}") };
        assert!(matches!(&**f, Expr::GlobalRef(n) if &**n == "memv"));
        assert_eq!(args[1], Expr::Quote(read_all("(1 2)").unwrap().remove(0)));
    }

    #[test]
    fn chains_past_the_bound_are_refused_by_name() {
        let n = MAX_NESTING + 1;
        for (form, src) in [
            ("let*", format!("(let* ({}) 0)", "(x 0) ".repeat(n))),
            ("cond", format!("(cond {})", "(x 0) ".repeat(n))),
            ("case", format!("(case x {})", "((0) 0) ".repeat(n))),
            ("and", format!("(and {})", "x ".repeat(n + 1))),
            ("or", format!("(or {})", "x ".repeat(n / 2 + 2))),
        ] {
            let e = expand_program(&read_all(&src).unwrap()).map(drop).unwrap_err();
            assert_eq!(e.message, format!("{form}: expands deeper than {MAX_NESTING} levels"));
        }
        // Wrapping forms count their own levels: each named let is four.
        let deep = format!("{}0{}", "(let loop () ".repeat(n / 4 + 1), ")".repeat(n / 4 + 1));
        let e = expand_program(&read_all(&deep).unwrap()).map(drop).unwrap_err();
        assert!(e.message.ends_with("expands deeper than 256 levels"), "{e}");
        let shallow = format!("{}0{}", "(let loop () ".repeat(n / 4 - 1), ")".repeat(n / 4 - 1));
        assert!(expand_program(&read_all(&shallow).unwrap()).is_ok());
    }

    #[test]
    fn errors_on_malformed_forms() {
        for src in [
            "(if)",
            "(set! 1 2)",
            "(lambda)",
            "()",
            "(let ((x)) x)",
            "(quote a b)",
            "(unquote x)",
            "(define x 1 2)",
            "(lambda (x) (define y 1))",
        ] {
            let forms = read_all(src).unwrap();
            assert!(expand_program(&forms).is_err(), "{src} should fail");
        }
    }

    #[test]
    fn toplevel_begin_splices_defines() {
        let forms = read_all("(begin (define a 1) (define b 2)) a").unwrap();
        let p = expand_program(&forms).unwrap();
        assert_eq!(p.defined_globals.len(), 2);
    }

    #[test]
    fn alpha_renaming_distinguishes_shadowed_vars() {
        let Expr::Let(b1, body) = expand1("(let ((x 1)) (let ((x 2)) x))") else { panic!() };
        let Expr::Let(b2, inner) = &*body else { panic!() };
        assert_ne!(b1[0].0, b2[0].0);
        assert_eq!(**inner, Expr::Ref(b2[0].0));
    }
}
