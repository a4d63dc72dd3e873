//! The expanded core AST.
//!
//! The expander lowers every derived form (`let`, `cond`, `case`, `do`,
//! quasiquote, ...) into this small language. Variables are alpha-renamed
//! to unique [`VarId`]s during expansion, so later passes never deal with
//! shadowing.

use std::collections::HashSet;
use std::rc::Rc;

use oneshot_sexp::Datum;

/// A unique lexical variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index (unique within one expansion).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A core expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant datum.
    Quote(Datum),
    /// The unspecified value (result of `set!`, one-armed `if`, ...).
    Unspecified,
    /// A lexical variable reference.
    Ref(VarId),
    /// A global (toplevel) variable reference, by name.
    GlobalRef(Rc<str>),
    /// Lexical assignment.
    Set(VarId, Box<Expr>),
    /// Global assignment.
    GlobalSet(Rc<str>, Box<Expr>),
    /// Global definition (toplevel `define`).
    GlobalDef(Rc<str>, Box<Expr>),
    /// Two- or three-armed conditional (one-armed `if` gets an unspecified
    /// else branch during expansion).
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A procedure.
    Lambda(Rc<Lambda>),
    /// Parallel bindings evaluated left to right (from `let` and direct
    /// lambda application); compiled without closure allocation.
    Let(Vec<(VarId, Expr)>, Box<Expr>),
    /// Sequencing; the last expression is in tail position.
    Seq(Vec<Expr>),
    /// Procedure application.
    App(Box<Expr>, Vec<Expr>),
}

/// A lambda expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Required parameters.
    pub params: Vec<VarId>,
    /// Rest parameter, for variadic procedures.
    pub rest: Option<VarId>,
    /// The body (internal defines already lowered).
    pub body: Expr,
    /// A name for diagnostics, when one is known.
    pub name: Option<String>,
}

/// An expanded program: a sequence of toplevel expressions plus variable
/// metadata.
#[derive(Debug, Clone)]
pub struct Program {
    /// Toplevel forms in order.
    pub forms: Vec<Expr>,
    /// Number of [`VarId`]s allocated (ids are `0..var_count`).
    pub var_count: u32,
    /// Globals this program defines or assigns. A call to one of them is
    /// never compiled as a call to the builtin of that name: neither
    /// inlined by codegen nor called direct-style by the CPS converter.
    pub defined_globals: HashSet<Rc<str>>,
}

impl Expr {
    /// An unspecified-value constant.
    pub fn unspecified() -> Expr {
        Expr::Unspecified
    }

    /// A boolean constant.
    pub fn bool(b: bool) -> Expr {
        Expr::Quote(Datum::Bool(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_constants() {
        assert_eq!(Expr::bool(true), Expr::Quote(Datum::Bool(true)));
        assert!(matches!(Expr::unspecified(), Expr::Unspecified));
    }
}
