//! Clause expression ASTs.
//!
//! The paper's clauses take C expressions evaluated per-rank:
//! `sender(rank-1)`, `receiver((rank+1)%nprocs)`, `sendwhen(rank%2==0)`.
//! Keeping these as *data* (rather than opaque closures) is what makes the
//! communication statically analyzable — the compiler-style analyses in
//! [`crate::analysis`] resolve them for every rank to recover the intended
//! communication graph, classify the pattern, and check send/receive
//! matching. An [`RankExpr::Opaque`] escape hatch carries arbitrary Rust
//! closures for things no small AST covers; analyses degrade gracefully on
//! it (the program still runs, classification reports `Irregular`).
//!
//! ## Two evaluators, one semantics
//!
//! [`RankExpr::eval`] and [`CondExpr::eval`] walk the tree and look
//! variables up by name. They are the reference semantics: the analyses,
//! per-call clause overrides and the tests' oracle use them.
//!
//! [`RankExpr::compile`] and [`CondExpr::compile`] flatten a tree once into
//! a [`CompiledExpr`] / [`CompiledCond`]: a short stack program that reads
//! variables by slot (an index into the [`VarTable`] it was compiled
//! against) and needs no allocation to run. The directive engine compiles a
//! region's inherited clauses when the region opens and evaluates the
//! programs on every instance. A compiled program returns exactly what the
//! tree walk returns — the same checked C arithmetic (a result C leaves
//! undefined is [`ExprError::Overflow`], never a wrapped value), the same
//! operand order (a divisor before its dividend, so the first error is the
//! same error), `DivByZero` and `UnknownVar(name)`, short-circuit
//! `&&`/`||`, and opaque closures called with the live [`EvalEnv`] —
//! which `tests/prop_exprs.rs` checks on random trees and environments.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Variable bindings for clause evaluation, scanned linearly by name.
///
/// A directive scope binds a handful of names, but the lookup runs on every
/// directive instance of every rank — a short scan with early-exit string
/// compares beats hashing at that size, and rebinding an existing name
/// (what directive loops do once per iteration) touches no allocator.
///
/// Every name also has a slot, its position in the table, which compiled
/// clause programs read without comparing names. Compiling can reserve a
/// slot for a name that is not bound yet (a region's clauses may name a
/// variable its body binds later). A reserved, unbound slot is invisible:
/// `get`, `iter`, `len` and `==` see only bound names, in the order they
/// were first bound, exactly as if it had never been reserved.
#[derive(Clone, Default)]
pub struct VarTable {
    /// Every name bound or reserved so far, indexed by slot; `None` while
    /// unbound.
    slots: Vec<(String, Option<i64>)>,
    /// The bound slots, in binding order.
    bound: Vec<u32>,
}

/// The position of a name in a [`VarTable`]. Valid only for the table that
/// issued it; slots are never removed, so it stays valid for that table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot(u32);

impl VarTable {
    /// The bound value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|&(_, v)| v)
    }

    /// Bind `name`, updating in place if already bound.
    pub fn set(&mut self, name: &str, value: i64) {
        let slot = self.slot(name);
        self.set_slot(slot, value);
    }

    /// Bind the name that owns `slot`, as [`VarTable::set`] binds it.
    pub(crate) fn set_slot(&mut self, Slot(i): Slot, value: i64) {
        let v = &mut self.slots[i as usize].1;
        if v.is_none() {
            self.bound.push(i);
        }
        *v = Some(value);
    }

    /// The slot of `name`, reserving an unbound one if the name is new.
    pub(crate) fn slot(&mut self, name: &str) -> Slot {
        let i = match self.slots.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.slots.push((name.to_string(), None));
                self.slots.len() - 1
            }
        };
        Slot(i as u32)
    }

    /// The value bound in `slot`, if it is bound.
    #[inline(always)]
    fn value(&self, slot: Slot) -> Option<i64> {
        self.slots[slot.0 as usize].1
    }

    /// The name that owns `slot`.
    fn name(&self, slot: Slot) -> &str {
        &self.slots[slot.0 as usize].0
    }

    /// Iterate over `(name, value)` bindings in binding order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.bound.iter().map(|&i| {
            let (n, v) = &self.slots[i as usize];
            (n.as_str(), v.expect("listed slots are bound"))
        })
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Whether no names are bound.
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }
}

impl PartialEq for VarTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for VarTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound: Vec<(&str, i64)> = self.iter().collect();
        f.debug_tuple("VarTable").field(&bound).finish()
    }
}

impl From<&HashMap<String, i64>> for VarTable {
    fn from(m: &HashMap<String, i64>) -> Self {
        // HashMap iteration order is arbitrary; keep the table deterministic.
        let mut sorted: Vec<(&String, &i64)> = m.iter().collect();
        sorted.sort();
        sorted.into_iter().map(|(n, v)| (n.clone(), *v)).collect()
    }
}

impl From<HashMap<String, i64>> for VarTable {
    fn from(m: HashMap<String, i64>) -> Self {
        VarTable::from(&m)
    }
}

impl FromIterator<(String, i64)> for VarTable {
    fn from_iter<I: IntoIterator<Item = (String, i64)>>(iter: I) -> Self {
        let mut t = VarTable::default();
        for (n, v) in iter {
            t.set(&n, v);
        }
        t
    }
}

/// Evaluation environment for clause expressions: the SPMD identity plus
/// user variables (loop bounds, privileged ranks, ...).
#[derive(Clone, Debug, Default)]
pub struct EvalEnv {
    /// Communicator-local rank of the evaluating process.
    pub rank: i64,
    /// Communicator size.
    pub nranks: i64,
    /// User variables referenced by name in expressions.
    pub vars: VarTable,
}

impl EvalEnv {
    /// Environment for `rank` of `nranks` with no variables.
    pub fn new(rank: usize, nranks: usize) -> Self {
        EvalEnv {
            rank: rank as i64,
            nranks: nranks as i64,
            vars: VarTable::default(),
        }
    }

    /// Set a variable (builder style).
    pub fn with(mut self, name: &str, value: i64) -> Self {
        self.vars.set(name, value);
        self
    }

    /// Set a variable, updating in place if already bound.
    pub fn set(&mut self, name: &str, value: i64) {
        self.vars.set(name, value);
    }
}

/// Expression evaluation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    /// A `Var` was not present in the environment.
    UnknownVar(String),
    /// Division or modulo by zero.
    DivByZero,
    /// A result C leaves undefined: outside `i64`, or `i64::MIN` divided
    /// by (or taken modulo) `-1`.
    Overflow,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            ExprError::DivByZero => write!(f, "division by zero"),
            ExprError::Overflow => write!(f, "integer overflow"),
        }
    }
}

impl std::error::Error for ExprError {}

/// An integer-valued clause expression (`sender`, `receiver`, `count`,
/// `max_comm_iter`).
#[derive(Clone)]
pub enum RankExpr {
    /// The evaluating process's rank.
    Rank,
    /// The communicator size (`nprocs`).
    NRanks,
    /// An integer literal.
    Const(i64),
    /// A named user variable. A name written in the program is borrowed,
    /// so building and cloning a clause that names one allocates nothing;
    /// a parsed name is owned.
    Var(Cow<'static, str>),
    /// Arithmetic.
    Add(Box<RankExpr>, Box<RankExpr>),
    Sub(Box<RankExpr>, Box<RankExpr>),
    Mul(Box<RankExpr>, Box<RankExpr>),
    Div(Box<RankExpr>, Box<RankExpr>),
    Mod(Box<RankExpr>, Box<RankExpr>),
    Neg(Box<RankExpr>),
    /// An opaque Rust closure with a display label. Analyses treat it as
    /// unresolvable; execution evaluates it.
    Opaque(Arc<dyn Fn(&EvalEnv) -> i64 + Send + Sync>, &'static str),
}

impl RankExpr {
    /// Shorthand: the `rank` variable.
    pub fn rank() -> RankExpr {
        RankExpr::Rank
    }

    /// Shorthand: the `nprocs` variable.
    pub fn nranks() -> RankExpr {
        RankExpr::NRanks
    }

    /// Shorthand: a literal.
    pub fn lit(v: i64) -> RankExpr {
        RankExpr::Const(v)
    }

    /// Shorthand: a named variable (a literal name, or a `String`).
    pub fn var(name: impl Into<Cow<'static, str>>) -> RankExpr {
        RankExpr::Var(name.into())
    }

    /// Wrap a Rust closure with a display label.
    pub fn opaque(
        label: &'static str,
        f: impl Fn(&EvalEnv) -> i64 + Send + Sync + 'static,
    ) -> RankExpr {
        RankExpr::Opaque(Arc::new(f), label)
    }

    /// Modulo (C semantics: sign of dividend).
    #[allow(clippy::should_implement_trait)] // C-style `%`, not std::ops::Rem
    pub fn rem(self, rhs: RankExpr) -> RankExpr {
        RankExpr::Mod(Box::new(self), Box::new(rhs))
    }

    /// Evaluate under `env`.
    pub fn eval(&self, env: &EvalEnv) -> Result<i64, ExprError> {
        Ok(match self {
            RankExpr::Rank => env.rank,
            RankExpr::NRanks => env.nranks,
            RankExpr::Const(v) => *v,
            RankExpr::Var(name) => env
                .vars
                .get(name)
                .ok_or_else(|| ExprError::UnknownVar(name.to_string()))?,
            RankExpr::Add(a, b) => BinOp::Add.apply(a.eval(env)?, b.eval(env)?)?,
            RankExpr::Sub(a, b) => BinOp::Sub.apply(a.eval(env)?, b.eval(env)?)?,
            RankExpr::Mul(a, b) => BinOp::Mul.apply(a.eval(env)?, b.eval(env)?)?,
            RankExpr::Div(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(ExprError::DivByZero);
                }
                BinOp::Div.apply(a.eval(env)?, d)?
            }
            RankExpr::Mod(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(ExprError::DivByZero);
                }
                BinOp::Rem.apply(a.eval(env)?, d)?
            }
            RankExpr::Neg(a) => neg(a.eval(env)?)?,
            RankExpr::Opaque(f, _) => f(env),
        })
    }

    /// Whether the expression contains an opaque closure (unresolvable by
    /// static analysis without execution).
    pub fn has_opaque(&self) -> bool {
        match self {
            RankExpr::Rank | RankExpr::NRanks | RankExpr::Const(_) | RankExpr::Var(_) => false,
            RankExpr::Add(a, b)
            | RankExpr::Sub(a, b)
            | RankExpr::Mul(a, b)
            | RankExpr::Div(a, b)
            | RankExpr::Mod(a, b) => a.has_opaque() || b.has_opaque(),
            RankExpr::Neg(a) => a.has_opaque(),
            RankExpr::Opaque(..) => true,
        }
    }

    /// Free variable names referenced by the expression.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        self.any_var(&mut |name| {
            if !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
            false
        });
    }

    /// Whether `f` holds for a variable name the expression reads, trying
    /// them in syntactic order (a name may be tried more than once).
    pub fn any_var(&self, f: &mut impl FnMut(&str) -> bool) -> bool {
        match self {
            RankExpr::Var(name) => f(name),
            RankExpr::Add(a, b)
            | RankExpr::Sub(a, b)
            | RankExpr::Mul(a, b)
            | RankExpr::Div(a, b)
            | RankExpr::Mod(a, b) => a.any_var(f) || b.any_var(f),
            RankExpr::Neg(a) => a.any_var(f),
            RankExpr::Rank | RankExpr::NRanks | RankExpr::Const(_) | RankExpr::Opaque(..) => false,
        }
    }

    /// Display labels of every opaque closure in the expression, in
    /// syntactic order without duplicates.
    pub fn opaque_labels(&self, out: &mut Vec<&'static str>) {
        match self {
            RankExpr::Rank | RankExpr::NRanks | RankExpr::Const(_) | RankExpr::Var(_) => {}
            RankExpr::Add(a, b)
            | RankExpr::Sub(a, b)
            | RankExpr::Mul(a, b)
            | RankExpr::Div(a, b)
            | RankExpr::Mod(a, b) => {
                a.opaque_labels(out);
                b.opaque_labels(out);
            }
            RankExpr::Neg(a) => a.opaque_labels(out),
            RankExpr::Opaque(_, label) if !out.contains(label) => out.push(label),
            RankExpr::Opaque(..) => {}
        }
    }

    // -- comparison builders producing conditions ---------------------------

    /// `self == rhs`
    pub fn eq(self, rhs: RankExpr) -> CondExpr {
        CondExpr::Eq(self, rhs)
    }
    /// `self != rhs`
    pub fn ne(self, rhs: RankExpr) -> CondExpr {
        CondExpr::Ne(self, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: RankExpr) -> CondExpr {
        CondExpr::Lt(self, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: RankExpr) -> CondExpr {
        CondExpr::Le(self, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: RankExpr) -> CondExpr {
        CondExpr::Gt(self, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: RankExpr) -> CondExpr {
        CondExpr::Ge(self, rhs)
    }
}

impl fmt::Debug for RankExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for RankExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankExpr::Rank => write!(f, "rank"),
            RankExpr::NRanks => write!(f, "nprocs"),
            RankExpr::Const(v) => write!(f, "{v}"),
            RankExpr::Var(name) => write!(f, "{name}"),
            RankExpr::Add(a, b) => write!(f, "({a}+{b})"),
            RankExpr::Sub(a, b) => write!(f, "({a}-{b})"),
            RankExpr::Mul(a, b) => write!(f, "({a}*{b})"),
            RankExpr::Div(a, b) => write!(f, "({a}/{b})"),
            RankExpr::Mod(a, b) => write!(f, "({a}%{b})"),
            RankExpr::Neg(a) => write!(f, "(-{a})"),
            RankExpr::Opaque(_, label) => write!(f, "<{label}>"),
        }
    }
}

impl From<i64> for RankExpr {
    fn from(v: i64) -> Self {
        RankExpr::Const(v)
    }
}

impl From<usize> for RankExpr {
    fn from(v: usize) -> Self {
        RankExpr::Const(v as i64)
    }
}

impl From<i32> for RankExpr {
    fn from(v: i32) -> Self {
        RankExpr::Const(i64::from(v))
    }
}

impl std::ops::Add for RankExpr {
    type Output = RankExpr;
    fn add(self, rhs: RankExpr) -> RankExpr {
        RankExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for RankExpr {
    type Output = RankExpr;
    fn sub(self, rhs: RankExpr) -> RankExpr {
        RankExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for RankExpr {
    type Output = RankExpr;
    fn mul(self, rhs: RankExpr) -> RankExpr {
        RankExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for RankExpr {
    type Output = RankExpr;
    fn div(self, rhs: RankExpr) -> RankExpr {
        RankExpr::Div(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Rem for RankExpr {
    type Output = RankExpr;
    fn rem(self, rhs: RankExpr) -> RankExpr {
        RankExpr::Mod(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Neg for RankExpr {
    type Output = RankExpr;
    fn neg(self) -> RankExpr {
        RankExpr::Neg(Box::new(self))
    }
}

/// A Boolean clause expression (`sendwhen`, `receivewhen`).
#[derive(Clone)]
pub enum CondExpr {
    /// Constant true.
    True,
    /// Constant false.
    False,
    Eq(RankExpr, RankExpr),
    Ne(RankExpr, RankExpr),
    Lt(RankExpr, RankExpr),
    Le(RankExpr, RankExpr),
    Gt(RankExpr, RankExpr),
    Ge(RankExpr, RankExpr),
    And(Box<CondExpr>, Box<CondExpr>),
    Or(Box<CondExpr>, Box<CondExpr>),
    Not(Box<CondExpr>),
    /// Opaque Rust predicate with a display label.
    Opaque(Arc<dyn Fn(&EvalEnv) -> bool + Send + Sync>, &'static str),
}

impl CondExpr {
    /// Wrap a Rust predicate with a display label.
    pub fn opaque(
        label: &'static str,
        f: impl Fn(&EvalEnv) -> bool + Send + Sync + 'static,
    ) -> CondExpr {
        CondExpr::Opaque(Arc::new(f), label)
    }

    /// Logical and.
    pub fn and(self, rhs: CondExpr) -> CondExpr {
        CondExpr::And(Box::new(self), Box::new(rhs))
    }

    /// Logical or.
    pub fn or(self, rhs: CondExpr) -> CondExpr {
        CondExpr::Or(Box::new(self), Box::new(rhs))
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> CondExpr {
        CondExpr::Not(Box::new(self))
    }

    /// Evaluate under `env`.
    pub fn eval(&self, env: &EvalEnv) -> Result<bool, ExprError> {
        Ok(match self {
            CondExpr::True => true,
            CondExpr::False => false,
            CondExpr::Eq(a, b) => a.eval(env)? == b.eval(env)?,
            CondExpr::Ne(a, b) => a.eval(env)? != b.eval(env)?,
            CondExpr::Lt(a, b) => a.eval(env)? < b.eval(env)?,
            CondExpr::Le(a, b) => a.eval(env)? <= b.eval(env)?,
            CondExpr::Gt(a, b) => a.eval(env)? > b.eval(env)?,
            CondExpr::Ge(a, b) => a.eval(env)? >= b.eval(env)?,
            CondExpr::And(a, b) => a.eval(env)? && b.eval(env)?,
            CondExpr::Or(a, b) => a.eval(env)? || b.eval(env)?,
            CondExpr::Not(a) => !a.eval(env)?,
            CondExpr::Opaque(f, _) => f(env),
        })
    }

    /// Whether the condition contains an opaque closure.
    pub fn has_opaque(&self) -> bool {
        match self {
            CondExpr::True | CondExpr::False => false,
            CondExpr::Eq(a, b)
            | CondExpr::Ne(a, b)
            | CondExpr::Lt(a, b)
            | CondExpr::Le(a, b)
            | CondExpr::Gt(a, b)
            | CondExpr::Ge(a, b) => a.has_opaque() || b.has_opaque(),
            CondExpr::And(a, b) | CondExpr::Or(a, b) => a.has_opaque() || b.has_opaque(),
            CondExpr::Not(a) => a.has_opaque(),
            CondExpr::Opaque(..) => true,
        }
    }

    /// Free variable names referenced by the condition.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        self.any_var(&mut |name| {
            if !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
            false
        });
    }

    /// [`RankExpr::any_var`] for a condition.
    pub fn any_var(&self, f: &mut impl FnMut(&str) -> bool) -> bool {
        match self {
            CondExpr::Eq(a, b)
            | CondExpr::Ne(a, b)
            | CondExpr::Lt(a, b)
            | CondExpr::Le(a, b)
            | CondExpr::Gt(a, b)
            | CondExpr::Ge(a, b) => a.any_var(f) || b.any_var(f),
            CondExpr::And(a, b) | CondExpr::Or(a, b) => a.any_var(f) || b.any_var(f),
            CondExpr::Not(a) => a.any_var(f),
            CondExpr::True | CondExpr::False | CondExpr::Opaque(..) => false,
        }
    }

    /// Display labels of every opaque closure in the condition, including
    /// those nested inside comparison operands, in syntactic order without
    /// duplicates.
    pub fn opaque_labels(&self, out: &mut Vec<&'static str>) {
        match self {
            CondExpr::True | CondExpr::False => {}
            CondExpr::Eq(a, b)
            | CondExpr::Ne(a, b)
            | CondExpr::Lt(a, b)
            | CondExpr::Le(a, b)
            | CondExpr::Gt(a, b)
            | CondExpr::Ge(a, b) => {
                a.opaque_labels(out);
                b.opaque_labels(out);
            }
            CondExpr::And(a, b) | CondExpr::Or(a, b) => {
                a.opaque_labels(out);
                b.opaque_labels(out);
            }
            CondExpr::Not(a) => a.opaque_labels(out),
            CondExpr::Opaque(_, label) if !out.contains(label) => out.push(label),
            CondExpr::Opaque(..) => {}
        }
    }
}

/// Structural equality: the same tree, with opaque closures equal only to
/// themselves (the same `Arc` under the same label). A compiled program is
/// a function of the tree alone, so equal expressions compile to
/// interchangeable programs against the same [`VarTable`].
impl PartialEq for RankExpr {
    fn eq(&self, other: &Self) -> bool {
        use RankExpr::*;
        match (self, other) {
            (Rank, Rank) | (NRanks, NRanks) => true,
            (Const(a), Const(b)) => a == b,
            (Var(a), Var(b)) => a == b,
            (Add(a, b), Add(c, d))
            | (Sub(a, b), Sub(c, d))
            | (Mul(a, b), Mul(c, d))
            | (Div(a, b), Div(c, d))
            | (Mod(a, b), Mod(c, d)) => a == c && b == d,
            (Neg(a), Neg(b)) => a == b,
            (Opaque(f, l), Opaque(g, m)) => Arc::ptr_eq(f, g) && l == m,
            _ => false,
        }
    }
}

/// Structural equality, as for [`RankExpr`].
impl PartialEq for CondExpr {
    fn eq(&self, other: &Self) -> bool {
        use CondExpr::*;
        match (self, other) {
            (True, True) | (False, False) => true,
            (Eq(a, b), Eq(c, d))
            | (Ne(a, b), Ne(c, d))
            | (Lt(a, b), Lt(c, d))
            | (Le(a, b), Le(c, d))
            | (Gt(a, b), Gt(c, d))
            | (Ge(a, b), Ge(c, d)) => a == c && b == d,
            (And(a, b), And(c, d)) | (Or(a, b), Or(c, d)) => a == c && b == d,
            (Not(a), Not(b)) => a == b,
            (Opaque(f, l), Opaque(g, m)) => Arc::ptr_eq(f, g) && l == m,
            _ => false,
        }
    }
}

impl fmt::Debug for CondExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for CondExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondExpr::True => write!(f, "1"),
            CondExpr::False => write!(f, "0"),
            CondExpr::Eq(a, b) => write!(f, "({a}=={b})"),
            CondExpr::Ne(a, b) => write!(f, "({a}!={b})"),
            CondExpr::Lt(a, b) => write!(f, "({a}<{b})"),
            CondExpr::Le(a, b) => write!(f, "({a}<={b})"),
            CondExpr::Gt(a, b) => write!(f, "({a}>{b})"),
            CondExpr::Ge(a, b) => write!(f, "({a}>={b})"),
            CondExpr::And(a, b) => write!(f, "({a}&&{b})"),
            CondExpr::Or(a, b) => write!(f, "({a}||{b})"),
            CondExpr::Not(a) => write!(f, "(!{a})"),
            CondExpr::Opaque(_, label) => write!(f, "<{label}>"),
        }
    }
}

// -- compiled clause programs ---------------------------------------------------

/// A leaf read by a compiled program.
#[derive(Clone, Copy)]
enum Operand {
    Rank,
    NRanks,
    Const(i64),
    Var(Slot),
}

impl Operand {
    /// The leaf form of `e`, reserving a slot for a variable; `None` for a
    /// compound or opaque expression.
    fn of(e: &RankExpr, vars: &mut VarTable) -> Option<Operand> {
        Some(match e {
            RankExpr::Rank => Operand::Rank,
            RankExpr::NRanks => Operand::NRanks,
            RankExpr::Const(v) => Operand::Const(*v),
            RankExpr::Var(name) => Operand::Var(vars.slot(name)),
            _ => return None,
        })
    }

    fn is_leaf(e: &RankExpr) -> bool {
        matches!(
            e,
            RankExpr::Rank | RankExpr::NRanks | RankExpr::Const(_) | RankExpr::Var(_)
        )
    }

    #[inline(always)]
    fn read(self, env: &EvalEnv) -> Result<i64, ExprError> {
        match self {
            Operand::Rank => Ok(env.rank),
            Operand::NRanks => Ok(env.nranks),
            Operand::Const(v) => Ok(v),
            Operand::Var(s) => match env.vars.value(s) {
                Some(v) => Ok(v),
                None => Err(unknown_var(&env.vars, s)),
            },
        }
    }
}

#[cold]
fn unknown_var(vars: &VarTable, slot: Slot) -> ExprError {
    ExprError::UnknownVar(vars.name(slot).to_string())
}

/// `-a` in C arithmetic: `-i64::MIN` is [`ExprError::Overflow`].
#[inline(always)]
fn neg(a: i64) -> Result<i64, ExprError> {
    a.checked_neg().ok_or(ExprError::Overflow)
}

/// A binary operator of either expression kind; comparisons yield 0 or 1.
#[derive(Clone, Copy)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// `a op b` in C arithmetic, with the behaviour C leaves undefined
    /// (a result outside `i64`, `i64::MIN / -1`, `i64::MIN % -1`)
    /// reported as [`ExprError::Overflow`]; for `Div`/`Rem` the caller has
    /// already rejected `b == 0`. Both evaluators, and the affine forms of
    /// [`crate::nf`], do their arithmetic here.
    #[inline(always)]
    pub(crate) fn apply(self, a: i64, b: i64) -> Result<i64, ExprError> {
        let v = match self {
            BinOp::Add => a.checked_add(b),
            BinOp::Sub => a.checked_sub(b),
            BinOp::Mul => a.checked_mul(b),
            BinOp::Div => a.checked_div(b),
            BinOp::Rem => a.checked_rem(b),
            BinOp::Eq => Some(i64::from(a == b)),
            BinOp::Ne => Some(i64::from(a != b)),
            BinOp::Lt => Some(i64::from(a < b)),
            BinOp::Le => Some(i64::from(a <= b)),
            BinOp::Gt => Some(i64::from(a > b)),
            BinOp::Ge => Some(i64::from(a >= b)),
        };
        v.ok_or(ExprError::Overflow)
    }

    /// Whether the tree walk evaluates the right operand first and
    /// rejects zero before it evaluates the left one.
    fn divides(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }
}

/// One step of a compiled program, over a stack of `i64` operands
/// (conditions are 0 or 1).
#[derive(Clone)]
enum Op {
    /// Push a leaf.
    Push(Operand),
    /// Push `a op b` of two leaves — `rank == var`, `rank + 1` — in one
    /// step, reading them in the tree walk's order.
    Leaves(BinOp, Operand, Operand),
    /// Pop two operands and push their combination. The right operand is on
    /// top, except for `Div`/`Rem`, whose divisor was pushed (and checked
    /// by `NonZero`) before the dividend.
    Apply(BinOp),
    /// Fail with `DivByZero` if the top operand, a divisor, is zero.
    NonZero,
    Neg,
    Not,
    /// Short-circuit `&&`: if the top is false, jump to the target keeping
    /// it as the result; otherwise pop it and go on to the right operand.
    JumpIfFalse(u32),
    /// Short-circuit `||`, symmetrically.
    JumpIfTrue(u32),
    Int(Arc<dyn Fn(&EvalEnv) -> i64 + Send + Sync>),
    Bool(Arc<dyn Fn(&EvalEnv) -> bool + Send + Sync>),
}

/// A flattened expression. The commonest clauses are a single leaf or a
/// single operation on two leaves; those run without the operand stack.
#[derive(Clone)]
enum Program {
    Leaf(Operand),
    Leaves(BinOp, Operand, Operand),
    Code { code: Box<[Op]>, depth: usize },
}

/// Builds a [`Program`], tracking the stack height as it emits.
struct Compiler<'v> {
    vars: &'v mut VarTable,
    code: Vec<Op>,
    height: usize,
    depth: usize,
}

impl<'v> Compiler<'v> {
    fn new(vars: &'v mut VarTable) -> Self {
        Compiler {
            vars,
            code: Vec::new(),
            height: 0,
            depth: 0,
        }
    }

    fn emit(&mut self, op: Op) {
        match op {
            Op::Push(_) | Op::Leaves(..) | Op::Int(_) | Op::Bool(_) => {
                self.height += 1;
                self.depth = self.depth.max(self.height);
            }
            Op::Apply(_) => self.height -= 1,
            // A jump's fall-through pops; the right operand pushes back.
            Op::JumpIfFalse(_) | Op::JumpIfTrue(_) => self.height -= 1,
            Op::NonZero | Op::Neg | Op::Not => {}
        }
        self.code.push(op);
    }

    fn finish(self) -> Program {
        debug_assert_eq!(self.height, 1, "a program leaves one result");
        match self.code[..] {
            [Op::Push(x)] => Program::Leaf(x),
            [Op::Leaves(op, a, b)] => Program::Leaves(op, a, b),
            _ => Program::Code {
                code: self.code.into_boxed_slice(),
                depth: self.depth,
            },
        }
    }

    fn binary(&mut self, op: BinOp, a: &RankExpr, b: &RankExpr) {
        if Operand::is_leaf(a) && Operand::is_leaf(b) {
            let x = Operand::of(a, self.vars).expect("leaf");
            let y = Operand::of(b, self.vars).expect("leaf");
            self.emit(Op::Leaves(op, x, y));
        } else if op.divides() {
            self.expr(b);
            self.emit(Op::NonZero);
            self.expr(a);
            self.emit(Op::Apply(op));
        } else {
            self.expr(a);
            self.expr(b);
            self.emit(Op::Apply(op));
        }
    }

    fn expr(&mut self, e: &RankExpr) {
        if let Some(leaf) = Operand::of(e, self.vars) {
            return self.emit(Op::Push(leaf));
        }
        match e {
            RankExpr::Add(a, b) => self.binary(BinOp::Add, a, b),
            RankExpr::Sub(a, b) => self.binary(BinOp::Sub, a, b),
            RankExpr::Mul(a, b) => self.binary(BinOp::Mul, a, b),
            RankExpr::Div(a, b) => self.binary(BinOp::Div, a, b),
            RankExpr::Mod(a, b) => self.binary(BinOp::Rem, a, b),
            RankExpr::Neg(a) => {
                self.expr(a);
                self.emit(Op::Neg);
            }
            RankExpr::Opaque(f, _) => self.emit(Op::Int(f.clone())),
            RankExpr::Rank | RankExpr::NRanks | RankExpr::Const(_) | RankExpr::Var(_) => {
                unreachable!("leaves are handled above")
            }
        }
    }

    fn cond(&mut self, c: &CondExpr) {
        match c {
            CondExpr::True => self.emit(Op::Push(Operand::Const(1))),
            CondExpr::False => self.emit(Op::Push(Operand::Const(0))),
            CondExpr::Eq(a, b) => self.binary(BinOp::Eq, a, b),
            CondExpr::Ne(a, b) => self.binary(BinOp::Ne, a, b),
            CondExpr::Lt(a, b) => self.binary(BinOp::Lt, a, b),
            CondExpr::Le(a, b) => self.binary(BinOp::Le, a, b),
            CondExpr::Gt(a, b) => self.binary(BinOp::Gt, a, b),
            CondExpr::Ge(a, b) => self.binary(BinOp::Ge, a, b),
            CondExpr::And(a, b) => self.short_circuit(a, b, Op::JumpIfFalse),
            CondExpr::Or(a, b) => self.short_circuit(a, b, Op::JumpIfTrue),
            CondExpr::Not(a) => {
                self.cond(a);
                self.emit(Op::Not);
            }
            CondExpr::Opaque(f, _) => self.emit(Op::Bool(f.clone())),
        }
    }

    fn short_circuit(&mut self, a: &CondExpr, b: &CondExpr, jump: fn(u32) -> Op) {
        self.cond(a);
        let at = self.code.len();
        self.emit(jump(0));
        self.cond(b);
        let end = self.code.len() as u32;
        self.code[at] = jump(end);
    }
}

/// `a op b` of two leaves, read in the tree walk's order.
#[inline(always)]
fn leaves(op: BinOp, a: Operand, b: Operand, env: &EvalEnv) -> Result<i64, ExprError> {
    if op.divides() {
        let d = b.read(env)?;
        if d == 0 {
            return Err(ExprError::DivByZero);
        }
        op.apply(a.read(env)?, d)
    } else {
        let x = a.read(env)?;
        op.apply(x, b.read(env)?)
    }
}

impl Program {
    /// Operand stack depth `run` needs.
    fn depth(&self) -> usize {
        match self {
            Program::Leaf(_) | Program::Leaves(..) => 0,
            Program::Code { depth, .. } => *depth,
        }
    }

    /// Run over `stack`, which must hold at least `depth` operands.
    #[inline(always)]
    fn run(&self, env: &EvalEnv, stack: &mut [i64]) -> Result<i64, ExprError> {
        match self {
            Program::Leaf(x) => x.read(env),
            Program::Leaves(op, a, b) => leaves(*op, *a, *b, env),
            Program::Code { code, .. } => run_code(code, env, stack),
        }
    }
}

/// Run a multi-step program over `stack`.
fn run_code(code: &[Op], env: &EvalEnv, stack: &mut [i64]) -> Result<i64, ExprError> {
    let mut sp = 0;
    let mut pc = 0;
    while let Some(op) = code.get(pc) {
        pc += 1;
        match op {
            Op::Push(x) => {
                stack[sp] = x.read(env)?;
                sp += 1;
            }
            Op::Leaves(op, a, b) => {
                stack[sp] = leaves(*op, *a, *b, env)?;
                sp += 1;
            }
            Op::Apply(op) => {
                sp -= 1;
                let (top, below) = (stack[sp], stack[sp - 1]);
                stack[sp - 1] = if op.divides() {
                    op.apply(top, below)?
                } else {
                    op.apply(below, top)?
                };
            }
            Op::NonZero => {
                if stack[sp - 1] == 0 {
                    return Err(ExprError::DivByZero);
                }
            }
            Op::Neg => stack[sp - 1] = neg(stack[sp - 1])?,
            Op::Not => stack[sp - 1] = i64::from(stack[sp - 1] == 0),
            Op::JumpIfFalse(to) => {
                if stack[sp - 1] == 0 {
                    pc = *to as usize;
                } else {
                    sp -= 1;
                }
            }
            Op::JumpIfTrue(to) => {
                if stack[sp - 1] != 0 {
                    pc = *to as usize;
                } else {
                    sp -= 1;
                }
            }
            Op::Int(f) => {
                stack[sp] = f(env);
                sp += 1;
            }
            Op::Bool(f) => {
                stack[sp] = i64::from(f(env));
                sp += 1;
            }
        }
    }
    Ok(stack[0])
}

/// A [`RankExpr`] compiled by [`RankExpr::compile`]: evaluates exactly
/// like the tree walk, reading variables by slot, with no allocation.
#[derive(Clone)]
pub struct CompiledExpr(Program);

impl CompiledExpr {
    /// Operand stack depth [`CompiledExpr::eval`] needs.
    pub fn depth(&self) -> usize {
        self.0.depth()
    }

    /// Evaluate under `env`, whose variables must be the table this was
    /// compiled against (or a clone of it, later bindings allowed).
    /// `scratch` must hold at least [`CompiledExpr::depth`] operands.
    #[inline]
    pub fn eval(&self, env: &EvalEnv, scratch: &mut [i64]) -> Result<i64, ExprError> {
        self.0.run(env, scratch)
    }
}

/// A [`CondExpr`] compiled by [`CondExpr::compile`]; see [`CompiledExpr`].
#[derive(Clone)]
pub struct CompiledCond(Program);

impl CompiledCond {
    /// Operand stack depth [`CompiledCond::eval`] needs.
    pub fn depth(&self) -> usize {
        self.0.depth()
    }

    /// Evaluate under `env`; the contract of [`CompiledExpr::eval`].
    #[inline]
    pub fn eval(&self, env: &EvalEnv, scratch: &mut [i64]) -> Result<bool, ExprError> {
        self.0.run(env, scratch).map(|v| v != 0)
    }
}

impl RankExpr {
    /// Compile against `vars`, reserving an unbound slot for every name
    /// not bound yet.
    pub fn compile(&self, vars: &mut VarTable) -> CompiledExpr {
        let mut c = Compiler::new(vars);
        c.expr(self);
        CompiledExpr(c.finish())
    }
}

impl CondExpr {
    /// Compile against `vars`; see [`RankExpr::compile`].
    pub fn compile(&self, vars: &mut VarTable) -> CompiledCond {
        let mut c = Compiler::new(vars);
        c.cond(self);
        CompiledCond(c.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(rank: i64, nranks: i64) -> EvalEnv {
        EvalEnv {
            rank,
            nranks,
            vars: Default::default(),
        }
    }

    #[test]
    fn ring_expressions() {
        // prev = (rank-1+nprocs)%nprocs ; next = (rank+1)%nprocs (Listing 1)
        let prev = (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks();
        let next = (RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks();
        let e = env(0, 4);
        assert_eq!(prev.eval(&e).unwrap(), 3);
        assert_eq!(next.eval(&e).unwrap(), 1);
        let e = env(3, 4);
        assert_eq!(prev.eval(&e).unwrap(), 2);
        assert_eq!(next.eval(&e).unwrap(), 0);
    }

    #[test]
    fn even_odd_conditions() {
        // sendwhen(rank%2==0) receivewhen(rank%2==1) (Listing 2)
        let sendwhen = (RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0));
        let recvwhen = (RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(1));
        assert!(sendwhen.eval(&env(0, 8)).unwrap());
        assert!(!sendwhen.eval(&env(1, 8)).unwrap());
        assert!(recvwhen.eval(&env(1, 8)).unwrap());
        assert!(!recvwhen.eval(&env(2, 8)).unwrap());
    }

    #[test]
    fn variables_and_errors() {
        let e = RankExpr::var("from_rank");
        assert_eq!(
            e.eval(&env(0, 2)).unwrap_err(),
            ExprError::UnknownVar("from_rank".to_string())
        );
        let mut en = env(0, 2);
        en.set("from_rank", 5);
        assert_eq!(e.eval(&en).unwrap(), 5);

        let div = RankExpr::rank() / RankExpr::lit(0);
        assert_eq!(div.eval(&env(1, 2)).unwrap_err(), ExprError::DivByZero);
        let md = RankExpr::rank() % RankExpr::lit(0);
        assert_eq!(md.eval(&env(1, 2)).unwrap_err(), ExprError::DivByZero);
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let e = env(1, 2);
        let max = || RankExpr::lit(i64::MAX);
        let min = || RankExpr::lit(i64::MIN);
        for overflowing in [
            max() + RankExpr::rank(),
            min() - RankExpr::rank(),
            max() * RankExpr::nranks(),
            min() / -RankExpr::rank(),
            min() % -RankExpr::rank(),
            -min(),
        ] {
            assert_eq!(
                overflowing.eval(&e),
                Err(ExprError::Overflow),
                "{overflowing}"
            );
            let mut vars = VarTable::default();
            let program = overflowing.compile(&mut vars);
            let mut scratch = vec![0; program.depth()];
            assert_eq!(program.eval(&e, &mut scratch), Err(ExprError::Overflow));
        }
        // In range, the checked operations are the ordinary ones.
        assert_eq!((max() - RankExpr::rank()).eval(&e), Ok(i64::MAX - 1));
        assert_eq!((min() % RankExpr::nranks()).eval(&e), Ok(0));
    }

    #[test]
    fn c_modulo_semantics() {
        // (rank-1) % n is negative for rank 0 in C; the paper's Listing 1
        // therefore adds nprocs first. Verify we reproduce C semantics.
        let e = (RankExpr::rank() - RankExpr::lit(1)) % RankExpr::nranks();
        assert_eq!(e.eval(&env(0, 4)).unwrap(), -1);
    }

    #[test]
    fn display_renders_c_like() {
        let next = (RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks();
        assert_eq!(next.to_string(), "((rank+1)%nprocs)");
        let c = (RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0));
        assert_eq!(c.to_string(), "((rank%2)==0)");
    }

    #[test]
    fn opaque_exprs_evaluate_and_flag() {
        let e = RankExpr::opaque("twice_rank", |env| env.rank * 2);
        assert_eq!(e.eval(&env(3, 8)).unwrap(), 6);
        assert!(e.has_opaque());
        assert!(!(RankExpr::rank() + RankExpr::lit(1)).has_opaque());
        let c = CondExpr::opaque("is_root", |env| env.rank == 0);
        assert!(c.eval(&env(0, 8)).unwrap());
        assert!(c.has_opaque());
        assert_eq!(e.to_string(), "<twice_rank>");
    }

    #[test]
    fn free_vars_collected() {
        let e = RankExpr::var("n") * RankExpr::var("m") + RankExpr::var("n");
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["n".to_string(), "m".to_string()]);

        let c = RankExpr::var("root").eq(RankExpr::rank());
        let mut vars = Vec::new();
        c.free_vars(&mut vars);
        assert_eq!(vars, vec!["root".to_string()]);
    }

    #[test]
    fn boolean_combinators() {
        let a = RankExpr::rank().lt(RankExpr::lit(4));
        let b = RankExpr::rank().ge(RankExpr::lit(2));
        let both = a.clone().and(b.clone());
        assert!(both.eval(&env(3, 8)).unwrap());
        assert!(!both.eval(&env(5, 8)).unwrap());
        let either = a.or(b);
        assert!(either.eval(&env(5, 8)).unwrap());
        assert!(!CondExpr::True.not().eval(&env(0, 1)).unwrap());
    }

    #[test]
    fn reserved_slots_are_invisible_until_bound() {
        let mut t = VarTable::default();
        t.set("a", 1);
        let late = t.slot("late");
        assert_eq!(t.value(late), None);
        assert_eq!(t.get("late"), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t, [("a".to_string(), 1)].into_iter().collect());
        assert_eq!(format!("{t:?}"), r#"VarTable([("a", 1)])"#);
        // Bound after `b`, so it is listed after `b` although its slot is
        // older.
        t.set("b", 2);
        t.set("late", 3);
        assert_eq!(t.value(late), Some(3));
        assert_eq!(t.slot("late"), late);
        let listed: Vec<_> = t.iter().collect();
        assert_eq!(listed, vec![("a", 1), ("b", 2), ("late", 3)]);
    }

    #[test]
    fn equality_is_structural() {
        let (rank, lit, var) = (RankExpr::rank, RankExpr::lit, RankExpr::var);
        let ring = || (rank() + lit(1)) % RankExpr::nranks();
        assert_eq!(ring(), ring());
        assert_ne!(ring(), (rank() + lit(2)) % RankExpr::nranks());
        assert_ne!(ring(), (rank() - lit(1)) % RankExpr::nranks());
        assert_ne!(var("a"), var("b"));
        assert_ne!(rank(), RankExpr::nranks());
        let when = || rank().eq(var("a")).and(RankExpr::nranks().gt(lit(2)));
        assert_eq!(when(), when());
        assert_ne!(
            when(),
            rank().eq(var("a")).or(RankExpr::nranks().gt(lit(2)))
        );
        assert_ne!(rank().eq(var("a")), rank().ne(var("a")));
        assert_ne!(CondExpr::True, CondExpr::False);
        // An opaque closure equals only itself, whatever it computes.
        let f = RankExpr::opaque("f", |env| env.rank);
        assert_eq!(f, f.clone());
        assert_ne!(f, RankExpr::opaque("f", |env| env.rank));
        let p = CondExpr::opaque("p", |_| true);
        assert_eq!(p, p.clone());
        assert_ne!(p, CondExpr::opaque("p", |_| true));
    }

    #[test]
    fn compiled_matches_tree_walk() {
        let exprs = [
            (RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks(),
            RankExpr::var("x") / RankExpr::var("y"),
            RankExpr::var("unbound") / RankExpr::lit(0),
            RankExpr::lit(i64::MIN) / -RankExpr::lit(1),
            RankExpr::lit(i64::MIN) % (RankExpr::var("x") - RankExpr::lit(6)),
            -(RankExpr::var("x") * RankExpr::var("unbound")),
            RankExpr::opaque("x_plus_rank", |env| {
                env.vars.get("x").unwrap_or(0) + env.rank
            }),
        ];
        let conds = [
            RankExpr::rank().eq(RankExpr::var("x")),
            RankExpr::rank()
                .lt(RankExpr::lit(3))
                .and(RankExpr::var("unbound").eq(RankExpr::lit(0))),
            RankExpr::rank()
                .ge(RankExpr::lit(3))
                .or((RankExpr::rank() % RankExpr::lit(0)).eq(RankExpr::lit(0)))
                .not(),
            CondExpr::opaque("x_set", |env| env.vars.get("x").is_some()),
        ];
        for rank in 0..6 {
            let mut env = EvalEnv::new(rank, 6).with("x", 5).with("y", 0);
            let mut vars = env.vars.clone();
            let compiled: Vec<_> = exprs.iter().map(|e| e.compile(&mut vars)).collect();
            let ccompiled: Vec<_> = conds.iter().map(|c| c.compile(&mut vars)).collect();
            env.vars = vars;
            let mut scratch = [0i64; 8];
            for (e, p) in exprs.iter().zip(&compiled) {
                assert_eq!(p.eval(&env, &mut scratch), e.eval(&env), "{e}");
            }
            for (c, p) in conds.iter().zip(&ccompiled) {
                assert_eq!(p.eval(&env, &mut scratch), c.eval(&env), "{c}");
            }
        }
    }
}
