//! Affine-congruence normal form for clause expressions.
//!
//! The paper's clause expressions are overwhelmingly *affine-plus-modular*
//! in `rank` and `nprocs`: `sender(rank-1)`, `receiver((rank+1)%nprocs)`,
//! `sendwhen(rank%2==0)`. This module normalizes [`RankExpr`] /
//! [`CondExpr`] trees into a closed normal form —
//!
//! ```text
//! NormExpr ::= a·rank + n·nprocs + c                  (Lin)
//!            | (a·rank + n·nprocs + c) mod m          (Mod), m = k or nprocs+k
//!            | (a·rank + n·nprocs + c) div k          (Div), constant k
//! NormCond ::= true | false | NormExpr ⋈ NormExpr | ∧ | ∨ | ¬
//! ```
//!
//! — or reports *why* an expression falls outside the class
//! ([`NormErr`]: opaque host code, unbound variables, non-affine shapes).
//! Arithmetic uses C semantics throughout (`%` keeps the dividend's sign,
//! `/` truncates toward zero), matching [`RankExpr::eval`] exactly.
//!
//! From a normal form, [`ClassParams`] extracts the two numbers the
//! parametric verifier (`commprove`) case-splits on: the **period**
//! `lcm` — the least common multiple of every constant modulus, divisor
//! and rank coefficient, so that middle-rank behaviour is a function of
//! `rank mod lcm` and the communicator-size dependence has period `lcm`
//! in `nprocs` — and the **boundary** width, a conservative bound on how
//! far from rank 0 and rank N-1 the "special" ranks can reach.

use std::fmt;

use crate::expr::{CondExpr, RankExpr, VarTable};

/// `a·rank + n·nprocs + c`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinForm {
    /// Coefficient of `rank`.
    pub a: i64,
    /// Coefficient of `nprocs`.
    pub n: i64,
    /// Constant term (bound variables are substituted into it).
    pub c: i64,
}

impl LinForm {
    /// A constant.
    pub const fn konst(c: i64) -> LinForm {
        LinForm { a: 0, n: 0, c }
    }

    /// Whether the form is a constant (no `rank` / `nprocs` dependence).
    pub fn is_const(&self) -> bool {
        self.a == 0 && self.n == 0
    }

    fn add(self, o: LinForm) -> Result<LinForm, NormErr> {
        Ok(LinForm {
            a: self.a.checked_add(o.a).ok_or(NormErr::Overflow)?,
            n: self.n.checked_add(o.n).ok_or(NormErr::Overflow)?,
            c: self.c.checked_add(o.c).ok_or(NormErr::Overflow)?,
        })
    }

    fn neg(self) -> Result<LinForm, NormErr> {
        Ok(LinForm {
            a: self.a.checked_neg().ok_or(NormErr::Overflow)?,
            n: self.n.checked_neg().ok_or(NormErr::Overflow)?,
            c: self.c.checked_neg().ok_or(NormErr::Overflow)?,
        })
    }

    fn scale(self, k: i64) -> Result<LinForm, NormErr> {
        Ok(LinForm {
            a: self.a.checked_mul(k).ok_or(NormErr::Overflow)?,
            n: self.n.checked_mul(k).ok_or(NormErr::Overflow)?,
            c: self.c.checked_mul(k).ok_or(NormErr::Overflow)?,
        })
    }

    /// Multiply by a constant (extent arithmetic: an element count scaled
    /// by the element size gives the byte extent of a remote access
    /// interval `[base, base + count·elem)`). `None` on coefficient
    /// overflow.
    pub fn scaled(self, k: i64) -> Option<LinForm> {
        self.scale(k).ok()
    }

    /// Evaluate at a concrete `(rank, nprocs)` in checked arithmetic, like
    /// [`RankExpr::eval`]; `None` if a term or the sum leaves `i64`.
    pub fn eval(&self, rank: i64, nranks: i64) -> Option<i64> {
        self.a
            .checked_mul(rank)?
            .checked_add(self.n.checked_mul(nranks)?)?
            .checked_add(self.c)
    }
}

impl fmt::Display for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut term = |f: &mut fmt::Formatter<'_>, coef: i64, name: &str| -> fmt::Result {
            if coef == 0 {
                return Ok(());
            }
            if first {
                first = false;
                if coef == -1 {
                    write!(f, "-{name}")?;
                } else if coef == 1 {
                    write!(f, "{name}")?;
                } else {
                    write!(f, "{coef}*{name}")?;
                }
            } else if coef < 0 {
                if coef == -1 {
                    write!(f, "-{name}")?;
                } else {
                    write!(f, "{}*{name}", coef)?;
                }
            } else if coef == 1 {
                write!(f, "+{name}")?;
            } else {
                write!(f, "+{coef}*{name}")?;
            }
            Ok(())
        };
        term(f, self.a, "rank")?;
        term(f, self.n, "nprocs")?;
        if self.c != 0 || first {
            if first || self.c < 0 {
                write!(f, "{}", self.c)?;
            } else {
                write!(f, "+{}", self.c)?;
            }
        }
        Ok(())
    }
}

/// The modulus of a [`NormExpr::Mod`]: a non-zero constant, or
/// `nprocs + k` (the communicator size itself when `k = 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModForm {
    /// A constant modulus `k != 0`.
    Const(i64),
    /// `nprocs + k`.
    NProcs(i64),
}

impl fmt::Display for ModForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModForm::Const(k) => write!(f, "{k}"),
            ModForm::NProcs(0) => write!(f, "nprocs"),
            ModForm::NProcs(k) if *k < 0 => write!(f, "nprocs{k}"),
            ModForm::NProcs(k) => write!(f, "nprocs+{k}"),
        }
    }
}

/// An integer clause expression in affine-congruence normal form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NormExpr {
    /// `a·rank + n·nprocs + c`.
    Lin(LinForm),
    /// `(a·rank + n·nprocs + c) % m`, C remainder semantics.
    Mod(LinForm, ModForm),
    /// `(a·rank + n·nprocs + c) / k`, C truncation, constant `k != 0`.
    Div(LinForm, i64),
}

impl NormExpr {
    /// Evaluate at a concrete `(rank, nprocs)` in checked arithmetic.
    /// `None` when the modulus or divisor evaluates to zero (matching
    /// [`crate::expr::ExprError::DivByZero`]) or a value leaves `i64`
    /// ([`crate::expr::ExprError::Overflow`]).
    pub fn eval(&self, rank: i64, nranks: i64) -> Option<i64> {
        match self {
            NormExpr::Lin(l) => l.eval(rank, nranks),
            NormExpr::Mod(l, m) => {
                let m = match m {
                    ModForm::Const(k) => *k,
                    ModForm::NProcs(k) => nranks.checked_add(*k)?,
                };
                l.eval(rank, nranks)?.checked_rem(m)
            }
            NormExpr::Div(l, k) => l.eval(rank, nranks)?.checked_div(*k),
        }
    }

    fn lin(&self) -> Result<LinForm, NormErr> {
        match self {
            NormExpr::Lin(l) => Ok(*l),
            _ => Err(NormErr::NonAffine(
                "mod/div term used inside further arithmetic".into(),
            )),
        }
    }

    /// Scale the whole expression by a constant `k > 0`. Multiplication
    /// distributes over an affine form but not over `mod`/`div` remainders,
    /// so those (and overflow) yield `None`. Used by the race analysis to
    /// turn an element-count normal form into a byte-extent normal form.
    pub fn scaled(&self, k: i64) -> Option<NormExpr> {
        match self {
            NormExpr::Lin(l) => l.scaled(k).map(NormExpr::Lin),
            NormExpr::Mod(..) | NormExpr::Div(..) => None,
        }
    }
}

impl fmt::Display for NormExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormExpr::Lin(l) => write!(f, "{l}"),
            NormExpr::Mod(l, m) => write!(f, "({l}) mod {m}"),
            NormExpr::Div(l, k) => write!(f, "({l}) div {k}"),
        }
    }
}

/// Comparison operator of a [`NormCond::Cmp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply to concrete values.
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The C-like operator token.
    pub fn token(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A boolean clause expression in normal form: comparisons between
/// normalized integer expressions under boolean combinators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormCond {
    /// Constant truth value.
    Bool(bool),
    /// `lhs ⋈ rhs`.
    Cmp(CmpOp, NormExpr, NormExpr),
    And(Box<NormCond>, Box<NormCond>),
    Or(Box<NormCond>, Box<NormCond>),
    Not(Box<NormCond>),
}

impl NormCond {
    /// Evaluate at a concrete `(rank, nprocs)`; `None` on division by zero
    /// or overflow.
    pub fn eval(&self, rank: i64, nranks: i64) -> Option<bool> {
        match self {
            NormCond::Bool(b) => Some(*b),
            NormCond::Cmp(op, a, b) => Some(op.apply(a.eval(rank, nranks)?, b.eval(rank, nranks)?)),
            NormCond::And(a, b) => Some(a.eval(rank, nranks)? && b.eval(rank, nranks)?),
            NormCond::Or(a, b) => Some(a.eval(rank, nranks)? || b.eval(rank, nranks)?),
            NormCond::Not(a) => Some(!a.eval(rank, nranks)?),
        }
    }
}

impl fmt::Display for NormCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormCond::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            NormCond::Cmp(op, a, b) => write!(f, "({a}) {} ({b})", op.token()),
            NormCond::And(a, b) => write!(f, "({a} && {b})"),
            NormCond::Or(a, b) => write!(f, "({a} || {b})"),
            NormCond::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// Why an expression falls outside the affine-congruence class. The
/// verifier degrades to the concrete sweep when it sees one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormErr {
    /// Opaque host code (a Rust closure) — unresolvable without execution.
    Opaque(&'static str),
    /// A variable with no binding at analysis time.
    UnboundVar(String),
    /// A shape the normal form cannot express (nonlinear products, nested
    /// mod/div, non-constant divisors, ...).
    NonAffine(String),
    /// A constant zero modulus or divisor (always a runtime error).
    ZeroDivisor,
    /// Coefficient arithmetic overflowed i64.
    Overflow,
}

impl fmt::Display for NormErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormErr::Opaque(label) => write!(f, "opaque host code `<{label}>`"),
            NormErr::UnboundVar(v) => write!(f, "unbound variable `{v}`"),
            NormErr::NonAffine(why) => write!(f, "not affine-congruence: {why}"),
            NormErr::ZeroDivisor => write!(f, "constant zero modulus/divisor"),
            NormErr::Overflow => write!(f, "coefficient overflow"),
        }
    }
}

impl std::error::Error for NormErr {}

/// Normalize an integer clause expression, substituting `vars` as
/// constants.
pub fn normalize_expr(e: &RankExpr, vars: &VarTable) -> Result<NormExpr, NormErr> {
    Ok(match e {
        RankExpr::Rank => NormExpr::Lin(LinForm { a: 1, n: 0, c: 0 }),
        RankExpr::NRanks => NormExpr::Lin(LinForm { a: 0, n: 1, c: 0 }),
        RankExpr::Const(v) => NormExpr::Lin(LinForm::konst(*v)),
        RankExpr::Var(name) => NormExpr::Lin(LinForm::konst(
            vars.get(name)
                .ok_or_else(|| NormErr::UnboundVar(name.to_string()))?,
        )),
        RankExpr::Add(a, b) => NormExpr::Lin(
            normalize_expr(a, vars)?
                .lin()?
                .add(normalize_expr(b, vars)?.lin()?)?,
        ),
        RankExpr::Sub(a, b) => NormExpr::Lin(
            normalize_expr(a, vars)?
                .lin()?
                .add(normalize_expr(b, vars)?.lin()?.neg()?)?,
        ),
        RankExpr::Neg(a) => NormExpr::Lin(normalize_expr(a, vars)?.lin()?.neg()?),
        RankExpr::Mul(a, b) => {
            let (a, b) = (
                normalize_expr(a, vars)?.lin()?,
                normalize_expr(b, vars)?.lin()?,
            );
            if a.is_const() {
                NormExpr::Lin(b.scale(a.c)?)
            } else if b.is_const() {
                NormExpr::Lin(a.scale(b.c)?)
            } else {
                return Err(NormErr::NonAffine("product of two non-constants".into()));
            }
        }
        RankExpr::Div(a, b) => {
            let num = normalize_expr(a, vars)?.lin()?;
            let den = normalize_expr(b, vars)?.lin()?;
            if !den.is_const() {
                return Err(NormErr::NonAffine("non-constant divisor".into()));
            }
            if den.c == 0 {
                return Err(NormErr::ZeroDivisor);
            }
            if num.is_const() {
                NormExpr::Lin(LinForm::konst(
                    num.c.checked_div(den.c).ok_or(NormErr::Overflow)?,
                ))
            } else {
                NormExpr::Div(num, den.c)
            }
        }
        RankExpr::Mod(a, b) => {
            let num = normalize_expr(a, vars)?.lin()?;
            let den = normalize_expr(b, vars)?.lin()?;
            let m = if den.is_const() {
                if den.c == 0 {
                    return Err(NormErr::ZeroDivisor);
                }
                ModForm::Const(den.c)
            } else if den.a == 0 && den.n == 1 {
                // The middle-breakpoint class `(a·rank) mod nprocs` with
                // |a| > 1 wraps at rank ≈ N/a — a cut that *moves* with N
                // and defeats the boundary-anchoring argument. Only unit
                // rank coefficients are admitted under a size-linear
                // modulus.
                if num.a.abs() > 1 {
                    return Err(NormErr::NonAffine(
                        "rank coefficient with |a| > 1 under a nprocs-linear modulus".into(),
                    ));
                }
                ModForm::NProcs(den.c)
            } else {
                return Err(NormErr::NonAffine(
                    "modulus neither constant nor nprocs-linear".into(),
                ));
            };
            if num.is_const() {
                if let ModForm::Const(k) = m {
                    return Ok(NormExpr::Lin(LinForm::konst(
                        num.c.checked_rem(k).ok_or(NormErr::Overflow)?,
                    )));
                }
            }
            NormExpr::Mod(num, m)
        }
        RankExpr::Opaque(_, label) => return Err(NormErr::Opaque(label)),
    })
}

/// Normalize a boolean clause expression, substituting `vars`.
pub fn normalize_cond(c: &CondExpr, vars: &VarTable) -> Result<NormCond, NormErr> {
    let cmp = |op: CmpOp, a: &RankExpr, b: &RankExpr| -> Result<NormCond, NormErr> {
        Ok(NormCond::Cmp(
            op,
            normalize_expr(a, vars)?,
            normalize_expr(b, vars)?,
        ))
    };
    Ok(match c {
        CondExpr::True => NormCond::Bool(true),
        CondExpr::False => NormCond::Bool(false),
        CondExpr::Eq(a, b) => cmp(CmpOp::Eq, a, b)?,
        CondExpr::Ne(a, b) => cmp(CmpOp::Ne, a, b)?,
        CondExpr::Lt(a, b) => cmp(CmpOp::Lt, a, b)?,
        CondExpr::Le(a, b) => cmp(CmpOp::Le, a, b)?,
        CondExpr::Gt(a, b) => cmp(CmpOp::Gt, a, b)?,
        CondExpr::Ge(a, b) => cmp(CmpOp::Ge, a, b)?,
        CondExpr::And(a, b) => NormCond::And(
            Box::new(normalize_cond(a, vars)?),
            Box::new(normalize_cond(b, vars)?),
        ),
        CondExpr::Or(a, b) => NormCond::Or(
            Box::new(normalize_cond(a, vars)?),
            Box::new(normalize_cond(b, vars)?),
        ),
        CondExpr::Not(a) => NormCond::Not(Box::new(normalize_cond(a, vars)?)),
        CondExpr::Opaque(_, label) => return Err(NormErr::Opaque(label)),
    })
}

/// Largest case-split period the verifier accepts; above this the spec is
/// treated as outside the decidable class (the sweep takes over).
pub const LCM_CAP: u64 = 512;

/// The two case-split parameters extracted from a set of normal forms.
///
/// * `lcm` — period: middle-rank behaviour is a function of `rank mod lcm`,
///   and for `N` above the threshold the verdict of every lint property is
///   a function of `N mod lcm` (see DESIGN.md §6d for the argument).
/// * `boundary` — how far the "special" ranks reach from rank 0 and rank
///   N-1: a conservative sum of every constant offset, modulus and
///   comparison constant in the forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassParams {
    /// Case-split period (`>= 1`; saturates at `LCM_CAP + 1` = ineligible).
    pub lcm: u64,
    /// Boundary width (saturating).
    pub boundary: u64,
}

impl Default for ClassParams {
    fn default() -> Self {
        ClassParams {
            lcm: 1,
            boundary: 0,
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl ClassParams {
    /// Join two parameter sets: lcm of the periods (capped) and *sum* of
    /// the boundaries, so independent offsets cannot mask each other.
    pub fn join(self, o: ClassParams) -> ClassParams {
        let l = if self.lcm == 0 || o.lcm == 0 {
            1
        } else {
            let g = gcd(self.lcm, o.lcm);
            (self.lcm / g).saturating_mul(o.lcm)
        };
        ClassParams {
            lcm: l.min(LCM_CAP + 1),
            boundary: self.boundary.saturating_add(o.boundary),
        }
    }

    /// Whether the period stayed under [`LCM_CAP`].
    pub fn eligible(&self) -> bool {
        self.lcm <= LCM_CAP
    }

    fn of_lin(l: &LinForm) -> ClassParams {
        ClassParams {
            // A rank coefficient |a| > 1 strides the rank space; fold it
            // into the period so residue classes of rank (and of N) cover
            // the stride pattern.
            lcm: (l.a.unsigned_abs()).max(1),
            boundary: l
                .a
                .unsigned_abs()
                .saturating_add(l.n.unsigned_abs())
                .saturating_add(l.c.unsigned_abs()),
        }
    }

    /// Parameters of one normalized integer expression.
    pub fn of_expr(e: &NormExpr) -> ClassParams {
        match e {
            NormExpr::Lin(l) => Self::of_lin(l),
            NormExpr::Mod(l, m) => {
                let inner = Self::of_lin(l);
                let outer = match m {
                    ModForm::Const(k) => ClassParams {
                        lcm: k.unsigned_abs().max(1),
                        boundary: k.unsigned_abs(),
                    },
                    ModForm::NProcs(k) => ClassParams {
                        lcm: 1,
                        boundary: k.unsigned_abs().saturating_add(1),
                    },
                };
                inner.join(outer)
            }
            NormExpr::Div(l, k) => Self::of_lin(l).join(ClassParams {
                lcm: k.unsigned_abs().max(1),
                boundary: k.unsigned_abs(),
            }),
        }
    }

    /// Parameters of one normalized condition.
    pub fn of_cond(c: &NormCond) -> ClassParams {
        match c {
            NormCond::Bool(_) => ClassParams::default(),
            NormCond::Cmp(_, a, b) => Self::of_expr(a).join(Self::of_expr(b)),
            NormCond::And(a, b) | NormCond::Or(a, b) => Self::of_cond(a).join(Self::of_cond(b)),
            NormCond::Not(a) => Self::of_cond(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::EvalEnv;

    fn vt() -> VarTable {
        let mut t = VarTable::default();
        t.set("k", 3);
        t
    }

    #[test]
    fn extent_scaling_distributes_over_affine_forms_only() {
        // count(2*rank + 4) with 8-byte elements: the byte extent is the
        // affine form scaled through, and evaluation commutes.
        let count = RankExpr::lit(2) * RankExpr::rank() + RankExpr::lit(4);
        let nf = normalize_expr(&count, &vt()).unwrap();
        let bytes = nf.scaled(8).expect("affine form scales");
        assert_eq!(bytes, NormExpr::Lin(LinForm { a: 16, n: 0, c: 32 }));
        for rank in 0..6 {
            assert_eq!(bytes.eval(rank, 6), nf.eval(rank, 6).map(|c| c * 8));
        }
        // A remainder does not distribute: (rank mod 3) * 8 != (8*rank) mod 3.
        let modular = normalize_expr(&(RankExpr::rank() % RankExpr::lit(3)), &vt()).unwrap();
        assert_eq!(modular.scaled(8), None);
        // Coefficient overflow is surfaced, not wrapped.
        assert_eq!(LinForm::konst(i64::MAX).scaled(2), None);
    }

    #[test]
    fn ring_normalizes() {
        // (rank-1+nprocs)%nprocs
        let prev = (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks();
        let nf = normalize_expr(&prev, &vt()).unwrap();
        assert_eq!(
            nf,
            NormExpr::Mod(LinForm { a: 1, n: 1, c: -1 }, ModForm::NProcs(0))
        );
        assert_eq!(nf.to_string(), "(rank+nprocs-1) mod nprocs");
        let p = ClassParams::of_expr(&nf);
        assert_eq!(p.lcm, 1);
        assert!(p.eligible());
    }

    #[test]
    fn vars_substitute_and_unbound_reject() {
        let e = RankExpr::rank() + RankExpr::var("k");
        assert_eq!(
            normalize_expr(&e, &vt()).unwrap(),
            NormExpr::Lin(LinForm { a: 1, n: 0, c: 3 })
        );
        let e = RankExpr::rank() + RankExpr::var("mystery");
        assert_eq!(
            normalize_expr(&e, &VarTable::default()),
            Err(NormErr::UnboundVar("mystery".into()))
        );
    }

    #[test]
    fn out_of_class_shapes_reject() {
        let nonlinear = RankExpr::rank() * RankExpr::rank();
        assert!(matches!(
            normalize_expr(&nonlinear, &vt()),
            Err(NormErr::NonAffine(_))
        ));
        let nested = (RankExpr::rank() % RankExpr::lit(2)) + RankExpr::lit(1);
        assert!(matches!(
            normalize_expr(&nested, &vt()),
            Err(NormErr::NonAffine(_))
        ));
        let zero = RankExpr::rank() % RankExpr::lit(0);
        assert_eq!(normalize_expr(&zero, &vt()), Err(NormErr::ZeroDivisor));
        let opaque = RankExpr::opaque("f", |e| e.rank);
        assert_eq!(normalize_expr(&opaque, &vt()), Err(NormErr::Opaque("f")));
        let strided = (RankExpr::lit(2) * RankExpr::rank()) % RankExpr::nranks();
        assert!(matches!(
            normalize_expr(&strided, &vt()),
            Err(NormErr::NonAffine(_))
        ));
    }

    #[test]
    fn normal_form_eval_matches_expr_eval() {
        let exprs = [
            (RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks(),
            (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
            RankExpr::rank() % RankExpr::lit(2),
            (RankExpr::rank() - RankExpr::lit(5)) / RankExpr::lit(2),
            RankExpr::nranks() / RankExpr::lit(2),
            (RankExpr::rank() + RankExpr::lit(1)) % (RankExpr::nranks() - RankExpr::lit(1)),
        ];
        for e in &exprs {
            let nf = normalize_expr(e, &VarTable::default()).unwrap();
            for n in 1..=12i64 {
                for r in 0..n {
                    let env = EvalEnv {
                        rank: r,
                        nranks: n,
                        vars: VarTable::default(),
                    };
                    assert_eq!(
                        e.eval(&env).ok(),
                        nf.eval(r, n),
                        "{e} vs {nf} at rank {r} / {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cond_normalizes_and_evals() {
        let c = (RankExpr::rank() % RankExpr::lit(2))
            .eq(RankExpr::lit(0))
            .and(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(1)));
        let nf = normalize_cond(&c, &vt()).unwrap();
        for n in 2..=8i64 {
            for r in 0..n {
                let env = EvalEnv {
                    rank: r,
                    nranks: n,
                    vars: VarTable::default(),
                };
                assert_eq!(c.eval(&env).ok(), nf.eval(r, n));
            }
        }
        let p = ClassParams::of_cond(&nf);
        assert_eq!(p.lcm, 2);
        assert!(p.boundary >= 2);
    }

    #[test]
    fn params_join_caps() {
        let a = ClassParams {
            lcm: 509,
            boundary: 1,
        }; // prime
        let b = ClassParams {
            lcm: 4,
            boundary: 2,
        };
        let j = a.join(b);
        assert_eq!(j.lcm, LCM_CAP + 1);
        assert!(!j.eligible());
        assert_eq!(j.boundary, 3);
    }
}
