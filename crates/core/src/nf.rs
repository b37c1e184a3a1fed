//! Affine-congruence normal form for clause expressions.
//!
//! The paper's clause expressions are overwhelmingly *affine-plus-modular*
//! in `rank` and `nprocs`: `sender(rank-1)`, `receiver((rank+1)%nprocs)`,
//! `sendwhen(rank%2==0)`. This module lowers [`RankExpr`] /
//! [`CondExpr`] trees into a closed normal form —
//!
//! ```text
//! LinForm  ::= c + a·rank + n·nprocs + Σ k_d·i_d      (loop indices i_0..i_2)
//! NormExpr ::= LinForm                                (Lin)
//!            | LinForm mod m                          (Mod), m = k or nprocs+k
//!            | LinForm div k                          (Div), constant k
//! NormCond ::= true | false | NormExpr ⋈ NormExpr | ∧ | ∨ | ¬
//! ```
//!
//! — or reports *why* an expression falls outside the class
//! ([`NormErr`]: opaque host code, unbound variables, non-affine shapes).
//! Arithmetic uses C semantics throughout (`%` keeps the dividend's sign,
//! `/` truncates toward zero, a result outside `i64` is an overflow): every
//! operation goes through the same [`BinOp::apply`] as [`RankExpr::eval`].
//!
//! One lowering ([`normalize_expr`]) serves two callers, which differ only
//! in their [`Leaves`]: the prover keeps `rank` and `nprocs` symbolic and
//! reads variables from a [`VarTable`], so its forms have no index terms;
//! the loop solver (`scope::loop_form`) fixes `rank` and `nprocs` to the
//! rank's own values and reads loop-bound variables as forms in the
//! indices.
//!
//! From a normal form, [`ClassParams`] extracts the two numbers the
//! parametric verifier (`commprove`) case-splits on: the **period**
//! `lcm` — the least common multiple of every constant modulus, divisor
//! and rank coefficient, so that middle-rank behaviour is a function of
//! `rank mod lcm` and the communicator-size dependence has period `lcm`
//! in `nprocs` — and the **boundary** width, a conservative bound on how
//! far from rank 0 and rank N-1 the "special" ranks can reach.

use std::fmt;

use crate::expr::{BinOp, CondExpr, ExprError, RankExpr, VarTable};

/// Most loop indices a form ranges over.
pub const MAX_DIMS: usize = 3;

/// `c + a·rank + n·nprocs + Σ k[d]·i_d`, the one affine form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinForm {
    /// Coefficient of `rank`.
    pub a: i64,
    /// Coefficient of `nprocs`.
    pub n: i64,
    /// Constant term (bound variables are substituted into it).
    pub c: i64,
    /// Coefficients of the loop indices, `i_0` outermost.
    pub k: [i64; MAX_DIMS],
}

impl LinForm {
    /// `rank`.
    const RANK: LinForm = LinForm {
        a: 1,
        ..LinForm::konst(0)
    };

    /// `nprocs`.
    const NPROCS: LinForm = LinForm {
        n: 1,
        ..LinForm::konst(0)
    };

    /// A constant.
    pub const fn konst(c: i64) -> LinForm {
        LinForm {
            a: 0,
            n: 0,
            c,
            k: [0; MAX_DIMS],
        }
    }

    /// Whether the form is a constant (no `rank`, `nprocs` or index term).
    pub fn is_const(&self) -> bool {
        *self == LinForm::konst(self.c)
    }

    /// Term-wise `self op o` in C arithmetic.
    fn zip(self, o: LinForm, op: BinOp) -> Result<LinForm, NormErr> {
        let mut k = [0; MAX_DIMS];
        for (d, k) in k.iter_mut().enumerate() {
            *k = op.apply(self.k[d], o.k[d])?;
        }
        Ok(LinForm {
            a: op.apply(self.a, o.a)?,
            n: op.apply(self.n, o.n)?,
            c: op.apply(self.c, o.c)?,
            k,
        })
    }

    /// Every term times the constant `s`.
    fn times(self, s: i64) -> Result<LinForm, NormErr> {
        let all = LinForm {
            a: s,
            n: s,
            c: s,
            k: [s; MAX_DIMS],
        };
        self.zip(all, BinOp::Mul)
    }

    /// The value at `(rank, nprocs)` and loop indices `ix` (a missing index
    /// term is dropped), summed left to right from `c` in C arithmetic.
    pub fn at(&self, rank: i64, nprocs: i64, ix: &[i64]) -> Result<i64, ExprError> {
        let ix = self.k.iter().zip(ix).map(|(&k, &i)| (k, i));
        [(self.a, rank), (self.n, nprocs)]
            .into_iter()
            .chain(ix)
            .try_fold(self.c, |v, (k, x)| {
                BinOp::Add.apply(v, BinOp::Mul.apply(k, x)?)
            })
    }
}

impl fmt::Display for LinForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut term = |f: &mut fmt::Formatter<'_>, coef: i64, name: &str| -> fmt::Result {
            if coef == 0 {
                return Ok(());
            }
            let sign = if coef < 0 {
                "-"
            } else if first {
                ""
            } else {
                "+"
            };
            first = false;
            match coef.unsigned_abs() {
                1 => write!(f, "{sign}{name}"),
                mag => write!(f, "{sign}{mag}*{name}"),
            }
        };
        term(f, self.a, "rank")?;
        term(f, self.n, "nprocs")?;
        for (k, name) in self.k.iter().zip(["i0", "i1", "i2"]) {
            term(f, *k, name)?;
        }
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
    /// An affine form.
    Lin(LinForm),
    /// `form % m`, C remainder semantics.
    Mod(LinForm, ModForm),
    /// `form / k`, C truncation, constant `k != 0`.
    Div(LinForm, i64),
}

impl NormExpr {
    /// Evaluate at a concrete `(rank, nprocs)`, with every index term
    /// dropped. `None` when the modulus or divisor evaluates to zero
    /// (matching [`ExprError::DivByZero`]) or a value leaves `i64`
    /// ([`ExprError::Overflow`]).
    pub fn eval(&self, rank: i64, nranks: i64) -> Option<i64> {
        let at = |l: &LinForm| l.at(rank, nranks, &[]).ok();
        match self {
            NormExpr::Lin(l) => at(l),
            NormExpr::Mod(l, m) => {
                let m = match m {
                    ModForm::Const(k) => *k,
                    ModForm::NProcs(k) => BinOp::Add.apply(nranks, *k).ok()?,
                };
                if m == 0 {
                    return None;
                }
                BinOp::Rem.apply(at(l)?, m).ok()
            }
            NormExpr::Div(l, k) => BinOp::Div.apply(at(l)?, *k).ok(),
        }
    }

    fn lin(&self) -> Result<LinForm, NormErr> {
        match self {
            NormExpr::Lin(l) => Ok(*l),
            _ => Err(NormErr::NonAffine(
                "mod/div term used inside further arithmetic",
            )),
        }
    }

    /// Scale the whole expression by a constant `k > 0`. Multiplication
    /// distributes over an affine form but not over `mod`/`div` remainders,
    /// so those (and overflow) yield `None`. Used by the race analysis to
    /// turn an element-count normal form into a byte-extent normal form.
    pub fn scaled(&self, k: i64) -> Option<NormExpr> {
        match self {
            NormExpr::Lin(l) => l.times(k).ok().map(NormExpr::Lin),
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
    NonAffine(&'static str),
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

impl From<ExprError> for NormErr {
    fn from(e: ExprError) -> NormErr {
        match e {
            ExprError::UnknownVar(v) => NormErr::UnboundVar(v),
            ExprError::DivByZero => NormErr::ZeroDivisor,
            ExprError::Overflow => NormErr::Overflow,
        }
    }
}

/// Where [`normalize_expr`] takes an expression's leaves from, and which
/// affine forms it lets a node take.
pub trait Leaves {
    /// The form of `rank`.
    fn rank(&self) -> LinForm;
    /// The form of `nprocs`.
    fn nprocs(&self) -> LinForm;
    /// The form of the variable `name`.
    fn var(&self, name: &str) -> Result<LinForm, NormErr>;
    /// Whether a node may take the affine form `form`; every one may unless
    /// the caller restricts it.
    fn accept(&self, _form: &LinForm) -> Result<(), NormErr> {
        Ok(())
    }
}

/// The prover's leaves: `rank` and `nprocs` stay symbolic, and variables
/// are the table's constants.
impl Leaves for VarTable {
    fn rank(&self) -> LinForm {
        LinForm::RANK
    }

    fn nprocs(&self) -> LinForm {
        LinForm::NPROCS
    }

    fn var(&self, name: &str) -> Result<LinForm, NormErr> {
        self.get(name)
            .map(LinForm::konst)
            .ok_or_else(|| NormErr::UnboundVar(name.to_string()))
    }
}

/// Lower an integer clause expression to its normal form, taking the
/// leaves from `leaves`.
pub fn normalize_expr(e: &RankExpr, leaves: &impl Leaves) -> Result<NormExpr, NormErr> {
    let lin = |e: &RankExpr| normalize_expr(e, leaves)?.lin();
    let form = match e {
        RankExpr::Rank => leaves.rank(),
        RankExpr::NRanks => leaves.nprocs(),
        RankExpr::Const(v) => LinForm::konst(*v),
        RankExpr::Var(name) => leaves.var(name)?,
        RankExpr::Add(a, b) => lin(a)?.zip(lin(b)?, BinOp::Add)?,
        RankExpr::Sub(a, b) => lin(a)?.zip(lin(b)?, BinOp::Sub)?,
        RankExpr::Neg(a) => LinForm::default().zip(lin(a)?, BinOp::Sub)?,
        RankExpr::Mul(a, b) => match (lin(a)?, lin(b)?) {
            (a, b) if a.is_const() => b.times(a.c)?,
            (a, b) if b.is_const() => a.times(b.c)?,
            _ => return Err(NormErr::NonAffine("product of two non-constants")),
        },
        RankExpr::Div(a, b) => {
            let (num, den) = (lin(a)?, lin(b)?);
            if !den.is_const() {
                return Err(NormErr::NonAffine("non-constant divisor"));
            }
            if den.c == 0 {
                return Err(NormErr::ZeroDivisor);
            }
            if !num.is_const() {
                return Ok(NormExpr::Div(num, den.c));
            }
            LinForm::konst(BinOp::Div.apply(num.c, den.c)?)
        }
        RankExpr::Mod(a, b) => {
            let (num, den) = (lin(a)?, lin(b)?);
            let m = if den.is_const() {
                if den.c == 0 {
                    return Err(NormErr::ZeroDivisor);
                }
                ModForm::Const(den.c)
            } else if (LinForm { c: 0, ..den }) == LinForm::NPROCS {
                // The middle-breakpoint class `(a·rank) mod nprocs` with
                // |a| > 1 wraps at rank ≈ N/a — a cut that *moves* with N
                // and defeats the boundary-anchoring argument. Only unit
                // rank coefficients are admitted under a size-linear
                // modulus.
                if num.a.unsigned_abs() > 1 {
                    return Err(NormErr::NonAffine(
                        "rank coefficient with |a| > 1 under a nprocs-linear modulus",
                    ));
                }
                ModForm::NProcs(den.c)
            } else {
                return Err(NormErr::NonAffine(
                    "modulus neither constant nor nprocs-linear",
                ));
            };
            match m {
                ModForm::Const(k) if num.is_const() => LinForm::konst(BinOp::Rem.apply(num.c, k)?),
                _ => return Ok(NormExpr::Mod(num, m)),
            }
        }
        RankExpr::Opaque(_, label) => return Err(NormErr::Opaque(label)),
    };
    leaves.accept(&form)?;
    Ok(NormExpr::Lin(form))
}

/// Normalize a boolean clause expression, taking the leaves from `leaves`.
pub fn normalize_cond(c: &CondExpr, leaves: &impl Leaves) -> Result<NormCond, NormErr> {
    let cmp = |op: CmpOp, a: &RankExpr, b: &RankExpr| -> Result<NormCond, NormErr> {
        Ok(NormCond::Cmp(
            op,
            normalize_expr(a, leaves)?,
            normalize_expr(b, leaves)?,
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
            Box::new(normalize_cond(a, leaves)?),
            Box::new(normalize_cond(b, leaves)?),
        ),
        CondExpr::Or(a, b) => NormCond::Or(
            Box::new(normalize_cond(a, leaves)?),
            Box::new(normalize_cond(b, leaves)?),
        ),
        CondExpr::Not(a) => NormCond::Not(Box::new(normalize_cond(a, leaves)?)),
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
        assert_eq!(
            bytes,
            NormExpr::Lin(LinForm {
                a: 16,
                ..LinForm::konst(32)
            })
        );
        for rank in 0..6 {
            assert_eq!(bytes.eval(rank, 6), nf.eval(rank, 6).map(|c| c * 8));
        }
        // A remainder does not distribute: (rank mod 3) * 8 != (8*rank) mod 3.
        let modular = normalize_expr(&(RankExpr::rank() % RankExpr::lit(3)), &vt()).unwrap();
        assert_eq!(modular.scaled(8), None);
        // Coefficient overflow is surfaced, not wrapped.
        assert_eq!(NormExpr::Lin(LinForm::konst(i64::MAX)).scaled(2), None);
    }

    #[test]
    fn ring_normalizes() {
        // (rank-1+nprocs)%nprocs
        let prev = (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks();
        let nf = normalize_expr(&prev, &vt()).unwrap();
        assert_eq!(
            nf,
            NormExpr::Mod(
                LinForm {
                    a: 1,
                    n: 1,
                    ..LinForm::konst(-1)
                },
                ModForm::NProcs(0)
            )
        );
        assert_eq!(nf.to_string(), "(rank+nprocs-1) mod nprocs");
        let indexed = LinForm {
            a: -3,
            k: [0, 2, -1],
            ..LinForm::konst(-4)
        };
        assert_eq!(indexed.to_string(), "-3*rank+2*i1-i2-4");
        let p = ClassParams::of_expr(&nf);
        assert_eq!(p.lcm, 1);
        assert!(p.eligible());
    }

    #[test]
    fn vars_substitute_and_unbound_reject() {
        let e = RankExpr::rank() + RankExpr::var("k");
        assert_eq!(
            normalize_expr(&e, &vt()).unwrap(),
            NormExpr::Lin(LinForm {
                a: 1,
                ..LinForm::konst(3)
            })
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
        for k in [2, i64::MIN] {
            let strided = (RankExpr::lit(k) * RankExpr::rank()) % RankExpr::nranks();
            assert!(matches!(
                normalize_expr(&strided, &vt()),
                Err(NormErr::NonAffine(_))
            ));
        }
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
