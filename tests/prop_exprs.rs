//! Property tests: clause expressions — the C-like rendering produced by
//! `Display` parses back through the pragma front-end to a semantically
//! identical expression (render→parse→eval == eval), for random expression
//! trees; and a compiled, slot-resolved program returns exactly what the
//! tree walk returns (the same value or the same error), including on
//! zero divisors, never-bound names, overflow, opaque closures and
//! short-circuited errors. Arithmetic follows C: a value outside `i64` is
//! `ExprError::Overflow`, as an exact `i128` evaluation confirms. Where an
//! expression lowers to the affine-congruence normal form, the form takes
//! the tree walk's value at every rank of every communicator size up to 16.
//!
//! The differential tests run `PROPTEST_CASES` cases when it is set
//! (CI runs this file with 4096), else 256.

use commint::expr::{CondExpr, EvalEnv, ExprError, RankExpr, VarTable};
use commint::nf::normalize_expr;
use mpisim::dtype::BasicType;
use pragma_front::{parse, Item, SymbolTable};
use proptest::prelude::*;

/// Random arithmetic expression trees. Divisors/moduli are nonzero
/// constants so evaluation is total.
fn expr_strategy() -> impl Strategy<Value = RankExpr> {
    let leaf = prop_oneof![
        Just(RankExpr::Rank),
        Just(RankExpr::NRanks),
        (0i64..50).prop_map(RankExpr::Const),
        Just(RankExpr::var("n")),
        Just(RankExpr::var("root")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), 1i64..20).prop_map(|(a, d)| a / RankExpr::lit(d)),
            (inner.clone(), 1i64..20).prop_map(|(a, d)| a % RankExpr::lit(d)),
            inner.prop_map(|a| -a),
        ]
    })
}

fn cond_strategy() -> impl Strategy<Value = CondExpr> {
    let rel = (expr_strategy(), expr_strategy(), 0u8..6).prop_map(|(a, b, op)| match op {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    });
    rel.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random expression trees over the whole evaluator surface: any operand
/// may divide (zero included), names may never be bound (`ghost`), the
/// literals include `i64::MIN` and `-1`, and an opaque closure reads a
/// variable through the live environment.
fn wide_expr_strategy() -> impl Strategy<Value = RankExpr> {
    let leaf = prop_oneof![
        Just(RankExpr::Rank),
        Just(RankExpr::NRanks),
        (-3i64..8).prop_map(RankExpr::Const),
        Just(RankExpr::lit(i64::MIN)),
        Just(RankExpr::lit(i64::MAX)),
        Just(RankExpr::var("n")),
        Just(RankExpr::var("root")),
        Just(RankExpr::var("ghost")),
        Just(RankExpr::opaque("n_or_rank", |env| {
            env.vars.get("n").unwrap_or(env.rank)
        })),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a % b),
            // `i64::MIN / -1` and `i64::MIN % -1` overflow.
            (inner.clone(), any::<bool>()).prop_map(|(a, div)| {
                let min = RankExpr::lit(i64::MIN) + a * RankExpr::lit(0);
                if div {
                    min / RankExpr::lit(-1)
                } else {
                    min % RankExpr::lit(-1)
                }
            }),
            inner.prop_map(|a| -a),
        ]
    })
}

/// Random conditions over [`wide_expr_strategy`], with `&&`/`||` whose
/// right operand fails (so only short-circuiting keeps it unevaluated)
/// and an opaque predicate reading a variable.
fn wide_cond_strategy() -> impl Strategy<Value = CondExpr> {
    let rel =
        (wide_expr_strategy(), wide_expr_strategy(), 0u8..6).prop_map(|(a, b, op)| match op {
            0 => a.eq(b),
            1 => a.ne(b),
            2 => a.lt(b),
            3 => a.le(b),
            4 => a.gt(b),
            _ => a.ge(b),
        });
    let leaf = prop_oneof![
        rel,
        Just(CondExpr::True),
        Just(CondExpr::False),
        Just(CondExpr::opaque("root_bound", |env| {
            env.vars.get("root").is_some()
        })),
    ];
    let failing = prop_oneof![
        Just(RankExpr::var("ghost").eq(RankExpr::lit(0))),
        Just((RankExpr::rank() / RankExpr::lit(0)).eq(RankExpr::lit(0))),
    ];
    leaf.prop_recursive(2, 12, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), failing.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), failing.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random trees whose values sit near the ends of `i64`, so that most
/// of them overflow somewhere and some do not.
fn edge_expr_strategy() -> impl Strategy<Value = RankExpr> {
    let leaf = prop_oneof![
        Just(RankExpr::Rank),
        Just(RankExpr::NRanks),
        (-3i64..4).prop_map(RankExpr::Const),
        (0i64..3).prop_map(|k| RankExpr::lit(i64::MAX - k)),
        (0i64..3).prop_map(|k| RankExpr::lit(i64::MIN + k)),
        (0i64..3).prop_map(|k| RankExpr::lit(1 << (31 + k))),
        Just(RankExpr::var("n")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a % b),
            inner.prop_map(|a| -a),
        ]
    })
}

/// An independent oracle for the checked arithmetic: the tree walk's
/// operand order and errors, with every operation done exactly in `i128`
/// and [`ExprError::Overflow`] wherever the exact value leaves `i64`.
fn exact_eval(e: &RankExpr, env: &EvalEnv) -> Result<i64, ExprError> {
    let fit = |v: i128| i64::try_from(v).map_err(|_| ExprError::Overflow);
    let both = |a: &RankExpr, b: &RankExpr| -> Result<(i128, i128), ExprError> {
        Ok((exact_eval(a, env)?.into(), exact_eval(b, env)?.into()))
    };
    let divisor_first = |a: &RankExpr, b: &RankExpr| -> Result<(i128, i128), ExprError> {
        let d = exact_eval(b, env)?;
        if d == 0 {
            return Err(ExprError::DivByZero);
        }
        Ok((exact_eval(a, env)?.into(), d.into()))
    };
    match e {
        RankExpr::Add(a, b) => both(a, b).and_then(|(x, y)| fit(x + y)),
        RankExpr::Sub(a, b) => both(a, b).and_then(|(x, y)| fit(x - y)),
        RankExpr::Mul(a, b) => both(a, b).and_then(|(x, y)| fit(x * y)),
        // `i128` division truncates toward zero and its remainder takes
        // the dividend's sign, as C's do.
        RankExpr::Div(a, b) => divisor_first(a, b).and_then(|(x, d)| fit(x / d)),
        RankExpr::Mod(a, b) => divisor_first(a, b).and_then(|(x, d)| {
            // C leaves `i64::MIN % -1` undefined along with the quotient.
            fit(x / d)?;
            fit(x % d)
        }),
        RankExpr::Neg(a) => fit(-i128::from(exact_eval(a, env)?)),
        leaf => leaf.eval(env),
    }
}

/// Environments for the differential tests: every combination of bound
/// names (`ghost` is never bound), several ranks and sizes.
fn wide_envs() -> Vec<EvalEnv> {
    let mut out = Vec::new();
    for nranks in [1i64, 5, 16] {
        for rank in [0, nranks / 2, nranks - 1] {
            for bound in 0..4 {
                let mut env = EvalEnv::new(rank as usize, nranks as usize);
                if bound & 1 != 0 {
                    env.set("n", 7);
                }
                if bound & 2 != 0 {
                    env.set("root", -2);
                }
                out.push(env);
            }
        }
    }
    out
}

fn differential_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The environment a compiled program runs in: `env`'s identity over a
/// copy of its variables, on which compilation has reserved slots.
fn compiled_env(env: &EvalEnv, vars: VarTable) -> EvalEnv {
    EvalEnv {
        rank: env.rank,
        nranks: env.nranks,
        vars,
    }
}

fn roundtrip_rank_expr(e: &RankExpr) -> RankExpr {
    let mut syms = SymbolTable::new();
    syms.declare_prim("b", BasicType::U8, 1);
    let src = format!("#pragma comm_p2p sender({e}) receiver(0) sbuf(b) rbuf(b)");
    let parsed = parse(&src, &syms).unwrap_or_else(|err| panic!("`{e}` failed to parse: {err}"));
    let Item::P2p(p) = &parsed.items[0] else {
        panic!("expected p2p");
    };
    p.clauses.sender.clone().expect("sender present")
}

fn roundtrip_cond_expr(c: &CondExpr) -> CondExpr {
    let mut syms = SymbolTable::new();
    syms.declare_prim("b", BasicType::U8, 1);
    let src = format!(
        "#pragma comm_p2p sender(0) receiver(0) sendwhen({c}) receivewhen({c}) sbuf(b) rbuf(b)"
    );
    let parsed = parse(&src, &syms).unwrap_or_else(|err| panic!("`{c}` failed to parse: {err}"));
    let Item::P2p(p) = &parsed.items[0] else {
        panic!("expected p2p");
    };
    p.clauses.sendwhen.clone().expect("sendwhen present")
}

fn envs() -> Vec<EvalEnv> {
    let mut out = Vec::new();
    for nranks in [1i64, 4, 16] {
        for rank in 0..nranks.min(5) {
            out.push(
                EvalEnv::new(rank as usize, nranks as usize)
                    .with("n", 7)
                    .with("root", 2),
            );
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rank_expr_render_parse_eval_roundtrip(e in expr_strategy()) {
        let parsed = roundtrip_rank_expr(&e);
        for env in envs() {
            let want = e.eval(&env);
            let got = parsed.eval(&env);
            prop_assert_eq!(
                want.clone(), got,
                "`{}` vs reparsed `{}` at rank {}/{}", &e, &parsed, env.rank, env.nranks
            );
        }
    }

    #[test]
    fn cond_expr_render_parse_eval_roundtrip(c in cond_strategy()) {
        let parsed = roundtrip_cond_expr(&c);
        for env in envs() {
            let want = c.eval(&env);
            let got = parsed.eval(&env);
            prop_assert_eq!(
                want.clone(), got,
                "`{}` vs reparsed `{}` at rank {}/{}", &c, &parsed, env.rank, env.nranks
            );
        }
    }

    #[test]
    fn display_is_stable(e in expr_strategy()) {
        // Rendering the reparsed tree again yields the same text as the
        // reparsed tree's own rendering (idempotent after one roundtrip).
        let once = roundtrip_rank_expr(&e);
        let twice = roundtrip_rank_expr(&once);
        prop_assert_eq!(once.to_string(), twice.to_string());
    }

    #[test]
    fn free_vars_subset_of_known(e in expr_strategy()) {
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        for v in vars {
            prop_assert!(v == "n" || v == "root", "unexpected free var {v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(differential_cases()))]

    #[test]
    fn compiled_rank_expr_matches_tree_walk(e in wide_expr_strategy()) {
        for env in wide_envs() {
            let want = e.eval(&env);
            // Compiled against the bound table.
            let mut vars = env.vars.clone();
            let program = e.compile(&mut vars);
            let cenv = compiled_env(&env, vars);
            let mut scratch = vec![0; program.depth()];
            prop_assert_eq!(
                program.eval(&cenv, &mut scratch), want.clone(),
                "`{}` at rank {}/{} vars {:?}", &e, env.rank, env.nranks, &env.vars
            );
            // Reserved slots are invisible to the tree walk.
            prop_assert_eq!(e.eval(&cenv), want.clone());
            prop_assert_eq!(&cenv.vars, &env.vars);
            prop_assert_eq!(cenv.vars.len(), env.vars.len());
            // Compiled before any name is bound, bound afterwards (a
            // region opened before its body sets the variables).
            let mut late = VarTable::default();
            let program = e.compile(&mut late);
            for (name, value) in env.vars.iter() {
                late.set(name, value);
            }
            let lenv = compiled_env(&env, late);
            prop_assert_eq!(program.eval(&lenv, &mut scratch), want);
        }
    }

    #[test]
    fn compiled_cond_expr_matches_tree_walk(c in wide_cond_strategy()) {
        for env in wide_envs() {
            let want = c.eval(&env);
            let mut vars = env.vars.clone();
            let program = c.compile(&mut vars);
            let cenv = compiled_env(&env, vars);
            let mut scratch = vec![0; program.depth()];
            prop_assert_eq!(
                program.eval(&cenv, &mut scratch), want.clone(),
                "`{}` at rank {}/{} vars {:?}", &c, env.rank, env.nranks, &env.vars
            );
            prop_assert_eq!(c.eval(&cenv), want.clone());
            let mut late = VarTable::default();
            let program = c.compile(&mut late);
            for (name, value) in env.vars.iter() {
                late.set(name, value);
            }
            let lenv = compiled_env(&env, late);
            prop_assert_eq!(program.eval(&lenv, &mut scratch), want);
        }
    }

    /// Small constants only: near the ends of `i64` the form may overflow
    /// where the tree walk does not (`(r·K₁ + c) + r·K₂` against
    /// `(K₁+K₂)·r`), and the prover replays every verdict concretely.
    #[test]
    fn normal_form_matches_tree_walk(e in expr_strategy()) {
        let mut env = EvalEnv::new(0, 1).with("n", 7).with("root", 2);
        let Ok(nf) = normalize_expr(&e, &env.vars) else {
            return Ok(());
        };
        for nranks in 1..=16 {
            for rank in 0..nranks {
                (env.rank, env.nranks) = (rank, nranks);
                prop_assert_eq!(
                    nf.eval(rank, nranks), e.eval(&env).ok(),
                    "`{}` as `{}` at rank {}/{}", &e, &nf, rank, nranks
                );
            }
        }
    }

    #[test]
    fn checked_arithmetic_matches_exact_evaluation(e in edge_expr_strategy()) {
        for env in wide_envs() {
            let want = exact_eval(&e, &env);
            prop_assert_eq!(
                e.eval(&env), want.clone(),
                "`{}` at rank {}/{} vars {:?}", &e, env.rank, env.nranks, &env.vars
            );
            let mut vars = env.vars.clone();
            let program = e.compile(&mut vars);
            let mut scratch = vec![0; program.depth()];
            prop_assert_eq!(program.eval(&compiled_env(&env, vars), &mut scratch), want);
        }
    }
}
