//! Property tests: `commprove`'s quantified verdicts agree with the
//! concrete sweep. For randomly generated regions drawn from the
//! affine-congruence class (shifted rings, guarded offsets, parity and
//! stripe gates, boundary selectors) — with occasional deliberately
//! ineligible shapes mixed in — the certificate's `predict(N)` must equal
//! the findings `lint_region_at` actually fires, at every N in the base
//! sweep AND at adversarial counts straddling the case-split threshold,
//! the checked window's edges, and far beyond it.
//!
//! The test runs `PROPTEST_CASES` cases when it is set (CI runs it with
//! 1024), else 48.

use std::collections::HashMap;

use commint::buffer::{BufMeta, ElemKind};
use commint::clause::ClauseSet;
use commint::diag::lint_region_at;
use commint::dir::{P2pSpec, ParamsSpec};
use commint::expr::RankExpr;
use commlint::RankRange;
use commprove::cert::Finding;
use commprove::{finding_of, prove_regions};
use mpisim::dtype::BasicType;
use proptest::prelude::*;

fn buf(name: &str, len: usize, addr_lo: usize) -> BufMeta {
    BufMeta {
        name: name.to_string(),
        elem: ElemKind::Prim(BasicType::F64),
        len,
        addr: (addr_lo, addr_lo + len * BasicType::F64.size()),
    }
}

fn clauses(
    sender: Option<RankExpr>,
    receiver: Option<RankExpr>,
    sendwhen: Option<commint::expr::CondExpr>,
    receivewhen: Option<commint::expr::CondExpr>,
    count: Option<RankExpr>,
) -> ClauseSet {
    ClauseSet {
        sender,
        receiver,
        sendwhen,
        receivewhen,
        count,
        target: None,
        place_sync: None,
        max_comm_iter: None,
    }
}

/// Clause sets inside the decidable class, parameterized to exercise
/// different periods and boundary widths.
fn eligible_clauses() -> impl Strategy<Value = ClauseSet> {
    prop_oneof![
        // Cyclic shift by c (clean ring for c coprime-ish with N, self-send
        // degeneracies otherwise — both fine, both decidable).
        (1i64..=3).prop_map(|c| {
            clauses(
                Some(
                    (RankExpr::rank() - RankExpr::lit(c) + RankExpr::nranks()) % RankExpr::nranks(),
                ),
                Some((RankExpr::rank() + RankExpr::lit(c)) % RankExpr::nranks()),
                None,
                None,
                Some(RankExpr::lit(8)),
            )
        }),
        // Guarded linear offset: interior ranks exchange with rank +/- c.
        (1i64..=2, 4i64..=12).prop_map(|(c, k)| {
            clauses(
                Some(RankExpr::rank() - RankExpr::lit(c)),
                Some(RankExpr::rank() + RankExpr::lit(c)),
                Some(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(c))),
                Some(RankExpr::rank().ge(RankExpr::lit(c))),
                Some(RankExpr::lit(k)),
            )
        }),
        // Fixed pair gated on a congruence of nprocs: fires only at some
        // residues of N, forcing PresentCongruent claims.
        (2i64..=3, 0i64..=1).prop_map(|(m, r)| {
            clauses(
                Some(RankExpr::lit(0)),
                Some(RankExpr::lit(1)),
                Some(RankExpr::rank().eq(RankExpr::lit(0))),
                Some(
                    RankExpr::rank()
                        .eq(RankExpr::lit(1))
                        .and((RankExpr::nranks() % RankExpr::lit(m)).eq(RankExpr::lit(r))),
                ),
                Some(RankExpr::lit(4)),
            )
        }),
        // Stripe gates: only ranks in one residue class participate.
        (2i64..=4, 1i64..=2).prop_map(|(k, c)| {
            clauses(
                Some(
                    (RankExpr::rank() - RankExpr::lit(c) + RankExpr::nranks()) % RankExpr::nranks(),
                ),
                Some((RankExpr::rank() + RankExpr::lit(c)) % RankExpr::nranks()),
                Some((RankExpr::rank() % RankExpr::lit(k)).eq(RankExpr::lit(0))),
                Some((RankExpr::rank() % RankExpr::lit(k)).eq(RankExpr::lit(c % k))),
                Some(RankExpr::lit(8)),
            )
        }),
        // Boundary selector: the top rank reports to rank 0.
        (1i64..=2).prop_map(|c| {
            clauses(
                Some(RankExpr::nranks() - RankExpr::lit(c)),
                Some(RankExpr::lit(0)),
                Some(RankExpr::rank().eq(RankExpr::nranks() - RankExpr::lit(c))),
                Some(RankExpr::rank().eq(RankExpr::lit(0))),
                Some(RankExpr::lit(8)),
            )
        }),
        // The ISSUE's counterexample shape: wrap modulo nprocs-1.
        Just(clauses(
            Some((RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks()),
            Some((RankExpr::rank() + RankExpr::lit(1)) % (RankExpr::nranks() - RankExpr::lit(1))),
            None,
            None,
            Some(RankExpr::lit(8)),
        )),
    ]
}

/// Shapes the normalizer must refuse: the prover should degrade to the
/// concrete sweep, and within the sweep window predictions still agree.
fn ineligible_clauses() -> impl Strategy<Value = ClauseSet> {
    prop_oneof![
        // rank*rank is non-affine.
        Just(clauses(
            Some(RankExpr::rank() * RankExpr::rank()),
            Some(RankExpr::rank()),
            None,
            None,
            Some(RankExpr::lit(4)),
        )),
        // Unbound variable.
        Just(clauses(
            Some(RankExpr::rank() - RankExpr::var("k")),
            Some(RankExpr::rank() + RankExpr::var("k")),
            None,
            None,
            Some(RankExpr::lit(4)),
        )),
        // Opaque closure.
        Just(clauses(
            Some(RankExpr::opaque("prev(rank)", |env| {
                (env.rank - 1).rem_euclid(env.nranks)
            })),
            Some(RankExpr::opaque("next(rank)", |env| {
                (env.rank + 1).rem_euclid(env.nranks)
            })),
            None,
            None,
            Some(RankExpr::lit(4)),
        )),
    ]
}

fn site_strategy() -> impl Strategy<Value = P2pSpec> {
    (
        // Roughly 4:1 eligible-to-ineligible mix (the shim's prop_oneof
        // has no weight syntax).
        prop_oneof![
            eligible_clauses(),
            eligible_clauses(),
            eligible_clauses(),
            eligible_clauses(),
            ineligible_clauses(),
        ],
        // Receive buffer length 4..16: small enough that rank-dependent
        // or mismatched counts trip CI004 at some shapes.
        4usize..16,
        any::<bool>(),
        0u32..4,
    )
        .prop_map(|(clauses, rlen, has_overlap_body, site)| P2pSpec {
            clauses,
            sbuf: vec![buf("s", 16, 0)],
            rbuf: vec![buf("r", rlen, 0x1000)],
            has_overlap_body,
            site,
            spans: Default::default(),
        })
}

fn region_strategy() -> impl Strategy<Value = ParamsSpec> {
    proptest::collection::vec(site_strategy(), 1..3).prop_map(|mut body| {
        // Distinct site ids, as the parser guarantees.
        for (i, p) in body.iter_mut().enumerate() {
            p.site = i as u32;
        }
        ParamsSpec {
            clauses: clauses(None, None, None, None, None),
            body,
            spans: Default::default(),
        }
    })
}

/// The concrete findings at rank count `n`, in certificate form.
fn concrete_at(spec: &ParamsSpec, n: usize, vars: &HashMap<String, i64>) -> Vec<Finding> {
    let mut fired: Vec<Finding> = lint_region_at(0, spec, n, vars)
        .iter()
        .map(finding_of)
        .collect();
    fired.sort();
    fired.dedup();
    fired
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn predictions_match_concrete_sweep(spec in region_strategy()) {
        let ranks = RankRange { min: 2, max: 16 };
        let vars = HashMap::new();
        let (_diags, cert) = prove_regions("prop", std::slice::from_ref(&spec), ranks, &vars);
        prop_assert_eq!(cert.regions.len(), 1);
        let region = &cert.regions[0];

        // Adversarial counts around every case-split edge, plus counts far
        // outside anything the prover concretely checked.
        let l = region.lcm.max(1);
        let mut ns: Vec<usize> = (ranks.min..=64).collect();
        for n in [
            region.threshold.saturating_sub(1),
            region.threshold,
            region.threshold + 1,
            region.checked_max.saturating_sub(1),
            region.checked_max,
            region.checked_max + 1,
            region.checked_max + l,
            region.checked_max + 2 * l + 1,
            97,
            128,
        ] {
            ns.push(n);
        }
        ns.sort_unstable();
        ns.dedup();

        for n in ns {
            if n < ranks.min {
                continue;
            }
            let predicted = region.predict(n);
            if region.eligible {
                prop_assert!(
                    predicted.is_some(),
                    "eligible region makes no statement at N={}", n
                );
            } else if predicted.is_none() {
                // Ineligible regions only speak about the swept window.
                prop_assert!(n > region.checked_max);
                continue;
            }
            let predicted = predicted.unwrap();
            let actual = concrete_at(&spec, n, &vars);
            prop_assert_eq!(
                &predicted, &actual,
                "N={}: certificate predicts {:?}, sweep fired {:?} \
                 (eligible={}, L={}, B={}, threshold={}, checked_max={})",
                n, predicted, actual,
                region.eligible, region.lcm, region.boundary,
                region.threshold, region.checked_max
            );
        }
    }
}
