//! Property tests for differential profiling (commdiff): diffing a profile
//! against itself is exactly zero, diffs between *different* randomized
//! workloads still account exactly (per-site deltas sum to the whole-run
//! delta for every tracked field), and diffs are engine-invariant because
//! the profiles they join are.

use commscope::{diff_is_zero, diff_profiles, profile_json, render_diff_text, validate_diff};
use netsim::json::Json;
use netsim::{run, ExecPolicy, RankMetrics, SimConfig, SrcSel, TagSel, Time};
use proptest::prelude::*;

/// One communication round every rank executes (rounds are matched by
/// construction, so any script is deadlock-free). Mirrors the
/// `prop_waitstate` generator: mixed two-sided traffic, fan-in waitalls,
/// barriers, and rank-skewed compute that manufactures real late senders.
#[derive(Clone, Debug)]
enum Round {
    RingShift { tag: i32, len: usize },
    FanIn { len: usize },
    Barrier,
    Skew { ns: u64 },
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (0..4i32, 1..96usize).prop_map(|(tag, len)| Round::RingShift { tag, len }),
        (1..64usize).prop_map(|len| Round::FanIn { len }),
        Just(Round::Barrier),
        (1..5000u64).prop_map(|ns| Round::Skew { ns }),
    ]
}

/// Run the scripted workload observed and render its profile document.
fn profile_of(nranks: usize, rounds: &[Round], exec: ExecPolicy, label: &str) -> Json {
    let rounds = rounds.to_vec();
    let res = run(
        SimConfig::new(nranks).with_exec(exec).with_trace(),
        move |ctx| {
            let model = ctx.machine().mpi;
            let me = ctx.rank();
            let n = ctx.nranks();
            for (k, round) in rounds.iter().enumerate() {
                match round {
                    Round::RingShift { tag, len } => {
                        let payload = vec![(me + k) as u8; *len];
                        let req = ctx.isend((me + 1) % n, *tag, &payload, &model);
                        ctx.recv(SrcSel::Exact((me + n - 1) % n), TagSel::Exact(*tag), &model);
                        ctx.wait_send(&req, &model);
                    }
                    Round::FanIn { len } => {
                        let tag = 1000 + k as i32;
                        if me == 0 {
                            let reqs: Vec<_> = (1..n)
                                .map(|src| {
                                    ctx.irecv(SrcSel::Exact(src), TagSel::Exact(tag), &model)
                                })
                                .collect();
                            ctx.waitall(&[], &reqs, &model);
                        } else {
                            ctx.send(0, tag, &vec![me as u8; *len], &model);
                        }
                    }
                    Round::Barrier => ctx.barrier(&model),
                    Round::Skew { ns } => {
                        ctx.compute(Time::from_nanos(ns * (me as u64 + 1)));
                    }
                }
            }
        },
    );
    let trace = res.trace.expect("trace enabled");
    let metrics = RankMetrics::from_trace(&trace, nranks);
    let analysis = commscope::analyze(&trace, nranks, &res.final_times);
    profile_json(label, &[], &analysis, &metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// diff(A, A) is exactly zero — every delta field, every site row —
    /// and the document passes its own validator. Diffing the profile of
    /// the same workload under a different engine is also exactly zero,
    /// because profiles are pure functions of virtual time.
    #[test]
    fn self_diff_is_exactly_zero(
        nranks in 2usize..=5,
        rounds in proptest::collection::vec(round_strategy(), 1..6),
    ) {
        let a = profile_of(nranks, &rounds, ExecPolicy::bounded(nranks), "prop");
        let d = diff_profiles(&a, &a).unwrap();
        let problems = validate_diff(&d);
        prop_assert!(problems.is_empty(), "self-diff invalid: {:?}", problems);
        prop_assert!(diff_is_zero(&d), "self-diff not zero: {}", d.render());

        let b = profile_of(nranks, &rounds, ExecPolicy::bounded(3), "prop");
        let cross = diff_profiles(&a, &b).unwrap();
        prop_assert!(
            diff_is_zero(&cross),
            "cross-engine diff not zero: {}",
            cross.render()
        );
    }

    /// Diffs between two different workloads account exactly: the validator
    /// is clean, and an independent re-derivation of the headline wait
    /// delta (sum of per-site rows) matches the reported total.
    #[test]
    fn deltas_account_exactly_between_runs(
        nranks in 2usize..=5,
        rounds_a in proptest::collection::vec(round_strategy(), 1..5),
        rounds_b in proptest::collection::vec(round_strategy(), 1..5),
    ) {
        let a = profile_of(nranks, &rounds_a, ExecPolicy::default(), "base");
        let b = profile_of(nranks, &rounds_b, ExecPolicy::default(), "cand");
        let d = diff_profiles(&a, &b).unwrap();
        let problems = validate_diff(&d);
        prop_assert!(problems.is_empty(), "diff invalid: {:?}", problems);

        // Independent accounting check, not via validate_diff: per-site
        // wait deltas must sum to the delta object's headline.
        let sites = d.get("sites").and_then(Json::as_arr).expect("sites");
        let sum: i64 = sites
            .iter()
            .map(|r| r.get("total_wait_ns").and_then(Json::as_i64).unwrap_or(0))
            .sum();
        let headline = d
            .get("delta")
            .and_then(|x| x.get("total_wait_ns"))
            .and_then(Json::as_i64)
            .expect("delta.total_wait_ns");
        prop_assert_eq!(sum, headline, "site rows do not partition the delta");

        // The headline also reconciles with the input profiles' own
        // per-rank totals (candidate minus baseline).
        let profile_wait = |doc: &Json| -> i64 {
            doc.get("wait")
                .and_then(|w| w.get("per_rank"))
                .and_then(Json::as_arr)
                .expect("per_rank")
                .iter()
                .map(|r| r.get("total_wait_ns").and_then(Json::as_i64).unwrap_or(0))
                .sum()
        };
        prop_assert_eq!(profile_wait(&b) - profile_wait(&a), headline);

        // The text report renders and names both sides.
        let text = render_diff_text(&d);
        prop_assert!(text.contains("commdiff: base"));
        prop_assert!(text.contains("-> cand"));
    }
}
