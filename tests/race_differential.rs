//! Differential testing of the one-sided race analyses: every generated
//! [`RaceProgram`] is decided twice — statically by `commint::analyze_ops`
//! and dynamically by `netsim`'s shadow-state sanitizer executing the same
//! ops — and the verdict code-sets must agree exactly, with one carrier
//! per rank and with two.
//!
//! The generator stays inside the fragment where the agreement theorem
//! holds (DESIGN.md §6e): signal waits are all-or-nothing per epoch (a
//! rank either waits for every signalled delivery issued through the
//! current epoch or does not wait at all), every put of an epoch precedes
//! the rank's wait, and barriers align across ranks. Within that fragment
//! the conflict pairs are independent of physical delivery order, so the
//! sanitizer's outcome is deterministic and must equal the static verdict.

use std::collections::BTreeSet;

use commint::race::{analyze_ops, RaceOp, RaceProgram};
use commint::LintCode;
use netsim::{run, ExecPolicy, SanitizeReport, SimConfig};

/// Segment size used by every generated program.
const SEG_BYTES: usize = 64;
/// Programs per corpus sweep (the acceptance floor is 200).
const PROGRAMS: usize = 220;
/// Fixed corpus seed: the sweep is reproducible byte-for-byte.
const SEED: u64 = 0x1CE_B00DA;
/// A carrier count the engine clamps to each program's rank count: one
/// carrier per rank, the differential reference.
const PER_RANK: usize = usize::MAX;

// -- deterministic RNG (no external deps) -----------------------------------

/// SplitMix64: tiny, seedable, and good enough to drive a fuzzer.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

// -- program generator -------------------------------------------------------

/// A random 8-byte-aligned interval inside the segment.
fn span(rng: &mut Rng) -> (usize, usize) {
    let len = 8 * (1 + rng.below(2)); // 8 or 16 bytes
    let offset = 8 * rng.below((SEG_BYTES - len) / 8 + 1);
    (offset, len)
}

/// Generate one program in the agreement fragment. `racy` biases the
/// generator toward conflicting intervals (it narrows the offset choices);
/// clean programs are still allowed to come out racy and vice versa — the
/// differential assertion does not depend on the label.
fn gen_program(rng: &mut Rng, racy: bool) -> RaceProgram {
    let nranks = 2 + rng.below(3); // 2..=4
    let epochs = 1 + rng.below(3); // 1..=3
    let mut per_rank: Vec<Vec<RaceOp>> = vec![Vec::new(); nranks];
    // Cumulative signalled deliveries per owner, across epochs.
    let mut sig_total = vec![0usize; nranks];

    for _ in 0..epochs {
        // Phase 1: non-blocking writers (puts, local stores). Generated
        // for every rank before any wait is emitted so wait counts can be
        // all-or-nothing over the epoch's signalled traffic.
        let mut phase1: Vec<Vec<RaceOp>> = vec![Vec::new(); nranks];
        for (rank, ops) in phase1.iter_mut().enumerate() {
            for _ in 0..rng.below(4) {
                let (offset, len) = if racy {
                    (0, 16) // pile every access on the same interval
                } else {
                    span(rng)
                };
                if rng.chance(2, 3) {
                    let mut target = rng.below(nranks);
                    if target == rank {
                        target = (target + 1) % nranks;
                    }
                    let signal = rng.chance(1, 2);
                    if signal {
                        sig_total[target] += 1;
                    }
                    let src_offset = rng.chance(1, 2).then(|| {
                        if racy {
                            32
                        } else {
                            8 * rng.below(SEG_BYTES / 8 - 1)
                        }
                    });
                    ops.push(RaceOp::Put {
                        target,
                        offset,
                        len,
                        src_offset,
                        signal,
                    });
                } else {
                    let offset = if racy { 32 } else { offset };
                    ops.push(RaceOp::LocalWrite { offset, len });
                }
            }
            if rng.chance(1, 2) {
                ops.push(RaceOp::Quiet);
            }
        }
        // Phase 2: optional all-or-nothing wait, then non-blocking readers.
        for (rank, ops) in per_rank.iter_mut().enumerate() {
            ops.append(&mut phase1[rank]);
            // Zero-count waits are rejected by the fabric; a rank with no
            // signalled traffic simply does not wait.
            if sig_total[rank] > 0 && rng.chance(1, 2) {
                ops.push(RaceOp::WaitSignals {
                    count: sig_total[rank],
                });
            }
            for _ in 0..rng.below(3) {
                let (offset, len) = if racy { (0, 16) } else { span(rng) };
                match rng.below(3) {
                    0 => ops.push(RaceOp::LocalRead { offset, len }),
                    1 => ops.push(RaceOp::LocalWrite { offset, len }),
                    _ => {
                        let mut target = rng.below(nranks);
                        if target == rank {
                            target = (target + 1) % nranks;
                        }
                        ops.push(RaceOp::Get {
                            target,
                            offset,
                            len,
                        });
                    }
                }
            }
        }
        for ops in per_rank.iter_mut() {
            ops.push(RaceOp::Barrier);
        }
    }
    RaceProgram {
        per_rank,
        window: None,
    }
}

// -- interpreters ------------------------------------------------------------

/// The static verdict: the set of lint codes `analyze_ops` reports.
fn static_codes(prog: &RaceProgram) -> BTreeSet<&'static str> {
    analyze_ops(prog).iter().map(|f| f.code.code()).collect()
}

/// Execute the program on `netsim` with the sanitizer enabled and return
/// its report. Each [`RaceOp`] maps onto exactly one `RankCtx` call; waits
/// mark their deliveries consumed immediately, which is the convention the
/// op model's folded `waited` counter encodes.
fn sanitize_run(prog: &RaceProgram, exec: ExecPolicy) -> SanitizeReport {
    let nranks = prog.per_rank.len();
    let window = prog.window.unwrap_or(u64::MAX);
    let programs = prog.per_rank.clone();
    let res = run(
        SimConfig::new(nranks).with_exec(exec.with_sanitize()),
        move |ctx| {
            let m = ctx.machine().shmem;
            let group = ctx.fabric().world().clone();
            let seg = ctx.sym_alloc_windowed(&group, SEG_BYTES, window, &m);
            let mut scratch = [0u8; SEG_BYTES];
            let mut consumed = 0u64;
            for op in &programs[ctx.rank()] {
                match *op {
                    RaceOp::Put {
                        target,
                        offset,
                        len,
                        src_offset,
                        signal,
                    } => {
                        if let Some(src) = src_offset {
                            ctx.put_from(seg, target, offset, src, len, &m, signal);
                        } else {
                            ctx.put(seg, target, offset, &scratch[..len], &m, signal);
                        }
                    }
                    RaceOp::Get {
                        target,
                        offset,
                        len,
                    } => {
                        let mut out = vec![0u8; len];
                        ctx.get(seg, target, offset, &mut out, &m);
                    }
                    RaceOp::LocalRead { offset, len } => {
                        let buf = &mut scratch[..len];
                        ctx.read_local(seg, offset, buf);
                    }
                    RaceOp::LocalWrite { offset, len } => {
                        let data = vec![1u8; len];
                        ctx.write_local(seg, offset, &data);
                    }
                    RaceOp::WaitSignals { count } => {
                        ctx.wait_signals_raw(seg, count);
                        let delta = (count as u64).saturating_sub(consumed);
                        if delta > 0 {
                            ctx.mark_consumed(seg, delta);
                            consumed += delta;
                        }
                    }
                    RaceOp::Quiet => ctx.quiet(&m),
                    RaceOp::Barrier => ctx.barrier(&m),
                }
            }
        },
    );
    res.sanitize.expect("sanitizer enabled")
}

// -- the differential assertions ---------------------------------------------

/// Run the corpus through both halves under one engine and assert the
/// code-sets agree program-by-program. Returns (clean, racy) tallies so
/// the corpus test can assert both populations are represented.
fn sweep(exec: &ExecPolicy) -> (usize, usize) {
    let mut rng = Rng(SEED);
    let (mut clean, mut racy_count) = (0usize, 0usize);
    for i in 0..PROGRAMS {
        let racy = i % 2 == 1;
        let prog = gen_program(&mut rng, racy);
        if std::env::var_os("RACE_DIFF_TRACE").is_some() {
            eprintln!("program {i}: {prog:?}");
        }
        let want = static_codes(&prog);
        let report = sanitize_run(&prog, *exec);
        let got: BTreeSet<&'static str> = report.codes();
        assert_eq!(
            want, got,
            "program {i} (racy={racy}): static verdict != sanitizer outcome\n{prog:?}"
        );
        if want.is_empty() {
            assert_eq!(report.conflicts_found(), 0, "program {i}");
            clean += 1;
        } else {
            assert!(report.conflicts_found() > 0, "program {i}");
            racy_count += 1;
        }
    }
    (clean, racy_count)
}

#[test]
fn corpus_agrees_with_one_carrier_per_rank() {
    let (clean, racy) = sweep(&ExecPolicy::bounded(PER_RANK));
    // Both populations must actually be exercised or the test is vacuous.
    assert!(clean >= 20, "only {clean} clean programs in the corpus");
    assert!(racy >= 20, "only {racy} racy programs in the corpus");
}

#[test]
fn corpus_agrees_under_bounded_engine() {
    let (clean, racy) = sweep(&ExecPolicy::bounded(2));
    assert!(clean >= 20, "only {clean} clean programs in the corpus");
    assert!(racy >= 20, "only {racy} racy programs in the corpus");
}

/// Both carrier counts see identical sanitizer totals on the same program:
/// race_checks is program-determined and the conflict count is
/// interleaving-invariant inside the fragment.
#[test]
fn engines_agree_on_sanitizer_totals() {
    let mut rng = Rng(SEED ^ 0xDEAD);
    for i in 0..24 {
        let prog = gen_program(&mut rng, i % 2 == 1);
        let a = sanitize_run(&prog, ExecPolicy::bounded(PER_RANK));
        let b = sanitize_run(&prog, ExecPolicy::bounded(2));
        assert_eq!(a.race_checks, b.race_checks, "program {i}");
        assert_eq!(a.conflicts_found(), b.conflicts_found(), "program {i}");
        assert_eq!(a.codes(), b.codes(), "program {i}");
    }
}

/// Known-racy and known-clean hand-written programs anchor the generator:
/// the differential harness is only convincing if the classic shapes come
/// out as expected through BOTH halves.
#[test]
fn anchor_programs_classify_as_expected() {
    // Two ranks put into rank 2's window, unordered: CI009.
    let fan_in = RaceProgram {
        per_rank: vec![
            vec![RaceOp::Put {
                target: 2,
                offset: 0,
                len: 16,
                src_offset: None,
                signal: false,
            }],
            vec![RaceOp::Put {
                target: 2,
                offset: 8,
                len: 16,
                src_offset: None,
                signal: false,
            }],
            vec![],
        ],
        window: None,
    };
    // The same fan-in with disjoint intervals: clean.
    let disjoint = RaceProgram {
        per_rank: vec![
            vec![RaceOp::Put {
                target: 2,
                offset: 0,
                len: 8,
                src_offset: None,
                signal: false,
            }],
            vec![RaceOp::Put {
                target: 2,
                offset: 32,
                len: 8,
                src_offset: None,
                signal: false,
            }],
            vec![],
        ],
        window: None,
    };
    // Signalled put, read after the wait: clean. Without the wait: CI012.
    let waited = RaceProgram {
        per_rank: vec![
            vec![RaceOp::Put {
                target: 1,
                offset: 0,
                len: 8,
                src_offset: None,
                signal: true,
            }],
            vec![
                RaceOp::WaitSignals { count: 1 },
                RaceOp::LocalRead { offset: 0, len: 8 },
            ],
        ],
        window: None,
    };
    let unwaited = RaceProgram {
        per_rank: vec![
            vec![RaceOp::Put {
                target: 1,
                offset: 0,
                len: 8,
                src_offset: None,
                signal: true,
            }],
            vec![
                RaceOp::LocalRead { offset: 0, len: 8 },
                RaceOp::WaitSignals { count: 1 },
            ],
        ],
        window: None,
    };
    // Source rewritten before quiet: CI011; after quiet: clean.
    let src_reuse = RaceProgram {
        per_rank: vec![
            vec![
                RaceOp::Put {
                    target: 1,
                    offset: 0,
                    len: 8,
                    src_offset: Some(16),
                    signal: false,
                },
                RaceOp::LocalWrite { offset: 16, len: 8 },
                RaceOp::Quiet,
            ],
            vec![],
        ],
        window: None,
    };
    let src_quieted = RaceProgram {
        per_rank: vec![
            vec![
                RaceOp::Put {
                    target: 1,
                    offset: 0,
                    len: 8,
                    src_offset: Some(16),
                    signal: false,
                },
                RaceOp::Quiet,
                RaceOp::LocalWrite { offset: 16, len: 8 },
            ],
            vec![],
        ],
        window: None,
    };
    let cases: [(&str, &RaceProgram, &[&str]); 6] = [
        ("fan_in", &fan_in, &["CI009"]),
        ("disjoint", &disjoint, &[]),
        ("waited", &waited, &[]),
        ("unwaited", &unwaited, &["CI012"]),
        ("src_reuse", &src_reuse, &["CI011"]),
        ("src_quieted", &src_quieted, &[]),
    ];
    for (name, prog, want) in cases {
        let want: BTreeSet<&str> = want.iter().copied().collect();
        assert_eq!(static_codes(prog), want, "{name}: static");
        for exec in [ExecPolicy::bounded(PER_RANK), ExecPolicy::bounded(2)] {
            let got = sanitize_run(prog, exec).codes();
            assert_eq!(got, want, "{name}: sanitizer");
        }
    }
    // The static finding carries the structured detail too.
    let f = &analyze_ops(&fan_in)[0];
    assert_eq!(f.code, LintCode::OverlappingPuts);
    assert_eq!(f.owner, 2);
    assert_eq!(f.ranks, (0, 1));
}
