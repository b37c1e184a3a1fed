//! Load-test the `commintd` analysis daemon: warm-vs-cold latency,
//! cache behaviour, and byte-identity under concurrency.
//!
//! Usage: `fig_serve [--specs DIR] [--clients C] [--toggles T] [--gate]
//!                   [--min-factor F] [--json] [--ledger FILE]`
//!
//! The bench starts a real daemon on a Unix-domain socket and drives it
//! with the shipped wl-lsms pragma specs:
//!
//! 1. **batch** — the reference cost: one cold batch run over all specs,
//!    invoking the `commlint` + `commprove` CLI binaries (built next to
//!    this bench) exactly as a script would; if the binaries are absent
//!    the in-process library cost is used instead (a *lower* bound on
//!    the batch run, so the reported factors are conservative). The
//!    in-process library cost is always measured and printed next to it,
//!    with the edit's factor against it: the like-for-like reference for
//!    an in-process daemon, which the gate does not use.
//! 2. **cold** — first daemon `analyze` + `prove` round-trip per spec;
//!    every artifact is built.
//! 3. **warm** — the identical requests again; the per-file response
//!    cache replays the rendered bytes.
//! 4. **fmt** — formatting-only touches of every spec; every structural
//!    hash survives, zero rebuilds, spans re-anchor.
//! 5. **edit** — the headline number: a one-region semantic edit of the
//!    two-region `spin_exchange` spec, toggled `--toggles` times (each
//!    toggle is a fresh edit — the superseded cohort is evicted), and
//!    only the edited file is re-requested, as an editor would. The
//!    acceptance factor is `batch / edit-per-toggle`.
//! 6. **concurrent** — `--clients` connections replay the full request
//!    set simultaneously; the single-flight store dedups the work.
//!
//! Timed windows cover only the framed exchange (analyze + prove
//! pipelined on one connection, as an editor that always wants report
//! and certificate would issue them); responses are parsed and
//! byte-compared against the batch
//! libraries' output *outside* the window, in every phase — an
//! incremental daemon that drifts from the batch CLIs fails the bench,
//! not just a gate. `--gate` requires the single-region-edit re-analysis
//! to beat the batch reference by `--min-factor` (default 5), exit 2
//! otherwise.
//!
//! Wall-clock latencies are printed for humans; the `--json` report and
//! the `--ledger` entry track only the deterministic cache counters
//! (builds and evictions per phase), so `commscope trend --check` gates
//! on cache effectiveness, which is machine-independent.

use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{arg_str, arg_usize, emit_json_report, ledger, BenchReport, SeriesReport};
use commintd::proto::{read_frame, request_json, write_frame};
use commintd::server::serve_unix;
use commintd::Engine;
use commlint::json::render_json;
use commlint::{lint_source, LintOptions};
use commprove::prove_source;
use netsim::json::{self, Json};
use netsim::RankStats;
use pragma_front::SymbolTable;

/// The marker edited by the 1-region semantic edit (it sits in one
/// region of the two-region spin_exchange spec).
const EDIT_FROM: &str = "max_comm_iter(45)";
const EDIT_TO: &str = "max_comm_iter(44)";

/// Batch-truth documents for one exact source version.
struct Truth {
    lint: String,
    report: String,
    cert: String,
}

fn truth_for(file: &str, src: &str) -> Truth {
    let symbols = SymbolTable::new();
    let opts = LintOptions::default();
    let report = lint_source(src, &symbols, &opts).expect("spec lints");
    let prove = prove_source(file, src, &symbols, &opts).expect("spec proves");
    Truth {
        lint: render_json(&[(file.to_string(), report)]),
        report: render_json(&[(file.to_string(), prove.report.clone())]),
        cert: prove.certificate.to_json(),
    }
}

/// One spec with its precomputed batch truth.
struct Spec {
    file: String,
    src: String,
    truth: Truth,
}

fn load_specs(dir: &Path) -> io::Result<Vec<Spec>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "comm"))
        .collect();
    paths.sort();
    let mut specs = Vec::new();
    for path in paths {
        let file = path.to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path)?;
        specs.push(Spec {
            truth: truth_for(&file, &src),
            file,
            src,
        });
    }
    Ok(specs)
}

fn best_of_three(mut run: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best.max(1)
}

/// The cold-batch references: what getting fresh reports and certificates
/// costs without the daemon, as `(cli, library)` nanoseconds. `cli` runs
/// the real CLI binaries (process spawn included — that is the actual
/// alternative) when they sit next to this bench; `library` makes the same
/// `commlint` and `commprove` library calls in-process, the like-for-like
/// reference for an in-process daemon. Each is the best of three runs, to
/// favour the reference.
fn batch_reference(specs: &[Spec]) -> (Option<u64>, u64) {
    let bins = std::env::current_exe().ok().and_then(|exe| {
        let dir = exe.parent()?.to_path_buf();
        let lint = dir.join("commlint");
        let prove = dir.join("commprove");
        (lint.exists() && prove.exists()).then_some((lint, prove))
    });
    let files: Vec<&str> = specs.iter().map(|s| s.file.as_str()).collect();
    let cli = bins.map(|(lint, prove)| {
        best_of_three(|| {
            for bin in [&lint, &prove] {
                let out = Command::new(bin)
                    .arg("--format")
                    .arg("json")
                    .args(&files)
                    .output()
                    .expect("batch CLI runs");
                // Gate-failing diagnostics exit nonzero; only a signal
                // death invalidates the timing.
                assert!(out.status.code().is_some(), "batch CLI killed");
            }
        })
    });
    let library = best_of_three(|| {
        for s in specs {
            std::hint::black_box(truth_for(&s.file, &s.src));
        }
    });
    (cli, library)
}

/// A protocol client over one daemon connection.
struct Client {
    r: BufReader<UnixStream>,
    w: BufWriter<UnixStream>,
}

impl Client {
    fn connect(path: &Path) -> io::Result<Client> {
        // The server thread binds asynchronously; retry briefly.
        let mut last = None;
        for _ in 0..100 {
            match UnixStream::connect(path) {
                Ok(s) => {
                    return Ok(Client {
                        r: BufReader::new(s.try_clone()?),
                        w: BufWriter::new(s),
                    })
                }
                Err(e) => last = Some(e),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
    }

    /// Pipeline both requests on the wire before reading either
    /// response: the protocol answers frames in order on a connection,
    /// so an editor (or this bench) that always wants report + cert
    /// pays one round-trip wait instead of two.
    fn exchange2(&mut self, req_a: &str, req_b: &str) -> io::Result<(String, String)> {
        write_frame(&mut self.w, req_a.as_bytes())?;
        write_frame(&mut self.w, req_b.as_bytes())?;
        Ok((self.read_text()?, self.read_text()?))
    }

    fn read_text(&mut self) -> io::Result<String> {
        let frame = read_frame(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))?;
        String::from_utf8(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))
    }
}

fn field<'a>(v: &'a Json, name: &str) -> &'a str {
    v.get(name).and_then(|f| f.as_str()).unwrap_or("")
}

/// Run analyze + prove for one source version, pipelined on one
/// connection. Only the framed exchange is timed; responses are parsed
/// and byte-checked against the batch truth afterwards.
fn roundtrip(
    client: &mut Client,
    id: &mut i64,
    file: &str,
    src: &str,
    want: &Truth,
    mismatches: &mut Vec<String>,
) -> io::Result<Duration> {
    *id += 2;
    let a_req = request_json("analyze", *id - 1, file, src);
    let p_req = request_json("prove", *id, file, src);
    let t0 = Instant::now();
    let (a_text, p_text) = client.exchange2(&a_req, &p_req)?;
    let dt = t0.elapsed();
    let bad = |what: &str| format!("{file}: {what} differs from batch");
    let a = json::parse(&a_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))?;
    let p = json::parse(&p_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))?;
    if field(&a, "report") != want.lint {
        mismatches.push(bad("analyze report"));
    }
    if field(&p, "report") != want.report {
        mismatches.push(bad("prove report"));
    }
    if field(&p, "cert") != want.cert {
        mismatches.push(bad("certificate"));
    }
    Ok(dt)
}

fn main() {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let specs_dir = PathBuf::from(arg_str(&cli, "--specs").unwrap_or("crates/wl-lsms/pragmas"));
    let clients = arg_usize(&cli, "--clients").unwrap_or(4).max(1);
    // Each toggle repeats the identical steady-state measurement; the
    // reported edit time is the best observed, so more samples tighten
    // the estimate against scheduler noise (the batch side is likewise
    // a best-of-N of repeated spawns).
    let toggles = arg_usize(&cli, "--toggles").unwrap_or(25).max(1);
    let min_factor: f64 = arg_str(&cli, "--min-factor")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let gate = cli.iter().any(|a| a == "--gate");
    let json = cli.iter().any(|a| a == "--json");

    let wall0 = Instant::now();
    let specs = match load_specs(&specs_dir) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            eprintln!("fig_serve: no .comm specs under {}", specs_dir.display());
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("fig_serve: cannot load specs: {e}");
            std::process::exit(2);
        }
    };
    // The gate divides by the CLIs when they are present.
    let (cli_ns, library_ns) = batch_reference(&specs);
    let (batch_ns, batch_mode) = match cli_ns {
        Some(ns) => (ns, "cli"),
        None => (library_ns, "library"),
    };

    let engine = Arc::new(Engine::new(
        SymbolTable::new(),
        LintOptions::default(),
        None,
    ));
    let socket = std::env::temp_dir().join(format!("fig_serve-{}.sock", std::process::id()));
    {
        let engine = Arc::clone(&engine);
        let socket = socket.clone();
        std::thread::spawn(move || {
            if let Err(e) = serve_unix(engine, &socket) {
                eprintln!("fig_serve: daemon died: {e}");
                std::process::exit(2);
            }
        });
    }
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        eprintln!("fig_serve: cannot connect: {e}");
        std::process::exit(2);
    });

    let mut id = 0i64;
    let mut mismatches: Vec<String> = Vec::new();
    let die = |e: io::Error| -> ! {
        eprintln!("fig_serve: request failed: {e}");
        std::process::exit(2);
    };

    // A full corpus pass: analyze + prove of every spec (src chosen by
    // `variant`), returning per-spec times and build counts.
    let corpus_pass = |client: &mut Client,
                       id: &mut i64,
                       mismatches: &mut Vec<String>,
                       variant: &dyn Fn(&Spec) -> Option<String>|
     -> (Vec<Duration>, Vec<u64>) {
        let mut times = Vec::new();
        let mut builds = Vec::new();
        for spec in &specs {
            let edited = variant(spec);
            let src = edited.as_deref().unwrap_or(&spec.src);
            let truth = edited
                .as_ref()
                .map(|s| truth_for(&spec.file, s))
                .unwrap_or_else(|| Truth {
                    lint: spec.truth.lint.clone(),
                    report: spec.truth.report.clone(),
                    cert: spec.truth.cert.clone(),
                });
            let b0 = engine.stats().misses;
            let dt = roundtrip(client, id, &spec.file, src, &truth, mismatches)
                .unwrap_or_else(|e| die(e));
            times.push(dt);
            builds.push(engine.stats().misses - b0);
        }
        (times, builds)
    };

    let (cold_t, cold_b) = corpus_pass(&mut client, &mut id, &mut mismatches, &|_| None);
    let (warm_t, warm_b) = corpus_pass(&mut client, &mut id, &mut mismatches, &|_| None);
    let (fmt_t, fmt_b) = corpus_pass(&mut client, &mut id, &mut mismatches, &|s| {
        Some(format!("// touched\n{}", s.src))
    });

    // The 1-region edit: toggle the marker back and forth; each toggle
    // is a genuinely new region version (the superseded cohort is
    // evicted), and only the edited file is re-requested.
    let edited_spec = specs.iter().find(|s| s.src.contains(EDIT_FROM));
    if edited_spec.is_none() {
        eprintln!("fig_serve: note: no spec contains `{EDIT_FROM}`; editing the first spec's text");
    }
    let edited_spec = edited_spec.unwrap_or(&specs[0]);
    let variants = [
        edited_spec.src.replace(EDIT_FROM, EDIT_TO),
        edited_spec.src.clone(),
    ];
    let variant_truths = [
        truth_for(&edited_spec.file, &variants[0]),
        Truth {
            lint: edited_spec.truth.lint.clone(),
            report: edited_spec.truth.report.clone(),
            cert: edited_spec.truth.cert.clone(),
        },
    ];
    let mut edit_t = Vec::new();
    let mut edit_b = Vec::new();
    let ev0 = engine.stats().invalidations;
    for t in 0..toggles {
        let b0 = engine.stats().misses;
        let dt = roundtrip(
            &mut client,
            &mut id,
            &edited_spec.file,
            &variants[t % 2],
            &variant_truths[t % 2],
            &mut mismatches,
        )
        .unwrap_or_else(|e| die(e));
        edit_t.push(dt);
        edit_b.push(engine.stats().misses - b0);
    }
    let edit_ev = engine.stats().invalidations - ev0;

    // Concurrent replay of the unedited set: every client must see the
    // batch bytes. The toggles left one region's original cohort
    // evicted; the replay rebuilds it once, shared by single-flight.
    let concurrent_mismatches: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let specs = &specs;
                let socket = &socket;
                s.spawn(move || {
                    let mut client = Client::connect(socket).expect("connect");
                    let mut id = 1_000_000 + (c as i64) * 10_000;
                    let mut bad = Vec::new();
                    for spec in specs.iter() {
                        roundtrip(
                            &mut client,
                            &mut id,
                            &spec.file,
                            &spec.src,
                            &spec.truth,
                            &mut bad,
                        )
                        .expect("concurrent request");
                    }
                    bad.len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });

    let total = |ts: &[Duration]| ts.iter().map(|t| t.as_nanos() as u64).sum::<u64>().max(1);
    let (cold_ns, warm_ns, fmt_ns) = (total(&cold_t), total(&warm_t), total(&fmt_t));
    // Best observed toggle, mirroring the best-of-three batch reference:
    // min-vs-min keeps scheduler noise on this side of the ratio from
    // reading as a cache regression.
    let edit_ns = edit_t
        .iter()
        .map(|t| t.as_nanos() as u64)
        .min()
        .unwrap_or(1)
        .max(1);
    let edit_mean_ns = (total(&edit_t) / toggles as u64).max(1);
    let warm_factor = batch_ns as f64 / warm_ns as f64;
    let edit_factor = batch_ns as f64 / edit_ns as f64;
    let stats = engine.stats();

    eprintln!(
        "fig_serve: {} spec(s), {} client(s); cold batch reference ({batch_mode}): {:.2} ms",
        specs.len(),
        clients,
        batch_ns as f64 / 1e6,
    );
    eprintln!(
        "fig_serve: daemon cold {:.2} ms, warm {:.3} ms ({warm_factor:.1}x vs batch), \
         fmt touch {:.2} ms",
        cold_ns as f64 / 1e6,
        warm_ns as f64 / 1e6,
        fmt_ns as f64 / 1e6,
    );
    eprintln!(
        "fig_serve: 1-region edit re-analysis {:.3} ms (best of {toggles} toggle(s), \
         mean {:.3} ms) -> {edit_factor:.1}x vs cold batch",
        edit_ns as f64 / 1e6,
        edit_mean_ns as f64 / 1e6,
    );
    eprintln!(
        "fig_serve: in-process batch reference (libraries): {:.2} ms -> 1-region edit \
         {:.1}x vs in-process batch",
        library_ns as f64 / 1e6,
        library_ns as f64 / edit_ns as f64,
    );
    eprintln!(
        "fig_serve: store: {} entries, {} hits, {} misses, {} waits, {} invalidations \
         (hit rate {:.1}%)",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.waits,
        stats.invalidations,
        100.0 * stats.hit_rate(),
    );

    for m in &mismatches {
        eprintln!("fig_serve: MISMATCH: {m}");
    }
    if concurrent_mismatches > 0 {
        eprintln!("fig_serve: MISMATCH: {concurrent_mismatches} concurrent response(s) differ");
    }
    if !mismatches.is_empty() || concurrent_mismatches > 0 {
        std::process::exit(1);
    }

    let zero = RankStats::default();
    let report = BenchReport {
        bench: "fig_serve".into(),
        args: vec![
            ("specs".into(), specs.len() as i64),
            ("clients".into(), clients as i64),
            ("toggles".into(), toggles as i64),
        ],
        ranks: (1..=specs.len()).collect(),
        // Deterministic cache counters only: wall latencies vary by
        // machine and must not enter the trend-gated ledger.
        series: vec![
            SeriesReport::new("cold builds", cold_b, &zero),
            SeriesReport::new("warm builds", warm_b, &zero),
            SeriesReport::new("fmt builds", fmt_b, &zero),
            SeriesReport::new("edit rebuilds", edit_b, &zero),
            SeriesReport::new("edit evictions", vec![edit_ev], &zero),
        ],
        wall_s: wall0.elapsed().as_secs_f64(),
    };

    let mut code = 0;
    if json {
        code = emit_json_report(&report, arg_str(&cli, "--baseline"));
    }
    ledger::maybe_record(&cli, &report, "daemon");

    if gate && edit_factor < min_factor {
        eprintln!(
            "fig_serve: GATE: 1-region edit speedup {edit_factor:.2}x below the \
             {min_factor:.2}x floor"
        );
        std::process::exit(2);
    }
    let _ = std::fs::remove_file(&socket);
    std::process::exit(code);
}
