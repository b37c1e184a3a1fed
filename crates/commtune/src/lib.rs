//! # commtune — profile-guided communication tuning
//!
//! The paper's directives state *what* a program communicates; the system
//! chooses *how*. `commtune` closes the feedback loop: it ingests a
//! `commscope` profile JSON (wait-state decomposition with blame
//! attribution, per-site message metrics) and decides, per directive site,
//!
//! * **target selection** — 2-sided vs 1-sided vs SHMEM put,
//! * **sync-consolidation placement** — `place_sync` overrides,
//! * **small-message coalescing** — batch per-(source, destination, site)
//!   small sends into one packed message with a deterministic flush rule,
//! * plus a job-wide **eager-vs-rendezvous threshold** knob.
//!
//! Decisions come out as a versioned JSON *tuning overlay* (site →
//! decision + predicted-benefit rationale citing the blame taxonomy) that
//! the directive engine installs on the next run via
//! [`commint::Overlay`]. A stale-schema overlay is refused outright —
//! exit code 3 from the CLI — so an old decision file can never silently
//! drive a newer engine. Every decision must then survive the A/B bench
//! gate (`fig4 --ab --overlay …`), which runs baseline vs overlay and
//! exits nonzero if any decision regresses.
//!
//! Sites annotated `// @pin` in pragma source are off-limits: the tuner
//! emits `Keep` for them (`pinned: true`) regardless of what the profile
//! suggests.

use commint::clause::{PlaceSync, Target};
use commint::overlay::{Decision, Overlay, SiteDecision, OVERLAY_SCHEMA};
use netsim::json::{self, Json};
use netsim::CostModel;

/// Tuning knobs (all have sensible defaults).
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Hard cap on the coalescing batch factor.
    pub batch_cap: usize,
    /// Per-piece size (bytes) above which coalescing is not considered —
    /// large messages are bandwidth-bound, not overhead-bound.
    pub small_msg_bytes: usize,
    /// Job-wide eager threshold override to record in the overlay.
    pub eager_threshold: Option<usize>,
    /// Sites the tuner must leave alone (from `// @pin` annotations).
    pub pinned: Vec<u32>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            batch_cap: 64,
            small_msg_bytes: 512,
            eager_threshold: None,
            pinned: Vec::new(),
        }
    }
}

/// Aggregated per-site view extracted from the profile.
#[derive(Clone, Debug, Default)]
struct SiteStats {
    site: u32,
    msgs_sent_total: u64,
    bytes_sent_total: u64,
    /// Busiest single receiver's message count (per-rank maximum): the
    /// profile-level estimate of pieces per (source, destination) pair,
    /// since a receiver has one source per site (a sender may fan out to
    /// many destinations, so sender-side counts overestimate).
    msgs_recvd_max_rank: u64,
}

fn site_stats(profile: &Json) -> Vec<SiteStats> {
    let mut out: Vec<SiteStats> = Vec::new();
    let Some(ranks) = profile
        .get("metrics")
        .and_then(|m| m.get("per_rank"))
        .and_then(|v| v.as_arr())
    else {
        return out;
    };
    for rank in ranks {
        let Some(sites) = rank.get("sites").and_then(|v| v.as_arr()) else {
            continue;
        };
        for s in sites {
            let site = s.get("site").and_then(|v| v.as_i64()).unwrap_or(-1);
            if site < 0 {
                continue;
            }
            let sent = s.get("msgs_sent").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
            let bytes = s.get("bytes_sent").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
            let recvd = s.get("msgs_recvd").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
            let entry = match out.iter_mut().find(|e| e.site == site as u32) {
                Some(e) => e,
                None => {
                    out.push(SiteStats {
                        site: site as u32,
                        ..SiteStats::default()
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.msgs_sent_total += sent;
            entry.bytes_sent_total += bytes;
            entry.msgs_recvd_max_rank = entry.msgs_recvd_max_rank.max(recvd);
        }
    }
    out.sort_by_key(|e| e.site);
    out
}

/// The dominant wait-blame category across all ranks, with its total ns —
/// the taxonomy entry decisions cite in their rationale.
fn dominant_blame(profile: &Json) -> (&'static str, i64) {
    let cats = [
        "late_sender_ns",
        "late_receiver_ns",
        "barrier_ns",
        "quiet_ns",
        "overhead_ns",
    ];
    let mut totals = [0i64; 5];
    if let Some(rows) = profile
        .get("wait")
        .and_then(|w| w.get("per_rank"))
        .and_then(|v| v.as_arr())
    {
        for row in rows {
            for (i, c) in cats.iter().enumerate() {
                totals[i] += row.get(c).and_then(|v| v.as_i64()).unwrap_or(0);
            }
        }
    }
    let best = (0..cats.len()).max_by_key(|&i| totals[i]).unwrap_or(4);
    let name = match cats[best] {
        "late_sender_ns" => "late_sender",
        "late_receiver_ns" => "late_receiver",
        "barrier_ns" => "barrier",
        "quiet_ns" => "quiet",
        _ => "overhead",
    };
    (name, totals[best])
}

/// Decide a tuning overlay from a commscope profile.
///
/// The coalescing heuristic: a site whose busiest receiver takes ≥ 2
/// messages per step window, each at most `small_msg_bytes` on average, is
/// overhead-bound — batch its pieces. The batch factor is the per-window
/// piece count, capped by `batch_cap` and by the eager threshold (a packed
/// message must still travel eagerly, or the rendezvous handshake eats the
/// saving). All other observed sites get an explicit `Keep`, so the
/// overlay documents that they were considered. Retarget/place-sync
/// decisions are supported by the schema and engine but not emitted by
/// default: the profile does not record which target a site currently
/// lowers to, so a retarget cannot be predicted non-regressing from one
/// profile alone (the A/B gate exists for exactly that reason).
pub fn tune(profile: &Json, opts: &TuneOptions) -> Result<Overlay, String> {
    let schema = profile
        .get("schema")
        .and_then(|v| v.as_i64())
        .ok_or("profile has no schema field")?;
    // Lenient old-version parse: every field tune() reads exists since
    // schema 1, so any schema up to the current one is accepted.
    if !(1..=commscope::PROFILE_SCHEMA).contains(&schema) {
        return Err(format!(
            "profile schema {schema} is not supported (this build reads 1..={})",
            commscope::PROFILE_SCHEMA
        ));
    }
    let steps = profile
        .get("args")
        .and_then(|a| a.get("steps"))
        .and_then(|v| v.as_i64())
        .unwrap_or(1)
        .max(1) as u64;
    // Figure workloads run one warmup step plus `steps` measured steps.
    let windows = steps + 1;
    let model = CostModel::gemini_mpi();
    let eager = opts.eager_threshold.unwrap_or(model.eager_threshold);
    let (blame_cat, blame_ns) = dominant_blame(profile);

    let mut overlay = Overlay {
        eager_threshold: opts.eager_threshold,
        decisions: Vec::new(),
    };
    for s in site_stats(profile) {
        if s.msgs_sent_total == 0 {
            continue;
        }
        if opts.pinned.contains(&s.site) {
            overlay.set(SiteDecision {
                site: s.site,
                decision: Decision::Keep,
                rationale: "pinned by source annotation (// @pin)".into(),
                predicted_saving_ns: 0,
                pinned: true,
            });
            continue;
        }
        let avg_bytes = s.bytes_sent_total / s.msgs_sent_total;
        let per_window = s.msgs_recvd_max_rank / windows;
        let mut batch = per_window.min(opts.batch_cap as u64) as usize;
        if avg_bytes > 0 {
            batch = batch.min(eager / avg_bytes as usize);
        }
        if per_window >= 2 && avg_bytes <= s.small_msg_cap(opts) && batch >= 2 {
            // Saving: every coalesced piece but one per flush skips its
            // o_send + o_recv and its share of the Waitall request poll.
            let elided = s
                .msgs_sent_total
                .saturating_sub(s.msgs_sent_total / batch as u64);
            let per_msg = model.o_send + model.o_recv + model.o_req_poll;
            let predicted = (elided * per_msg) as i64;
            overlay.set(SiteDecision {
                site: s.site,
                decision: Decision::Coalesce { batch },
                rationale: format!(
                    "site {} sends {} msgs of ~{}B (busiest rank: {} per step window); \
                     dominant wait blame is {} ({} ns total) — batching {} pieces per \
                     packed message elides ~{} sends of {} ns software overhead each",
                    s.site,
                    s.msgs_sent_total,
                    avg_bytes,
                    per_window,
                    blame_cat,
                    blame_ns,
                    batch,
                    elided,
                    per_msg,
                ),
                predicted_saving_ns: predicted,
                pinned: false,
            });
        } else {
            overlay.set(SiteDecision {
                site: s.site,
                decision: Decision::Keep,
                rationale: format!(
                    "site {} sends {} msgs of ~{}B ({} per step window): not \
                     overhead-bound, keep the written mechanism",
                    s.site, s.msgs_sent_total, avg_bytes, per_window
                ),
                predicted_saving_ns: 0,
                pinned: false,
            });
        }
    }
    Ok(overlay)
}

impl SiteStats {
    fn small_msg_cap(&self, opts: &TuneOptions) -> u64 {
        opts.small_msg_bytes as u64
    }
}

fn decision_kind(d: &Decision) -> &'static str {
    match d {
        Decision::Keep => "keep",
        Decision::Retarget(_) => "retarget",
        Decision::PlaceSync(_) => "place_sync",
        Decision::Coalesce { .. } => "coalesce",
    }
}

/// Render an overlay as its versioned JSON document.
pub fn overlay_to_json(overlay: &Overlay) -> Json {
    let decisions = overlay
        .decisions
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("site".into(), Json::Int(d.site as i64)),
                (
                    "decision".into(),
                    Json::Str(decision_kind(&d.decision).into()),
                ),
            ];
            match d.decision {
                Decision::Retarget(t) => {
                    fields.push(("target".into(), Json::Str(t.keyword().into())));
                }
                Decision::PlaceSync(p) => {
                    fields.push(("place_sync".into(), Json::Str(p.keyword().into())));
                }
                Decision::Coalesce { batch } => {
                    fields.push(("batch".into(), Json::Int(batch as i64)));
                }
                Decision::Keep => {}
            }
            fields.push(("rationale".into(), d.rationale.clone().into()));
            fields.push((
                "predicted_saving_ns".into(),
                Json::Int(d.predicted_saving_ns),
            ));
            fields.push(("pinned".into(), Json::Bool(d.pinned)));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Int(OVERLAY_SCHEMA)),
        ("generator".into(), Json::Str("commtune".into())),
        (
            "eager_threshold".into(),
            overlay
                .eager_threshold
                .map_or(Json::Null, |v| Json::Int(v as i64)),
        ),
        ("decisions".into(), Json::Arr(decisions)),
    ])
}

/// Parse an overlay document, enforcing the schema gate: a document whose
/// recorded schema disagrees with [`OVERLAY_SCHEMA`] is refused (the CLI
/// maps this to exit code 3).
pub fn overlay_from_json(doc: &Json) -> Result<Overlay, String> {
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_i64())
        .ok_or("overlay has no schema field")?;
    if schema != OVERLAY_SCHEMA {
        return Err(format!(
            "stale overlay schema {schema}: this engine speaks schema {OVERLAY_SCHEMA}; \
             regenerate the overlay with commtune"
        ));
    }
    let mut overlay = Overlay {
        eager_threshold: doc
            .get("eager_threshold")
            .and_then(|v| v.as_i64())
            .map(|v| v.max(0) as usize),
        decisions: Vec::new(),
    };
    let rows = doc
        .get("decisions")
        .and_then(|v| v.as_arr())
        .ok_or("overlay has no decisions array")?;
    for row in rows {
        let site = row
            .get("site")
            .and_then(|v| v.as_i64())
            .ok_or("decision without site")?;
        let kind = row
            .get("decision")
            .and_then(|v| v.as_str())
            .ok_or("decision without kind")?;
        let decision = match kind {
            "keep" => Decision::Keep,
            "retarget" => {
                let kw = row
                    .get("target")
                    .and_then(|v| v.as_str())
                    .ok_or("retarget decision without target")?;
                Decision::Retarget(
                    Target::from_keyword(kw).ok_or_else(|| format!("unknown target {kw:?}"))?,
                )
            }
            "place_sync" => {
                let kw = row
                    .get("place_sync")
                    .and_then(|v| v.as_str())
                    .ok_or("place_sync decision without placement")?;
                Decision::PlaceSync(
                    PlaceSync::from_keyword(kw)
                        .ok_or_else(|| format!("unknown placement {kw:?}"))?,
                )
            }
            "coalesce" => Decision::Coalesce {
                batch: row
                    .get("batch")
                    .and_then(|v| v.as_i64())
                    .ok_or("coalesce decision without batch")?
                    .max(0) as usize,
            },
            other => return Err(format!("unknown decision kind {other:?}")),
        };
        overlay.decisions.push(SiteDecision {
            site: site as u32,
            decision,
            rationale: row
                .get("rationale")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            predicted_saving_ns: row
                .get("predicted_saving_ns")
                .and_then(|v| v.as_i64())
                .unwrap_or(0),
            pinned: matches!(row.get("pinned"), Some(Json::Bool(true))),
        });
    }
    Ok(overlay)
}

/// Compact decision provenance for embedding in a profile document's
/// `tuning` section (what ran, not why — the full rationale lives in the
/// overlay file).
pub fn overlay_provenance(overlay: &Overlay) -> Json {
    Json::Obj(vec![
        ("generator".into(), Json::Str("commtune".into())),
        ("schema".into(), Json::Int(OVERLAY_SCHEMA)),
        (
            "eager_threshold".into(),
            overlay
                .eager_threshold
                .map_or(Json::Null, |v| Json::Int(v as i64)),
        ),
        (
            "decisions".into(),
            Json::Arr(
                overlay
                    .decisions
                    .iter()
                    .map(|d| {
                        let mut fields = vec![
                            ("site".into(), Json::Int(d.site as i64)),
                            (
                                "decision".into(),
                                Json::Str(decision_kind(&d.decision).into()),
                            ),
                        ];
                        if let Decision::Coalesce { batch } = d.decision {
                            fields.push(("batch".into(), Json::Int(batch as i64)));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn arg_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn arg_usize(args: &[String], name: &str) -> Option<usize> {
    arg_str(args, name).and_then(|v| v.parse().ok())
}

const USAGE: &str = "usage: commtune --profile FILE [--out FILE] [--pins SRC] \
                     [--eager-threshold N] [--batch-cap N]\n\
                     \x20      commtune --validate OVERLAY\n\
                     exit codes: 0 ok, 2 bad input, 3 stale overlay schema";

/// CLI entry point, exposed for tests (exit codes without process exit):
/// 0 success, 2 unreadable/invalid input, 3 stale overlay schema.
pub fn cli_main(args: &[String]) -> i32 {
    if let Some(path) = arg_str(args, "--validate") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("commtune: cannot read {path}: {e}");
                return 2;
            }
        };
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("commtune: {path} is not valid JSON: {e}");
                return 2;
            }
        };
        return match overlay_from_json(&doc) {
            Ok(ov) => {
                println!(
                    "overlay ok: {} decisions{}",
                    ov.decisions.len(),
                    if ov.is_noop() { " (all keep)" } else { "" }
                );
                0
            }
            Err(e) if e.contains("schema") => {
                eprintln!("commtune: {e}");
                3
            }
            Err(e) => {
                eprintln!("commtune: {e}");
                2
            }
        };
    }

    let Some(profile_path) = arg_str(args, "--profile") else {
        eprintln!("{USAGE}");
        return 2;
    };
    let text = match std::fs::read_to_string(profile_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("commtune: cannot read {profile_path}: {e}");
            return 2;
        }
    };
    let profile = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("commtune: {profile_path} is not valid JSON: {e}");
            return 2;
        }
    };

    let mut opts = TuneOptions {
        eager_threshold: arg_usize(args, "--eager-threshold"),
        ..TuneOptions::default()
    };
    if let Some(cap) = arg_usize(args, "--batch-cap") {
        opts.batch_cap = cap;
    }
    if let Some(pins_path) = arg_str(args, "--pins") {
        let src = match std::fs::read_to_string(pins_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("commtune: cannot read {pins_path}: {e}");
                return 2;
            }
        };
        match pinned_sites_from_source(&src) {
            Ok(pins) => opts.pinned = pins,
            Err(e) => {
                eprintln!("commtune: cannot parse {pins_path}: {e}");
                return 2;
            }
        }
    }

    let overlay = match tune(&profile, &opts) {
        Ok(ov) => ov,
        Err(e) => {
            eprintln!("commtune: {e}");
            return 2;
        }
    };
    for d in &overlay.decisions {
        eprintln!("  site {}: {}", d.site, d.rationale);
    }
    let doc = overlay_to_json(&overlay);
    let rendered = doc.render();
    match arg_str(args, "--out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, format!("{rendered}\n")) {
                eprintln!("commtune: cannot write {out}: {e}");
                return 2;
            }
            let n_coalesce = overlay
                .decisions
                .iter()
                .filter(|d| matches!(d.decision, Decision::Coalesce { .. }))
                .count();
            println!(
                "wrote {} decisions ({} coalesce) to {out}",
                overlay.decisions.len(),
                n_coalesce
            );
        }
        None => println!("{rendered}"),
    }
    0
}

/// Extract `// @pin` sites from pragma source, using the declarations the
/// file itself carries as `// @decl` / `// @var` annotations (the same
/// convention `commlint` scans).
pub fn pinned_sites_from_source(src: &str) -> Result<Vec<u32>, String> {
    let ann = commlint::scan_annotations(src);
    let mut syms = pragma_front::SymbolTable::new();
    commlint::apply_decls(&mut syms, &ann);
    let parsed = pragma_front::parse(src, &syms).map_err(|e| e.message)?;
    Ok(pragma_front::pinned_sites(src, &parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal schema-1 profile: 2 ranks, a chatty small-message site
    /// (11) and a per-step site (12).
    fn demo_profile() -> Json {
        json::parse(
            r#"{
  "schema": 1,
  "workload": "fig4_spin",
  "args": {"m": 2, "steps": 3},
  "ranks": 2,
  "makespan_ns": 1000000,
  "wait": {"per_rank": [
    {"rank": 0, "total_wait_ns": 100, "late_sender_ns": 80, "late_receiver_ns": 0,
     "barrier_ns": 10, "quiet_ns": 0, "overhead_ns": 10, "blame": [50, 50]},
    {"rank": 1, "total_wait_ns": 50, "late_sender_ns": 10, "late_receiver_ns": 20,
     "barrier_ns": 10, "quiet_ns": 0, "overhead_ns": 10, "blame": [25, 25]}
  ]},
  "metrics": {"per_rank": [
    {"msgs_sent": 68, "bytes_sent": 1632,
     "sites": [
       {"site": 11, "msgs_sent": 64, "bytes_sent": 1536, "msgs_recvd": 0, "bytes_recvd": 0, "dwell_ns": 0},
       {"site": 12, "msgs_sent": 4, "bytes_sent": 96, "msgs_recvd": 0, "bytes_recvd": 0, "dwell_ns": 0}
     ]},
    {"msgs_sent": 0, "bytes_sent": 0,
     "sites": [
       {"site": 11, "msgs_sent": 0, "bytes_sent": 0, "msgs_recvd": 64, "bytes_recvd": 1536, "dwell_ns": 10},
       {"site": 12, "msgs_sent": 0, "bytes_sent": 0, "msgs_recvd": 4, "bytes_recvd": 96, "dwell_ns": 10}
     ]}
  ], "total": {}},
  "critical_path": []
}"#,
        )
        .unwrap()
    }

    #[test]
    fn tunes_chatty_site_keeps_quiet_site() {
        let ov = tune(&demo_profile(), &TuneOptions::default()).unwrap();
        // Site 11: 64 msgs over 4 step windows = 16 pieces/window of 24B.
        assert_eq!(ov.coalesce_batch_for(11), Some(16));
        let d11 = ov.decision_for(11).unwrap();
        assert!(d11.rationale.contains("late_sender"), "{}", d11.rationale);
        assert!(d11.predicted_saving_ns > 0);
        // Site 12: 1 msg per window — nothing to batch.
        let d12 = ov.decision_for(12).unwrap();
        assert_eq!(d12.decision, Decision::Keep);
    }

    #[test]
    fn pinned_sites_are_kept() {
        let opts = TuneOptions {
            pinned: vec![11],
            ..TuneOptions::default()
        };
        let ov = tune(&demo_profile(), &opts).unwrap();
        let d = ov.decision_for(11).unwrap();
        assert_eq!(d.decision, Decision::Keep);
        assert!(d.pinned);
        assert!(d.rationale.contains("@pin"));
    }

    #[test]
    fn overlay_json_roundtrip() {
        let mut ov = tune(&demo_profile(), &TuneOptions::default()).unwrap();
        ov.eager_threshold = Some(4096);
        ov.set(SiteDecision::new(7, Decision::Retarget(Target::Shmem)));
        ov.set(SiteDecision::new(
            8,
            Decision::PlaceSync(PlaceSync::BeginNextParamRegion),
        ));
        let doc = overlay_to_json(&ov);
        let back = overlay_from_json(&doc).unwrap();
        assert_eq!(back, ov);
        // And through text.
        let reparsed = json::parse(&doc.render()).unwrap();
        assert_eq!(overlay_from_json(&reparsed).unwrap(), ov);
    }

    #[test]
    fn stale_schema_refused() {
        let mut doc = overlay_to_json(&Overlay::default());
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::Int(OVERLAY_SCHEMA + 1);
                }
            }
        }
        let err = overlay_from_json(&doc).unwrap_err();
        assert!(err.contains("stale overlay schema"), "{err}");
    }

    #[test]
    fn wrong_profile_schema_refused() {
        let mut doc = demo_profile();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::Int(99);
                }
            }
        }
        let err = tune(&doc, &TuneOptions::default()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn batch_respects_eager_threshold() {
        let opts = TuneOptions {
            eager_threshold: Some(96), // 4 pieces of 24B fill the eager window
            ..TuneOptions::default()
        };
        let ov = tune(&demo_profile(), &opts).unwrap();
        assert_eq!(ov.coalesce_batch_for(11), Some(4));
        assert_eq!(ov.eager_threshold, Some(96));
    }

    #[test]
    fn provenance_is_compact() {
        let ov = tune(&demo_profile(), &TuneOptions::default()).unwrap();
        let prov = overlay_provenance(&ov);
        assert_eq!(
            prov.get("generator").and_then(|v| v.as_str()),
            Some("commtune")
        );
        let rows = prov.get("decisions").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), ov.decisions.len());
        assert!(rows.iter().all(|r| r.get("rationale").is_none()));
    }

    #[test]
    fn pins_from_annotated_source() {
        let src = "\
// @decl buf1: f64[16]
// @decl buf2: f64[16]
// @pin
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)
";
        let pins = pinned_sites_from_source(src).unwrap();
        assert_eq!(pins.len(), 1);
    }
}
