//! The incremental analysis core: content-addressed artifacts over
//! structural region hashes, with byte-identical batch-CLI output.
//!
//! ## Artifact graph
//!
//! Every region version (structural hash `h`) owns an **anchor** entry
//! `region:h`. Derived artifacts depend on it:
//!
//! ```text
//! region:h ──▶ stripe:h,N   one lint_region_at outcome per rank count
//!          ──▶ sweep:h      stripes merged in ascending-count order
//!          ──▶ cert:h       prove_region_with result (diags + RegionCert)
//!          ──▶ forms:h      clause normal forms + class parameters
//!          ──▶ race:h       race-code summary of the sweep
//! ```
//!
//! A file update diffs the old and new per-region hash vectors; hashes
//! that vanished have their anchors invalidated, which evicts the whole
//! cohort through the dependency edges. Hashes that persist keep every
//! artifact — including across files that happen to share a region.
//!
//! The `cert:h` artifact also keeps its region's rendered certificate
//! fragment (the region's element of the document's `"regions"` array)
//! with the `(line, col)` of each site span it embeds. Those spans are the
//! only part of a fragment a hash-preserving edit can move, so a `prove`
//! reuses the kept bytes while they match and renders the fragment again
//! when one moved; `commprove::cert::render_certificate` splices the
//! fragments under the document's header. The fragment lives and dies
//! with its artifact, and filling it moves no store counter.
//!
//! ## Relocatable diagnostics
//!
//! Cached artifacts must survive formatting-only edits (same hash,
//! different byte offsets), so spans are stored relative to the region's
//! canonical token stream: a span that starts at token `i` of the chunk
//! is recorded as `Tok(i)` and re-anchored against the *current* source's
//! token spans when a response is assembled. Within one request the
//! round-trip is exact, so the prover's injected `lint_at` closure
//! returns precisely what `lint_region_at` would.
//!
//! The race findings (CI009–CI012) are emitted by `lint_region_at`
//! itself, so they ride the stripe/sweep/cert entries like every other
//! code — the daemon unifies commlint, commprove and the race analysis
//! over one artifact store. The `race:h` summary only aggregates them
//! for the `diag` verb.
//!
//! ## Response cache
//!
//! Above the artifact store sits a per-file response cache keyed by the
//! FNV-1a hash of the exact source bytes. The engine's configuration is
//! fixed at construction and every verb is a deterministic function of
//! (configuration, source), so when a request repeats the last-seen
//! bytes the previously rendered response is replayed verbatim —
//! byte-identical by construction, at the cost of one hash of the
//! source. This is the editor steady state: most `analyze` round trips
//! after a save storm touch files that did not change. The disk
//! certificate store is still reconciled on every cached `prove` hit,
//! so external tampering is detected (and healed) even on the fast
//! path.
//!
//! Below the response cache, the engine keeps the one most recently
//! prepared source (annotations, parse, region split, structural hashes)
//! and hands it to the next request for the same text, whatever the
//! verb: after an edit, the editor's `prove` reuses its `analyze`'s parse.
//! A `prove` that misses the response cache still renders only the
//! certificate fragments of regions that changed or moved (see the
//! artifact graph above); the two lint reports are rendered whole, once
//! per request of their verb.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use commint::cas::{fnv1a64, ArtifactKind, Fnv64, Key, Stats, Store};
use commint::diag::{lint_region_at, Diag, LintCode, SrcSpan};
use commint::dir::ParamsSpec;
use commint::expr::VarTable;
use commlint::hash::{env_hash, split_regions_tokens, structural_hash_tokens, RegionChunk};
use commlint::json::render_json;
use commlint::{
    apply_decls, assemble_lint_report, lint_parsed, parse_diags, region_view, scan_annotations,
    LintOptions, LintReport, RankRange,
};
use commprove::cert::{forms_json, render_certificate, RegionCert, CERT_SCHEMA};
use commprove::check::check_cert_bytes;
use commprove::{prove_parsed, prove_region_with, region_forms};
use netsim::json::Json;
use pragma_front::lex::{Tok, Token};
use pragma_front::{parse, Parsed, SymbolTable};

/// The lint codes the race analysis produces (all inside
/// `lint_region_at`, so they live in the same stripes as everything
/// else).
const RACE_CODES: [LintCode; 4] = [
    LintCode::OverlappingPuts,
    LintCode::GetPutConflict,
    LintCode::SourceReuseBeforeQuiet,
    LintCode::ReadBeforeSignalWait,
];

// ---------------------------------------------------------------------------
// Relocatable spans and diagnostics
// ---------------------------------------------------------------------------

/// A span stored relative to a region's canonical token stream.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RelSpan {
    /// No span.
    None,
    /// Starts exactly at canonical token `i` of the chunk.
    Tok(u32),
    /// Did not start at a token (should not happen for clause spans);
    /// kept verbatim as a best-effort fallback.
    Raw(SrcSpan),
}

/// A [`Diag`] with its span in relocatable form.
#[derive(Clone, Debug)]
struct RelDiag {
    code: LintCode,
    severity: commint::clause::Severity,
    message: String,
    span: RelSpan,
    region: usize,
    site: Option<u32>,
    key: String,
    witness: Option<commint::diag::RankWitness>,
    verification: Option<commint::diag::Verification>,
}

/// Maps between absolute spans in the current source and token ordinals
/// of one region chunk.
struct Anchor {
    /// Absolute span of each canonical token, in stream order.
    spans: Vec<SrcSpan>,
    /// Absolute start offset → token ordinal. Only rel-mapping (artifact
    /// *builds*) needs the reverse index; warm requests that merely
    /// re-anchor cached diags never pay for it, so it is built on first
    /// use. `OnceCell` suffices: builders run on the requesting thread
    /// (waiters block on the store's condvar) and the anchor is a
    /// per-request local.
    by_offset: std::cell::OnceCell<HashMap<usize, u32>>,
}

impl Anchor {
    /// Build the anchor from the chunk's slice of the full-file lex
    /// (`split_regions_tokens`), whose spans are already file-absolute —
    /// no per-request re-lex, no span rebasing.
    fn of_tokens(tokens: &[Token]) -> Anchor {
        let spans = tokens
            .iter()
            .take_while(|t| t.tok != Tok::Eof)
            .map(|t| SrcSpan {
                offset: t.span.offset,
                line: t.span.line,
                col: t.span.col,
            })
            .collect();
        Anchor {
            spans,
            by_offset: std::cell::OnceCell::new(),
        }
    }

    fn rel(&self, span: Option<SrcSpan>) -> RelSpan {
        let by_offset = self.by_offset.get_or_init(|| {
            self.spans
                .iter()
                .enumerate()
                .map(|(i, sp)| (sp.offset, i as u32))
                .collect()
        });
        match span {
            None => RelSpan::None,
            Some(sp) => match by_offset.get(&sp.offset) {
                Some(&i) => RelSpan::Tok(i),
                None => RelSpan::Raw(sp),
            },
        }
    }

    fn abs(&self, span: &RelSpan) -> Option<SrcSpan> {
        match span {
            RelSpan::None => None,
            RelSpan::Tok(i) => self.spans.get(*i as usize).copied(),
            RelSpan::Raw(sp) => Some(*sp),
        }
    }

    fn rel_diag(&self, d: &Diag) -> RelDiag {
        RelDiag {
            code: d.code,
            severity: d.severity,
            message: d.message.clone(),
            span: self.rel(d.span),
            region: d.region,
            site: d.site,
            key: d.key.clone(),
            witness: d.witness.clone(),
            verification: d.verification.clone(),
        }
    }

    fn abs_diag(&self, d: &RelDiag) -> Diag {
        Diag {
            code: d.code,
            severity: d.severity,
            message: d.message.clone(),
            span: self.abs(&d.span),
            region: d.region,
            site: d.site,
            key: d.key.clone(),
            witness: d.witness.clone(),
            verification: d.verification.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// A cached prove result: relocatable diagnostics plus the certificate
/// with its site spans stripped (they are re-anchored per response).
struct CertArt {
    diags: Vec<RelDiag>,
    cert: RegionCert,
    /// Each site's span, in `cert.sites` order, to re-inject.
    spans: Vec<RelSpan>,
    /// The certificate's rendered fragment, kept with the artifact so it
    /// is evicted with its cohort; mutating it moves no store counter.
    fragment: Mutex<Option<Fragment>>,
}

/// A region's certificate fragment and the `(line, col)` of each site
/// span it embeds, in `cert.sites` order: the only part of the fragment
/// that a formatting edit can move.
struct Fragment {
    at: Vec<Option<(usize, usize)>>,
    text: Arc<str>,
}

fn line_col(span: Option<SrcSpan>) -> Option<(usize, usize)> {
    span.map(|sp| (sp.line, sp.col))
}

/// Cached clause normal forms and class parameters for the `diag` verb.
struct FormsArt {
    eligible: bool,
    reason: Option<String>,
    lcm: u64,
    boundary: u64,
    sites: Vec<(u32, Vec<(String, String)>)>,
}

#[derive(Clone)]
enum Artifact {
    /// Per-region anchor: carries no data, exists so every derived entry
    /// has one dependency target whose invalidation evicts the cohort.
    Anchor,
    Stripe(Arc<Vec<RelDiag>>),
    Sweep(Arc<Vec<RelDiag>>),
    Cert(Arc<CertArt>),
    Forms(Arc<FormsArt>),
    /// `(code, count)` summary of race findings in the sweep.
    Race(Arc<Vec<(&'static str, usize)>>),
}

fn anchor_key(h: u64) -> Key {
    Key::new(ArtifactKind::Region, h)
}

fn stripe_key(h: u64, n: usize) -> Key {
    let mut f = Fnv64::new();
    f.write_str("stripe").write_u64(h).write_u64(n as u64);
    Key::new(ArtifactKind::Stripe, f.finish())
}

fn sweep_key(h: u64) -> Key {
    Key::new(ArtifactKind::Sweep, h)
}

fn cert_key(h: u64) -> Key {
    Key::new(ArtifactKind::Cert, h)
}

fn forms_key(h: u64) -> Key {
    Key::new(ArtifactKind::Forms, h)
}

fn race_key(h: u64) -> Key {
    Key::new(ArtifactKind::Race, h)
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Result of an `analyze` request.
pub struct Analysis {
    /// The schema-2 lint report document, byte-identical to
    /// `commlint --format json FILE`.
    pub report_json: String,
    /// Whether the CI gate fails (any warning-or-above).
    pub gate_fails: bool,
    /// Regions in the file.
    pub regions: usize,
    /// Region indexes whose hash changed since the last request for this
    /// file (all of them on first contact).
    pub dirty: Vec<usize>,
    /// Regions whose artifacts were reusable.
    pub reused: usize,
    /// Cache entries evicted by this update's invalidations.
    pub evicted: usize,
}

/// Result of a `prove` request.
pub struct Proof {
    /// The schema-2 lint report document, byte-identical to
    /// `commprove --format json FILE`.
    pub report_json: String,
    /// The certificate document, byte-identical to the CLI's
    /// `--cert-dir` output.
    pub cert_json: String,
    /// Whether the CI gate fails.
    pub gate_fails: bool,
    /// Regions in the file.
    pub regions: usize,
    /// Dirty region indexes (as [`Analysis::dirty`]).
    pub dirty: Vec<usize>,
    /// Regions whose artifacts were reusable.
    pub reused: usize,
    /// Cache entries evicted by this update's invalidations.
    pub evicted: usize,
    /// Disk certificate store outcome: `written` (no file existed),
    /// `valid` (on-disk bytes already identical), `refreshed` (stale but
    /// checker-valid, rewritten), `healed` (corrupt — rejected by the
    /// checker — recomputed and rewritten), or `none` (no store).
    pub disk_cert: &'static str,
}

/// A cached fully-rendered analyze response body for one exact source
/// version.
struct AnalysisCache {
    report_json: String,
    gate_fails: bool,
    regions: usize,
}

/// A cached fully-rendered prove response body for one exact source
/// version.
struct ProofCache {
    report_json: String,
    cert_json: String,
    gate_fails: bool,
    regions: usize,
}

/// Per-file incremental state: the region hash vector of the last
/// request (for delta diffing) plus the response cache for the exact
/// last-seen source bytes. Identical bytes and identical engine
/// configuration make the batch output deterministic, so replaying the
/// cached rendering is byte-identical by construction — the daemon's
/// steady-state cost for an unchanged file is one hash of the source.
#[derive(Default)]
struct FileState {
    hashes: Vec<u64>,
    src_fnv: u64,
    analysis: Option<AnalysisCache>,
    proof: Option<ProofCache>,
}

/// Everything a request needs after parsing and hashing succeed.
struct FileCtx {
    ranks: RankRange,
    vars: HashMap<String, i64>,
    parsed: Parsed,
    regions: Vec<ParamsSpec>,
    site_spans: HashMap<u32, SrcSpan>,
    /// One entry per region, in region order: the chunk, its hash, and
    /// its tokens (file-absolute spans, from the single full-file lex).
    chunks: Vec<(RegionChunk, u64, Vec<Token>)>,
}

/// Outcome of preparation: the incremental fast path, or a direct batch
/// fallback when the splitter and parser disagree about region structure
/// (the batch path is always correct; the cache is an optimization).
enum Prep {
    Cached(Arc<FileCtx>),
    Direct {
        ranks: RankRange,
        vars: HashMap<String, i64>,
        parsed: Parsed,
    },
}

/// The analysis engine: one per daemon, shared across connections.
pub struct Engine {
    symbols: SymbolTable,
    opts: LintOptions,
    cert_dir: Option<PathBuf>,
    store: Store<Artifact>,
    files: Mutex<HashMap<String, FileState>>,
    /// The last source text that prepared onto the incremental path, with
    /// its context. An editor sends `analyze` then `prove` for one buffer;
    /// the second request reuses the first's parse. One entry, matched on
    /// the full text; it sits beside the store, so it moves none of the
    /// store's counters.
    prepared: Mutex<Option<(String, Arc<FileCtx>)>>,
    /// Sources actually prepared (lexed, parsed, split and hashed).
    #[cfg(test)]
    prepares: std::sync::atomic::AtomicUsize,
    /// Certificate fragments actually rendered.
    #[cfg(test)]
    renders: std::sync::atomic::AtomicUsize,
    /// Take the direct fallback for every source (no parsed source
    /// reaches it otherwise).
    #[cfg(test)]
    force_direct: std::sync::atomic::AtomicBool,
}

impl Engine {
    /// Build an engine with the same configuration surface as the batch
    /// CLIs: base symbols (`--buf`), default options (`--ranks`,
    /// `--var`), and an optional certificate directory (`--cert-dir`).
    pub fn new(symbols: SymbolTable, opts: LintOptions, cert_dir: Option<PathBuf>) -> Engine {
        Engine {
            symbols,
            opts,
            cert_dir,
            store: Store::new(),
            files: Mutex::new(HashMap::new()),
            prepared: Mutex::new(None),
            #[cfg(test)]
            prepares: Default::default(),
            #[cfg(test)]
            renders: Default::default(),
            #[cfg(test)]
            force_direct: Default::default(),
        }
    }

    /// Store statistics snapshot.
    pub fn stats(&self) -> Stats {
        self.store.stats()
    }

    /// Resident artifact population per kind.
    pub fn population(&self) -> Vec<(ArtifactKind, usize)> {
        self.store.population()
    }

    /// Files the engine has seen.
    pub fn files_seen(&self) -> usize {
        self.files.lock().unwrap().len()
    }

    /// Prepare `src`, or share the context of the previous request for
    /// the same text. Parse errors and the direct fallback are never kept.
    fn prepare(&self, src: &str) -> Result<Prep, pragma_front::ParseError> {
        if let Some((text, ctx)) = &*self.prepared.lock().expect("no request panics holding it") {
            if text == src {
                return Ok(Prep::Cached(Arc::clone(ctx)));
            }
        }
        #[cfg(test)]
        self.prepares
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ann = scan_annotations(src);
        let mut symbols = self.symbols.clone();
        apply_decls(&mut symbols, &ann);
        let mut vars = self.opts.vars.clone();
        vars.extend(ann.vars.clone());
        let ranks = ann.ranks.unwrap_or(self.opts.ranks);
        let parsed = parse(src, &symbols)?;
        let regions: Vec<ParamsSpec> = parsed.items.iter().filter_map(region_view).collect();
        let site_spans: HashMap<u32, SrcSpan> = parsed
            .site_spans()
            .into_iter()
            .filter_map(|(site, span)| span.map(|sp| (site, sp)))
            .collect();
        let env = env_hash(&ann, &vars, ranks);
        let mut chunks = Vec::new();
        let mut region_index = 0usize;
        let mut site_base = 1u32;
        for (chunk, toks) in split_regions_tokens(src) {
            site_base += chunk.sites as u32;
            if chunk.is_region {
                let sites = chunk.sites as u32;
                let h = structural_hash_tokens(&toks, env, region_index, site_base - sites);
                chunks.push((chunk, h, toks));
                region_index += 1;
            }
        }
        let diverged = chunks.len() != regions.len();
        #[cfg(test)]
        let diverged = diverged || self.force_direct.load(std::sync::atomic::Ordering::Relaxed);
        if diverged {
            // The splitter sees a different region structure than the
            // parser. Analyze directly — same bytes, no cache.
            return Ok(Prep::Direct {
                ranks,
                vars,
                parsed,
            });
        }
        let ctx = Arc::new(FileCtx {
            ranks,
            vars,
            parsed,
            regions,
            site_spans,
            chunks,
        });
        *self.prepared.lock().expect("no request panics holding it") =
            Some((src.to_string(), Arc::clone(&ctx)));
        Ok(Prep::Cached(ctx))
    }

    /// Diff the file's region hashes against the previous request,
    /// invalidating anchors whose hashes vanished. Returns
    /// `(dirty region indexes, reused count, evicted entries)`. If the
    /// source bytes changed since the last request the cached rendered
    /// responses are dropped; otherwise they are preserved (so an
    /// `analyze` followed by a `prove` of the same bytes keeps both).
    fn delta(&self, file: &str, hashes: &[u64], src_fnv: u64) -> (Vec<usize>, usize, usize) {
        let mut files = self.files.lock().unwrap();
        let entry = files.entry(file.to_string()).or_default();
        let old = std::mem::replace(&mut entry.hashes, hashes.to_vec());
        if entry.src_fnv != src_fnv {
            entry.src_fnv = src_fnv;
            entry.analysis = None;
            entry.proof = None;
        }
        let mut dirty = Vec::new();
        for (i, h) in hashes.iter().enumerate() {
            if old.get(i) != Some(h) {
                dirty.push(i);
            }
        }
        let live: HashSet<u64> = hashes.iter().copied().collect();
        let mut evicted = 0;
        for h in &old {
            if !live.contains(h) {
                evicted += self.store.invalidate(anchor_key(*h));
            }
        }
        let reused = hashes.len() - dirty.len();
        (dirty, reused, evicted)
    }

    fn ensure_anchor(&self, h: u64) {
        self.store
            .get_or_build(anchor_key(h), &[], || Artifact::Anchor);
    }

    fn stripe(
        &self,
        h: u64,
        region: usize,
        spec: &ParamsSpec,
        n: usize,
        vars: &HashMap<String, i64>,
        anchor: &Anchor,
    ) -> Arc<Vec<RelDiag>> {
        let art = self
            .store
            .get_or_build(stripe_key(h, n), &[anchor_key(h)], || {
                Artifact::Stripe(Arc::new(
                    lint_region_at(region, spec, n, vars)
                        .iter()
                        .map(|d| anchor.rel_diag(d))
                        .collect(),
                ))
            });
        match art {
            Artifact::Stripe(v) => v,
            _ => unreachable!("stripe key holds a stripe"),
        }
    }

    /// The region's merged sweep: stripes in ascending-count order,
    /// deduplicated by identity keeping the first witness — exactly
    /// [`commlint::sweep_region`]'s contract.
    fn sweep(
        &self,
        h: u64,
        region: usize,
        spec: &ParamsSpec,
        ranks: RankRange,
        vars: &HashMap<String, i64>,
        anchor: &Anchor,
    ) -> Arc<Vec<RelDiag>> {
        let mut deps = vec![anchor_key(h)];
        deps.extend((ranks.min..=ranks.max).map(|n| stripe_key(h, n)));
        let art = self.store.get_or_build(sweep_key(h), &deps, || {
            let mut seen: HashSet<(LintCode, usize, Option<u32>, String)> = HashSet::new();
            let mut out = Vec::new();
            for n in ranks.min..=ranks.max {
                for d in self.stripe(h, region, spec, n, vars, anchor).iter() {
                    if seen.insert((d.code, d.region, d.site, d.key.clone())) {
                        out.push(d.clone());
                    }
                }
            }
            Artifact::Sweep(Arc::new(out))
        });
        match art {
            Artifact::Sweep(v) => v,
            _ => unreachable!("sweep key holds a sweep"),
        }
    }

    /// The region's prove result. The prover's concrete lint step is
    /// injected as a cache-backed closure, so a prove request reuses (and
    /// populates) the very stripes `analyze` uses; within one request the
    /// rel/abs round-trip is exact, so the prover sees precisely
    /// `lint_region_at`'s output and its result is byte-identical to the
    /// batch CLI's.
    #[allow(clippy::too_many_arguments)] // mirrors prove_region_with's surface
    fn cert(
        &self,
        h: u64,
        region: usize,
        spec: &ParamsSpec,
        site_spans: &HashMap<u32, SrcSpan>,
        ranks: RankRange,
        vars: &HashMap<String, i64>,
        anchor: &Anchor,
    ) -> Arc<CertArt> {
        let art = self.store.get_or_build(cert_key(h), &[anchor_key(h)], || {
            let lint_at = |n: usize| -> Vec<Diag> {
                self.stripe(h, region, spec, n, vars, anchor)
                    .iter()
                    .map(|d| anchor.abs_diag(d))
                    .collect()
            };
            let (diags, mut rc) =
                prove_region_with(region, spec, site_spans, ranks, vars, &lint_at);
            let spans = rc
                .sites
                .iter_mut()
                .map(|s| anchor.rel(s.span.take()))
                .collect();
            Artifact::Cert(Arc::new(CertArt {
                diags: diags.iter().map(|d| anchor.rel_diag(d)).collect(),
                cert: rc,
                spans,
                fragment: Mutex::new(None),
            }))
        });
        match art {
            Artifact::Cert(v) => v,
            _ => unreachable!("cert key holds a cert"),
        }
    }

    /// The region's certificate fragment with its site spans anchored in
    /// the current source: the kept text when every embedded span sits
    /// where it did, else rendered from the artifact and kept.
    fn cert_fragment(&self, art: &CertArt, anchor: &Anchor) -> Arc<str> {
        let mut memo = art.fragment.lock().expect("no request panics holding it");
        if let Some(f) = &*memo {
            let at = art.spans.iter().map(|r| line_col(anchor.abs(r)));
            if at.eq(f.at.iter().copied()) {
                return Arc::clone(&f.text);
            }
        }
        #[cfg(test)]
        self.renders
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let spans: Vec<Option<SrcSpan>> = art.spans.iter().map(|r| anchor.abs(r)).collect();
        let text: Arc<str> = art.cert.fragment(&spans).into();
        *memo = Some(Fragment {
            at: spans.into_iter().map(line_col).collect(),
            text: Arc::clone(&text),
        });
        text
    }

    fn forms(&self, h: u64, spec: &ParamsSpec, vars: &HashMap<String, i64>) -> Arc<FormsArt> {
        let art = self.store.get_or_build(forms_key(h), &[anchor_key(h)], || {
            let vt: VarTable = vars.into();
            let built = match region_forms(spec, &HashMap::new(), &vt) {
                Ok((sites, params)) => FormsArt {
                    eligible: params.eligible(),
                    reason: None,
                    lcm: params.lcm,
                    boundary: params.boundary,
                    sites: sites.into_iter().map(|s| (s.site, s.forms)).collect(),
                },
                Err(reason) => FormsArt {
                    eligible: false,
                    reason: Some(reason),
                    lcm: 1,
                    boundary: 0,
                    sites: Vec::new(),
                },
            };
            Artifact::Forms(Arc::new(built))
        });
        match art {
            Artifact::Forms(v) => v,
            _ => unreachable!("forms key holds forms"),
        }
    }

    fn race_summary(
        &self,
        h: u64,
        region: usize,
        spec: &ParamsSpec,
        ranks: RankRange,
        vars: &HashMap<String, i64>,
        anchor: &Anchor,
    ) -> Arc<Vec<(&'static str, usize)>> {
        let art = self
            .store
            .get_or_build(race_key(h), &[anchor_key(h), sweep_key(h)], || {
                let sweep = self.sweep(h, region, spec, ranks, vars, anchor);
                let mut counts = Vec::new();
                for code in RACE_CODES {
                    let n = sweep.iter().filter(|d| d.code == code).count();
                    if n > 0 {
                        counts.push((code.code(), n));
                    }
                }
                Artifact::Race(Arc::new(counts))
            });
        match art {
            Artifact::Race(v) => v,
            _ => unreachable!("race key holds a race summary"),
        }
    }

    // -- verbs --------------------------------------------------------------

    /// Replay a cached analyze response if `src_fnv` matches the file's
    /// last-seen source bytes.
    fn replay_analysis(&self, file: &str, src_fnv: u64) -> Option<Analysis> {
        let files = self.files.lock().unwrap();
        let st = files.get(file)?;
        if st.src_fnv != src_fnv {
            return None;
        }
        let a = st.analysis.as_ref()?;
        Some(Analysis {
            report_json: a.report_json.clone(),
            gate_fails: a.gate_fails,
            regions: a.regions,
            dirty: Vec::new(),
            reused: a.regions,
            evicted: 0,
        })
    }

    /// Serve `commlint --format json` for one source.
    pub fn analyze(&self, file: &str, src: &str) -> Result<Analysis, String> {
        let src_fnv = fnv1a64(src.as_bytes());
        if let Some(hit) = self.replay_analysis(file, src_fnv) {
            return Ok(hit);
        }
        let report;
        let regions;
        let (dirty, reused, evicted);
        let mut cacheable = false;
        match self.prepare(src).map_err(|e| e.to_string())? {
            Prep::Cached(ctx) => {
                cacheable = true;
                let hashes: Vec<u64> = ctx.chunks.iter().map(|(_, h, _)| *h).collect();
                (dirty, reused, evicted) = self.delta(file, &hashes, src_fnv);
                let mut sweeps = Vec::new();
                for (i, (_, h, toks)) in ctx.chunks.iter().enumerate() {
                    self.ensure_anchor(*h);
                    let anchor = Anchor::of_tokens(toks);
                    let rel = self.sweep(*h, i, &ctx.regions[i], ctx.ranks, &ctx.vars, &anchor);
                    sweeps.push(rel.iter().map(|d| anchor.abs_diag(d)).collect());
                }
                regions = ctx.regions.len();
                report = assemble_lint_report(parse_diags(&ctx.parsed), sweeps, ctx.ranks);
            }
            Prep::Direct {
                ranks,
                vars,
                parsed,
            } => {
                regions = parsed.items.iter().filter_map(region_view).count();
                (dirty, reused, evicted) = ((0..regions).collect(), 0, 0);
                report = lint_parsed(&parsed, ranks, &vars);
            }
        }
        let gate_fails = report.gate_fails();
        let report_json = render_json(&[(file.to_string(), report)]);
        if cacheable {
            let mut files = self.files.lock().unwrap();
            if let Some(st) = files.get_mut(file) {
                if st.src_fnv == src_fnv {
                    st.analysis = Some(AnalysisCache {
                        report_json: report_json.clone(),
                        gate_fails,
                        regions,
                    });
                }
            }
        }
        Ok(Analysis {
            gate_fails,
            report_json,
            regions,
            dirty,
            reused,
            evicted,
        })
    }

    /// Replay a cached prove response if `src_fnv` matches. The disk
    /// certificate store is reconciled again on every replay, so a
    /// certificate corrupted between requests is still detected and
    /// healed.
    fn replay_proof(&self, file: &str, src_fnv: u64) -> Option<(String, String, bool, usize)> {
        let files = self.files.lock().unwrap();
        let st = files.get(file)?;
        if st.src_fnv != src_fnv {
            return None;
        }
        let p = st.proof.as_ref()?;
        Some((
            p.report_json.clone(),
            p.cert_json.clone(),
            p.gate_fails,
            p.regions,
        ))
    }

    /// Serve `commprove --format json --cert-dir …` for one source.
    pub fn prove(&self, file: &str, src: &str) -> Result<Proof, String> {
        let src_fnv = fnv1a64(src.as_bytes());
        if let Some((report_json, cert_json, gate_fails, regions)) =
            self.replay_proof(file, src_fnv)
        {
            let disk_cert = self.sync_disk_cert(file, src, &cert_json);
            return Ok(Proof {
                report_json,
                cert_json,
                gate_fails,
                regions,
                dirty: Vec::new(),
                reused: regions,
                evicted: 0,
                disk_cert,
            });
        }
        let report;
        let cert_json;
        let regions;
        let (dirty, reused, evicted);
        let mut cacheable = false;
        match self.prepare(src).map_err(|e| e.to_string())? {
            Prep::Cached(ctx) => {
                cacheable = true;
                let hashes: Vec<u64> = ctx.chunks.iter().map(|(_, h, _)| *h).collect();
                (dirty, reused, evicted) = self.delta(file, &hashes, src_fnv);
                // Parse diagnostics exactly as `prove_parsed`: stamped
                // proved-from-minimum, deduplicated in order.
                let mut seen: HashSet<(LintCode, usize, Option<u32>, String)> = HashSet::new();
                let mut diags: Vec<Diag> = Vec::new();
                for mut d in parse_diags(&ctx.parsed) {
                    d.verification = Some(commint::diag::Verification::Proved {
                        from: ctx.ranks.min,
                    });
                    if seen.insert((d.code, d.region, d.site, d.key.clone())) {
                        diags.push(d);
                    }
                }
                let mut fragments = Vec::with_capacity(ctx.chunks.len());
                for (i, (_, h, toks)) in ctx.chunks.iter().enumerate() {
                    self.ensure_anchor(*h);
                    let anchor = Anchor::of_tokens(toks);
                    let art = self.cert(
                        *h,
                        i,
                        &ctx.regions[i],
                        &ctx.site_spans,
                        ctx.ranks,
                        &ctx.vars,
                        &anchor,
                    );
                    diags.extend(art.diags.iter().map(|d| anchor.abs_diag(d)));
                    fragments.push(self.cert_fragment(&art, &anchor));
                }
                sort_report_diags(&mut diags);
                regions = fragments.len();
                report = LintReport {
                    ranks: ctx.ranks,
                    diags,
                };
                cert_json = render_certificate(CERT_SCHEMA, file, ctx.ranks, &fragments);
            }
            Prep::Direct {
                ranks,
                vars,
                parsed,
            } => {
                let rep = prove_parsed(file, &parsed, ranks, &vars);
                regions = rep.certificate.regions.len();
                (dirty, reused, evicted) = ((0..regions).collect(), 0, 0);
                report = rep.report;
                cert_json = rep.certificate.to_json();
            }
        }
        let disk_cert = self.sync_disk_cert(file, src, &cert_json);
        let gate_fails = report.gate_fails();
        let report_json = render_json(&[(file.to_string(), report)]);
        if cacheable {
            let mut files = self.files.lock().unwrap();
            if let Some(st) = files.get_mut(file) {
                if st.src_fnv == src_fnv {
                    st.proof = Some(ProofCache {
                        report_json: report_json.clone(),
                        cert_json: cert_json.clone(),
                        gate_fails,
                        regions,
                    });
                }
            }
        }
        Ok(Proof {
            gate_fails,
            report_json,
            cert_json,
            regions,
            dirty,
            reused,
            evicted,
            disk_cert,
        })
    }

    /// Reconcile the on-disk certificate store with a freshly assembled
    /// certificate. An existing file is accepted only if its bytes are
    /// already identical; otherwise it is validated with the library
    /// checker purely to classify the mismatch (stale vs corrupt) and
    /// then overwritten — the store self-heals.
    fn sync_disk_cert(&self, file: &str, src: &str, fresh: &str) -> &'static str {
        let Some(dir) = &self.cert_dir else {
            return "none";
        };
        if std::fs::create_dir_all(dir).is_err() {
            return "none";
        }
        let path = cert_path(dir, file);
        let outcome = match std::fs::read(&path) {
            Ok(bytes) if bytes == fresh.as_bytes() => return "valid",
            Ok(bytes) => match check_cert_bytes(src, &self.symbols, &self.opts, &bytes) {
                Ok(_) => "refreshed",
                Err(_) => "healed",
            },
            Err(_) => "written",
        };
        if std::fs::write(&path, fresh).is_err() {
            return "none";
        }
        outcome
    }

    /// Serve the `diag` verb: per-region cache keys, class parameters,
    /// clause normal forms and race summaries, as a JSON array.
    pub fn diag(&self, file: &str, src: &str) -> Result<Json, String> {
        let src_fnv = fnv1a64(src.as_bytes());
        let ctx = match self.prepare(src).map_err(|e| e.to_string())? {
            Prep::Cached(ctx) => ctx,
            Prep::Direct { .. } => return Ok(Json::Arr(Vec::new())),
        };
        let hashes: Vec<u64> = ctx.chunks.iter().map(|(_, h, _)| *h).collect();
        self.delta(file, &hashes, src_fnv);
        let mut out = Vec::with_capacity(ctx.chunks.len());
        let mut site_base = 1u32;
        for (i, (chunk, h, toks)) in ctx.chunks.iter().enumerate() {
            self.ensure_anchor(*h);
            let anchor = Anchor::of_tokens(toks);
            let forms = self.forms(*h, &ctx.regions[i], &ctx.vars);
            let races = self.race_summary(*h, i, &ctx.regions[i], ctx.ranks, &ctx.vars, &anchor);
            let sites = forms
                .sites
                .iter()
                .map(|(site, fs)| Json::obj([("site", (*site).into()), ("forms", forms_json(fs))]));
            let races = races
                .iter()
                .map(|(code, n)| Json::Arr(vec![(*code).into(), (*n).into()]));
            out.push(Json::obj([
                ("region", i.into()),
                ("hash", format!("{h:016x}").into()),
                ("site_base", site_base.into()),
                ("sites", chunk.sites.into()),
                ("eligible", forms.eligible.into()),
                ("reason", forms.reason.clone().into()),
                ("lcm", forms.lcm.into()),
                ("boundary", forms.boundary.into()),
                ("forms", sites.collect()),
                ("races", races.collect()),
            ]));
            site_base += chunk.sites as u32;
        }
        Ok(Json::Arr(out))
    }
}

/// The report ordering both batch CLIs use: most severe first, then
/// stable identity order (the comparator extends the dedup identity, so
/// the sorted report is independent of assembly order).
fn sort_report_diags(diags: &mut [Diag]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.code.cmp(&b.code))
            .then(a.region.cmp(&b.region))
            .then(a.site.cmp(&b.site))
            .then(a.key.cmp(&b.key))
    });
}

/// Certificate path for a source file — mirrors the `commprove` CLI.
pub fn cert_path(dir: &Path, file: &str) -> PathBuf {
    let stem = Path::new(file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    dir.join(format!("{stem}.cert.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use commlint::lint_source;
    use commprove::prove_source;

    const SRC: &str = "\
// @decl buf1: double[16]
// @decl buf2: double[16]
// @ranks 2..=12
#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
{
  #pragma comm_p2p sbuf(buf1) rbuf(buf2) count(16)
  { }
}
#pragma comm_parameters sender(rank) receiver((rank+2)%nprocs)
{
  #pragma comm_p2p sbuf(buf2) rbuf(buf1) count(8)
  { }
}
";

    fn batch_lint_json(file: &str, src: &str) -> String {
        let report = lint_source(src, &SymbolTable::new(), &LintOptions::default()).expect("lints");
        render_json(&[(file.to_string(), report)])
    }

    fn batch_prove(file: &str, src: &str) -> (String, String) {
        let rep =
            prove_source(file, src, &SymbolTable::new(), &LintOptions::default()).expect("proves");
        (
            render_json(&[(file.to_string(), rep.report.clone())]),
            rep.certificate.to_json(),
        )
    }

    #[test]
    fn analyze_is_byte_identical_cold_and_warm() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let want = batch_lint_json("t.comm", SRC);
        let cold = engine.analyze("t.comm", SRC).unwrap();
        assert_eq!(cold.report_json, want);
        assert_eq!(cold.dirty, vec![0, 1]);
        let warm = engine.analyze("t.comm", SRC).unwrap();
        assert_eq!(warm.report_json, want);
        assert!(warm.dirty.is_empty());
        assert_eq!(warm.reused, 2);
    }

    #[test]
    fn prove_is_byte_identical_and_shares_stripes_with_analyze() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let (want_report, want_cert) = batch_prove("t.comm", SRC);
        engine.analyze("t.comm", SRC).unwrap();
        let stripes_after_analyze = engine
            .population()
            .iter()
            .find(|(k, _)| *k == ArtifactKind::Stripe)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        let proof = engine.prove("t.comm", SRC).unwrap();
        assert_eq!(proof.report_json, want_report);
        assert_eq!(proof.cert_json, want_cert);
        // Prove extends the stripe pool (its window reaches past the
        // sweep max) but reuses every stripe analyze populated.
        let stats = engine.stats();
        assert!(stats.hits > 0, "{stats:?}");
        let stripes_after_prove = engine
            .population()
            .iter()
            .find(|(k, _)| *k == ArtifactKind::Stripe)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(stripes_after_prove >= stripes_after_analyze);
    }

    #[test]
    fn formatting_edit_reuses_everything_and_reanchors_spans() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        engine.analyze("t.comm", SRC).unwrap();
        // Insert a comment line before the first pragma: every span
        // shifts, every hash stays.
        let shifted = SRC.replace(
            "#pragma comm_parameters sender((rank-1+nprocs)%nprocs)",
            "// a comment\n#pragma comm_parameters sender((rank-1+nprocs)%nprocs)",
        );
        let warm = engine.analyze("t.comm", &shifted).unwrap();
        assert!(warm.dirty.is_empty(), "formatting edit must not dirty");
        assert_eq!(warm.report_json, batch_lint_json("t.comm", &shifted));
    }

    #[test]
    fn single_region_edit_invalidates_only_that_cohort() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        engine.analyze("t.comm", SRC).unwrap();
        let edited = SRC.replace("count(8)", "count(4)");
        let warm = engine.analyze("t.comm", &edited).unwrap();
        assert_eq!(warm.dirty, vec![1]);
        assert_eq!(warm.reused, 1);
        assert!(warm.evicted > 0, "old region-1 cohort must be evicted");
        assert_eq!(warm.report_json, batch_lint_json("t.comm", &edited));
    }

    #[test]
    fn exact_source_replay_costs_no_builds_and_survives_verb_mix() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let cold = engine.analyze("t.comm", SRC).unwrap();
        let misses_cold = engine.stats().misses;
        let warm = engine.analyze("t.comm", SRC).unwrap();
        assert_eq!(warm.report_json, cold.report_json);
        assert_eq!(warm.reused, 2);
        assert_eq!(engine.stats().misses, misses_cold, "replay must not build");
        // A prove of the same bytes takes the full path once (preserving
        // the analyze replay), then both verbs replay.
        let proof = engine.prove("t.comm", SRC).unwrap();
        let misses_proved = engine.stats().misses;
        assert_eq!(
            engine.analyze("t.comm", SRC).unwrap().report_json,
            warm.report_json
        );
        assert_eq!(
            engine.prove("t.comm", SRC).unwrap().cert_json,
            proof.cert_json
        );
        assert_eq!(engine.stats().misses, misses_proved);
        // An edit drops the rendered responses and rebuilds only the
        // edited cohort.
        let edited = SRC.replace("count(8)", "count(4)");
        let after = engine.analyze("t.comm", &edited).unwrap();
        assert_eq!(after.dirty, vec![1]);
        assert_eq!(after.report_json, batch_lint_json("t.comm", &edited));
    }

    #[test]
    fn disk_cert_store_self_heals() {
        let dir = std::env::temp_dir().join(format!("commintd-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(
            SymbolTable::new(),
            LintOptions::default(),
            Some(dir.clone()),
        );
        let first = engine.prove("t.comm", SRC).unwrap();
        assert_eq!(first.disk_cert, "written");
        let again = engine.prove("t.comm", SRC).unwrap();
        assert_eq!(again.disk_cert, "valid");
        // Corrupt the stored certificate: the checker rejects it, the
        // engine recomputes and rewrites.
        let path = cert_path(&dir, "t.comm");
        let bytes = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            bytes.replace("\"eligible\": true", "\"eligible\": false"),
        )
        .unwrap();
        let healed = engine.prove("t.comm", SRC).unwrap();
        assert_eq!(healed.disk_cert, "healed");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), healed.cert_json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn prepares(engine: &Engine) -> usize {
        engine.prepares.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn analyze_then_prove_of_the_same_bytes_prepares_once() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let edited = SRC.replace("count(8)", "count(4)");
        for src in [SRC, edited.as_str()] {
            let before = prepares(&engine);
            let a = engine.analyze("t.comm", src).unwrap();
            let p = engine.prove("t.comm", src).unwrap();
            engine.diag("t.comm", src).unwrap();
            assert_eq!(prepares(&engine) - before, 1);
            assert_eq!(a.report_json, batch_lint_json("t.comm", src));
            assert_eq!((p.report_json, p.cert_json), batch_prove("t.comm", src));
        }
    }

    #[test]
    fn interleaved_files_stay_byte_identical() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let a = SRC;
        let b = SRC.replace("count(16)", "count(12)");
        let a2 = SRC.replace("count(8)", "count(4)");
        for (file, src) in [("a.comm", a), ("b.comm", &b), ("a.comm", &a2)] {
            let got = engine.analyze(file, src).unwrap();
            assert_eq!(got.report_json, batch_lint_json(file, src));
        }
        for (file, src) in [("a.comm", &a2), ("b.comm", &b)] {
            let got = engine.prove(file, src).unwrap();
            assert_eq!((got.report_json, got.cert_json), batch_prove(file, src));
        }
    }

    #[test]
    fn a_parse_error_is_not_kept() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let broken = "#pragma comm_p2p sender(";
        assert!(engine.analyze("t.comm", broken).is_err());
        assert!(engine.prove("t.comm", broken).is_err());
        assert_eq!(
            prepares(&engine),
            2,
            "a failed parse is retried, never shared"
        );
        let a = engine.analyze("t.comm", SRC).unwrap();
        assert_eq!(a.report_json, batch_lint_json("t.comm", SRC));
        assert_eq!(prepares(&engine), 3);
    }

    /// The shared parse sits beside the store: a fixed request script
    /// leaves the store counters where they were before it existed.
    #[test]
    fn store_counters_do_not_see_the_shared_parse() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let b = SRC.replace("count(16)", "count(12)");
        let edited = SRC.replace("count(8)", "count(4)");
        engine.analyze("a.comm", SRC).unwrap();
        engine.prove("a.comm", SRC).unwrap();
        engine.analyze("b.comm", &b).unwrap();
        engine.analyze("a.comm", &edited).unwrap();
        engine.prove("a.comm", &edited).unwrap();
        engine.prove("b.comm", &b).unwrap();
        engine.diag("a.comm", &edited).unwrap();
        assert!(engine
            .analyze("a.comm", "#pragma comm_p2p sender(")
            .is_err());
        engine.analyze("a.comm", SRC).unwrap();
        engine.prove("a.comm", SRC).unwrap();
        let s = engine.stats();
        assert_eq!(
            (s.entries, s.hits, s.misses, s.waits, s.invalidations),
            (61, 76, 97, 0, 36),
            "{s:?}"
        );
    }

    fn renders(engine: &Engine) -> usize {
        engine.renders.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Prove `src` and compare both documents with the batch CLI's;
    /// returns the certificate fragments the request rendered.
    fn prove_renders(engine: &Engine, file: &str, src: &str) -> usize {
        let before = renders(engine);
        let p = engine.prove(file, src).unwrap();
        assert_eq!(
            (p.report_json, p.cert_json),
            batch_prove(file, src),
            "{src}"
        );
        renders(engine) - before
    }

    /// A fragment is rendered once per region version and site position:
    /// an edit renders the regions it changed or moved, a replay none.
    #[test]
    fn a_prove_renders_only_the_fragments_that_changed() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        assert_eq!(prove_renders(&engine, "t.comm", SRC), 2);
        assert_eq!(prove_renders(&engine, "t.comm", SRC), 0, "exact replay");
        let count = SRC.replace("count(8)", "count(4)");
        assert_eq!(prove_renders(&engine, "t.comm", &count), 1, "count edit");
        // A comment line between the regions moves region 1's site only.
        let between = count.replace("}\n#pragma", "}\n// between\n#pragma");
        assert_eq!(prove_renders(&engine, "t.comm", &between), 1, "line shift");
        // Back to the count edit's text: region 1's kept fragment is the
        // shifted one, so it is rendered again; region 0 never moved.
        assert_eq!(prove_renders(&engine, "t.comm", &count), 1);
        let top = format!("// top\n{count}");
        assert_eq!(prove_renders(&engine, "t.comm", &top), 2, "both shift");
    }

    /// The spliced certificate is byte-identical to a fresh
    /// `Certificate::to_json` of the batch prover, whatever moved.
    #[test]
    fn spliced_certificate_is_byte_identical_to_a_fresh_render() {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let nine = SRC.replace("count(16)", "count(9)");
        prove_renders(&engine, "t.comm", &nine);
        // 9 -> 10: region 1's offsets move, its line and column do not.
        let ten = SRC.replace("count(16)", "count(10)");
        assert_eq!(prove_renders(&engine, "t.comm", &ten), 1, "digit count");
        // Indentation only: site 2's column moves, every hash survives.
        let indented = ten.replace(
            "  #pragma comm_p2p sbuf(buf2)",
            "      #pragma comm_p2p sbuf(buf2)",
        );
        assert!(engine.prove("t.comm", &indented).unwrap().dirty.is_empty());
        prove_renders(&engine, "u.comm", &ten);
        assert_eq!(prove_renders(&engine, "u.comm", &indented), 1, "column");
        let third = "#pragma comm_parameters sender(rank) receiver(rank)\n{\n  \
                     #pragma comm_p2p sbuf(buf1) rbuf(buf1) count(2)\n  { }\n}\n";
        let (head, regions) = SRC.split_at(SRC.find("#pragma").unwrap());
        let (first, second) = regions.split_at(regions.rfind("#pragma comm_parameters").unwrap());
        for src in [
            format!("{SRC}{third}"),
            format!("{head}{third}{regions}"),
            format!("{head}{first}"),
            format!("{head}{second}"),
            format!("{head}{second}{first}"),
            head.to_string(),
            SRC.replace("@ranks 2..=12", "@ranks 3..=9"),
            SRC.to_string(),
        ] {
            prove_renders(&engine, "t.comm", &src);
        }
        // Two files share region 0 at different spans; each prove finds
        // the other's kept fragment and renders its own.
        let shifted = format!("// pad\n{SRC}");
        prove_renders(&engine, "a.comm", SRC);
        prove_renders(&engine, "b.comm", &shifted);
        let edited = SRC.replace("count(8)", "count(4)");
        assert_eq!(prove_renders(&engine, "a.comm", &edited), 2);
        assert_eq!(
            prove_renders(&engine, "b.comm", &shifted.replace("count(8)", "count(4)")),
            2
        );
        // The direct fallback writes through the same writer.
        engine
            .force_direct
            .store(true, std::sync::atomic::Ordering::Relaxed);
        for src in [SRC, edited.as_str(), head] {
            assert_eq!(prove_renders(&engine, "d.comm", src), 0);
        }
    }
}
