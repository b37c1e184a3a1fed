//! The directive IR: a buffer-independent description of a
//! `comm_parameters` region and its `comm_p2p` instances.
//!
//! Both front-ends produce this IR — the typed builder API (recording specs
//! as it executes) and the pragma text parser (`pragma-front`). The static
//! analyses ([`crate::analysis`]) and the code generator consume it.

use crate::buffer::BufMeta;
use crate::clause::{ClauseSet, Diagnostic, DirectiveKind, PlaceSync, Target};
use crate::coll::CollKind;
use crate::expr::{CondExpr, RankExpr};

/// Validate one `comm_p2p` call site from borrowed parts — the execution
/// engine runs this on every directive instance (millions of times in a
/// region loop), so it must not clone clauses or build a [`P2pSpec`]; it
/// allocates only when it has diagnostics to report.
pub(crate) fn validate_p2p_call(
    clauses: &ClauseSet,
    outer: Option<&ClauseSet>,
    sbuf: &[BufMeta],
    rbuf: &[BufMeta],
) -> Vec<Diagnostic> {
    let mut diags = clauses.validate(DirectiveKind::CommP2p, outer);
    if sbuf.is_empty() {
        diags.push(Diagnostic::error(
            "comm_p2p: required clause `sbuf` missing",
        ));
    }
    if rbuf.is_empty() {
        diags.push(Diagnostic::error(
            "comm_p2p: required clause `rbuf` missing",
        ));
    }
    if !sbuf.is_empty() && !rbuf.is_empty() {
        if sbuf.len() != rbuf.len() {
            diags.push(Diagnostic::error(format!(
                "comm_p2p: sbuf lists {} buffers but rbuf lists {}",
                sbuf.len(),
                rbuf.len()
            )));
        } else {
            for (s, r) in sbuf.iter().zip(rbuf) {
                if !s.elem.compatible(&r.elem) {
                    diags.push(Diagnostic::error(format!(
                        "comm_p2p: sbuf `{}` and rbuf `{}` have incompatible element types",
                        s.name, r.name
                    )));
                }
            }
        }
    }
    let has_count = clauses.count.is_some() || outer.map(|o| o.count.is_some()).unwrap_or(false);
    if !has_count {
        // Count may be omitted "if a buffer in either sbuf or rbuf is an
        // array" — in this API every buffer has a length, so inference
        // always succeeds; emit the informational note the compiler
        // would log.
        diags.push(Diagnostic::note(
            "comm_p2p: `count` omitted; inferred as the size of the smallest buffer",
        ));
    }
    diags
}

/// IR of one `comm_p2p` directive.
#[derive(Clone, Debug, Default)]
pub struct P2pSpec {
    /// The clauses asserted on this instance (not merged with the region's).
    pub clauses: ClauseSet,
    /// Send-buffer metadata, in clause order.
    pub sbuf: Vec<BufMeta>,
    /// Receive-buffer metadata, in clause order.
    pub rbuf: Vec<BufMeta>,
    /// Whether the directive has a computation body to overlap.
    pub has_overlap_body: bool,
    /// Stable site id (distinguishes lexical instances inside loops).
    pub site: u32,
    /// Source locations of the directive and its clauses (populated by
    /// `pragma-front`; builder-API specs carry none).
    pub spans: crate::diag::DirSpans,
}

impl P2pSpec {
    /// Validate this instance in the context of an optional enclosing
    /// region's clauses, adding buffer-rule diagnostics to the clause rules.
    /// Diagnostics are located at the clause they name when the spec carries
    /// spans.
    pub fn validate(&self, outer: Option<&ClauseSet>) -> Vec<Diagnostic> {
        validate_p2p_call(&self.clauses, outer, &self.sbuf, &self.rbuf)
            .into_iter()
            .map(|d| {
                let span = self.spans.for_message(&d.message);
                d.or_at(span)
            })
            .collect()
    }

    /// The inferred element count when `count` is omitted: the size of the
    /// smallest buffer in either list (paper §III-B).
    pub fn inferred_count(&self) -> Option<usize> {
        self.sbuf.iter().chain(&self.rbuf).map(|b| b.len).min()
    }

    /// Total payload bytes per execution given an element count.
    pub fn payload_bytes(&self, count: usize) -> usize {
        self.sbuf
            .iter()
            .map(|b| count.min(b.len) * b.elem.packed_size())
            .sum()
    }
}

/// IR of one `comm_parameters` region and its body.
#[derive(Clone, Debug, Default)]
pub struct ParamsSpec {
    /// The region's clauses.
    pub clauses: ClauseSet,
    /// The `comm_p2p` instances in the body, in first-execution order.
    pub body: Vec<P2pSpec>,
    /// Source locations of the region directive and its clauses.
    pub spans: crate::diag::DirSpans,
}

impl ParamsSpec {
    /// Validate the region and its body.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        // A region alone does not need sender/receiver if every p2p
        // supplies them; validate each p2p against the merged view and only
        // report region-level problems for clauses the region itself sets.
        if !self
            .body
            .iter()
            .any(|p| p.clauses.sendwhen.is_some() || p.clauses.receivewhen.is_some())
        {
            diags.extend(
                self.clauses
                    .unpaired_when(DirectiveKind::CommParameters, None)
                    .map(|d| d.or_at(self.spans.when())),
            );
        }
        for (i, p2p) in self.body.iter().enumerate() {
            for d in p2p.validate(Some(&self.clauses)) {
                diags.push(Diagnostic {
                    severity: d.severity,
                    message: format!("p2p #{i}: {}", d.message),
                    span: d.span,
                });
            }
        }
        diags
    }

    /// Effective sync placement (default `END_PARAM_REGION`).
    pub fn place_sync(&self) -> PlaceSync {
        self.clauses.place_sync.unwrap_or_default()
    }

    /// Effective region-level target (default MPI two-sided).
    pub fn target(&self) -> Target {
        self.clauses.target.unwrap_or_default()
    }
}

/// IR of one `comm_coll` directive (the collective extension; paper §V
/// future work).
#[derive(Clone, Debug)]
pub struct CollSpec {
    /// The collective kind.
    pub kind: CollKind,
    /// `root(expr)` (rooted kinds).
    pub root: Option<RankExpr>,
    /// `groupwhen(cond)` — participating ranks (default all).
    pub groupwhen: Option<CondExpr>,
    /// `count(expr)` — elements per participant chunk.
    pub count: Option<RankExpr>,
    /// `target(keyword)`.
    pub target: Option<Target>,
    /// Contribution buffers.
    pub sbuf: Vec<BufMeta>,
    /// Result buffers.
    pub rbuf: Vec<BufMeta>,
}

impl CollSpec {
    /// Validate the collective's clause set.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if self.kind.rooted() && self.root.is_none() {
            diags.push(Diagnostic::error(format!(
                "comm_coll {}: required clause `root` missing",
                self.kind.keyword()
            )));
        }
        if !self.kind.rooted() && self.root.is_some() {
            diags.push(Diagnostic::warning(format!(
                "comm_coll {}: `root` is ignored for all-to-all",
                self.kind.keyword()
            )));
        }
        if self.sbuf.is_empty() && self.rbuf.is_empty() {
            diags.push(Diagnostic::error(
                "comm_coll: at least one of `sbuf`/`rbuf` is required",
            ));
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ElemKind;
    use mpisim::dtype::BasicType;

    fn meta(name: &str, ty: BasicType, len: usize) -> BufMeta {
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Prim(ty),
            len,
            addr: (0, len * ty.size()),
        }
    }

    fn ring_p2p() -> P2pSpec {
        P2pSpec {
            clauses: ClauseSet {
                sender: Some(RankExpr::var("prev")),
                receiver: Some(RankExpr::var("next")),
                ..ClauseSet::default()
            },
            sbuf: vec![meta("buf1", BasicType::F64, 10)],
            rbuf: vec![meta("buf2", BasicType::F64, 10)],
            ..P2pSpec::default()
        }
    }

    #[test]
    fn standalone_p2p_validates() {
        let p = ring_p2p();
        let diags = p.validate(None);
        assert!(!ClauseSet::has_errors(&diags));
        // The count-inference note is a warning.
        assert!(diags.iter().any(|d| d.message.contains("inferred")));
    }

    #[test]
    fn missing_buffers_detected() {
        let mut p = ring_p2p();
        p.sbuf.clear();
        let diags = p.validate(None);
        assert!(diags.iter().any(|d| d.message.contains("`sbuf` missing")));
    }

    #[test]
    fn mismatched_buffer_lists_detected() {
        let mut p = ring_p2p();
        p.sbuf.push(meta("extra", BasicType::F64, 4));
        let diags = p.validate(None);
        assert!(diags
            .iter()
            .any(|d| d.message.contains("sbuf lists 2 buffers but rbuf lists 1")));
    }

    #[test]
    fn incompatible_elements_detected() {
        let mut p = ring_p2p();
        p.rbuf = vec![meta("buf2", BasicType::I32, 10)];
        let diags = p.validate(None);
        assert!(diags
            .iter()
            .any(|d| d.message.contains("incompatible element types")));
    }

    #[test]
    fn count_inference_smallest_array() {
        let mut p = ring_p2p();
        p.sbuf = vec![meta("a", BasicType::F64, 8), meta("b", BasicType::F64, 12)];
        p.rbuf = vec![meta("c", BasicType::F64, 6), meta("d", BasicType::F64, 20)];
        assert_eq!(p.inferred_count(), Some(6));
        assert_eq!(p.payload_bytes(6), (6 + 6) * 8);
    }

    #[test]
    fn region_merges_and_validates_body() {
        let region = ParamsSpec {
            clauses: ClauseSet {
                sender: Some(RankExpr::var("from_rank")),
                receiver: Some(RankExpr::var("to_rank")),
                sendwhen: Some(RankExpr::rank().eq(RankExpr::var("from_rank"))),
                receivewhen: Some(RankExpr::rank().eq(RankExpr::var("to_rank"))),
                ..ClauseSet::default()
            },
            body: vec![P2pSpec {
                clauses: ClauseSet {
                    count: Some(RankExpr::lit(1)),
                    ..ClauseSet::default()
                },
                sbuf: vec![meta("scalaratomdata", BasicType::U8, 160)],
                rbuf: vec![meta("scalaratomdata", BasicType::U8, 160)],
                ..P2pSpec::default()
            }],
            spans: Default::default(),
        };
        let diags = region.validate();
        assert!(
            !ClauseSet::has_errors(&diags),
            "unexpected errors: {diags:?}"
        );
    }

    #[test]
    fn region_pairing_rule() {
        let region = ParamsSpec {
            clauses: ClauseSet {
                sender: Some(RankExpr::lit(0)),
                receiver: Some(RankExpr::lit(1)),
                sendwhen: Some(crate::expr::CondExpr::True),
                ..ClauseSet::default()
            },
            body: vec![],
            spans: Default::default(),
        };
        let diags = region.validate();
        assert!(ClauseSet::has_errors(&diags));
    }
}
