//! Clause vocabulary of the two directives, with the paper's admissibility
//! and pairing rules enforced as diagnostics.
//!
//! Ten clauses: `sender`, `receiver`, `sbuf`, `rbuf` (required);
//! `sendwhen`/`receivewhen` (optional but paired), `target`, `count`
//! (optional, both directives); `place_sync`, `max_comm_iter` (optional,
//! `comm_parameters` only).

use std::fmt;

use crate::expr::{CondExpr, RankExpr};

/// The `target` clause keywords: which library calls to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Target {
    /// `TARGET_COMM_MPI_1SIDE` → `MPI_Put` + window fence.
    Mpi1Side,
    /// `TARGET_COMM_MPI_2SIDE` → non-blocking `MPI_Isend`/`MPI_Irecv`.
    /// This is the default when the clause is absent.
    #[default]
    Mpi2Side,
    /// `TARGET_COMM_SHMEM` → size-matched `shmem_put` + deferred sync.
    Shmem,
}

impl Target {
    /// The paper's keyword for this target.
    pub fn keyword(self) -> &'static str {
        match self {
            Target::Mpi1Side => "TARGET_COMM_MPI_1SIDE",
            Target::Mpi2Side => "TARGET_COMM_MPI_2SIDE",
            Target::Shmem => "TARGET_COMM_SHMEM",
        }
    }

    /// Parse a paper keyword.
    pub fn from_keyword(kw: &str) -> Option<Target> {
        match kw {
            "TARGET_COMM_MPI_1SIDE" => Some(Target::Mpi1Side),
            "TARGET_COMM_MPI_2SIDE" => Some(Target::Mpi2Side),
            "TARGET_COMM_SHMEM" => Some(Target::Shmem),
            _ => None,
        }
    }

    /// All targets (for retargeting sweeps).
    pub const ALL: [Target; 3] = [Target::Mpi2Side, Target::Mpi1Side, Target::Shmem];
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// The `place_sync` clause keywords: where generated synchronization goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PlaceSync {
    /// `END_PARAM_REGION`: one consolidated sync at the end of this
    /// `comm_parameters` region (the default behaviour).
    #[default]
    EndParamRegion,
    /// `BEGIN_NEXT_PARAM_REGION`: defer the sync to the beginning of the
    /// next `comm_parameters` region.
    BeginNextParamRegion,
    /// `END_ADJ_PARAM_REGIONS`: defer all syncs to the last region in a run
    /// of adjacent `comm_parameters` regions.
    EndAdjParamRegions,
}

impl PlaceSync {
    /// The paper's keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            PlaceSync::EndParamRegion => "END_PARAM_REGION",
            PlaceSync::BeginNextParamRegion => "BEGIN_NEXT_PARAM_REGION",
            PlaceSync::EndAdjParamRegions => "END_ADJ_PARAM_REGIONS",
        }
    }

    /// Parse a paper keyword.
    pub fn from_keyword(kw: &str) -> Option<PlaceSync> {
        match kw {
            "END_PARAM_REGION" => Some(PlaceSync::EndParamRegion),
            "BEGIN_NEXT_PARAM_REGION" => Some(PlaceSync::BeginNextParamRegion),
            "END_ADJ_PARAM_REGIONS" => Some(PlaceSync::EndAdjParamRegions),
            _ => None,
        }
    }
}

impl fmt::Display for PlaceSync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Which directive a clause set belongs to (admissibility differs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `#pragma comm_parameters`
    CommParameters,
    /// `#pragma comm_p2p`
    CommP2p,
}

impl fmt::Display for DirectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectiveKind::CommParameters => f.write_str("comm_parameters"),
            DirectiveKind::CommP2p => f.write_str("comm_p2p"),
        }
    }
}

/// The clause payload shared by both directives (plus the two
/// parameters-only clauses; admissibility is checked by
/// [`ClauseSet::validate`]). Equality is structural (see [`RankExpr`]'s).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClauseSet {
    /// `sender(expr)`: rank that sends *to* the evaluating process.
    pub sender: Option<RankExpr>,
    /// `receiver(expr)`: rank that receives *from* the evaluating process.
    pub receiver: Option<RankExpr>,
    /// `sendwhen(bool)`: which processes send.
    pub sendwhen: Option<CondExpr>,
    /// `receivewhen(bool)`: which processes receive.
    pub receivewhen: Option<CondExpr>,
    /// `count(expr)`: elements transferred per buffer.
    pub count: Option<RankExpr>,
    /// `target(keyword)`.
    pub target: Option<Target>,
    /// `place_sync(keyword)` — `comm_parameters` only.
    pub place_sync: Option<PlaceSync>,
    /// `max_comm_iter(expr)` — `comm_parameters` only.
    pub max_comm_iter: Option<RankExpr>,
}

/// A diagnostic from clause validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Source location of the offending clause or directive, when the
    /// diagnostic originates from parsed pragma text (`pragma-front`
    /// threads lexer spans through; builder-API diagnostics carry none).
    pub span: Option<crate::diag::SrcSpan>,
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; nothing is wrong with the directive translation
    /// itself (e.g. "a *blocking* translation of this pattern would
    /// deadlock").
    Note,
    /// Advisory; execution proceeds.
    Warning,
    /// Violation of the directive rules; execution refuses.
    Error,
}

impl Severity {
    /// Lower-case keyword (`note` / `warning` / `error`).
    pub fn keyword(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl Diagnostic {
    /// Construct an error diagnostic.
    pub fn error(message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span: None,
        }
    }

    /// Construct a warning diagnostic.
    pub fn warning(message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span: None,
        }
    }

    /// Construct an informational note.
    pub fn note(message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            message: message.into(),
            span: None,
        }
    }

    /// Attach a source span (builder style).
    pub fn at(mut self, span: crate::diag::SrcSpan) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attach a span only if the diagnostic does not already carry one.
    pub fn or_at(mut self, span: Option<crate::diag::SrcSpan>) -> Diagnostic {
        if self.span.is_none() {
            self.span = span;
        }
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(sp) => write!(f, "{} at {sp}: {}", self.severity.keyword(), self.message),
            None => write!(f, "{}: {}", self.severity.keyword(), self.message),
        }
    }
}

impl ClauseSet {
    /// Validate this clause set against the rules of `kind`, in the context
    /// of whether the enclosing `comm_parameters` (if any) already supplies
    /// `sender`/`receiver`. Returns all diagnostics (warnings included).
    ///
    /// Rules from the paper:
    /// * `sender`, `receiver`, `sbuf`, `rbuf` are required (buffer presence
    ///   is checked by the caller, which owns the buffer lists) — but a
    ///   `comm_p2p` inside a `comm_parameters` region inherits clauses, so
    ///   the requirement applies to the *merged* set;
    /// * `sendwhen` and `receivewhen` "must both be present or both be
    ///   omitted";
    /// * `max_comm_iter` and `place_sync` "may only be used with
    ///   `comm_parameters`".
    pub fn validate(&self, kind: DirectiveKind, inherited: Option<&ClauseSet>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let has =
            |f: fn(&ClauseSet) -> bool| -> bool { f(self) || inherited.map(f).unwrap_or(false) };
        if !has(|c| c.sender.is_some()) {
            out.push(Diagnostic::error(format!(
                "{kind}: required clause `sender` missing (and not inherited)"
            )));
        }
        if !has(|c| c.receiver.is_some()) {
            out.push(Diagnostic::error(format!(
                "{kind}: required clause `receiver` missing (and not inherited)"
            )));
        }
        out.extend(self.unpaired_when(kind, inherited));
        if kind == DirectiveKind::CommP2p {
            if self.place_sync.is_some() {
                out.push(Diagnostic::error(
                    "comm_p2p: `place_sync` may only be used with comm_parameters",
                ));
            }
            if self.max_comm_iter.is_some() {
                out.push(Diagnostic::error(
                    "comm_p2p: `max_comm_iter` may only be used with comm_parameters",
                ));
            }
        }
        out
    }

    /// The pairing rule alone: `sendwhen` and `receivewhen` "must both be
    /// present or both be omitted", counting those `inherited` from the
    /// enclosing region. The error [`ClauseSet::validate`] reports for it.
    pub(crate) fn unpaired_when(
        &self,
        kind: DirectiveKind,
        inherited: Option<&ClauseSet>,
    ) -> Option<Diagnostic> {
        let has =
            |f: fn(&ClauseSet) -> bool| -> bool { f(self) || inherited.map(f).unwrap_or(false) };
        (has(|c| c.sendwhen.is_some()) != has(|c| c.receivewhen.is_some())).then(|| {
            Diagnostic::error(format!(
                "{kind}: `sendwhen` and `receivewhen` must both be present or both be omitted"
            ))
        })
    }

    /// Merge an enclosing `comm_parameters` clause set with this `comm_p2p`
    /// set: the p2p's own assertions win; missing ones are inherited
    /// ("individual instances of comm_p2p in this scope do not need to
    /// re-express these communication clauses, but may provide additional
    /// assertions").
    pub fn merged_with(&self, outer: &ClauseSet) -> ClauseSet {
        ClauseSet {
            sender: self.sender.clone().or_else(|| outer.sender.clone()),
            receiver: self.receiver.clone().or_else(|| outer.receiver.clone()),
            sendwhen: self.sendwhen.clone().or_else(|| outer.sendwhen.clone()),
            receivewhen: self
                .receivewhen
                .clone()
                .or_else(|| outer.receivewhen.clone()),
            count: self.count.clone().or_else(|| outer.count.clone()),
            target: self.target.or(outer.target),
            place_sync: self.place_sync.or(outer.place_sync),
            max_comm_iter: self
                .max_comm_iter
                .clone()
                .or_else(|| outer.max_comm_iter.clone()),
        }
    }

    /// Whether any diagnostic in `diags` is an error.
    pub fn has_errors(diags: &[Diagnostic]) -> bool {
        diags.iter().any(|d| d.severity == Severity::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RankExpr;

    fn full() -> ClauseSet {
        ClauseSet {
            sender: Some(RankExpr::rank() - RankExpr::lit(1)),
            receiver: Some(RankExpr::rank() + RankExpr::lit(1)),
            ..ClauseSet::default()
        }
    }

    #[test]
    fn required_clauses_enforced() {
        let empty = ClauseSet::default();
        let diags = empty.validate(DirectiveKind::CommP2p, None);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            2
        );
        assert!(ClauseSet::has_errors(&diags));
        assert!(full().validate(DirectiveKind::CommP2p, None).is_empty());
    }

    #[test]
    fn pairing_rule() {
        let mut c = full();
        c.sendwhen = Some((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)));
        let diags = c.validate(DirectiveKind::CommP2p, None);
        assert!(diags.iter().any(|d| d.message.contains("both")));
        c.receivewhen = Some((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(1)));
        assert!(c.validate(DirectiveKind::CommP2p, None).is_empty());
    }

    #[test]
    fn params_only_clauses() {
        let mut c = full();
        c.place_sync = Some(PlaceSync::EndParamRegion);
        c.max_comm_iter = Some(RankExpr::var("n"));
        assert!(c.validate(DirectiveKind::CommParameters, None).is_empty());
        let diags = c.validate(DirectiveKind::CommP2p, None);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            2
        );
    }

    #[test]
    fn inheritance_satisfies_requirements() {
        let outer = full();
        let inner = ClauseSet::default();
        assert!(inner
            .validate(DirectiveKind::CommP2p, Some(&outer))
            .is_empty());
    }

    #[test]
    fn pairing_across_inheritance() {
        // Outer provides sendwhen only; inner provides receivewhen only.
        // The merged view has both, so it is legal.
        let mut outer = full();
        outer.sendwhen = Some(CondExprTrue());
        let inner = ClauseSet {
            receivewhen: Some(CondExprTrue()),
            ..ClauseSet::default()
        };
        assert!(inner
            .validate(DirectiveKind::CommP2p, Some(&outer))
            .is_empty());
        // Outer alone is invalid as comm_parameters.
        assert!(ClauseSet::has_errors(
            &outer.validate(DirectiveKind::CommParameters, None)
        ));
    }

    #[allow(non_snake_case)]
    fn CondExprTrue() -> crate::expr::CondExpr {
        crate::expr::CondExpr::True
    }

    #[test]
    fn merge_prefers_inner() {
        let outer = ClauseSet {
            sender: Some(RankExpr::lit(0)),
            receiver: Some(RankExpr::lit(1)),
            count: Some(RankExpr::lit(10)),
            target: Some(Target::Shmem),
            ..ClauseSet::default()
        };
        let inner = ClauseSet {
            count: Some(RankExpr::lit(3)),
            ..ClauseSet::default()
        };
        let m = inner.merged_with(&outer);
        assert_eq!(m.count.unwrap().to_string(), "3");
        assert_eq!(m.sender.unwrap().to_string(), "0");
        assert_eq!(m.target, Some(Target::Shmem));
    }

    #[test]
    fn keywords_roundtrip() {
        for t in Target::ALL {
            assert_eq!(Target::from_keyword(t.keyword()), Some(t));
        }
        assert_eq!(Target::from_keyword("bogus"), None);
        for p in [
            PlaceSync::EndParamRegion,
            PlaceSync::BeginNextParamRegion,
            PlaceSync::EndAdjParamRegions,
        ] {
            assert_eq!(PlaceSync::from_keyword(p.keyword()), Some(p));
        }
        assert_eq!(Target::default(), Target::Mpi2Side);
    }
}
