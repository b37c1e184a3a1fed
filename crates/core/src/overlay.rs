//! Tuning overlays: per-site mechanism decisions the directive engine
//! applies on the *next* run.
//!
//! The paper's thesis is that the application states communication intent
//! and the system picks the mechanism. The overlay is how a measurement
//! tool (commtune, feeding on commscope profiles) talks back to the
//! engine: a versioned set of per-[`SiteId`] decisions — retarget the
//! site, move its consolidated sync, or coalesce its small messages —
//! each carrying the rationale and predicted benefit that justified it.
//! The engine applies decisions at clause-resolution time, so the
//! programmer's source is untouched and a decision can be revoked by
//! simply not installing the overlay.
//!
//! This module is the pure data model (no JSON): serialization lives in
//! `commtune`, which owns the overlay file format and its schema gate.

use crate::clause::{PlaceSync, Target};

/// Version of the overlay decision model. Bumped when decision semantics
/// change; `commtune` refuses to load overlay files whose recorded schema
/// disagrees (a stale overlay must never silently drive a newer engine).
pub const OVERLAY_SCHEMA: i64 = 1;

/// One per-site mechanism decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Leave the site exactly as written (also used to pin a site).
    Keep,
    /// Override the site's translation target.
    Retarget(Target),
    /// Override the consolidated-sync placement of the region executing
    /// this site.
    PlaceSync(PlaceSync),
    /// Coalesce the site's small sends: batch up to `batch` directive
    /// instances per (source, destination) pair into one packed message.
    /// Flushes are a pure function of the instance schedule (batch full,
    /// region end, forced sync, or sender about to block), so coalesced
    /// runs stay bit-identical across engines. Applies when the site
    /// resolves to the two-sided target; other targets keep their
    /// mechanism (one-sided puts have no per-message send/recv overhead
    /// worth eliding).
    Coalesce {
        /// Instances per flush; values below 2 mean "keep".
        batch: usize,
    },
}

/// A [`Decision`] plus the provenance commtune recorded for it.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteDecision {
    /// The directive site (same `netsim::SiteId` namespace as traces,
    /// metrics, and commscope profiles).
    pub site: u32,
    /// What to do.
    pub decision: Decision,
    /// Why: cites the wait-state blame taxonomy entry that motivated it.
    pub rationale: String,
    /// Predicted benefit in virtual nanoseconds over the profiled run.
    pub predicted_saving_ns: i64,
    /// Pinned by a source `// @pin` annotation: the tuner must emit
    /// `Keep` and later passes must not change it.
    pub pinned: bool,
}

impl SiteDecision {
    /// A bare decision with empty provenance (tests, hand-built overlays).
    pub fn new(site: u32, decision: Decision) -> Self {
        SiteDecision {
            site,
            decision,
            rationale: String::new(),
            predicted_saving_ns: 0,
            pinned: false,
        }
    }
}

/// A full tuning overlay: the unit commtune emits and the engine installs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Overlay {
    /// Job-wide eager-vs-rendezvous threshold override (bytes), applied
    /// through `ExecPolicy::eager_threshold` by the experiment driver.
    pub eager_threshold: Option<usize>,
    /// Per-site decisions. At most one per site; first match wins.
    pub decisions: Vec<SiteDecision>,
}

impl Overlay {
    /// Look up the decision for a site.
    pub fn decision_for(&self, site: u32) -> Option<&SiteDecision> {
        self.decisions.iter().find(|d| d.site == site)
    }

    /// Coalescing batch for a site (≥ 2), if any.
    pub fn coalesce_batch_for(&self, site: u32) -> Option<usize> {
        match self.decision_for(site)?.decision {
            Decision::Coalesce { batch } if batch >= 2 => Some(batch),
            _ => None,
        }
    }

    /// Add a decision, replacing any existing decision for the same site.
    pub fn set(&mut self, d: SiteDecision) {
        self.decisions.retain(|x| x.site != d.site);
        self.decisions.push(d);
    }

    /// Whether the overlay changes anything at all (all-`Keep` overlays
    /// are behaviorally identical to no overlay).
    pub fn is_noop(&self) -> bool {
        self.eager_threshold.is_none()
            && self.decisions.iter().all(|d| {
                matches!(
                    d.decision,
                    Decision::Keep | Decision::Coalesce { batch: 0..=1 }
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_replace() {
        let mut ov = Overlay::default();
        assert!(ov.is_noop());
        ov.set(SiteDecision::new(11, Decision::Coalesce { batch: 16 }));
        ov.set(SiteDecision::new(12, Decision::Keep));
        assert_eq!(ov.coalesce_batch_for(11), Some(16));
        assert_eq!(ov.coalesce_batch_for(12), None);
        assert!(!ov.is_noop());
        ov.set(SiteDecision::new(11, Decision::Retarget(Target::Shmem)));
        assert_eq!(ov.decisions.len(), 2);
        assert_eq!(
            ov.decision_for(11).map(|d| d.decision),
            Some(Decision::Retarget(Target::Shmem))
        );
        assert_eq!(ov.coalesce_batch_for(11), None);
        assert_eq!(
            Overlay {
                decisions: vec![SiteDecision::new(
                    3,
                    Decision::PlaceSync(PlaceSync::EndParamRegion)
                )],
                ..Overlay::default()
            }
            .decision_for(3)
            .map(|d| d.decision),
            Some(Decision::PlaceSync(PlaceSync::EndParamRegion))
        );
    }

    #[test]
    fn degenerate_batches_are_keep() {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(7, Decision::Coalesce { batch: 1 }));
        assert_eq!(ov.coalesce_batch_for(7), None);
        assert!(ov.is_noop());
    }
}
