//! Typed audit violations with slot/content coordinates.

/// One violated invariant, with enough coordinates to reproduce it.
///
/// The invariant numbering (I1–I6) matches the crate docs: money
/// conservation, case-tally consistency, Eq. (10) reconciliation,
/// solver-side gating, differential oracles, and handover conservation.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// I1 — sharing fees paid and earned diverge within one slot.
    SlotMoneyLeak {
        /// Epoch of the offending slot.
        epoch: usize,
        /// Slot index within the epoch.
        slot: usize,
        /// Σ sharing fees paid by buyers this slot.
        paid: f64,
        /// Σ sharing fees earned by peers this slot.
        earned: f64,
    },
    /// I1 — cumulative paid/earned sharing fees diverge over the run.
    TotalMoneyLeak {
        /// Σ sharing fees paid over the whole run.
        paid: f64,
        /// Σ sharing fees earned over the whole run.
        earned: f64,
    },
    /// I2 — a slot resolved more trades than requests it served (every
    /// trade batch serves at least one request).
    CaseTally {
        /// Epoch of the offending slot.
        epoch: usize,
        /// Slot index within the epoch.
        slot: usize,
        /// Trades resolved (case 1 + case 2 + case 3).
        trades: u64,
        /// Requests served.
        volume: u64,
    },
    /// I2 — a sharing-disabled scheme recorded case-2 (peer share) trades.
    ForbiddenSharing {
        /// Epoch of the offending slot.
        epoch: usize,
        /// Slot index within the epoch.
        slot: usize,
        /// Number of case-2 trades observed.
        case2: u64,
    },
    /// I2 — an end-of-run integer tally differs between the slot series
    /// and the per-EDP counters (these must match exactly).
    CountMismatch {
        /// Which tally ("volume", "case1", "case2", "case3").
        what: &'static str,
        /// Σ over the slot series.
        series: u64,
        /// Σ over the per-EDP counters.
        per_edp: u64,
    },
    /// Guard for I1/I3 — a non-finite flow entered the accounting.
    NonFinite {
        /// Epoch of the offending slot.
        epoch: usize,
        /// Slot index within the epoch.
        slot: usize,
        /// Which flow went non-finite.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// I3 — an Eq. (10) term summed over the slot series diverges from the
    /// same term summed over the per-EDP accumulators.
    SeriesMismatch {
        /// Which Eq. (10) term ("utility", "trading_income", …).
        what: &'static str,
        /// Σ_slots `slot_flow · M`.
        series: f64,
        /// Σ_i per-EDP total.
        per_edp: f64,
        /// Absolute tolerance the gap exceeded.
        tol: f64,
    },
    /// I4 — the FPK density of a prepared equilibrium lost or gained mass.
    MassDrift {
        /// Epoch whose `prepare_epoch` produced the equilibrium.
        epoch: usize,
        /// Content the equilibrium was solved for.
        content: usize,
        /// Time step at which the drift was detected.
        step: usize,
        /// The offending total mass `∫λ(t_n)`.
        mass: f64,
        /// The configured drift gate.
        tol: f64,
    },
    /// I4 — an equilibrium policy surface left the admissible `[0, 1]`.
    PolicyRange {
        /// Epoch whose `prepare_epoch` produced the equilibrium.
        epoch: usize,
        /// Content the equilibrium was solved for.
        content: usize,
        /// Time step of the offending policy surface.
        step: usize,
        /// Minimum of the surface.
        min: f64,
        /// Maximum of the surface.
        max: f64,
    },
    /// I5 — a fast path diverged from its reference oracle.
    OracleDivergence {
        /// Which oracle ("pricer", "two_smallest", …).
        what: &'static str,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// I6 — an epoch-boundary re-association broke the served-by
    /// partition: a requester was double-counted across its old and new
    /// host EDP, or dropped from every served list.
    HandoverPartition {
        /// Epoch whose boundary performed the handover.
        epoch: usize,
        /// Requesters in the population.
        requesters: u64,
        /// Requesters assigned to exactly one consistent served list.
        assigned: u64,
        /// Requesters appearing in more than one served list.
        duplicates: u64,
    },
    /// I6 — a per-EDP money/case accumulator changed across an
    /// epoch-boundary handover (association moves requesters between
    /// shards, never economics, so the totals must reconcile exactly).
    HandoverDrift {
        /// Epoch whose boundary performed the handover.
        epoch: usize,
        /// Which accumulator drifted ("trading_income", "case1", …).
        what: &'static str,
        /// Population total immediately before the handover.
        before: f64,
        /// Population total immediately after the handover.
        after: f64,
    },
}

impl AuditError {
    /// The invariant family this violation belongs to ("I1" … "I6").
    pub fn invariant(&self) -> &'static str {
        match self {
            Self::SlotMoneyLeak { .. } | Self::TotalMoneyLeak { .. } => "I1",
            Self::CaseTally { .. } | Self::ForbiddenSharing { .. } | Self::CountMismatch { .. } => {
                "I2"
            }
            Self::NonFinite { .. } | Self::SeriesMismatch { .. } => "I3",
            Self::MassDrift { .. } | Self::PolicyRange { .. } => "I4",
            Self::OracleDivergence { .. } => "I5",
            Self::HandoverPartition { .. } | Self::HandoverDrift { .. } => "I6",
        }
    }

    /// `(epoch, slot-or-content)` coordinates when the violation is
    /// localized; `None` for end-of-run aggregate violations. Handover
    /// violations use index 0 — the boundary precedes slot 0 of its epoch.
    pub fn coordinates(&self) -> Option<(usize, usize)> {
        match *self {
            Self::SlotMoneyLeak { epoch, slot, .. }
            | Self::CaseTally { epoch, slot, .. }
            | Self::ForbiddenSharing { epoch, slot, .. }
            | Self::NonFinite { epoch, slot, .. } => Some((epoch, slot)),
            Self::MassDrift { epoch, content, .. } | Self::PolicyRange { epoch, content, .. } => {
                Some((epoch, content))
            }
            Self::HandoverPartition { epoch, .. } | Self::HandoverDrift { epoch, .. } => {
                Some((epoch, 0))
            }
            Self::TotalMoneyLeak { .. }
            | Self::CountMismatch { .. }
            | Self::SeriesMismatch { .. }
            | Self::OracleDivergence { .. } => None,
        }
    }
}

impl core::fmt::Display for AuditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::SlotMoneyLeak {
                epoch,
                slot,
                paid,
                earned,
            } => write!(
                f,
                "I1 money leak at epoch {epoch} slot {slot}: fees paid {paid} vs earned {earned}"
            ),
            Self::TotalMoneyLeak { paid, earned } => write!(
                f,
                "I1 cumulative money leak: fees paid {paid} vs earned {earned}"
            ),
            Self::CaseTally {
                epoch,
                slot,
                trades,
                volume,
            } => write!(
                f,
                "I2 case tally at epoch {epoch} slot {slot}: {trades} trades exceed {volume} served requests"
            ),
            Self::ForbiddenSharing { epoch, slot, case2 } => write!(
                f,
                "I2 forbidden sharing at epoch {epoch} slot {slot}: {case2} case-2 trades under a non-sharing scheme"
            ),
            Self::CountMismatch {
                what,
                series,
                per_edp,
            } => write!(
                f,
                "I2 {what} tally mismatch: slot series {series} vs per-EDP {per_edp}"
            ),
            Self::NonFinite {
                epoch,
                slot,
                what,
                value,
            } => write!(
                f,
                "I3 non-finite {what} at epoch {epoch} slot {slot}: {value}"
            ),
            Self::SeriesMismatch {
                what,
                series,
                per_edp,
                tol,
            } => write!(
                f,
                "I3 Eq. (10) mismatch on {what}: slot series {series} vs per-EDP {per_edp} (tol {tol:e})"
            ),
            Self::MassDrift {
                epoch,
                content,
                step,
                mass,
                tol,
            } => write!(
                f,
                "I4 FPK mass drift at epoch {epoch} content {content} step {step}: mass {mass} (tol {tol:e})"
            ),
            Self::PolicyRange {
                epoch,
                content,
                step,
                min,
                max,
            } => write!(
                f,
                "I4 policy out of [0,1] at epoch {epoch} content {content} step {step}: range [{min}, {max}]"
            ),
            Self::OracleDivergence { what, detail } => {
                write!(f, "I5 {what} oracle divergence: {detail}")
            }
            Self::HandoverPartition {
                epoch,
                requesters,
                assigned,
                duplicates,
            } => write!(
                f,
                "I6 handover partition broken at epoch {epoch} boundary: {assigned} of {requesters} requesters assigned, {duplicates} double-counted"
            ),
            Self::HandoverDrift {
                epoch,
                what,
                before,
                after,
            } => write!(
                f,
                "I6 {what} accumulator drifted across the epoch {epoch} handover: {before} before vs {after} after"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_coordinates() {
        let e = AuditError::SlotMoneyLeak {
            epoch: 1,
            slot: 7,
            paid: 2.0,
            earned: 1.5,
        };
        let s = e.to_string();
        assert!(s.contains("epoch 1") && s.contains("slot 7"), "{s}");
        assert_eq!(e.invariant(), "I1");
        assert_eq!(e.coordinates(), Some((1, 7)));

        let e = AuditError::MassDrift {
            epoch: 0,
            content: 3,
            step: 12,
            mass: 0.7,
            tol: 1e-5,
        };
        assert!(e.to_string().contains("content 3"));
        assert_eq!(e.invariant(), "I4");
        assert_eq!(e.coordinates(), Some((0, 3)));

        let e = AuditError::SeriesMismatch {
            what: "utility",
            series: 1.0,
            per_edp: 2.0,
            tol: 1e-9,
        };
        assert_eq!(e.invariant(), "I3");
        assert_eq!(e.coordinates(), None);
        assert!(e.to_string().contains("utility"));
    }

    #[test]
    fn every_variant_maps_to_an_invariant_family() {
        let all = [
            AuditError::TotalMoneyLeak {
                paid: 1.0,
                earned: 0.0,
            },
            AuditError::CaseTally {
                epoch: 0,
                slot: 0,
                trades: 2,
                volume: 1,
            },
            AuditError::ForbiddenSharing {
                epoch: 0,
                slot: 0,
                case2: 1,
            },
            AuditError::CountMismatch {
                what: "volume",
                series: 1,
                per_edp: 2,
            },
            AuditError::NonFinite {
                epoch: 0,
                slot: 0,
                what: "utility",
                value: f64::NAN,
            },
            AuditError::PolicyRange {
                epoch: 0,
                content: 0,
                step: 0,
                min: -0.1,
                max: 1.2,
            },
            AuditError::OracleDivergence {
                what: "pricer",
                detail: "gap".into(),
            },
            AuditError::HandoverPartition {
                epoch: 1,
                requesters: 10,
                assigned: 9,
                duplicates: 1,
            },
            AuditError::HandoverDrift {
                epoch: 1,
                what: "trading_income",
                before: 1.0,
                after: 2.0,
            },
        ];
        for e in &all {
            let inv = e.invariant();
            assert!(["I1", "I2", "I3", "I4", "I5", "I6"].contains(&inv));
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn handover_violations_carry_the_epoch_boundary_coordinates() {
        let e = AuditError::HandoverPartition {
            epoch: 3,
            requesters: 5,
            assigned: 4,
            duplicates: 0,
        };
        assert_eq!(e.invariant(), "I6");
        assert_eq!(e.coordinates(), Some((3, 0)));
        assert!(e.to_string().contains("epoch 3"));
        let e = AuditError::HandoverDrift {
            epoch: 2,
            what: "case2",
            before: 4.0,
            after: 5.0,
        };
        assert_eq!(e.invariant(), "I6");
        assert_eq!(e.coordinates(), Some((2, 0)));
        assert!(e.to_string().contains("case2"));
    }
}
