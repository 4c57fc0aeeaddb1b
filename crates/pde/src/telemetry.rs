//! Shared instrumentation for the 2-D steppers.
//!
//! Each macro step returns its [`CflStep`]; callers fold a sweep's steps
//! into one [`CflSummary`] and report that once. The non-finite sentinel
//! early-returns on a disabled recorder, so the numerical kernels pay one
//! branch per macro step when telemetry is off. Nothing here touches the
//! fields it observes: telemetry reads state, never perturbs it.

use mfgcp_obs::{OnceFlag, RecorderHandle};

use crate::field::Field2d;

/// The CFL bookkeeping of one macro step of a 2-D stepper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CflStep {
    /// Headroom `max_dt / sub_dt`: ≥ 1 when the sub-stepping honoured the
    /// bound, `inf` when the step has no dynamics and the bound is vacuous.
    pub margin: f64,
    /// Sub-steps the macro step took.
    pub substeps: usize,
}

impl CflStep {
    pub(crate) fn new(max_dt: f64, substeps: usize, sub_dt: f64) -> Self {
        Self {
            margin: max_dt / sub_dt,
            substeps,
        }
    }
}

/// The CFL bookkeeping of a whole sweep folded to its worst step: the
/// smallest headroom and the most sub-steps. The empty summary reads
/// `inf` and `0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CflSummary {
    /// Smallest [`CflStep::margin`] seen.
    pub min_margin: f64,
    /// Largest [`CflStep::substeps`] seen.
    pub max_substeps: usize,
}

impl Default for CflSummary {
    fn default() -> Self {
        Self {
            min_margin: f64::INFINITY,
            max_substeps: 0,
        }
    }
}

impl CflSummary {
    /// Fold one macro step in.
    pub fn add(&mut self, step: CflStep) {
        self.min_margin = self.min_margin.min(step.margin);
        self.max_substeps = self.max_substeps.max(step.substeps);
    }
}

/// Scan `field` for the first non-finite value and fire the sentinel event
/// `name` exactly once per stepper instance, carrying the grid coordinates
/// `(i, j)` of the poisoned cell. The O(grid) scan only runs while the
/// recorder is enabled and the flag has not fired yet.
pub(crate) fn report_nonfinite(
    rec: &RecorderHandle,
    flag: &OnceFlag,
    name: &'static str,
    field: &Field2d,
) {
    if !rec.enabled() || flag.fired() {
        return;
    }
    if let Some(idx) = field.values().iter().position(|v| !v.is_finite()) {
        if flag.fire() {
            let ny = field.grid().y().len();
            rec.event(
                name,
                &[
                    ("i", (idx / ny).into()),
                    ("j", (idx % ny).into()),
                    ("value", field.values()[idx].into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{Axis, Grid2d};
    use mfgcp_obs::{Kind, MemorySink, Value};
    use std::sync::Arc;

    fn grid() -> Grid2d {
        Grid2d::new(
            Axis::new(0.0, 1.0, 4).unwrap(),
            Axis::new(0.0, 1.0, 5).unwrap(),
        )
    }

    #[test]
    fn nonfinite_sentinel_fires_once_with_coordinates() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        let flag = OnceFlag::new();
        let mut f = Field2d::zeros(grid());
        report_nonfinite(&rec, &flag, "pde.test.nonfinite", &f);
        assert!(sink.is_empty(), "finite field must not fire");
        // Poison cell (2, 3): row-major index 2*5 + 3.
        f.set(2, 3, f64::NAN);
        report_nonfinite(&rec, &flag, "pde.test.nonfinite", &f);
        report_nonfinite(&rec, &flag, "pde.test.nonfinite", &f);
        let events = sink.events();
        assert_eq!(events.len(), 1, "sentinel must fire exactly once");
        assert_eq!(events[0].kind, Kind::Event);
        assert_eq!(events[0].field("i"), Some(&Value::U64(2)));
        assert_eq!(events[0].field("j"), Some(&Value::U64(3)));
    }

    #[test]
    fn cfl_summary_keeps_the_worst_step() {
        let mut summary = CflSummary::default();
        assert_eq!(summary.min_margin, f64::INFINITY);
        summary.add(CflStep::new(0.3, 4, 0.25));
        summary.add(CflStep::new(f64::INFINITY, 1, 1.0));
        summary.add(CflStep::new(0.5, 2, 0.25));
        assert_eq!(summary.min_margin, 0.3 / 0.25);
        assert_eq!(summary.max_substeps, 4);
    }
}
