//! Reusable workspace for the 2-D steppers.
//!
//! Both 2-D steppers need a grid-sized update buffer per step (the FPK
//! stepper also a row of face fluxes). Inside the Picard loop of Alg. 2
//! the same stepper runs `time_steps × iterations` times, so callers own
//! one [`StepperScratch`] and thread it through every step.

/// Caller-owned scratch buffer for the 2-D steppers' `*_scratch` entry
/// points. One instance can be shared across both 2-D steppers (the buffer
/// is resized on demand and carries no state between calls).
#[derive(Debug, Clone, Default)]
pub struct StepperScratch {
    /// Grid-sized update buffer (plus the FPK stepper's flux row).
    buf: Vec<f64>,
}

impl StepperScratch {
    /// A fresh, empty workspace (the buffer grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn buf_for(&mut self, len: usize) -> &mut [f64] {
        self.buf.resize(len, 0.0);
        &mut self.buf
    }
}
