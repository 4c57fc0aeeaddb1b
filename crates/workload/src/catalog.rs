//! The contents `k ∈ K = {1, …, K}` held by the cloud center (§II-B).

use crate::WorkloadError;

/// Identifier of a content category (index into the catalog).
pub type ContentId = usize;

/// One content: its data size `Q_k` (bytes) and center update period
/// (seconds) — "each of which will be updated at different frequencies"
/// (§II-B, e.g. traffic data hourly, financial news daily).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Content {
    /// Data size `Q_k` in bytes.
    pub size: f64,
    /// How often the center refreshes this content, in seconds.
    pub update_period: f64,
}

impl Content {
    /// Create a content description.
    ///
    /// # Errors
    ///
    /// Returns an error if either field is not strictly positive.
    pub fn new(size: f64, update_period: f64) -> Result<Self, WorkloadError> {
        if size.is_nan() || size <= 0.0 || !size.is_finite() {
            return Err(WorkloadError::NonPositive {
                name: "size",
                value: size,
            });
        }
        if update_period.is_nan() || update_period <= 0.0 || !update_period.is_finite() {
            return Err(WorkloadError::NonPositive {
                name: "update_period",
                value: update_period,
            });
        }
        Ok(Self {
            size,
            update_period,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_content_rejected() {
        assert!(Content::new(0.0, 1.0).is_err());
        assert!(Content::new(1.0, -5.0).is_err());
        assert!(Content::new(f64::NAN, 1.0).is_err());
    }
}
