//! Discretely sampled paths `(t_n, x_n)` shared by all processes.

/// A discretely sampled scalar path.
///
/// Invariant: `times` is strictly increasing and `times.len() == values.len() >= 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePath {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl SamplePath {
    /// Create a path from matching time and value vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty, have different lengths, or `times` is
    /// not strictly increasing.
    pub fn new(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert!(!times.is_empty(), "path must contain at least one sample");
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "times must be strictly increasing"
        );
        Self { times, values }
    }

    /// Sampling times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sampled values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The final sampled value.
    pub fn last_value(&self) -> f64 {
        *self.values.last().expect("non-empty by invariant")
    }

    /// The final sampling time.
    pub fn last_time(&self) -> f64 {
        *self.times.last().expect("non-empty by invariant")
    }

    /// Linear interpolation of the path at time `t`.
    ///
    /// Clamps to the first/last value outside the sampled range.
    pub fn interpolate(&self, t: f64) -> f64 {
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= self.last_time() {
            return self.last_value();
        }
        // partition_point returns the first index with times[i] > t.
        let hi = self.times.partition_point(|&s| s <= t);
        let lo = hi - 1;
        let (t0, t1) = (self.times[lo], self.times[hi]);
        let (x0, x1) = (self.values[lo], self.values[hi]);
        x0 + (x1 - x0) * (t - t0) / (t1 - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> SamplePath {
        SamplePath::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0])
    }

    #[test]
    fn interpolation_is_linear_between_knots() {
        let p = path();
        assert_eq!(p.interpolate(0.5), 5.0);
        assert_eq!(p.interpolate(1.5), 5.0);
        assert_eq!(p.interpolate(1.0), 10.0);
    }

    #[test]
    fn interpolation_clamps_outside_range() {
        let p = path();
        assert_eq!(p.interpolate(-1.0), 0.0);
        assert_eq!(p.interpolate(5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_times() {
        SamplePath::new(vec![0.0, 0.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_length_mismatch() {
        SamplePath::new(vec![0.0, 1.0], vec![1.0]);
    }
}
