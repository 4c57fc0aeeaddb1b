//! The per-EDP agent state.

use mfgcp_sde::{seeded_rng, SimRng};
use mfgcp_workload::{Popularity, Timeliness, TimelinessConfig, WorkloadError};

use crate::metrics::EdpMetrics;

/// One Edge Data Provider agent: per-content caching state, local
/// popularity/timeliness estimates, its own RNG stream, and accumulated
/// metrics.
#[derive(Debug)]
pub struct Edp {
    /// EDP index.
    pub id: usize,
    /// Remaining space `q_{i,k}` per content (storage units).
    pub q: Vec<f64>,
    /// Current caching rates `x_{i,k}` (decision of the last slot).
    pub x: Vec<f64>,
    /// Local popularity tracker (Def. 1 + Eq. (3)).
    pub popularity: Popularity,
    /// Local timeliness tracker (Def. 2).
    pub timeliness: Timeliness,
    /// Per-EDP deterministic RNG stream.
    pub rng: SimRng,
    /// Accumulated economics.
    pub metrics: EdpMetrics,
}

impl Edp {
    /// Create an EDP with all contents at initial remaining space `q0`.
    ///
    /// The RNG stream is derived from `(master_seed, id)` so simulations
    /// are reproducible independent of scheduling order.
    ///
    /// # Errors
    ///
    /// Propagates workload construction failures.
    pub fn new(
        id: usize,
        num_contents: usize,
        q0: f64,
        zipf_iota: f64,
        timeliness: TimelinessConfig,
        master_seed: u64,
    ) -> Result<Self, WorkloadError> {
        Ok(Self {
            id,
            q: vec![q0; num_contents],
            x: vec![0.0; num_contents],
            popularity: Popularity::zipf(num_contents, zipf_iota)?,
            timeliness: Timeliness::new(num_contents, timeliness),
            rng: seeded_rng(
                master_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id as u64),
            ),
            metrics: EdpMetrics::default(),
        })
    }

    /// Whether this EDP holds enough of `content` to share it
    /// (`q ≤ α·Q_k`).
    pub fn can_share(&self, content: usize, alpha_qk: f64) -> bool {
        self.q[content] <= alpha_qk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edp(id: usize) -> Edp {
        Edp::new(id, 4, 0.7, 0.8, TimelinessConfig::default(), 42).unwrap()
    }

    #[test]
    fn construction_initializes_state() {
        let e = edp(3);
        assert_eq!(e.id, 3);
        assert_eq!(e.q, vec![0.7; 4]);
        assert_eq!(e.x, vec![0.0; 4]);
        assert_eq!(e.metrics, EdpMetrics::default());
    }

    #[test]
    fn rng_streams_differ_per_edp_but_are_reproducible() {
        use rand::RngExt as _;
        let mut a1 = edp(1);
        let mut a2 = edp(1);
        let mut b = edp(2);
        let x1: u64 = a1.rng.random();
        let x2: u64 = a2.rng.random();
        let y: u64 = b.rng.random();
        assert_eq!(x1, x2, "same id → same stream");
        assert_ne!(x1, y, "different id → different stream");
    }

    #[test]
    fn sharing_qualification_threshold() {
        let mut e = edp(0);
        e.q[1] = 0.1;
        assert!(e.can_share(1, 0.2));
        assert!(!e.can_share(0, 0.2)); // q = 0.7
    }

    #[test]
    fn rank_follows_popularity() {
        let mut e = edp(0);
        // Zipf prior: content 0 is most popular.
        assert_eq!(e.popularity.ranked()[0], 0);
        // Flood content 3 with requests.
        e.popularity.update(&[0, 0, 0, 50]);
        assert_eq!(e.popularity.ranked()[0], 3);
    }
}
