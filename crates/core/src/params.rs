//! Model parameters with the paper's §V-A defaults, expressed in the
//! normalized unit system described at the crate root.

use mfgcp_pde::{Axis, Grid2d};

/// Errors from core construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A parameter failed validation.
    BadParam {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the constraint that failed.
        message: String,
    },
    /// The fixed-point iteration of Alg. 2 did not converge within
    /// `max_iterations`.
    NotConverged {
        /// Final sup-norm policy residual.
        residual: f64,
        /// Iterations performed.
        iterations: usize,
    },
    /// Pieces handed to [`crate::Equilibrium::from_parts`] (or
    /// [`Params::from_canonical_bytes`]) do not fit together — wrong
    /// trajectory lengths, mismatched grids, or a malformed encoding.
    InconsistentParts {
        /// Description of the inconsistency.
        message: String,
    },
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::BadParam { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            CoreError::NotConverged { residual, iterations } => write!(
                f,
                "best-response iteration did not converge: residual {residual:.3e} after {iterations} iterations"
            ),
            CoreError::InconsistentParts { message } => {
                write!(f, "inconsistent equilibrium parts: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// All model parameters.
///
/// Defaults implement the paper's §V-A settings under the crate's unit
/// conventions; every field is public so experiments can sweep freely.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    // ---- population / catalog ----
    /// Number of EDPs `M` (paper: 300). Only enters finite-population
    /// formulas (Eq. (5)) and the sharing-benefit estimate.
    pub num_edps: usize,
    /// Content size `Q_k` in content units (1.0 ≡ 100 MB).
    pub q_size: f64,
    /// Nominal request intensity `|I_k(t)|` — requests per EDP per epoch
    /// for the content being optimized.
    pub requests: f64,
    /// Content popularity `Π_k(t)` used in the caching drift (Eq. (4)).
    pub popularity: f64,
    /// Urgency factor `ξ^{L_k(t)}` used in the caching drift (Eq. (4)).
    pub urgency_factor: f64,

    // ---- caching dynamics (Eq. (4)) ----
    /// Drift weight `w₁` of the caching control (paper: 1).
    pub w1: f64,
    /// Drift weight `w₂` of the popularity-driven discard (paper: 1/20).
    pub w2: f64,
    /// Drift weight `w₃` of the urgency-driven retention (paper: 10).
    pub w3: f64,
    /// Caching-state noise `ϱ_q` in normalized storage units (paper: 0.1).
    pub varrho_q: f64,

    // ---- placement cost (Eq. (8)) ----
    /// Linear placement-cost coefficient `w₄`.
    ///
    /// Paper prints `2.5·10³` against incomes of order `10⁻⁷·Q_k`; we keep
    /// the *role* (linear cost of the caching rate) and calibrate the scale
    /// so the optimal control of Thm. 1 is interior (see `EXPERIMENTS.md`).
    pub w4: f64,
    /// Quadratic placement-cost coefficient `w₅` (same calibration note;
    /// Fig. 8 sweeps this in `[1, 2.4]×` the default, mirroring the paper's
    /// `[0.65, 1.55]·10⁸` sweep).
    pub w5: f64,

    // ---- trading & sharing economics ----
    /// Maximum unit price `p̂` (cu per content unit).
    pub p_hat: f64,
    /// Supply-to-price conversion `η₁` (Eq. (5)); the paper sweeps
    /// `η₁/p̂ ∈ [0.2, 0.8]`, here `η₁ ∈ [1, 4]` with `p̂ = 5`.
    pub eta1: f64,
    /// Delay-to-cost conversion `η₂` (Eq. (9)).
    pub eta2: f64,
    /// Peer sharing unit price `p̄_k` (cu per content unit).
    pub p_bar: f64,
    /// "Cached enough" threshold `α` (paper: 0.2): an EDP holds enough of
    /// content `k` when its remaining space is below `α·Q_k`.
    pub alpha: f64,
    /// Sigmoid sharpness `l` of the case-probability smoothing `f`.
    pub sigmoid_l: f64,

    // ---- channel dynamics (Eq. (1)) ----
    /// Fading OU rate `ς_h`.
    pub varsigma_h: f64,
    /// Fading long-term mean `υ_h`.
    pub upsilon_h: f64,
    /// Fading noise `ϱ_h` (paper picks 0.1 of the band, i.e. `1·10⁻⁵`).
    pub varrho_h: f64,
    /// Lower edge of the fading band (paper: `1·10⁻⁵`).
    pub h_min: f64,
    /// Upper edge of the fading band (paper: `10·10⁻⁵`).
    pub h_max: f64,

    // ---- rates ----
    /// Center-to-EDP rate `H_c` in content units per epoch (100 MB over a
    /// 10 Mbit/s backhaul ≈ 80 s; with a 100 s epoch, `H_c = 1.25` — the
    /// slow backhaul is what makes peer sharing worthwhile, §III-A).
    pub center_rate: f64,
    /// Edge rate scale: `H(h)` at the top of the fading band, content
    /// units per epoch (edge links beat the backhaul).
    pub edge_rate_scale: f64,

    // ---- horizon & discretization ----
    /// Optimization horizon `T` (paper: 1).
    pub t_horizon: f64,
    /// Number of macro time steps of the HJB/FPK grid.
    pub time_steps: usize,
    /// Grid points on the `h` axis.
    pub grid_h: usize,
    /// Grid points on the `q` axis.
    pub grid_q: usize,

    // ---- initial distribution (§V-A) ----
    /// Mean of the initial normal caching-state distribution (paper: 0.7).
    pub lambda0_mean: f64,
    /// Standard deviation of the initial distribution (paper: 0.1).
    pub lambda0_std: f64,

    /// Terminal (salvage) value weight `γ ≥ 0`: the HJB terminal condition
    /// becomes `V(T, h, q) = γ·(Q_k − q)` — cached inventory retains value
    /// past the horizon instead of expiring worthless. The paper's finite
    /// horizon uses `γ = 0` (our default); positive values remove the
    /// end-of-horizon "stop caching" artifact and model rolling epochs
    /// (each epoch's leftover cache seeds the next).
    pub terminal_value_weight: f64,

    // ---- Alg. 2 fixed point ----
    /// Maximum best-response iterations `ψ_th`.
    pub max_iterations: usize,
    /// Sup-norm policy tolerance ("preset threshold" of Alg. 2 line 6),
    /// applied to the *undamped* best-response gap `max|BR(x) − x|` — not
    /// the damped applied update `ω·|BR(x) − x|` (see
    /// [`crate::ConvergenceReport`]).
    pub tolerance: f64,
    /// Picard relaxation weight `ω ∈ (0, 1]` mixing successive policies
    /// (`x ← (1−ω)x + ω·BR(x)`): the weight a cold solve opens at and
    /// the one the adaptive schedule falls back to whenever the undamped
    /// gap grows. Default 0.2: a low reset weight breaks the limit
    /// cycles an over-relaxed step enters, and since the weight grows
    /// back while the gap shrinks it costs contracting solves little.
    pub relaxation: f64,
    /// Worker threads an epoch's per-content equilibrium solves fan out
    /// over (`Framework::run_epoch`, the Alg. 1 driver); `0` = one per
    /// available core. A single solve always runs on one thread, and each
    /// content's solve is a pure function of its inputs, so results are
    /// bit-identical for any value. Not part of the canonical encoding:
    /// it changes how fast an equilibrium is found, never which one.
    pub worker_threads: usize,

    /// Adaptive-damping cap `ω̄ ∈ (0, 1]`: while the undamped
    /// best-response gap keeps shrinking, the Picard weight grows
    /// geometrically from [`Params::relaxation`] toward
    /// `max(damping, relaxation)`, and falls back to `relaxation` the
    /// moment the gap increases. A seeded solve (warm start, continuation
    /// hand-off) opens at the cap. Default 1.0, the full best-response
    /// step of Alg. 2: near the fixed point the best response barely
    /// moves, so any damping below 1 only stretches the re-convergence.
    /// The schedule is a pure function of the residual history, so solves
    /// stay bit-identical across worker thread counts. Ignored by
    /// fictitious play.
    pub damping: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_edps: 300,
            q_size: 1.0,
            requests: 10.0,
            popularity: 0.3,
            urgency_factor: 0.05,
            w1: 1.0,
            w2: 1.0 / 20.0,
            w3: 10.0,
            varrho_q: 0.1,
            w4: 0.5,
            w5: 2.0,
            p_hat: 5.0,
            eta1: 1.0,
            eta2: 1.0,
            p_bar: 1.0,
            alpha: 0.2,
            sigmoid_l: 10.0,
            varsigma_h: 4.0,
            upsilon_h: 5.0e-5,
            varrho_h: 1.0e-5,
            h_min: 1.0e-5,
            h_max: 10.0e-5,
            center_rate: 1.25,
            edge_rate_scale: 8.0,
            t_horizon: 1.0,
            time_steps: 40,
            grid_h: 24,
            grid_q: 48,
            lambda0_mean: 0.7,
            lambda0_std: 0.1,
            terminal_value_weight: 0.0,
            max_iterations: 40,
            tolerance: 2e-3,
            relaxation: 0.2,
            worker_threads: 0,
            damping: 1.0,
        }
    }
}

macro_rules! require {
    ($cond:expr, $name:literal, $msg:expr) => {
        // Written as if/else (not `!cond`) so NaNs fail closed without
        // tripping clippy's negated-partial-ord lint.
        if $cond {
        } else {
            return Err(CoreError::BadParam {
                name: $name,
                message: $msg.to_string(),
            });
        }
    };
}

impl Params {
    /// Validate every constraint the solvers rely on.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        require!(
            self.num_edps >= 2,
            "num_edps",
            "need at least 2 EDPs for a game"
        );
        require!(
            self.q_size > 0.0 && self.q_size <= 1.0,
            "q_size",
            "must be in (0, 1]"
        );
        require!(self.requests >= 0.0, "requests", "must be >= 0");
        require!(
            (0.0..=1.0).contains(&self.popularity),
            "popularity",
            "must be a probability"
        );
        require!(
            self.urgency_factor > 0.0 && self.urgency_factor <= 1.0,
            "urgency_factor",
            "must be in (0, 1]"
        );
        require!(self.w1 > 0.0, "w1", "must be > 0");
        require!(self.w2 >= 0.0, "w2", "must be >= 0");
        require!(self.w3 >= 0.0, "w3", "must be >= 0");
        require!(self.varrho_q >= 0.0, "varrho_q", "must be >= 0");
        require!(self.w4 >= 0.0, "w4", "must be >= 0");
        require!(self.w5 > 0.0, "w5", "must be > 0 (Thm. 1 divides by it)");
        require!(self.p_hat > 0.0, "p_hat", "must be > 0");
        require!(self.eta1 >= 0.0, "eta1", "must be >= 0");
        require!(self.eta2 >= 0.0, "eta2", "must be >= 0");
        require!(self.p_bar >= 0.0, "p_bar", "must be >= 0");
        require!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha",
            "must be in (0, 1)"
        );
        require!(self.sigmoid_l > 0.0, "sigmoid_l", "must be > 0");
        require!(self.varsigma_h > 0.0, "varsigma_h", "must be > 0");
        require!(self.varrho_h > 0.0, "varrho_h", "must be > 0");
        require!(self.h_min < self.h_max, "h_min", "band must be non-empty");
        require!(
            self.upsilon_h >= self.h_min && self.upsilon_h <= self.h_max,
            "upsilon_h",
            "long-term mean must lie in the fading band"
        );
        require!(self.center_rate > 0.0, "center_rate", "must be > 0");
        require!(self.edge_rate_scale > 0.0, "edge_rate_scale", "must be > 0");
        require!(self.t_horizon > 0.0, "t_horizon", "must be > 0");
        require!(self.time_steps >= 2, "time_steps", "need at least 2 steps");
        require!(self.grid_h >= 4, "grid_h", "need at least 4 points");
        require!(self.grid_q >= 4, "grid_q", "need at least 4 points");
        require!(
            (0.0..=1.0).contains(&self.lambda0_mean),
            "lambda0_mean",
            "must be in [0, 1]"
        );
        require!(self.lambda0_std > 0.0, "lambda0_std", "must be > 0");
        require!(
            self.terminal_value_weight >= 0.0,
            "terminal_value_weight",
            "must be >= 0"
        );
        require!(self.max_iterations >= 1, "max_iterations", "must be >= 1");
        require!(self.tolerance > 0.0, "tolerance", "must be > 0");
        require!(
            self.relaxation > 0.0 && self.relaxation <= 1.0,
            "relaxation",
            "must be in (0, 1]"
        );
        require!(
            self.damping > 0.0 && self.damping <= 1.0,
            "damping",
            "must be in (0, 1]"
        );
        Ok(())
    }

    /// The `(h, q)` state grid.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; call [`Params::validate`]
    /// first (the solvers do).
    pub fn grid(&self) -> Grid2d {
        let h = Axis::new(self.h_min, self.h_max, self.grid_h).expect("validated h axis");
        let q = Axis::new(0.0, self.q_size, self.grid_q).expect("validated q axis");
        Grid2d::new(h, q)
    }

    /// Macro time step `Δt = T / time_steps`.
    pub fn dt(&self) -> f64 {
        self.t_horizon / self.time_steps as f64
    }

    /// Index of the macro step containing time `t`, clamped to the
    /// horizon (non-finite `t` clamps too: NaN casts to step 0).
    ///
    /// This is the single slot-selection rule: `Equilibrium::step_of`,
    /// the serve-side artifact store and MFG-CP's hoisted
    /// [`PolicyLookup`](crate::PolicyLookup) all reach `step_index`, so
    /// a served lookup lands on the same plane as an in-process one.
    pub fn step_of(&self, t: f64) -> usize {
        step_index(t, self.dt(), self.time_steps - 1)
    }

    /// "Cached enough" threshold `α·Q_k` in storage units.
    pub fn alpha_qk(&self) -> f64 {
        self.alpha * self.q_size
    }

    /// Channel drift `½ς_h(υ_h − h)` (Eq. (1)).
    pub fn drift_h(&self, h: f64) -> f64 {
        0.5 * self.varsigma_h * (self.upsilon_h - h)
    }

    /// Normalized caching drift (Eq. (4) divided by `Q_k`):
    /// `−w₁x − w₂Π + w₃ξ^L` in storage units per epoch.
    #[inline]
    pub fn drift_q(&self, x: f64, popularity: f64, urgency_factor: f64) -> f64 {
        -self.w1 * x - self.w2 * popularity + self.w3 * urgency_factor
    }

    /// Diffusion coefficient `½ϱ_h²` on the `h` axis.
    pub fn diffusion_h(&self) -> f64 {
        0.5 * self.varrho_h * self.varrho_h
    }

    /// Diffusion coefficient `½ϱ_q²` on the `q` axis.
    pub fn diffusion_q(&self) -> f64 {
        0.5 * self.varrho_q * self.varrho_q
    }

    /// The canonical little-endian encoding of every field except
    /// `worker_threads`, in struct declaration order: `f64`s as raw
    /// IEEE-754 bits, `usize`s as `u64`. This is the stable wire form behind
    /// [`Params::fingerprint`] and the equilibrium artifact format of
    /// `mfgcp-serve`; adding a field to `Params` extends the encoding and
    /// therefore changes every fingerprint, which is exactly the desired
    /// behaviour (an old artifact must not silently rehydrate under a
    /// params struct it has no value for).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = CanonicalEncoder(Vec::with_capacity(CANONICAL_LEN));
        visit_canonical(&mut self.clone(), &mut enc);
        debug_assert_eq!(enc.0.len(), CANONICAL_LEN);
        enc.0
    }

    /// Decode [`Params::canonical_bytes`] output back into a `Params`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InconsistentParts`] when `bytes` has the wrong
    /// length, and propagates [`Params::validate`] failures so a decoded
    /// value upholds every invariant the solvers rely on. `worker_threads`
    /// is not encoded and decodes to its default.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() != CANONICAL_LEN {
            return Err(CoreError::InconsistentParts {
                message: format!(
                    "canonical params block is {} bytes, expected {CANONICAL_LEN}",
                    bytes.len()
                ),
            });
        }
        let mut params = Params::default();
        let mut dec = CanonicalDecoder { bytes, pos: 0 };
        visit_canonical(&mut params, &mut dec);
        debug_assert_eq!(dec.pos, CANONICAL_LEN);
        params.validate()?;
        Ok(params)
    }

    /// A stable 64-bit fingerprint of the parameters: FNV-1a over
    /// [`Params::canonical_bytes`]. Two `Params` values fingerprint equal
    /// iff every encoded field is bit-identical (including `-0.0` vs `+0.0`
    /// and NaN payloads), so an equilibrium artifact stamped with this value
    /// can be matched exactly against the parameters a reader expects.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for b in self.canonical_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

/// Byte length of [`Params::canonical_bytes`]: 30 `f64`s and 5 `usize`s
/// (as `u64`). Any change to the field set changes this length and every
/// fingerprint — runs must not alias across a schema change even when
/// the numerics are identical.
const CANONICAL_LEN: usize = 30 * 8 + 5 * 8;

/// One pass over every encoded `Params` field in declaration order. The
/// encoder, decoder and fingerprint all flow through this single function,
/// so the canonical field order cannot diverge between them.
/// `worker_threads` is skipped: results are bit-identical for any thread
/// count, so it must not make two runs of one model fingerprint apart.
fn visit_canonical(p: &mut Params, v: &mut impl CanonicalVisit) {
    v.visit_usize(&mut p.num_edps);
    v.visit_f64(&mut p.q_size);
    v.visit_f64(&mut p.requests);
    v.visit_f64(&mut p.popularity);
    v.visit_f64(&mut p.urgency_factor);
    v.visit_f64(&mut p.w1);
    v.visit_f64(&mut p.w2);
    v.visit_f64(&mut p.w3);
    v.visit_f64(&mut p.varrho_q);
    v.visit_f64(&mut p.w4);
    v.visit_f64(&mut p.w5);
    v.visit_f64(&mut p.p_hat);
    v.visit_f64(&mut p.eta1);
    v.visit_f64(&mut p.eta2);
    v.visit_f64(&mut p.p_bar);
    v.visit_f64(&mut p.alpha);
    v.visit_f64(&mut p.sigmoid_l);
    v.visit_f64(&mut p.varsigma_h);
    v.visit_f64(&mut p.upsilon_h);
    v.visit_f64(&mut p.varrho_h);
    v.visit_f64(&mut p.h_min);
    v.visit_f64(&mut p.h_max);
    v.visit_f64(&mut p.center_rate);
    v.visit_f64(&mut p.edge_rate_scale);
    v.visit_f64(&mut p.t_horizon);
    v.visit_usize(&mut p.time_steps);
    v.visit_usize(&mut p.grid_h);
    v.visit_usize(&mut p.grid_q);
    v.visit_f64(&mut p.lambda0_mean);
    v.visit_f64(&mut p.lambda0_std);
    v.visit_f64(&mut p.terminal_value_weight);
    v.visit_usize(&mut p.max_iterations);
    v.visit_f64(&mut p.tolerance);
    v.visit_f64(&mut p.relaxation);
    v.visit_f64(&mut p.damping);
}

trait CanonicalVisit {
    fn visit_f64(&mut self, v: &mut f64);
    fn visit_usize(&mut self, v: &mut usize);
}

struct CanonicalEncoder(Vec<u8>);

impl CanonicalVisit for CanonicalEncoder {
    fn visit_f64(&mut self, v: &mut f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn visit_usize(&mut self, v: &mut usize) {
        self.0.extend_from_slice(&(*v as u64).to_le_bytes());
    }
}

struct CanonicalDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl CanonicalDecoder<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        // Length is pre-checked against CANONICAL_LEN, so this never runs
        // off the end of the slice.
        let arr: [u8; N] = self.bytes[self.pos..self.pos + N]
            .try_into()
            .expect("length checked");
        self.pos += N;
        arr
    }
}

impl CanonicalVisit for CanonicalDecoder<'_> {
    fn visit_f64(&mut self, v: &mut f64) {
        *v = f64::from_bits(u64::from_le_bytes(self.take()));
    }

    fn visit_usize(&mut self, v: &mut usize) {
        *v = u64::from_le_bytes(self.take()) as usize;
    }
}

/// The macro step containing time `t` for a step of `dt`, clamped to
/// `0..=last_step` (non-finite `t` clamps too: NaN casts to step 0) —
/// the rule behind [`Params::step_of`], taking `dt` precomputed.
#[inline]
pub(crate) fn step_index(t: f64, dt: f64, last_step: usize) -> usize {
    // The truncating cast rounds toward zero where `floor` rounds down;
    // they differ only on negative quotients, which both clamp to 0, and
    // the cast skips the libm `floor` call of the baseline x86-64 target.
    let n = (t / dt) as isize;
    n.clamp(0, last_step as isize) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        Params::default().validate().unwrap();
    }

    /// The step rule's truncating cast picks the plane a `floor` would,
    /// at every step edge and its neighbors, before and past the horizon
    /// and at non-finite times.
    #[test]
    fn step_of_matches_the_floor_reference_to_0_ulp() {
        for p in [
            Params::default(),
            Params {
                time_steps: 7,
                t_horizon: 0.3,
                ..Params::default()
            },
        ] {
            let reference = |t: f64| {
                let n = (t / p.dt()).floor() as isize;
                n.clamp(0, p.time_steps as isize - 1) as usize
            };
            let mut ts = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300, 1e300];
            for n in 0..=p.time_steps + 1 {
                let edge = n as f64 * p.dt();
                ts.extend([edge, -edge, f64::from_bits(edge.to_bits() + 1)]);
                if edge > 0.0 {
                    ts.push(f64::from_bits(edge.to_bits() - 1));
                }
            }
            for t in ts {
                assert_eq!(p.step_of(t), reference(t), "t = {t}");
            }
        }
    }

    #[test]
    fn default_ratios_match_the_paper() {
        let p = Params::default();
        // η₁/p̂ = 0.2, the low end of the paper's sweep.
        assert!((p.eta1 / p.p_hat - 0.2).abs() < 1e-12);
        // w₂ = 1/20, w₃ = 10, ξ-driven urgency factor defaults to ξ¹ = 0.1.
        assert_eq!(p.w2, 0.05);
        assert_eq!(p.w3, 10.0);
        assert_eq!(p.alpha, 0.2);
        // Fading band [1, 10]·10⁻⁵.
        assert_eq!(p.h_min, 1.0e-5);
        assert_eq!(p.h_max, 10.0e-5);
        // λ(0) ~ N(0.7, 0.1²).
        assert_eq!(p.lambda0_mean, 0.7);
        assert_eq!(p.lambda0_std, 0.1);
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = Params::default();
        let cases: Vec<(&str, Params)> = vec![
            (
                "num_edps",
                Params {
                    num_edps: 1,
                    ..base.clone()
                },
            ),
            (
                "q_size",
                Params {
                    q_size: 0.0,
                    ..base.clone()
                },
            ),
            (
                "w5",
                Params {
                    w5: 0.0,
                    ..base.clone()
                },
            ),
            (
                "alpha",
                Params {
                    alpha: 1.0,
                    ..base.clone()
                },
            ),
            (
                "upsilon_h",
                Params {
                    upsilon_h: 1.0,
                    ..base.clone()
                },
            ),
            (
                "relaxation",
                Params {
                    relaxation: 0.0,
                    ..base.clone()
                },
            ),
            (
                "damping",
                Params {
                    damping: 1.5,
                    ..base.clone()
                },
            ),
            (
                "damping",
                Params {
                    damping: f64::NAN,
                    ..base.clone()
                },
            ),
            (
                "tolerance",
                Params {
                    tolerance: 0.0,
                    ..base.clone()
                },
            ),
            (
                "lambda0_std",
                Params {
                    lambda0_std: 0.0,
                    ..base.clone()
                },
            ),
        ];
        for (name, p) in cases {
            match p.validate() {
                Err(CoreError::BadParam { name: got, .. }) => {
                    assert_eq!(got, name, "wrong field blamed");
                }
                other => panic!("{name}: expected BadParam, got {other:?}"),
            }
        }
    }

    #[test]
    fn grid_spans_the_state_space() {
        let p = Params::default();
        let g = p.grid();
        assert_eq!(g.x().lo(), p.h_min);
        assert_eq!(g.x().hi(), p.h_max);
        assert_eq!(g.y().lo(), 0.0);
        assert_eq!(g.y().hi(), p.q_size);
    }

    #[test]
    fn drift_q_matches_eq_4() {
        let p = Params::default();
        // −w₁·0.5 − w₂·0.3 + w₃·0.1 = −0.5 − 0.015 + 1.0.
        let d = p.drift_q(0.5, 0.3, 0.1);
        assert!((d - 0.485).abs() < 1e-12);
    }

    #[test]
    fn drift_h_reverts_to_mean() {
        let p = Params::default();
        assert!(p.drift_h(p.h_max) < 0.0);
        assert!(p.drift_h(p.h_min) > 0.0);
        assert_eq!(p.drift_h(p.upsilon_h), 0.0);
    }

    #[test]
    fn error_display() {
        let e = CoreError::NotConverged {
            residual: 0.5,
            iterations: 7,
        };
        assert!(e.to_string().contains("7 iterations"));
        let e = CoreError::InconsistentParts {
            message: "policy length 3".into(),
        };
        assert!(e.to_string().contains("policy length 3"));
    }

    #[test]
    fn canonical_bytes_roundtrip_exactly() {
        let p = Params {
            eta1: 2.5,
            time_steps: 17,
            tolerance: 1.0e-4,
            damping: 0.85,
            ..Params::default()
        };
        let bytes = p.canonical_bytes();
        assert_eq!(bytes.len(), CANONICAL_LEN);
        let back = Params::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.fingerprint(), p.fingerprint());
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_field_class() {
        let base = Params::default();
        let f = base.fingerprint();
        // A second computation is stable.
        assert_eq!(base.fingerprint(), f);
        for changed in [
            Params {
                eta1: base.eta1 + 1.0,
                ..base.clone()
            },
            Params {
                time_steps: base.time_steps + 1,
                ..base.clone()
            },
            Params {
                damping: base.damping - 0.1,
                ..base.clone()
            },
        ] {
            assert_ne!(changed.fingerprint(), f);
        }
        // Bit-sensitivity: -0.0 fingerprints differently from +0.0.
        let pos = Params {
            terminal_value_weight: 0.0,
            ..base.clone()
        };
        let neg = Params {
            terminal_value_weight: -0.0,
            ..base
        };
        assert_ne!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_worker_threads() {
        let base = Params::default();
        for threads in [1, 2, 8] {
            let p = Params {
                worker_threads: threads,
                ..base.clone()
            };
            assert_eq!(p.canonical_bytes(), base.canonical_bytes());
            assert_eq!(p.fingerprint(), base.fingerprint());
            let back = Params::from_canonical_bytes(&p.canonical_bytes()).unwrap();
            assert_eq!(back.worker_threads, base.worker_threads);
        }
    }

    #[test]
    fn from_canonical_bytes_rejects_bad_input() {
        let bytes = Params::default().canonical_bytes();
        // Wrong length.
        assert!(matches!(
            Params::from_canonical_bytes(&bytes[..bytes.len() - 1]),
            Err(CoreError::InconsistentParts { .. })
        ));
        // A decoded block still passes validation: zero out w5 (> 0
        // required) and the decode must fail as BadParam, not produce an
        // invalid Params.
        let mut corrupt = bytes;
        let w5_offset = 8 + 9 * 8; // num_edps (u64) + 9 f64s precede w5
        corrupt[w5_offset..w5_offset + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Params::from_canonical_bytes(&corrupt),
            Err(CoreError::BadParam { name: "w5", .. })
        ));
    }
}
