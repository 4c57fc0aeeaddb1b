//! Computation-time measurement for Table II.
//!
//! The paper's Table II compares the per-epoch *policy computation* time of
//! MFG-CP, RR and MPC as the population grows (`M ∈ {50, 100, 200, 300}`):
//! MFG-CP stays flat because it solves one mean-field problem per content
//! regardless of `M`, while RR and MPC loop over all `M` EDPs ("the RR
//! scheme requires M iterations of random number generation operations").
//! These helpers time exactly that phase in isolation.

use std::time::{Duration, Instant};

use mfgcp_core::{ContentContext, MfgSolver, Params};
use mfgcp_sde::{seeded_rng, SimRng};
use mfgcp_workload::Popularity;
use rand::RngExt as _;

/// Time MFG-CP's per-epoch policy computation for a population of `m`:
/// one Alg. 2 solve (per tracked content) — independent of `m` by design.
///
/// The solver and contexts are built, and warmed with one untimed solve,
/// before the timer starts; the timed span is one [`MfgSolver::solve_with`]
/// call, trajectory allocation included, as every production solve runs it.
///
/// # Panics
///
/// Panics if `params` fails validation.
pub fn time_mfgcp(params: &Params, m: usize) -> Duration {
    // Single-threaded assembly: Table II compares *algorithmic* scaling in
    // M, and a fixed thread count keeps the measurement insensitive to
    // scheduler contention (e.g. when run alongside other tests).
    let p = Params {
        num_edps: m,
        worker_threads: 1,
        ..params.clone()
    };
    let solver = MfgSolver::new(p.clone()).expect("valid params");
    let ctx = ContentContext::from_params(&p);
    let contexts = vec![ctx; p.time_steps];
    // Warm-up: first-touch, allocator and cache costs would otherwise fall
    // on whichever population is timed first.
    let _ = solver.solve_with(&contexts, None);
    let start = Instant::now();
    let _eq = solver.solve_with(&contexts, None);
    start.elapsed()
}

/// Time RR's per-epoch policy computation for `m` EDPs over `k` contents
/// and `slots` decision slots: `m·k·slots` random draws plus per-EDP state
/// bookkeeping.
pub fn time_rr(m: usize, k: usize, slots: usize) -> Duration {
    let mut rngs: Vec<SimRng> = (0..m).map(|i| seeded_rng(1000 + i as u64)).collect();
    let start = Instant::now();
    let mut sink = 0.0;
    for rng in &mut rngs {
        for _ in 0..k {
            for _ in 0..slots {
                sink += rng.random_range(0.0_f64..=1.0);
            }
        }
    }
    std::hint::black_box(sink);
    start.elapsed()
}

/// Time MPC's per-epoch policy computation for `m` EDPs: per-EDP
/// popularity refresh (Eq. (3)) and ranking over `k` contents, once per
/// decision slot.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn time_mpc(m: usize, k: usize, slots: usize) -> Duration {
    let mut pops: Vec<Popularity> = (0..m)
        .map(|_| Popularity::zipf(k, 0.8).expect("k > 0"))
        .collect();
    let mut rng = seeded_rng(7);
    let counts: Vec<usize> = (0..k).map(|_| rng.random_range(0..20)).collect();
    let start = Instant::now();
    let mut sink = 0usize;
    for pop in &mut pops {
        for _ in 0..slots {
            pop.update(&counts);
            sink += pop.ranked()[0];
        }
    }
    std::hint::black_box(sink);
    start.elapsed()
}

/// One Table II row: `(scheme, m, seconds)` for every combination asked.
pub fn table2_rows(
    params: &Params,
    populations: &[usize],
    k: usize,
    slots: usize,
) -> Vec<(String, usize, f64)> {
    let mut rows = Vec::new();
    for &m in populations {
        rows.push(("MFG-CP".to_string(), m, time_mfgcp(params, m).as_secs_f64()));
        rows.push(("RR".to_string(), m, time_rr(m, k, slots).as_secs_f64()));
        rows.push(("MPC".to_string(), m, time_mpc(m, k, slots).as_secs_f64()));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        Params {
            time_steps: 10,
            grid_h: 8,
            grid_q: 24,
            max_iterations: 20,
            ..Params::default()
        }
    }

    #[test]
    fn mfgcp_time_is_population_independent() {
        let p = small_params();
        let t50 = time_mfgcp(&p, 50).as_secs_f64();
        let t300 = time_mfgcp(&p, 300).as_secs_f64();
        // Allow generous noise; the paper's claim is only that it does not
        // grow with M.
        assert!(t300 < t50 * 3.0 + 0.05, "t50 = {t50}, t300 = {t300}");
    }

    #[test]
    fn rr_and_mpc_scale_with_population() {
        // Use large slot counts so the loop dominates timer noise.
        let t_small = time_rr(50, 20, 2000).as_secs_f64();
        let t_large = time_rr(300, 20, 2000).as_secs_f64();
        assert!(t_large > t_small, "RR: {t_small} vs {t_large}");
        let t_small = time_mpc(50, 20, 500).as_secs_f64();
        let t_large = time_mpc(300, 20, 500).as_secs_f64();
        assert!(t_large > t_small, "MPC: {t_small} vs {t_large}");
    }

    #[test]
    fn table_rows_cover_all_schemes_and_populations() {
        let rows = table2_rows(&small_params(), &[10, 20], 5, 10);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|(_, _, secs)| *secs >= 0.0));
        assert!(rows.iter().any(|(s, m, _)| s == "MFG-CP" && *m == 10));
        assert!(rows.iter().any(|(s, m, _)| s == "MPC" && *m == 20));
    }
}
