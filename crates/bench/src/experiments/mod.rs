//! One module per group of paper experiments; every public function
//! regenerates the data behind one figure or table (see `DESIGN.md` §4 for
//! the full index).

mod ablations;
mod channel;
mod comparisons;
mod meanfield;
mod sweeps;

pub use ablations::{
    ablation_fictitious, ablation_finite_m, ablation_fpk_form, ablation_grid, ablation_population,
    ablation_relaxation, ablation_terminal,
};
pub use channel::fig03_channel;
pub use comparisons::{
    fig12_total_vs_eta1, fig13_popularity_sweep, fig14_scheme_comparison, table2_computation_time,
};
pub use meanfield::{
    fig04_meanfield_evolution, fig05_policy_evolution, fig06_heatmap_qk, fig07_heatmap_sigma,
};
pub use sweeps::{fig08_w5_sweep, fig09_convergence, fig10_init_distribution, fig11_eta1_time};

use mfgcp_core::Params;

/// The shared experiment configuration: paper §V-A defaults at a grid
/// resolution that keeps the full battery under a minute per figure.
pub fn base_params() -> Params {
    Params {
        time_steps: 32,
        grid_h: 12,
        grid_q: 48,
        max_iterations: 60,
        ..Params::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_params_validate() {
        base_params().validate().unwrap();
    }

    // Every experiment is smoke-tested in its own module; here we only
    // pin the shared config.
    #[test]
    fn base_params_match_paper_headlines() {
        let p = base_params();
        assert_eq!(p.num_edps, 300);
        assert_eq!(p.lambda0_mean, 0.7);
        assert_eq!(p.alpha, 0.2);
    }
}
