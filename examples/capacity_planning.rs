//! Capacity planning: the knapsack extension of §IV-C's Remark.
//!
//! When an EDP's total caching capacity is a hard budget, the per-content
//! MFG solutions supply each content's *value* (equilibrium utility) and
//! *weight* (storage the equilibrium strategy occupies); the final caching
//! plan is a knapsack selection over those pairs.
//!
//! Run with: `cargo run --release --example capacity_planning`

use mfgcp::core::{solve_01, solve_fractional, KnapsackItem};
use mfgcp::prelude::*;

fn main() {
    let params = Params {
        time_steps: 20,
        grid_h: 10,
        grid_q: 36,
        ..Params::default()
    };

    // A small catalog: four contents with Zipf-skewed demand and mixed
    // urgency (the per-content workload contexts of one Alg. 1 epoch).
    let zipf = Zipf::new(4, 0.9).unwrap();
    let urgency = [0.05, 0.2, 0.05, 0.5];
    let contexts: Vec<ContentContext> = (0..4)
        .map(|k| ContentContext {
            requests: 40.0 * zipf.pmf(k),
            popularity: zipf.pmf(k),
            urgency_factor: urgency[k],
        })
        .collect();

    println!("Solving one MFG equilibrium per content (Alg. 1 epoch)...\n");
    let framework = Framework::new(params).unwrap();
    let (outcomes, _) = framework.run_epoch(&contexts, Vec::new());

    let items: Vec<KnapsackItem> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(k, eq)| eq.as_ref().map(|eq| KnapsackItem::from_equilibrium(k, eq)))
        .collect();

    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "content", "value", "weight", "density"
    );
    for it in &items {
        println!(
            "{:>8} {:>10.2} {:>10.3} {:>10.1}",
            it.content,
            it.value,
            it.weight,
            if it.weight > 0.0 {
                it.value / it.weight
            } else {
                f64::INFINITY
            }
        );
    }

    // Sweep the capacity budget: how much of the unconstrained plan fits?
    let total_weight: f64 = items.iter().map(|i| i.weight).sum();
    println!("\nUnconstrained storage demand: {total_weight:.3} content units");
    println!(
        "\n{:>10} {:>14} {:>14} {:>24}",
        "capacity", "frac. value", "0/1 value", "0/1 kept contents"
    );
    for &cap in &[0.25, 0.5, 0.75, 1.0] {
        let frac = solve_fractional(&items, cap);
        let zo = solve_01(&items, cap, 10_000);
        println!(
            "{:>10.2} {:>14.2} {:>14.2} {:>24}",
            cap,
            frac.total_value,
            zo.total_value,
            format!("{:?}", zo.kept_contents(&items)),
        );
        assert!(
            frac.total_value >= zo.total_value - 1e-9,
            "LP bound violated"
        );
    }
    println!("\nThe fractional plan upper-bounds the 0/1 plan (LP relaxation),");
    println!("and both prioritize high-utility-per-byte contents — the paper's");
    println!("'weight and value of each content' trade-off made concrete.");
}
