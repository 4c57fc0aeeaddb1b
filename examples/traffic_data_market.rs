//! Traffic-data market: the timeliness scenario from the paper's §II-B —
//! "a content contains the traffic flow data of several important roads
//! (or the financial news of some countries), and then the center may
//! update it every hour (or every day)".
//!
//! Two contents with identical demand but opposite urgency profiles show
//! how the timeliness factor `ξ^{L_k(t)}` (Def. 2) steers the equilibrium
//! caching strategy: urgent traffic data is retained (small discard
//! drift), leisurely financial news is let go.
//!
//! Run with: `cargo run --release --example traffic_data_market`

use mfgcp::prelude::*;

fn main() {
    let params = Params {
        time_steps: 24,
        grid_h: 10,
        grid_q: 40,
        ..Params::default()
    };
    let cfg = TimelinessConfig::default(); // ξ = 0.1, L_max = 5

    // Drivers demand traffic data urgently (L ≈ 2.5); financial news can
    // wait (L ≈ 0.5). The urgency factor ξ^L drives Eq. (4).
    let traffic = ContentContext {
        requests: 12.0,
        popularity: 0.4,
        urgency_factor: cfg.urgency_factor(2.5),
    };
    let news = ContentContext {
        requests: 12.0,
        popularity: 0.4,
        urgency_factor: cfg.urgency_factor(0.5),
    };
    println!(
        "Urgency factors: traffic ξ^2.5 = {:.4}, news ξ^0.5 = {:.4}\n",
        traffic.urgency_factor, news.urgency_factor
    );

    let framework = Framework::new(params.clone()).expect("valid parameters");
    println!("Running one Alg. 1 epoch over the two contents...");
    let (outcomes, _) = framework.run_epoch(&[traffic, news], Vec::new());

    let traffic_eq = outcomes[0].as_ref().expect("traffic is demanded");
    let news_eq = outcomes[1].as_ref().expect("news is demanded");

    println!("\nMean remaining space over the epoch (lower = more cached):");
    println!("{:>6} {:>10} {:>10}", "t", "traffic", "news");
    let n = params.time_steps;
    let tm = traffic_eq.mean_remaining_space();
    let nm = news_eq.mean_remaining_space();
    for step in [0, n / 4, n / 2, 3 * n / 4, n] {
        println!(
            "{:>6.2} {:>10.3} {:>10.3}",
            step as f64 * params.dt(),
            tm[step],
            nm[step]
        );
    }

    let t_util = traffic_eq.accumulated_utility();
    let n_util = news_eq.accumulated_utility();
    let t_stale = traffic_eq.accumulated_staleness_cost();
    let n_stale = news_eq.accumulated_staleness_cost();
    println!("\nAccumulated utility:  traffic {t_util:.2}, news {n_util:.2}");
    println!("Accumulated staleness: traffic {t_stale:.2}, news {n_stale:.2}");
    println!(
        "\nUrgent traffic data is held in cache (it is discarded {}x slower),",
        (news.urgency_factor / traffic.urgency_factor).round()
    );
    println!("so requesters get it with less delay — exactly the paper's motivation");
    println!("for folding timeliness into the caching drift of Eq. (4).");
}
