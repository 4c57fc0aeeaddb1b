//! Runs the paper's experiments — every figure and table of §V plus the
//! ablations — and writes one CSV per experiment into
//! `target/experiments/`.
//!
//! Run: `cargo run --release -p mfgcp-bench --bin reproduce [NAME…]`
//!
//! With no names every registered experiment runs, in registry order.
//! An unknown name exits with status 2 and lists the valid names.

use std::process::ExitCode;
use std::time::Instant;

use mfgcp_bench::{select_experiments, write_csv, EXPERIMENTS};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let battery = match select_experiments(&names) {
        Ok(battery) => battery,
        Err(unknown) => {
            eprintln!("unknown experiment `{unknown}`; valid names:");
            for (name, _) in EXPERIMENTS {
                eprintln!("  {name}");
            }
            return ExitCode::from(2);
        }
    };

    println!("Reproducing {} experiments...\n", battery.len());
    let overall = Instant::now();
    for (name, f) in battery {
        let t0 = Instant::now();
        let rows = f();
        let path = write_csv(name, &rows);
        println!(
            "{name:<28} {:>6} rows  {:>7.2}s  -> {}",
            rows.len(),
            t0.elapsed().as_secs_f64(),
            path.display()
        );
    }
    println!("\nDone in {:.1}s.", overall.elapsed().as_secs_f64());
    println!("Compare against the paper with the index in EXPERIMENTS.md.");
    ExitCode::SUCCESS
}
