//! End-to-end and per-layer benchmark of the mfgcp workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_market --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process (so heap peaks
//! never mix), checks the program's outputs, and prints one line per
//! metric, an environment record, and as its last line a JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the workload again with the
//! program's telemetry collected in memory and with each layer timed from
//! outside, and reports the per-layer metrics. See `perfbench/README.md`.

mod alloc;
mod layers;
mod serve;
mod sim;
mod stats;
mod telemetry;

use std::process::ExitCode;

use mfgcp_obs::json::Json;

use crate::stats::Tally;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Solver and engine worker threads in every workload: pinned, never
/// `0`/auto, so a result does not depend on what auto resolves to.
pub const PINNED_THREADS: usize = 2;

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("reprice_p50_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), every workload; a layer a workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("core.share", "share"),
    ("core.solve_ms", "ms"),
    ("core.picard_iters", "count"),
    ("core.continuation_ms", "ms"),
    ("core.warm_solve_ms", "ms"),
    ("core.warm_picard_iters", "count"),
    ("pde.hjb_ms", "ms"),
    ("pde.fpk_ms", "ms"),
    ("net.share", "share"),
    ("net.channel_init_ms", "ms"),
    ("net.advance_ms", "ms"),
    ("net.reassoc_ms", "ms"),
    ("net.mobility_ms", "ms"),
    ("net.tracked_links", "count"),
    ("net.channel_mb", "MB"),
    ("workload.share", "share"),
    ("workload.requests_ms", "ms"),
    ("workload.requests_per_slot", "count"),
    ("sim.market_share", "share"),
    ("sim.other_share", "share"),
    ("sim.slot_p50_ms", "ms"),
    ("sim.slot_p90_ms", "ms"),
    ("sim.prepare_epoch_ms", "ms"),
    ("sim.market_ms", "ms"),
    ("sim.slot_self_ms", "ms"),
    ("check.slots_checked", "count"),
    ("check.handovers_checked", "count"),
    ("check.violations", "count"),
    ("serve.query_p99_ms", "ms"),
    ("serve.frame_p50_ms", "ms"),
    ("serve.frame_p99_ms", "ms"),
    ("serve.handle_p50_ms", "ms"),
    ("serve.save_ms", "ms"),
    ("serve.swap_ms", "ms"),
    ("serve.open_ms", "ms"),
    ("serve.first_reply_ms", "ms"),
    ("serve.reprice_solve_share", "share"),
    ("serve.reprice_save_swap_share", "share"),
    ("serve.worker_threads", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.peak_heap_mb", "MB"),
];

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gated operations.
    pub tally: Tally,
    metrics: Vec<(&'static str, f64)>,
    sizes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a metric of [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name neither list declares (a bug in this benchmark).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.metrics.push((name, value));
    }

    /// Record a workload size for the environment line.
    pub fn size(&mut self, name: &'static str, value: usize) {
        self.sizes.push((name, value as f64));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperMarket,
    MetroMobility,
    ServeReprice,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("paper_market", Workload::PaperMarket),
        ("metro_mobility", Workload::MetroMobility),
        ("serve_reprice", Workload::ServeReprice),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, w)| w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper_market|metro_mobility|serve_reprice \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.iter().find(|&&(n, _)| n == value);
                workload = Some(found.ok_or_else(bad)?.1);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, when it carries git metadata; the
/// `MFGCP_GIT_HASH` environment variable otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let from_git = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")),
        None => Some(head),
    });
    from_git
        .or_else(|| std::env::var("MFGCP_GIT_HASH").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment record printed with every result. The net layer's
/// `par_chunks` sizes itself from `available_parallelism()` and ignores
/// `worker_threads`, so its thread count is recorded as resolved.
fn environment(args: &Args, outcome: &Outcome) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("commit".to_string(), Json::Str(commit())),
        ("nproc".to_string(), Json::Num(cores as f64)),
        (
            "worker_threads".to_string(),
            Json::Num(PINNED_THREADS as f64),
        ),
        (
            "net_par_chunks_threads".to_string(),
            Json::Num(cores as f64),
        ),
    ];
    fields.extend(
        outcome
            .sizes
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::Num(v))),
    );
    Json::Obj(vec![("environment".to_string(), Json::Obj(fields))])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::PaperMarket => sim::run(&sim::paper_market(args.seed), args.seconds, args.trace),
        Workload::MetroMobility => {
            sim::run(&sim::metro_mobility(args.seed), args.seconds, args.trace)
        }
        Workload::ServeReprice => serve::run(args.seed, args.seconds, args.trace),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let peak_mb = alloc::peak_bytes() as f64 / 1e6;
    let list: &[(&str, &str)] = if args.trace {
        outcome.metric("obs.peak_heap_mb", peak_mb);
        &PER_LAYER
    } else {
        outcome.metric("peak_heap_mb", peak_mb);
        &END_TO_END
    };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match outcome.value(name) {
            Some(v) => v,
            // A layer this workload does not exercise did no work.
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        if !args.trace {
            // Every end-to-end metric is measured, finite and nonzero.
            outcome.tally.check(value.is_finite() && value > 0.0);
        }
        println!("{name:<32} {value:>16.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    println!("{}", environment(&args, &outcome).to_json_string());
    let tally = outcome.tally;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        Json::Obj(metrics).to_json_string()
    );
    ExitCode::SUCCESS
}
