//! Market-clearing scaling benchmark: measures the per-slot market time of
//! the finite-population simulator for M ∈ {100, 1000, 10⁴, 10⁵} EDPs and
//! writes `BENCH_market.json` at the workspace root.
//!
//! With the shared-sum Eq. (5) pricer the market phase is O(M·K) per slot
//! (one supply-sum pass plus O(1) prices and a two-smallest qualified-sharer
//! scan per content), so `per_slot_micros / M` should stay roughly constant
//! across the sweep — the old per-EDP competitor sums made it grow linearly
//! in M. The market's population pass (qualified sharers, requester
//! lists, the k = 0 columns) runs per EDP chunk inside the EDP phase, so
//! `market_per_slot_micros` covers only what follows it: the serial
//! supply sums, the chunk merge, the pricers, the trade precompute and
//! the fold. `slot_micros` is the end-to-end column — the whole slot (run
//! wall over slots: requests, decisions, integration, the population
//! pass and the market) — so a regression anywhere in the slot loop is
//! gated, not only in clearing.
//! Besides the static sweep (`"scenario": "static"`), one `"mobility"`
//! sample runs M = 1000 with J = 3000 random-waypoint walkers over two
//! epochs, so the per-slot mobility path and one handover are gated too.
//! A sample repeats the measured run until the repetitions span
//! [`MIN_SAMPLE_SECS`] (at least [`MIN_REPETITIONS`] of them,
//! `repetitions` in the report) and reports the median repetition, so a
//! short run at small M is not one noisy reading.
//! Run: `cargo run --release -p mfgcp-bench --bin bench_market`
//!
//! Flags:
//!
//! * `--sizes M1,M2,...` — override the default `100,1000,10000,100000`
//!   static sweep (CI's bench-smoke job runs `--sizes 100,1000`); the
//!   mobility sample runs with every sweep;
//! * `--telemetry FILE.jsonl` — stream per-slot `market.slot` events and
//!   one `bench.sample` summary per population through the shared
//!   `mfgcp-obs` recorder.

use std::io::Write as _;
use std::time::Instant;

use mfgcp_core::Params;
use mfgcp_net::RandomWaypoint;
use mfgcp_obs::json::Json;
use mfgcp_obs::{JsonlSink, RecorderHandle};
use mfgcp_sim::baselines::MostPopularCaching;
use mfgcp_sim::{SimConfig, Simulation};

/// Wall time the repetitions of one sample span at least.
const MIN_SAMPLE_SECS: f64 = 0.3;

/// Fewest repetitions a sample takes, however long one runs.
const MIN_REPETITIONS: usize = 3;

/// EDP count of the mobility sample.
const MOBILITY_M: usize = 1000;

#[derive(Clone, Copy)]
enum Scenario {
    Static,
    Mobility,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Static => "static",
            Scenario::Mobility => "mobility",
        }
    }
}

struct Sample {
    scenario: Scenario,
    m: usize,
    slots: usize,
    repetitions: usize,
    wall_millis: f64,
    slot_micros: f64,
    market_per_slot_micros: f64,
    market_per_slot_per_edp_nanos: f64,
}

fn config(scenario: Scenario, m: usize) -> SimConfig {
    let cfg = SimConfig {
        num_edps: m,
        // Keep the requester side fixed and moderate so the sweep isolates
        // the M-dependence of the market phase (the channel state is
        // O(J·k_int), flat in M).
        num_requesters: 300,
        num_contents: 10,
        epochs: 1,
        slots_per_epoch: 20,
        params: Params {
            num_edps: m,
            time_steps: 12,
            grid_h: 8,
            grid_q: 24,
            ..Params::default()
        },
        seed: 77,
        ..Default::default()
    };
    match scenario {
        Scenario::Static => cfg,
        // Three walkers per EDP, as in the metro workloads, over two
        // epochs so one epoch-boundary re-association runs.
        Scenario::Mobility => SimConfig {
            num_requesters: 3 * m,
            epochs: 2,
            mobility: Some(RandomWaypoint::default()),
            ..cfg
        },
    }
}

/// Median of `values` (mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

fn measure(scenario: Scenario, m: usize, recorder: &RecorderHandle) -> Sample {
    // Warm-up run to page in the allocator and caches, then repeat the
    // measured run until the repetitions span `MIN_SAMPLE_SECS` and take
    // the median repetition, which a few descheduled runs do not move.
    // The warm-up doubles as a conservation check: the auditor runs on
    // this untimed run only, so the measured runs stay unperturbed.
    let warmup = SimConfig {
        audit: true,
        ..config(scenario, m)
    };
    let report = Simulation::new(warmup, Box::new(MostPopularCaching::default()))
        .expect("valid config")
        .run();
    let audit = report.audit.expect("audit was requested");
    assert!(
        audit.is_clean(),
        "M = {m}: conservation audit failed: {:?}",
        audit.violations
    );
    let slots = {
        let cfg = config(scenario, m);
        cfg.epochs * cfg.slots_per_epoch
    };
    let (mut walls, mut markets) = (Vec::new(), Vec::new());
    let mut total_secs = 0.0;
    while walls.len() < MIN_REPETITIONS || total_secs < MIN_SAMPLE_SECS {
        let mut sim = Simulation::new(config(scenario, m), Box::new(MostPopularCaching::default()))
            .expect("valid config");
        sim.set_recorder(recorder.clone());
        let start = Instant::now();
        let _ = sim.run();
        let secs = start.elapsed().as_secs_f64();
        total_secs += secs;
        walls.push(secs);
        markets.push(sim.market_clearing_nanos() as f64);
    }
    let repetitions = walls.len();
    let (wall_secs, market_nanos) = (median(walls), median(markets));
    let sample = Sample {
        scenario,
        m,
        slots,
        repetitions,
        wall_millis: wall_secs * 1e3,
        slot_micros: wall_secs * 1e6 / slots as f64,
        market_per_slot_micros: market_nanos / slots as f64 / 1e3,
        market_per_slot_per_edp_nanos: market_nanos / slots as f64 / m as f64,
    };
    recorder.event(
        "bench.sample",
        &[
            ("scenario", sample.scenario.name().into()),
            ("m", sample.m.into()),
            ("slots", sample.slots.into()),
            ("repetitions", sample.repetitions.into()),
            ("wall_millis", sample.wall_millis.into()),
            ("slot_micros", sample.slot_micros.into()),
            (
                "market_per_slot_micros",
                sample.market_per_slot_micros.into(),
            ),
            (
                "market_per_slot_per_edp_nanos",
                sample.market_per_slot_per_edp_nanos.into(),
            ),
        ],
    );
    sample
}

/// Hand-rolled flag parsing: `--sizes M1,M2,...` and `--telemetry FILE`.
fn parse_args() -> (Vec<usize>, RecorderHandle) {
    let mut sizes = vec![100, 1000, 10_000, 100_000];
    let mut recorder = RecorderHandle::noop();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sizes" => {
                let value = it.next().expect("--sizes needs a comma-separated list");
                sizes = value
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes entries must be integers"))
                    .collect();
                assert!(!sizes.is_empty(), "--sizes must name at least one M");
            }
            "--telemetry" => {
                let path = it.next().expect("--telemetry needs a file path");
                let sink = JsonlSink::create(&path)
                    .unwrap_or_else(|e| panic!("cannot create telemetry file `{path}`: {e}"));
                recorder = RecorderHandle::new(std::sync::Arc::new(sink));
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (supported: --sizes M1,M2,... --telemetry FILE.jsonl)"
                );
                std::process::exit(2);
            }
        }
    }
    (sizes, recorder)
}

fn main() {
    let (sizes, recorder) = parse_args();
    let runs = sizes
        .iter()
        .map(|&m| (Scenario::Static, m))
        .chain([(Scenario::Mobility, MOBILITY_M)]);
    let samples: Vec<Sample> = runs.map(|(sc, m)| measure(sc, m, &recorder)).collect();

    // One escaping/formatting path for every JSON document the workspace
    // writes: build the report as a `Json` tree and serialize it.
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("market_clearing".into())),
        (
            "unit_note".into(),
            Json::Str(
                "per-slot market time after the EDP phase's population pass; \
                 per-EDP column flat <=> O(M) scaling; slot_micros is end to end"
                    .into(),
            ),
        ),
        (
            "samples".into(),
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("scenario".into(), Json::Str(s.scenario.name().into())),
                            ("m".into(), Json::Num(s.m as f64)),
                            ("slots".into(), Json::Num(s.slots as f64)),
                            ("repetitions".into(), Json::Num(s.repetitions as f64)),
                            ("run_wall_millis".into(), Json::Num(s.wall_millis)),
                            ("slot_micros".into(), Json::Num(s.slot_micros)),
                            (
                                "market_per_slot_micros".into(),
                                Json::Num(s.market_per_slot_micros),
                            ),
                            (
                                "market_per_slot_per_edp_nanos".into(),
                                Json::Num(s.market_per_slot_per_edp_nanos),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut json = report.to_json_string();
    json.push('\n');

    let mut f = std::fs::File::create("BENCH_market.json").expect("create BENCH_market.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_market.json");

    println!("{json}");
    println!("scenario, m, slot_micros, market_per_slot_micros, market_per_slot_per_edp_nanos");
    for s in &samples {
        println!(
            "{}, {}, {:.3}, {:.3}, {:.3}",
            s.scenario.name(),
            s.m,
            s.slot_micros,
            s.market_per_slot_micros,
            s.market_per_slot_per_edp_nanos
        );
    }
    recorder.flush();
    eprintln!("wrote BENCH_market.json");
}
