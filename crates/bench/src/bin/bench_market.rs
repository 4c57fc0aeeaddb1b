//! Market-clearing scaling benchmark: measures the per-slot market time of
//! the finite-population simulator for M ∈ {100, 1000, 10⁴, 10⁵} EDPs and
//! writes `BENCH_market.json` at the workspace root.
//!
//! With the shared-sum Eq. (5) pricer the market phase is O(M·K) per slot
//! (one supply-sum pass plus O(1) prices and a two-smallest qualified-sharer
//! scan per content), so `per_slot_micros / M` should stay roughly constant
//! across the sweep — the old per-EDP competitor sums made it grow linearly
//! in M. Each sample also carries `slot_micros`, the whole slot (run wall
//! over slots: requests, decisions, integration and the market), so a
//! regression anywhere in the slot loop is gated, not only in clearing.
//! A sample repeats the measured epoch until it spans [`MIN_EDP_SLOTS`]
//! EDP-slots (`repetitions` in the report), so at small M it times more
//! than the ≈ 1 ms one epoch of clearing takes.
//! Run: `cargo run --release -p mfgcp-bench --bin bench_market`
//!
//! Flags:
//!
//! * `--sizes M1,M2,...` — override the default `100,1000,10000,100000`
//!   sweep (CI's bench-smoke job runs `--sizes 100,1000`);
//! * `--telemetry FILE.jsonl` — stream per-slot `market.slot` events and
//!   one `bench.sample` summary per population through the shared
//!   `mfgcp-obs` recorder.

use std::io::Write as _;
use std::time::Instant;

use mfgcp_core::Params;
use mfgcp_obs::json::Json;
use mfgcp_obs::{JsonlSink, RecorderHandle};
use mfgcp_sim::baselines::MostPopularCaching;
use mfgcp_sim::{SimConfig, Simulation};

/// EDP-slots one sample spans at least: the measured epoch is repeated
/// `⌈MIN_EDP_SLOTS / (M·slots)⌉` times (25 at M = 100, once from
/// M = 2500 up).
const MIN_EDP_SLOTS: usize = 50_000;

struct Sample {
    m: usize,
    slots: usize,
    repetitions: usize,
    wall_millis: f64,
    slot_micros: f64,
    market_per_slot_micros: f64,
    market_per_slot_per_edp_nanos: f64,
}

fn config(m: usize) -> SimConfig {
    SimConfig {
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
    }
}

fn measure(m: usize, recorder: &RecorderHandle) -> Sample {
    // Warm-up epoch to page in the allocator and caches, then take the
    // best of three samples of `repetitions` identical measured epochs
    // each (minimum filters scheduler noise).
    // The warm-up doubles as a conservation check: the auditor runs on
    // this untimed epoch only, so the measured epochs stay unperturbed.
    let warmup = SimConfig {
        audit: true,
        ..config(m)
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
        let cfg = config(m);
        cfg.epochs * cfg.slots_per_epoch
    };
    let repetitions = MIN_EDP_SLOTS.div_ceil(m * slots);
    let mut best: Option<Sample> = None;
    for _ in 0..3 {
        let (mut wall_secs, mut market_nanos) = (0.0, 0.0);
        for _ in 0..repetitions {
            let mut sim = Simulation::new(config(m), Box::new(MostPopularCaching::default()))
                .expect("valid config");
            sim.set_recorder(recorder.clone());
            let start = Instant::now();
            let _ = sim.run();
            wall_secs += start.elapsed().as_secs_f64();
            market_nanos += sim.market_clearing_nanos() as f64;
        }
        let measured_slots = (slots * repetitions) as f64;
        let sample = Sample {
            m,
            slots,
            repetitions,
            wall_millis: wall_secs * 1e3 / repetitions as f64,
            slot_micros: wall_secs * 1e6 / measured_slots,
            market_per_slot_micros: market_nanos / measured_slots / 1e3,
            market_per_slot_per_edp_nanos: market_nanos / measured_slots / m as f64,
        };
        if best.as_ref().map_or(true, |b| {
            sample.market_per_slot_micros < b.market_per_slot_micros
        }) {
            best = Some(sample);
        }
    }
    let best = best.expect("three samples taken");
    recorder.event(
        "bench.sample",
        &[
            ("m", best.m.into()),
            ("slots", best.slots.into()),
            ("repetitions", best.repetitions.into()),
            ("wall_millis", best.wall_millis.into()),
            ("slot_micros", best.slot_micros.into()),
            ("market_per_slot_micros", best.market_per_slot_micros.into()),
            (
                "market_per_slot_per_edp_nanos",
                best.market_per_slot_per_edp_nanos.into(),
            ),
        ],
    );
    best
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
    let samples: Vec<Sample> = sizes.iter().map(|&m| measure(m, &recorder)).collect();

    // One escaping/formatting path for every JSON document the workspace
    // writes: build the report as a `Json` tree and serialize it.
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("market_clearing".into())),
        (
            "unit_note".into(),
            Json::Str("per-slot market time; per-EDP column flat <=> O(M) scaling".into()),
        ),
        (
            "samples".into(),
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("m".into(), Json::Num(s.m as f64)),
                            ("slots".into(), Json::Num(s.slots as f64)),
                            ("repetitions".into(), Json::Num(s.repetitions as f64)),
                            ("epoch_wall_millis".into(), Json::Num(s.wall_millis)),
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
    println!("m, slot_micros, market_per_slot_micros, market_per_slot_per_edp_nanos");
    for s in &samples {
        println!(
            "{}, {:.3}, {:.3}, {:.3}",
            s.m, s.slot_micros, s.market_per_slot_micros, s.market_per_slot_per_edp_nanos
        );
    }
    recorder.flush();
    eprintln!("wrote BENCH_market.json");
}
