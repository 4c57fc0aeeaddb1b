//! Channel-layer scaling benchmark: measures the serving-link
//! [`ChannelState`] for M ∈ {100, 1000, 10000, 100000} EDPs and writes
//! `BENCH_channel.json` at the workspace root.
//!
//! The channel holds one serving link per requester (J links) regardless
//! of M, so its per-slot fading advance (`advance_millis`: one
//! `ChannelState::advance` over the J serving links), channel
//! construction (`init_millis`) and re-association after mobility
//! (`reassoc_millis`) should stay flat across the sweep, while the
//! nearest-EDP association cost per requester (spatial hash grid) grows
//! only with the grid's cache footprint and the resident bytes only by
//! one occupancy count per EDP. `bench_compare` gates the three
//! `_millis` columns lower-is-better.
//! Run: `cargo run --release -p mfgcp-bench --bin bench_channel`
//!
//! A second sweep scales the *requester* population J ∈ {300, 10⁴, 10⁵,
//! 10⁶} through a short mobile simulation (MPC scheme — no PDE solves, so
//! the slot loop dominates) and reports the per-requester trade-loop
//! (market-clearing) nanoseconds, the figure of merit for the sharded
//! per-slot trade loop.
//!
//! Flags:
//!
//! * `--sizes M1,M2,...` — override the default EDP sweep (CI's
//!   bench-smoke job runs `--sizes 100,1000`);
//! * `--requesters J1,J2,...` — override the default requester sweep
//!   (bench-smoke runs `--requesters 300,10000`);
//! * `--telemetry FILE.jsonl` — stream one `bench.sample` /
//!   `bench.trade_sample` event per population through the shared
//!   `mfgcp-obs` recorder.

use std::io::Write as _;
use std::time::Instant;

use mfgcp_core::Params;
use mfgcp_net::{uniform_in_disc, ChannelState, NetworkConfig, Point, RandomWaypoint, Topology};
use mfgcp_obs::json::Json;
use mfgcp_obs::{JsonlSink, RecorderHandle};
use mfgcp_sde::seeded_rng;
use mfgcp_sim::{baselines, SimConfig, Simulation};

const REQUESTERS: usize = 300;
const ADVANCE_STEPS: usize = 50;
/// Rounds of `ADVANCE_STEPS` advances; `advance_millis` keeps the best.
const ADVANCE_ROUNDS: usize = 5;
/// Rounds of association, channel construction and re-association; each
/// column keeps its best round.
const ASSOC_ROUNDS: usize = 9;

/// EDP population held fixed across the requester (J) sweep: large enough
/// that market clearing has real per-EDP fan-out, small enough that the
/// trade loop — not topology construction — dominates the timing.
const J_SWEEP_EDPS: usize = 64;

struct Sample {
    m: usize,
    requesters: usize,
    assoc_micros_per_requester: f64,
    init_millis: f64,
    reassoc_millis: f64,
    advance_millis: f64,
    sharded_bytes: usize,
}

/// Wall time of one full-state `ChannelState::advance`: the mean over
/// `ADVANCE_STEPS` slots, best of `ADVANCE_ROUNDS` rounds.
fn advance_millis(channels: &mut ChannelState) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ADVANCE_ROUNDS {
        let start = Instant::now();
        for _ in 0..ADVANCE_STEPS {
            channels.advance(0.01);
        }
        let millis = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(millis / ADVANCE_STEPS as f64);
    }
    best
}

fn measure(m: usize, recorder: &RecorderHandle) -> Sample {
    let cfg = NetworkConfig::default();
    let mut rng = seeded_rng(m as u64 ^ 0xC0FFEE);
    let mut topo = Topology::random(m, REQUESTERS, &cfg, &mut rng);

    let mut init_millis = f64::INFINITY;
    let mut channels = ChannelState::init_with_seed(&topo, &cfg, 9);
    for _ in 0..ASSOC_ROUNDS {
        let start = Instant::now();
        channels = ChannelState::init_with_seed(&topo, &cfg, 9);
        init_millis = init_millis.min(start.elapsed().as_secs_f64() * 1e3);
    }

    // Association: re-associate every requester against the spatial grid,
    // then re-track the channel (the two steps the engine runs at each
    // epoch boundary), best of a few rounds over fresh uniform positions.
    let mut assoc_best = f64::INFINITY;
    let mut reassoc_millis = f64::INFINITY;
    for _ in 0..ASSOC_ROUNDS {
        let positions: Vec<Point> = (0..REQUESTERS)
            .map(|_| uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let start = Instant::now();
        topo.update_requesters(&positions);
        let micros = start.elapsed().as_secs_f64() * 1e6;
        assoc_best = assoc_best.min(micros / REQUESTERS as f64);
        let start = Instant::now();
        channels.refresh_distances(&topo);
        reassoc_millis = reassoc_millis.min(start.elapsed().as_secs_f64() * 1e3);
    }

    let sample = Sample {
        m,
        requesters: REQUESTERS,
        assoc_micros_per_requester: assoc_best,
        init_millis,
        reassoc_millis,
        advance_millis: advance_millis(&mut channels),
        sharded_bytes: channels.memory_bytes(),
    };
    recorder.event(
        "bench.sample",
        &[
            ("m", sample.m.into()),
            ("requesters", sample.requesters.into()),
            (
                "assoc_micros_per_requester",
                sample.assoc_micros_per_requester.into(),
            ),
            ("init_millis", sample.init_millis.into()),
            ("reassoc_millis", sample.reassoc_millis.into()),
            ("advance_millis", sample.advance_millis.into()),
            ("sharded_bytes", sample.sharded_bytes.into()),
        ],
    );
    sample
}

struct JSample {
    j: usize,
    slots: usize,
    trade_ns_per_requester: f64,
    slot_micros_per_requester: f64,
}

/// One J-sweep point: a short mobile MPC run (no PDE solves) whose slot
/// loop is dominated by arrival generation, fading advance, and market
/// clearing. Reports the engine's own market-clearing clock normalized
/// per requester-slot — the sharded trade loop's figure of merit — plus
/// total slot wall-clock on the same basis for context.
fn measure_j(j: usize, recorder: &RecorderHandle) -> JSample {
    let cfg = SimConfig {
        num_edps: J_SWEEP_EDPS,
        num_requesters: j,
        num_contents: 8,
        epochs: 2,
        slots_per_epoch: 4,
        mobility: Some(RandomWaypoint::default()),
        params: Params {
            num_edps: J_SWEEP_EDPS,
            ..Params::default()
        },
        seed: j as u64 ^ 0xBEEF,
        ..SimConfig::default()
    };
    let policy = baselines::MostPopularCaching::default();
    let mut sim = Simulation::new(cfg, Box::new(policy)).expect("J-sweep config must validate");
    let start = Instant::now();
    let report = sim.run();
    let wall_ns = start.elapsed().as_secs_f64() * 1e9;
    let slots = report.series.len().max(1);
    let denom = (slots * j) as f64;
    let sample = JSample {
        j,
        slots,
        trade_ns_per_requester: sim.market_clearing_nanos() as f64 / denom,
        slot_micros_per_requester: wall_ns / 1e3 / denom,
    };
    recorder.event(
        "bench.trade_sample",
        &[
            ("j", sample.j.into()),
            ("m", J_SWEEP_EDPS.into()),
            ("slots", sample.slots.into()),
            (
                "trade_ns_per_requester",
                sample.trade_ns_per_requester.into(),
            ),
            (
                "slot_micros_per_requester",
                sample.slot_micros_per_requester.into(),
            ),
        ],
    );
    sample
}

/// Hand-rolled flag parsing: `--sizes M1,M2,...`,
/// `--requesters J1,J2,...`, and `--telemetry FILE`.
fn parse_args() -> (Vec<usize>, Vec<usize>, RecorderHandle) {
    let parse_list = |flag: &str, value: String| -> Vec<usize> {
        let list: Vec<usize> = value
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{flag} entries must be integers"))
            })
            .collect();
        assert!(!list.is_empty(), "{flag} must name at least one size");
        list
    };
    let mut sizes = vec![100, 1000, 10_000, 100_000];
    let mut j_sizes = vec![300, 10_000, 100_000, 1_000_000];
    let mut recorder = RecorderHandle::noop();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sizes" => {
                let value = it.next().expect("--sizes needs a comma-separated list");
                sizes = parse_list("--sizes", value);
            }
            "--requesters" => {
                let value = it
                    .next()
                    .expect("--requesters needs a comma-separated list");
                j_sizes = parse_list("--requesters", value);
            }
            "--telemetry" => {
                let path = it.next().expect("--telemetry needs a file path");
                let sink = JsonlSink::create(&path)
                    .unwrap_or_else(|e| panic!("cannot create telemetry file `{path}`: {e}"));
                recorder = RecorderHandle::new(std::sync::Arc::new(sink));
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (supported: --sizes M1,M2,... \
                     --requesters J1,J2,... --telemetry FILE.jsonl)"
                );
                std::process::exit(2);
            }
        }
    }
    (sizes, j_sizes, recorder)
}

fn main() {
    let (sizes, j_sizes, recorder) = parse_args();
    let samples: Vec<Sample> = sizes.iter().map(|&m| measure(m, &recorder)).collect();
    let j_samples: Vec<JSample> = j_sizes.iter().map(|&j| measure_j(j, &recorder)).collect();

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("channel_state".into())),
        (
            "unit_note".into(),
            Json::Str(
                "init, reassoc, advance and bytes columns flat in M <=> \
                 one serving link per requester"
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
                            ("m".into(), Json::Num(s.m as f64)),
                            ("requesters".into(), Json::Num(s.requesters as f64)),
                            (
                                "assoc_micros_per_requester".into(),
                                Json::Num(s.assoc_micros_per_requester),
                            ),
                            ("init_millis".into(), Json::Num(s.init_millis)),
                            ("reassoc_millis".into(), Json::Num(s.reassoc_millis)),
                            ("advance_millis".into(), Json::Num(s.advance_millis)),
                            ("sharded_bytes".into(), Json::Num(s.sharded_bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "trade_samples".into(),
            Json::Arr(
                j_samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("j".into(), Json::Num(s.j as f64)),
                            ("m".into(), Json::Num(J_SWEEP_EDPS as f64)),
                            ("slots".into(), Json::Num(s.slots as f64)),
                            (
                                "trade_ns_per_requester".into(),
                                Json::Num(s.trade_ns_per_requester),
                            ),
                            (
                                "slot_micros_per_requester".into(),
                                Json::Num(s.slot_micros_per_requester),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut json = report.to_json_string();
    json.push('\n');

    let mut f = std::fs::File::create("BENCH_channel.json").expect("create BENCH_channel.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_channel.json");

    println!("{json}");
    println!("m, assoc_us/req, init_ms, reassoc_ms, advance_ms, sharded_bytes");
    for s in &samples {
        println!(
            "{}, {:.3}, {:.3}, {:.3}, {:.4}, {}",
            s.m,
            s.assoc_micros_per_requester,
            s.init_millis,
            s.reassoc_millis,
            s.advance_millis,
            s.sharded_bytes
        );
    }
    println!("j, trade_ns/req, slot_us/req");
    for s in &j_samples {
        println!(
            "{}, {:.2}, {:.3}",
            s.j, s.trade_ns_per_requester, s.slot_micros_per_requester
        );
    }
    recorder.flush();
    eprintln!("wrote BENCH_channel.json");
}
