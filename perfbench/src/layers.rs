//! Replay of the net and workload layers of one simulation, call by call,
//! through the crates' public functions: the channel and mobility calls
//! `Simulation` makes, on the same inputs, each timed on its own.
//!
//! The master stream is drawn in the engine's order (topology, channel
//! seed, every EDP's initial occupancy, then the walkers), so the walk,
//! and with it every distance refresh and re-association, is the one the
//! simulation itself performs.

use std::time::Instant;

use mfgcp_net::{ChannelState, MobileRequesters, Topology};
use mfgcp_sde::{seeded_rng, Normal};
use mfgcp_sim::SimConfig;
use mfgcp_workload::trace::Trace;
use mfgcp_workload::{RequestBatch, RequestProcess};

/// The engine's request-stream key: requests draw from per-requester
/// streams keyed by `seed ^ REQUEST_KEY`.
const REQUEST_KEY: u64 = 0xA076_1D64_78BD_642F;

/// Timings of one replay, in milliseconds.
#[derive(Debug, Default)]
pub struct NetReplay {
    /// `ChannelState::init`.
    pub init_ms: f64,
    /// `ChannelState::advance`, per slot.
    pub advance_ms: Vec<f64>,
    /// `MobileRequesters::step` + `refresh_distances_from_positions`, per
    /// slot (empty without mobility).
    pub mobility_ms: Vec<f64>,
    /// `Topology::update_requesters` + `ChannelState::refresh_distances`,
    /// per epoch boundary.
    pub reassoc_ms: Vec<f64>,
    /// `RequestProcess::generate_batched` over every EDP, per slot, split
    /// into the engine's per-thread EDP chunks.
    pub requests_ms: Vec<f64>,
    /// Requests generated over the whole replay.
    pub requests_total: u64,
    /// Links the channel tracks after the last epoch.
    pub tracked_links: usize,
    /// Resident bytes of the channel state after the last epoch.
    pub channel_bytes: usize,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Replay the net and workload layers of the run `cfg` and `trace`
/// describe.
pub fn replay(cfg: &SimConfig, trace: &Trace) -> Result<NetReplay, String> {
    let mut out = NetReplay::default();
    let mut rng = seeded_rng(cfg.seed);
    let mut topology = Topology::random(cfg.num_edps, cfg.num_requesters, &cfg.network, &mut rng);
    let start = Instant::now();
    let mut channels = ChannelState::init(&topology, &cfg.network, &mut rng);
    out.init_ms = ms_since(start);
    let occupancy =
        Normal::new(cfg.params.lambda0_mean, cfg.params.lambda0_std).map_err(|e| e.to_string())?;
    for _ in 0..cfg.num_edps * cfg.num_contents {
        std::hint::black_box(occupancy.sample(&mut rng));
    }
    let mut walkers = cfg.mobility.map(|model| {
        let positions = (0..topology.num_requesters())
            .map(|j| topology.requester(j))
            .collect();
        MobileRequesters::new(positions, cfg.network.area_radius, model, &mut rng)
    });

    let dt = cfg.slot_dt();
    let threads = cfg.worker_threads.max(1);
    let chunk = cfg.num_edps.div_ceil(threads).max(1);
    let edps: Vec<usize> = (0..cfg.num_edps).collect();
    for epoch in 0..cfg.epochs {
        if epoch > 0 {
            if let Some(w) = &walkers {
                let start = Instant::now();
                topology.update_requesters(w.positions());
                channels.refresh_distances(&topology);
                out.reassoc_ms.push(ms_since(start));
            }
        }
        let process = RequestProcess::new(
            cfg.request_prob,
            trace.normalized_weights(epoch),
            cfg.timeliness,
        )
        .map_err(|e| e.to_string())?;
        for slot in 0..cfg.slots_per_epoch {
            let start = Instant::now();
            channels.advance(dt);
            out.advance_ms.push(ms_since(start));
            if let Some(w) = &mut walkers {
                let start = Instant::now();
                w.step(dt, &mut rng);
                channels.refresh_distances_from_positions(&topology, w.positions());
                out.mobility_ms.push(ms_since(start));
            }
            let global_slot = (epoch * cfg.slots_per_epoch + slot) as u64;
            let (topology, process) = (&topology, &process);
            let start = Instant::now();
            let generated: usize = std::thread::scope(|scope| {
                let workers: Vec<_> = edps
                    .chunks(chunk)
                    .map(|ids| {
                        scope.spawn(move || {
                            ids.iter()
                                .map(|&i| {
                                    let batch: RequestBatch = process.generate_batched(
                                        topology.served_by(i),
                                        cfg.seed ^ REQUEST_KEY,
                                        global_slot,
                                    );
                                    batch.total()
                                })
                                .sum::<usize>()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("request worker panicked"))
                    .sum()
            });
            out.requests_ms.push(ms_since(start));
            out.requests_total += generated as u64;
        }
    }
    out.tracked_links = channels.tracked_links();
    out.channel_bytes = channels.memory_bytes();
    Ok(out)
}
