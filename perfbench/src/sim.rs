//! The two simulation workloads, `paper_market` and `metro_mobility`:
//! `MfgCpPolicy::new` + `Simulation::with_trace` + `Simulation::run`, the
//! path `mfgcp simulate --scheme mfg-cp` runs.
//!
//! The popularity trace is one fixed input, like the paper's single
//! YouTube dataset: the synthetic trace `Simulation::new` would generate
//! for the default seed. The benchmark seed drives everything else (the
//! placement, the channels, the walkers, the request streams and the
//! initial occupancy), so the epochs' equilibrium solves are the same work
//! whatever the seed, and a run-to-run spread measures the program.
//!
//! Two probes watch each run from outside the engine. [`Gated`] wraps the
//! policy: it times `prepare_epoch` (the epoch's equilibrium solves) and
//! checks that every prepared equilibrium converged. [`SlotClock`] is a
//! timestamp-only `EngineControl` hook: it stamps every slot boundary and
//! never blocks or reprices. Both are attached in the untraced and the
//! traced pass alike, so neither counts as tracing overhead.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mfgcp_core::{ContentContext, Equilibrium, Params};
use mfgcp_net::RandomWaypoint;
use mfgcp_obs::RecorderHandle;
use mfgcp_sde::{seeded_rng, SimRng};
use mfgcp_sim::baselines::MfgCpPolicy;
use mfgcp_sim::{
    CachingPolicy, DecisionContext, EngineControl, SimConfig, SimReport, SimSnapshot, Simulation,
};
use mfgcp_workload::trace::{SyntheticYoutubeTrace, Trace};

use crate::layers;
use crate::stats::{self, Tally};
use crate::telemetry::{self, Digest};
use crate::{Outcome, PINNED_THREADS};

/// Set-up samples a run takes at least (extra set-ups are built and
/// dropped when the measured repetitions gave fewer).
const SETUP_SAMPLES: usize = 5;

/// `paper_market`: the §V-A scale with the `Params::default()` solver
/// grid (24×48, 40 steps), static requesters and a full audit.
pub fn paper_market(seed: u64) -> SimConfig {
    SimConfig {
        num_edps: 300,
        num_requesters: 900,
        num_contents: 20,
        epochs: 3,
        slots_per_epoch: 40,
        params: Params {
            num_edps: 300,
            worker_threads: PINNED_THREADS,
            ..Params::default()
        },
        audit: true,
        audit_sample: 1,
        seed,
        worker_threads: PINNED_THREADS,
        ..SimConfig::default()
    }
}

/// `metro_mobility`: M = 6000, J = 18000 with random-waypoint mobility,
/// an audit of every 10th slot and the `simulate` CLI's solver grid
/// (8×32, 16 steps). Two epochs, so one re-association happens. J/M and
/// the slots per epoch match `paper_market`, so each EDP expects the same
/// requests per epoch (the demand the epoch's equilibria are solved for).
pub fn metro_mobility(seed: u64) -> SimConfig {
    SimConfig {
        num_edps: 6000,
        num_requesters: 18_000,
        num_contents: 20,
        epochs: 2,
        slots_per_epoch: 40,
        params: Params {
            num_edps: 6000,
            time_steps: 16,
            grid_h: 8,
            grid_q: 32,
            worker_threads: PINNED_THREADS,
            ..Params::default()
        },
        mobility: Some(RandomWaypoint::default()),
        audit: true,
        audit_sample: 10,
        seed,
        worker_threads: PINNED_THREADS,
        ..SimConfig::default()
    }
}

/// What the [`Gated`] policy saw.
#[derive(Debug, Default)]
struct PrepLog {
    /// Wall seconds of each `prepare_epoch` call.
    prepare_s: Vec<f64>,
    /// Equilibria prepared.
    equilibria: u64,
    /// Prepared equilibria whose Picard loop did not converge.
    unconverged: u64,
}

/// MFG-CP with an outside probe around `prepare_epoch`; every other call
/// forwards unchanged.
struct Gated {
    inner: MfgCpPolicy,
    log: Arc<Mutex<PrepLog>>,
}

impl CachingPolicy for Gated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allows_sharing(&self) -> bool {
        self.inner.allows_sharing()
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.inner.set_recorder(recorder);
    }

    fn prepare_epoch(&mut self, contexts: &[ContentContext]) {
        let start = Instant::now();
        self.inner.prepare_epoch(contexts);
        let took = start.elapsed().as_secs_f64();
        let prepared = self.inner.prepared_equilibria();
        let mut log = self.log.lock().expect("prep log lock poisoned");
        log.prepare_s.push(took);
        log.equilibria += prepared.len() as u64;
        log.unconverged += prepared
            .iter()
            .filter(|(_, eq)| !eq.report.converged)
            .count() as u64;
    }

    fn prepared_equilibria(&self) -> Vec<(usize, &Equilibrium)> {
        self.inner.prepared_equilibria()
    }

    fn reprice(
        &self,
        content: usize,
        ctx: &ContentContext,
        occupancy: &[f64],
    ) -> Option<Equilibrium> {
        self.inner.reprice(content, ctx, occupancy)
    }

    fn install_equilibrium(&mut self, content: usize, equilibrium: Equilibrium) -> bool {
        self.inner.install_equilibrium(content, equilibrium)
    }

    fn decide(&self, ctx: &DecisionContext, rng: &mut SimRng) -> f64 {
        self.inner.decide(ctx, rng)
    }
}

/// Timestamp-only slot-boundary hook: `(epoch, slot, finished, seconds
/// since the run started)` per boundary.
struct SlotClock {
    start: Instant,
    marks: Mutex<Vec<(usize, usize, bool, f64)>>,
}

impl EngineControl for SlotClock {
    fn at_slot_boundary(&self, snapshot: SimSnapshot) {
        let now = self.start.elapsed().as_secs_f64();
        self.marks.lock().expect("slot clock lock poisoned").push((
            snapshot.epoch,
            snapshot.slot,
            snapshot.finished,
            now,
        ));
    }
}

/// The fixed popularity trace: the one `Simulation::new` generates for
/// the default configuration's seed.
pub fn popularity_trace(cfg: &SimConfig) -> Result<Trace, String> {
    SyntheticYoutubeTrace {
        categories: cfg.num_contents,
        epochs: cfg.epochs.max(2),
        ..SyntheticYoutubeTrace::default()
    }
    .generate(&mut seeded_rng(SimConfig::default().seed))
    .map_err(|e| e.to_string())
}

/// Build the simulation the way `mfgcp simulate` does, behind the probes.
fn set_up(
    cfg: &SimConfig,
    trace: &Trace,
    log: &Arc<Mutex<PrepLog>>,
) -> Result<(Simulation, f64), String> {
    let start = Instant::now();
    let policy = MfgCpPolicy::new(cfg.params.clone()).map_err(|e| e.to_string())?;
    let sim = Simulation::with_trace(
        cfg.clone(),
        Box::new(Gated {
            inner: policy,
            log: Arc::clone(log),
        }),
        trace.clone(),
    )
    .map_err(|e| e.to_string())?;
    Ok((sim, start.elapsed().as_secs_f64()))
}

/// One set-up plus run.
struct Rep {
    setup_s: f64,
    run_s: f64,
    report: SimReport,
    prep: PrepLog,
    slot_walls: Vec<f64>,
}

fn run_once(
    cfg: &SimConfig,
    trace: &Trace,
    recorder: Option<RecorderHandle>,
) -> Result<Rep, String> {
    let log = Arc::new(Mutex::new(PrepLog::default()));
    let (mut sim, setup_s) = set_up(cfg, trace, &log)?;
    if let Some(rec) = recorder {
        sim.set_recorder(rec);
    }
    let clock = Arc::new(SlotClock {
        start: Instant::now(),
        marks: Mutex::new(Vec::new()),
    });
    sim.set_control(clock.clone());
    let start = Instant::now();
    let report = std::hint::black_box(sim.run());
    let run_s = start.elapsed().as_secs_f64();
    drop(sim);
    let marks = std::mem::take(&mut *clock.marks.lock().expect("slot clock lock poisoned"));
    let prep = std::mem::take(&mut *log.lock().expect("prep log lock poisoned"));
    Ok(Rep {
        setup_s,
        run_s,
        report,
        prep,
        slot_walls: stats::slot_walls(&marks),
    })
}

/// Bits that a run with a fixed seed reproduces exactly.
type RunBits = (u64, (u64, u64, u64), u64);

fn run_bits(report: &SimReport) -> RunBits {
    let series = report
        .series
        .iter()
        .fold(0u64, |acc, s| acc.rotate_left(5) ^ s.slot_utility.to_bits());
    (
        report.mean_utility().to_bits(),
        report.case_totals(),
        series,
    )
}

/// The untraced measurement both passes share.
#[derive(Default)]
struct Measured {
    reps: usize,
    setup_s: Vec<f64>,
    run_s: f64,
    /// EDP-slots per second of each repetition's run.
    rates: Vec<f64>,
    slot_walls: Vec<f64>,
    /// `prepare_epoch` seconds of every epoch of every repetition.
    prepare_s: Vec<f64>,
    slots_checked: u64,
    handovers_checked: u64,
    violations: u64,
    /// Requests one repetition served.
    requests_served: u64,
    tally: Tally,
    /// What every repetition of this seed must reproduce.
    bits: Option<RunBits>,
}

impl Measured {
    /// Mean wall seconds of one set-up plus run.
    fn rep_wall(&self) -> f64 {
        (self.setup_s.iter().take(self.reps).sum::<f64>() + self.run_s) / self.reps as f64
    }
}

/// Gate one repetition: a clean audit (I1–I6), converged equilibria, a
/// re-association audited per epoch boundary under mobility, and the same
/// bits as every other run of the same seed, traced or not.
fn gate(cfg: &SimConfig, rep: &Rep, expected: Option<RunBits>, tally: &mut Tally) {
    let slots = (cfg.epochs * cfg.slots_per_epoch) as u64;
    match &rep.report.audit {
        Some(audit) => {
            for v in &audit.violations {
                eprintln!("perfbench: audit violation: {v}");
            }
            tally.batch(slots, audit.violations.len() as u64);
            if cfg.mobility.is_some() && !tally.check(audit.handovers_checked == cfg.epochs - 1) {
                eprintln!("perfbench: {} handovers audited", audit.handovers_checked);
            }
        }
        None => tally.batch(slots, slots),
    }
    if rep.prep.unconverged > 0 {
        eprintln!(
            "perfbench: {} of {} prepared equilibria did not converge",
            rep.prep.unconverged, rep.prep.equilibria
        );
    }
    tally.batch(rep.prep.equilibria, rep.prep.unconverged);
    tally.check(rep.prep.equilibria > 0);
    if let Some(bits) = expected {
        if !tally.check(run_bits(&rep.report) == bits) {
            eprintln!("perfbench: a repeated run of the same seed differs");
        }
    }
}

fn measure(cfg: &SimConfig, trace: &Trace, seconds: f64) -> Result<Measured, String> {
    let start = Instant::now();
    let mut m = Measured::default();
    while m.reps == 0 || start.elapsed().as_secs_f64() < seconds {
        let rep = run_once(cfg, trace, None)?;
        gate(cfg, &rep, m.bits, &mut m.tally);
        m.bits.get_or_insert(run_bits(&rep.report));
        m.requests_served = rep.report.per_edp.iter().map(|e| e.requests_served).sum();
        m.reps += 1;
        m.setup_s.push(rep.setup_s);
        m.run_s += rep.run_s;
        m.rates.push(
            stats::edp_slots(cfg.num_edps, cfg.epochs, cfg.slots_per_epoch) as f64 / rep.run_s,
        );
        m.slot_walls.extend_from_slice(&rep.slot_walls);
        m.prepare_s.extend_from_slice(&rep.prep.prepare_s);
        if let Some(audit) = &rep.report.audit {
            m.slots_checked += audit.slots_checked as u64;
            m.handovers_checked += audit.handovers_checked as u64;
            m.violations += audit.violations.len() as u64;
        }
    }
    let log = Arc::new(Mutex::new(PrepLog::default()));
    while m.setup_s.len() < SETUP_SAMPLES {
        let (sim, setup_s) = set_up(cfg, trace, &log)?;
        drop(std::hint::black_box(sim));
        m.setup_s.push(setup_s);
    }
    Ok(m)
}

/// The end-to-end metrics: medians over repetitions, slots and epochs,
/// so a burst of contention from outside that covers less than half of a
/// run does not move them.
fn end_to_end(m: &Measured, out: &mut Outcome) {
    out.metric("setup_s", stats::median(&m.setup_s));
    out.metric("throughput_per_s", stats::median(&m.rates));
    out.metric(
        "latency_p50_ms",
        stats::median(&m.slot_walls.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );
    // A simulation reprices at every epoch boundary: the epoch's
    // equilibria are re-solved before its first slot trades on them.
    out.metric(
        "reprice_p50_ms",
        stats::median(&m.prepare_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );
}

/// Run one simulation workload for `seconds`; with `trace`, add the
/// traced run and the layer replay and report the per-layer metrics.
pub fn run(cfg: &SimConfig, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.size("edps", cfg.num_edps);
    out.size("requesters", cfg.num_requesters);
    out.size("contents", cfg.num_contents);
    out.size("epochs", cfg.epochs);
    out.size("slots_per_epoch", cfg.slots_per_epoch);
    out.size("grid_h", cfg.params.grid_h);
    out.size("grid_q", cfg.params.grid_q);
    out.size("time_steps", cfg.params.time_steps);
    out.size("audit_sample", cfg.audit_sample);
    out.size("mobility", usize::from(cfg.mobility.is_some()));

    let popularity = popularity_trace(cfg)?;
    let m = measure(cfg, &popularity, seconds)?;
    out.size("repetitions", m.reps);
    out.tally = m.tally;
    if !trace {
        end_to_end(&m, &mut out);
        return Ok(out);
    }

    // Traced run: the same simulation with the program's own telemetry
    // collected in memory.
    let (recorder, sink) = telemetry::memory_recorder();
    let traced = run_once(cfg, &popularity, Some(recorder))?;
    gate(cfg, &traced, m.bits, &mut out.tally);
    let digest = Digest::of(&sink);
    drop(sink);
    // Layer replay: the net and workload calls the engine makes, timed
    // one by one on the same inputs. It must generate exactly the
    // requests the simulation served.
    let net = layers::replay(cfg, &popularity)?;
    out.tally.check(net.requests_total == m.requests_served);

    let slots = (cfg.epochs * cfg.slots_per_epoch) as f64;
    let wall = m.rep_wall();
    let prepare = m.prepare_s.iter().sum::<f64>() / m.reps as f64;
    let market_ms = stats::mean(&digest.event_field("market.slot", "nanos")) / 1e6;
    let advance_ms = stats::mean(&net.advance_ms);
    let mobility_ms = stats::mean(&net.mobility_ms);
    let requests_ms = stats::mean(&net.requests_ms);
    let reassoc_total: f64 = net.reassoc_ms.iter().sum();
    let net_s = (net.init_ms + reassoc_total + slots * (advance_ms + mobility_ms)) / 1e3;
    let (shares, rest) = stats::attribute(
        wall,
        &[
            ("core.share", prepare),
            ("net.share", net_s),
            ("workload.share", slots * requests_ms / 1e3),
            ("sim.market_share", slots * market_ms / 1e3),
        ],
    );
    for (name, share) in shares {
        out.metric(name, share);
    }
    out.metric("sim.other_share", rest);

    let solve_ms = digest.span_ms("solver.solve");
    out.metric("core.solve_ms", stats::median(&solve_ms));
    out.metric(
        "core.picard_iters",
        stats::median(&digest.span_field("solver.solve", "iterations")),
    );
    out.metric(
        "core.continuation_ms",
        stats::median(&digest.span_ms("solver.continuation")),
    );
    out.metric("pde.hjb_ms", stats::median(&digest.span_ms("solver.hjb")));
    out.metric("pde.fpk_ms", stats::median(&digest.span_ms("solver.fpk")));

    out.metric("net.channel_init_ms", net.init_ms);
    out.metric("net.advance_ms", advance_ms);
    out.metric("net.reassoc_ms", stats::mean(&net.reassoc_ms));
    out.metric("net.mobility_ms", mobility_ms);
    out.metric("net.tracked_links", net.tracked_links as f64);
    out.metric("net.channel_mb", net.channel_bytes as f64 / 1e6);
    out.metric("workload.requests_ms", requests_ms);
    out.metric(
        "workload.requests_per_slot",
        net.requests_total as f64 / slots,
    );

    let walls_ms: Vec<f64> = m.slot_walls.iter().map(|s| s * 1e3).collect();
    out.metric("sim.slot_p50_ms", stats::median(&walls_ms));
    out.metric("sim.slot_p90_ms", stats::tail(&walls_ms, 900));
    out.metric(
        "sim.prepare_epoch_ms",
        stats::median(&digest.span_ms("sim.prepare_epoch")),
    );
    out.metric("sim.market_ms", market_ms);
    out.metric(
        "sim.slot_self_ms",
        stats::mean(&walls_ms) - advance_ms - mobility_ms - requests_ms - market_ms,
    );
    out.metric("check.slots_checked", m.slots_checked as f64);
    out.metric("check.handovers_checked", m.handovers_checked as f64);
    out.metric("check.violations", m.violations as f64);
    out.metric(
        "obs.trace_overhead",
        (traced.setup_s + traced.run_s) / wall - 1.0,
    );
    out.size("traced_events", digest.len());
    Ok(out)
}
