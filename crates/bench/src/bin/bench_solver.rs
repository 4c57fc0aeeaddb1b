//! Solver benchmark: Alg. 2 end to end under `Params::default()` — the
//! explicit steppers with accelerated Picard (coarse-to-fine continuation
//! and adaptive damping), the path `mfgcp solve`/`simulate` run — written
//! to `BENCH_solver.json` at the workspace root.
//!
//! Three legs are measured on the paper grid. `full_solve` times a cold
//! `MfgSolver::solve`, recording wall time *and* Picard
//! iterations-to-convergence (`picard_iterations`, gated
//! lower-is-better). The other two time a cold re-solve against a warm
//! one (`warm_speedup`, gated higher-is-better):
//!
//! * `warm_reprice` — the online-repricing path: after a ×1.005
//!   popularity nudge, a cold `MfgSolver::solve_with` against a warm
//!   `MfgSolver::solve_from` seeded from copies of the stale
//!   equilibrium's policy and density, each timed with the allocation
//!   of its own trajectories. A nudge that small leaves the stale fixed
//!   point within one iteration of the new one, so its speedup (≈ 4.3×)
//!   overstates what warm starts buy between epochs.
//! * `warm_epoch` — the epoch-to-epoch path of `Framework::run_epoch`:
//!   one recorded change of a content's context between two consecutive
//!   epochs (requests −19 %, popularity +21 %, urgency +53 %), re-solved
//!   warm in the previous equilibrium's own buffers
//!   (`MfgSolver::resolve`). The warm solve skips the continuation but
//!   needs about as many fine iterations as the cold one, so it saves
//!   about a quarter of the cold solve's time (≈ 1.3×), not a multiple.
//!
//! Run: `cargo run --release -p mfgcp-bench --bin bench_solver`
//!
//! Flags:
//!
//! * `--telemetry FILE.jsonl` — stream one `bench.sample` event per
//!   measurement through the shared `mfgcp-obs` recorder.

use std::io::Write as _;
use std::time::Instant;

use mfgcp_core::{ContentContext, MfgSolver, Params};
use mfgcp_obs::json::Json;
use mfgcp_obs::{JsonlSink, RecorderHandle};

struct FullSolveSample {
    nx: usize,
    ny: usize,
    picard_iterations: usize,
    wall_millis: f64,
}

/// One cold-vs-warm re-solve comparison.
struct WarmSample {
    leg: &'static str,
    nx: usize,
    ny: usize,
    cold_millis: f64,
    warm_millis: f64,
    cold_picard_iterations: usize,
    warm_picard_iterations: usize,
}

impl WarmSample {
    fn warm_speedup(&self) -> f64 {
        self.cold_millis / self.warm_millis
    }

    /// The sample as a `bench.sample` event and as a report entry.
    fn emit(&self, recorder: &RecorderHandle) -> Json {
        let metrics = [
            ("nx", self.nx as f64),
            ("ny", self.ny as f64),
            ("cold_millis", self.cold_millis),
            ("warm_millis", self.warm_millis),
            ("cold_picard_iterations", self.cold_picard_iterations as f64),
            ("warm_picard_iterations", self.warm_picard_iterations as f64),
            ("warm_speedup", self.warm_speedup()),
        ];
        let mut event = vec![("leg", self.leg.into())];
        event.extend(metrics.iter().map(|&(k, v)| (k, v.into())));
        recorder.event("bench.sample", &event);
        let mut entry = vec![("leg".into(), Json::Str(self.leg.into()))];
        entry.extend(metrics.iter().map(|&(k, v)| (k.into(), Json::Num(v))));
        Json::Obj(entry)
    }

    fn print(&self) {
        println!(
            "{}, {}x{}, cold {:.1} ms / {} it, warm {:.1} ms / {} it, {:.2}x",
            self.leg,
            self.nx,
            self.ny,
            self.cold_millis,
            self.cold_picard_iterations,
            self.warm_millis,
            self.warm_picard_iterations,
            self.warm_speedup()
        );
    }
}

/// Keep the sample with the fastest warm solve.
fn keep_best(best: &mut Option<WarmSample>, sample: WarmSample) {
    if best
        .as_ref()
        .map_or(true, |b| sample.warm_millis < b.warm_millis)
    {
        *best = Some(sample);
    }
}

fn measure_full_solve(recorder: &RecorderHandle) -> FullSolveSample {
    let params = Params::default();
    let (nx, ny) = (params.grid_h, params.grid_q);
    let solver = MfgSolver::new(params).expect("valid params");
    let mut best: Option<FullSolveSample> = None;
    for _ in 0..2 {
        let start = Instant::now();
        let eq = solver.solve().expect("paper-grid solve converges");
        let wall_millis = start.elapsed().as_secs_f64() * 1e3;
        let sample = FullSolveSample {
            nx,
            ny,
            picard_iterations: eq.report.iterations,
            wall_millis,
        };
        if best
            .as_ref()
            .map_or(true, |b| sample.wall_millis < b.wall_millis)
        {
            best = Some(sample);
        }
    }
    let best = best.expect("two samples taken");
    recorder.event(
        "bench.sample",
        &[
            ("leg", "full_solve".into()),
            ("nx", best.nx.into()),
            ("ny", best.ny.into()),
            ("picard_iterations", best.picard_iterations.into()),
            ("wall_millis", best.wall_millis.into()),
        ],
    );
    best
}

/// The popularity drift the repricing bench reacts to: the slot-to-slot
/// scale (a 0.5% shift), not an epoch-scale shock — mid-run repricing
/// fires every few slots, so the stale equilibrium is never far off.
const REPRICE_POPULARITY_SHIFT: f64 = 1.005;

/// The online-repricing path: converge once, nudge the popularity (the
/// perturbation mid-run repricing reacts to), then time a cold re-solve
/// against a warm re-solve seeded from the stale equilibrium's policy
/// and density.
fn measure_warm_reprice() -> WarmSample {
    let params = Params::default();
    let (nx, ny) = (params.grid_h, params.grid_q);
    let solver = MfgSolver::new(params).expect("valid params");
    let stale = solver.solve().expect("paper-grid solve converges");
    let mut shifted = stale.contexts[0];
    shifted.popularity = (shifted.popularity * REPRICE_POPULARITY_SHIFT).min(1.0);
    let contexts = vec![shifted; stale.params.time_steps];

    let mut best = None;
    for _ in 0..3 {
        let start = Instant::now();
        let cold = solver.solve_with(&contexts, None).report;
        let cold_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(cold.converged, "cold re-solve converges");

        let start = Instant::now();
        let warm = solver
            .solve_from(&contexts, &stale.policy, Some(&stale.density), None)
            .report;
        let warm_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(warm.converged, "warm re-solve converges");

        keep_best(
            &mut best,
            WarmSample {
                leg: "warm_reprice",
                nx,
                ny,
                cold_millis,
                warm_millis,
                cold_picard_iterations: cold.iterations,
                warm_picard_iterations: warm.iterations,
            },
        );
    }
    best.expect("three samples taken")
}

/// Content 0's context in two consecutive epochs of a paper-scale market
/// run (M = 300, J = 900, K = 20; the perfbench `paper_market` workload,
/// seed 23): the drift an epoch's warm start absorbs.
const EPOCH_CONTEXTS: [ContentContext; 2] = [
    ContentContext {
        requests: 10.91,
        popularity: 0.212,
        urgency_factor: 0.0032,
    },
    ContentContext {
        requests: 8.88,
        popularity: 0.257,
        urgency_factor: 0.0049,
    },
];

/// The epoch-to-epoch path: solve the first epoch's context, then time
/// a cold solve of the second against the warm in-place re-solve from
/// the first, as `Framework::run_epoch` runs them.
fn measure_warm_epoch() -> WarmSample {
    let params = Params::default();
    let (nx, ny) = (params.grid_h, params.grid_q);
    let n = params.time_steps;
    let solver = MfgSolver::new(params).expect("valid params");
    let previous = solver.solve_with(&vec![EPOCH_CONTEXTS[0]; n], None);
    assert!(previous.report.converged, "first epoch converges");
    let contexts = vec![EPOCH_CONTEXTS[1]; n];

    let mut best = None;
    for _ in 0..3 {
        let start = Instant::now();
        let cold = solver.solve_with(&contexts, None);
        let cold_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(cold.report.converged, "cold epoch solve converges");

        let seed = previous.clone();
        let start = Instant::now();
        let warm = solver.resolve(&contexts, seed);
        let warm_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(warm.report.converged, "warm epoch solve converges");

        keep_best(
            &mut best,
            WarmSample {
                leg: "warm_epoch",
                nx,
                ny,
                cold_millis,
                warm_millis,
                cold_picard_iterations: cold.report.iterations,
                warm_picard_iterations: warm.report.iterations,
            },
        );
    }
    best.expect("three samples taken")
}

/// Hand-rolled flag parsing: `--telemetry FILE`.
fn parse_args() -> RecorderHandle {
    let mut recorder = RecorderHandle::noop();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--telemetry" => {
                let path = it.next().expect("--telemetry needs a file path");
                let sink = JsonlSink::create(&path)
                    .unwrap_or_else(|e| panic!("cannot create telemetry file `{path}`: {e}"));
                recorder = RecorderHandle::new(std::sync::Arc::new(sink));
            }
            other => {
                eprintln!("unknown flag `{other}` (supported: --telemetry FILE.jsonl)");
                std::process::exit(2);
            }
        }
    }
    recorder
}

fn main() {
    let recorder = parse_args();
    let full = measure_full_solve(&recorder);
    let legs = [measure_warm_reprice(), measure_warm_epoch()];

    let mut samples = vec![Json::Obj(vec![
        ("leg".into(), Json::Str("full_solve".into())),
        ("nx".into(), Json::Num(full.nx as f64)),
        ("ny".into(), Json::Num(full.ny as f64)),
        (
            "picard_iterations".into(),
            Json::Num(full.picard_iterations as f64),
        ),
        ("wall_millis".into(), Json::Num(full.wall_millis)),
    ])];
    samples.extend(legs.iter().map(|leg| leg.emit(&recorder)));
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("solver".into())),
        (
            "unit_note".into(),
            Json::Str(
                "Alg. 2 wall time under Params::default() (explicit steppers, \
                 accelerated Picard); warm_reprice / warm_epoch = cold vs warm \
                 re-solve after a x1.005 popularity nudge / an epoch's drift"
                    .into(),
            ),
        ),
        ("samples".into(), Json::Arr(samples)),
    ]);
    let mut json = report.to_json_string();
    json.push('\n');

    let mut f = std::fs::File::create("BENCH_solver.json").expect("create BENCH_solver.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_solver.json");

    println!("{json}");
    println!(
        "full_solve, {}x{}, {} iterations, {:.1} ms",
        full.nx, full.ny, full.picard_iterations, full.wall_millis
    );
    for leg in &legs {
        leg.print();
    }
    recorder.flush();
    eprintln!("wrote BENCH_solver.json");
}
