//! Solver benchmark: Alg. 2 end to end under `Params::default()` — the
//! explicit steppers with accelerated Picard (coarse-to-fine continuation
//! and adaptive damping), the path `mfgcp solve`/`simulate` run — written
//! to `BENCH_solver.json` at the workspace root.
//!
//! Two legs are measured on the paper grid. `full_solve` times a cold
//! `MfgSolver::solve`, recording wall time *and* Picard
//! iterations-to-convergence (`picard_iterations`, gated
//! lower-is-better). `warm_reprice` times the online-repricing path:
//! after a small popularity perturbation, a warm re-solve seeded from the
//! stale equilibrium's policy vs a cold re-solve (`warm_speedup`, gated
//! higher-is-better).
//!
//! Run: `cargo run --release -p mfgcp-bench --bin bench_solver`
//!
//! Flags:
//!
//! * `--telemetry FILE.jsonl` — stream one `bench.sample` event per
//!   measurement through the shared `mfgcp-obs` recorder.

use std::io::Write as _;
use std::time::Instant;

use mfgcp_core::{MfgSolver, Params, SolveMethod};
use mfgcp_obs::json::Json;
use mfgcp_obs::{JsonlSink, RecorderHandle};

struct FullSolveSample {
    nx: usize,
    ny: usize,
    picard_iterations: usize,
    wall_millis: f64,
}

struct WarmRepriceSample {
    nx: usize,
    ny: usize,
    cold_millis: f64,
    warm_millis: f64,
    cold_picard_iterations: usize,
    warm_picard_iterations: usize,
}

impl WarmRepriceSample {
    fn warm_speedup(&self) -> f64 {
        self.cold_millis / self.warm_millis
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
fn measure_warm_reprice(recorder: &RecorderHandle) -> WarmRepriceSample {
    let params = Params::default();
    let (nx, ny) = (params.grid_h, params.grid_q);
    let solver = MfgSolver::new(params).expect("valid params");
    let stale = solver.solve().expect("paper-grid solve converges");
    let mut shifted = stale.contexts[0];
    shifted.popularity = (shifted.popularity * REPRICE_POPULARITY_SHIFT).min(1.0);
    let contexts = vec![shifted; stale.params.time_steps];

    let mut ws = solver.workspace();
    let mut best: Option<WarmRepriceSample> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let cold =
            solver.solve_with_workspace(&contexts, None, SolveMethod::PicardRelaxation, &mut ws);
        let cold_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(cold.converged, "cold re-solve converges");

        let start = Instant::now();
        let warm = solver.solve_from_with_workspace(
            &contexts,
            &stale.policy,
            Some(&stale.density),
            None,
            &mut ws,
        );
        let warm_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(warm.converged, "warm re-solve converges");

        let sample = WarmRepriceSample {
            nx,
            ny,
            cold_millis,
            warm_millis,
            cold_picard_iterations: cold.iterations,
            warm_picard_iterations: warm.iterations,
        };
        if best
            .as_ref()
            .map_or(true, |b| sample.warm_millis < b.warm_millis)
        {
            best = Some(sample);
        }
    }
    let best = best.expect("three samples taken");
    recorder.event(
        "bench.sample",
        &[
            ("leg", "warm_reprice".into()),
            ("nx", best.nx.into()),
            ("ny", best.ny.into()),
            ("popularity_shift", REPRICE_POPULARITY_SHIFT.into()),
            ("cold_millis", best.cold_millis.into()),
            ("warm_millis", best.warm_millis.into()),
            ("cold_picard_iterations", best.cold_picard_iterations.into()),
            ("warm_picard_iterations", best.warm_picard_iterations.into()),
            ("warm_speedup", best.warm_speedup().into()),
        ],
    );
    best
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
    let warm = measure_warm_reprice(&recorder);

    let samples = vec![
        Json::Obj(vec![
            ("leg".into(), Json::Str("full_solve".into())),
            ("nx".into(), Json::Num(full.nx as f64)),
            ("ny".into(), Json::Num(full.ny as f64)),
            (
                "picard_iterations".into(),
                Json::Num(full.picard_iterations as f64),
            ),
            ("wall_millis".into(), Json::Num(full.wall_millis)),
        ]),
        Json::Obj(vec![
            ("leg".into(), Json::Str("warm_reprice".into())),
            ("nx".into(), Json::Num(warm.nx as f64)),
            ("ny".into(), Json::Num(warm.ny as f64)),
            (
                "popularity_shift".into(),
                Json::Num(REPRICE_POPULARITY_SHIFT),
            ),
            ("cold_millis".into(), Json::Num(warm.cold_millis)),
            ("warm_millis".into(), Json::Num(warm.warm_millis)),
            (
                "cold_picard_iterations".into(),
                Json::Num(warm.cold_picard_iterations as f64),
            ),
            (
                "warm_picard_iterations".into(),
                Json::Num(warm.warm_picard_iterations as f64),
            ),
            ("warm_speedup".into(), Json::Num(warm.warm_speedup())),
        ]),
    ];
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("solver".into())),
        (
            "unit_note".into(),
            Json::Str(
                "Alg. 2 wall time under Params::default() (explicit steppers, \
                 accelerated Picard); warm_reprice = cold vs warm re-solve"
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
    println!(
        "warm_reprice, {}x{}, cold {:.1} ms / {} it, warm {:.1} ms / {} it, {:.2}x",
        warm.nx,
        warm.ny,
        warm.cold_millis,
        warm.cold_picard_iterations,
        warm.warm_millis,
        warm.warm_picard_iterations,
        warm.warm_speedup()
    );
    recorder.flush();
    eprintln!("wrote BENCH_solver.json");
}
