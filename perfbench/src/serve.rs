//! `serve_reprice`: the `Params::default()` equilibrium, solved, written
//! with `artifact::save`, opened with `ArtifactStore::open` and served by
//! an in-process `PolicyServer` with the default `ServeConfig`.
//!
//! One client connection drives a closed loop of rounds: 16 per-point
//! `Client::query` calls, then one 256-pair `Client::eval_slot` frame. On
//! a fixed cadence the same thread reprices between rounds: a warm
//! `MfgSolver::solve_from` after a ×1.005 popularity drift, `artifact::save`,
//! `SwapHandle::swap_from_path`, and the first reply on the new
//! generation. The write never overlaps a round, so the solver never
//! competes with the server worker for the cores.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mfgcp_core::{Equilibrium, MfgSolver, Params};
use mfgcp_obs::RecorderHandle;
use mfgcp_sde::{seeded_rng, SimRng};
use mfgcp_serve::{
    artifact, ArtifactStore, Client, PolicyPoint, PolicyServer, ServeConfig, ServerHandle,
    SwapHandle,
};
use rand::RngExt as _;

use crate::stats::{self, Samples, Tally};
use crate::telemetry::{self, Digest};
use crate::{Outcome, PINNED_THREADS};

/// Per-point queries per round.
const QUERIES_PER_ROUND: usize = 16;
/// `(h, q)` pairs in the round's slot-batched frame.
const FRAME_PAIRS: usize = 256;
/// Reprices per run, evenly spaced over the measured seconds.
const REPRICES_PER_RUN: usize = 25;
/// The popularity drift each reprice reacts to.
const POPULARITY_DRIFT: f64 = 1.005;
/// Rounds a fresh connection runs before set-up counts as done.
const WARMUP_ROUNDS: usize = 50;
/// Set-ups per run; the median is reported.
const SETUP_SAMPLES: usize = 5;
/// Seconds of the traced window (server telemetry into memory).
const TRACED_SECONDS: f64 = 2.0;
/// Rounds per throughput window; the median window rate is reported.
const WINDOW_ROUNDS: usize = 1000;
/// Distinct query points and frames the seed draws.
const POOL: usize = 4096;
const FRAME_POOL: usize = 64;

/// The seeded query stream.
struct Inputs {
    points: Vec<[f64; 3]>,
    frames: Vec<(f64, Vec<[f64; 2]>)>,
}

impl Inputs {
    /// Points drawn uniformly over the equilibrium's `(t, h, q)` domain.
    fn draw(params: &Params, seed: u64) -> Self {
        let mut rng: SimRng = seeded_rng(seed);
        let point = |rng: &mut SimRng| {
            [
                rng.random_range(0.0..params.t_horizon),
                rng.random_range(params.h_min..=params.h_max),
                rng.random_range(0.0..=params.q_size),
            ]
        };
        let points = (0..POOL).map(|_| point(&mut rng)).collect();
        let frames = (0..FRAME_POOL)
            .map(|_| {
                let t = point(&mut rng)[0];
                let pairs = (0..FRAME_PAIRS)
                    .map(|_| {
                        let [_, h, q] = point(&mut rng);
                        [h, q]
                    })
                    .collect();
                (t, pairs)
            })
            .collect();
        Self { points, frames }
    }

    fn point(&self, i: usize) -> [f64; 3] {
        self.points[i % self.points.len()]
    }

    fn frame(&self, i: usize) -> &(f64, Vec<[f64; 2]>) {
        &self.frames[i % self.frames.len()]
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn finite(p: &PolicyPoint) -> bool {
    p.x.is_finite() && p.price.is_finite() && p.q_bar.is_finite()
}

/// Whether a served point equals the equilibrium's own answer to 0 ULP.
fn exact(p: &PolicyPoint, eq: &Equilibrium, [t, h, q]: [f64; 3]) -> bool {
    p.x.to_bits() == eq.policy_at(t, h, q).to_bits()
        && p.price.to_bits() == eq.price_at(t).to_bits()
        && p.q_bar.to_bits() == eq.q_bar_at(t).to_bits()
}

/// Round-trip samples, in milliseconds.
#[derive(Default)]
struct Latencies {
    query_ms: Samples,
    frame_ms: Samples,
}

/// One reprice, split by layer, in milliseconds.
struct Reprice {
    total_ms: f64,
    solve_ms: f64,
    save_ms: f64,
    swap_ms: f64,
    first_reply_ms: f64,
    iterations: usize,
}

/// A served equilibrium and the client connected to it.
struct Served {
    path: PathBuf,
    solver: MfgSolver,
    current: Equilibrium,
    server: ServerHandle,
    swap: SwapHandle,
    client: Client,
    reprices: u64,
    rounds: usize,
    cold_solve_ms: f64,
}

impl Served {
    /// Cold solve, save, open, server start, connect and warm-up: the
    /// set-up the `setup_s` metric times.
    fn start(
        path: &Path,
        inputs: &Inputs,
        recorder: RecorderHandle,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let params = Params {
            worker_threads: PINNED_THREADS,
            ..Params::default()
        };
        let solver = MfgSolver::new(params).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let current = solver.solve().map_err(|e| e.to_string())?;
        let cold_solve_ms = ms_since(start);
        tally.check(current.report.converged);
        artifact::save(&current, path).map_err(|e| e.to_string())?;
        let store = ArtifactStore::open(path).map_err(|e| e.to_string())?;
        let server =
            PolicyServer::start_store("127.0.0.1:0", store, ServeConfig::default(), recorder)
                .map_err(|e| e.to_string())?;
        let swap = server.swap_handle();
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let mut served = Self {
            path: path.to_path_buf(),
            solver,
            current,
            server,
            swap,
            client,
            reprices: 0,
            rounds: 0,
            cold_solve_ms,
        };
        let mut scratch = Latencies::default();
        for _ in 0..WARMUP_ROUNDS {
            served.round(inputs, &mut scratch, tally);
        }
        Ok(served)
    }

    /// One closed-loop round; every reply is gated finite.
    fn round(&mut self, inputs: &Inputs, lat: &mut Latencies, tally: &mut Tally) {
        for i in 0..QUERIES_PER_ROUND {
            let [t, h, q] = inputs.point(self.rounds * QUERIES_PER_ROUND + i);
            let start = Instant::now();
            let reply = self.client.query(t, h, q);
            lat.query_ms.push(ms_since(start));
            tally.check(reply.is_ok_and(|p| finite(&p)));
        }
        let (t, pairs) = inputs.frame(self.rounds);
        let start = Instant::now();
        let reply = self.client.eval_slot(*t, pairs);
        lat.frame_ms.push(ms_since(start));
        tally.check(reply.is_ok_and(|e| {
            e.xs.len() == pairs.len()
                && e.price.is_finite()
                && e.q_bar.is_finite()
                && e.xs.iter().all(|x| x.is_finite())
        }));
        self.rounds += 1;
    }

    /// Warm reprice, save, swap and first reply, then the gates: the new
    /// equilibrium converged, the generation advanced by one, and served
    /// answers match the new equilibrium to 0 ULP.
    fn reprice(&mut self, inputs: &Inputs, tally: &mut Tally) -> Result<Reprice, String> {
        let probe = inputs.point(self.rounds);
        let mut ctx = self.current.contexts[0];
        ctx.popularity = (ctx.popularity * POPULARITY_DRIFT).min(1.0);
        let contexts = vec![ctx; self.current.params.time_steps];

        let start = Instant::now();
        let next = self.solver.solve_from(
            &contexts,
            &self.current.policy,
            Some(&self.current.density),
            None,
        );
        let solve_ms = ms_since(start);
        let mark = Instant::now();
        artifact::save(&next, &self.path).map_err(|e| e.to_string())?;
        let save_ms = ms_since(mark);
        let mark = Instant::now();
        let generation = self.swap.swap_from_path(&self.path);
        let swap_ms = ms_since(mark);
        let mark = Instant::now();
        let first = self.client.query(probe[0], probe[1], probe[2]);
        let first_reply_ms = ms_since(mark);
        let total_ms = ms_since(start);

        self.reprices += 1;
        let expected = 1 + self.reprices;
        tally.check(next.report.converged);
        tally.check(generation.is_ok_and(|g| g == expected));
        tally.check(first.is_ok_and(|p| exact(&p, &next, probe)));
        tally.check(
            self.client
                .info()
                .is_ok_and(|info| info.generation == expected),
        );
        let (t, pairs) = inputs.frame(self.rounds);
        tally.check(self.client.eval_slot(*t, pairs).is_ok_and(|e| {
            e.price.to_bits() == next.price_at(*t).to_bits()
                && e.q_bar.to_bits() == next.q_bar_at(*t).to_bits()
                && e.xs.len() == pairs.len()
                && e.xs
                    .iter()
                    .zip(pairs)
                    .all(|(x, &[h, q])| x.to_bits() == next.policy_at(*t, h, q).to_bits())
        }));
        let iterations = next.report.iterations;
        self.current = next;
        Ok(Reprice {
            total_ms,
            solve_ms,
            save_ms,
            swap_ms,
            first_reply_ms,
            iterations,
        })
    }

    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        self.server.join();
    }
}

/// The closed loop against one served equilibrium over `seconds`, with
/// `reprices` writes evenly spaced in it.
struct Loop {
    lat: Latencies,
    reprices: Vec<Reprice>,
    /// Points per second of round wall time, per window of
    /// [`WINDOW_ROUNDS`] rounds (one partial window if none filled).
    window_rates: Vec<f64>,
}

fn drive(
    served: &mut Served,
    inputs: &Inputs,
    seconds: f64,
    reprices: usize,
    tally: &mut Tally,
) -> Result<Loop, String> {
    let mut out = Loop {
        lat: Latencies::default(),
        reprices: Vec::new(),
        window_rates: Vec::new(),
    };
    let points = stats::round_points(QUERIES_PER_ROUND, FRAME_PAIRS) as f64;
    let (mut window_rounds, mut window_s) = (0, 0.0);
    let cadence = seconds / (reprices + 1) as f64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let round = Instant::now();
        served.round(inputs, &mut out.lat, tally);
        window_s += round.elapsed().as_secs_f64();
        window_rounds += 1;
        if window_rounds == WINDOW_ROUNDS {
            out.window_rates
                .push(points * window_rounds as f64 / window_s);
            (window_rounds, window_s) = (0, 0.0);
        }
        let due = (out.reprices.len() + 1) as f64 * cadence;
        if out.reprices.len() < reprices && start.elapsed().as_secs_f64() >= due {
            out.reprices.push(served.reprice(inputs, tally)?);
        }
    }
    if out.window_rates.is_empty() {
        out.window_rates
            .push(points * window_rounds as f64 / window_s);
    }
    Ok(out)
}

/// A scratch directory for the artifact, beside the benchmark binary (so
/// inside the build directory of the checkout); removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let base = exe.parent().ok_or("benchmark binary has no directory")?;
        let dir = base.join(format!("perfbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `serve_reprice` for `seconds`; with `trace`, add a traced window
/// and report the per-layer metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let params = Params::default();
    out.size("grid_h", params.grid_h);
    out.size("grid_q", params.grid_q);
    out.size("time_steps", params.time_steps);
    out.size("queries_per_round", QUERIES_PER_ROUND);
    out.size("frame_pairs", FRAME_PAIRS);
    out.size("reprices", REPRICES_PER_RUN);
    out.size("serve_config_threads", ServeConfig::default().threads);
    let inputs = Inputs::draw(&params, seed);
    let work = WorkDir::create()?;
    let path = work.0.join("equilibrium.mfgcp");
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut served = loop {
        let start = Instant::now();
        let served = Served::start(&path, &inputs, RecorderHandle::noop(), &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        cold_ms.push(served.cold_solve_ms);
        if setup_s.len() == SETUP_SAMPLES {
            break served;
        }
        served.stop();
    };
    let run = drive(&mut served, &inputs, seconds, REPRICES_PER_RUN, &mut tally)?;
    served.stop();
    // The median window, so a burst of contention from outside that
    // covers less than half of the run does not move it.
    let throughput = stats::median(&run.window_rates);
    let reprice_ms: Vec<f64> = run.reprices.iter().map(|r| r.total_ms).collect();
    out.metric("setup_s", stats::median(&setup_s));
    out.metric("throughput_per_s", throughput);
    out.metric("latency_p50_ms", stats::median(run.lat.query_ms.as_slice()));
    out.metric("reprice_p50_ms", stats::median(&reprice_ms));
    out.size("rounds", run.lat.frame_ms.as_slice().len());
    if !trace {
        out.tally = tally;
        return Ok(out);
    }

    // Per-layer split of the reprice and the round trips, from the
    // benchmark's own spans around each call.
    let of = |f: fn(&Reprice) -> f64| run.reprices.iter().map(f).collect::<Vec<f64>>();
    let total: f64 = reprice_ms.iter().sum();
    out.metric("core.solve_ms", stats::median(&cold_ms));
    out.metric("core.warm_solve_ms", stats::median(&of(|r| r.solve_ms)));
    out.metric(
        "core.warm_picard_iters",
        stats::median(&of(|r| r.iterations as f64)),
    );
    out.metric("serve.save_ms", stats::median(&of(|r| r.save_ms)));
    out.metric("serve.swap_ms", stats::median(&of(|r| r.swap_ms)));
    out.metric(
        "serve.first_reply_ms",
        stats::median(&of(|r| r.first_reply_ms)),
    );
    out.metric(
        "serve.reprice_solve_share",
        of(|r| r.solve_ms).iter().sum::<f64>() / total,
    );
    out.metric(
        "serve.reprice_save_swap_share",
        of(|r| r.save_ms + r.swap_ms).iter().sum::<f64>() / total,
    );
    out.metric(
        "serve.query_p99_ms",
        stats::tail(run.lat.query_ms.as_slice(), 990),
    );
    out.metric(
        "serve.frame_p50_ms",
        stats::median(run.lat.frame_ms.as_slice()),
    );
    out.metric(
        "serve.frame_p99_ms",
        stats::tail(run.lat.frame_ms.as_slice(), 990),
    );
    let mut open_ms = Vec::new();
    for _ in 0..REPRICES_PER_RUN {
        let start = Instant::now();
        let store = ArtifactStore::open(&path).map_err(|e| e.to_string())?;
        open_ms.push(ms_since(start));
        drop(std::hint::black_box(store));
    }
    out.metric("serve.open_ms", stats::median(&open_ms));

    // Traced window: the same loop against a server recording into
    // memory, without reprices.
    let (recorder, sink) = telemetry::memory_recorder();
    let mut served = Served::start(&path, &inputs, recorder, &mut tally)?;
    let traced = drive(&mut served, &inputs, TRACED_SECONDS, 0, &mut tally)?;
    served.stop();
    let digest = Digest::of(&sink);
    let handle_ms: Vec<f64> = digest
        .gauges("serve.request_nanos")
        .iter()
        .map(|n| n / 1e6)
        .collect();
    out.metric("serve.handle_p50_ms", stats::median(&handle_ms));
    out.metric(
        "serve.worker_threads",
        stats::median(&digest.open_field("serve.server", "threads")),
    );
    out.metric(
        "obs.trace_overhead",
        throughput / stats::median(&traced.window_rates) - 1.0,
    );
    out.size("traced_events", digest.len());
    out.tally = tally;
    Ok(out)
}
