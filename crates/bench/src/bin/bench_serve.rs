//! Policy-server load generator: measures query throughput and latency
//! of the `mfgcp-serve` TCP server across a sweep of concurrent client
//! connections and writes `BENCH_serve.json` at the workspace root.
//!
//! By default the bench solves a small equilibrium and serves it from an
//! in-process [`PolicyServer`] on an ephemeral loopback port, so a bare
//! `cargo run --release -p mfgcp-bench --bin bench_serve` is
//! self-contained. Point it at an already-running `mfgcp serve` instance
//! with `--addr` (CI's serve-smoke job does this so the server's own
//! telemetry stream gets exercised end to end).
//!
//! Each sweep point opens C connections; every connection issues a fixed
//! number of single `(t, h, q)` queries (per-request latency is recorded
//! for the p50/p99 columns) followed by a fixed number of 16-point
//! batched queries (amortizes framing, reported as a separate
//! throughput). The server dedicates one worker to each connection, so C
//! must stay at or below the server's thread count — the in-process
//! server is sized for the sweep automatically, and the CI job passes
//! `--threads` to `mfgcp serve` explicitly.
//!
//! A second sweep drives the slot-batched `EvalSlotBatch` frame: many
//! `(h, q)` pairs share one prepared time slot per frame, so the server
//! interpolates against a single prepared slot instead of re-resolving
//! the time step per point. Its `speedup` column (slot-batched points/s
//! over the same sweep point's `batch16_points_per_sec`) is the gated form of the
//! "slot batching ≥ 5× per-point batch-16 throughput" claim.
//!
//! An artifact-load leg times `ArtifactStore::open` (mmap, O(header))
//! against `ArtifactStore::open_owned` (full-file read) over a
//! synthesized multi-megabyte artifact, reported as `mode="load"` rows
//! keyed by the `map` string. On targets without the mapped path the
//! `map="mmap"` row silently measures the owned fallback.
//!
//! Absolute rates (`*_per_sec`) and latency percentiles (`_us`,
//! microseconds) deliberately avoid `bench_compare`'s gated suffixes:
//! loopback microbenchmarks flap well past any usable tolerance between
//! runs and runners. The gate rides on the `speedup` ratio columns
//! instead — two measurements from the same run on the same machine, so
//! noise largely cancels, while a de-vectorized slot batch or an
//! O(payload) mmap open still collapses the ratio and trips the gate.
//! The absolute numbers stay in the report for eyeballs.
//!
//! An artifact-write leg times the hot-swap path over the solved
//! `Params::default()` equilibrium: `artifact::to_bytes` (encode),
//! `artifact::save` (encode, write, `sync_all`, rename) and
//! `ArtifactStore::open` + `verify_payload` (reported as `verify`),
//! against a plain `memcpy` of the same file image, as one
//! `mode="artifact"` row. Its `_us` columns are informational; its gated
//! `verify_speedup` is the memcpy time over the verify time, the payload
//! CRC's share of memory speed — a byte-at-a-time CRC collapses it about
//! fivefold.
//!
//! A final streaming leg measures the live observer plane end to end: an
//! observed in-process simulation with a wire subscriber drinking every
//! telemetry frame through `mfgcp-ctl`, reported as `stream_frames_qps`
//! (gated) plus the broadcast drop accounting (informational).
//!
//! A control-request leg times 2000 `Ping` round trips over one
//! `mfgcp-ctl` connection (`mode="ctl_ping"`, p50/p99 microseconds,
//! informational like every `_us` column).
//!
//! Flags:
//!
//! * `--quick` — reduced sweep (fewer connections, fewer requests) for CI;
//! * `--addr HOST:PORT` — benchmark an external server instead of the
//!   in-process one;
//! * `--telemetry FILE.jsonl` — stream one `bench.sample` event per sweep
//!   point through the shared `mfgcp-obs` recorder.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfgcp_core::{
    ContentContext, ConvergenceReport, Equilibrium, MeanFieldSnapshot, MfgSolver, Params,
};
use mfgcp_ctl::{CtlClient, CtlReply, CtlRequest, CtlServer};
use mfgcp_obs::json::Json;
use mfgcp_obs::{BroadcastSink, JsonlSink, RecorderHandle};
use mfgcp_pde::Field2d;
use mfgcp_serve::{ArtifactStore, Client, PolicyServer, ServeConfig, ServerHandle};
use mfgcp_sim::{baselines::MostPopularCaching, SimConfig, Simulation};

/// One sweep point: C connections hammering the server.
struct Sample {
    connections: usize,
    requests: usize,
    queries_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    batch16_points_per_sec: f64,
}

struct Load {
    sizes: Vec<usize>,
    queries_per_conn: usize,
    batches_per_conn: usize,
    /// Slot-batched frames issued per connection in the slot sweep.
    slot_frames_per_conn: usize,
    /// `(h, q)` pairs per slot-batched frame. Kept identical between
    /// `--quick` and the full sweep so `bench_compare` matches the rows.
    pairs_per_frame: usize,
    /// Timed repetitions of each artifact-open path in the load leg.
    load_reps: usize,
}

impl Load {
    fn new(quick: bool) -> Self {
        if quick {
            Load {
                sizes: vec![1, 4],
                queries_per_conn: 500,
                batches_per_conn: 100,
                slot_frames_per_conn: 150,
                pairs_per_frame: 256,
                load_reps: 100,
            }
        } else {
            Load {
                sizes: vec![1, 2, 4, 8],
                queries_per_conn: 2_000,
                batches_per_conn: 250,
                slot_frames_per_conn: 400,
                pairs_per_frame: 256,
                load_reps: 200,
            }
        }
    }
}

/// Deterministic query points spread over (and slightly past) the grid:
/// index-hashed so concurrent connections don't all hit one cache line.
fn probe(i: usize, worker: usize) -> (f64, f64, f64) {
    let k = (i.wrapping_mul(2_654_435_761).wrapping_add(worker * 97)) % 1_000;
    let s = k as f64 / 999.0;
    (2.0 * s, 0.5 + 3.0 * s, 1.1 * (1.0 - s))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn measure(addr: &str, connections: usize, load: &Load) -> Sample {
    let start = Instant::now();
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to server");
                    let mut lat = Vec::with_capacity(load.queries_per_conn);
                    for i in 0..load.queries_per_conn {
                        let (t, h, q) = probe(i, worker);
                        let begin = Instant::now();
                        client.query(t, h, q).expect("query");
                        lat.push(begin.elapsed().as_secs_f64() * 1e6);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = per_thread.into_iter().flatten().collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies.len();

    // Batched phase: same connections-worth of parallelism, 16-point frames.
    let batch_start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..connections {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to server");
                for i in 0..load.batches_per_conn {
                    let points: Vec<[f64; 3]> = (0..16)
                        .map(|j| {
                            let (t, h, q) = probe(i * 16 + j, worker);
                            [t, h, q]
                        })
                        .collect();
                    let answers = client.query_batch(&points).expect("batch");
                    assert_eq!(answers.len(), 16);
                    assert!(
                        answers.iter().all(Result::is_ok),
                        "probe points stay inside the served domain"
                    );
                }
            });
        }
    });
    let batch_wall = batch_start.elapsed().as_secs_f64();
    let batch_points = (connections * load.batches_per_conn * 16) as f64;

    Sample {
        connections,
        requests,
        queries_per_sec: requests as f64 / wall,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        batch16_points_per_sec: batch_points / batch_wall,
    }
}

/// One slot-batched sweep point: C connections streaming `EvalSlotBatch`
/// frames of `pairs` points each.
struct SlotSample {
    connections: usize,
    pairs: usize,
    frames: usize,
    slotbatch_points_per_sec: f64,
    frame_p50_us: f64,
    frame_p99_us: f64,
    /// Slot-batched points/s over the same sweep point's `batch16_points_per_sec` —
    /// the gated form of the "slot batching ≥ 5×" acceptance claim.
    speedup: f64,
}

fn measure_slot_batch(
    addr: &str,
    connections: usize,
    load: &Load,
    batch16_points_per_sec: f64,
) -> SlotSample {
    let pairs_per_frame = load.pairs_per_frame;
    let start = Instant::now();
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to server");
                    let mut lat = Vec::with_capacity(load.slot_frames_per_conn);
                    for f in 0..load.slot_frames_per_conn {
                        let (t, _, _) = probe(f, worker);
                        let pairs: Vec<[f64; 2]> = (0..pairs_per_frame)
                            .map(|j| {
                                let (_, h, q) = probe(f * pairs_per_frame + j, worker);
                                [h, q]
                            })
                            .collect();
                        let begin = Instant::now();
                        let eval = client.eval_slot(t, &pairs).expect("slot batch");
                        lat.push(begin.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(eval.xs.len(), pairs_per_frame);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("slot client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = per_thread.into_iter().flatten().collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let frames = latencies.len();
    let points = (frames * pairs_per_frame) as f64;
    let slotbatch_points_per_sec = points / wall;

    SlotSample {
        connections,
        pairs: pairs_per_frame,
        frames,
        slotbatch_points_per_sec,
        frame_p50_us: percentile(&latencies, 0.50),
        frame_p99_us: percentile(&latencies, 0.99),
        speedup: slotbatch_points_per_sec / batch16_points_per_sec,
    }
}

/// One artifact-open timing row: the `map` string keys the path taken.
struct LoadSample {
    map: &'static str,
    nx: usize,
    ny: usize,
    file_bytes: u64,
    open_p50_us: f64,
    open_p99_us: f64,
    /// On the `mmap` row only: owned open p50 over mapped open p50. A
    /// ratio of two same-machine medians, so it is the portable gated
    /// form of the "mapped loads are O(header), not O(payload)" claim —
    /// it collapses toward 1 if the mapped path regresses to a full read.
    speedup: Option<f64>,
}

/// Synthesizes a multi-megabyte (but structurally valid) equilibrium so
/// the load leg measures header-vs-payload cost, not solver time.
fn synthetic_load_artifact() -> Equilibrium {
    let params = Params {
        time_steps: 64,
        grid_h: 32,
        grid_q: 64,
        ..Params::default()
    };
    let grid = params.grid();
    let n = params.time_steps;
    let mut k = 0usize;
    let mut next = || {
        k += 1;
        (k as f64 * 1.0e-3).sin() * 0.5 + 0.5
    };
    let contexts: Vec<ContentContext> = (0..n)
        .map(|_| ContentContext {
            requests: next(),
            popularity: next(),
            urgency_factor: next(),
        })
        .collect();
    let snapshots: Vec<MeanFieldSnapshot> = (0..n)
        .map(|_| MeanFieldSnapshot {
            price: next(),
            q_bar: next(),
            delta_q: next(),
            share_benefit: next(),
            sharer_fraction: next(),
            case3_fraction: next(),
        })
        .collect();
    let mut fields = |count: usize| -> Vec<Field2d> {
        (0..count)
            .map(|_| {
                let values = (0..grid.len()).map(|_| next()).collect();
                Field2d::from_values(grid.clone(), values).expect("grid-sized values")
            })
            .collect()
    };
    let policy = fields(n);
    let density = fields(n + 1);
    let values = fields(n + 1);
    let report = ConvergenceReport {
        converged: true,
        iterations: 2,
        residuals: vec![1.0e-3, 1.0e-4],
        update_norms: vec![1.0e-2, 1.0e-3],
    };
    Equilibrium::from_parts(params, contexts, policy, density, values, snapshots, report)
        .expect("synthetic load artifact is consistent")
}

/// Times `ArtifactStore::open` (mapped) against `open_owned` (full read)
/// over `load.load_reps` repetitions each.
fn measure_load(load: &Load) -> Vec<LoadSample> {
    let eq = synthetic_load_artifact();
    let (nx, ny) = (eq.params.grid_h, eq.params.grid_q);
    let path = std::env::temp_dir().join(format!("bench_serve_load_{}.eq", std::process::id()));
    mfgcp_serve::save(&eq, &path).expect("save load-leg artifact");
    let file_bytes = std::fs::metadata(&path)
        .expect("stat load-leg artifact")
        .len();

    let time_open = |open: &dyn Fn() -> ArtifactStore, map: &'static str| {
        let mut lat = Vec::with_capacity(load.load_reps);
        for _ in 0..load.load_reps {
            let begin = Instant::now();
            let store = open();
            lat.push(begin.elapsed().as_secs_f64() * 1e6);
            // Touch the store so the open cannot be optimized away.
            std::hint::black_box(store.header().fingerprint);
        }
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        LoadSample {
            map,
            nx,
            ny,
            file_bytes,
            open_p50_us: percentile(&lat, 0.50),
            open_p99_us: percentile(&lat, 0.99),
            speedup: None,
        }
    };
    let mut mapped = time_open(&|| ArtifactStore::open(&path).expect("mapped open"), "mmap");
    let owned = time_open(
        &|| ArtifactStore::open_owned(&path).expect("owned open"),
        "owned",
    );
    mapped.speedup = Some(owned.open_p50_us / mapped.open_p50_us);
    let _ = std::fs::remove_file(&path);
    vec![mapped, owned]
}

/// The artifact-write leg's row: the hot-swap path's costs over one
/// artifact, each the median of `load.load_reps` runs.
struct ArtifactSample {
    nx: usize,
    ny: usize,
    file_bytes: usize,
    encode_p50_us: f64,
    save_p50_us: f64,
    verify_p50_us: f64,
    memcpy_p50_us: f64,
    /// Memcpy p50 over verify p50: how close the payload check runs to
    /// memory speed. Gated, since a ratio of two same-run medians
    /// travels between machines where the absolute times do not.
    verify_speedup: f64,
}

/// Median of `reps` timed runs of `f`, in microseconds.
fn p50_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut lat: Vec<f64> = (0..reps)
        .map(|_| {
            let begin = Instant::now();
            f();
            begin.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    percentile(&lat, 0.50)
}

/// Times the write and verify halves of a hot swap over the solved
/// `Params::default()` equilibrium, the artifact a served reprice writes.
fn measure_artifact(load: &Load) -> ArtifactSample {
    let eq = MfgSolver::new(Params::default())
        .expect("valid params")
        .solve()
        .expect("default params converge");
    let path = std::env::temp_dir().join(format!("bench_serve_artifact_{}.eq", std::process::id()));
    let image = mfgcp_serve::artifact::to_bytes(&eq, &mfgcp_serve::build_info());
    let mut copy = vec![0u8; image.len()];
    let reps = load.load_reps;

    let encode_p50_us = p50_us(reps, || {
        let bytes = mfgcp_serve::artifact::to_bytes(&eq, "bench");
        std::hint::black_box(bytes);
    });
    let save_p50_us = p50_us(reps, || {
        mfgcp_serve::save(&eq, &path).expect("save artifact-leg artifact");
    });
    let verify_p50_us = p50_us(reps, || {
        let store = ArtifactStore::open(&path).expect("open artifact-leg artifact");
        store
            .verify_payload()
            .expect("artifact-leg payload verifies");
    });
    let memcpy_p50_us = p50_us(reps, || {
        copy.copy_from_slice(std::hint::black_box(&image));
        std::hint::black_box(&copy);
    });
    let _ = std::fs::remove_file(&path);
    ArtifactSample {
        nx: eq.params.grid_h,
        ny: eq.params.grid_q,
        file_bytes: image.len(),
        encode_p50_us,
        save_p50_us,
        verify_p50_us,
        memcpy_p50_us,
        verify_speedup: memcpy_p50_us / verify_p50_us,
    }
}

/// The streaming leg's measurements: an observed simulation with one
/// wire subscriber pulling every telemetry frame.
struct StreamSample {
    slots: usize,
    frames: u64,
    stream_frames_qps: f64,
    enqueued: u64,
    dropped: u64,
}

/// Run an observed in-process simulation and drink its full telemetry
/// stream over TCP through `mfgcp-ctl`, measuring delivered frames per
/// wall second and the broadcast sink's drop accounting.
fn measure_stream(quick: bool) -> StreamSample {
    let mut cfg = SimConfig::small();
    cfg.epochs = if quick { 2 } else { 4 };
    cfg.slots_per_epoch = if quick { 40 } else { 100 };
    let slots = cfg.epochs * cfg.slots_per_epoch;

    let sink = Arc::new(BroadcastSink::new());
    // Hold before slot 0 so the subscriber attaches before any frame is
    // published; every frame is then deliverable, drops measure only
    // queue pressure.
    let server = CtlServer::spawn("127.0.0.1:0", cfg.params.clone(), Arc::clone(&sink), true)
        .expect("bind stream-leg control server");
    let addr = server.local_addr().to_string();

    let mut sim = Simulation::new(cfg, Box::new(MostPopularCaching::default()))
        .expect("stream-leg simulation");
    sim.set_recorder(RecorderHandle::new(Arc::clone(&sink)));
    sim.set_control(Arc::clone(server.plane()) as Arc<dyn mfgcp_sim::EngineControl>);
    let sim_thread = std::thread::spawn(move || sim.run());

    let timeout = Duration::from_secs(30);
    let mut client = CtlClient::connect(&addr).expect("connect stream subscriber");
    client
        .request_json(
            &CtlRequest::Subscribe {
                capacity: 65_536,
                filters: Vec::new(), // everything the run emits
            },
            timeout,
        )
        .expect("subscribe");
    let start = Instant::now();
    client
        .request_json(&CtlRequest::Resume, timeout)
        .expect("resume");

    let mut frames = 0u64;
    loop {
        if client.poll_event(Duration::from_millis(50)).is_some() {
            frames += 1;
            continue;
        }
        let status = client
            .request_json(&CtlRequest::Status, timeout)
            .expect("status");
        if status.get("finished").and_then(Json::as_bool) == Some(true) && client.is_drained() {
            // One final sweep for frames that raced the status reply.
            while client.poll_event(Duration::from_millis(50)).is_some() {
                frames += 1;
            }
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let status = client
        .request_json(&CtlRequest::Status, timeout)
        .expect("final status");
    let enqueued = status
        .get("frames_enqueued")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let dropped = status
        .get("frames_dropped")
        .and_then(Json::as_u64)
        .unwrap_or(0);

    let _ = client.request(&CtlRequest::Detach, timeout);
    sim_thread.join().expect("stream-leg simulation thread");
    server.shutdown();

    StreamSample {
        slots,
        frames,
        stream_frames_qps: frames as f64 / wall,
        enqueued,
        dropped,
    }
}

/// Control-plane round trips timed in the `ctl_ping` leg.
const CTL_PINGS: usize = 2_000;

/// The control-request leg: `Ping` round-trip latency over one
/// connection.
struct CtlSample {
    requests: usize,
    p50_us: f64,
    p99_us: f64,
}

/// Time `CTL_PINGS` `Ping` round trips through `CtlClient` against an
/// in-process `CtlServer` with no simulation attached.
fn measure_ctl_ping() -> CtlSample {
    let params = SimConfig::small().params;
    let server = CtlServer::spawn("127.0.0.1:0", params, Arc::new(BroadcastSink::new()), false)
        .expect("bind ping-leg control server");
    let mut client =
        CtlClient::connect(&server.local_addr().to_string()).expect("connect ping client");
    let timeout = Duration::from_secs(10);
    let mut lat = Vec::with_capacity(CTL_PINGS);
    for _ in 0..CTL_PINGS {
        let begin = Instant::now();
        let reply = client.request(&CtlRequest::Ping, timeout).expect("ping");
        lat.push(begin.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(reply, CtlReply::Pong),
            "unexpected reply {reply:?}"
        );
    }
    drop(client);
    server.shutdown();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    CtlSample {
        requests: lat.len(),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

/// Solve a small equilibrium and serve it in-process, sized so every
/// sweep point gets a dedicated worker per connection.
fn start_local_server(max_connections: usize) -> ServerHandle {
    let params = Params {
        time_steps: 12,
        grid_h: 8,
        grid_q: 24,
        ..Params::default()
    };
    let eq = MfgSolver::new(params)
        .expect("valid params")
        .solve()
        .expect("bench solve converges");
    let config = ServeConfig {
        threads: max_connections + 2,
        ..ServeConfig::default()
    };
    PolicyServer::start("127.0.0.1:0", Arc::new(eq), config, RecorderHandle::noop())
        .expect("bind loopback")
}

/// Hand-rolled flag parsing: `--quick`, `--addr HOST:PORT`,
/// `--telemetry FILE`.
fn parse_args() -> (bool, Option<String>, RecorderHandle) {
    let mut quick = false;
    let mut addr = None;
    let mut recorder = RecorderHandle::noop();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--addr" => addr = Some(it.next().expect("--addr needs HOST:PORT")),
            "--telemetry" => {
                let path = it.next().expect("--telemetry needs a file path");
                let sink = JsonlSink::create(&path)
                    .unwrap_or_else(|e| panic!("cannot create telemetry file `{path}`: {e}"));
                recorder = RecorderHandle::new(std::sync::Arc::new(sink));
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (supported: --quick --addr HOST:PORT --telemetry FILE.jsonl)"
                );
                std::process::exit(2);
            }
        }
    }
    (quick, addr, recorder)
}

fn main() {
    let (quick, addr, recorder) = parse_args();
    let load = Load::new(quick);
    let max_connections = *load.sizes.iter().max().expect("non-empty sweep");

    let (addr, local) = match addr {
        Some(a) => (a, None),
        None => {
            let handle = start_local_server(max_connections);
            (handle.local_addr().to_string(), Some(handle))
        }
    };
    eprintln!(
        "bench_serve: target {addr}, sweep {:?}, {} queries + {}x16 batched per connection",
        load.sizes, load.queries_per_conn, load.batches_per_conn
    );

    let samples: Vec<Sample> = load
        .sizes
        .iter()
        .map(|&c| {
            let s = measure(&addr, c, &load);
            recorder.event(
                "bench.sample",
                &[
                    ("mode", "per_point".into()),
                    ("connections", s.connections.into()),
                    ("requests", s.requests.into()),
                    ("queries_per_sec", s.queries_per_sec.into()),
                    ("p50_us", s.p50_us.into()),
                    ("p99_us", s.p99_us.into()),
                    ("batch16_points_per_sec", s.batch16_points_per_sec.into()),
                ],
            );
            s
        })
        .collect();

    // Slot-batched sweep against the same server: one prepared time slot
    // per frame, many (h, q) pairs evaluated against it.
    eprintln!(
        "bench_serve: slot-batched sweep, {} frames of {} pairs per connection",
        load.slot_frames_per_conn, load.pairs_per_frame
    );
    let slot_samples: Vec<SlotSample> = load
        .sizes
        .iter()
        .zip(&samples)
        .map(|(&c, per_point)| {
            let s = measure_slot_batch(&addr, c, &load, per_point.batch16_points_per_sec);
            recorder.event(
                "bench.sample",
                &[
                    ("mode", "slot_batch".into()),
                    ("connections", s.connections.into()),
                    ("pairs", s.pairs.into()),
                    ("frames", s.frames.into()),
                    (
                        "slotbatch_points_per_sec",
                        s.slotbatch_points_per_sec.into(),
                    ),
                    ("frame_p50_us", s.frame_p50_us.into()),
                    ("frame_p99_us", s.frame_p99_us.into()),
                    ("speedup", s.speedup.into()),
                ],
            );
            s
        })
        .collect();
    for s in &slot_samples {
        if s.speedup < 5.0 {
            eprintln!(
                "WARNING: slot batching at {} connection(s) is only {:.1}x the batch-16 \
                 per-point throughput (acceptance floor is 5x)",
                s.connections, s.speedup
            );
        }
    }

    if let Some(handle) = local {
        let mut client = Client::connect(&addr).expect("connect for shutdown");
        client.shutdown_server().expect("shutdown local server");
        handle.join();
    }

    // Artifact-open leg: always in-process (it owns its artifact file).
    eprintln!(
        "bench_serve: artifact-open leg, {} reps per path",
        load.load_reps
    );
    let load_samples = measure_load(&load);
    for s in &load_samples {
        let mut fields = vec![
            ("mode", "load".into()),
            ("map", s.map.into()),
            ("nx", s.nx.into()),
            ("ny", s.ny.into()),
            ("file_bytes", s.file_bytes.into()),
            ("open_p50_us", s.open_p50_us.into()),
            ("open_p99_us", s.open_p99_us.into()),
        ];
        if let Some(speedup) = s.speedup {
            fields.push(("speedup", speedup.into()));
        }
        recorder.event("bench.sample", &fields);
    }

    // Artifact-write leg: always in-process (it owns its artifact file).
    eprintln!(
        "bench_serve: artifact-write leg, {} reps per step",
        load.load_reps
    );
    let art = measure_artifact(&load);
    recorder.event(
        "bench.sample",
        &[
            ("mode", "artifact".into()),
            ("nx", art.nx.into()),
            ("ny", art.ny.into()),
            ("file_bytes", art.file_bytes.into()),
            ("encode_p50_us", art.encode_p50_us.into()),
            ("save_p50_us", art.save_p50_us.into()),
            ("verify_p50_us", art.verify_p50_us.into()),
            ("memcpy_p50_us", art.memcpy_p50_us.into()),
            ("verify_speedup", art.verify_speedup.into()),
        ],
    );

    // Streaming leg: always in-process (it owns its simulation).
    eprintln!("bench_serve: streaming leg (observed simulation, one wire subscriber)");
    let stream = measure_stream(quick);
    recorder.event(
        "bench.sample",
        &[
            ("mode", "stream".into()),
            ("slots", stream.slots.into()),
            ("frames", stream.frames.into()),
            ("stream_frames_qps", stream.stream_frames_qps.into()),
            ("frames_enqueued", stream.enqueued.into()),
            ("frames_dropped", stream.dropped.into()),
        ],
    );

    // Control-request leg: always in-process (it owns its server).
    eprintln!("bench_serve: control-plane ping leg, {CTL_PINGS} round trips");
    let ctl = measure_ctl_ping();
    recorder.event(
        "bench.sample",
        &[
            ("mode", "ctl_ping".into()),
            ("connections", 1usize.into()),
            ("requests", ctl.requests.into()),
            ("p50_us", ctl.p50_us.into()),
            ("p99_us", ctl.p99_us.into()),
        ],
    );

    // Same single JSON-emitting path as every other BENCH_* report.
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("serve".into())),
        (
            "unit_note".into(),
            Json::Str(
                "latency percentile columns (_us) are microseconds, informational \
                 only; batch16 amortizes framing over 16-point frames; slot_batch \
                 rows share one prepared time slot per frame and their speedup \
                 column is points/s over batch16_points_per_sec; load rows time ArtifactStore \
                 opens; the artifact row times the hot-swap write and verify and its \
                 verify_speedup is memcpy time over verify time"
                    .into(),
            ),
        ),
        ("quick".into(), Json::Bool(quick)),
        (
            "samples".into(),
            // Every sample carries a `mode` string so bench_compare keys
            // each sweep's rows separately (plus `connections`/`pairs`/
            // `nx`/`ny`/`map` within a sweep).
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("mode".into(), Json::Str("per_point".into())),
                            ("connections".into(), Json::Num(s.connections as f64)),
                            ("requests".into(), Json::Num(s.requests as f64)),
                            ("queries_per_sec".into(), Json::Num(s.queries_per_sec)),
                            ("p50_us".into(), Json::Num(s.p50_us)),
                            ("p99_us".into(), Json::Num(s.p99_us)),
                            (
                                "batch16_points_per_sec".into(),
                                Json::Num(s.batch16_points_per_sec),
                            ),
                        ])
                    })
                    .chain(slot_samples.iter().map(|s| {
                        Json::Obj(vec![
                            ("mode".into(), Json::Str("slot_batch".into())),
                            ("connections".into(), Json::Num(s.connections as f64)),
                            ("pairs".into(), Json::Num(s.pairs as f64)),
                            ("frames".into(), Json::Num(s.frames as f64)),
                            (
                                "slotbatch_points_per_sec".into(),
                                Json::Num(s.slotbatch_points_per_sec),
                            ),
                            ("frame_p50_us".into(), Json::Num(s.frame_p50_us)),
                            ("frame_p99_us".into(), Json::Num(s.frame_p99_us)),
                            ("speedup".into(), Json::Num(s.speedup)),
                        ])
                    }))
                    .chain(load_samples.iter().map(|s| {
                        let mut row = vec![
                            ("mode".into(), Json::Str("load".into())),
                            ("map".into(), Json::Str(s.map.into())),
                            ("nx".into(), Json::Num(s.nx as f64)),
                            ("ny".into(), Json::Num(s.ny as f64)),
                            ("file_bytes".into(), Json::Num(s.file_bytes as f64)),
                            ("open_p50_us".into(), Json::Num(s.open_p50_us)),
                            ("open_p99_us".into(), Json::Num(s.open_p99_us)),
                        ];
                        if let Some(speedup) = s.speedup {
                            row.push(("speedup".into(), Json::Num(speedup)));
                        }
                        Json::Obj(row)
                    }))
                    .chain(std::iter::once(Json::Obj(vec![
                        ("mode".into(), Json::Str("artifact".into())),
                        ("nx".into(), Json::Num(art.nx as f64)),
                        ("ny".into(), Json::Num(art.ny as f64)),
                        ("file_bytes".into(), Json::Num(art.file_bytes as f64)),
                        ("encode_p50_us".into(), Json::Num(art.encode_p50_us)),
                        ("save_p50_us".into(), Json::Num(art.save_p50_us)),
                        ("verify_p50_us".into(), Json::Num(art.verify_p50_us)),
                        ("memcpy_p50_us".into(), Json::Num(art.memcpy_p50_us)),
                        ("verify_speedup".into(), Json::Num(art.verify_speedup)),
                    ])))
                    .chain(std::iter::once(Json::Obj(vec![
                        ("mode".into(), Json::Str("stream".into())),
                        ("slots".into(), Json::Num(stream.slots as f64)),
                        ("frames".into(), Json::Num(stream.frames as f64)),
                        (
                            "stream_frames_qps".into(),
                            Json::Num(stream.stream_frames_qps),
                        ),
                        ("frames_enqueued".into(), Json::Num(stream.enqueued as f64)),
                        ("frames_dropped".into(), Json::Num(stream.dropped as f64)),
                    ])))
                    .chain(std::iter::once(Json::Obj(vec![
                        ("mode".into(), Json::Str("ctl_ping".into())),
                        ("connections".into(), Json::Num(1.0)),
                        ("requests".into(), Json::Num(ctl.requests as f64)),
                        ("p50_us".into(), Json::Num(ctl.p50_us)),
                        ("p99_us".into(), Json::Num(ctl.p99_us)),
                    ])))
                    .collect(),
            ),
        ),
    ]);
    let mut json = report.to_json_string();
    json.push('\n');

    let mut f = std::fs::File::create("BENCH_serve.json").expect("create BENCH_serve.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_serve.json");

    println!("{json}");
    println!("connections, queries_per_sec, p50_us, p99_us, batch16_points_per_sec");
    for s in &samples {
        println!(
            "{}, {:.0}, {:.1}, {:.1}, {:.0}",
            s.connections, s.queries_per_sec, s.p50_us, s.p99_us, s.batch16_points_per_sec
        );
    }
    println!("connections, pairs, slotbatch_points_per_sec, frame_p50_us, frame_p99_us, speedup_vs_batch16");
    for s in &slot_samples {
        println!(
            "{}, {}, {:.0}, {:.1}, {:.1}, {:.1}x",
            s.connections,
            s.pairs,
            s.slotbatch_points_per_sec,
            s.frame_p50_us,
            s.frame_p99_us,
            s.speedup
        );
    }
    for s in &load_samples {
        let ratio = s
            .speedup
            .map(|x| format!(", {x:.1}x over owned"))
            .unwrap_or_default();
        println!(
            "open[{}]: p50 {:.1} us, p99 {:.1} us over a {} byte artifact{ratio}",
            s.map, s.open_p50_us, s.open_p99_us, s.file_bytes
        );
    }
    println!(
        "artifact[{}x{}, {} B]: encode {:.0} us, save {:.0} us, open+verify {:.0} us, \
         memcpy {:.0} us ({:.3}x of memcpy speed)",
        art.nx,
        art.ny,
        art.file_bytes,
        art.encode_p50_us,
        art.save_p50_us,
        art.verify_p50_us,
        art.memcpy_p50_us,
        art.verify_speedup
    );
    println!(
        "stream: {} frames over {} slots, {:.0} frames/s, {} enqueued / {} dropped at the sink",
        stream.frames, stream.slots, stream.stream_frames_qps, stream.enqueued, stream.dropped
    );
    println!(
        "ctl_ping: {} round trips, p50 {:.1} us, p99 {:.1} us",
        ctl.requests, ctl.p50_us, ctl.p99_us
    );
    recorder.flush();
    eprintln!("wrote BENCH_serve.json");
}
