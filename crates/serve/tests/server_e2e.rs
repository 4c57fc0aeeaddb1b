//! End-to-end policy server tests over real loopback sockets: served
//! answers must equal in-process interpolation to 0 ULP, malformed and
//! hostile frames must earn typed errors without killing the server, and
//! shutdown must be graceful and observable in telemetry.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use common::tiny_params;
use mfgcp_core::{Equilibrium, MfgSolver, Params};
use mfgcp_obs::{Kind, MemorySink, RecorderHandle};
use mfgcp_serve::protocol::read_frame;
use mfgcp_serve::{Client, ErrorCode, PolicyServer, Reply, ServeConfig, MAX_FRAME_LEN};

/// A small but *real* solved equilibrium, shared across tests (the solve
/// is the expensive part; the server is cheap).
fn solved_equilibrium() -> Arc<Equilibrium> {
    static EQ: OnceLock<Arc<Equilibrium>> = OnceLock::new();
    Arc::clone(EQ.get_or_init(|| {
        let params = Params {
            time_steps: 8,
            grid_h: 6,
            grid_q: 12,
            max_iterations: 40,
            ..Params::default()
        };
        let solver = MfgSolver::new(params).expect("valid params");
        Arc::new(solver.solve().expect("tiny solve converges"))
    }))
}

fn start_server(eq: Arc<Equilibrium>, config: ServeConfig) -> mfgcp_serve::ServerHandle {
    PolicyServer::start("127.0.0.1:0", eq, config, RecorderHandle::noop()).expect("bind loopback")
}

#[test]
fn served_queries_equal_in_process_interpolation_to_0_ulp() {
    let eq = solved_equilibrium();
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // On-grid, off-grid, boundary, clamped-outside and non-finite probes.
    let t_hi = eq.params.t_horizon;
    let probes = [
        (0.0, eq.params.h_min, 0.0),
        (t_hi * 0.37, 1.1, 0.42),
        (t_hi, eq.params.h_max, eq.params.q_size),
        (t_hi * 2.0, eq.params.h_max + 1.0, -0.5),
        (t_hi * 0.5, f64::NAN, 0.3),
    ];
    for (t, h, q) in probes {
        let served = client.query(t, h, q).expect("query");
        assert_eq!(
            served.x.to_bits(),
            eq.policy_at(t, h, q).to_bits(),
            "x at {t} {h} {q}"
        );
        assert_eq!(
            served.price.to_bits(),
            eq.price_at(t).to_bits(),
            "price at {t}"
        );
        assert_eq!(
            served.q_bar.to_bits(),
            eq.q_bar_at(t).to_bits(),
            "q_bar at {t}"
        );
    }

    // Batched path answers in order and hits the same code path.
    let batch: Vec<[f64; 3]> = (0..64)
        .map(|i| {
            let s = i as f64 / 63.0;
            [t_hi * s, eq.params.h_min + 3.0 * s, s]
        })
        .collect();
    let answers = client.query_batch(&batch).expect("batch");
    assert_eq!(answers.len(), batch.len());
    for (point, served) in batch.iter().zip(&answers) {
        let [t, h, q] = *point;
        let served = served.as_ref().expect("finite point is answered");
        assert_eq!(served.x.to_bits(), eq.policy_at(t, h, q).to_bits());
        assert_eq!(served.price.to_bits(), eq.price_at(t).to_bits());
        assert_eq!(served.q_bar.to_bits(), eq.q_bar_at(t).to_bits());
    }

    let info = client.info().expect("info");
    assert_eq!(info.fingerprint, eq.params.fingerprint());
    assert_eq!(info.time_steps, eq.params.time_steps as u64);
    assert_eq!(info.generation, 1, "no swap has happened yet");
    assert!(info.build_info.starts_with("mfgcp "));

    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn malformed_frames_earn_typed_errors_and_the_server_survives() {
    let eq = Arc::new(common::synthetic_equilibrium(
        tiny_params(),
        &[0.5, 1.5, -0.5],
    ));
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());
    let addr = handle.local_addr();
    // Unknown opcode: typed error, connection stays usable.
    let mut client = Client::connect(addr).expect("connect");
    client.send_raw(&[0x55]).expect("send");
    match client
        .read_raw()
        .expect("reply")
        .as_deref()
        .map(Reply::decode)
    {
        Some(Ok(Reply::Error {
            code: ErrorCode::UnknownOpcode,
            ..
        })) => {}
        other => panic!("expected UnknownOpcode error, got {other:?}"),
    }
    client
        .ping()
        .expect("connection survives an unknown opcode");

    // Truncated query body: typed error, still usable.
    client.send_raw(&[0x01, 0, 0, 0]).expect("send");
    match client
        .read_raw()
        .expect("reply")
        .as_deref()
        .map(Reply::decode)
    {
        Some(Ok(Reply::Error {
            code: ErrorCode::Malformed,
            ..
        })) => {}
        other => panic!("expected Malformed error, got {other:?}"),
    }
    client.ping().expect("connection survives a short body");

    // Empty payload frame: typed error.
    client.send_raw(&[]).expect("send");
    match client
        .read_raw()
        .expect("reply")
        .as_deref()
        .map(Reply::decode)
    {
        Some(Ok(Reply::Error {
            code: ErrorCode::Malformed,
            ..
        })) => {}
        other => panic!("expected Malformed error, got {other:?}"),
    }

    // Over-long batch declaration: typed error.
    let mut payload = vec![0x02];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    client.send_raw(&payload).expect("send");
    match client
        .read_raw()
        .expect("reply")
        .as_deref()
        .map(Reply::decode)
    {
        Some(Ok(Reply::Error {
            code: ErrorCode::BatchTooLarge,
            ..
        })) => {}
        other => panic!("expected BatchTooLarge error, got {other:?}"),
    }
    // Oversized length prefix: typed error reply, then the server closes
    // the (desynchronized) connection.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&u32::MAX.to_le_bytes())
        .expect("hostile prefix");
    raw.flush().expect("flush");
    let payload = read_frame(&mut raw, MAX_FRAME_LEN)
        .expect("error reply")
        .expect("frame");
    match Reply::decode(&payload) {
        Ok(Reply::Error {
            code: ErrorCode::FrameTooLong,
            ..
        }) => {}
        other => panic!("expected FrameTooLong error, got {other:?}"),
    }
    assert!(
        read_frame(&mut raw, MAX_FRAME_LEN).expect("eof").is_none(),
        "server should close after an oversized prefix"
    );
    // A client that dies mid-frame only costs its own connection.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&100_u32.to_le_bytes()).expect("prefix");
    raw.write_all(&[0x01; 10]).expect("partial payload");
    drop(raw);

    // After all that abuse, fresh connections still get real answers.
    let mut fresh = Client::connect(addr).expect("connect fresh");
    let served = fresh.query(0.1, 1.0, 0.5).expect("query after abuse");
    assert_eq!(served.x.to_bits(), eq.policy_at(0.1, 1.0, 0.5).to_bits());

    fresh.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn idle_connections_are_reaped_by_the_read_timeout() {
    let eq = Arc::new(common::synthetic_equilibrium(tiny_params(), &[1.0, 2.0]));
    let config = ServeConfig {
        read_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let handle = start_server(Arc::clone(&eq), config);

    // Connect, say nothing: the server must hang up on its own.
    let mut idle = TcpStream::connect(handle.local_addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert!(
        read_frame(&mut idle, MAX_FRAME_LEN)
            .expect("clean close")
            .is_none(),
        "idle connection should be closed by the server"
    );

    // And the freed worker is back in rotation.
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.ping().expect("ping after reap");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn graceful_shutdown_drains_and_closes_the_listener() {
    let eq = Arc::new(common::synthetic_equilibrium(tiny_params(), &[0.25]));
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    client.shutdown_server().expect("shutdown ack");
    handle.join();

    // Once join returns, the listener is gone: a new connection must be
    // refused (or immediately closed, depending on backlog timing).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.ping().is_err(), "server answered after shutdown");
        }
    }
}

/// Regression: shutdown must *drain* in-flight replies, not cut them.
/// A client pipelines several near-maximum batch requests without
/// reading, so the server is blocked mid-`write_all` with full socket
/// buffers when shutdown fires. The old registry called
/// `Shutdown::Both` on every connection unconditionally, truncating the
/// reply being written; with the drain-aware registry the client must
/// see only complete frames followed by a clean EOF.
#[test]
fn shutdown_drains_in_flight_replies_instead_of_truncating() {
    use mfgcp_serve::Request;

    let eq = Arc::new(common::synthetic_equilibrium(tiny_params(), &[0.5, 1.5]));
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());
    let addr = handle.local_addr();

    // ~960 KB per request and per reply; 12 pipelined requests exceed
    // any realistic loopback buffering in both directions, so the server
    // is blocked writing a reply while shutdown races it.
    const POINTS: usize = 40_000;
    const PIPELINED: usize = 12;
    let batch: Vec<[f64; 3]> = (0..POINTS)
        .map(|i| {
            let s = i as f64 / (POINTS - 1) as f64;
            [s, 1.0 + s, 0.5 * s]
        })
        .collect();
    let payload = Request::QueryBatch(batch).encode().unwrap();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = stream.try_clone().expect("clone for reading");
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        for _ in 0..PIPELINED {
            // Writes start failing once the drain closes the socket;
            // that is expected — stop pushing.
            if mfgcp_serve::protocol::write_frame(&mut stream, &payload).is_err() {
                break;
            }
        }
    });

    // Give the server time to read the first request and wedge itself
    // mid-reply against the full socket buffers, then shut down.
    std::thread::sleep(Duration::from_millis(300));
    handle.shutdown();

    // Drain the replies: every frame must be complete, then clean EOF.
    let mut complete = 0usize;
    loop {
        match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(frame)) => {
                match Reply::decode(&frame).expect("decodable reply") {
                    Reply::PolicyBatch(points) => assert_eq!(points.len(), POINTS),
                    other => panic!("unexpected reply kind: {other:?}"),
                }
                complete += 1;
            }
            Ok(None) => break, // clean EOF: the drain finished
            Err(e) => panic!("client saw a broken frame after shutdown: {e}"),
        }
    }
    assert!(
        complete >= 1,
        "the in-flight reply should have been flushed before the close"
    );
    assert!(complete <= PIPELINED);

    writer.join().expect("writer thread");
    handle.join();
}

#[test]
fn telemetry_emits_one_server_span_and_per_request_counters() {
    let eq = Arc::new(common::synthetic_equilibrium(tiny_params(), &[0.5, -1.5]));
    let sink = Arc::new(MemorySink::new());
    let recorder = RecorderHandle::new(Arc::clone(&sink));
    let handle = PolicyServer::start(
        "127.0.0.1:0",
        Arc::clone(&eq),
        ServeConfig::default(),
        recorder,
    )
    .expect("bind");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.query(0.1, 1.0, 0.2).expect("query");
    client
        .query_batch(&[[0.0, 1.0, 0.1], [0.2, 1.2, 0.3]])
        .expect("batch");
    client.send_raw(&[0x55]).expect("malformed");
    let _ = client.read_raw().expect("error reply");
    client.shutdown_server().expect("shutdown");
    handle.join();

    let events = sink.events();
    let opens: Vec<_> = events
        .iter()
        .filter(|e| e.kind == Kind::SpanOpen && e.name == "serve.server")
        .collect();
    let closes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == Kind::SpanClose && e.name == "serve.server")
        .collect();
    assert_eq!(opens.len(), 1, "exactly one server span open");
    assert_eq!(closes.len(), 1, "exactly one server span close");
    assert!(
        opens[0].fields.iter().any(|(k, _)| *k == "build_info"),
        "span open carries build info"
    );
    assert!(
        closes[0].fields.iter().any(|(k, _)| *k == "requests_total"),
        "span close carries totals"
    );

    let requests: Vec<_> = events
        .iter()
        .filter(|e| e.kind == Kind::Counter && e.name == "serve.request")
        .collect();
    // query + batch + malformed + shutdown = 4 request counters.
    assert_eq!(requests.len(), 4, "one counter per request");
    for r in &requests {
        assert!(r.span.is_none(), "counters must not carry span linkage");
        assert!(r.fields.iter().any(|(k, _)| *k == "op"));
    }
    let gauges = events
        .iter()
        .filter(|e| e.kind == Kind::Gauge && e.name == "serve.request_nanos")
        .count();
    assert_eq!(gauges, 4, "one latency gauge per request");
}

/// Regression: one bad point used to fail the whole batch. Now every
/// well-formed point is answered and each rejected point carries its
/// own typed code in its slot.
#[test]
fn a_bad_point_no_longer_fails_the_whole_batch() {
    let eq = solved_equilibrium();
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let points = [
        [0.1, 1.0, 0.5],
        [0.2, f64::NAN, 0.3],
        [0.3, 1.2, 0.1],
        [f64::INFINITY, 1.1, 0.2],
        [0.4, 1.3, 0.6],
    ];
    let answers = client.query_batch(&points).expect("mixed batch succeeds");
    assert_eq!(answers.len(), points.len());
    for (i, (point, answer)) in points.iter().zip(&answers).enumerate() {
        let [t, h, q] = *point;
        if point.iter().all(|v| v.is_finite()) {
            let served = answer.as_ref().unwrap_or_else(|c| {
                panic!("finite point {i} rejected with {c:?}");
            });
            assert_eq!(served.x.to_bits(), eq.policy_at(t, h, q).to_bits());
            assert_eq!(served.price.to_bits(), eq.price_at(t).to_bits());
            assert_eq!(served.q_bar.to_bits(), eq.q_bar_at(t).to_bits());
        } else {
            assert_eq!(
                *answer,
                Err(ErrorCode::PointOutOfDomain),
                "non-finite point {i} must carry its own code"
            );
        }
    }

    // An all-finite batch still takes the compact reply path.
    let clean = client
        .query_batch(&[[0.1, 1.0, 0.5], [0.3, 1.2, 0.1]])
        .expect("clean batch");
    assert!(clean.iter().all(|a| a.is_ok()));

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// The slot-batched evaluation path must equal the per-point path to
/// 0 ULP over a real socket — including NaN/±∞ pair coordinates, which
/// flow through interpolation exactly as `Query` lets them.
#[test]
fn slot_batched_evaluation_matches_per_point_queries_to_0_ulp() {
    let eq = solved_equilibrium();
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let t_hi = eq.params.t_horizon;
    let pairs: Vec<[f64; 2]> = (0..97)
        .map(|i| {
            let s = i as f64 / 96.0;
            [eq.params.h_min + 3.5 * s, 0.8 * s]
        })
        .chain([
            [f64::NAN, 0.3],
            [1.0, f64::INFINITY],
            [f64::NEG_INFINITY, f64::NAN],
            [eq.params.h_max + 10.0, -5.0],
        ])
        .collect();
    for t in [0.0, t_hi * 0.23, t_hi * 0.77, t_hi, t_hi * 3.0, -1.0] {
        let slot = client.eval_slot(t, &pairs).expect("slot batch");
        assert_eq!(slot.xs.len(), pairs.len());
        assert_eq!(slot.price.to_bits(), eq.price_at(t).to_bits());
        assert_eq!(slot.q_bar.to_bits(), eq.q_bar_at(t).to_bits());
        for (pair, x) in pairs.iter().zip(&slot.xs) {
            let [h, q] = *pair;
            // Against the in-process equilibrium…
            assert_eq!(
                x.to_bits(),
                eq.policy_at(t, h, q).to_bits(),
                "slot eval at {t} {h} {q}"
            );
            // …and against the served per-point path.
            let point = client.query(t, h, q).expect("per-point query");
            assert_eq!(x.to_bits(), point.x.to_bits());
        }
    }

    // An empty pair list still answers the slot's shared values.
    let slot = client.eval_slot(0.1, &[]).expect("empty slot batch");
    assert!(slot.xs.is_empty());
    assert_eq!(slot.price.to_bits(), eq.price_at(0.1).to_bits());

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Regression: the per-connection read timeout used to treat a slow
/// multi-frame batch body like an idle socket — any inter-chunk gap
/// longer than the idle timeout killed the connection mid-frame. The
/// per-frame deadline (idle timeout + a byte-rate grace) must tolerate
/// a writer that dribbles a large body in bursts slower than the idle
/// timeout, as long as it sustains the rate floor overall.
#[test]
fn a_slow_batch_writer_is_not_mistaken_for_an_idle_socket() {
    use mfgcp_serve::Request;

    let eq = Arc::new(common::synthetic_equilibrium(tiny_params(), &[0.5, 1.5]));
    let config = ServeConfig {
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = start_server(Arc::clone(&eq), config);

    // 2000 points → 48 005 body bytes → ~2.9 s of rate grace on top of
    // the 300 ms idle timeout. Three 600 ms stalls between chunks each
    // exceed the idle timeout (the old per-read behavior would kill the
    // connection at the first one) but fit the per-frame deadline.
    const POINTS: usize = 2000;
    let batch: Vec<[f64; 3]> = (0..POINTS)
        .map(|i| {
            let s = i as f64 / (POINTS - 1) as f64;
            [s * 0.2, 1.0 + s, 0.5 * s]
        })
        .collect();
    let payload = Request::QueryBatch(batch).encode().unwrap();

    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&payload);

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let chunks: Vec<&[u8]> = framed.chunks(framed.len().div_ceil(4)).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(600));
        }
        stream.write_all(chunk).expect("dribble chunk");
        stream.flush().expect("flush");
    }

    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let reply = read_frame(&mut stream, MAX_FRAME_LEN)
        .expect("read reply")
        .expect("server must answer, not hang up mid-frame");
    match Reply::decode(&reply).expect("decodable reply") {
        Reply::PolicyBatch(points) => assert_eq!(points.len(), POINTS),
        other => panic!("expected a batch reply, got {other:?}"),
    }

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Hot swap under load: concurrent batch queries while the served
/// artifact is replaced. Every reply must be internally uniform (drawn
/// entirely from one generation — the two artifacts carry disjoint
/// constant payloads, so any mix is detectable), replies after the swap
/// ack must come from the new artifact, and the swap must be observable
/// in `Info` and in `serve.swap` telemetry.
#[test]
fn hot_swap_under_load_never_mixes_generations() {
    use mfgcp_serve::artifact::save_with_build_info;

    // Generation 1 answers 1.0 everywhere, generation 2 answers 2.0.
    let eq_v1 = Arc::new(common::synthetic_equilibrium(tiny_params(), &[1.0]));
    let eq_v2 = common::synthetic_equilibrium(tiny_params(), &[2.0]);
    let path = std::env::temp_dir().join(format!("mfgcp-swap-test-{}.eq", std::process::id()));
    save_with_build_info(&eq_v2, &path, "swap v2").expect("save v2");

    let sink = Arc::new(MemorySink::new());
    let recorder = RecorderHandle::new(Arc::clone(&sink));
    // Each worker owns one connection at a time; the hammers camp on
    // theirs, so the pool must outsize them for the ctl connection to
    // ever be served.
    let config = ServeConfig {
        threads: 8,
        ..ServeConfig::default()
    };
    let handle =
        PolicyServer::start("127.0.0.1:0", Arc::clone(&eq_v1), config, recorder).expect("bind");
    let addr = handle.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect hammer");
                let points: Vec<[f64; 3]> =
                    (0..64).map(|i| [0.1, 1.0 + i as f64 * 0.01, 0.5]).collect();
                let mut seen = [false; 2];
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let answers = client.query_batch(&points).expect("hammer batch");
                    // Within one reply every value must belong to ONE
                    // artifact: all exactly 1.0 or all exactly 2.0.
                    let first = answers[0].as_ref().expect("finite").price;
                    assert!(first == 1.0 || first == 2.0, "unexpected payload {first}");
                    for a in &answers {
                        let a = a.as_ref().expect("finite");
                        for v in [a.x, a.price, a.q_bar] {
                            assert_eq!(
                                v, first,
                                "reply mixes generations: saw {v} next to {first}"
                            );
                        }
                    }
                    seen[first as usize - 1] = true;
                }
                seen
            })
        })
        .collect();

    // Let the hammers land on generation 1, then swap mid-load.
    std::thread::sleep(Duration::from_millis(150));
    let mut ctl = Client::connect(addr).expect("connect ctl");
    let (generation, fingerprint) = ctl
        .swap_artifact(path.to_str().expect("utf-8 path"))
        .expect("swap");
    assert_eq!(generation, 2);
    assert_eq!(fingerprint, eq_v2.params.fingerprint());

    // Any frame after the ack is answered by the new generation.
    let post = ctl.query(0.1, 1.0, 0.5).expect("post-swap query");
    assert_eq!(post.price, 2.0, "post-swap replies must come from v2");
    let info = ctl.info().expect("info");
    assert_eq!(info.generation, 2);

    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut seen_any = [false; 2];
    for h in hammers {
        let seen = h.join().expect("hammer thread");
        seen_any[0] |= seen[0];
        seen_any[1] |= seen[1];
    }
    assert!(seen_any[0], "load never observed generation 1");
    assert!(seen_any[1], "load never observed generation 2");

    // A swap from a bad path is refused and the slot is untouched.
    let err = ctl.swap_artifact("/nonexistent/definitely-missing.eq");
    assert!(err.is_err(), "missing artifact must not swap");
    assert_eq!(ctl.info().expect("info").generation, 2);
    let still = ctl.query(0.1, 1.0, 0.5).expect("query after failed swap");
    assert_eq!(still.price, 2.0);

    ctl.shutdown_server().expect("shutdown");
    handle.join();

    // The successful swap is visible in telemetry: one `serve.swap`
    // counter carrying the new generation and fingerprint, span-free.
    let events = sink.events();
    let swaps: Vec<_> = events
        .iter()
        .filter(|e| e.kind == Kind::Counter && e.name == "serve.swap")
        .collect();
    assert_eq!(swaps.len(), 1, "exactly one successful swap");
    assert!(swaps[0].span.is_none(), "swap counter must be span-free");
    assert!(swaps[0]
        .fields
        .iter()
        .any(|(k, v)| *k == "generation" && format!("{v:?}").contains('2')));

    std::fs::remove_file(&path).expect("cleanup");
}

/// Swaps fail closed: an intact artifact whose solve stopped unconverged
/// is refused by the serving gate `mfgcp serve` starts through and on
/// both swap paths (the wire `SwapArtifact` request behind `mfgcp ctl
/// --swap-artifact`, and the `SwapHandle` behind `mfgcp serve
/// --watch-artifact`) with a typed error and a schema-valid
/// `serve.swap_reject` counter, and the current generation keeps
/// serving. The same payload with a converged report swaps in.
#[test]
fn an_unconverged_artifact_is_refused_and_the_generation_kept() {
    use mfgcp_serve::artifact::save_with_build_info;
    use mfgcp_serve::{ArtifactError, ArtifactStore, ClientError};

    let eq_v1 = Arc::new(common::synthetic_equilibrium(tiny_params(), &[1.0]));
    let mut stalled = common::synthetic_equilibrium(tiny_params(), &[2.0]);
    stalled.report.converged = false;
    stalled.report.iterations = 40;
    let path = std::env::temp_dir().join(format!(
        "mfgcp-unconverged-swap-test-{}.eq",
        std::process::id()
    ));
    save_with_build_info(&stalled, &path, "stalled").expect("save unconverged");
    match ArtifactStore::open_for_serving(&path) {
        Err(ArtifactError::NotConverged { iterations, .. }) => assert_eq!(iterations, 40),
        other => panic!("the serving gate must refuse it, got {other:?}"),
    }

    let sink = Arc::new(MemorySink::new());
    let recorder = RecorderHandle::new(Arc::clone(&sink));
    let handle =
        PolicyServer::start("127.0.0.1:0", eq_v1, ServeConfig::default(), recorder).expect("bind");
    let mut ctl = Client::connect(handle.local_addr()).expect("connect ctl");
    let path_str = path.to_str().expect("utf-8 path");

    match ctl.swap_artifact(path_str) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Refused);
            assert!(
                e.message.contains("unconverged after 40"),
                "refusal names its cause: {}",
                e.message
            );
        }
        other => panic!("unconverged artifact must be refused, got {other:?}"),
    }
    let swap = handle.swap_handle();
    match swap.swap_from_path(&path) {
        Err(ArtifactError::NotConverged { iterations, .. }) => assert_eq!(iterations, 40),
        other => panic!("expected NotConverged, got {other:?}"),
    }
    assert_eq!(swap.generation(), 1, "a refused swap keeps the generation");
    assert_eq!(ctl.info().expect("info").generation, 1);
    let still = ctl.query(0.1, 1.0, 0.5).expect("query after refusal");
    assert_eq!(still.price, 1.0, "generation 1 keeps serving");

    // The same payload with a converged report is installed.
    stalled.report.converged = true;
    save_with_build_info(&stalled, &path, "converged").expect("save converged");
    let (generation, _) = ctl.swap_artifact(path_str).expect("converged swap");
    assert_eq!(generation, 2);
    assert_eq!(ctl.query(0.1, 1.0, 0.5).expect("query").price, 2.0);

    // A missing file is refused with the same code, as an `io` reject.
    match ctl.swap_artifact("/nonexistent/definitely-missing.eq") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Refused),
        other => panic!("missing artifact must be refused, got {other:?}"),
    }

    ctl.shutdown_server().expect("shutdown");
    handle.join();
    let events = sink.events();
    let counted = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == Kind::Counter && e.name == name)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        counted("serve.swap").len(),
        1,
        "only the installed swap is counted"
    );
    let reasons: Vec<String> = counted("serve.swap_reject")
        .iter()
        .map(|e| {
            let (_, reason) = e
                .fields
                .iter()
                .find(|(k, _)| *k == "reason")
                .expect("reason");
            format!("{reason:?}")
        })
        .collect();
    assert_eq!(reasons.len(), 3, "every refusal is counted: {reasons:?}");
    assert!(
        reasons[..2].iter().all(|r| r.contains("not_converged")),
        "{reasons:?}"
    );
    assert!(reasons[2].contains("io"), "{reasons:?}");
    let lines: Vec<String> = events.iter().map(|e| e.to_json_line()).collect();
    mfgcp_obs::schema::validate_str(&lines.join("\n")).expect("schema-valid telemetry");
    std::fs::remove_file(&path).expect("cleanup");
}

/// Regression: a client that pipelines large requests and never reads
/// its replies used to block `join()` forever — the worker sat in a
/// write the drain would not cut. The per-connection write timeout now
/// drops such a peer, so `join()` returns within that timeout plus the
/// linger window.
#[test]
fn a_client_that_never_reads_cannot_block_join() {
    use mfgcp_serve::framed::{LINGER, WRITE_TIMEOUT};
    use mfgcp_serve::Request;

    let eq = Arc::new(common::synthetic_equilibrium(tiny_params(), &[0.5, 1.5]));
    let handle = start_server(Arc::clone(&eq), ServeConfig::default());

    // 60 k pairs: ~960 kB per request, ~480 kB per reply; 15 of them
    // fill both directions' socket buffers.
    let pairs: Vec<[f64; 2]> = (0..60_000).map(|i| [1.0, i as f64 * 1e-5]).collect();
    let payload = Request::EvalSlotBatch { t: 0.5, pairs }.encode().unwrap();
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        for _ in 0..15 {
            if mfgcp_serve::protocol::write_frame(&mut stream, &payload).is_err() {
                break;
            }
        }
        stream // keep the socket open, unread, until the test ends
    });
    std::thread::sleep(Duration::from_millis(500));

    let started = std::time::Instant::now();
    handle.shutdown();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done.send(());
    });
    let bound = WRITE_TIMEOUT + LINGER + Duration::from_secs(3);
    assert!(
        joined.recv_timeout(bound).is_ok(),
        "join still blocked {:?} after shutdown",
        started.elapsed()
    );
    drop(writer.join().expect("writer thread"));
}
