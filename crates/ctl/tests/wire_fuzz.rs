//! Fail-closed wire edge, for both endpoints.
//!
//! * Property tests of the control codec: decoding arbitrary bytes
//!   yields a value or a typed `WireError` and never panics, whatever
//!   decodes re-encodes to the same bytes, and every variant round-trips.
//! * A socket test that feeds the policy server and the control server
//!   noise, split writes, oversize prefixes and mid-frame closes; each
//!   stays up, answers `Ping`, and drains its registry to zero.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfgcp_core::{MfgSolver, Params};
use mfgcp_ctl::{CtlClient, CtlReply, CtlRequest, CtlServer};
use mfgcp_obs::{BroadcastSink, RecorderHandle};
use mfgcp_serve::{Client, ErrorCode, PolicyServer, ServeConfig, MAX_FRAME_LEN};
use proptest::prelude::*;

/// Control request and reply opcodes, plus an unknown one.
const CTL_OPCODES: [u8; 19] = [
    0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x2B, 0x2E, 0x2F, 0xA1, 0xA3, 0xAA,
    0xC0, 0xEE, 0x7B,
];

fn payload() -> impl Strategy<Value = Vec<u8>> {
    (0..CTL_OPCODES.len() + 4, collection::vec(0u8..=255, 0..96)).prop_map(|(op, mut body)| {
        if let Some(&op) = CTL_OPCODES.get(op) {
            body.insert(0, op);
        }
        body
    })
}

fn text() -> impl Strategy<Value = String> {
    collection::vec(0u32..0x3000, 0..24)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn request() -> impl Strategy<Value = CtlRequest> {
    let filters = collection::vec(text(), 0..5);
    (0u8..13, 0..=u32::MAX, 0..=u32::MAX, filters).prop_map(|(tag, a, b, filters)| match tag {
        0 => CtlRequest::Subscribe {
            capacity: a,
            filters,
        },
        1 => CtlRequest::Snapshot,
        2 => CtlRequest::Occupancy { offset: a, len: b },
        3 => CtlRequest::Pause,
        4 => CtlRequest::Step { n: a },
        5 => CtlRequest::Resume,
        6 => CtlRequest::Fork,
        7 => CtlRequest::ForkStatus { id: a },
        8 => CtlRequest::Status,
        9 => CtlRequest::Ping,
        10 => CtlRequest::Reprice,
        11 => CtlRequest::Shutdown,
        _ => CtlRequest::Detach,
    })
}

fn reply() -> impl Strategy<Value = CtlReply> {
    let values = collection::vec((0..=u64::MAX).prop_map(f64::from_bits), 0..6);
    (0u8..5, 0..=u32::MAX, 0..=u32::MAX, values, text(), 1u16..=7).prop_map(
        |(tag, total, offset, values, text, code)| match tag {
            0 => CtlReply::Ok(text),
            1 => CtlReply::Occupancy {
                total,
                offset,
                values,
            },
            2 => CtlReply::Pong,
            3 => CtlReply::Event(text),
            _ => CtlReply::Error {
                code: ErrorCode::from_u16(code).expect("known code"),
                message: text,
            },
        },
    )
}

proptest! {
    #[test]
    fn decoding_arbitrary_bytes_is_typed_and_canonical(batch in collection::vec(payload(), 64)) {
        // A panic here fails the test; a value must re-encode exactly.
        for bytes in batch {
            if let Ok(request) = CtlRequest::decode(&bytes) {
                prop_assert_eq!(request.encode(), Ok(bytes.clone()));
            }
            if let Ok(reply) = CtlReply::decode(&bytes) {
                prop_assert_eq!(reply.encode(), bytes);
            }
        }
    }

    #[test]
    fn every_control_request_round_trips(request in request()) {
        let bytes = request.encode().expect("generated filters fit the wire");
        prop_assert_eq!(CtlRequest::decode(&bytes), Ok(request));
    }

    #[test]
    fn every_control_reply_round_trips_bit_exactly(reply in reply()) {
        let bytes = reply.encode();
        let decoded = CtlReply::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.encode(), bytes);
    }
}

/// SplitMix64: the socket test draws its episodes from a fixed seed, so
/// its case count and run time are pinned.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn bytes(&mut self, n: u64) -> Vec<u8> {
        (0..n).map(|_| self.below(256) as u8).collect()
    }
}

/// Hostile connections per server.
const EPISODES: usize = 40;

/// One hostile byte stream: noisy frames led by a known opcode, raw
/// noise, oversize prefixes, and frames cut short.
fn episode(rng: &mut Mix, opcodes: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    for _ in 0..1 + rng.below(4) {
        match rng.below(4) {
            0 => {
                let mut payload = vec![opcodes[rng.below(opcodes.len() as u64) as usize]];
                // Some bodies are empty, so body-less requests decode.
                let len = rng.below(4).min(1) * rng.below(40);
                payload.extend(rng.bytes(len));
                wire.extend((payload.len() as u32).to_le_bytes());
                wire.extend(payload);
            }
            1 => {
                let len = 1 + rng.below(16);
                wire.extend(rng.bytes(len));
            }
            2 => {
                let over = u64::from(MAX_FRAME_LEN) + 1;
                let declared = over + rng.below(u64::from(u32::MAX) - over);
                wire.extend((declared as u32).to_le_bytes());
            }
            _ => {
                wire.extend((10 + rng.below(1000) as u32).to_le_bytes());
                let len = rng.below(10);
                wire.extend(rng.bytes(len));
                break;
            }
        }
    }
    if rng.below(3) == 0 {
        wire.truncate(rng.below(wire.len() as u64 + 1) as usize);
    }
    wire
}

/// Feeds `EPISODES` hostile connections to `addr`, each written in
/// random pieces and then dropped mid-stream or half-closed and read
/// to the server's EOF. Shutdown opcodes are left out of `opcodes`.
fn abuse(addr: SocketAddr, opcodes: &[u8], seed: u64) {
    let mut rng = Mix(seed);
    for _ in 0..EPISODES {
        let wire = episode(&mut rng, opcodes);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut rest = &wire[..];
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at((1 + rng.below(16) as usize).min(rest.len()));
            // The server may already have closed on a bad frame.
            if stream.write_all(piece).is_err() {
                break;
            }
            if rng.below(8) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            rest = tail;
        }
        if rng.below(2) == 0 {
            continue; // mid-stream close
        }
        let _ = stream.shutdown(Shutdown::Write);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let _ = stream.read_to_end(&mut Vec::new());
    }
}

fn wait_for_no_connections(connections: impl Fn() -> usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while connections() > 0 {
        assert!(Instant::now() < deadline, "{what} still holds connections");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn hostile_traffic_leaves_both_servers_up_and_drained() {
    let params = Params {
        time_steps: 8,
        grid_h: 6,
        grid_q: 12,
        max_iterations: 40,
        ..Params::default()
    };
    let eq = MfgSolver::new(params)
        .expect("params")
        .solve()
        .expect("tiny solve");
    let config = ServeConfig::default();
    let policy = PolicyServer::start("127.0.0.1:0", Arc::new(eq), config, RecorderHandle::noop())
        .expect("bind policy server");
    let sim_params = mfgcp_sim::SimConfig::small().params;
    let control = CtlServer::spawn(
        "127.0.0.1:0",
        sim_params,
        Arc::new(BroadcastSink::new()),
        false,
    )
    .expect("bind control server");

    abuse(
        policy.local_addr(),
        &[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x55],
        1,
    );
    let ctl_requests: Vec<u8> = CTL_OPCODES[..11].iter().copied().chain([0x2F]).collect();
    abuse(control.local_addr(), &ctl_requests, 2);

    wait_for_no_connections(|| policy.connections(), "the policy server");
    wait_for_no_connections(|| control.connections(), "the control server");
    let mut client = Client::connect(policy.local_addr()).expect("connect policy");
    client
        .ping()
        .expect("policy server answers after the abuse");
    let mut ctl = CtlClient::connect(&control.local_addr().to_string()).expect("connect ctl");
    let pong = ctl.request(&CtlRequest::Ping, Duration::from_secs(10));
    assert!(
        matches!(pong, Ok(CtlReply::Pong)),
        "control server: {pong:?}"
    );

    client.shutdown_server().expect("shutdown");
    policy.join();
    drop(ctl);
    control.shutdown();
}
