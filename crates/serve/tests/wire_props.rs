//! Property tests of the policy-server codec: decoding arbitrary bytes
//! yields a value or a typed `WireError` and never panics, whatever
//! decodes re-encodes to the same bytes, and every request and reply
//! variant round-trips through encode/decode bit-exactly.

use mfgcp_serve::{ErrorCode, Reply, Request};
use proptest::prelude::*;

/// Every opcode the codec knows, requests and replies, plus an unknown one.
const OPCODES: [u8; 17] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x0F, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x8F, 0xEE,
    0x55,
];

/// Arbitrary payloads, most led by a known opcode so the body decoders
/// (not just the opcode switch) see the noise.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (0..OPCODES.len() + 4, collection::vec(0u8..=255, 0..96)).prop_map(|(op, mut body)| {
        if let Some(&op) = OPCODES.get(op) {
            body.insert(0, op);
        }
        body
    })
}

fn float() -> impl Strategy<Value = f64> {
    (0..=u64::MAX).prop_map(f64::from_bits)
}

fn text() -> impl Strategy<Value = String> {
    collection::vec(0u32..0x3000, 0..24)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn code() -> impl Strategy<Value = ErrorCode> {
    (1u16..=8).prop_map(|v| ErrorCode::from_u16(v).expect("known code"))
}

fn triples() -> impl Strategy<Value = Vec<[f64; 3]>> {
    collection::vec(
        (float(), float(), float()).prop_map(|(a, b, c)| [a, b, c]),
        0..6,
    )
}

fn request() -> impl Strategy<Value = Request> {
    let pairs = collection::vec((float(), float()).prop_map(|(h, q)| [h, q]), 0..6);
    (
        0u8..7,
        (float(), float(), float()),
        triples(),
        text(),
        pairs,
    )
        .prop_map(|(tag, (t, h, q), points, path, pairs)| match tag {
            0 => Request::Query { t, h, q },
            1 => Request::QueryBatch(points),
            2 => Request::Ping,
            3 => Request::Info,
            4 => Request::SwapArtifact(format!("/{path}")),
            5 => Request::EvalSlotBatch { t, pairs },
            _ => Request::Shutdown,
        })
}

fn reply() -> impl Strategy<Value = Reply> {
    let mixed = collection::vec(
        ((float(), float(), float()), 0u8..2, code()).prop_map(|((x, p, q), ok, code)| {
            if ok == 1 {
                Ok([x, p, q])
            } else {
                Err(code)
            }
        }),
        0..6,
    );
    let words = (0..=u64::MAX, 0..=u64::MAX, 0..=u64::MAX);
    (
        0u8..9,
        (float(), float(), float()),
        (triples(), mixed),
        collection::vec(float(), 0..6),
        (words, text()),
        code(),
    )
        .prop_map(
            |(tag, (x, price, q_bar), (points, mixed), xs, ((a, b, c), text), code)| match tag {
                0 => Reply::Policy { x, price, q_bar },
                1 => Reply::PolicyBatch(points),
                2 => Reply::PolicyBatchMixed(mixed),
                3 => Reply::SlotBatch { price, q_bar, xs },
                4 => Reply::Pong,
                5 => Reply::Info {
                    fingerprint: a,
                    time_steps: b,
                    grid_h: c,
                    grid_q: a ^ b,
                    generation: b ^ c,
                    build_info: text,
                },
                6 => Reply::SwapAck {
                    generation: a,
                    fingerprint: b,
                },
                7 => Reply::ShutdownAck,
                _ => Reply::Error {
                    code,
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
            if let Ok(request) = Request::decode(&bytes) {
                prop_assert_eq!(request.encode(), Ok(bytes.clone()));
            }
            if let Ok(reply) = Reply::decode(&bytes) {
                prop_assert_eq!(reply.encode(), bytes);
            }
        }
    }

    #[test]
    fn every_request_round_trips_bit_exactly(request in request()) {
        let bytes = request.encode().expect("generated strings fit the wire");
        let decoded = Request::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.encode(), Ok(bytes));
    }

    #[test]
    fn every_reply_round_trips_bit_exactly(reply in reply()) {
        let bytes = reply.encode();
        let decoded = Reply::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.encode(), bytes);
    }
}
