//! Artifact store integrity tests for the version-3 zero-copy layout:
//! bit-exact round-trips (including non-finite payloads,
//! property-tested), pinned CRC words, crash-safe file writes (also
//! under concurrent saves to one path), mmap-vs-owned differential
//! equality, and typed rejection of every corruption class — truncation
//! at *every* byte, single-bit flips over the whole file, bumped format
//! versions, tampered params, forged plane directories and smuggled
//! trailing bytes.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::{assert_bit_identical, synthetic_equilibrium, tiny_params};
use mfgcp_serve::artifact::{from_bytes, load, save_with_build_info, to_bytes, ArtifactStore};
use mfgcp_serve::{ArtifactError, FORMAT_VERSION, MAGIC};
use proptest::prelude::*;

/// Reads `header_len` from the fixed header.
fn header_len(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize
}

/// Recomputes and patches both CRCs after deliberate tampering, so a
/// test reaches the check *behind* the checksums. The payload CRC (over
/// `[header_len, EOF)`) lands at offset 24, the header CRC (over
/// `[0, header_len)` with its own slot zeroed) at offset 28.
fn refix_crcs(bytes: &mut [u8]) {
    let hl = header_len(bytes);
    let payload_crc = mfgcp_serve::crc32::crc32(&bytes[hl..]);
    bytes[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    bytes[28..32].copy_from_slice(&[0; 4]);
    let header_crc = mfgcp_serve::crc32::crc32(&bytes[..hl]);
    bytes[28..32].copy_from_slice(&header_crc.to_le_bytes());
}

/// Byte offsets of interesting header fields, walking the
/// variable-length sections exactly as the loader does.
struct HeaderOffsets {
    params_at: usize,
    fingerprint_at: usize,
    non_finite_at: usize,
    dir_count_at: usize,
    /// First directory entry (kind u8, index u32, offset u64, len u64).
    dir_first_entry_at: usize,
    /// Zero-padding region `[pad_at, header_len)`; may be empty.
    pad_at: usize,
}

fn header_offsets(bytes: &[u8]) -> HeaderOffsets {
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;

    let mut off = 32; // fixed header
    off += 4 + u32_at(off); // build info
    let params_at = off + 4;
    off += 4 + u32_at(off); // params block
    let fingerprint_at = off;
    off += 8;
    let non_finite_at = off;
    off += 8;
    off += 24 * 2; // h and q axes
    let n = u64_at(off);
    off += 8; // time steps
    off += n * 3 * 8; // contexts
    off += n * 6 * 8; // snapshots
    off += 1 + 8; // report.converged + iterations
    off += 8 + u64_at(off) * 8; // residuals
    off += 8 + u64_at(off) * 8; // update norms
    let dir_count_at = off;
    let dir_count = u32_at(off);
    let dir_first_entry_at = off + 4;
    let pad_at = dir_first_entry_at + dir_count * (1 + 4 + 8 + 8);
    HeaderOffsets {
        params_at,
        fingerprint_at,
        non_finite_at,
        dir_count_at,
        dir_first_entry_at,
        pad_at,
    }
}

proptest! {
    /// Round-trip property: any structurally valid equilibrium — with
    /// NaN, +∞ and −∞ sprinkled through every payload section — decodes
    /// back bit-identically, and the header's non-finite census matches.
    #[test]
    fn roundtrip_is_bit_exact_including_non_finite_payloads(
        tape in collection::vec(
            (0_u8..12, -1.0e3_f64..1.0e3).prop_map(|(tag, v)| match tag {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => v,
            }),
            1..48,
        ),
    ) {
        let eq = synthetic_equilibrium(tiny_params(), &tape);
        let bytes = to_bytes(&eq, "proptest build");
        let loaded = from_bytes(&bytes).expect("roundtrip decode");
        assert_bit_identical(&eq, &loaded.equilibrium);
        prop_assert_eq!(loaded.header.format_version, FORMAT_VERSION);
        prop_assert_eq!(loaded.header.build_info.as_str(), "proptest build");
        prop_assert_eq!(loaded.header.fingerprint, eq.params.fingerprint());
        prop_assert_eq!(loaded.header.time_steps, eq.params.time_steps);

        // Independent census of the payload sections.
        let mut expected = 0_u64;
        let mut count = |v: f64| {
            if !v.is_finite() {
                expected += 1;
            }
        };
        for c in &eq.contexts {
            count(c.requests);
            count(c.popularity);
            count(c.urgency_factor);
        }
        for s in &eq.snapshots {
            for v in [s.price, s.q_bar, s.delta_q, s.share_benefit, s.sharer_fraction, s.case3_fraction] {
                count(v);
            }
        }
        for f in eq.policy.iter().chain(&eq.density).chain(&eq.values) {
            for &v in f.values() {
                count(v);
            }
        }
        for &v in eq.report.residuals.iter().chain(&eq.report.update_norms) {
            count(v);
        }
        prop_assert_eq!(loaded.header.non_finite_count, expected);
    }

    /// The fixed header's self-description must hold for any content:
    /// 8-byte-aligned header_len, exact file length, aligned planes.
    #[test]
    fn layout_invariants_hold_for_any_payload(
        tape in collection::vec(
            (0_u8..10, -1.0e2_f64..1.0e2).prop_map(|(tag, v)| match tag {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                _ => v,
            }),
            1..16,
        ),
        build in collection::vec(0x20_u8..0x7F, 0..40)
            .prop_map(|v| String::from_utf8(v).expect("printable ascii")),
    ) {
        let eq = synthetic_equilibrium(tiny_params(), &tape);
        let bytes = to_bytes(&eq, &build);
        prop_assert_eq!(&bytes[..8], &MAGIC[..]);
        let hl = header_len(&bytes);
        prop_assert_eq!(hl % 8, 0);
        let payload_len =
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        prop_assert_eq!(bytes.len(), hl + payload_len);
        let grid_elems = eq.params.grid().len();
        let planes = 3 * eq.params.time_steps + 2;
        prop_assert_eq!(payload_len, planes * grid_elems * 8);
        // Padding (if any) sits between the directory end and header_len
        // and is zeroed.
        let offs = header_offsets(&bytes);
        prop_assert!(hl - offs.pad_at < 8);
        prop_assert!(bytes[offs.pad_at..hl].iter().all(|&b| b == 0));
    }
}

#[test]
fn save_writes_atomically_and_load_verifies() {
    let eq = synthetic_equilibrium(tiny_params(), &[0.25, 1.5, f64::NAN, -3.0, 0.0]);
    let dir = std::env::temp_dir();
    let path: PathBuf = dir.join(format!("mfgcp-artifact-test-{}.eq", std::process::id()));
    save_with_build_info(&eq, &path, "file test").expect("save");

    // No temporary sibling survives a successful save.
    let tmp_leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("mfgcp-artifact-test-") && n.ends_with(".tmp"))
        .collect();
    assert!(
        tmp_leftovers.is_empty(),
        "stray tmp files: {tmp_leftovers:?}"
    );

    let loaded = load(&path).expect("load");
    assert_bit_identical(&eq, &loaded.equilibrium);
    assert_eq!(loaded.header.build_info, "file test");
    std::fs::remove_file(&path).expect("cleanup");
}

/// Two threads of one process saving to one path: each save writes its
/// own temporary file, so every save returns `Ok` and the file left under
/// the name is one writer's complete image, never an interleaving.
#[test]
fn concurrent_saves_to_one_path_never_tear() {
    const SAVES: usize = 40;
    let params = mfgcp_core::Params {
        time_steps: 8,
        grid_h: 16,
        grid_q: 32,
        ..mfgcp_core::Params::default()
    };
    let a = synthetic_equilibrium(params.clone(), &[0.25, -1.0, 3.5]);
    let b = synthetic_equilibrium(params, &[7.0, f64::NAN, -0.5]);
    let dir = std::env::temp_dir();
    let prefix = format!("mfgcp-concurrent-save-{}", std::process::id());
    let path = dir.join(format!("{prefix}.eq"));
    // Both writers start together, so their saves overlap from the first.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (eq, info) in [(&a, "writer a"), (&b, "writer b")] {
            let (path, start) = (&path, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..SAVES {
                    save_with_build_info(eq, path, info)
                        .unwrap_or_else(|e| panic!("{info}, save {i}: {e}"));
                }
            });
        }
    });

    let on_disk = std::fs::read(&path).expect("read final file");
    assert!(
        on_disk == to_bytes(&a, "writer a") || on_disk == to_bytes(&b, "writer b"),
        "the final file is neither writer's image"
    );
    load(&path).expect("the final file verifies");
    let tmp_leftovers = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .count();
    assert_eq!(tmp_leftovers, 1, "only the artifact itself remains");
    std::fs::remove_file(&path).expect("cleanup");
}

/// The v3 bytes are pinned: the header's CRC words (and length) of two
/// synthetic artifacts — a tiny one with NaN, ±∞ and −0 payloads and a
/// `Params::default()`-sized one — as the byte-at-a-time CRC and the
/// per-`f64` writer produced them. A faster encoder may not move a byte.
#[test]
fn payload_and_header_crc_words_are_pinned() {
    let cases = [
        (
            synthetic_equilibrium(
                tiny_params(),
                &[0.25, -1.5, f64::NAN, 3.0e-7, f64::INFINITY, 0.0, -0.0],
            ),
            2_664,
            0x2678_418D_u32,
            0x1089_B642_u32,
        ),
        (
            synthetic_equilibrium(
                mfgcp_core::Params::default(),
                &[0.125, 1.75, -2.5, 6.0e3, 1.0e-9, 0.5, 0.3],
            ),
            1_130_256,
            0x8E5D_D19B,
            0x869F_800C,
        ),
    ];
    for (eq, len, payload_crc, header_crc) in cases {
        let bytes = to_bytes(&eq, "pin");
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        assert_eq!(bytes.len(), len);
        assert_eq!(word(24), payload_crc, "payload_crc of the {len}-byte image");
        assert_eq!(word(28), header_crc, "header_crc of the {len}-byte image");
        from_bytes(&bytes).expect("the pinned image verifies");
    }
}

/// The mmap fast path and the owned fallback must be observationally
/// identical: same header, same directory, bit-identical lookups and
/// rehydration. This is the differential test behind `MapMode`.
#[test]
fn mapped_and_owned_stores_answer_bit_identically() {
    let eq = synthetic_equilibrium(
        tiny_params(),
        &[0.5, -1.25, f64::NAN, 3.5, f64::INFINITY, 0.0, -0.75],
    );
    let dir = std::env::temp_dir();
    let path: PathBuf = dir.join(format!("mfgcp-artifact-diff-{}.eq", std::process::id()));
    save_with_build_info(&eq, &path, "diff test").expect("save");

    let mapped = ArtifactStore::open(&path).expect("open auto");
    let owned = ArtifactStore::open_owned(&path).expect("open owned");
    assert!(!owned.is_mapped());
    #[cfg(unix)]
    assert!(mapped.is_mapped(), "unix open should serve from a mapping");

    mapped.verify_payload().expect("mapped payload verifies");
    owned.verify_payload().expect("owned payload verifies");
    assert_eq!(mapped.header(), owned.header());
    assert_eq!(mapped.directory(), owned.directory());

    let t_hi = eq.params.t_horizon;
    let probes = [
        (0.0, eq.params.h_min, 0.0),
        (t_hi * 0.41, 1.3, 0.37),
        (t_hi, eq.params.h_max, eq.params.q_size),
        (t_hi * 2.0, eq.params.h_max + 1.0, -0.25),
        (t_hi * 0.5, f64::NAN, 0.3),
    ];
    for (t, h, q) in probes {
        assert_eq!(
            mapped.policy_at(t, h, q).to_bits(),
            owned.policy_at(t, h, q).to_bits(),
            "policy at {t} {h} {q}"
        );
        assert_eq!(mapped.price_at(t).to_bits(), owned.price_at(t).to_bits());
        assert_eq!(mapped.q_bar_at(t).to_bits(), owned.q_bar_at(t).to_bits());
        // The store answers equal the rehydrated equilibrium's answers.
        assert_eq!(
            mapped.policy_at(t, h, q).to_bits(),
            eq.policy_at(t, h, q).to_bits()
        );
        assert_eq!(mapped.price_at(t).to_bits(), eq.price_at(t).to_bits());
        assert_eq!(mapped.q_bar_at(t).to_bits(), eq.q_bar_at(t).to_bits());
    }

    assert_bit_identical(&eq, &mapped.to_equilibrium().expect("rehydrate mapped"));
    assert_bit_identical(&eq, &owned.to_equilibrium().expect("rehydrate owned"));
    std::fs::remove_file(&path).expect("cleanup");
}

/// Regression for the per-plane grid clone: rehydration must share ONE
/// reference-counted grid across all `3N + 2` planes.
#[test]
fn rehydrated_planes_share_a_single_grid_allocation() {
    let eq = synthetic_equilibrium(tiny_params(), &[0.5, 1.5, -0.5]);
    let store = ArtifactStore::open_bytes(to_bytes(&eq, "grid share")).expect("open");
    let rehydrated = store.to_equilibrium().expect("rehydrate");
    let first = rehydrated.policy[0].shared_grid();
    for field in rehydrated
        .policy
        .iter()
        .chain(&rehydrated.density)
        .chain(&rehydrated.values)
    {
        assert!(
            Arc::ptr_eq(first, field.shared_grid()),
            "a plane carries its own grid clone"
        );
    }
}

#[test]
fn every_truncation_point_is_rejected_with_a_typed_error() {
    let eq = synthetic_equilibrium(tiny_params(), &[0.5, -1.0, 2.5]);
    let bytes = to_bytes(&eq, "trunc");
    for cut in 0..bytes.len() {
        let err = from_bytes(&bytes[..cut]).expect_err("truncated file must not load");
        match (cut, &err) {
            (c, ArtifactError::BadMagic { .. }) if c < MAGIC.len() => {}
            (c, ArtifactError::Truncated { .. }) if c >= MAGIC.len() => {}
            (c, other) => panic!("cut at {c}: unexpected error {other}"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let eq = synthetic_equilibrium(tiny_params(), &[0.5, -1.0, 2.5]);
    let bytes = to_bytes(&eq, "flip");
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            let err = from_bytes(&corrupt).expect_err("corrupt file must not load");
            match (byte, &err) {
                // Magic is checked before anything else.
                (b, ArtifactError::BadMagic { .. }) if b < 8 => {}
                // Version is checked before the checksum on purpose.
                (b, ArtifactError::UnsupportedVersion { .. }) if (8..10).contains(&b) => {}
                // header_len is needed to *find* the checksum, so its
                // flips surface as whichever bound it violates first.
                (
                    b,
                    ArtifactError::CrcMismatch { .. }
                    | ArtifactError::Truncated { .. }
                    | ArtifactError::Inconsistent { .. },
                ) if (12..16).contains(&b) => {}
                // Everything else — flags, lengths, both CRC slots, the
                // whole decoded header, every payload byte — lands on
                // one of the two checksums.
                (b, ArtifactError::CrcMismatch { .. }) if b >= 10 => {}
                (b, other) => panic!("flip at byte {b} bit {bit}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn bumped_format_version_is_unsupported_not_a_checksum_error() {
    let eq = synthetic_equilibrium(tiny_params(), &[1.0, 2.0]);
    let mut bytes = to_bytes(&eq, "ver");

    // A future-version file whose checksums are perfectly valid must
    // still be refused as unsupported…
    let future = FORMAT_VERSION + 1;
    bytes[8..10].copy_from_slice(&future.to_le_bytes());
    refix_crcs(&mut bytes);
    match from_bytes(&bytes) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, FORMAT_VERSION)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // …and the version verdict must not depend on the checksums: the
    // same bump without a CRC refix reports the version, not the
    // checksum.
    let mut bytes = to_bytes(&eq, "ver");
    bytes[8] = 7;
    match from_bytes(&bytes) {
        Err(ArtifactError::UnsupportedVersion { found: 7, .. }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn version_2_artifacts_are_unsupported_not_a_params_mismatch() {
    // Version 2 encoded a longer params block (the since-removed solver
    // switches and the worker-thread count). A checksum-valid version-2
    // header is refused by version before its params block is decoded.
    let eq = synthetic_equilibrium(tiny_params(), &[1.0, 2.0]);
    let mut bytes = to_bytes(&eq, "v2");
    bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
    refix_crcs(&mut bytes);
    match from_bytes(&bytes) {
        Err(ArtifactError::UnsupportedVersion {
            found: 2,
            supported: 3,
        }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn wrong_magic_is_rejected_up_front() {
    let eq = synthetic_equilibrium(tiny_params(), &[1.0]);
    let mut bytes = to_bytes(&eq, "magic");
    bytes[0] = b'X';
    refix_crcs(&mut bytes);
    assert!(matches!(
        from_bytes(&bytes),
        Err(ArtifactError::BadMagic { .. })
    ));
    assert!(matches!(
        from_bytes(b"MFG"),
        Err(ArtifactError::BadMagic { .. })
    ));
    assert!(matches!(
        from_bytes(b""),
        Err(ArtifactError::BadMagic { .. })
    ));
}

#[test]
fn tampered_params_or_header_fields_fail_their_cross_checks() {
    let eq = synthetic_equilibrium(tiny_params(), &[0.75, f64::INFINITY, -2.0]);
    let bytes = to_bytes(&eq, "tamper");
    let offs = header_offsets(&bytes);

    // Tampering the params block desynchronizes the stored fingerprint.
    let mut tampered = bytes.clone();
    tampered[offs.params_at] ^= 0x01; // num_edps: 300 -> 301, still valid
    refix_crcs(&mut tampered);
    assert!(matches!(
        from_bytes(&tampered),
        Err(ArtifactError::FingerprintMismatch { .. })
    ));

    // So does tampering the stored fingerprint itself.
    let mut tampered = bytes.clone();
    tampered[offs.fingerprint_at] ^= 0xFF;
    refix_crcs(&mut tampered);
    assert!(matches!(
        from_bytes(&tampered),
        Err(ArtifactError::FingerprintMismatch { .. })
    ));

    // A forged non-finite census is caught by the recount.
    let mut tampered = bytes.clone();
    tampered[offs.non_finite_at] ^= 0x04;
    refix_crcs(&mut tampered);
    assert!(matches!(
        from_bytes(&tampered),
        Err(ArtifactError::NonFiniteCountMismatch { .. })
    ));

    // Bytes smuggled in after the payload are refused even though both
    // checksummed regions are untouched.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        from_bytes(&padded),
        Err(ArtifactError::TrailingBytes { extra: 1 })
    ));
}

/// The plane directory is validated against the canonical contiguous
/// layout field by field; a checksum-consistent forgery must still be
/// rejected as inconsistent, never served from a wrong offset.
#[test]
fn forged_plane_directories_are_rejected() {
    let eq = synthetic_equilibrium(tiny_params(), &[0.5, 1.25, -0.25]);
    let bytes = to_bytes(&eq, "dir");
    let offs = header_offsets(&bytes);
    let entry_len = 1 + 4 + 8 + 8;

    let expect_inconsistent = |tampered: &[u8]| match from_bytes(tampered) {
        Err(ArtifactError::Inconsistent { .. }) => {}
        other => panic!("expected Inconsistent, got {other:?}"),
    };

    // Wrong plane count.
    let mut tampered = bytes.clone();
    tampered[offs.dir_count_at] ^= 0x01;
    refix_crcs(&mut tampered);
    expect_inconsistent(&tampered);

    // Unknown plane kind in entry 0.
    let mut tampered = bytes.clone();
    tampered[offs.dir_first_entry_at] = 9;
    refix_crcs(&mut tampered);
    expect_inconsistent(&tampered);

    // Swapped-looking index in entry 1.
    let mut tampered = bytes.clone();
    tampered[offs.dir_first_entry_at + entry_len + 1] ^= 0x02;
    refix_crcs(&mut tampered);
    expect_inconsistent(&tampered);

    // Offset nudged off the canonical position in entry 2 (points one
    // byte into the previous plane — an aliasing attack).
    let mut tampered = bytes.clone();
    tampered[offs.dir_first_entry_at + 2 * entry_len + 5] ^= 0x08;
    refix_crcs(&mut tampered);
    expect_inconsistent(&tampered);

    // Shrunk plane length in the last entry.
    let dir_count = u32::from_le_bytes(
        bytes[offs.dir_count_at..offs.dir_count_at + 4]
            .try_into()
            .unwrap(),
    ) as usize;
    let mut tampered = bytes.clone();
    let last_len_at = offs.dir_first_entry_at + (dir_count - 1) * entry_len + 13;
    tampered[last_len_at] ^= 0x10;
    refix_crcs(&mut tampered);
    expect_inconsistent(&tampered);

    // Non-zero header padding (when the layout leaves any).
    let hl = header_len(&bytes);
    if offs.pad_at < hl {
        let mut tampered = bytes.clone();
        tampered[offs.pad_at] = 0xAA;
        refix_crcs(&mut tampered);
        expect_inconsistent(&tampered);
    }
}
