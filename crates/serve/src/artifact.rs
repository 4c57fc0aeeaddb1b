//! Versioned, CRC-protected, zero-copy binary persistence of a solved
//! [`Equilibrium`].
//!
//! # Format (version 3)
//!
//! All multi-byte integers are little-endian; every `f64` is written as
//! its raw IEEE-754 bits, so NaN payloads and ±∞ survive a round-trip
//! bit-exactly (the header additionally records how many non-finite
//! values the file carries, and verification recounts them).
//!
//! The file is a self-contained **header** and a raw **payload** of `f64`
//! planes at 8-byte-aligned offsets, so a reader can memory-map the file
//! and serve interpolation queries straight out of the mapping — opening
//! costs O(header), not O(grid · T). Version 3 keeps version 2's layout
//! with a shorter canonical params block (no solver switches, no worker
//! thread count), so one model solved at any thread count writes one
//! byte-identical artifact:
//!
//! ```text
//! off  size  field
//!   0     8  magic                b"MFGCPEQ\0"
//!   8     2  format version       u16 = 3
//!  10     2  reserved flags       u16 = 0
//!  12     4  header_len           u32, multiple of 8; payload starts here
//!  16     8  payload_len          u64; file length = header_len + payload_len
//!  24     4  payload_crc          u32 CRC-32 of bytes [header_len, EOF)
//!  28     4  header_crc           u32 CRC-32 of bytes [0, header_len)
//!                                 with bytes 28..32 taken as zero
//!  32     …  build info           u32 length + utf-8
//!          …  params block        u32 length + canonical Params bytes
//!          8  fingerprint         u64 FNV-1a of the params block
//!          8  non-finite count    u64, over header f64s below AND payload
//!         24  h axis              lo f64, hi f64, n u64
//!         24  q axis              lo f64, hi f64, n u64
//!          8  time steps          u64 N
//!          …  contexts            N × 3 f64   (requests, popularity, urgency)
//!          …  snapshots           N × 6 f64   (price, q̄₋, Δq̄, Φ̄², M_k/M, M'_k/M)
//!          …  report              converged u8, iterations u64,
//!                                 u64 count + residuals f64s,
//!                                 u64 count + update_norms f64s
//!          …  plane directory     count u32 = 3N + 2, then per plane:
//!                                 kind u8 (0 policy, 1 density, 2 values),
//!                                 index u32, offset u64 (absolute), len u64
//!        < 8  zero padding        to the 8-byte header_len boundary
//! header_len  payload             3N + 2 consecutive planes of nx·ny raw f64
//! ```
//!
//! The canonical plane order is `policy[0..N]`, `density[0..N+1]`,
//! `values[0..N+1]`, contiguous and 8-byte aligned; the directory is
//! validated against exactly that layout on open, so plane lookups are
//! pure offset arithmetic.
//!
//! # Loader check order
//!
//! [`ArtifactStore::open`] rejects in a deliberate order so each failure
//! is reported as its real cause: **magic** first (is this even our file
//! type?), then **format version** (a future-version file is
//! `UnsupportedVersion`, not a checksum mismatch), then `header_len`
//! bounds, then the **header CRC** (torn writes, bit rot), and only then
//! structural decoding with typed [`Truncated`](ArtifactError::Truncated)
//! errors, the **fingerprint**, grid and time-step cross-checks, and
//! strict directory/padding/file-length validation. The payload is *not*
//! touched by `open`; [`ArtifactStore::verify_payload`] checks its CRC
//! and recounts non-finite values on demand, and the whole-artifact
//! entry points ([`load`], [`from_bytes`]) always do both.
//!
//! # Crash safety
//!
//! [`save`] writes to a temporary sibling file, `sync_all`s it, and
//! atomically renames it over the destination: a crash mid-write leaves
//! either the old artifact or a stray `.tmp`, never a torn file under
//! the real name. Because a rename repoints the *name* and never the old
//! inode's bytes, live mappings of a replaced artifact stay valid.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mfgcp_core::{
    ContentContext, ConvergenceReport, Equilibrium, MeanFieldSnapshot, Params, PreparedSlot,
};
use mfgcp_pde::{Axis, Field2d, Field2dView, Grid2d};

use crate::crc32;
use crate::error::ArtifactError;
use crate::mmap::{self, ArtifactBytes, MapMode};

/// File magic: identifies an MFG-CP equilibrium artifact.
pub const MAGIC: [u8; 8] = *b"MFGCPEQ\0";

/// Format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 3;

/// Size of the fixed-offset portion of the header.
const FIXED_HEADER_LEN: usize = 32;

/// Bytes per plane directory entry: kind u8 + index u32 + offset u64 +
/// len u64.
const DIR_ENTRY_LEN: usize = 1 + 4 + 8 + 8;

/// Metadata decoded from an artifact, available alongside the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactHeader {
    /// Format version stored in the file.
    pub format_version: u16,
    /// Build info string of the writer (see [`crate::build_info`]).
    pub build_info: String,
    /// FNV-1a fingerprint of the canonical params block.
    pub fingerprint: u64,
    /// Number of non-finite `f64`s in the header tables and payload.
    pub non_finite_count: u64,
    /// Number of macro time steps `N`.
    pub time_steps: usize,
    /// Grid resolution along `h`.
    pub grid_h: usize,
    /// Grid resolution along `q`.
    pub grid_q: usize,
}

/// A successfully loaded artifact: header metadata plus the rehydrated
/// equilibrium.
#[derive(Debug, Clone)]
pub struct LoadedArtifact {
    /// Decoded header metadata.
    pub header: ArtifactHeader,
    /// The rehydrated equilibrium, bit-identical to the one saved.
    pub equilibrium: Equilibrium,
}

/// What a payload plane holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// Equilibrium caching policy `x*` at one time step.
    Policy,
    /// State distribution `m` at one time step.
    Density,
    /// Value function `V` at one time step.
    Values,
}

impl PlaneKind {
    fn as_u8(self) -> u8 {
        match self {
            PlaneKind::Policy => 0,
            PlaneKind::Density => 1,
            PlaneKind::Values => 2,
        }
    }

    fn from_u8(v: u8) -> Option<PlaneKind> {
        match v {
            0 => Some(PlaneKind::Policy),
            1 => Some(PlaneKind::Density),
            2 => Some(PlaneKind::Values),
            _ => None,
        }
    }
}

/// One validated plane directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneEntry {
    /// What the plane holds.
    pub kind: PlaneKind,
    /// Time-step index within its kind.
    pub index: u32,
    /// Absolute byte offset of the plane in the file.
    pub offset: u64,
    /// Plane length in bytes (`nx · ny · 8`).
    pub len: u64,
}

/// The canonical `(kind, index)` for the `i`-th plane of an artifact
/// with `n` time steps.
fn canonical_plane(i: usize, n: usize) -> (PlaneKind, u32) {
    if i < n {
        (PlaneKind::Policy, i as u32)
    } else if i < 2 * n + 1 {
        (PlaneKind::Density, (i - n) as u32)
    } else {
        (PlaneKind::Values, (i - 2 * n - 1) as u32)
    }
}

/// An open artifact serving interpolation queries directly out of its
/// file bytes — memory-mapped when the platform allows, an owned aligned
/// copy otherwise.
///
/// Opening decodes and cross-checks only the header (axes, params,
/// snapshots, report, plane directory): cost is independent of the grid
/// size and horizon. Policy lookups borrow `f64` planes in place via
/// [`Field2dView`]; [`ArtifactStore::to_equilibrium`] rehydrates a full
/// owned [`Equilibrium`] on demand, with every plane sharing a single
/// reference-counted grid.
#[derive(Debug)]
pub struct ArtifactStore {
    bytes: ArtifactBytes,
    header: ArtifactHeader,
    params: Params,
    grid: Arc<Grid2d>,
    contexts: Vec<ContentContext>,
    snapshots: Vec<MeanFieldSnapshot>,
    report: ConvergenceReport,
    directory: Vec<PlaneEntry>,
    payload_off: usize,
    payload_len: usize,
    payload_crc: u32,
    /// Non-finite count over the header's f64 tables alone (contexts,
    /// snapshots, report), tallied during the structural decode.
    header_f64_non_finite: u64,
    /// Eagerly decoded payload when the in-place `f64` view is
    /// unavailable (big-endian target); `None` on the zero-copy path.
    decoded: Option<Vec<f64>>,
}

impl ArtifactStore {
    /// Opens `path`, memory-mapping when possible, and verifies the
    /// header (magic, version, header CRC, every structural
    /// cross-check). The payload is left untouched — call
    /// [`ArtifactStore::verify_payload`] to checksum it.
    pub fn open(path: &Path) -> Result<ArtifactStore, ArtifactError> {
        Self::open_with_mode(path, MapMode::Auto)
    }

    /// Opens `path` for serving, failing closed: the header checks of
    /// [`ArtifactStore::open`], then a refusal of an unconverged solve
    /// ([`ArtifactError::NotConverged`], before the payload is read — the
    /// header CRC already vouched for the report), then
    /// [`ArtifactStore::verify_payload`]. `mfgcp serve` start-up and
    /// every hot swap open through here.
    pub fn open_for_serving(path: &Path) -> Result<ArtifactStore, ArtifactError> {
        let store = Self::open(path)?;
        let report = store.report();
        if !report.converged {
            return Err(ArtifactError::NotConverged {
                iterations: report.iterations,
                residual: report.residuals.last().copied(),
            });
        }
        store.verify_payload()?;
        Ok(store)
    }

    /// Opens `path` forcing the owned read path (no mapping) — the
    /// differential-testing and benchmarking knob.
    pub fn open_owned(path: &Path) -> Result<ArtifactStore, ArtifactError> {
        Self::open_with_mode(path, MapMode::Owned)
    }

    fn open_with_mode(path: &Path, mode: MapMode) -> Result<ArtifactStore, ArtifactError> {
        let bytes = mmap::read_file(path, mode)?;
        Self::from_artifact_bytes(bytes)
    }

    /// Opens an in-memory artifact image and verifies it **fully**
    /// (header and payload), copying into aligned owned storage.
    ///
    /// This is how a server started from an in-process
    /// [`Equilibrium`] builds its store: encode with [`to_bytes`], open
    /// the image, serve from it.
    pub fn open_bytes(bytes: Vec<u8>) -> Result<ArtifactStore, ArtifactError> {
        let store =
            Self::from_artifact_bytes(ArtifactBytes::Owned(mmap::AlignedBytes::from_vec(bytes)))?;
        store.verify_payload()?;
        Ok(store)
    }

    fn from_artifact_bytes(bytes: ArtifactBytes) -> Result<ArtifactStore, ArtifactError> {
        let b = bytes.as_slice();
        if b.len() < MAGIC.len() || b[..MAGIC.len()] != MAGIC {
            return Err(ArtifactError::BadMagic {
                found: b[..b.len().min(MAGIC.len())].to_vec(),
            });
        }
        if b.len() < 10 {
            return Err(ArtifactError::Truncated {
                at: b.len(),
                needed: 10 - b.len(),
                section: "format version",
            });
        }
        let format_version = u16::from_le_bytes(b[8..10].try_into().expect("2 bytes"));
        if format_version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: format_version,
                supported: FORMAT_VERSION,
            });
        }
        if b.len() < FIXED_HEADER_LEN {
            return Err(ArtifactError::Truncated {
                at: b.len(),
                needed: FIXED_HEADER_LEN - b.len(),
                section: "fixed header",
            });
        }

        let header_len = u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")) as usize;
        if header_len < FIXED_HEADER_LEN || header_len % 8 != 0 {
            return Err(ArtifactError::Inconsistent {
                message: format!(
                    "header_len {header_len} is not an 8-byte-aligned length past the fixed header"
                ),
            });
        }
        if b.len() < header_len {
            return Err(ArtifactError::Truncated {
                at: b.len(),
                needed: header_len - b.len(),
                section: "header",
            });
        }

        // Checksum the header before trusting any structural field past
        // header_len itself; the CRC field is taken as zero.
        let stored_header_crc = u32::from_le_bytes(b[28..32].try_into().expect("4 bytes"));
        let computed_header_crc = {
            let mut h = crc32::Hasher::new();
            h.update(&b[..28]);
            h.update(&[0u8; 4]);
            h.update(&b[32..header_len]);
            h.finalize()
        };
        if stored_header_crc != computed_header_crc {
            return Err(ArtifactError::CrcMismatch {
                stored: stored_header_crc,
                computed: computed_header_crc,
            });
        }

        let flags = u16::from_le_bytes(b[10..12].try_into().expect("2 bytes"));
        if flags != 0 {
            return Err(ArtifactError::Inconsistent {
                message: format!("reserved flags are {flags:#06X}, expected 0"),
            });
        }

        let payload_len = u64::from_le_bytes(b[16..24].try_into().expect("8 bytes"));
        let payload_len =
            usize::try_from(payload_len).map_err(|_| ArtifactError::Inconsistent {
                message: "payload length exceeds usize".into(),
            })?;
        let payload_crc = u32::from_le_bytes(b[24..28].try_into().expect("4 bytes"));
        let expected_file_len =
            header_len
                .checked_add(payload_len)
                .ok_or(ArtifactError::Inconsistent {
                    message: "header_len + payload_len overflows".into(),
                })?;
        if b.len() < expected_file_len {
            return Err(ArtifactError::Truncated {
                at: b.len(),
                needed: expected_file_len - b.len(),
                section: "payload",
            });
        }
        if b.len() > expected_file_len {
            return Err(ArtifactError::TrailingBytes {
                extra: b.len() - expected_file_len,
            });
        }

        let mut r = Reader::new(b);
        r.pos = FIXED_HEADER_LEN;
        r.limit = header_len;

        let build_info =
            String::from_utf8(r.bytes_with_len("build info")?.to_vec()).map_err(|_| {
                ArtifactError::Inconsistent {
                    message: "build info is not utf-8".into(),
                }
            })?;

        let params_block = r.bytes_with_len("params block")?.to_vec();
        let params = Params::from_canonical_bytes(&params_block)?;
        let stored_fingerprint = r.u64("fingerprint")?;
        let computed_fingerprint = params.fingerprint();
        if stored_fingerprint != computed_fingerprint {
            return Err(ArtifactError::FingerprintMismatch {
                stored: stored_fingerprint,
                computed: computed_fingerprint,
            });
        }

        let stored_non_finite = r.u64("non-finite count")?;

        let h_axis = r.axis("h axis")?;
        let q_axis = r.axis("q axis")?;
        let grid = Grid2d::new(h_axis, q_axis);
        if grid != params.grid() {
            return Err(ArtifactError::Inconsistent {
                message: "stored grid axes disagree with the params block".into(),
            });
        }

        let n = usize::try_from(r.u64("time steps")?).map_err(|_| ArtifactError::Inconsistent {
            message: "time step count exceeds usize".into(),
        })?;
        if n != params.time_steps {
            return Err(ArtifactError::Inconsistent {
                message: format!(
                    "stored time step count {n} disagrees with params ({})",
                    params.time_steps
                ),
            });
        }

        let mut contexts = Vec::with_capacity(n);
        for _ in 0..n {
            contexts.push(ContentContext {
                requests: r.f64_payload("contexts")?,
                popularity: r.f64_payload("contexts")?,
                urgency_factor: r.f64_payload("contexts")?,
            });
        }
        let mut snapshots = Vec::with_capacity(n);
        for _ in 0..n {
            snapshots.push(MeanFieldSnapshot {
                price: r.f64_payload("snapshots")?,
                q_bar: r.f64_payload("snapshots")?,
                delta_q: r.f64_payload("snapshots")?,
                share_benefit: r.f64_payload("snapshots")?,
                sharer_fraction: r.f64_payload("snapshots")?,
                case3_fraction: r.f64_payload("snapshots")?,
            });
        }

        let converged = match r.u8("report.converged")? {
            0 => false,
            1 => true,
            other => {
                return Err(ArtifactError::Inconsistent {
                    message: format!("report.converged is {other}, expected 0 or 1"),
                })
            }
        };
        let iterations = usize::try_from(r.u64("report.iterations")?).map_err(|_| {
            ArtifactError::Inconsistent {
                message: "report.iterations exceeds usize".into(),
            }
        })?;
        let residuals = {
            let count = r.u64("report.residuals length")? as usize;
            r.f64_vec(count, "report.residuals")?
        };
        let update_norms = {
            let count = r.u64("report.update_norms length")? as usize;
            r.f64_vec(count, "report.update_norms")?
        };
        let report = ConvergenceReport {
            converged,
            iterations,
            residuals,
            update_norms,
        };

        // Plane directory: enforce the canonical contiguous layout so
        // every later plane lookup is pure offset arithmetic.
        let plane_count = 3 * n + 2;
        let plane_len = grid
            .len()
            .checked_mul(8)
            .ok_or(ArtifactError::Inconsistent {
                message: "plane byte length overflows".into(),
            })?;
        let dir_count = r.u32("plane directory count")? as usize;
        if dir_count != plane_count {
            return Err(ArtifactError::Inconsistent {
                message: format!(
                    "plane directory lists {dir_count} planes, expected {plane_count}"
                ),
            });
        }
        let mut directory = Vec::with_capacity(plane_count);
        for i in 0..plane_count {
            let kind_byte = r.u8("plane directory")?;
            let kind =
                PlaneKind::from_u8(kind_byte).ok_or_else(|| ArtifactError::Inconsistent {
                    message: format!("plane {i} has unknown kind {kind_byte}"),
                })?;
            let index = r.u32("plane directory")?;
            let offset = r.u64("plane directory")?;
            let len = r.u64("plane directory")?;
            let (want_kind, want_index) = canonical_plane(i, n);
            let want_offset = (header_len + i * plane_len) as u64;
            if kind != want_kind
                || index != want_index
                || offset != want_offset
                || len != plane_len as u64
            {
                return Err(ArtifactError::Inconsistent {
                    message: format!(
                        "plane {i} directory entry ({kind:?}[{index}] at {offset}, {len} B) \
                         violates the canonical layout ({want_kind:?}[{want_index}] at \
                         {want_offset}, {plane_len} B)"
                    ),
                });
            }
            directory.push(PlaneEntry {
                kind,
                index,
                offset,
                len,
            });
        }
        let declared_payload = (plane_count as u64).checked_mul(plane_len as u64).ok_or(
            ArtifactError::Inconsistent {
                message: "directory payload size overflows".into(),
            },
        )?;
        if declared_payload != payload_len as u64 {
            return Err(ArtifactError::Inconsistent {
                message: format!(
                    "directory accounts for {declared_payload} payload bytes, header says \
                     {payload_len}"
                ),
            });
        }

        // Alignment padding: fewer than 8 bytes, all zero.
        if header_len - r.pos >= 8 {
            return Err(ArtifactError::Inconsistent {
                message: format!(
                    "{} bytes of header padding exceed the 8-byte alignment slack",
                    header_len - r.pos
                ),
            });
        }
        if b[r.pos..header_len].iter().any(|&byte| byte != 0) {
            return Err(ArtifactError::Inconsistent {
                message: "header padding is not zeroed".into(),
            });
        }

        let header = ArtifactHeader {
            format_version,
            build_info,
            fingerprint: stored_fingerprint,
            non_finite_count: stored_non_finite,
            time_steps: n,
            grid_h: grid.x().len(),
            grid_q: grid.y().len(),
        };
        let header_f64_non_finite = r.non_finite;

        let payload = &b[header_len..expected_file_len];
        let decoded = if mmap::as_f64s(payload).is_some() {
            None
        } else {
            Some(
                payload
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect(),
            )
        };

        Ok(ArtifactStore {
            bytes,
            header,
            params,
            grid: Arc::new(grid),
            contexts,
            snapshots,
            report,
            directory,
            payload_off: header_len,
            payload_len,
            payload_crc,
            header_f64_non_finite,
            decoded,
        })
    }

    /// Whether the store serves out of a live memory mapping (as opposed
    /// to an owned copy of the file).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Checksums the payload planes and recounts non-finite values,
    /// cross-checking both against the header. O(payload); [`open`]
    /// deliberately skips this so opening stays O(header).
    ///
    /// One pass per plane: each plane's bytes go through the streaming
    /// CRC and its values through the non-finite recount back to back,
    /// while the plane is still in cache. A checksum mismatch is reported
    /// before a count mismatch, since a corrupt payload miscounts too.
    ///
    /// [`open`]: ArtifactStore::open
    pub fn verify_payload(&self) -> Result<(), ArtifactError> {
        let payload = &self.bytes.as_slice()[self.payload_off..self.payload_off + self.payload_len];
        let elems = self.grid.len();
        let mut crc = crc32::Hasher::new();
        let mut plane_non_finite = 0u64;
        let planes = payload.chunks_exact(elems * 8);
        for (bytes, values) in planes.zip(self.payload_f64s().chunks_exact(elems)) {
            crc.update(bytes);
            plane_non_finite += count_non_finite(values);
        }
        let computed = crc.finalize();
        if computed != self.payload_crc {
            return Err(ArtifactError::CrcMismatch {
                stored: self.payload_crc,
                computed,
            });
        }
        let total = self.header_f64_non_finite + plane_non_finite;
        if total != self.header.non_finite_count {
            return Err(ArtifactError::NonFiniteCountMismatch {
                stored: self.header.non_finite_count,
                computed: total,
            });
        }
        Ok(())
    }

    /// Decoded header metadata.
    pub fn header(&self) -> &ArtifactHeader {
        &self.header
    }

    /// The canonical solver parameters stored in the artifact.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The validated plane directory, in canonical order.
    pub fn directory(&self) -> &[PlaneEntry] {
        &self.directory
    }

    /// The per-step content contexts stored in the header.
    pub fn contexts(&self) -> &[ContentContext] {
        &self.contexts
    }

    /// The per-step mean-field snapshots stored in the header.
    pub fn snapshots(&self) -> &[MeanFieldSnapshot] {
        &self.snapshots
    }

    /// The convergence report stored in the header.
    pub fn report(&self) -> &ConvergenceReport {
        &self.report
    }

    /// The payload as one `f64` slice — zero-copy on little-endian
    /// targets, the eagerly decoded copy otherwise.
    fn payload_f64s(&self) -> &[f64] {
        if let Some(decoded) = &self.decoded {
            return decoded;
        }
        let payload = &self.bytes.as_slice()[self.payload_off..self.payload_off + self.payload_len];
        mmap::as_f64s(payload).expect("payload alignment and length validated at open")
    }

    /// Borrowed view of the `i`-th plane in canonical order.
    fn plane_view(&self, plane: usize) -> Field2dView<'_> {
        let elems = self.grid.len();
        let values = &self.payload_f64s()[plane * elems..(plane + 1) * elems];
        Field2dView::new(&self.grid, values).expect("plane length validated at open")
    }

    /// Borrowed view of the policy plane at time step `step`
    /// (`step < time_steps`).
    pub fn policy_view(&self, step: usize) -> Field2dView<'_> {
        assert!(
            step < self.header.time_steps,
            "policy step {step} out of range (time_steps = {})",
            self.header.time_steps
        );
        self.plane_view(step)
    }

    /// Prepares the time slot containing `t` for repeated evaluation:
    /// one step selection, one snapshot read, one borrowed policy plane.
    ///
    /// Evaluating the returned slot equals [`ArtifactStore::policy_at`] /
    /// [`ArtifactStore::price_at`] / [`ArtifactStore::q_bar_at`] at the
    /// same `t` bit-for-bit — it is the same lookup with the per-point
    /// setup hoisted out.
    pub fn prepare_slot(&self, t: f64) -> PreparedSlot<'_> {
        let step = self.params.step_of(t);
        let snap = &self.snapshots[step];
        PreparedSlot {
            step,
            price: snap.price,
            q_bar: snap.q_bar,
            policy: self.policy_view(step),
        }
    }

    /// Equilibrium caching policy `x*(t, h, q)`, bilinear on the stored
    /// grid — identical to
    /// [`Equilibrium::policy_at`](mfgcp_core::Equilibrium::policy_at) on
    /// the rehydrated equilibrium, without rehydrating.
    pub fn policy_at(&self, t: f64, h: f64, q: f64) -> f64 {
        self.prepare_slot(t).policy.interpolate(h, q)
    }

    /// Equilibrium trading price `p*(t)`.
    pub fn price_at(&self, t: f64) -> f64 {
        self.snapshots[self.params.step_of(t)].price
    }

    /// Mean-field storage average `q̄₋(t)`.
    pub fn q_bar_at(&self, t: f64) -> f64 {
        self.snapshots[self.params.step_of(t)].q_bar
    }

    /// Rehydrates a full owned [`Equilibrium`], re-validating every core
    /// invariant via [`Equilibrium::from_parts`].
    ///
    /// All `3N + 2` planes share **one** reference-counted grid (one
    /// allocation total, not one clone per plane), so rehydration cost is
    /// the payload copy alone and stays allocation-flat in `T`.
    pub fn to_equilibrium(&self) -> Result<Equilibrium, ArtifactError> {
        let n = self.header.time_steps;
        let elems = self.grid.len();
        let f = self.payload_f64s();
        let plane_field = |plane: usize| -> Result<Field2d, ArtifactError> {
            let values = f[plane * elems..(plane + 1) * elems].to_vec();
            Field2d::from_shared(Arc::clone(&self.grid), values).map_err(|e| {
                ArtifactError::Inconsistent {
                    message: format!("plane {plane} rejected: {e}"),
                }
            })
        };
        let mut policy = Vec::with_capacity(n);
        for i in 0..n {
            policy.push(plane_field(i)?);
        }
        let mut density = Vec::with_capacity(n + 1);
        for i in 0..n + 1 {
            density.push(plane_field(n + i)?);
        }
        let mut values = Vec::with_capacity(n + 1);
        for i in 0..n + 1 {
            values.push(plane_field(2 * n + 1 + i)?);
        }
        let equilibrium = Equilibrium::from_parts(
            self.params.clone(),
            self.contexts.clone(),
            policy,
            density,
            values,
            self.snapshots.clone(),
            self.report.clone(),
        )?;
        Ok(equilibrium)
    }
}

/// Serializes `eq` into the version-3 artifact byte layout.
pub fn to_bytes(eq: &Equilibrium, build_info: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u16(FORMAT_VERSION);
    w.u16(0); // reserved flags
    w.u32(0); // header_len, patched below
    w.u64(0); // payload_len, patched below
    w.u32(0); // payload_crc, patched below
    w.u32(0); // header_crc, patched below (and taken as zero by readers)
    debug_assert_eq!(w.out.len(), FIXED_HEADER_LEN);

    w.bytes_with_len(build_info.as_bytes());
    let params_block = eq.params.canonical_bytes();
    w.bytes_with_len(&params_block);
    w.u64(eq.params.fingerprint());

    // Reserve the non-finite count slot; patched once the payload is out.
    let count_at = w.out.len();
    w.u64(0);

    let grid = eq.params.grid();
    w.axis(grid.x());
    w.axis(grid.y());
    let n = eq.params.time_steps;
    w.u64(n as u64);

    for c in &eq.contexts {
        w.f64_payload(c.requests);
        w.f64_payload(c.popularity);
        w.f64_payload(c.urgency_factor);
    }
    for s in &eq.snapshots {
        w.f64_payload(s.price);
        w.f64_payload(s.q_bar);
        w.f64_payload(s.delta_q);
        w.f64_payload(s.share_benefit);
        w.f64_payload(s.sharer_fraction);
        w.f64_payload(s.case3_fraction);
    }

    w.u8(u8::from(eq.report.converged));
    w.u64(eq.report.iterations as u64);
    w.f64_slice_with_len(&eq.report.residuals);
    w.f64_slice_with_len(&eq.report.update_norms);

    // Plane directory, then zero padding up to the 8-byte-aligned
    // header_len so every payload plane lands 8-byte aligned.
    let plane_count = 3 * n + 2;
    let plane_len = grid.len() * 8;
    let dir_bytes = 4 + plane_count * DIR_ENTRY_LEN;
    let header_len = (w.out.len() + dir_bytes).div_ceil(8) * 8;
    let file_len = header_len + plane_count * plane_len;
    // The whole file's size is known from here: size the buffer once so
    // the planes never reallocate it.
    w.out.reserve_exact(file_len - w.out.len());
    w.u32(plane_count as u32);
    for i in 0..plane_count {
        let (kind, index) = canonical_plane(i, n);
        w.u8(kind.as_u8());
        w.u32(index);
        w.u64((header_len + i * plane_len) as u64);
        w.u64(plane_len as u64);
    }
    while w.out.len() < header_len {
        w.u8(0);
    }
    debug_assert_eq!(w.out.len(), header_len);

    // One walk over the payload: each plane is copied and counted in one
    // loop, then checksummed while its bytes are still in cache.
    let mut payload_crc = crc32::Hasher::new();
    for field in eq.policy.iter().chain(&eq.density).chain(&eq.values) {
        let start = w.out.len();
        w.f64_plane(field.values());
        payload_crc.update(&w.out[start..]);
    }
    debug_assert_eq!(w.out.len(), file_len);

    let payload_len = (file_len - header_len) as u64;
    let payload_crc = payload_crc.finalize();
    let non_finite = w.non_finite;
    w.out[count_at..count_at + 8].copy_from_slice(&non_finite.to_le_bytes());
    w.out[12..16].copy_from_slice(&(header_len as u32).to_le_bytes());
    w.out[16..24].copy_from_slice(&payload_len.to_le_bytes());
    w.out[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    // Last: the header CRC over [0, header_len) with its own slot still
    // zero, exactly as readers will recompute it.
    let header_crc = crc32::crc32(&w.out[..header_len]);
    w.out[28..32].copy_from_slice(&header_crc.to_le_bytes());
    w.out
}

/// Decodes an artifact from `bytes`, verifying magic, version, both
/// CRCs, fingerprint, non-finite counts and every structural invariant,
/// and rehydrating the equilibrium.
pub fn from_bytes(bytes: &[u8]) -> Result<LoadedArtifact, ArtifactError> {
    let store = ArtifactStore::open_bytes(bytes.to_vec())?;
    let equilibrium = store.to_equilibrium()?;
    Ok(LoadedArtifact {
        header: store.header.clone(),
        equilibrium,
    })
}

/// Saves `eq` to `path` atomically, stamping [`crate::build_info`] into
/// the header.
pub fn save(eq: &Equilibrium, path: &Path) -> Result<(), ArtifactError> {
    save_with_build_info(eq, path, &crate::build_info())
}

/// Process-wide sequence number of [`save_with_build_info`] calls, which
/// makes each call's temporary file name unique.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Saves `eq` to `path` atomically with an explicit build info string.
///
/// The bytes are written to a temporary sibling
/// (`<name>.<pid>.<seq>.tmp`, unique per call, so concurrent saves to one
/// path from one process never share a temporary inode), flushed with
/// `sync_all`, and renamed over `path`; a crash mid-write never leaves a
/// torn file under the destination name. On unix the parent directory is
/// synced after the rename too, so the rename itself survives a crash
/// once this returns.
pub fn save_with_build_info(
    eq: &Equilibrium,
    path: &Path,
    build_info: &str,
) -> Result<(), ArtifactError> {
    let bytes = to_bytes(eq, build_info);
    let file_name = path
        .file_name()
        .ok_or_else(|| ArtifactError::Inconsistent {
            message: format!("artifact path {} has no file name", path.display()),
        })?;
    let mut tmp_name = file_name.to_os_string();
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        {
            let dir = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Loads and fully verifies an artifact from `path` (header CRC, payload
/// CRC, non-finite recount), rehydrating the equilibrium.
///
/// The file is memory-mapped when possible, so this exercises the same
/// zero-copy path [`ArtifactStore::open`] uses before copying out the
/// owned [`Equilibrium`].
pub fn load(path: &Path) -> Result<LoadedArtifact, ArtifactError> {
    let store = ArtifactStore::open(path)?;
    store.verify_payload()?;
    let equilibrium = store.to_equilibrium()?;
    Ok(LoadedArtifact {
        header: store.header.clone(),
        equilibrium,
    })
}

/// How many of `values` are NaN or ±∞.
fn count_non_finite(values: &[f64]) -> u64 {
    values.iter().map(|v| u64::from(!v.is_finite())).sum()
}

/// Byte-layout writer tracking the non-finite payload count.
struct Writer {
    out: Vec<u8>,
    non_finite: u64,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: Vec::new(),
            non_finite: 0,
        }
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A structural float (axis bound): written, not payload-counted.
    fn f64_raw(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A payload float: counted when non-finite.
    fn f64_payload(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
        }
        self.f64_raw(v);
    }

    /// A payload plane: one bulk little-endian copy into the (already
    /// reserved) tail of the buffer, counting non-finite values in the
    /// same loop.
    fn f64_plane(&mut self, values: &[f64]) {
        let start = self.out.len();
        self.out.resize(start + values.len() * 8, 0);
        let mut non_finite = 0;
        for (dst, &v) in self.out[start..].chunks_exact_mut(8).zip(values) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
            non_finite += u64::from(!v.is_finite());
        }
        self.non_finite += non_finite;
    }

    fn bytes_with_len(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    fn f64_slice_with_len(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.f64_payload(v);
        }
    }

    fn axis(&mut self, axis: &Axis) {
        self.f64_raw(axis.lo());
        self.f64_raw(axis.hi());
        self.u64(axis.len() as u64);
    }
}

/// Bounds-checked reader with typed truncation errors, mirroring
/// [`Writer`]'s non-finite accounting.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Exclusive end of the decodable region (the header).
    limit: usize,
    non_finite: u64,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            limit: bytes.len(),
            non_finite: 0,
        }
    }

    fn need(&self, n: usize, section: &'static str) -> Result<(), ArtifactError> {
        let remaining = self.limit.saturating_sub(self.pos);
        if remaining < n {
            Err(ArtifactError::Truncated {
                at: self.pos,
                needed: n - remaining,
                section,
            })
        } else {
            Ok(())
        }
    }

    fn take<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], ArtifactError> {
        self.need(N, section)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self, section: &'static str) -> Result<u8, ArtifactError> {
        self.take::<1>(section).map(|b| b[0])
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, ArtifactError> {
        self.take::<4>(section).map(u32::from_le_bytes)
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, ArtifactError> {
        self.take::<8>(section).map(u64::from_le_bytes)
    }

    fn f64_raw(&mut self, section: &'static str) -> Result<f64, ArtifactError> {
        self.take::<8>(section)
            .map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }

    fn f64_payload(&mut self, section: &'static str) -> Result<f64, ArtifactError> {
        let v = self.f64_raw(section)?;
        if !v.is_finite() {
            self.non_finite += 1;
        }
        Ok(v)
    }

    fn bytes_with_len(&mut self, section: &'static str) -> Result<&'a [u8], ArtifactError> {
        let len = self.take::<4>(section).map(u32::from_le_bytes)? as usize;
        self.need(len, section)?;
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads `count` payload floats, checking the byte budget *before*
    /// allocating so a corrupt length cannot trigger a huge allocation.
    fn f64_vec(&mut self, count: usize, section: &'static str) -> Result<Vec<f64>, ArtifactError> {
        let needed = count.checked_mul(8).ok_or(ArtifactError::Truncated {
            at: self.pos,
            needed: usize::MAX,
            section,
        })?;
        self.need(needed, section)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64_payload(section)?);
        }
        Ok(out)
    }

    fn axis(&mut self, section: &'static str) -> Result<Axis, ArtifactError> {
        let lo = self.f64_raw(section)?;
        let hi = self.f64_raw(section)?;
        let n = usize::try_from(self.u64(section)?).map_err(|_| ArtifactError::Inconsistent {
            message: format!("{section} length exceeds usize"),
        })?;
        Axis::new(lo, hi, n).map_err(|e| ArtifactError::Inconsistent {
            message: format!("{section} rejected: {e}"),
        })
    }
}
