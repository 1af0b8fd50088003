//! The device→collector report wire format.
//!
//! Devices transmit privatized reports over untrusted, lossy transports, so
//! the encoding is an explicit versioned frame rather than an in-memory
//! struct: fixed 20 bytes, little-endian fields, and a 16-bit FNV-1a
//! checksum so corrupt or truncated frames are rejected with a typed error
//! instead of silently polluting an aggregate.
//!
//! Layout (offsets in bytes):
//!
//! | off | size | field |
//! |-----|------|-------|
//! | 0   | 1    | magic `0xD9` |
//! | 1   | 1    | version (`1` legacy, `2` current) |
//! | 2   | 1    | payload kind (`0` = FxP value, `1` = RR bit) |
//! | 3   | 1    | v1: reserved, must be `0`; v2: sequence number |
//! | 4   | 4    | device id, u32 LE |
//! | 8   | 2    | query id, u16 LE |
//! | 10  | 4    | epoch, u32 LE |
//! | 14  | 4    | payload, i32 LE (RR frames: `0` or `1`) |
//! | 18  | 2    | checksum: FNV-1a of bytes `0..18`, folded to 16 bits, LE |
//!
//! # The v2 sequence number
//!
//! Version 2 turns the reserved byte into a per-query-stream **sequence
//! number**: the low 8 bits of the device's send counter for that stream,
//! which — because a device privatizes *at most once* per `(query, epoch)`
//! and retransmits cached bytes verbatim — is exactly `epoch mod 256`.
//! The decoder enforces that identity. A sender whose retry path
//! re-randomizes (re-privatizing and re-encoding instead of replaying the
//! cached frame) drifts its counter off the epoch and is flagged with a
//! typed, device-attributed [`WireError::SeqMismatch`] — the collector's
//! cheapest detector for the repeated-sampling privacy leak.
//!
//! Errors that occur *after* the checksum verifies (`SeqMismatch`,
//! `UnknownKind`, `PayloadOutOfRange`) carry the sender's device id: the
//! frame body is integrity-checked, so the id is trustworthy and the
//! collector can count strikes against that sender (the quarantine path).
//! Pre-checksum errors carry no id — a corrupt frame's device field is
//! noise.
//!
//! # Decoding a stream
//!
//! A byte stream is walked once, in order ([`decode_stream`]): each frame
//! is decoded on the 20-byte grid, a structural error (bad magic or
//! checksum) is one corruption event after which the scanner hunts byte by
//! byte for the next offset that starts a verifiable frame, and a short
//! tail is one `Truncated` event. The collector's streaming drain pulls
//! the same walk in bounded blocks, so the two cannot disagree on any
//! input.

use core::fmt;

use ulp_obs::{Counter, Histogram};

/// Frame magic byte (first byte of every report frame).
pub const MAGIC: u8 = 0xD9;
/// Current wire-format version (sequence-numbered frames).
pub const VERSION: u8 = 2;
/// The legacy wire version (reserved byte must be zero) still decoded.
pub const VERSION_LEGACY: u8 = 1;
/// Encoded size of one report frame, in bytes.
pub const FRAME_LEN: usize = 20;

/// The privatized content of one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A fixed-point noised sensor reading, in datapath grid units.
    Value(i32),
    /// One randomized-response bit.
    RrBit(bool),
}

impl Payload {
    fn kind(self) -> u8 {
        match self {
            Payload::Value(_) => 0,
            Payload::RrBit(_) => 1,
        }
    }

    fn raw(self) -> i32 {
        match self {
            Payload::Value(v) => v,
            Payload::RrBit(b) => i32::from(b),
        }
    }
}

/// One decoded device report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Reporting device id.
    pub device: u32,
    /// Query (aggregation stream) this report belongs to.
    pub query: u16,
    /// Reporting epoch.
    pub epoch: u32,
    /// The privatized payload.
    pub payload: Payload,
}

impl Report {
    /// Builds a report for `(device, query, epoch)`; the v2 sequence
    /// number is derived from the epoch at encode time.
    pub fn new(device: u32, query: u16, epoch: u32, payload: Payload) -> Report {
        Report {
            device,
            query,
            epoch,
            payload,
        }
    }

    /// The sequence number a conforming privatize-once sender stamps on
    /// this report: the low 8 bits of its per-stream send counter, which
    /// equals `epoch mod 256`.
    fn seq(&self) -> u8 {
        (self.epoch & 0xFF) as u8
    }
}

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer than [`FRAME_LEN`] bytes were available.
    Truncated {
        /// Bytes actually available.
        got: usize,
    },
    /// Byte 0 was not [`MAGIC`].
    BadMagic {
        /// The byte found instead.
        found: u8,
    },
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u8,
    },
    /// The kind byte names no known payload type. Post-checksum, so the
    /// sender id is trustworthy.
    UnknownKind {
        /// The kind byte found.
        found: u8,
        /// The sender (integrity-checked).
        device: u32,
    },
    /// A v1 frame's reserved byte was non-zero (a forward-compatibility
    /// guard: v1 encoders always write `0`).
    NonZeroReserved {
        /// The byte found.
        found: u8,
    },
    /// The checksum did not match the frame body.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        stored: u16,
        /// Checksum computed over bytes `0..18`.
        computed: u16,
    },
    /// A v2 frame's sequence number disagrees with its epoch — the
    /// signature of a sender that regenerated a report instead of
    /// replaying its cached bytes. Post-checksum, so the sender id is
    /// trustworthy.
    SeqMismatch {
        /// Sequence number carried by the frame.
        seq: u8,
        /// Epoch carried by the frame (`seq` must equal `epoch mod 256`).
        epoch: u32,
        /// The sender (integrity-checked).
        device: u32,
    },
    /// An RR frame carried a payload other than `0`/`1`. Post-checksum,
    /// so the sender id is trustworthy.
    PayloadOutOfRange {
        /// The payload found.
        found: i32,
        /// The sender (integrity-checked).
        device: u32,
    },
}

impl WireError {
    /// The sender id, for errors found *after* the checksum verified —
    /// the frame body is integrity-checked, so the id can be trusted and
    /// strikes can be attributed (the quarantine path). `None` for
    /// pre-checksum errors, where the device field may itself be corrupt.
    pub fn attributable_device(&self) -> Option<u32> {
        match *self {
            WireError::UnknownKind { device, .. }
            | WireError::SeqMismatch { device, .. }
            | WireError::PayloadOutOfRange { device, .. } => Some(device),
            _ => None,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { got } => {
                write!(f, "truncated frame: {got} of {FRAME_LEN} bytes")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad magic byte {found:#04x} (expected {MAGIC:#04x})")
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (speak {VERSION_LEGACY} and {VERSION})"
                )
            }
            WireError::UnknownKind { found, device } => {
                write!(f, "unknown payload kind {found} from device {device}")
            }
            WireError::NonZeroReserved { found } => {
                write!(f, "reserved byte must be 0 in v1 frames, got {found:#04x}")
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: frame carries {stored:#06x}, body hashes to {computed:#06x}"
            ),
            WireError::SeqMismatch { seq, epoch, device } => write!(
                f,
                "sequence {seq} disagrees with epoch {epoch} (mod 256) from device {device}: \
                 sender is not replaying cached reports"
            ),
            WireError::PayloadOutOfRange { found, device } => {
                write!(
                    f,
                    "RR payload must be 0 or 1, got {found} from device {device}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The FNV-1a 32-bit offset basis.
const FNV_BASIS: u32 = 0x811C_9DC5;
/// The FNV-1a 32-bit prime.
const FNV_PRIME: u32 = 0x0100_0193;

/// Folds the low `n` bytes of `word` into the FNV-1a state `h`, least
/// significant byte first: the order of a little-endian field on the wire.
#[inline(always)]
const fn fnv_word(mut h: u32, word: u32, n: u32) -> u32 {
    let mut i = 0;
    while i < n {
        h = (h ^ ((word >> (8 * i)) & 0xFF)).wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// The FNV-1a state after a frame's first three bytes: magic, `version`
/// and `kind`.
const fn prefix_state(magic: u8, version: u8, kind: u8) -> u32 {
    let head = magic as u32 | (version as u32) << 8 | (kind as u32) << 16;
    fnv_word(FNV_BASIS, head, 3)
}

/// The state after the constant prefix `MAGIC, VERSION, kind` of a v2
/// frame, indexed by kind (`0` value, `1` RR bit).
const V2_PREFIX: [u32; 2] = [
    prefix_state(MAGIC, VERSION, 0),
    prefix_state(MAGIC, VERSION, 1),
];

/// The frame checksum, computed from field words: FNV-1a over bytes
/// `0..18`, continued from `prefix` (the state after bytes `0..3`) through
/// byte 3 and the four little-endian fields, then folded to 16 bits (the
/// xor of the hash's halves). The one checksum routine: the encoder and
/// the decoder both call it. Cheap enough for a sensor MCU; corruption
/// slips past the fold with probability ≈ 2⁻¹⁶ per frame (an integrity
/// check against faults, not an authenticator).
#[inline(always)]
fn checksum(prefix: u32, byte3: u8, device: u32, query: u16, epoch: u32, payload: u32) -> u16 {
    let mut h = fnv_word(prefix, u32::from(byte3), 1);
    h = fnv_word(h, device, 4);
    h = fnv_word(h, u32::from(query), 2);
    h = fnv_word(h, epoch, 4);
    h = fnv_word(h, payload, 4);
    ((h >> 16) ^ (h & 0xFFFF)) as u16
}

/// A frame's fields, loaded as little-endian words.
struct Fields {
    device: u32,
    query: u16,
    epoch: u32,
    payload: u32,
    stored: u16,
}

impl Fields {
    #[inline(always)]
    fn load(frame: &[u8; FRAME_LEN]) -> Fields {
        let word = |at: usize| {
            u32::from_le_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
        };
        Fields {
            device: word(4),
            query: u16::from_le_bytes([frame[8], frame[9]]),
            epoch: word(10),
            payload: word(14),
            stored: u16::from_le_bytes([frame[18], frame[19]]),
        }
    }

    /// The checksum over the frame body these fields were loaded from,
    /// given the state after its first three bytes.
    #[inline(always)]
    fn checksum(&self, prefix: u32, byte3: u8) -> u16 {
        checksum(
            prefix,
            byte3,
            self.device,
            self.query,
            self.epoch,
            self.payload,
        )
    }
}

/// The fused success check of [`Report::decode`]: `Some` exactly when the
/// frame is a well-formed v2 report, which is what `decode` returns `Ok`
/// for on any v2 frame. One pass over the loaded words checks the prefix
/// bytes, the kind and its payload, the sequence byte and the checksum;
/// which check failed is not asked here.
#[inline(always)]
fn decode_v2(frame: &[u8; FRAME_LEN]) -> Option<Report> {
    let f = Fields::load(frame);
    let kind = frame[2];
    let seq = frame[3];
    let well_formed = (frame[0] == MAGIC)
        & (frame[1] == VERSION)
        & (kind <= 1)
        & (seq == f.epoch as u8)
        & ((kind == 0) | (f.payload <= 1));
    if !well_formed || f.checksum(V2_PREFIX[usize::from(kind & 1)], seq) != f.stored {
        return None;
    }
    let payload = if kind == 0 {
        Payload::Value(f.payload as i32)
    } else {
        Payload::RrBit(f.payload != 0)
    };
    Some(Report {
        device: f.device,
        query: f.query,
        epoch: f.epoch,
        payload,
    })
}

impl Report {
    /// Encodes the report as one [`FRAME_LEN`]-byte v2 frame. The checksum
    /// is folded from the field words, continued from the precomputed
    /// state after the frame's constant prefix.
    #[inline]
    pub fn encode(&self) -> [u8; FRAME_LEN] {
        let kind = self.payload.kind();
        let seq = self.seq();
        let payload = self.payload.raw() as u32;
        let sum = checksum(
            V2_PREFIX[usize::from(kind)],
            seq,
            self.device,
            self.query,
            self.epoch,
            payload,
        );
        let mut frame = [0u8; FRAME_LEN];
        frame[..4].copy_from_slice(&[MAGIC, VERSION, kind, seq]);
        frame[4..8].copy_from_slice(&self.device.to_le_bytes());
        frame[8..10].copy_from_slice(&self.query.to_le_bytes());
        frame[10..14].copy_from_slice(&self.epoch.to_le_bytes());
        frame[14..18].copy_from_slice(&payload.to_le_bytes());
        frame[18..20].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    /// Appends the encoded frame to `out` (the batch-building path).
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode());
    }

    /// Decodes one frame from the front of `bytes`.
    ///
    /// A well-formed v2 frame passes one fused check; the typed checks
    /// run only when it fails.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] naming the first integrity violation found:
    /// truncation, magic, version, reserved byte (v1), checksum, sequence
    /// (v2), kind, or RR payload range, checked in that order.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Result<Report, WireError> {
        match bytes.first_chunk::<FRAME_LEN>().and_then(decode_v2) {
            Some(report) => Ok(report),
            None => Self::decode_typed(bytes),
        }
    }

    /// The typed checks, in [`Report::decode`]'s order of precedence, for
    /// a frame the fused check did not pass: every error, and v1 frames.
    #[cold]
    fn decode_typed(bytes: &[u8]) -> Result<Report, WireError> {
        let Some(frame) = bytes.first_chunk::<FRAME_LEN>() else {
            return Err(WireError::Truncated { got: bytes.len() });
        };
        if frame[0] != MAGIC {
            return Err(WireError::BadMagic { found: frame[0] });
        }
        if frame[1] != VERSION && frame[1] != VERSION_LEGACY {
            return Err(WireError::UnsupportedVersion { found: frame[1] });
        }
        if frame[1] == VERSION_LEGACY && frame[3] != 0 {
            return Err(WireError::NonZeroReserved { found: frame[3] });
        }
        let f = Fields::load(frame);
        let computed = f.checksum(prefix_state(frame[0], frame[1], frame[2]), frame[3]);
        if f.stored != computed {
            return Err(WireError::ChecksumMismatch {
                stored: f.stored,
                computed,
            });
        }
        // The body is integrity-checked from here on: the device id is
        // trustworthy and errors below can be attributed to the sender.
        let device = f.device;
        if frame[1] == VERSION && frame[3] != f.epoch as u8 {
            return Err(WireError::SeqMismatch {
                seq: frame[3],
                epoch: f.epoch,
                device,
            });
        }
        let raw = f.payload as i32;
        let payload = match frame[2] {
            0 => Payload::Value(raw),
            1 => match raw {
                0 => Payload::RrBit(false),
                1 => Payload::RrBit(true),
                other => {
                    return Err(WireError::PayloadOutOfRange {
                        found: other,
                        device,
                    })
                }
            },
            other => {
                return Err(WireError::UnknownKind {
                    found: other,
                    device,
                })
            }
        };
        Ok(Report {
            device,
            query: f.query,
            epoch: f.epoch,
            payload,
        })
    }
}

/// Frames the streaming drain decoded on the 20-byte grid.
static BATCH_FRAMES: Counter = Counter::new("fleet.decode.batch_frames");
/// Corrupt regions the streaming drain handed to the resync scanner.
static FALLBACK_CHUNKS: Counter = Counter::new("fleet.decode.fallback_chunks");
/// Stream items (frames + errors) per streaming decode.
static DECODE_BATCH_SIZE: Histogram = Histogram::new("fleet.decode.batch_size", "frames");

/// Cumulative streaming-decode counters, read via [`decode_counter_totals`].
/// Counters record at `ULP_METRICS=counters` and above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounterTotals {
    /// Frames decoded on the 20-byte grid: every stream item except the
    /// corrupt regions (well-formed reports and checksum-valid frames with
    /// a semantic error).
    pub batch_frames: u64,
    /// Corrupt regions handed to the resync scanner, one per corruption
    /// event (0 on a clean stream).
    pub fallback_chunks: u64,
}

/// Snapshots the streaming-decode counters. Benchmarks subtract two
/// snapshots to attribute a region's grid/scanner split.
pub fn decode_counter_totals() -> DecodeCounterTotals {
    DecodeCounterTotals {
        batch_frames: BATCH_FRAMES.get(),
        fallback_chunks: FALLBACK_CHUNKS.get(),
    }
}

/// Whether `bytes` starts a plausible frame: magic matches and the carried
/// checksum verifies over the body. This is the resync predicate — a
/// random offset inside a corrupt region passes with probability ≈ 2⁻¹⁶
/// per candidate, so the scanner re-acquires the true frame boundary.
fn is_sync_point(bytes: &[u8]) -> bool {
    if bytes.len() < FRAME_LEN || bytes[0] != MAGIC {
        return false;
    }
    !matches!(
        Report::decode(bytes),
        Err(WireError::Truncated { .. }
            | WireError::BadMagic { .. }
            | WireError::UnsupportedVersion { .. }
            | WireError::NonZeroReserved { .. }
            | WireError::ChecksumMismatch { .. })
    )
}

/// Output of the sequential resync scanner ([`decode_stream`]).
pub struct DecodedStream {
    /// Every decode outcome, in stream order.
    pub items: Vec<Result<Report, WireError>>,
    /// Corruption events (structural errors) the scanner skipped.
    pub corrupt_frames: u64,
    /// Times the scanner re-acquired alignment at a non-adjacent offset.
    pub resyncs: u64,
}

/// Whether this error breaks stream alignment (the frame's magic or
/// checksum failed, so its length cannot be trusted). Semantic errors —
/// bad version/kind/sequence/payload on a checksum-valid body — keep the
/// 20-byte grid.
fn is_structural(e: &WireError) -> bool {
    matches!(
        e,
        WireError::BadMagic { .. } | WireError::ChecksumMismatch { .. }
    )
}

/// The resync walk over one byte stream, one decode outcome per step.
///
/// Each step first takes [`Report::decode`]'s fused check of the frame at
/// the current offset: a clean v2 frame is passed on as it is and keeps
/// the 20-byte grid. Any other frame gets the typed checks. A well-formed
/// frame (v1), or one whose error is semantic, keeps the grid. A
/// structural error is one corruption event: the scanner hunts forward for
/// the next offset satisfying [`is_sync_point`] and resumes on the grid
/// there (or ends the walk if none remains). Fewer than [`FRAME_LEN`]
/// trailing bytes are one `Truncated` event that ends the walk.
/// [`decode_stream`] and the collector's streaming drain ([`walk_parts`])
/// both run this walk, so they cannot diverge on dirty input; the drain
/// pulls it in blocks ([`StreamWalk::decode_block`]), and the walk keeps
/// no per-block state.
pub(crate) struct StreamWalk<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether `bytes` ends the stream. If not, a step that needs bytes
    /// past the end stops the walk without consuming anything.
    last: bool,
    /// Items decoded on the grid (every item but the corruption events).
    grid_frames: u64,
    /// Corruption events the scanner skipped.
    corrupt_frames: u64,
    /// Times the scanner re-acquired alignment at a non-adjacent offset.
    resyncs: u64,
}

impl<'a> StreamWalk<'a> {
    /// A walk over the whole stream `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        StreamWalk {
            bytes,
            pos: 0,
            last: true,
            grid_frames: 0,
            corrupt_frames: 0,
            resyncs: 0,
        }
    }

    /// Passes up to `cap` decode outcomes to `emit`, in stream order, and
    /// returns how many it passed: fewer than `cap` only once the walk has
    /// stopped. A clean frame goes to `emit` straight from the fused check.
    #[inline]
    pub(crate) fn decode_block(
        &mut self,
        cap: usize,
        mut emit: impl FnMut(Result<Report, WireError>),
    ) -> usize {
        let mut n = 0;
        while n < cap {
            let rest = &self.bytes[self.pos..];
            if let Some(report) = rest.first_chunk::<FRAME_LEN>().and_then(decode_v2) {
                self.pos += FRAME_LEN;
                self.grid_frames += 1;
                emit(Ok(report));
            } else if let Some(item) = self.step() {
                emit(item);
            } else {
                break;
            }
            n += 1;
        }
        n
    }

    /// One step at a frame the fused check did not pass: the typed
    /// checks, and the resync hunt after a structural error. `None` once
    /// the walk has stopped.
    #[cold]
    fn step(&mut self) -> Option<Result<Report, WireError>> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() || (rest.len() < FRAME_LEN && !self.last) {
            return None;
        }
        if rest.len() < FRAME_LEN {
            self.pos = self.bytes.len();
            self.corrupt_frames += 1;
            return Some(Err(WireError::Truncated { got: rest.len() }));
        }
        let item = Report::decode_typed(rest);
        match item {
            Err(e) if is_structural(&e) => {
                let from = self.pos;
                let bytes = self.bytes;
                let sync = (from + 1..bytes.len().saturating_sub(FRAME_LEN - 1))
                    .find(|&j| bytes[j] == MAGIC && is_sync_point(&bytes[j..]));
                if sync.is_none() && !self.last {
                    // The hunt runs past this part of the stream.
                    return None;
                }
                self.corrupt_frames += 1;
                // No sync point: no recoverable frame remains.
                self.pos = sync.unwrap_or(bytes.len());
                if sync.is_some_and(|j| j != from + FRAME_LEN) {
                    self.resyncs += 1;
                }
            }
            // A valid magic and (for semantic errors) a valid checksum:
            // alignment is intact.
            _ => {
                self.pos += FRAME_LEN;
                self.grid_frames += 1;
            }
        }
        Some(item)
    }
}

/// Walks the concatenation of `parts` as one stream — exactly
/// [`decode_stream`]'s walk over `parts.concat()` — without concatenating
/// them. `visit` pulls each part's walk in place until it stops. A step
/// that straddles a part boundary (a frame cut in two, or a resync hunt
/// that runs off the part's end) stops the walk without consuming
/// anything, and the unconsumed tail is joined to the next part and walked
/// again. That is exact: a step's outcome depends only on the bytes from
/// its start, and a hunt that finds a sync point inside a part has found
/// the first one in the whole stream. Only a straddling tail and the part
/// after it are ever copied.
///
/// Adds the walk's grid frames and corrupt regions to the
/// `fleet.decode.*` counters and returns `(corrupt_frames, resyncs)`.
pub(crate) fn walk_parts(
    parts: &[&[u8]],
    mut visit: impl FnMut(&mut StreamWalk<'_>),
) -> (u64, u64) {
    let (mut grid, mut corrupt, mut resyncs) = (0, 0, 0);
    let mut carry: Vec<u8> = Vec::new();
    for (i, &part) in parts.iter().enumerate() {
        let joined;
        let bytes = if carry.is_empty() {
            part
        } else {
            carry.extend_from_slice(part);
            joined = std::mem::take(&mut carry);
            &joined[..]
        };
        let mut walk = StreamWalk {
            last: i + 1 == parts.len(),
            ..StreamWalk::new(bytes)
        };
        visit(&mut walk);
        grid += walk.grid_frames;
        corrupt += walk.corrupt_frames;
        resyncs += walk.resyncs;
        carry = walk.bytes[walk.pos..].to_vec();
    }
    BATCH_FRAMES.add(grid);
    FALLBACK_CHUNKS.add(corrupt);
    DECODE_BATCH_SIZE.record(grid + corrupt);
    (corrupt, resyncs)
}

/// Decodes a byte stream frame by frame, recovering from corruption: a
/// structurally broken region (bad magic, failed checksum, truncation) is
/// counted as one corruption event and the scanner hunts forward for the
/// next offset that starts a plausible frame (its magic matches and its
/// checksum verifies). Semantically invalid but well-formed frames (bad
/// version/kind/sequence/payload) keep alignment and are stepped over
/// normally. Pure function of the bytes.
pub fn decode_stream(bytes: &[u8]) -> DecodedStream {
    let mut walk = StreamWalk::new(bytes);
    let mut items = Vec::with_capacity(bytes.len() / FRAME_LEN);
    walk.decode_block(usize::MAX, |item| items.push(item));
    DecodedStream {
        items,
        corrupt_frames: walk.corrupt_frames,
        resyncs: walk.resyncs,
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::prop_oneof;

    use super::*;

    fn report() -> Report {
        Report {
            device: 0xDEAD_BEEF,
            query: 7,
            epoch: 42,
            payload: Payload::Value(-1234),
        }
    }

    /// FNV-1a over the frame body byte by byte, folded to 16 bits: the
    /// checksum as first written, the oracle for the field-word routine.
    fn byte_checksum(body: &[u8]) -> u16 {
        let mut h: u32 = 0x811C_9DC5;
        for &b in body {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        ((h >> 16) ^ (h & 0xFFFF)) as u16
    }

    /// Re-seals bytes `0..18` with a fresh checksum (forging helper).
    fn reseal(frame: &mut [u8; FRAME_LEN]) {
        let sum = byte_checksum(&frame[..18]);
        frame[18..20].copy_from_slice(&sum.to_le_bytes());
    }

    /// The encoder as first written: every field laid out byte by byte,
    /// then the checksum read back over bytes `0..18`.
    fn layout_encode(r: &Report) -> [u8; FRAME_LEN] {
        let mut frame = [0u8; FRAME_LEN];
        frame[0] = MAGIC;
        frame[1] = VERSION;
        frame[2] = r.payload.kind();
        frame[3] = (r.epoch & 0xFF) as u8;
        frame[4..8].copy_from_slice(&r.device.to_le_bytes());
        frame[8..10].copy_from_slice(&r.query.to_le_bytes());
        frame[10..14].copy_from_slice(&r.epoch.to_le_bytes());
        frame[14..18].copy_from_slice(&r.payload.raw().to_le_bytes());
        reseal(&mut frame);
        frame
    }

    /// The decoder as first written: each check in precedence order, the
    /// checksum over the body bytes.
    fn reference_decode(bytes: &[u8]) -> Result<Report, WireError> {
        if bytes.len() < FRAME_LEN {
            return Err(WireError::Truncated { got: bytes.len() });
        }
        let frame = &bytes[..FRAME_LEN];
        if frame[0] != MAGIC {
            return Err(WireError::BadMagic { found: frame[0] });
        }
        if frame[1] != VERSION && frame[1] != VERSION_LEGACY {
            return Err(WireError::UnsupportedVersion { found: frame[1] });
        }
        if frame[1] == VERSION_LEGACY && frame[3] != 0 {
            return Err(WireError::NonZeroReserved { found: frame[3] });
        }
        let stored = u16::from_le_bytes([frame[18], frame[19]]);
        let computed = byte_checksum(&frame[..18]);
        if stored != computed {
            return Err(WireError::ChecksumMismatch { stored, computed });
        }
        let device = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let epoch = u32::from_le_bytes([frame[10], frame[11], frame[12], frame[13]]);
        if frame[1] == VERSION && frame[3] != (epoch & 0xFF) as u8 {
            return Err(WireError::SeqMismatch {
                seq: frame[3],
                epoch,
                device,
            });
        }
        let raw = i32::from_le_bytes([frame[14], frame[15], frame[16], frame[17]]);
        let payload = match frame[2] {
            0 => Payload::Value(raw),
            1 => match raw {
                0 => Payload::RrBit(false),
                1 => Payload::RrBit(true),
                other => {
                    return Err(WireError::PayloadOutOfRange {
                        found: other,
                        device,
                    })
                }
            },
            other => {
                return Err(WireError::UnknownKind {
                    found: other,
                    device,
                })
            }
        };
        Ok(Report {
            device,
            query: u16::from_le_bytes([frame[8], frame[9]]),
            epoch,
            payload,
        })
    }

    fn arb_report() -> impl Strategy<Value = Report> {
        (
            any::<u32>(),
            any::<u16>(),
            prop_oneof![any::<u32>(), 0u32..600],
            any::<i32>(),
            any::<bool>(),
        )
            .prop_map(|(device, query, epoch, raw, rr)| Report {
                device,
                query,
                epoch,
                payload: if rr {
                    Payload::RrBit(raw & 1 == 1)
                } else {
                    Payload::Value(raw)
                },
            })
    }

    /// A frame the decoder must judge: a valid v2 or v1 frame, one with a
    /// wrong kind, a drifted sequence or an RR payload of 2 (each
    /// re-sealed, so only that defect remains), a raw overwrite, or
    /// random bytes; then cut or extended to 0–40 bytes.
    fn arb_decoder_input() -> impl Strategy<Value = Vec<u8>> {
        (
            arb_report(),
            0u8..7,
            any::<u8>(),
            0usize..FRAME_LEN,
            proptest::collection::vec(any::<u8>(), 0..41),
            prop_oneof![Just(FRAME_LEN), 0usize..=40],
        )
            .prop_map(|(report, defect, byte, at, noise, len)| {
                let mut frame = Report::encode(&report);
                match defect {
                    0 => {}
                    1 => {
                        frame[1] = VERSION_LEGACY;
                        frame[3] = 0;
                        reseal(&mut frame);
                    }
                    2 => {
                        frame[2] = byte;
                        reseal(&mut frame);
                    }
                    3 => {
                        frame[3] = frame[3].wrapping_add(byte.max(1));
                        reseal(&mut frame);
                    }
                    4 => {
                        frame[2] = 1;
                        frame[14..18].copy_from_slice(&2i32.to_le_bytes());
                        reseal(&mut frame);
                    }
                    5 => frame[at] = byte,
                    _ => return noise,
                }
                let mut bytes = frame.to_vec();
                bytes.extend_from_slice(&noise);
                bytes.truncate(len);
                bytes
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The field-word encoder lays out exactly the bytes of the
        /// byte-by-byte layout, checksum included, for any report.
        #[test]
        fn encode_equals_the_byte_layout_oracle(report in arb_report()) {
            prop_assert_eq!(report.encode(), layout_encode(&report));
            let mut out = vec![0xAA];
            report.encode_into(&mut out);
            prop_assert_eq!(&out[1..], &layout_encode(&report)[..]);
        }

        /// The fused decoder gives the reference decoder's verdict — the
        /// same report or the same typed error — on every input of 0–40
        /// bytes, and on every single-bit flip of its first frame.
        #[test]
        fn decode_equals_the_reference_decoder(bytes in arb_decoder_input()) {
            prop_assert_eq!(Report::decode(&bytes), reference_decode(&bytes));
            for bit in 0..bytes.len().min(FRAME_LEN) * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(Report::decode(&flipped), reference_decode(&flipped));
            }
        }
    }

    #[test]
    fn roundtrip_value_and_rr() {
        let r = report();
        assert_eq!(Report::decode(&r.encode()).unwrap(), r);
        for bit in [false, true] {
            let r = Report {
                payload: Payload::RrBit(bit),
                ..report()
            };
            assert_eq!(Report::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn encoder_stamps_epoch_low_byte_as_sequence() {
        for epoch in [0u32, 1, 255, 256, 300, 0xFFFF_FFFF] {
            let r = Report { epoch, ..report() };
            let frame = r.encode();
            assert_eq!(frame[1], VERSION);
            assert_eq!(frame[3], (epoch & 0xFF) as u8);
            assert_eq!(Report::decode(&frame).unwrap(), r);
        }
    }

    #[test]
    fn legacy_v1_frames_still_decode() {
        let r = report();
        let mut frame = r.encode();
        frame[1] = VERSION_LEGACY;
        frame[3] = 0; // v1 reserved byte
        reseal(&mut frame);
        assert_eq!(Report::decode(&frame).unwrap(), r);
        // ... but a non-zero reserved byte is rejected before the checksum.
        frame[3] = 5;
        assert_eq!(
            Report::decode(&frame),
            Err(WireError::NonZeroReserved { found: 5 })
        );
    }

    #[test]
    fn sequence_epoch_disagreement_is_attributed_to_the_sender() {
        let mut frame = report().encode();
        frame[3] = frame[3].wrapping_add(1); // a re-randomizing sender's drift
        reseal(&mut frame);
        let err = Report::decode(&frame).unwrap_err();
        assert_eq!(
            err,
            WireError::SeqMismatch {
                seq: 43,
                epoch: 42,
                device: 0xDEAD_BEEF
            }
        );
        assert_eq!(err.attributable_device(), Some(0xDEAD_BEEF));
    }

    #[test]
    fn truncated_frame_is_typed() {
        let frame = report().encode();
        assert_eq!(
            Report::decode(&frame[..FRAME_LEN - 1]),
            Err(WireError::Truncated { got: FRAME_LEN - 1 })
        );
        assert_eq!(Report::decode(&[]), Err(WireError::Truncated { got: 0 }));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = report().encode();
        for byte in 0..FRAME_LEN {
            for bit in 0..8 {
                let mut corrupt = frame;
                corrupt[byte] ^= 1 << bit;
                let err = Report::decode(&corrupt).expect_err("bit flip must not decode");
                // In-flight corruption is never attributed to the sender:
                // only post-checksum (sender-authored) violations carry an
                // id, and a flipped bit always fails before or at the
                // checksum.
                assert_eq!(
                    err.attributable_device(),
                    None,
                    "flip of byte {byte} bit {bit} must not be attributable"
                );
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected_before_checksum() {
        let mut frame = report().encode();
        frame[1] = VERSION + 1;
        assert_eq!(
            Report::decode(&frame),
            Err(WireError::UnsupportedVersion { found: VERSION + 1 })
        );
    }

    #[test]
    fn rr_payload_range_is_enforced() {
        let mut frame = Report {
            payload: Payload::RrBit(true),
            ..report()
        }
        .encode();
        // Forge payload = 2 and re-seal the checksum: the range check must
        // still reject it, and — being sender-authored — attribute it.
        frame[14..18].copy_from_slice(&2i32.to_le_bytes());
        reseal(&mut frame);
        assert_eq!(
            Report::decode(&frame),
            Err(WireError::PayloadOutOfRange {
                found: 2,
                device: 0xDEAD_BEEF
            })
        );
    }

    /// The resync scanner written out as one plain loop over the whole
    /// stream: an oracle for the [`StreamWalk`] that production runs,
    /// sharing none of its control flow.
    fn reference_scan(bytes: &[u8]) -> DecodedStream {
        let mut out = DecodedStream {
            items: Vec::new(),
            corrupt_frames: 0,
            resyncs: 0,
        };
        let mut pos = 0usize;
        while pos < bytes.len() {
            if bytes.len() - pos < FRAME_LEN {
                out.items.push(Err(WireError::Truncated {
                    got: bytes.len() - pos,
                }));
                out.corrupt_frames += 1;
                break;
            }
            let item = Report::decode(&bytes[pos..]);
            out.items.push(item);
            match item {
                Err(e) if is_structural(&e) => {
                    out.corrupt_frames += 1;
                    let next = (pos + 1..bytes.len().saturating_sub(FRAME_LEN - 1))
                        .find(|&j| bytes[j] == MAGIC && is_sync_point(&bytes[j..]));
                    match next {
                        Some(j) => {
                            if j != pos + FRAME_LEN {
                                out.resyncs += 1;
                            }
                            pos = j;
                        }
                        None => break,
                    }
                }
                _ => pos += FRAME_LEN,
            }
        }
        out
    }

    /// Block capacities the streaming decoder is pulled at: single items,
    /// small primes that put structural errors and resync hunts across
    /// block boundaries, and the drain's own block.
    const CAPACITIES: [usize; 5] = [1, 2, 3, 7, crate::collector::DRAIN_BLOCK];

    /// Pulls every item from `walk` in blocks of `cap`, checking the
    /// block contract: a short block only once the walk has stopped.
    fn drain_in_blocks(
        walk: &mut StreamWalk<'_>,
        cap: usize,
        items: &mut Vec<Result<Report, WireError>>,
    ) {
        loop {
            let before = items.len();
            let n = walk.decode_block(cap, |item| items.push(item));
            assert_eq!(n, items.len() - before, "capacity {cap}");
            if n < cap {
                assert_eq!(walk.decode_block(cap, |_| ()), 0, "capacity {cap}");
                return;
            }
        }
    }

    /// Asserts that [`decode_stream`] and the streaming decoder reproduce
    /// the reference scanner's item sequence, corruption count and resync
    /// count: the decoder pulled in blocks of every capacity in
    /// [`CAPACITIES`], and over the bytes cut into parts of several sizes
    /// (with empty parts among them), every cut a part boundary the walk
    /// must see through. Returns the reference scan.
    fn assert_streaming_matches_sequential(bytes: &[u8]) -> DecodedStream {
        let seq = reference_scan(bytes);
        let whole = decode_stream(bytes);
        assert_eq!(whole.items, seq.items);
        assert_eq!(
            (whole.corrupt_frames, whole.resyncs),
            (seq.corrupt_frames, seq.resyncs)
        );
        for cap in CAPACITIES {
            let mut walk = StreamWalk::new(bytes);
            let mut items = Vec::new();
            drain_in_blocks(&mut walk, cap, &mut items);
            assert_eq!(items, seq.items, "capacity {cap}");
            assert_eq!(
                (walk.corrupt_frames, walk.resyncs),
                (seq.corrupt_frames, seq.resyncs),
                "capacity {cap}"
            );
            assert_eq!(
                walk.grid_frames + walk.corrupt_frames,
                seq.items.len() as u64,
                "every item is a grid frame or a corrupt region"
            );
        }
        for part_len in [1, 7, FRAME_LEN, 33, 4 * FRAME_LEN + 3] {
            let mut parts: Vec<&[u8]> = bytes.chunks(part_len).collect();
            parts.insert(parts.len() / 2, &[]);
            parts.insert(0, &[]);
            for cap in [3, crate::collector::DRAIN_BLOCK] {
                let mut items = Vec::new();
                let counts = walk_parts(&parts, |walk| drain_in_blocks(walk, cap, &mut items));
                assert_eq!(items, seq.items, "parts of {part_len}, capacity {cap}");
                assert_eq!(counts, (seq.corrupt_frames, seq.resyncs));
            }
        }
        seq
    }

    fn frame_for(device: u32, epoch: u32, value: i32) -> [u8; FRAME_LEN] {
        Report {
            device,
            query: (device % 3) as u16,
            epoch,
            payload: if device.is_multiple_of(2) {
                Payload::Value(value)
            } else {
                Payload::RrBit(value & 1 == 1)
            },
        }
        .encode()
    }

    #[test]
    fn streaming_decode_matches_sequential_on_clean_multi_block_stream() {
        // Enough frames to span several drain blocks and end on a partial
        // one.
        let mut bytes = Vec::new();
        for i in 0..3 * crate::collector::DRAIN_BLOCK as u32 + 17 {
            bytes.extend_from_slice(&frame_for(i, i % 5, i as i32 - 7));
        }
        let seq = assert_streaming_matches_sequential(&bytes);
        assert!(seq.items.iter().all(Result::is_ok));
        assert_eq!(seq.corrupt_frames, 0);
    }

    #[test]
    fn streaming_decode_matches_sequential_on_semantic_errors() {
        // Semantic errors (checksum-valid, bad content) keep alignment:
        // they stay on the grid, with no corruption event.
        let mut bytes = Vec::new();
        for i in 0u32..100 {
            let mut frame = frame_for(i, 4, 9);
            if i % 7 == 0 {
                // Sender-authored sequence drift: SeqMismatch.
                frame[3] = frame[3].wrapping_add(1);
                reseal(&mut frame);
            }
            bytes.extend_from_slice(&frame);
        }
        let seq = assert_streaming_matches_sequential(&bytes);
        assert_eq!(seq.items.len(), 100);
        assert_eq!(seq.items.iter().filter(|i| i.is_err()).count(), 15);
        assert_eq!(seq.corrupt_frames, 0);
    }

    #[test]
    fn streaming_decode_matches_sequential_on_structural_corruption() {
        let mut bytes = Vec::new();
        for i in 0u32..400 {
            bytes.extend_from_slice(&frame_for(i, 1, 3));
        }
        // Smash one frame's magic and another's checksum: two corruption
        // events the scanner must resync out of.
        bytes[37 * FRAME_LEN] ^= 0xFF;
        bytes[200 * FRAME_LEN + 18] ^= 0x01;
        let seq = assert_streaming_matches_sequential(&bytes);
        assert_eq!(seq.corrupt_frames, 2);
        // Shift the rest of the stream off the grid: the hunt must cross
        // a block boundary at every small capacity.
        bytes.insert(300 * FRAME_LEN + 5, 0x00);
        assert_streaming_matches_sequential(&bytes);
        // And with a truncated tail on top.
        bytes.truncate(bytes.len() - 3);
        let seq = assert_streaming_matches_sequential(&bytes);
        assert!(seq.resyncs > 0);
    }

    #[test]
    fn streaming_decode_matches_sequential_on_garbage() {
        assert_streaming_matches_sequential(&[]);
        assert_streaming_matches_sequential(&[0x00; 64]);
        assert_streaming_matches_sequential(&[MAGIC; 64]);
        let ramp: Vec<u8> = (0..=255).collect();
        assert_streaming_matches_sequential(&ramp);
    }

    fn arb_segment() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            // A well-formed frame.
            4 => (any::<u32>(), any::<u16>(), any::<u32>(), any::<i32>(), any::<bool>()).prop_map(
                |(device, query, epoch, raw, rr)| {
                    let payload = if rr {
                        Payload::RrBit(raw & 1 == 1)
                    } else {
                        Payload::Value(raw)
                    };
                    Report { device, query, epoch, payload }.encode().to_vec()
                }
            ),
            // A frame with one flipped bit (structural or semantic).
            2 => (any::<u32>(), any::<u32>(), 0..FRAME_LEN * 8).prop_map(|(device, epoch, flip)| {
                let mut frame = frame_for(device, epoch, 11);
                frame[flip / 8] ^= 1 << (flip % 8);
                frame.to_vec()
            }),
            // Raw garbage, MAGIC-rich so resync hunts find false syncs.
            1 => proptest::collection::vec(
                prop_oneof![2 => Just(MAGIC), 3 => any::<u8>()],
                0..2 * FRAME_LEN
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For arbitrary byte soup — valid frames, bit-flipped frames,
        /// magic-rich garbage, truncated tails — the streaming decoder at
        /// every block capacity and the reference resync scanner agree
        /// item for item, including the corruption and resync counters.
        #[test]
        fn streaming_decode_equals_sequential_scan(
            segments in proptest::collection::vec(arb_segment(), 0..48),
            cut in 0usize..FRAME_LEN,
        ) {
            let mut bytes: Vec<u8> = segments.concat();
            bytes.truncate(bytes.len().saturating_sub(cut));
            assert_streaming_matches_sequential(&bytes);
        }
    }
}
