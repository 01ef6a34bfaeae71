//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌────────────┬─────────────┬──────────┬───────────┐
//! │ len: u32 LE│ version: u8 │ kind: u8 │ body ...  │
//! └────────────┴─────────────┴──────────┴───────────┘
//! ```
//!
//! where `len` counts the payload (version byte onward). All integers are
//! little-endian; every `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]), so readings and estimates round-trip **bit-exactly**
//! — the property the replay digests check end-to-end.
//!
//! Robustness contract (the trust-model stance of the ISSUE): a decoder
//! must never panic and never allocate proportionally to an attacker's
//! length prefix. Oversized frames are rejected from the 4-byte header
//! alone ([`WireError::Oversize`]); every read is bounds-checked
//! ([`WireError::Truncated`]); unknown versions and kinds are typed
//! errors, not UB. A server answers a bad frame with [`Frame::Error`] and
//! closes the connection — sessions owned by that connection are swept,
//! so a malformed client can't leak slots.

use fttt::session::{Cause, SessionRound, TrackStatus};
use fttt::FaceId;
use wsn_geometry::Point;
use wsn_network::GroupSampling;
use wsn_signal::Rss;

/// Baseline protocol version carried in every untraced frame.
pub const WIRE_VERSION: u8 = 1;

/// Traced protocol minor version: identical to [`WIRE_VERSION`] except
/// that a non-zero 64-bit trace id follows the kind byte. Both sides
/// accept v1 and v2 interchangeably, so old clients keep working; a v2
/// frame whose trace id is zero is rejected as non-canonical (untraced
/// frames must travel as v1), mirroring the zero-padding checks on every
/// other optional field.
pub const WIRE_VERSION_TRACED: u8 = 2;

/// Default upper bound on a payload, bytes. A push of
/// [`MAX_ROUNDS_PER_PUSH`] rounds at the paper's dimensions is ~100 KiB,
/// so 1 MiB leaves generous headroom without letting a hostile length
/// prefix reserve real memory.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Maximum rounds in one `Push` / results in one `Rounds` frame.
pub const MAX_ROUNDS_PER_PUSH: usize = 256;

/// Maximum `nodes × instants` cells in one encoded grouping.
pub const MAX_GROUP_CELLS: usize = 1 << 16;

/// Frame kind bytes (client → server in `0x0*`, server → client `0x8*`).
mod kind {
    pub const OPEN: u8 = 0x01;
    pub const PUSH: u8 = 0x02;
    pub const CLOSE: u8 = 0x03;
    pub const CHURN: u8 = 0x04;
    pub const SHUTDOWN: u8 = 0x05;
    pub const OPEN_ACK: u8 = 0x81;
    pub const ROUNDS: u8 = 0x82;
    pub const CLOSE_ACK: u8 = 0x83;
    pub const CHURN_ACK: u8 = 0x84;
    pub const SHUTDOWN_ACK: u8 = 0x85;
    pub const ERROR: u8 = 0xEE;
}

/// Why a server refused a frame (the `code` of [`Frame::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed to decode (truncated, bad value, unknown kind).
    Malformed,
    /// The frame's version byte names no supported protocol version.
    UnsupportedVersion,
    /// The length prefix exceeded the connection's frame bound.
    Oversize,
    /// The session id is not (or no longer) registered.
    UnknownSession,
    /// The owning shard's ingest queue was full; the batch was shed and
    /// never reached the session — retry after draining replies.
    Overloaded,
    /// The server is at its configured session capacity.
    SessionLimit,
    /// A churn request named an invalid node or transition.
    BadChurn,
    /// The server is draining and will not accept new work. Unlike
    /// [`ErrorCode::Overloaded`] this is *not* retryable — the shard
    /// that owned the work is gone.
    ShuttingDown,
    /// A code this client does not know (forward compatibility).
    Other(u16),
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::Oversize => 3,
            ErrorCode::UnknownSession => 4,
            ErrorCode::Overloaded => 5,
            // 6 was the churn invalidation, which sessions now survive: it
            // decodes as `Other(6)` and must not be reused.
            ErrorCode::SessionLimit => 7,
            ErrorCode::BadChurn => 8,
            ErrorCode::ShuttingDown => 9,
            ErrorCode::Other(c) => c,
        }
    }

    /// Decodes a wire code; unknown values round-trip via
    /// [`ErrorCode::Other`].
    pub fn from_u16(c: u16) -> Self {
        match c {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::Oversize,
            4 => ErrorCode::UnknownSession,
            5 => ErrorCode::Overloaded,
            7 => ErrorCode::SessionLimit,
            8 => ErrorCode::BadChurn,
            9 => ErrorCode::ShuttingDown,
            other => ErrorCode::Other(other),
        }
    }
}

/// One timestamped grouping sampling pushed to a session.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadingRound {
    /// Round timestamp, seconds.
    pub t: f64,
    /// The readings matrix (missing cells = non-responding sensors).
    pub group: GroupSampling,
}

/// One session round as reported over the wire — the full
/// [`SessionRound`] + trace surface, flattened to plain scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundResult {
    /// Zero-based round index within the session.
    pub round: u64,
    /// Round timestamp, seconds.
    pub t: f64,
    /// Reported estimate.
    pub x: f64,
    /// Reported estimate.
    pub y: f64,
    /// Status before the round's checks, encoded via [`status_to_u8`].
    pub status_before: u8,
    /// Status after the round's checks.
    pub status: u8,
    /// Failure cause, encoded via [`cause_to_u8`].
    pub cause: u8,
    /// Matched face + 1; `0` = blackout hold (the replay convention).
    pub face: u64,
    /// Match similarity, `None` on a blackout hold.
    pub similarity: Option<f64>,
    /// Fraction of `*` components in the sampling vector.
    pub missing_fraction: f64,
    /// Fraction of known components that sampled exactly zero.
    pub zero_fraction: f64,
    /// Sampling times `k` this round ran with.
    pub samples: u32,
    /// Sampling times requested for the next round.
    pub k_after: u32,
    /// Verdict bits, see [`flags`].
    pub flags: u8,
}

/// Bit positions of [`RoundResult::flags`].
pub mod flags {
    /// The grouping was empty / all-missing.
    pub const BLACKOUT: u8 = 1 << 0;
    /// Similarity fell below the relative re-acquisition threshold.
    pub const STRANDED: u8 = 1 << 1;
    /// Missing fraction exceeded the monitor's bound.
    pub const STARVED: u8 = 1 << 2;
    /// The estimate jumped farther than the target could travel.
    pub const TELEPORTED: u8 = 1 << 3;
    /// The reported estimate is a hold, not a fresh localization.
    pub const HELD: u8 = 1 << 4;
    /// The session forced an exhaustive-quality re-acquisition.
    pub const REACQUIRED: u8 = 1 << 5;
}

/// [`TrackStatus`] → wire byte: its index in [`TrackStatus::ALL`].
pub fn status_to_u8(s: TrackStatus) -> u8 {
    s as u8
}

/// Wire byte → [`TrackStatus`].
pub fn status_from_u8(b: u8) -> Result<TrackStatus, WireError> {
    TrackStatus::ALL
        .get(usize::from(b))
        .copied()
        .ok_or(WireError::BadValue("track status"))
}

/// Round [`Cause`] → wire byte: its discriminant.
pub fn cause_to_u8(cause: Cause) -> u8 {
    cause as u8
}

/// Wire byte → [`Cause`].
pub fn cause_from_u8(b: u8) -> Result<Cause, WireError> {
    Cause::ALL
        .get(usize::from(b))
        .copied()
        .ok_or(WireError::BadValue("round cause"))
}

impl RoundResult {
    /// Flattens an engine round for the wire, preserving every field the
    /// replay digest folds.
    pub fn from_round(r: &SessionRound) -> Self {
        let t = &r.trace;
        let mut f = 0u8;
        if t.blackout {
            f |= flags::BLACKOUT;
        }
        if t.stranded {
            f |= flags::STRANDED;
        }
        if t.starved {
            f |= flags::STARVED;
        }
        if t.teleported {
            f |= flags::TELEPORTED;
        }
        if r.held {
            f |= flags::HELD;
        }
        if r.reacquired {
            f |= flags::REACQUIRED;
        }
        RoundResult {
            round: t.round,
            t: r.t,
            x: r.estimate.x,
            y: r.estimate.y,
            status_before: status_to_u8(t.status_before),
            status: status_to_u8(r.status),
            cause: cause_to_u8(t.cause),
            face: r.face.map_or(0, |f| f.0 as u64 + 1),
            similarity: r.similarity,
            missing_fraction: r.missing_fraction,
            zero_fraction: t.zero_fraction,
            samples: r.samples as u32,
            k_after: t.k_after as u32,
            flags: f,
        }
    }

    /// Reconstructs the engine-side round this result flattened, for
    /// digesting and field-by-field comparison against an in-process run.
    pub fn to_session_round(&self) -> Result<SessionRound, WireError> {
        Ok(SessionRound {
            t: self.t,
            estimate: Point::new(self.x, self.y),
            status: status_from_u8(self.status)?,
            samples: self.samples as usize,
            face: match self.face {
                0 => None,
                id => {
                    if id - 1 > u32::MAX as u64 {
                        return Err(WireError::BadValue("face id"));
                    }
                    Some(FaceId((id - 1) as u32))
                }
            },
            similarity: self.similarity,
            missing_fraction: self.missing_fraction,
            reacquired: self.flags & flags::REACQUIRED != 0,
            held: self.flags & flags::HELD != 0,
            trace: fttt::session::RoundTrace {
                round: self.round,
                status_before: status_from_u8(self.status_before)?,
                cause: cause_from_u8(self.cause)?,
                blackout: self.flags & flags::BLACKOUT != 0,
                stranded: self.flags & flags::STRANDED != 0,
                starved: self.flags & flags::STARVED != 0,
                teleported: self.flags & flags::TELEPORTED != 0,
                zero_fraction: self.zero_fraction,
                k_after: self.k_after as usize,
            },
        })
    }
}

/// Every frame of the protocol (versions 1 and 2 share one frame set;
/// v2 additionally carries a trace id, see [`WIRE_VERSION_TRACED`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client: open a session. `client_tag` is echoed in the ack so
    /// pipelined opens can be matched up.
    Open {
        /// Caller's correlation tag, echoed verbatim.
        client_tag: u64,
        /// Use extended (Section 6) sampling vectors.
        extended: bool,
    },
    /// Client: feed rounds of readings to a session.
    Push {
        /// Target session id (from [`Frame::OpenAck`]).
        session: u64,
        /// Batched rounds, oldest first.
        rounds: Vec<ReadingRound>,
    },
    /// Client: close a session and collect its digest.
    Close {
        /// Target session id.
        session: u64,
    },
    /// Client: kill (`death`) or revive a deployment node on the shared
    /// map. Bumps the epoch; every open session adopts the repaired map.
    Churn {
        /// Deployment node index.
        node: u32,
        /// `true` = kill, `false` = revive.
        death: bool,
    },
    /// Client (admin): ask the process to finish up and exit.
    Shutdown,
    /// Server: a session is open.
    OpenAck {
        /// The tag from [`Frame::Open`].
        client_tag: u64,
        /// The session id for all further frames.
        session: u64,
        /// Map epoch the session is bound to.
        epoch: u64,
        /// [`fttt::replay::digest_face_map`] of the map the session will
        /// match against — clients cross-check their local map.
        map_digest: u64,
    },
    /// Server: results for one [`Frame::Push`], in round order.
    Rounds {
        /// The session these results belong to.
        session: u64,
        /// One result per pushed round.
        results: Vec<RoundResult>,
        /// Running session digest (replay-digest fold over *all* rounds so
        /// far) after this batch.
        digest: u64,
    },
    /// Server: a session closed cleanly.
    CloseAck {
        /// The closed session.
        session: u64,
        /// Total rounds the session stepped.
        rounds: u64,
        /// Final session digest.
        digest: u64,
    },
    /// Server: the churn repair completed.
    ChurnAck {
        /// Map epoch after the repair.
        epoch: u64,
        /// Digest of the repaired map.
        map_digest: u64,
    },
    /// Server: shutdown acknowledged; the process is draining.
    ShutdownAck,
    /// Server: a request was refused. The connection stays open unless
    /// the error was a framing violation.
    Error {
        /// Why.
        code: ErrorCode,
        /// The session id / client tag the error refers to, `0` if none.
        context: u64,
        /// Human-readable detail.
        detail: String,
    },
}

/// A typed decode failure. Never panics, never echoes attacker-sized
/// allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The length prefix exceeds the connection's configured bound.
    Oversize {
        /// Claimed payload length.
        len: u32,
        /// The bound it violated.
        max: u32,
    },
    /// The version byte names no supported protocol version.
    BadVersion(u8),
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// A field held an out-of-domain value (named).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversize { len, max } => {
                write!(f, "payload length {len} exceeds frame bound {max}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::BadValue(what) => write!(f, "bad value for {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: u8, trace: u64) -> Self {
        // Length placeholder first; patched in finish(). A zero trace id
        // encodes as v1 (no trace field); non-zero as v2 with the id
        // right after the kind byte.
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0, 0, 0, 0]);
        if trace == 0 {
            buf.push(WIRE_VERSION);
            buf.push(kind);
        } else {
            buf.push(WIRE_VERSION_TRACED);
            buf.push(kind);
            buf.extend_from_slice(&trace.to_le_bytes());
        }
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

fn encode_group(w: &mut Writer, round: &ReadingRound) {
    let g = &round.group;
    w.f64(round.t);
    w.u16(g.node_count() as u16);
    w.u16(g.instants() as u16);
    let cells = g.node_count() * g.instants();
    // Presence bitmap, instant-major (bit i ↔ instant i / nodes,
    // node i % nodes), then the present readings' dBm values in the
    // same order.
    let mut bitmap = vec![0u8; cells.div_ceil(8)];
    let mut values = Vec::new();
    for instant in 0..g.instants() {
        for node in 0..g.node_count() {
            let i = instant * g.node_count() + node;
            if let Some(r) = g.get(instant, node) {
                bitmap[i / 8] |= 1 << (i % 8);
                values.push(r.dbm());
            }
        }
    }
    w.bytes(&bitmap);
    for v in values {
        w.f64(v);
    }
}

fn encode_result(w: &mut Writer, r: &RoundResult) {
    w.u64(r.round);
    w.f64(r.t);
    w.f64(r.x);
    w.f64(r.y);
    w.u8(r.status_before);
    w.u8(r.status);
    w.u8(r.cause);
    w.u64(r.face);
    w.u8(r.similarity.is_some() as u8);
    w.f64(r.similarity.unwrap_or(0.0));
    w.f64(r.missing_fraction);
    w.f64(r.zero_fraction);
    w.u32(r.samples);
    w.u32(r.k_after);
    w.u8(r.flags);
}

impl Frame {
    /// Encodes the frame as v1 (untraced), length prefix included.
    ///
    /// # Panics
    ///
    /// Panics if a `Push`/`Rounds` batch exceeds [`MAX_ROUNDS_PER_PUSH`]
    /// or a grouping exceeds [`MAX_GROUP_CELLS`] / `u16` dimensions —
    /// producer-side programming errors, not wire conditions.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(0)
    }

    /// Encodes the frame carrying `trace` as its correlation id. A zero
    /// trace id produces a v1 frame bit-identical to [`Frame::encode`];
    /// a non-zero id produces a [`WIRE_VERSION_TRACED`] frame.
    ///
    /// # Panics
    ///
    /// Same bounds as [`Frame::encode`].
    pub fn encode_traced(&self, trace: u64) -> Vec<u8> {
        match self {
            Frame::Open {
                client_tag,
                extended,
            } => {
                let mut w = Writer::new(kind::OPEN, trace);
                w.u64(*client_tag);
                w.u8(*extended as u8);
                w.finish()
            }
            Frame::Push { session, rounds } => {
                assert!(
                    rounds.len() <= MAX_ROUNDS_PER_PUSH,
                    "push batch of {} exceeds MAX_ROUNDS_PER_PUSH",
                    rounds.len()
                );
                let mut w = Writer::new(kind::PUSH, trace);
                w.u64(*session);
                w.u16(rounds.len() as u16);
                for r in rounds {
                    let g = &r.group;
                    assert!(
                        g.node_count() <= u16::MAX as usize
                            && g.instants() <= u16::MAX as usize
                            && g.node_count() * g.instants() <= MAX_GROUP_CELLS,
                        "grouping {}×{} exceeds wire bounds",
                        g.node_count(),
                        g.instants()
                    );
                    encode_group(&mut w, r);
                }
                w.finish()
            }
            Frame::Close { session } => {
                let mut w = Writer::new(kind::CLOSE, trace);
                w.u64(*session);
                w.finish()
            }
            Frame::Churn { node, death } => {
                let mut w = Writer::new(kind::CHURN, trace);
                w.u32(*node);
                w.u8(*death as u8);
                w.finish()
            }
            Frame::Shutdown => Writer::new(kind::SHUTDOWN, trace).finish(),
            Frame::OpenAck {
                client_tag,
                session,
                epoch,
                map_digest,
            } => {
                let mut w = Writer::new(kind::OPEN_ACK, trace);
                w.u64(*client_tag);
                w.u64(*session);
                w.u64(*epoch);
                w.u64(*map_digest);
                w.finish()
            }
            Frame::Rounds {
                session,
                results,
                digest,
            } => {
                assert!(
                    results.len() <= MAX_ROUNDS_PER_PUSH,
                    "result batch of {} exceeds MAX_ROUNDS_PER_PUSH",
                    results.len()
                );
                let mut w = Writer::new(kind::ROUNDS, trace);
                w.u64(*session);
                w.u16(results.len() as u16);
                for r in results {
                    encode_result(&mut w, r);
                }
                w.u64(*digest);
                w.finish()
            }
            Frame::CloseAck {
                session,
                rounds,
                digest,
            } => {
                let mut w = Writer::new(kind::CLOSE_ACK, trace);
                w.u64(*session);
                w.u64(*rounds);
                w.u64(*digest);
                w.finish()
            }
            Frame::ChurnAck { epoch, map_digest } => {
                let mut w = Writer::new(kind::CHURN_ACK, trace);
                w.u64(*epoch);
                w.u64(*map_digest);
                w.finish()
            }
            Frame::ShutdownAck => Writer::new(kind::SHUTDOWN_ACK, trace).finish(),
            Frame::Error {
                code,
                context,
                detail,
            } => {
                let mut w = Writer::new(kind::ERROR, trace);
                w.u16(code.as_u16());
                w.u64(*context);
                w.bytes(detail.as_bytes());
                w.finish()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool")),
        }
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            // Trailing garbage is as malformed as a short frame.
            Err(WireError::BadValue("trailing bytes"))
        }
    }
}

fn decode_group(r: &mut Reader) -> Result<ReadingRound, WireError> {
    let t = r.f64()?;
    let nodes = r.u16()? as usize;
    let instants = r.u16()? as usize;
    if nodes == 0 || instants == 0 {
        return Err(WireError::BadValue("empty grouping dimensions"));
    }
    let cells = nodes * instants;
    if cells > MAX_GROUP_CELLS {
        return Err(WireError::BadValue("grouping cell count"));
    }
    let bitmap = r.take(cells.div_ceil(8))?.to_vec();
    // Canonical encoding: padding bits past the last cell must be zero,
    // so decode ∘ encode is the identity on bytes as well as values.
    if !cells.is_multiple_of(8) && bitmap[cells / 8] >> (cells % 8) != 0 {
        return Err(WireError::BadValue("bitmap padding bits"));
    }
    let mut group = GroupSampling::empty(nodes, instants);
    for instant in 0..instants {
        for node in 0..nodes {
            let i = instant * nodes + node;
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                group.set(instant, node, Some(Rss::new(r.f64()?)));
            }
        }
    }
    Ok(ReadingRound { t, group })
}

fn decode_result(r: &mut Reader) -> Result<RoundResult, WireError> {
    let round = r.u64()?;
    let t = r.f64()?;
    let x = r.f64()?;
    let y = r.f64()?;
    let status_before = r.u8()?;
    let status = r.u8()?;
    let cause = r.u8()?;
    let face = r.u64()?;
    let has_sim = r.bool()?;
    let sim = r.f64()?;
    // Canonical encoding: an absent similarity is padded with +0.0.
    if !has_sim && sim.to_bits() != 0 {
        return Err(WireError::BadValue("similarity padding"));
    }
    let missing_fraction = r.f64()?;
    let zero_fraction = r.f64()?;
    let samples = r.u32()?;
    let k_after = r.u32()?;
    let flags = r.u8()?;
    Ok(RoundResult {
        round,
        t,
        x,
        y,
        status_before,
        status,
        cause,
        face,
        similarity: has_sim.then_some(sim),
        missing_fraction,
        zero_fraction,
        samples,
        k_after,
        flags,
    })
}

impl Frame {
    /// Decodes one payload (the bytes after the length prefix),
    /// discarding any v2 trace id. See [`Frame::decode_traced`].
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        Frame::decode_traced(payload).map(|(frame, _)| frame)
    }

    /// Decodes one payload (the bytes after the length prefix) together
    /// with its correlation trace id: `0` for a v1 frame, the carried id
    /// for a [`WIRE_VERSION_TRACED`] frame. A v2 frame with trace id `0`
    /// is non-canonical and rejected — the untraced encoding of the same
    /// frame is v1, so accepting both would break decode∘encode identity.
    pub fn decode_traced(payload: &[u8]) -> Result<(Frame, u64), WireError> {
        let mut r = Reader::new(payload);
        let version = r.u8()?;
        if version != WIRE_VERSION && version != WIRE_VERSION_TRACED {
            return Err(WireError::BadVersion(version));
        }
        let k = r.u8()?;
        let trace = if version == WIRE_VERSION_TRACED {
            match r.u64()? {
                0 => return Err(WireError::BadValue("zero trace id in traced frame")),
                id => id,
            }
        } else {
            0
        };
        let frame = match k {
            kind::OPEN => Frame::Open {
                client_tag: r.u64()?,
                extended: r.bool()?,
            },
            kind::PUSH => {
                let session = r.u64()?;
                let count = r.u16()? as usize;
                if count > MAX_ROUNDS_PER_PUSH {
                    return Err(WireError::BadValue("push round count"));
                }
                let mut rounds = Vec::with_capacity(count);
                for _ in 0..count {
                    rounds.push(decode_group(&mut r)?);
                }
                Frame::Push { session, rounds }
            }
            kind::CLOSE => Frame::Close { session: r.u64()? },
            kind::CHURN => Frame::Churn {
                node: r.u32()?,
                death: r.bool()?,
            },
            kind::SHUTDOWN => Frame::Shutdown,
            kind::OPEN_ACK => Frame::OpenAck {
                client_tag: r.u64()?,
                session: r.u64()?,
                epoch: r.u64()?,
                map_digest: r.u64()?,
            },
            kind::ROUNDS => {
                let session = r.u64()?;
                let count = r.u16()? as usize;
                if count > MAX_ROUNDS_PER_PUSH {
                    return Err(WireError::BadValue("result count"));
                }
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    results.push(decode_result(&mut r)?);
                }
                let digest = r.u64()?;
                Frame::Rounds {
                    session,
                    results,
                    digest,
                }
            }
            kind::CLOSE_ACK => Frame::CloseAck {
                session: r.u64()?,
                rounds: r.u64()?,
                digest: r.u64()?,
            },
            kind::CHURN_ACK => Frame::ChurnAck {
                epoch: r.u64()?,
                map_digest: r.u64()?,
            },
            kind::SHUTDOWN_ACK => Frame::ShutdownAck,
            kind::ERROR => {
                let code = ErrorCode::from_u16(r.u16()?);
                let context = r.u64()?;
                let rest = r.take(payload.len() - r.pos)?;
                let detail = String::from_utf8(rest.to_vec())
                    .map_err(|_| WireError::BadValue("error detail utf-8"))?;
                Frame::Error {
                    code,
                    context,
                    detail,
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.done()?;
        Ok((frame, trace))
    }
}

// ---------------------------------------------------------------------
// Framed I/O
// ---------------------------------------------------------------------

/// Why a framed read stopped.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// The transport failed.
    Io(std::io::Error),
    /// The bytes arrived but are not a valid frame.
    Protocol(WireError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Io(e) => write!(f, "i/o error: {e}"),
            RecvError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Writes one frame (v1, untraced).
pub fn write_frame<W: std::io::Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Writes one frame carrying `trace` as its correlation id (`0` emits a
/// plain v1 frame).
pub fn write_frame_traced<W: std::io::Write>(
    w: &mut W,
    frame: &Frame,
    trace: u64,
) -> std::io::Result<()> {
    w.write_all(&frame.encode_traced(trace))
}

/// Reads one frame, discarding any trace id. See [`read_frame_traced`].
pub fn read_frame<R: std::io::Read>(r: &mut R, max_frame: u32) -> Result<Frame, RecvError> {
    read_frame_traced(r, max_frame).map(|(frame, _)| frame)
}

/// Reads one frame plus its correlation trace id (`0` for v1 frames),
/// enforcing `max_frame` on the payload length *before* allocating. EOF
/// exactly at a frame boundary is [`RecvError::Closed`]; EOF mid-frame is
/// a truncation ([`RecvError::Protocol`]).
pub fn read_frame_traced<R: std::io::Read>(
    r: &mut R,
    max_frame: u32,
) -> Result<(Frame, u64), RecvError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    RecvError::Closed
                } else {
                    RecvError::Protocol(WireError::Truncated)
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > max_frame {
        return Err(RecvError::Protocol(WireError::Oversize {
            len,
            max: max_frame,
        }));
    }
    if len < 2 {
        return Err(RecvError::Protocol(WireError::Truncated));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(RecvError::Protocol(WireError::Truncated)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Frame::decode_traced(&payload).map_err(RecvError::Protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_round_trips_with_missing_cells() {
        let mut g = GroupSampling::empty(3, 2);
        g.set(0, 0, Some(Rss::new(-41.25)));
        g.set(1, 2, Some(Rss::new(-87.0)));
        let frame = Frame::Push {
            session: 7,
            rounds: vec![ReadingRound { t: 1.5, group: g }],
        };
        let bytes = frame.encode();
        let decoded = Frame::decode(&bytes[4..]).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn error_detail_round_trips() {
        let frame = Frame::Error {
            code: ErrorCode::BadChurn,
            context: 42,
            detail: "node 42 → already dead".into(),
        };
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), frame);
        assert_eq!(ErrorCode::from_u16(6), ErrorCode::Other(6));
    }

    #[test]
    fn oversize_is_rejected_from_the_header_alone() {
        // 4 GiB claim against a 1 KiB bound: must fail without trying to
        // allocate or read the claimed payload.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor, 1024) {
            Err(RecvError::Protocol(WireError::Oversize { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn traced_frames_round_trip_and_v1_stays_bit_identical() {
        let frame = Frame::Close { session: 9 };
        // Zero trace id encodes as v1 — byte-for-byte the old encoding.
        assert_eq!(frame.encode_traced(0), frame.encode());
        assert_eq!(frame.encode()[4], WIRE_VERSION);
        // A non-zero id rides as v2 and round-trips.
        let bytes = frame.encode_traced(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(bytes[4], WIRE_VERSION_TRACED);
        let (decoded, trace) = Frame::decode_traced(&bytes[4..]).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(trace, 0xDEAD_BEEF_CAFE_F00D);
        // The untraced decoder serves old readers: same frame, id dropped.
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), frame);
    }

    #[test]
    fn traced_push_round_trips_with_payload() {
        let mut g = GroupSampling::empty(3, 2);
        g.set(0, 1, Some(Rss::new(-55.5)));
        let frame = Frame::Push {
            session: 7,
            rounds: vec![ReadingRound { t: 1.5, group: g }],
        };
        let bytes = frame.encode_traced(42);
        let (decoded, trace) = Frame::decode_traced(&bytes[4..]).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(trace, 42);
    }

    #[test]
    fn zero_trace_id_in_v2_is_non_canonical() {
        // Hand-build a v2 frame whose trace field is zero: version 2,
        // kind CLOSE, trace 0, session 9.
        let mut payload = vec![WIRE_VERSION_TRACED, 0x03];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&9u64.to_le_bytes());
        match Frame::decode_traced(&payload) {
            Err(WireError::BadValue(what)) => assert!(what.contains("trace"), "{what}"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn truncated_trace_id_is_truncated_not_panic() {
        let payload = [WIRE_VERSION_TRACED, 0x03, 1, 2, 3];
        assert_eq!(
            Frame::decode_traced(&payload).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn status_and_cause_bytes_are_total() {
        // The wire bytes are fixed: declaration order.
        assert_eq!(TrackStatus::ALL.map(status_to_u8), [0, 1, 2]);
        assert_eq!(TrackStatus::ALL[1], TrackStatus::Degraded);
        for s in TrackStatus::ALL {
            assert_eq!(status_from_u8(status_to_u8(s)).unwrap(), s);
        }
        assert!(status_from_u8(3).is_err());
        assert_eq!(Cause::ALL.map(cause_to_u8), [0, 1, 2, 3, 4]);
        assert_eq!(Cause::ALL[4], Cause::Teleported);
        for c in Cause::ALL {
            assert_eq!(cause_from_u8(cause_to_u8(c)).unwrap(), c);
        }
        assert!(cause_from_u8(5).is_err());
    }
}
