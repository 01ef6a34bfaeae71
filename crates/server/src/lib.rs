//! Tracking-as-a-service: the FTTT engine behind a TCP wire.
//!
//! After eight PRs the self-healing tracking core was still driven only by
//! in-process benches. This crate makes it a *system under load*: a
//! length-prefixed binary protocol ([`wire`]), a session registry sharded
//! across worker threads over **one** shared immutable [`fttt::FaceMap`]
//! ([`server`]), bounded ingest queues that shed explicitly instead of
//! buffering without bound, and live churn: a repair of the shared map is
//! adopted by every open session, which keeps tracking on the new map.
//!
//! The determinism contract carries over the wire unchanged: the server
//! folds every round through [`fttt::replay::digest_round`] and reports
//! the running digest with each reply, so a client running a shadow
//! in-process [`fttt::session::TrackingSession`] on the same readings can
//! check **bit-identity** end-to-end — the `serve_smoke` tier-1 test, the
//! `serve_load` client and the benchmark's 10⁴-session shadow check all
//! do.
//!
//! Robustness stance (the trust-model papers' lesson applied to the
//! transport): a hostile or broken client can produce truncated frames,
//! absurd length prefixes, wrong versions, unknown sessions — the server
//! answers each with a typed [`wire::ErrorCode`], frees whatever the
//! connection owned, and keeps serving everyone else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod ops;
pub mod server;
pub mod wire;

pub use client::{ClientError, Connection, OpenInfo};
pub use ops::{OpsError, OpsHandle};
pub use server::{Server, ServerConfig, SessionStatus, SessionView};
pub use wire::{
    read_frame, read_frame_traced, write_frame, write_frame_traced, ErrorCode, Frame, ReadingRound,
    RecvError, RoundResult, WireError, DEFAULT_MAX_FRAME, MAX_ROUNDS_PER_PUSH, WIRE_VERSION,
    WIRE_VERSION_TRACED,
};
