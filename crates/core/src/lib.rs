//! # FTTT — Fault-Tolerant Target Tracking under unreliable sensing
//!
//! Reproduction of the tracking strategy of *"Rethinking of the
//! Uncertainty: A Fault-Tolerant Target-Tracking Strategy Based on
//! Unreliable Sensing in Wireless Sensor Networks"* (Xie et al., 2012).
//!
//! The strategy turns tracking into vector matching:
//!
//! 1. **Offline** (preprocessing): every node pair's *uncertain area* —
//!    bounded by two Apollonius circles with the radio-derived ratio
//!    constant `C` — slices the monitored field into **faces**; each face
//!    carries a unique ternary **signature vector** over all node pairs
//!    ([`facemap`]).
//! 2. **Online** (per localization): a **grouping sampling** of `k`
//!    quasi-simultaneous RSS readings is reduced, pair by pair, to a
//!    **sampling vector** — `+1`/`-1` when the pair's order was stable
//!    across the group, `0` when it flipped, `*` when readings were missing
//!    ([`sampling`], Algorithm 1 + the fault-tolerance rule eq. 6).
//! 3. The target is placed in the face whose signature maximizes the
//!    similarity `S = 1/‖V_d − V_s‖` ([`matching`]) — either exhaustively
//!    or by hill-climbing over neighbor-face links warm-started from the
//!    previous estimate (Algorithm 2).
//! 4. The **extended** strategy (Section 6) replaces ternary pair values
//!    with the quantitative `P(sequential) − P(reverse) ∈ [−1, 1]`,
//!    breaking similarity ties and smoothing the output trajectory.
//!
//! [`tracker`] wires the steps into a driver; [`theory`] implements the
//! Section-5 analysis (sampling-times bound, expected vector error);
//! [`config`] captures the paper's Table-1 parameter set.
//!
//! ## Quickstart
//!
//! ```
//! use fttt::config::PaperParams;
//! use fttt::tracker::{Tracker, TrackerOptions};
//! use rand::SeedableRng;
//!
//! let params = PaperParams::default().with_nodes(10);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let field = params.random_field(&mut rng);
//! let map = params.face_map(&field);
//! let sampler = params.sampler();
//! let trace = params.random_trace(10.0, &mut rng);
//!
//! let mut tracker = Tracker::new(map, TrackerOptions::default());
//! let run = tracker.track(&field, &sampler, &trace, &mut rng);
//! let err = run.error_stats();
//! assert!(err.mean < 30.0, "tracking should be far better than blind guessing");
//! ```

// `deny`, not `forbid`: the one sanctioned exception is `vector::simd`,
// which carries an explicit `allow` for the `std::arch` SIMD distance
// kernels (runtime-dispatched, differentially tested against the safe
// scalar loop). Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diagnostics;
pub mod error;
pub mod facemap;
pub mod matching;
pub mod postprocess;
pub mod replay;
pub mod sampling;
pub mod session;
pub mod theory;
pub mod tracker;
pub mod vector;

pub use config::{ConstantRule, NoiseModel, PaperParams};
pub use facemap::{Face, FaceId, FaceMap, RepairMode, RepairReport};
pub use matching::{match_exhaustive, match_heuristic, match_indexed, MatchOutcome};
pub use sampling::{basic_sampling_vector, extended_sampling_vector};
pub use session::{
    status_name, RoundTrace, SessionOptions, SessionRound, SessionRun, TrackStatus, TrackingSession,
};
pub use tracker::{Tracker, TrackerOptions, TrackingRun};
pub use vector::{SamplingVector, SignatureVector};
