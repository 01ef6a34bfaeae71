//! Comparator trackers the paper evaluates FTTT against (Section 7):
//!
//! * [`DirectMle`] — "Direct maximum likelihood estimation" tracking in the
//!   style of sequence-based localization (Yedavalli & Krishnamachari,
//!   paper ref. \[24\]): the field is divided by perpendicular **bisectors**
//!   (no uncertain areas — the `C = 1` degenerate division), each
//!   localization takes a **one-shot** detection sequence and matches it to
//!   the most similar face. No temporal state.
//! * [`PathMatching`] — "optimal path matching with MLE" in the style of
//!   Zhong et al. (paper ref. \[22\]): same certain-face division and
//!   one-shot sequences, but localizations are chained by a
//!   **maximum-velocity constraint** — the tracker keeps a beam of path
//!   hypotheses and extends each only to faces reachable within `v_max·Δt`,
//!   reporting the best-scoring hypothesis. This reproduces both PM's
//!   strength (temporal smoothing) and the weakness the paper calls out
//!   (it must *assume* a maximum target velocity).
//!
//! Both baselines deliberately share FTTT's substrate (same radio model,
//! same sampler, same raster machinery) so every accuracy difference in
//! the benchmarks comes from the strategies themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod direct_mle;
pub mod ekf;
pub mod one_shot;
pub mod particle;
pub mod path_matching;
pub mod wcl;

pub use direct_mle::DirectMle;
pub use ekf::ExtendedKalman;
pub use one_shot::one_shot_vector;
pub use particle::ParticleFilter;
pub use path_matching::PathMatching;
pub use wcl::WeightedCentroid;
