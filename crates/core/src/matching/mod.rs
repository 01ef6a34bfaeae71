//! Matching a sampling vector to a face (Section 4.4).
//!
//! * [`match_exhaustive`] — maximum-likelihood matching over every face
//!   (the `O(n⁴)` ergodic scan).
//! * [`match_indexed`] — the same maximum-likelihood outcome, bit for
//!   bit, via coarse-to-fine descent over the map's chunk index: whole
//!   chunks are pruned by an envelope lower bound before any face is
//!   scanned, making full-accuracy matching sublinear in practice.
//! * [`match_heuristic`] — Algorithm 2: hill-climb over neighbor-face
//!   links from a start face (the previous localization when tracking),
//!   dropping the per-localization cost to `O(n²)` in practice.
//!
//! Full-accuracy matches in production go through [`match_indexed`];
//! [`match_exhaustive`] is its test oracle and the extended-query path.

mod algorithms;

pub use algorithms::{match_exhaustive, match_heuristic, match_indexed, MatchOutcome};
pub(crate) use algorithms::{match_heuristic_packed, match_indexed_packed};
