//! Target-mobility substrate: trajectory generation and sampling.
//!
//! The paper's simulations move the target with the **random waypoint**
//! model (\[30\], Table 1: 1–5 m/s over a 100×100 m² field, 60 s runs), and
//! its outdoor experiment walks a "⌐"-shaped waypoint path at changeable
//! speed (Fig. 13). Both generators live here:
//!
//! * [`Trace`] — a time-stamped polyline with interpolation; the common
//!   currency between mobility, sampling and error measurement.
//! * [`RandomWaypoint`] — the classic model: pick a uniform destination,
//!   travel at a uniform-random speed, optionally pause, repeat.
//! * [`WaypointPath`] — deterministic piecewise-linear paths (per-leg or
//!   randomized speeds) for scripted scenarios like the outdoor "⌐".
//! * [`GaussMarkov`] — the memory-tunable Gauss–Markov walker, used to
//!   stress comparators that assume a motion model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gauss_markov;
pub mod path;
pub mod trace;
pub mod waypoint;

pub use gauss_markov::GaussMarkov;
pub use path::WaypointPath;
pub use trace::{TimedPoint, Trace};
pub use waypoint::RandomWaypoint;
