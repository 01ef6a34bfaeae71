//! Constructing sampling vectors from grouping samplings.
//!
//! [`basic_sampling_vector`] is the paper's Algorithm 1 plus the
//! fault-tolerance rule of eq. (6); [`extended_sampling_vector`] is the
//! Section-6 extension (Definition 10) that keeps the *degree* of flipping
//! instead of collapsing it to `0`. Both build a [`SamplingVector`], the
//! reference form the tests and the baselines read.
//!
//! The tracking hot path skips that vector: [`QueryBuilder`] runs
//! Algorithm 1 (over bit-parallel rank sets for basic queries) and writes
//! the round's [`PackedQuery`] directly, bit-identical to packing the
//! reference vector.
//!
//! [`SamplingVector`]: crate::vector::SamplingVector
//! [`PackedQuery`]: crate::vector::PackedQuery

mod algorithm1;

pub(crate) use algorithm1::ROUND_BUILDER;
pub use algorithm1::{basic_sampling_vector, extended_sampling_vector, PairEvidence, QueryBuilder};
