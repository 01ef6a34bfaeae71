//! Sampling and signature vectors and their similarity metric.
//!
//! Both vector kinds have one component per node pair, indexed by the
//! canonical enumeration of `wsn_network::pairs`:
//!
//! * [`SignatureVector`] — the ternary label of a face (Definition 6):
//!   `+1` nearer the smaller-ID node, `-1` nearer the larger, `0` inside
//!   the pair's uncertain area.
//! * [`SamplingVector`] — what one grouping sampling observed
//!   (Definitions 4/5, extended by Definition 10 and the `*` of eq. 6):
//!   each component is `Some(v)` with `v ∈ [−1, 1]` (basic vectors use only
//!   `{−1, 0, +1}`) or `None` for `*` (no information — both nodes silent).
//!
//! [`similarity`] implements Definition 7 with the `*`-aware difference of
//! Definition 8/9: missing components contribute zero to the distance, and
//! an exact match has similarity `+∞`.
//!
//! [`SignaturePlanes`]/[`PackedQuery`] are the packed fast path: face
//! signatures stored as bit-planes (two `u64` words per 64 pairs) with a
//! branch-free popcount distance kernel, bit-identical to the scalar
//! [`difference_norm_squared`] reference. The ternary kernel dispatches
//! to runtime-detected SIMD (AVX2/SSE2/NEON; [`active_kernel`],
//! [`force_kernel`]), and the planes can carry coarse chunk summaries
//! ([`SignaturePlanes::build_chunks`]) whose envelope lower bound
//! ([`SignaturePlanes::chunk_lower_bound`]) powers the indexed matcher.

mod hugepages;
mod planes;
mod sampling_vec;
mod signature;
mod simd;
mod similarity;

pub(crate) use planes::{component_terms, QueryParts};
pub use planes::{words_for, PackedQuery, SignaturePlanes};
pub use sampling_vec::SamplingVector;
pub use signature::SignatureVector;
pub use simd::{active_kernel, available_kernels, force_kernel, KernelKind};
pub use similarity::{difference_norm_squared, similarity};
