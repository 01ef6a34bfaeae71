//! Differential suite: the packed `SignaturePlanes` distance kernel must be
//! bit-for-bit identical to the scalar `difference_norm_squared` reference,
//! for both ternary and extended (Definition 10) sampling vectors, at every
//! dimension — including the u64 word boundaries the bit-plane layout packs
//! around.

use fttt::vector::{
    difference_norm_squared, PackedQuery, SamplingVector, SignaturePlanes, SignatureVector,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random face signature of dimension `dim`.
fn random_signature<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SignatureVector {
    SignatureVector::new((0..dim).map(|_| rng.gen_range(-1i8..=1)).collect())
}

/// A random ternary sampling vector (components in {−1, 0, +1, *}).
fn random_ternary<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    SamplingVector::new(
        (0..dim)
            .map(|_| match rng.gen_range(0..4) {
                0 => Some(-1.0),
                1 => Some(0.0),
                2 => Some(1.0),
                _ => None,
            })
            .collect(),
    )
}

/// A random extended sampling vector (components anywhere in [−1, 1] or *).
fn random_extended<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    SamplingVector::new(
        (0..dim)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    None
                } else {
                    Some(rng.gen_range(-1.0..=1.0f64))
                }
            })
            .collect(),
    )
}

/// Asserts packed == scalar, bit-for-bit, for every face in `sigs`, both
/// in append order and after chunking re-lays the arena out (here in
/// reverse face order, one face per chunk).
fn assert_differential(dim: usize, sigs: &[SignatureVector], v: &SamplingVector) {
    let planes = SignaturePlanes::from_signatures(dim, sigs.iter());
    let mut chunked = planes.clone();
    let reverse: Vec<u32> = (0..sigs.len() as u32).rev().collect();
    chunked.build_chunks(&reverse, &vec![0; sigs.len()]);
    let q = PackedQuery::new(v);
    for (f, sig) in sigs.iter().enumerate() {
        let scalar = difference_norm_squared(v, sig);
        for (layout, arena) in [("appended", &planes), ("chunked", &chunked)] {
            let packed = arena.distance_squared(f, &q);
            assert_eq!(
                packed.to_bits(),
                scalar.to_bits(),
                "dim {dim} face {f} ({layout}): packed {packed} != scalar {scalar}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ternary queries take the popcount kernel and agree exactly with the
    /// scalar reference over random dimensions 1..=1000.
    #[test]
    fn ternary_distance_matches_scalar(dim in 1usize..=1000, seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sigs: Vec<SignatureVector> =
            (0..4).map(|_| random_signature(dim, &mut rng)).collect();
        let v = random_ternary(dim, &mut rng);
        prop_assert!(PackedQuery::new(&v).is_packed_ternary());
        assert_differential(dim, &sigs, &v);
    }

    /// Extended (Definition 10) queries take the flat SoA fallback and agree
    /// exactly with the scalar reference over random dimensions 1..=1000.
    #[test]
    fn extended_distance_matches_scalar(dim in 1usize..=1000, seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sigs: Vec<SignatureVector> =
            (0..4).map(|_| random_signature(dim, &mut rng)).collect();
        let v = random_extended(dim, &mut rng);
        assert_differential(dim, &sigs, &v);
    }

    /// Round-tripping a signature through the bit-planes is lossless.
    #[test]
    fn signature_round_trips_through_planes(dim in 1usize..=1000, seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sig = random_signature(dim, &mut rng);
        let planes = SignaturePlanes::from_signatures(dim, [&sig]);
        prop_assert_eq!(planes.signature(0), sig.clone());
        let mut bytes = vec![0u8; dim];
        planes.component_bytes(0, &mut bytes);
        let want: Vec<u8> = sig.components().iter().map(|&c| c as u8).collect();
        prop_assert_eq!(bytes, want);
    }
}

/// Every dimension around the u64 word boundaries, exhaustively: the padding
/// bits of the last word must never leak into the distance.
#[test]
fn word_boundary_dims_match_scalar() {
    for dim in [
        1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257,
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(dim as u64);
        let sigs: Vec<SignatureVector> = (0..8).map(|_| random_signature(dim, &mut rng)).collect();
        for _ in 0..16 {
            assert_differential(dim, &sigs, &random_ternary(dim, &mut rng));
            assert_differential(dim, &sigs, &random_extended(dim, &mut rng));
        }
    }
}

/// The all-star query is distance zero from every face in both kernels.
#[test]
fn all_star_query_is_zero_everywhere() {
    for dim in [1, 64, 65, 200] {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let sigs: Vec<SignatureVector> = (0..4).map(|_| random_signature(dim, &mut rng)).collect();
        let v = SamplingVector::new(vec![None; dim]);
        assert_differential(dim, &sigs, &v);
        let planes = SignaturePlanes::from_signatures(dim, sigs.iter());
        let q = PackedQuery::new(&v);
        for f in 0..planes.face_count() {
            assert_eq!(planes.distance_squared(f, &q), 0.0);
        }
    }
}
