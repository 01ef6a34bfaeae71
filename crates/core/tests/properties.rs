//! Property-based tests for the FTTT core: vector invariants, Algorithm 1,
//! face-map structure and matching, over randomized worlds.

use fttt::facemap::{signature_of, FaceMap};
use fttt::matching::{match_exhaustive, match_heuristic};
use fttt::sampling::{basic_sampling_vector, extended_sampling_vector};
use fttt::theory;
use fttt::vector::{difference_norm_squared, similarity, SamplingVector, SignatureVector};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_geometry::{Point, Rect};
use wsn_network::{pair_count, Deployment, FaultModel, GroupSampler, SensorField};
use wsn_signal::PathLossModel;

fn arb_positions(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (1.0..99.0f64, 1.0..99.0f64).prop_map(|(x, y)| Point::new(x, y)),
        n,
    )
}

fn arb_signature(dim: usize) -> impl Strategy<Value = SignatureVector> {
    prop::collection::vec(-1i8..=1, dim..=dim).prop_map(SignatureVector::new)
}

fn arb_sampling(dim: usize) -> impl Strategy<Value = SamplingVector> {
    prop::collection::vec(
        prop_oneof![Just(None), (-1.0..=1.0f64).prop_map(Some)],
        dim..=dim,
    )
    .prop_map(SamplingVector::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Similarity is maximal exactly on equality, and never negative.
    #[test]
    fn similarity_identity(sig in arb_signature(8)) {
        let as_sampling = SamplingVector::new(
            sig.components().iter().map(|&c| Some(c as f64)).collect(),
        );
        prop_assert_eq!(similarity(&as_sampling, &sig), f64::INFINITY);
    }

    /// The *-aware distance is bounded by the all-components-worst case
    /// and shrinks (weakly) when a component is replaced by '*'.
    #[test]
    fn star_components_never_increase_distance(
        v in arb_sampling(10),
        sig in arb_signature(10),
        idx in 0usize..10,
    ) {
        let d = difference_norm_squared(&v, &sig);
        prop_assert!(d <= 10.0 * 4.0 + 1e-9);
        let mut comps: Vec<Option<f64>> = v.components().to_vec();
        comps[idx] = None;
        let starred = SamplingVector::new(comps);
        prop_assert!(difference_norm_squared(&starred, &sig) <= d + 1e-12);
    }

    /// Algorithm 1's output always has dimension C(n,2), values in the
    /// ternary set, and '*' exactly where both nodes were silent.
    #[test]
    fn algorithm1_shape(
        positions in arb_positions(2..8),
        target in (1.0..99.0f64, 1.0..99.0f64).prop_map(|(x, y)| Point::new(x, y)),
        seed in 0u64..1000,
        k in 1usize..7,
        fail in 0.0..0.9f64,
    ) {
        let field = Rect::square(100.0);
        let deployment = Deployment::explicit(&positions, field);
        let sf = SensorField::new(deployment, 150.0);
        let sampler = GroupSampler::new(PathLossModel::paper_default(), k)
            .with_fault(FaultModel::with_node_failure(fail));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let group = sampler.sample(&sf, target, &mut rng);
        let v = basic_sampling_vector(&group);
        prop_assert_eq!(v.len(), pair_count(positions.len()));
        prop_assert!(v.is_ternary());
        // '*' ⟺ both silent.
        let mut idx = 0;
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let expect_star = !group.node_responded(i) && !group.node_responded(j);
                prop_assert_eq!(v.component(idx).is_none(), expect_star, "pair ({}, {})", i, j);
                idx += 1;
            }
        }
        // Extended vector: same '*' pattern, values within [-1, 1], and
        // zero exactly-ordinal disagreement with the basic vector's signs.
        let e = extended_sampling_vector(&group);
        prop_assert_eq!(e.len(), v.len());
        for (b, x) in v.components().iter().zip(e.components()) {
            prop_assert_eq!(b.is_none(), x.is_none());
            if let (Some(b), Some(x)) = (b, x) {
                if *b == 1.0 { prop_assert!(*x > 0.0 || *x == 0.0 && *b == 0.0); }
                if *b == -1.0 { prop_assert!(*x <= 0.0); }
            }
        }
    }

    /// Face maps partition the raster and index consistently, for random
    /// deployments and constants.
    #[test]
    fn facemap_invariants(
        positions in arb_positions(2..6),
        c in 1.0..1.6f64,
    ) {
        let field = Rect::square(100.0);
        let map = FaceMap::build(&positions, field, c, 4.0);
        let total: usize = map.faces().iter().map(|f| f.cell_count).sum();
        prop_assert_eq!(total, map.grid().cell_count());
        let mut signatures = std::collections::HashSet::new();
        for f in map.faces() {
            // Planes are unique per face.
            prop_assert!(signatures.insert(map.signature(f.id)));
            prop_assert!(field.contains(f.centroid));
            prop_assert!(f.bbox.contains(f.centroid));
            for &nb in map.neighbors(f.id) {
                prop_assert!(map.neighbors(nb).contains(&f.id));
                prop_assert!(nb != f.id);
            }
        }
        // face_at agrees with the exact classifier on cell centres.
        for (_, center) in map.grid().iter_centers().step_by(7) {
            let id = map.face_at(center).unwrap();
            prop_assert_eq!(
                map.signature(id),
                signature_of(center, &positions, c)
            );
        }
    }

    /// Exhaustive matching returns the true argmax: no face beats it.
    #[test]
    fn exhaustive_is_argmax(
        positions in arb_positions(3..6),
        v_seed in 0u64..500,
    ) {
        let field = Rect::square(100.0);
        let map = FaceMap::build(&positions, field, 1.2, 4.0);
        let dim = map.pair_dimension();
        let mut rng = ChaCha8Rng::seed_from_u64(v_seed);
        let comps: Vec<Option<f64>> = (0..dim)
            .map(|_| {
                use rand::Rng;
                match rng.gen_range(0..4) {
                    0 => Some(-1.0),
                    1 => Some(0.0),
                    2 => Some(1.0),
                    _ => None,
                }
            })
            .collect();
        let v = SamplingVector::new(comps);
        let out = match_exhaustive(&map, &v);
        for f in map.faces() {
            prop_assert!(similarity(&v, &map.signature(f.id)) <= out.similarity);
        }
        // Ties really are ties.
        for &id in &out.ties {
            prop_assert_eq!(similarity(&v, &map.signature(id)), out.similarity);
        }
        // The heuristic never reports a better-than-optimal similarity.
        let h = match_heuristic(&map, &v, map.center_face());
        prop_assert!(h.similarity <= out.similarity);
    }

    /// Theory: the sampling-times bound is the minimal satisfying k, and
    /// probabilities stay in [0, 1].
    #[test]
    fn theory_bounds(lambda in 0.5..0.999f64, n_pairs in 1usize..2000) {
        let k = theory::required_sampling_times(lambda, n_pairs);
        let p = theory::all_flips_probability(k, n_pairs);
        prop_assert!(p > lambda);
        prop_assert!((0.0..=1.0).contains(&p));
        if k > 1 {
            prop_assert!(theory::all_flips_probability(k - 1, n_pairs) <= lambda);
        }
        prop_assert!(theory::expected_vector_error(k, n_pairs) >= 0.0);
    }
}
