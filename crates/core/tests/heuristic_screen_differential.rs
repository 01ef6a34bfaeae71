//! Differential suite for the extended climb's screen: `match_heuristic`
//! on a Definition-10 query must return exactly what a climb that takes
//! every visited neighbour's full sum returns — same face, same similarity
//! bits, same ties, same `evaluated` and `rounds` — on random maps, random
//! and sampled extended queries, and constructed near-ties the screen must
//! hand to the exact comparison.
//!
//! The per-neighbour exact climb lives only here, as the oracle.

use fttt::matching::{match_heuristic, MatchOutcome};
use fttt::sampling::extended_sampling_vector;
use fttt::vector::{PackedQuery, SamplingVector};
use fttt::{FaceId, FaceMap, PaperParams};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashSet, VecDeque};
use wsn_geometry::{Point, Rect};

/// Algorithm 2 with the plateau walk, taking every visited neighbour's
/// exact kernel sum: the climb as it was before the screen.
fn oracle_climb(map: &FaceMap, v: &SamplingVector, start: FaceId) -> MatchOutcome {
    const PLATEAU_BUDGET: usize = 64;
    let q = PackedQuery::new(v);
    let d2 = |f: FaceId| map.planes().distance_squared(f.index(), &q);
    let mut visited = HashSet::from([start]);
    let (mut best_d2, mut best_face) = (d2(start), start);
    let mut ties = vec![start];
    let (mut evaluated, mut rounds) = (1, 0);
    let mut frontier = VecDeque::from([start]);
    let mut since_improvement = 0;
    while let Some(face) = frontier.pop_front() {
        if since_improvement >= PLATEAU_BUDGET {
            break;
        }
        since_improvement += 1;
        for &nb in map.neighbors(face) {
            if !visited.insert(nb) {
                continue;
            }
            let d = d2(nb);
            evaluated += 1;
            if d < best_d2 {
                best_d2 = d;
                best_face = nb;
                ties.clear();
                ties.push(nb);
                frontier.clear();
                frontier.push_back(nb);
                since_improvement = 0;
                rounds += 1;
            } else if d == best_d2 {
                ties.push(nb);
                frontier.push_back(nb);
            }
        }
    }
    MatchOutcome {
        face: best_face,
        similarity: if best_d2 == 0.0 {
            f64::INFINITY
        } else {
            1.0 / best_d2.sqrt()
        },
        ties,
        evaluated,
        rounds,
    }
}

/// Asserts the production climb is the oracle's, bit for bit.
fn assert_same_climb(map: &FaceMap, v: &SamplingVector, start: FaceId, what: &str) {
    let got = match_heuristic(map, v, start);
    let want = oracle_climb(map, v, start);
    assert_eq!(got.face, want.face, "{what}: face");
    assert_eq!(
        got.similarity.to_bits(),
        want.similarity.to_bits(),
        "{what}: similarity {} vs {}",
        got.similarity,
        want.similarity
    );
    assert_eq!(got.ties, want.ties, "{what}: ties");
    assert_eq!(got.evaluated, want.evaluated, "{what}: evaluated");
    assert_eq!(got.rounds, want.rounds, "{what}: rounds");
}

fn arb_positions(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (1.0..99.0f64, 1.0..99.0f64).prop_map(|(x, y)| Point::new(x, y)),
        n,
    )
}

/// An extended vector with values anywhere in `[−1, 1]`, a fifth `*`.
fn random_extended<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    SamplingVector::new(
        (0..dim)
            .map(|_| (rng.gen_range(0..5) != 0).then(|| rng.gen_range(-1.0..=1.0f64)))
            .collect(),
    )
}

/// An extended vector over `{−1, −½, 0, ½, 1, *}`: a value of `0` makes
/// a `+1` face and a `−1` face pay the same term, a value of `½` a `0`
/// face and a `+1` face, so differing pairs cancel exactly and many faces
/// tie. One `½` guarantees the extended form.
fn cancelling_extended<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    let mut comps: Vec<Option<f64>> = (0..dim)
        .map(|_| match rng.gen_range(0..6) {
            0 => None,
            k => Some([-1.0, -0.5, 0.0, 0.5, 1.0][k - 1]),
        })
        .collect();
    comps[rng.gen_range(0..dim)] = Some(0.5);
    SamplingVector::new(comps)
}

/// An extended vector over `{−1, −⅔, −⅓, 0, ⅓, ⅔, 1, *}`, Definition-10
/// values of three or six common instants. Their terms are not dyadic, so
/// two faces whose differing pairs trade the same terms (`4/9` and `1/9`
/// swapped between two pairs) have the same real sum but pair-order float
/// sums that may differ in the last bits: only the exact comparison can
/// order them.
fn thirds_extended<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> SamplingVector {
    let mut comps: Vec<Option<f64>> = (0..dim)
        .map(|_| match rng.gen_range(0..8) {
            0 => None,
            k => Some((k as f64 - 4.0) / 3.0),
        })
        .collect();
    comps[rng.gen_range(0..dim)] = Some(1.0 / 3.0);
    SamplingVector::new(comps)
}

/// A few start faces spread over the map.
fn starts(map: &FaceMap) -> Vec<FaceId> {
    let n = map.face_count();
    let mut s: Vec<FaceId> = [0, n / 3, n / 2, n - 1]
        .into_iter()
        .map(|i| FaceId(i as u32))
        .collect();
    s.push(map.center_face());
    s.dedup();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random deployments, random and cancelling extended queries, from
    /// several starts.
    #[test]
    fn screened_climb_is_the_exact_climb(
        positions in arb_positions(3..13),
        cell in prop_oneof![Just(2.0f64), Just(4.0)],
        seed in 0u64..u64::MAX,
    ) {
        let map = FaceMap::build(&positions, Rect::square(100.0), 1.15, cell);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dim = map.pair_dimension();
        for trial in 0..4 {
            for (kind, v) in [
                ("random", random_extended(dim, &mut rng)),
                ("cancelling", cancelling_extended(dim, &mut rng)),
                ("thirds", thirds_extended(dim, &mut rng)),
            ] {
                if PackedQuery::new(&v).is_packed_ternary() {
                    continue;
                }
                for start in starts(&map) {
                    assert_same_climb(&map, &v, start, &format!("{kind} {trial} from {start:?}"));
                }
            }
        }
    }
}

/// Definition-10 vectors of real groupings along a path, each climb
/// warm-started from the previous winner as a tracking session does.
#[test]
fn sampled_extended_queries_climb_exactly() {
    for (nodes, cell) in [(8, 2.0), (20, 2.0), (40, 4.0)] {
        let params = PaperParams::default()
            .with_nodes(nodes)
            .with_cell_size(cell);
        let mut rng = ChaCha8Rng::seed_from_u64(11 + nodes as u64);
        let field = params.random_field(&mut rng);
        let map = params.face_map(&field);
        let sampler = params.sampler();
        let mut start = map.center_face();
        for i in 0..40 {
            let p = Point::new(10.0 + 2.0 * i as f64, 30.0 + i as f64);
            let group = sampler.sample(&field, p, &mut rng);
            let v = map.project_sampling_vector(extended_sampling_vector(&group));
            assert_same_climb(&map, &v, start, &format!("n = {nodes}, round {i}"));
            start = match_heuristic(&map, &v, start).face;
        }
    }
}

/// Faces that differ only in `*` pairs tie exactly, and so do faces whose
/// differing known pairs cancel: the climb must keep both on its tie list
/// and plateau, as the exact climb does.
#[test]
fn constructed_near_ties_climb_exactly() {
    let positions = [
        Point::new(20.0, 25.0),
        Point::new(75.0, 30.0),
        Point::new(40.0, 80.0),
        Point::new(65.0, 60.0),
        Point::new(15.0, 70.0),
    ];
    let map = FaceMap::build(&positions, Rect::square(100.0), 1.15, 2.0);
    let mut star_ties = 0;
    let mut cancel_ties = 0;
    for f in map.faces().iter().step_by(5) {
        let sig = map.signature(f.id);
        for &g in map.neighbors(f.id) {
            let other = map.signature(g);
            let differ: Vec<usize> = (0..sig.len())
                .filter(|&p| sig.components()[p] != other.components()[p])
                .collect();
            // `f`'s own signature scaled off the ternary values, with the
            // pairs where `f` and `g` differ unknown: the two faces' sums
            // add the same terms in the same order.
            let starred = SamplingVector::new(
                (0..sig.len())
                    .map(|p| (!differ.contains(&p)).then(|| sig.components()[p] as f64 * 0.75))
                    .collect(),
            );
            // The differing pairs known, at the value both faces pay
            // alike: `0` between `+1` and `−1`, `±½` between `0` and `±1`.
            let cancelled = SamplingVector::new(
                (0..sig.len())
                    .map(|p| {
                        let (a, b) = (sig.components()[p], other.components()[p]);
                        Some(if a == b {
                            a as f64 * 0.75
                        } else {
                            (a + b) as f64 / 2.0
                        })
                    })
                    .collect(),
            );
            for (v, count) in [(&starred, &mut star_ties), (&cancelled, &mut cancel_ties)] {
                if PackedQuery::new(v).is_packed_ternary() {
                    continue;
                }
                let q = PackedQuery::new(v);
                let planes = map.planes();
                if planes.distance_squared(f.id.index(), &q)
                    == planes.distance_squared(g.index(), &q)
                {
                    *count += 1;
                }
                assert_same_climb(&map, v, f.id, &format!("{:?} vs {g:?}", f.id));
                assert_same_climb(&map, v, g, &format!("{g:?} vs {:?}", f.id));
            }
        }
    }
    assert!(
        star_ties > 0,
        "no face pair differing only in `*` pairs tied"
    );
    assert!(cancel_ties > 0, "no face pair with cancelling pairs tied");
}
