//! Differential suite: the bit-parallel Algorithm-1 kernel
//! (`QueryBuilder`) must write the very query that packing the reference
//! sampling vector gives — `PackedQuery::new` of the (projected)
//! `basic_sampling_vector` / `extended_sampling_vector` — plane word for
//! plane word, extended term for term (compared by `to_bits`), in the same
//! ternary or extended form, with the same known-pair mask in both forms
//! and the same `*` and zero counts.
//!
//! Node counts straddle the 64-bit word boundaries of both the per-node
//! sets (64, 65, 66, 129) and the pair planes; groupings carry missing
//! readings, silent instants and nodes, exact ties within and across
//! instants, and live-node subsets as a churn repair leaves them.

use fttt::facemap::{FaceMap, RepairMode};
use fttt::sampling::{basic_sampling_vector, extended_sampling_vector, QueryBuilder};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt::vector::{PackedQuery, SamplingVector};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsn_geometry::{Point, Rect};
use wsn_network::GroupSampling;
use wsn_signal::Rss;

/// Readings come from a small set so exact ties are common, within an
/// instant and across instants; `-0.0` and `0.0` must tie.
const VALUES: [f64; 6] = [-60.0, -55.5, -55.0, -50.0, -0.0, 0.0];

/// A `k × n` grouping. Each node is silent, reports only at even
/// instants, only at odd ones, or at any; about one instant in eight is
/// silent for every node; each remaining reading is missing with
/// probability `density`.
fn random_group(n: usize, k: usize, density: f64, seed: u64) -> GroupSampling {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let modes: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..6)).collect();
    let mut group = GroupSampling::empty(n, k);
    for t in 0..k {
        if rng.gen_range(0u8..8) == 0 {
            continue;
        }
        for (j, &mode) in modes.iter().enumerate() {
            let allowed = match mode {
                0 => false,
                1 => t % 2 == 0,
                2 => t % 2 == 1,
                _ => true,
            };
            if allowed && rng.gen_range(0.0..1.0) >= density {
                let value = VALUES[rng.gen_range(0..VALUES.len())];
                group.set(t, j, Some(Rss::new(value)));
            }
        }
    }
    group
}

/// An ascending subset of `0..n` with at least two nodes, as a map's live
/// list after some deaths.
fn random_live(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11fe);
    let mut live: Vec<u32> = (0..n as u32)
        .filter(|_| rng.gen_range(0u8..4) != 0)
        .collect();
    for extra in 0..n as u32 {
        if live.len() >= 2 {
            break;
        }
        if !live.contains(&extra) {
            live.push(extra);
        }
    }
    live.sort_unstable();
    live
}

/// The reference: Algorithm 1 per pair, the live-pair projection by
/// gathering the kept pairs, then `PackedQuery::new`.
fn reference(group: &GroupSampling, live: Option<&[u32]>, extended: bool) -> PackedQuery {
    let v = if extended {
        extended_sampling_vector(group)
    } else {
        basic_sampling_vector(group)
    };
    let v = match live {
        None => v,
        Some(live) => {
            let n = group.node_count();
            let comps = v.components();
            let mut kept = Vec::new();
            for (a, &i) in live.iter().enumerate() {
                for &j in &live[a + 1..] {
                    let (i, j) = (i as usize, j as usize);
                    kept.push(comps[i * (2 * n - i - 1) / 2 + (j - i - 1)]);
                }
            }
            SamplingVector::new(kept)
        }
    };
    PackedQuery::new(&v)
}

fn assert_same(kernel: &PackedQuery, reference: &PackedQuery, what: &str) {
    assert_eq!(kernel.dim(), reference.dim(), "{what}: dimension");
    assert_eq!(
        kernel.is_packed_ternary(),
        reference.is_packed_ternary(),
        "{what}: form"
    );
    assert_eq!(
        kernel.unknown_count(),
        reference.unknown_count(),
        "{what}: * count"
    );
    assert_eq!(
        kernel.zero_count(),
        reference.zero_count(),
        "{what}: zero count"
    );
    if let Some((kp, km, kq)) = kernel.ternary_planes() {
        let (rp, rm, rq) = reference.ternary_planes().expect("same form");
        for (name, a, b) in [("plus", kp, rp), ("minus", km, rm), ("present", kq, rq)] {
            assert_eq!(a.len(), b.len(), "{what}: {name} words");
            for (w, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x, y, "{what}: {name} word {w}: {x:#018x} != {y:#018x}");
            }
        }
    }
    let (kk, rk) = (kernel.known_mask(), reference.known_mask());
    assert_eq!(kk.len(), rk.len(), "{what}: known-mask words");
    for (w, (x, y)) in kk.iter().zip(rk).enumerate() {
        assert_eq!(x, y, "{what}: known-mask word {w}: {x:#018x} != {y:#018x}");
    }
    if let Some(kt) = kernel.extended_terms() {
        let rt = reference.extended_terms().expect("same form");
        assert_eq!(kt.len(), rt.len(), "{what}: term count");
        for (p, (x, y)) in kt.iter().zip(rt).enumerate() {
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "{what}: pair {p} terms {x:?} != {y:?}"
            );
        }
    }
}

/// Both variants of `group` over `live`, through one reused builder (a
/// stale buffer from an earlier build must not leak into the next).
fn check(builder: &mut QueryBuilder, group: &GroupSampling, live: Option<&[u32]>, what: &str) {
    for extended in [false, true] {
        let what = format!("{what} extended={extended}");
        let kernel = builder.build(group, live, extended);
        assert_same(kernel, &reference(group, live, extended), &what);
    }
}

/// Node counts around the word boundaries.
const SIZES: [usize; 8] = [2, 3, 11, 12, 64, 65, 66, 129];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_packed_reference(
        n in (0usize..SIZES.len()).prop_map(|i| SIZES[i]),
        k in prop_oneof![1usize..=12, Just(70usize)],
        density in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
        subset in prop_oneof![Just(false), Just(true)],
    ) {
        let group = random_group(n, k, density, seed);
        let live = subset.then(|| random_live(n, seed));
        let what = format!("n={n} k={k} density={density} seed={seed} live={live:?}");
        check(&mut QueryBuilder::new(), &group, live.as_deref(), &what);
    }
}

/// One builder across shapes that grow, shrink and change `k`, every
/// instant silent, every node silent, and every reading present.
#[test]
fn reused_builder_matches_across_shapes() {
    let mut builder = QueryBuilder::new();
    for (i, &(n, k)) in [(129, 70), (3, 1), (66, 12), (2, 5), (65, 2), (12, 64)]
        .iter()
        .enumerate()
    {
        for density in [0.0, 0.5, 1.0] {
            let seed = (i * 7) as u64;
            let group = random_group(n, k, density, seed);
            check(
                &mut builder,
                &group,
                None,
                &format!("n={n} k={k} d={density}"),
            );
            let live = random_live(n, seed);
            check(
                &mut builder,
                &group,
                Some(&live),
                &format!("n={n} k={k} live"),
            );
        }
        check(
            &mut builder,
            &GroupSampling::empty(n, k),
            None,
            &format!("n={n} k={k} silent"),
        );
    }
}

/// Ties only: every node reads the same value at every instant, so every
/// pair is `0` in both variants (balanced: `seq == rev == 0`).
#[test]
fn all_tied_grouping_is_all_zero() {
    let (n, k) = (70, 4);
    let mut group = GroupSampling::empty(n, k);
    for t in 0..k {
        for j in 0..n {
            group.set(t, j, Some(Rss::new(if t % 2 == 0 { -0.0 } else { 0.0 })));
        }
    }
    let mut builder = QueryBuilder::new();
    check(&mut builder, &group, None, "all tied");
    let q = builder.build(&group, None, true);
    assert!(q.is_packed_ternary());
    assert_eq!(q.zero_count(), q.dim());
}

/// The live columns a churned map hands the builder give the query of
/// the projected vector, and the tracker's query is that query.
#[test]
fn churned_map_query_equals_projected_vector() {
    let positions: Vec<Point> = (0..9)
        .map(|i| Point::new(15.0 + 35.0 * (i % 3) as f64, 15.0 + 35.0 * (i / 3) as f64))
        .collect();
    let mut map = FaceMap::build(&positions, Rect::square(100.0), 1.15, 4.0);
    map.kill_node(4, RepairMode::Incremental);
    map.kill_node(0, RepairMode::Incremental);
    let live = map.query_columns(9).expect("two nodes died").to_vec();
    assert_eq!(live, vec![1, 2, 3, 5, 6, 7, 8]);
    assert_eq!(map.query_columns(7), None, "already in live-pair space");
    let mut builder = QueryBuilder::new();
    for seed in 0..16 {
        let group = random_group(9, 1 + seed as usize % 12, 0.3, seed);
        for extended in [false, true] {
            let v = if extended {
                extended_sampling_vector(&group)
            } else {
                basic_sampling_vector(&group)
            };
            let projected = PackedQuery::new(&map.project_sampling_vector(v));
            let what = format!("seed={seed} extended={extended}");
            assert_same(
                builder.build(&group, Some(&live), extended),
                &projected,
                &what,
            );
            let options = TrackerOptions {
                extended,
                ..TrackerOptions::default()
            };
            let tracker = Tracker::new(map.clone(), options);
            assert_same(&tracker.query(&group), &projected, &what);
        }
    }
}
