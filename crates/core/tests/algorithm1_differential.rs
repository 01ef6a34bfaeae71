//! Differential suite: the dense node-major Algorithm-1 kernel behind
//! `basic_sampling_vector` / `extended_sampling_vector` must agree bit for
//! bit with a per-pair reference built on `PairEvidence::gather` and the
//! eq. (6) missing-node rules, over sparse and dense matrices, exact ties,
//! all-silent columns, and nodes that both respond but never at the same
//! instant.

use fttt::sampling::{basic_sampling_vector, extended_sampling_vector, PairEvidence};
use fttt::vector::SamplingVector;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsn_network::{GroupSampling, PairIter};
use wsn_signal::Rss;

/// Readings come from a small set so exact ties are common; `-0.0` and
/// `0.0` compare equal, as they must for a tie.
const VALUES: [f64; 6] = [-60.0, -55.5, -55.0, -50.0, -0.0, 0.0];

/// A `k × n` grouping: each node is silent, reports only at even instants,
/// only at odd instants, or at any instant, and each reading it may report
/// is missing with probability `density`. Even-only and odd-only nodes
/// both respond but share no instant.
fn random_group(n: usize, k: usize, density: f64, seed: u64) -> GroupSampling {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let modes: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..6)).collect();
    let mut group = GroupSampling::empty(n, k);
    for t in 0..k {
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

/// The per-pair reference: eq. (6) for the missing-node cases, `both` on
/// the evidence `PairEvidence::gather` collects one reading at a time.
fn reference(group: &GroupSampling, both: impl Fn(PairEvidence) -> f64) -> SamplingVector {
    SamplingVector::new(
        PairIter::new(group.node_count())
            .map(
                |(i, j)| match (group.node_responded(i), group.node_responded(j)) {
                    (true, true) => Some(both(PairEvidence::gather(group, i, j))),
                    (true, false) => Some(1.0),
                    (false, true) => Some(-1.0),
                    (false, false) => None,
                },
            )
            .collect(),
    )
}

/// Definition 4: `±1` only when every co-observed instant agrees.
fn basic_rule(ev: PairEvidence) -> f64 {
    if ev.sequential > 0 && ev.reverse == 0 && ev.ties == 0 {
        1.0
    } else if ev.reverse > 0 && ev.sequential == 0 && ev.ties == 0 {
        -1.0
    } else {
        0.0
    }
}

/// Definition 10: `(N_seq − N_rev) / N_common`, `0` with no common instant.
fn extended_rule(ev: PairEvidence) -> f64 {
    let common = ev.common();
    if common == 0 {
        0.0
    } else {
        (ev.sequential as f64 - ev.reverse as f64) / common as f64
    }
}

fn assert_bits_equal(kernel: &SamplingVector, reference: &SamplingVector, what: &str) {
    assert_eq!(kernel.len(), reference.len(), "{what}: dimension");
    for (p, (a, b)) in kernel
        .components()
        .iter()
        .zip(reference.components())
        .enumerate()
    {
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{what}: pair {p}: kernel {a:?} != reference {b:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_per_pair_reference(
        n in 2usize..=48,
        k in 1usize..=16,
        density in 0.0f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        let group = random_group(n, k, density, seed);
        let what = format!("n={n} k={k} density={density} seed={seed}");
        assert_bits_equal(
            &basic_sampling_vector(&group),
            &reference(&group, basic_rule),
            &format!("basic {what}"),
        );
        assert_bits_equal(
            &extended_sampling_vector(&group),
            &reference(&group, extended_rule),
            &format!("extended {what}"),
        );
    }
}

/// The two ends of the density range, exhaustively over small shapes:
/// every reading present, and every reading missing.
#[test]
fn full_and_empty_matrices_match_reference() {
    for n in 2..=6 {
        for k in 1..=4 {
            for density in [0.0, 1.0] {
                let group = random_group(n, k, density, (n * 16 + k) as u64);
                let what = format!("n={n} k={k} density={density}");
                assert_bits_equal(
                    &basic_sampling_vector(&group),
                    &reference(&group, basic_rule),
                    &what,
                );
                assert_bits_equal(
                    &extended_sampling_vector(&group),
                    &reference(&group, extended_rule),
                    &what,
                );
            }
        }
    }
}
