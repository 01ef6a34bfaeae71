//! Algorithm 1 (sampling-vector construction), its fault-tolerant fill
//! (eq. 6) and the quantitative extension (Definition 10).

use crate::vector::SamplingVector;
use wsn_network::{pair_count, GroupSampling};

/// The order evidence a grouping sampling holds for one node pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairEvidence {
    /// Instants (with both readings present) where `rss_i > rss_j`.
    pub sequential: usize,
    /// Instants where `rss_i < rss_j`.
    pub reverse: usize,
    /// Instants where the readings tied exactly.
    pub ties: usize,
}

impl PairEvidence {
    /// Instants where both nodes produced a reading.
    #[inline]
    pub fn common(&self) -> usize {
        self.sequential + self.reverse + self.ties
    }

    /// Gathers the evidence for pair `(i, j)` from a sampling matrix, one
    /// reading at a time. The vector builders count the same evidence from
    /// a dense transpose; this per-pair form is their test oracle.
    pub fn gather(group: &GroupSampling, i: usize, j: usize) -> Self {
        let mut ev = PairEvidence::default();
        for t in 0..group.instants() {
            if let (Some(a), Some(b)) = (group.get(t, i), group.get(t, j)) {
                if a > b {
                    ev.sequential += 1;
                } else if a < b {
                    ev.reverse += 1;
                } else {
                    ev.ties += 1;
                }
            }
        }
        ev
    }
}

/// The order evidence of two node-major columns, counted branch-free: a
/// NaN (missing reading) on either side drops the instant from all three
/// counts because NaN compares false with `>`, `<` and `==`.
#[inline]
fn column_evidence(a: &[f64], b: &[f64]) -> PairEvidence {
    let mut ev = PairEvidence::default();
    for (x, y) in a.iter().zip(b) {
        ev.sequential += usize::from(x > y);
        ev.reverse += usize::from(x < y);
        ev.ties += usize::from(x == y);
    }
    ev
}

/// Algorithm 1 over every pair in canonical order, reading the matrix
/// once: `both` gives the value of a pair whose nodes both responded, and
/// the missing-node cases follow eq. (6): `i` responded, `j` silent →
/// `+1`; the reverse → `−1`; both silent → `*` (`None`).
///
/// The row-major readings are transposed once into node-major `f64`
/// columns with NaN for a missing reading (safe because [`Rss`] is finite
/// by construction), and each node's responded flag is computed once, so
/// the `O(n²·k)` pair loop touches only contiguous floats.
///
/// [`Rss`]: wsn_signal::Rss
fn sampling_vector_with<F: Fn(PairEvidence) -> f64>(
    group: &GroupSampling,
    both: F,
) -> SamplingVector {
    let n = group.node_count();
    assert!(n >= 2, "need at least two nodes for pair values");
    let k = group.instants();
    let mut columns = vec![f64::NAN; n * k];
    let mut responded = vec![false; n];
    for (t, row) in group.readings().chunks_exact(n).enumerate() {
        for (j, reading) in row.iter().enumerate() {
            if let Some(rss) = reading {
                columns[j * k + t] = rss.dbm();
                responded[j] = true;
            }
        }
    }
    let mut comps = Vec::with_capacity(pair_count(n));
    for (i, a) in columns.chunks_exact(k).enumerate() {
        for (j, b) in columns.chunks_exact(k).enumerate().skip(i + 1) {
            comps.push(match (responded[i], responded[j]) {
                (true, true) => Some(both(column_evidence(a, b))),
                (true, false) => Some(1.0),
                (false, true) => Some(-1.0),
                (false, false) => None,
            });
        }
    }
    SamplingVector::new(comps)
}

/// Algorithm 1 + eq. (6): the basic ternary sampling vector.
///
/// For each pair, in canonical order:
///
/// * both nodes responded and every co-observed instant agreed on the order
///   → `+1` / `−1` (Definition 4's "ordinal" cases);
/// * both responded but the order flipped (or tied, or the nodes were never
///   observed at the same instant — no consistent-order evidence either
///   way) → `0`;
/// * exactly one responded → `+1`/`−1` toward the responder (eq. 6: silent
///   nodes are treated as strictly weaker);
/// * neither responded → `*`.
///
/// ```
/// use fttt::sampling::basic_sampling_vector;
/// use wsn_network::GroupSampling;
/// use wsn_signal::Rss;
///
/// // Two nodes, two instants: node 0 louder both times ⟹ pair value +1.
/// let group = GroupSampling::from_rows(vec![
///     vec![Some(Rss::new(-50.0)), Some(Rss::new(-60.0))],
///     vec![Some(Rss::new(-51.0)), Some(Rss::new(-59.0))],
/// ]);
/// let v = basic_sampling_vector(&group);
/// assert_eq!(v.component(0), Some(1.0));
/// ```
///
/// # Panics
///
/// Panics if `group` has fewer than two node columns.
pub fn basic_sampling_vector(group: &GroupSampling) -> SamplingVector {
    sampling_vector_with(group, |ev| {
        if ev.sequential > 0 && ev.reverse == 0 && ev.ties == 0 {
            1.0
        } else if ev.reverse > 0 && ev.sequential == 0 && ev.ties == 0 {
            -1.0
        } else {
            0.0
        }
    })
}

/// Definition 10: the extended (quantitative) sampling vector.
///
/// For a pair where both nodes responded, the value is
/// `P(sequential) − P(reverse) = (N_seq − N_rev) / N_common ∈ [−1, 1]`,
/// retaining *how lopsided* the flipping was. Missing-node cases follow
/// eq. (6) exactly as in the basic vector. Pairs with no co-observed
/// instants get `0.0`.
///
/// # Panics
///
/// Panics if `group` has fewer than two node columns.
pub fn extended_sampling_vector(group: &GroupSampling) -> SamplingVector {
    sampling_vector_with(group, |ev| {
        let common = ev.common();
        if common == 0 {
            0.0
        } else {
            (ev.sequential as f64 - ev.reverse as f64) / common as f64
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_signal::Rss;

    /// Rows = instants, columns = nodes; entries in dBm, `None` = missing.
    fn matrix(rows: Vec<Vec<Option<f64>>>) -> GroupSampling {
        GroupSampling::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(|v| v.map(Rss::new)).collect())
                .collect(),
        )
    }

    /// The paper's Fig. 5 example: four nodes, six instants; node 2 loudest
    /// throughout, pair (3,4) (zero-based (2,3)) flips; everything else
    /// ordinal. Expected vector: [-1, 1, 1, 1, 1, 0].
    fn fig5() -> GroupSampling {
        matrix(vec![
            //        n1           n2           n3           n4
            vec![Some(-50.0), Some(-45.0), Some(-60.0), Some(-62.0)],
            vec![Some(-51.0), Some(-44.0), Some(-61.0), Some(-59.0)], // (3,4) flips here
            vec![Some(-49.0), Some(-46.0), Some(-58.0), Some(-63.0)],
            vec![Some(-50.5), Some(-45.5), Some(-62.0), Some(-60.0)], // and here
            vec![Some(-50.2), Some(-44.8), Some(-59.0), Some(-61.0)],
            vec![Some(-49.8), Some(-45.2), Some(-60.5), Some(-62.5)],
        ])
    }

    #[test]
    fn fig5_basic_vector() {
        let v = basic_sampling_vector(&fig5());
        // Pairs: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4).
        assert_eq!(
            v.components(),
            &[
                Some(-1.0),
                Some(1.0),
                Some(1.0),
                Some(1.0),
                Some(1.0),
                Some(0.0)
            ]
        );
    }

    #[test]
    fn fig5_extended_vector() {
        let v = extended_sampling_vector(&fig5());
        // (3,4): 4 sequential, 2 reverse out of 6 ⟹ (4−2)/6 = 1/3.
        assert_eq!(v.component(5), Some(1.0 / 3.0));
        // Ordinal pairs keep ±1.
        assert_eq!(v.component(0), Some(-1.0));
        assert_eq!(v.component(1), Some(1.0));
    }

    /// The paper's Section 4.4.3 fault example: only n1 and n3 respond with
    /// rss1 > rss3. Expected: [1, 1, 1, −1, *, 1].
    #[test]
    fn fault_example_eq6() {
        let g = matrix(vec![
            vec![Some(-50.0), None, Some(-60.0), None],
            vec![Some(-51.0), None, Some(-59.0), None],
        ]);
        let v = basic_sampling_vector(&g);
        assert_eq!(
            v.components(),
            &[Some(1.0), Some(1.0), Some(1.0), Some(-1.0), None, Some(1.0)]
        );
        // The extension treats missing-node pairs identically.
        let e = extended_sampling_vector(&g);
        assert_eq!(e.components(), v.components());
    }

    #[test]
    fn flipped_pair_yields_zero() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-55.0)],
            vec![Some(-56.0), Some(-51.0)],
        ]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        // Extended: (1 − 1)/2 = 0 as well, but for k=3 with 2:1 split it
        // differs (checked below).
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.0));
    }

    #[test]
    fn extended_keeps_flip_degree() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-55.0)],
            vec![Some(-56.0), Some(-51.0)],
            vec![Some(-50.0), Some(-57.0)],
        ]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(1.0 / 3.0));
    }

    #[test]
    fn ties_break_ordinality() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-50.0)],
            vec![Some(-49.0), Some(-51.0)],
        ]);
        // A tie means "not all strictly greater": basic value 0.
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        // Extended: 1 sequential out of 2 common ⟹ 1/2.
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.5));
    }

    #[test]
    fn ragged_columns_with_no_overlap() {
        // Both nodes responded but never at the same instant: no order
        // evidence — value 0 for both variants.
        let g = matrix(vec![vec![Some(-50.0), None], vec![None, Some(-60.0)]]);
        assert_eq!(basic_sampling_vector(&g).component(0), Some(0.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(0.0));
    }

    #[test]
    fn partial_overlap_uses_common_instants_only() {
        let g = matrix(vec![
            vec![Some(-50.0), Some(-60.0)],
            vec![Some(-50.0), None],
            vec![None, Some(-40.0)],
        ]);
        // Only instant 0 is common and there n1 > n2.
        assert_eq!(basic_sampling_vector(&g).component(0), Some(1.0));
        assert_eq!(extended_sampling_vector(&g).component(0), Some(1.0));
    }

    #[test]
    fn all_nodes_silent_gives_all_stars() {
        let g = GroupSampling::empty(3, 4);
        let v = basic_sampling_vector(&g);
        assert_eq!(v.unknown_count(), 3);
    }

    #[test]
    fn dimension_is_pair_count() {
        for n in 2..12 {
            let g = GroupSampling::empty(n, 2);
            assert_eq!(basic_sampling_vector(&g).len(), pair_count(n));
        }
    }

    #[test]
    fn evidence_gathering_counts() {
        let g = matrix(vec![
            vec![Some(-1.0), Some(-2.0)],
            vec![Some(-3.0), Some(-2.0)],
            vec![Some(-2.0), Some(-2.0)],
            vec![Some(-1.0), None],
        ]);
        let ev = PairEvidence::gather(&g, 0, 1);
        assert_eq!(ev.sequential, 1);
        assert_eq!(ev.reverse, 1);
        assert_eq!(ev.ties, 1);
        assert_eq!(ev.common(), 3);
    }
}
