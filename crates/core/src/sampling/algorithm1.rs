//! Algorithm 1 (sampling-vector construction), its fault-tolerant fill
//! (eq. 6) and the quantitative extension (Definition 10).

use crate::vector::{component_terms, words_for, PackedQuery, QueryParts, SamplingVector};
use std::cell::Cell;
use wsn_network::{pair_count, GroupSampling};
use wsn_signal::Rss;

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

/// Order-preserving integer key of a finite reading: equal readings get
/// equal keys (`−0.0` and `0.0` included, as `==` ties them) and the
/// keys sort as the readings do.
#[inline]
fn order_key(dbm: f64) -> u64 {
    let bits = (dbm + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// ORs `len` bits of `src`, starting at bit `from`, into `dst` starting at
/// bit `to`. The target bits must be clear (the rows of the upper
/// triangle are written once each, in order).
fn copy_bits(dst: &mut [u64], to: usize, src: &[u64], from: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let take = (len - done).min(64);
        let (sw, sb) = ((from + done) / 64, (from + done) % 64);
        let mut x = src[sw] >> sb;
        if sb != 0 && sb + take > 64 {
            x |= src[sw + 1] << (64 - sb);
        }
        if take < 64 {
            x &= (1 << take) - 1;
        }
        let (dw, db) = ((to + done) / 64, (to + done) % 64);
        dst[dw] |= x << db;
        if db != 0 && db + take > 64 {
            dst[dw + 1] |= x >> (64 - db);
        }
        done += take;
    }
}

/// Sets the `len` bits of `dst` from bit `from` on.
fn set_bits(dst: &mut [u64], from: usize, len: usize) {
    let (mut at, end) = (from, from + len);
    while at < end {
        let (w, b) = (at / 64, at % 64);
        let take = (end - at).min(64 - b);
        dst[w] |= (!0u64 >> (64 - take)) << b;
        at += take;
    }
}

/// Node `a`'s order evidence against each later node `j` (index
/// `j − a − 1`): the instants with `r_a > r_j` (`seq`), `r_a < r_j`
/// (`rev`) and `r_a == r_j` (`tie`).
#[derive(Debug, Default)]
struct RowEvidence {
    seq: Vec<u64>,
    rev: Vec<u64>,
    tie: Vec<u64>,
}

impl RowEvidence {
    /// Makes room for rows of up to `m` nodes.
    fn fit(&mut self, m: usize) {
        for count in [&mut self.seq, &mut self.rev, &mut self.tie] {
            if count.len() < m {
                count.resize(m, 0);
            }
        }
    }

    /// Counts row `a` from `m`-wide instant rows (at least one). A
    /// missing reading (NaN) compares false, so it drops out of all three
    /// counts; each instant is one branch-free sweep over the later
    /// nodes, and the first one writes the counts instead of clearing
    /// them first.
    fn count(&mut self, rows: &[f64], a: usize, m: usize) {
        let len = m - 1 - a;
        let (seq, rev, tie) = (
            &mut self.seq[..len],
            &mut self.rev[..len],
            &mut self.tie[..len],
        );
        let mut instants = rows.chunks_exact(m);
        let first = instants.next().expect("a grouping has an instant");
        let x = first[a];
        let counts = seq.iter_mut().zip(rev.iter_mut()).zip(tie.iter_mut());
        for (((s, r), t), &y) in counts.zip(&first[a + 1..]) {
            *s = u64::from(x > y);
            *r = u64::from(x < y);
            *t = u64::from(x == y);
        }
        for row in instants {
            let x = row[a];
            if x.is_nan() {
                continue;
            }
            let counts = seq.iter_mut().zip(rev.iter_mut()).zip(tie.iter_mut());
            for (((s, r), t), &y) in counts.zip(&row[a + 1..]) {
                *s += u64::from(x > y);
                *r += u64::from(x < y);
                *t += u64::from(x == y);
            }
        }
    }

    /// `(seq, rev, common)` of the pair at index `i`.
    #[inline]
    fn get(&self, i: usize) -> (u64, u64, u64) {
        let (s, r) = (self.seq[i], self.rev[i]);
        (s, r, s + r + self.tie[i])
    }
}

/// Below this many nodes the basic query is built pair by pair from the
/// row evidence, from it on through the rank sets. At the default five
/// sampling times the two kernels cost the same near 28 nodes (release
/// build, 2-vCPU host, 200 distinct groupings per size): pairs 0.6 against
/// 1.2 µs at n = 10 and 3.2 against 3.4 µs at 24, rank sets 4.8 against
/// 5.4 µs at 32 and 5.6 against 8.0 µs at 40. Each further instant costs
/// the rank sets a sort, so at 12 instants the pairs stay ahead up to
/// about 46 nodes; a session samples more than five only on unhealthy
/// rounds.
const RANK_SETS_FROM: usize = 28;

/// Algorithm 1 + eq. (6) written straight into the round's
/// [`PackedQuery`], with every buffer reused from one round to the next.
///
/// **Basic queries** are bit-parallel. Per instant the present readings
/// are ranked once; every node then ORs three sets over the `k` instants:
/// the nodes it read strictly louder than (*greater*), strictly quieter
/// than (*less*) and exactly equal to (*tied*). A pair `(i, j)` whose
/// nodes both responded is `+1` iff `j` is in `i`'s greater set and in
/// neither of the others — the `seq > 0 && rev == 0 && ties == 0` of
/// [`basic_sampling_vector`] — and `−1` symmetrically. Eq. (6) is two
/// more masks: row `i` of a responding node is `+1` toward every silent
/// node, and a silent node's row is `−1` toward the responders and `*`
/// toward the silent. Row `i` of the upper triangle is then shift-copied
/// into the planes at its canonical offset, so the work is
/// `O(k·n log n + k·n²/64)` word operations instead of `O(k·n²)` float
/// compares. Below `RANK_SETS_FROM` nodes the pairs are compared directly.
///
/// **Extended queries** (Definition 10) need a division and a row of
/// terms per pair whatever counts them, so they count each pair's
/// evidence directly: per node `i` and instant, one branch-free sweep
/// compares `r_i` with the readings of every later node and adds to the
/// row's `seq`/`rev`/`tie` counts, which the compiler vectorizes; the
/// row's terms follow. The known-pair mask (`present`, which the climb's
/// screen reads) is written from the responded bits by word operations:
/// a responder's row is known throughout, a silent node's row toward the
/// responders. A round whose values are all `−1`, `0` or `+1`
/// packs ternary, exactly as [`PackedQuery::new`] packs such an extended
/// vector.
///
/// The result equals `PackedQuery::new` of the projected
/// [`basic_sampling_vector`] / [`extended_sampling_vector`] word for word
/// and term for term (`tests/packed_alg1_differential.rs`).
#[derive(Debug, Default)]
pub struct QueryBuilder {
    query: PackedQuery,
    /// The selected nodes' readings, one `m`-wide row per instant, NaN
    /// where missing.
    rows: Vec<f64>,
    /// One row's order evidence against each later node.
    evidence: RowEvidence,
    /// Nodes that responded at any instant.
    responded: Vec<u64>,
    /// One instant's present readings as `(order key, node)`, sorted.
    sorted: Vec<(u64, u32)>,
    /// Per node, one word row each: the greater, less and tied sets.
    greater: Vec<u64>,
    less: Vec<u64>,
    tied: Vec<u64>,
    /// Nodes present at the current instant, the nodes ranked below the
    /// current rank, the nodes at it and the nodes ranked above.
    present: Vec<u64>,
    below: Vec<u64>,
    rank: Vec<u64>,
    above: Vec<u64>,
    /// One row's plus, minus and present words before the shift-copy.
    row: Vec<u64>,
}

impl QueryBuilder {
    /// An empty builder; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the query of `group` over the columns `nodes` (ascending;
    /// `None` for every column) — the basic query, or the extended one
    /// when `extended`. With `nodes` a map's live nodes, the result is
    /// the query of the live-pair projection
    /// ([`FaceMap::project_sampling_vector`]).
    ///
    /// [`FaceMap::project_sampling_vector`]: crate::facemap::FaceMap::project_sampling_vector
    ///
    /// # Panics
    ///
    /// Panics if fewer than two columns are selected, or a selected
    /// column is out of range.
    pub fn build(
        &mut self,
        group: &GroupSampling,
        nodes: Option<&[u32]>,
        extended: bool,
    ) -> &PackedQuery {
        let m = nodes.map_or(group.node_count(), <[u32]>::len);
        assert!(m >= 2, "need at least two nodes for pair values");
        let words = words_for(m);
        self.responded.clear();
        self.responded.resize(words, 0);
        if extended || m < RANK_SETS_FROM {
            self.load_rows(group, nodes);
            self.evidence.fit(m);
        }
        if extended && self.extended_terms(m) {
            return &self.query;
        }
        if m < RANK_SETS_FROM {
            self.pair_planes(m);
        } else {
            self.rank_set_planes(group, nodes);
        }
        self.query.finish_ternary();
        &self.query
    }

    /// Gives up the buffers and keeps the last query.
    pub fn into_query(self) -> PackedQuery {
        self.query
    }

    /// Transposes the selected columns of `group` into instant-major
    /// `rows` and marks the nodes that responded.
    fn load_rows(&mut self, group: &GroupSampling, nodes: Option<&[u32]>) {
        let n = group.node_count();
        let m = nodes.map_or(n, <[u32]>::len);
        self.rows.clear();
        self.rows.reserve(m * group.instants());
        for readings in group.readings().chunks_exact(n) {
            for a in 0..m {
                let reading = readings[nodes.map_or(a, |l| l[a] as usize)];
                if reading.is_some() {
                    self.responded[a / 64] |= 1 << (a % 64);
                }
                self.rows.push(reading.map_or(f64::NAN, Rss::dbm));
            }
        }
    }

    /// Writes the extended terms and the known-pair mask of every pair of
    /// the `m` loaded nodes. Returns `true` and leaves an extended query
    /// when some value is fractional, `false` (the query unfinished) when
    /// every value is `−1`, `0` or `+1`.
    fn extended_terms(&mut self, m: usize) -> bool {
        let QueryParts { present, terms, .. } = self.query.reset(pair_count(m));
        let responded = &self.responded;
        let is_responded = |j: usize| responded[j / 64] >> (j % 64) & 1 == 1;
        // A pair is known unless both of its nodes were silent: a
        // responder's row is known throughout, a silent node's row
        // exactly toward the responders.
        let mut offset = 0;
        for a in 0..m - 1 {
            let len = m - 1 - a;
            if is_responded(a) {
                set_bits(present, offset, len);
            } else {
                copy_bits(present, offset, responded, a + 1, len);
            }
            offset += len;
        }
        let [star, plus, minus] = [None, Some(1.0), Some(-1.0)].map(component_terms);
        let (mut fractional, mut zeros) = (false, 0);
        for a in 0..m - 1 {
            if !is_responded(a) {
                terms.extend((a + 1..m).map(|j| if is_responded(j) { minus } else { star }));
                continue;
            }
            let ev = &mut self.evidence;
            ev.count(&self.rows, a, m);
            terms.extend((a + 1..m).map(|j| {
                if !is_responded(j) {
                    return plus;
                }
                let (s, r, c) = ev.get(j - a - 1);
                // `±1` when one order held at every common instant, `0`
                // when the orders balance (or never met).
                fractional |= s != r && s != c && r != c;
                zeros += usize::from(s == r);
                let v = if c == 0 {
                    0.0
                } else {
                    (s as f64 - r as f64) / c as f64
                };
                component_terms(Some(v))
            }));
        }
        if fractional {
            let responded: usize = responded.iter().map(|w| w.count_ones() as usize).sum();
            self.query.finish_extended(pair_count(m - responded), zeros);
        }
        fractional
    }

    /// The basic planes of the `m` loaded nodes, pair by pair.
    fn pair_planes(&mut self, m: usize) {
        let QueryParts {
            plus,
            minus,
            present,
            ..
        } = self.query.reset(pair_count(m));
        let responded = &self.responded;
        let is_responded = |j: usize| responded[j / 64] >> (j % 64) & 1 == 1;
        let mut p = 0;
        for a in 0..m - 1 {
            let responded_a = is_responded(a);
            if responded_a {
                self.evidence.count(&self.rows, a, m);
            }
            for j in a + 1..m {
                let (w, bit) = (p / 64, 1 << (p % 64));
                p += 1;
                let (pos, neg) = match (responded_a, is_responded(j)) {
                    (true, true) => {
                        let (s, r, c) = self.evidence.get(j - a - 1);
                        (s == c && c > 0, r == c && c > 0)
                    }
                    (true, false) => (true, false),
                    (false, true) => (false, true),
                    (false, false) => continue,
                };
                plus[w] |= u64::from(pos) * bit;
                minus[w] |= u64::from(neg) * bit;
                present[w] |= bit;
            }
        }
    }

    /// The basic planes through the per-node rank sets.
    fn rank_set_planes(&mut self, group: &GroupSampling, nodes: Option<&[u32]>) {
        let n = group.node_count();
        let m = nodes.map_or(n, <[u32]>::len);
        let words = words_for(m);
        for (buf, len) in [
            (&mut self.greater, m * words),
            (&mut self.less, m * words),
            (&mut self.tied, m * words),
            (&mut self.present, words),
            (&mut self.below, words),
            (&mut self.rank, words),
            (&mut self.above, words),
            (&mut self.row, 3 * words),
        ] {
            buf.clear();
            buf.resize(len, 0);
        }
        for readings in group.readings().chunks_exact(n) {
            self.rank_instant(readings, nodes);
        }

        let QueryParts {
            plus,
            minus,
            present,
            ..
        } = self.query.reset(pair_count(m));
        let responded = &self.responded;
        let mut offset = 0;
        for a in 0..m - 1 {
            let len = m - 1 - a;
            let responded_a = responded[a / 64] >> (a % 64) & 1 == 1;
            let row = a * words..(a + 1) * words;
            let (g, l, tie) = (
                &self.greater[row.clone()],
                &self.less[row.clone()],
                &self.tied[row],
            );
            let (rp, rest) = self.row.split_at_mut(words);
            let (rm, rq) = rest.split_at_mut(words);
            for w in 0..words {
                let r = responded[w];
                if responded_a {
                    rp[w] = (g[w] & !l[w] & !tie[w]) | !r;
                    rm[w] = l[w] & !g[w] & !tie[w];
                    rq[w] = !0;
                } else {
                    rp[w] = 0;
                    rm[w] = r;
                    rq[w] = r;
                }
            }
            copy_bits(plus, offset, rp, a + 1, len);
            copy_bits(minus, offset, rm, a + 1, len);
            copy_bits(present, offset, rq, a + 1, len);
            offset += len;
        }
    }

    /// Ranks one instant (its row of `readings`) and folds it into the
    /// per-node sets.
    fn rank_instant(&mut self, readings: &[Option<Rss>], nodes: Option<&[u32]>) {
        self.sorted.clear();
        self.present.fill(0);
        let columns = nodes.map_or(readings.len(), <[u32]>::len);
        for a in 0..columns {
            if let Some(rss) = readings[nodes.map_or(a, |l| l[a] as usize)] {
                self.sorted.push((order_key(rss.dbm()), a as u32));
                self.present[a / 64] |= 1 << (a % 64);
            }
        }
        for (r, p) in self.responded.iter_mut().zip(&self.present) {
            *r |= p;
        }
        self.sorted.sort_unstable_by_key(|&(key, _)| key);
        // Walk the ranking one rank (a run of equal readings) at a time,
        // quietest first, with `below` the nodes ranked lower.
        let words = self.present.len();
        self.below.fill(0);
        let mut start = 0;
        while start < self.sorted.len() {
            let (key, first) = self.sorted[start];
            let end = start
                + 1
                + self.sorted[start + 1..]
                    .iter()
                    .take_while(|(k, _)| *k == key)
                    .count();
            // A rank of one node (the common case) needs no tied set: it
            // would hold only the node itself, whose own bit no row reads
            // (row `i` reads `j > i` only).
            let tie = end - start > 1;
            if tie {
                for &(_, a) in &self.sorted[start..end] {
                    self.rank[a as usize / 64] |= 1 << (a % 64);
                }
            } else {
                self.rank[first as usize / 64] = 1 << (first % 64);
            }
            for w in 0..words {
                self.above[w] = self.present[w] & !self.below[w] & !self.rank[w];
            }
            for &(_, a) in &self.sorted[start..end] {
                let row = a as usize * words..(a as usize + 1) * words;
                for (w, (g, l)) in self.greater[row.clone()]
                    .iter_mut()
                    .zip(&mut self.less[row.clone()])
                    .enumerate()
                {
                    *g |= self.below[w];
                    *l |= self.above[w];
                }
                if tie {
                    for (t, r) in self.tied[row].iter_mut().zip(&self.rank) {
                        *t |= r;
                    }
                }
            }
            for (b, r) in self.below.iter_mut().zip(&mut self.rank) {
                *b |= *r;
                *r = 0;
            }
            start = end;
        }
    }
}

thread_local! {
    /// This thread's query buffers: a round takes them and puts them
    /// back, so a thread serving many sessions keeps one set rather than
    /// one per session.
    pub(crate) static ROUND_BUILDER: Cell<QueryBuilder> = Cell::default();
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
