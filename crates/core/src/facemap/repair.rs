//! Incremental face-map repair under topology churn.
//!
//! When a sensor dies, every pair plane that mentions it must be retired;
//! when it comes back, its pair planes must be re-rasterized. Both are
//! *local* in pair space — the other `C(n−1, 2)` pairs' classifications
//! are untouched, because a pair's Apollonius region depends only on its
//! own two sensors and `c²` — so the repair never re-runs the full
//! `cells × pairs` classifier:
//!
//! * **Death** (`kill_node`): the survivor planes of each *face* are the
//!   face's old planes with the dead node's pair bits squeezed out (a
//!   precompiled word-blit). Faces whose squeezed planes coincide merge;
//!   everything else survives verbatim. No cell is reclassified at all.
//! * **Birth** (`revive_node`): the old planes are scattered into the
//!   wider pair space (zeroes at the newcomer's pair positions) and only
//!   the newcomer's `n−1` pairs are classified per cell — `O(n)` work per
//!   cell instead of `O(n²)`. Cells group by `(old face, fresh bits)`,
//!   which is exactly grouping by the full new planes.
//!
//! Both paths feed the **same** accumulation and finalization code as a
//! fresh build ([`CellAccum`] / [`assemble`]): face numbering stays
//! first-encounter raster order (old face ids are themselves in
//! first-cell order, and merging/splitting preserves that order), the f64
//! centroid sums accumulate in the identical raster sequence, and the
//! chunk summaries are rebuilt from scratch. The result is **bit-identical
//! to a from-scratch build over the survivors** — the
//! `churn_differential` proptest holds every repaired map to that
//! standard, and [`RepairMode::Rebuild`] keeps the reference path (same
//! epoch bump, same provenance) one enum variant away.
//!
//! Every repair bumps [`FaceMap::epoch`], which sessions use to detect
//! that their warm-start face ids went stale and replay digests fold so a
//! churned run can never collide with a static one.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use super::build::{
    assemble, hash_planes, CellAccum, Grouper, Provenance, RowRasterizer, SignatureIndex,
};
use super::{FaceId, FaceMap};
use crate::vector::{words_for, SignaturePlanes};
use wsn_geometry::{CellIndex, Point};
use wsn_network::{pair_count, pair_index};
use wsn_telemetry as telemetry;

/// How a churn repair recomputes the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Patch only what the churned node touches (the default). The
    /// repair still re-assembles the whole map, so its cost is linear in
    /// the cell count: about 0.6 ms at n = 10 and 2.7 ms at n = 40 on a
    /// 2 m grid, against 1.1 ms and 6.0 ms for [`RepairMode::Rebuild`].
    /// Falls back to a full rebuild for births into rosters larger than
    /// 65 sensors, where the packed fresh-bit path runs out of bits.
    Incremental,
    /// Re-rasterize the whole field from the survivor set — the
    /// reference/control path. Produces a bit-identical map (including
    /// the epoch bump), only slower.
    Rebuild,
}

/// What one repair did: sizes, timings, and the old→new face mapping
/// sessions use to migrate their warm-start state across the epoch bump.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The map's epoch *after* this repair.
    pub epoch: u64,
    /// Deployment index of the churned node.
    pub node: usize,
    /// `true` for a death, `false` for a birth.
    pub death: bool,
    /// Pair planes removed from the map (death: `old − new` dimension).
    pub planes_retired: usize,
    /// Pair planes added to the map (birth: `new − old` dimension).
    pub planes_added: usize,
    /// Cells whose signature was recomputed by the classifier (0 for an
    /// incremental death — retirement is pure bit moving; the whole grid
    /// for births and rebuilds).
    pub cells_reclassified: usize,
    /// Face count before the repair.
    pub faces_before: usize,
    /// Face count after the repair.
    pub faces_after: usize,
    /// Wall-clock repair latency in microseconds (telemetry only — never
    /// folded into replay digests).
    pub repair_us: f64,
    /// Old face id → (new face id, survived exactly).
    remap: Vec<(u32, bool)>,
}

impl RepairReport {
    /// Where old face `f` went: its new id, plus whether the face
    /// survived *exactly* (same cell set). A death merge reports the
    /// merged face with `false`; a birth split reports the new face of
    /// the old face's first raster cell with `false`. `None` only for ids
    /// outside the old map.
    pub fn remap_face(&self, f: FaceId) -> Option<(FaceId, bool)> {
        self.remap
            .get(f.index())
            .map(|&(nf, exact)| (FaceId(nf), exact))
    }

    /// Number of old faces (the domain of [`RepairReport::remap_face`]).
    pub fn remap_len(&self) -> usize {
        self.remap.len()
    }
}

/// One precompiled bit-blit: OR `mask`-selected bits of source word `sw`
/// (shifted down by `sb`) into destination word `dw` at offset `db`.
struct BitOp {
    sw: u32,
    dw: u32,
    sb: u8,
    db: u8,
    mask: u64,
}

/// Compiles bit-range copies `(src_bit, dst_bit, len)` into word-level
/// [`BitOp`]s. Compiled once per repair and applied to every face's
/// planes, so the per-face inner loop is branch-light.
fn compile_copy(segs: &[(usize, usize, usize)]) -> Vec<BitOp> {
    let mut ops = Vec::new();
    for &(seg_s, seg_d, seg_len) in segs {
        let (mut s, mut d, mut len) = (seg_s, seg_d, seg_len);
        while len > 0 {
            let (sw, sb) = (s / 64, s % 64);
            let (dw, db) = (d / 64, d % 64);
            let take = len.min(64 - sb).min(64 - db);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            ops.push(BitOp {
                sw: sw as u32,
                dw: dw as u32,
                sb: sb as u8,
                db: db as u8,
                mask,
            });
            s += take;
            d += take;
            len -= take;
        }
    }
    ops
}

/// Applies a compiled copy; `dst` bits under the ops must be zero.
#[inline]
fn apply_copy(ops: &[BitOp], src: &[u64], dst: &mut [u64]) {
    for op in ops {
        dst[op.dw as usize] |= ((src[op.sw as usize] >> op.sb) & op.mask) << op.db;
    }
}

/// Ascending pair indices (canonical enumeration over `n` list slots)
/// that involve list slot `r`: `(0,r) … (r−1,r)`, then `(r,r+1) …
/// (r,n−1)`. Both sub-sequences are increasing and the second starts
/// above the first, so the result is sorted without a sort.
fn node_pairs(r: usize, n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..r).map(|i| pair_index(i, r, n)).collect();
    out.extend((r + 1..n).map(|j| pair_index(r, j, n)));
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "pair indices sorted");
    out
}

/// Copy segments between the full pair space (with `skips` excluded) and
/// the dense pair space (skips squeezed out). Removing one list slot is a
/// *monotone* map on the remaining pairs — the canonical enumeration of
/// the survivors in the full space and the dense space visit them in the
/// same order — so the correspondence is exactly these contiguous runs.
/// `skips_in_src` picks the direction: `true` compacts (death), `false`
/// scatters (birth).
fn copy_segments(
    skips: &[usize],
    full_dim: usize,
    skips_in_src: bool,
) -> Vec<(usize, usize, usize)> {
    let mut segs = Vec::with_capacity(skips.len() + 1);
    let mut full = 0usize;
    let mut dense = 0usize;
    for &k in skips {
        if k > full {
            let len = k - full;
            segs.push(if skips_in_src {
                (full, dense, len)
            } else {
                (dense, full, len)
            });
            dense += len;
        }
        full = k + 1;
    }
    if full_dim > full {
        let len = full_dim - full;
        segs.push(if skips_in_src {
            (full, dense, len)
        } else {
            (dense, full, len)
        });
    }
    segs
}

/// Deployment pair index per live pair index (the map's `pair_gather`).
fn deployment_pair_gather(n: usize, live: &[u32]) -> Vec<u32> {
    let mut is_live = vec![false; n];
    for &k in live {
        is_live[k as usize] = true;
    }
    let mut gather = Vec::with_capacity(pair_count(live.len()));
    let mut d = 0u32;
    for i in 0..n {
        for j in i + 1..n {
            if is_live[i] && is_live[j] {
                gather.push(d);
            }
            d += 1;
        }
    }
    gather
}

impl FaceMap {
    /// Retires deployment node `node` from the map: removes its pair
    /// planes, merges faces its boundaries separated, and bumps the epoch.
    /// The resulting map is bit-identical to building from the survivors.
    /// In-place form of [`FaceMap::repaired`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the deployment, already dead, or if
    /// fewer than two sensors would remain.
    pub fn kill_node(&mut self, node: usize, mode: RepairMode) -> RepairReport {
        let (map, report) = self.repaired(node, true, mode);
        *self = map;
        report
    }

    /// Returns deployment node `node` to the map: re-rasterizes its pair
    /// planes (and only those), splits the faces its boundaries cut, and
    /// bumps the epoch. Bit-identical to building from the enlarged live
    /// set. In-place form of [`FaceMap::repaired`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the deployment or already live.
    pub fn revive_node(&mut self, node: usize, mode: RepairMode) -> RepairReport {
        let (map, report) = self.repaired(node, false, mode);
        *self = map;
        report
    }

    /// The map after one churn event — a death of `node` when `death`,
    /// a birth otherwise — with `self` left untouched. Either mode builds
    /// a fresh map (the survivors' planes, groups, neighbor graph and
    /// chunk envelopes all go through `assemble`), so a caller holding
    /// a shared map needs no private copy to repair it, and one repaired
    /// map can be handed to any number of sessions.
    ///
    /// # Panics
    ///
    /// As [`FaceMap::kill_node`] for a death, [`FaceMap::revive_node`]
    /// for a birth.
    pub fn repaired(&self, node: usize, death: bool, mode: RepairMode) -> (FaceMap, RepairReport) {
        let _span = telemetry::span("fttt.map.repair.total");
        let start = std::time::Instant::now();
        assert!(
            node < self.deployment.len(),
            "node {node} outside the deployment"
        );
        let old_dim = pair_count(self.live.len());
        let faces_before = self.faces.len();

        let found = self.live.binary_search(&(node as u32));
        let mut live = self.live.clone();
        let list_pos = if death {
            let r = found.unwrap_or_else(|_| panic!("node {node} is already dead"));
            assert!(
                live.len() > 2,
                "cannot retire node {node}: a face map needs at least two live sensors"
            );
            live.remove(r);
            r
        } else {
            match found {
                Err(p) => {
                    live.insert(p, node as u32);
                    p
                }
                Ok(_) => panic!("node {node} is already live"),
            }
        };
        let positions: Vec<Point> = live.iter().map(|&i| self.deployment[i as usize]).collect();
        let new_dim = pair_count(live.len());
        let pair_gather = if live.len() == self.deployment.len() {
            Vec::new()
        } else {
            deployment_pair_gather(self.deployment.len(), &live)
        };
        let prov = Provenance {
            deployment: self.deployment.clone(),
            live,
            pair_gather,
            epoch: self.epoch + 1,
        };

        let (map, raw_remap, cells_reclassified) = match (mode, death) {
            (RepairMode::Rebuild, _) => self.rebuild_with(positions, prov),
            (RepairMode::Incremental, true) => self.repair_death(list_pos, positions, prov),
            (RepairMode::Incremental, false) if positions.len() <= 65 => {
                self.repair_birth(list_pos, positions, prov)
            }
            // > 64 fresh pair bits do not fit the packed birth path; the
            // rebuild is the same map, just slower.
            (RepairMode::Incremental, false) => self.rebuild_with(positions, prov),
        };

        // Exactness: a repair only merges (death) or splits (birth)
        // faces, so an old face survived exactly iff its cell count is
        // unchanged.
        let remap: Vec<(u32, bool)> = raw_remap
            .iter()
            .zip(&self.faces)
            .map(|(&nf, of)| {
                debug_assert_ne!(nf, u32::MAX, "old face never re-encountered");
                (nf, map.faces[nf as usize].cell_count == of.cell_count)
            })
            .collect();
        let report = RepairReport {
            epoch: map.epoch,
            node,
            death,
            planes_retired: old_dim.saturating_sub(new_dim),
            planes_added: new_dim.saturating_sub(old_dim),
            cells_reclassified,
            faces_before,
            faces_after: map.faces.len(),
            repair_us: start.elapsed().as_secs_f64() * 1e6,
            remap,
        };
        if telemetry::enabled() {
            telemetry::counter_add("fttt.map.repair.count", 1);
            telemetry::counter_add(
                "fttt.map.repair.planes_retired",
                report.planes_retired as u64,
            );
            telemetry::counter_add("fttt.map.repair.planes_added", report.planes_added as u64);
            telemetry::counter_add("fttt.map.repair.cells", report.cells_reclassified as u64);
            telemetry::counter_add("fttt.map.repair.us", report.repair_us.round() as u64);
        }
        (map, report)
    }

    /// Reference repair: re-rasterize everything from the survivor set
    /// through the shared grouping path.
    fn rebuild_with(&self, positions: Vec<Point>, prov: Provenance) -> (FaceMap, Vec<u32>, usize) {
        let grid = self.grid.clone();
        let raster = RowRasterizer::new(&positions, self.c);
        let nx = grid.nx() as usize;
        let mut grouper = Grouper::new(&grid, pair_count(positions.len()), grid.cell_count());
        let mut remap = vec![u32::MAX; self.faces.len()];
        for iy in 0..grid.ny() {
            let row = raster.rasterize_row(&grid, iy);
            grouper.begin_row(iy as usize);
            for ix in 0..nx {
                let (cp, cm) = row.cell(ix);
                let id = grouper.cell(&grid, ix, cp, cm);
                let old = self.cell_to_face[iy as usize * nx + ix] as usize;
                if remap[old] == u32::MAX {
                    remap[old] = id;
                }
            }
        }
        let cells = grid.cell_count();
        (grouper.finish(grid, positions, self.c, prov), remap, cells)
    }

    /// Incremental death: squeeze the dead node's pair bits out of every
    /// face's planes (faces whose squeezed planes coincide merge), then
    /// re-accumulate cells by table lookup — zero classifier work.
    fn repair_death(
        &self,
        removed: usize,
        positions: Vec<Point>,
        prov: Provenance,
    ) -> (FaceMap, Vec<u32>, usize) {
        let old_n = positions.len() + 1;
        let old_dim = pair_count(old_n);
        let new_dim = pair_count(old_n - 1);
        let new_words = words_for(new_dim);
        let ops = compile_copy(&copy_segments(&node_pairs(removed, old_n), old_dim, true));

        // Phase 1: transform and group the faces. New ids numbered by
        // ascending lowest old member id — which *is* first-encounter
        // raster order, because old ids are themselves in first-cell
        // order and a merged face's first cell is its lowest member's.
        let nf = self.faces.len();
        let mut planes = SignaturePlanes::new(new_dim);
        planes.reserve(nf);
        let mut sig_index = SignatureIndex::default();
        sig_index.first.reserve(nf);
        let mut face_remap: Vec<u32> = Vec::with_capacity(nf);
        let mut pbuf = vec![0u64; new_words];
        let mut mbuf = vec![0u64; new_words];
        for f in 0..nf {
            pbuf.fill(0);
            mbuf.fill(0);
            apply_copy(&ops, self.planes.plus(f), &mut pbuf);
            apply_copy(&ops, self.planes.minus(f), &mut mbuf);
            let same = |planes: &SignaturePlanes, g: u32| {
                planes.plus(g as usize) == pbuf.as_slice()
                    && planes.minus(g as usize) == mbuf.as_slice()
            };
            let id = match sig_index.first.entry(hash_planes(&pbuf, &mbuf)) {
                Entry::Vacant(e) => {
                    let id = planes.push_raw(&pbuf, &mbuf) as u32;
                    e.insert(id);
                    id
                }
                Entry::Occupied(e) => {
                    let first = *e.get();
                    if same(&planes, first) {
                        first
                    } else if let Some(&g) = sig_index.overflow.iter().find(|&&g| same(&planes, g))
                    {
                        g
                    } else {
                        let id = planes.push_raw(&pbuf, &mbuf) as u32;
                        sig_index.overflow.push(id);
                        id
                    }
                }
            };
            face_remap.push(id);
        }

        // Phase 2: re-accumulate every cell through the shared path —
        // pure table lookups, but the identical raster-order f64 sums.
        let grid = self.grid.clone();
        let nx = grid.nx() as usize;
        let ny = grid.ny() as usize;
        let mut accum = CellAccum::new(&grid, planes.face_count());
        for iy in 0..ny {
            accum.begin_row(iy);
            for ix in 0..nx {
                let id = face_remap[self.cell_to_face[iy * nx + ix] as usize];
                accum.record(&grid, ix, id);
            }
        }
        let map = assemble(planes, accum, grid, positions, self.c, prov);
        (map, face_remap, 0)
    }

    /// Incremental birth: scatter the old planes into the wider pair
    /// space and classify only the newcomer's pairs per cell. Cells key
    /// by `(old face, fresh bits)` — equivalent to keying by the full new
    /// planes, since the fresh bit positions are disjoint from the
    /// scattered ones.
    fn repair_birth(
        &self,
        inserted: usize,
        positions: Vec<Point>,
        prov: Provenance,
    ) -> (FaceMap, Vec<u32>, usize) {
        let new_n = positions.len();
        let new_dim = pair_count(new_n);
        let new_words = words_for(new_dim);
        let fresh = node_pairs(inserted, new_n);
        let ops = compile_copy(&copy_segments(&fresh, new_dim, false));

        // Phase 1: per-cell fresh bits; group by (old face, fresh bits).
        let grid = self.grid.clone();
        let nx = grid.nx() as usize;
        let ny = grid.ny() as usize;
        let nf = self.faces.len();
        let raster = RowRasterizer::new(&positions, self.c);
        let mut scratch = raster.scratch();
        let mut key_to_id: HashMap<(u32, u64, u64), u32> = HashMap::with_capacity(2 * nf);
        let mut reps: Vec<(u32, u64, u64)> = Vec::with_capacity(2 * nf);
        let mut face_remap = vec![u32::MAX; nf];
        let mut accum = CellAccum::new(&grid, 2 * nf);
        for iy in 0..ny {
            raster.begin_row(grid.center(CellIndex::new(0, iy as u32)).y, &mut scratch);
            accum.begin_row(iy);
            for ix in 0..nx {
                let old = self.cell_to_face[iy * nx + ix];
                let cx = grid.center(CellIndex::new(ix as u32, iy as u32)).x;
                let (fp, fm) = raster.classify_node(cx, inserted, &mut scratch);
                let id = match key_to_id.entry((old, fp, fm)) {
                    Entry::Vacant(e) => {
                        let id = reps.len() as u32;
                        reps.push((old, fp, fm));
                        e.insert(id);
                        id
                    }
                    Entry::Occupied(e) => *e.get(),
                };
                if face_remap[old as usize] == u32::MAX {
                    face_remap[old as usize] = id;
                }
                accum.record(&grid, ix, id);
            }
        }

        // Phase 2: materialize the new faces' planes in id order —
        // scattered old bits plus the fresh bits recorded in the key.
        // Distinct keys materialize distinct planes (old planes are unique
        // per face, fresh bits live at disjoint positions), so no face
        // needs regrouping.
        let mut planes = SignaturePlanes::new(new_dim);
        planes.reserve(reps.len());
        let mut pbuf = vec![0u64; new_words];
        let mut mbuf = vec![0u64; new_words];
        for &(of, fp, fm) in &reps {
            pbuf.fill(0);
            mbuf.fill(0);
            apply_copy(&ops, self.planes.plus(of as usize), &mut pbuf);
            apply_copy(&ops, self.planes.minus(of as usize), &mut mbuf);
            for (k, &bit) in fresh.iter().enumerate() {
                pbuf[bit / 64] |= (fp >> k & 1) << (bit % 64);
                mbuf[bit / 64] |= (fm >> k & 1) << (bit % 64);
            }
            planes.push_raw(&pbuf, &mbuf);
        }

        let cells = grid.cell_count();
        let map = assemble(planes, accum, grid, positions, self.c, prov);
        (map, face_remap, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geometry::Rect;

    fn deployment() -> Vec<Point> {
        vec![
            Point::new(18.0, 22.0),
            Point::new(71.0, 29.0),
            Point::new(34.0, 67.0),
            Point::new(80.0, 75.0),
            Point::new(52.0, 45.0),
            Point::new(12.0, 81.0),
        ]
    }

    fn field() -> Rect {
        Rect::square(100.0)
    }

    fn build() -> FaceMap {
        FaceMap::build(&deployment(), field(), 1.15, 2.5)
    }

    fn survivors(dead: &[usize]) -> Vec<Point> {
        deployment()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, p)| p)
            .collect()
    }

    /// Structural equality against a freshly built reference (everything
    /// except provenance bookkeeping, which a fresh build cannot know).
    fn assert_same_division(a: &FaceMap, b: &FaceMap) {
        assert_eq!(a.faces(), b.faces(), "faces differ");
        assert_eq!(a.planes(), b.planes(), "plane arenas differ");
        assert_eq!(a.positions(), b.positions(), "positions differ");
        for (idx, _) in a.grid().iter_centers() {
            let lin = a.grid().linear(idx);
            assert_eq!(a.cell_to_face[lin], b.cell_to_face[lin], "cell {lin}");
        }
        for f in a.faces() {
            assert_eq!(
                a.neighbors(f.id),
                b.neighbors(f.id),
                "neighbors of {}",
                f.id
            );
        }
    }

    #[test]
    fn death_matches_fresh_build_of_survivors() {
        let mut map = build();
        let report = map.kill_node(2, RepairMode::Incremental);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.planes_retired, 5);
        assert_eq!(report.planes_added, 0);
        assert_eq!(report.cells_reclassified, 0);
        let reference = FaceMap::build(&survivors(&[2]), field(), 1.15, 2.5);
        assert_same_division(&map, &reference);
    }

    /// `repaired` leaves its source map untouched and returns exactly the
    /// map the in-place `kill_node`/`revive_node` would have left, in both
    /// modes and both directions.
    #[test]
    fn repaired_leaves_the_source_untouched() {
        use crate::replay::digest_face_map;
        let mut dead = build();
        dead.kill_node(3, RepairMode::Incremental);
        for mode in [RepairMode::Incremental, RepairMode::Rebuild] {
            for (source, death) in [(build(), true), (dead.clone(), false)] {
                let (epoch, digest) = (source.epoch(), digest_face_map(&source));
                let (map, report) = source.repaired(3, death, mode);
                assert_eq!(source.epoch(), epoch, "{mode:?} death={death}");
                assert_eq!(digest_face_map(&source), digest, "{mode:?} death={death}");
                let mut in_place = source.clone();
                let in_place_report = if death {
                    in_place.kill_node(3, mode)
                } else {
                    in_place.revive_node(3, mode)
                };
                assert_eq!(report.epoch, epoch + 1);
                assert_eq!(report.epoch, in_place_report.epoch);
                assert_eq!(
                    digest_face_map(&map),
                    digest_face_map(&in_place),
                    "{mode:?} death={death}"
                );
            }
        }
    }

    #[test]
    fn rebuild_mode_is_identical_to_incremental() {
        let mut inc = build();
        let mut reb = build();
        inc.kill_node(4, RepairMode::Incremental);
        reb.kill_node(4, RepairMode::Rebuild);
        assert_same_division(&inc, &reb);
        assert_eq!(inc.epoch(), reb.epoch());
        assert_eq!(inc.live_nodes(), reb.live_nodes());
        inc.revive_node(4, RepairMode::Incremental);
        reb.revive_node(4, RepairMode::Rebuild);
        assert_same_division(&inc, &reb);
        assert_eq!(inc.epoch(), reb.epoch());
    }

    #[test]
    fn kill_then_revive_restores_the_original_division() {
        let original = build();
        let mut map = build();
        map.kill_node(1, RepairMode::Incremental);
        let report = map.revive_node(1, RepairMode::Incremental);
        assert_eq!(report.epoch, 2);
        assert_eq!(report.planes_added, 5);
        assert_same_division(&map, &original);
        assert_eq!(map.epoch(), 2, "epochs keep counting across restores");
        assert!(map.is_node_live(1));
        assert_eq!(
            map.memory_bytes(),
            original.memory_bytes(),
            "memory accounting must return to the original exactly"
        );
    }

    #[test]
    fn memory_accounting_is_idempotent_across_repair_cycles() {
        let mut map = build();
        map.kill_node(0, RepairMode::Incremental);
        map.kill_node(3, RepairMode::Incremental);
        let churned = map.memory_bytes();
        map.revive_node(0, RepairMode::Incremental);
        map.revive_node(3, RepairMode::Incremental);
        let restored = map.memory_bytes();
        map.kill_node(0, RepairMode::Incremental);
        map.kill_node(3, RepairMode::Incremental);
        assert_eq!(map.memory_bytes(), churned, "cycle drifted the bytes");
        map.revive_node(3, RepairMode::Incremental);
        map.revive_node(0, RepairMode::Incremental);
        assert_eq!(map.memory_bytes(), restored, "restore drifted the bytes");
        map.shrink_to_fit();
        assert_eq!(map.memory_bytes(), restored, "shrink changed the report");
    }

    #[test]
    fn remap_is_total_and_flags_merges() {
        let mut map = build();
        let faces_before = map.face_count();
        let report = map.kill_node(5, RepairMode::Incremental);
        assert_eq!(report.remap_len(), faces_before);
        let mut inexact = 0usize;
        for f in 0..faces_before {
            let (nf, exact) = report.remap_face(FaceId(f as u32)).expect("total remap");
            assert!(nf.index() < map.face_count());
            if !exact {
                inexact += 1;
            }
        }
        assert!(
            inexact > 0,
            "killing a node must merge at least one face pair"
        );
        assert!(report.remap_face(FaceId(faces_before as u32)).is_none());
    }

    #[test]
    fn projection_drops_dead_pair_components() {
        use crate::vector::SamplingVector;
        let mut map = build();
        map.kill_node(2, RepairMode::Incremental);
        let full_dim = pair_count(map.deployment().len());
        let v = SamplingVector::new((0..full_dim).map(|i| Some(i as f64 / 100.0)).collect());
        let projected = map.project_sampling_vector(v);
        assert_eq!(projected.len(), map.pair_dimension());
        // Surviving components keep their values; dropped ones mention 2.
        let mut k = 0usize;
        for i in 0..map.deployment().len() {
            for j in i + 1..map.deployment().len() {
                let d = pair_index(i, j, map.deployment().len());
                if i != 2 && j != 2 {
                    assert_eq!(projected.component(k), Some(d as f64 / 100.0));
                    k += 1;
                }
            }
        }
        assert!(!map.is_node_live(2));
        assert!(map.is_node_live(0));
    }

    #[test]
    fn copy_segments_round_trip() {
        let n = 7;
        let dim = pair_count(n);
        for r in 0..n {
            let skips = node_pairs(r, n);
            let squeeze = copy_segments(&skips, dim, true);
            let total: usize = squeeze.iter().map(|&(_, _, l)| l).sum();
            assert_eq!(total, dim - skips.len());
            // Squeeze then scatter restores every kept bit.
            let scatter = copy_segments(&skips, dim, false);
            let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1;
            let src: Vec<u64> = vec![0x9E37_79B9_7F4A_7C15; words_for(dim)];
            let mut dense = vec![0u64; words_for(dim - skips.len())];
            apply_copy(&compile_copy(&squeeze), &src, &mut dense);
            let mut back = vec![0u64; words_for(dim)];
            apply_copy(&compile_copy(&scatter), &dense, &mut back);
            for i in 0..dim {
                if skips.contains(&i) {
                    assert_eq!(bit(&back, i), 0);
                } else {
                    assert_eq!(
                        bit(&back, i),
                        bit(&src, i),
                        "position {i} lost in round trip"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_kill_rejected() {
        let mut map = build();
        map.kill_node(1, RepairMode::Incremental);
        map.kill_node(1, RepairMode::Incremental);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn revive_of_live_node_rejected() {
        let mut map = build();
        map.revive_node(1, RepairMode::Incremental);
    }

    #[test]
    #[should_panic(expected = "at least two live sensors")]
    fn cannot_shrink_below_two_sensors() {
        let positions = vec![
            Point::new(30.0, 30.0),
            Point::new(70.0, 30.0),
            Point::new(50.0, 70.0),
        ];
        let mut map = FaceMap::build(&positions, field(), 1.15, 5.0);
        map.kill_node(0, RepairMode::Incremental);
        map.kill_node(1, RepairMode::Incremental);
    }
}
