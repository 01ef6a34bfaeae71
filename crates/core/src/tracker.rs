//! The end-to-end tracking driver: grouping sampling → sampling vector →
//! face matching → location estimate, repeated along a trace.

use crate::error::ErrorStats;
use crate::facemap::{FaceId, FaceMap, RepairReport};
use crate::matching::{match_heuristic_packed, match_indexed_packed, MatchOutcome};
use crate::sampling::{QueryBuilder, ROUND_BUILDER};
use crate::session::REACQUIRE_RATIO;
use crate::vector::PackedQuery;
use rand::Rng;
use std::cell::Cell;
use std::sync::Arc;
use wsn_geometry::Point;
use wsn_mobility::Trace;
use wsn_network::{GroupSampler, GroupSampling, SensorField};
use wsn_telemetry as telemetry;

/// Which matcher a tracker uses per localization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Matching {
    /// Maximum-likelihood matching over every face (the `O(n⁴)` baseline
    /// matcher), executed through the chunk index: whole chunks are pruned
    /// by an envelope lower bound first, with the exhaustive scan's exact
    /// outcome.
    Exhaustive,
    /// Algorithm 2: hill-climb over neighbor links, warm-started from the
    /// previous localization. The tracker re-runs exhaustively when the
    /// climb's similarity falls below [`REACQUIRE_RATIO`] of the rolling
    /// median of recent (finite) similarities. Unlike an absolute
    /// threshold, this tracks the run's own attainable similarity level —
    /// under heavy noise the median drops with it, so re-acquisition
    /// stays rare — while still catching a climb stranded on a low
    /// plateau far from the target (the warm-start divergence mode of
    /// sequential RSS trackers).
    Heuristic,
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerOptions {
    /// Use the extended (quantitative) sampling vectors of Section 6.
    pub extended: bool,
    /// Matching strategy.
    pub matching: Matching,
}

impl Default for TrackerOptions {
    /// Basic FTTT with exhaustive ML matching — the configuration of the
    /// paper's headline simulations.
    fn default() -> Self {
        Self {
            extended: false,
            matching: Matching::Exhaustive,
        }
    }
}

impl TrackerOptions {
    /// Extended FTTT (Section 6) with exhaustive matching.
    pub fn extended() -> Self {
        Self {
            extended: true,
            ..Self::default()
        }
    }

    /// Basic FTTT with the heuristic matcher (Algorithm 2).
    ///
    /// An *absolute* fallback threshold is useless under realistic noise
    /// (the best attainable similarity is routinely below any fixed
    /// threshold, so it would re-run the exhaustive scan on nearly every
    /// localization and erase the heuristic's complexity win). Instead the
    /// climb re-acquires exhaustively only when its similarity drops below
    /// half the rolling median of recent matches — the signature of a climb
    /// stranded on a plateau far from the target, which would otherwise
    /// poison the warm start for many localizations in a row.
    pub fn heuristic() -> Self {
        Self {
            matching: Matching::Heuristic,
            ..Self::default()
        }
    }
}

/// Rolling window of recent finite similarities kept for the relative
/// re-acquisition check (long enough to ride out single bad groupings,
/// short enough to track regime changes within a few seconds).
const SIMILARITY_WINDOW: usize = 8;

/// The last [`SIMILARITY_WINDOW`] finite similarities, behind the
/// relative re-acquisition checks of both the tracker and the session: a
/// fixed ring, so recording and taking the median allocate nothing.
#[derive(Debug, Clone, Default)]
struct SimilarityWindow {
    recent: [f64; SIMILARITY_WINDOW],
    len: usize,
    next: usize,
}

impl SimilarityWindow {
    /// Records `s`, evicting the oldest entry once full. Exact matches
    /// (infinite similarity) would poison any relative threshold, so the
    /// window tracks only the finite noise floor.
    fn record(&mut self, s: f64) {
        if s.is_finite() {
            self.recent[self.next] = s;
            self.next = (self.next + 1) % SIMILARITY_WINDOW;
            self.len = (self.len + 1).min(SIMILARITY_WINDOW);
        }
    }

    /// Forgets every entry.
    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
    }

    /// The median of the window (the upper one, `sorted[len / 2]`, on an
    /// even count), `None` before the first finite similarity.
    fn median(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mut sorted = self.recent;
        let sorted = &mut sorted[..self.len];
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite similarities"));
        Some(sorted[self.len / 2])
    }
}

/// One localization along a tracking run.
#[derive(Debug, Clone, PartialEq)]
pub struct Localization {
    /// Trace timestamp, seconds.
    pub t: f64,
    /// Ground-truth target position.
    pub truth: Point,
    /// FTTT's location estimate.
    pub estimate: Point,
    /// Matched face.
    pub face: FaceId,
    /// Similarity of the match.
    pub similarity: f64,
    /// Geographic error `‖estimate − truth‖`, metres.
    pub error: f64,
    /// Similarity evaluations spent on this localization.
    pub evaluated: usize,
}

/// A completed tracking run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingRun {
    /// Per-localization records, in trace order.
    pub localizations: Vec<Localization>,
}

impl TrackingRun {
    /// The per-point errors, in trace order.
    pub fn errors(&self) -> Vec<f64> {
        self.localizations.iter().map(|l| l.error).collect()
    }

    /// Summary statistics of the per-point errors.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn error_stats(&self) -> ErrorStats {
        ErrorStats::from_errors(&self.errors())
    }

    /// Total similarity evaluations across the run (the matching work the
    /// heuristic matcher is meant to shrink).
    pub fn total_evaluated(&self) -> usize {
        self.localizations.iter().map(|l| l.evaluated).sum()
    }
}

/// The FTTT tracker: holds a (possibly shared) face map, remembers the
/// previous face for warm-started matching.
///
/// The map is behind an [`Arc`] so a server hosting tens of thousands of
/// concurrent sessions keeps one copy of the division instead of one per
/// session. A churn repair never writes to the shared map: it builds a
/// new one ([`FaceMap::repaired`]), which one or many trackers then
/// switch to with [`Tracker::adopt_repair`].
#[derive(Debug, Clone)]
pub struct Tracker {
    map: Arc<FaceMap>,
    options: TrackerOptions,
    previous: Option<FaceId>,
    recent_sims: SimilarityWindow,
}

impl Tracker {
    /// Creates a tracker over a prebuilt face map it owns exclusively.
    pub fn new(map: FaceMap, options: TrackerOptions) -> Self {
        Self::shared(Arc::new(map), options)
    }

    /// Creates a tracker over a face map shared with other trackers. No
    /// map data is copied.
    pub fn shared(map: Arc<FaceMap>, options: TrackerOptions) -> Self {
        Self {
            map,
            options,
            previous: None,
            recent_sims: SimilarityWindow::default(),
        }
    }

    /// The face map.
    pub fn map(&self) -> &FaceMap {
        &self.map
    }

    /// The options.
    pub fn options(&self) -> TrackerOptions {
        self.options
    }

    /// Forgets the previous localization (e.g. when the target was lost).
    pub fn reset(&mut self) {
        self.previous = None;
        self.recent_sims.clear();
    }

    /// The rolling median of the recent finite similarities, `None`
    /// before the first finite match or right after a [`Tracker::reset`]
    /// or [`Tracker::adopt_repair`]. The session's health check reads it.
    pub(crate) fn similarity_median(&self) -> Option<f64> {
        self.recent_sims.median()
    }

    /// Builds into `builder` the round's packed query (see
    /// [`Tracker::query`]); the session passes its thread's buffers.
    pub(crate) fn build_query<'b>(
        &self,
        builder: &'b mut QueryBuilder,
        group: &GroupSampling,
    ) -> &'b PackedQuery {
        builder.build(
            group,
            self.map.query_columns(group.node_count()),
            self.options.extended,
        )
    }

    /// The packed query this tracker's options call for (basic or
    /// extended), over the map's live pairs — after churn the grouping
    /// still reports every deployment node, but only planes of live pairs
    /// partition the field, so dead pairs must not vote.
    ///
    /// This is the round's one Algorithm-1 pass: callers build the query
    /// once and hand it to [`Tracker::localize`] or [`Tracker::reacquire`]
    /// (and to any health checks of their own). It allocates fresh
    /// buffers; [`TrackingSession::step`] reuses its thread's instead.
    ///
    /// [`TrackingSession::step`]: crate::session::TrackingSession::step
    pub fn query(&self, group: &GroupSampling) -> PackedQuery {
        let mut builder = QueryBuilder::new();
        self.build_query(&mut builder, group);
        builder.into_query()
    }

    /// Switches the tracker to `map`, the result of repairing its current
    /// map as `report` describes ([`FaceMap::repaired`]), and migrates the
    /// warm-start state across the epoch bump: the previous face is
    /// remapped through the report's old→new face table, and the rolling
    /// similarity window — measured against the old pair dimension — is
    /// restarted. Many trackers can adopt one repaired map. Returns
    /// whether the warm-start face survived the repair *exactly* (same
    /// cell set); callers should treat an inexact survival as a stale
    /// warm start and force a full re-acquisition.
    ///
    /// # Panics
    ///
    /// Panics if `report` is not a repair of the tracker's current map:
    /// its epoch must be one past the current map's, its remap must cover
    /// the current faces, and `map` must carry the report's epoch.
    pub fn adopt_repair(&mut self, map: Arc<FaceMap>, report: &RepairReport) -> bool {
        assert!(
            report.epoch == self.map.epoch() + 1
                && report.remap_len() == self.map.face_count()
                && map.epoch() == report.epoch,
            "repair to epoch {} does not follow the tracker's map at epoch {}",
            report.epoch,
            self.map.epoch()
        );
        self.map = map;
        self.recent_sims.clear();
        let mut warm_exact = true;
        self.previous = self.previous.take().and_then(|f| {
            let (nf, exact) = report.remap_face(f)?;
            warm_exact = exact;
            Some(nf)
        });
        warm_exact
    }

    /// Localizes one round from its query `q`, as built by
    /// [`Tracker::query`] — the caller builds it once per round.
    /// Returns the estimate and the raw match outcome, and updates the
    /// warm-start state.
    pub fn localize(&mut self, q: &PackedQuery) -> (Point, MatchOutcome) {
        let outcome = match self.options.matching {
            Matching::Exhaustive => match_indexed_packed(&self.map, q),
            Matching::Heuristic => {
                let start = self.previous.unwrap_or_else(|| self.map.center_face());
                let out = match_heuristic_packed(&self.map, q, start);
                let stranded = self
                    .recent_sims
                    .median()
                    .is_some_and(|median| out.similarity < REACQUIRE_RATIO * median);
                if stranded {
                    if telemetry::journal_enabled() {
                        use telemetry::ArgValue;
                        telemetry::trace_instant(
                            "fttt.tracker.fallback_reacquire",
                            vec![
                                ("similarity", ArgValue::F64(out.similarity)),
                                ("stranded", ArgValue::Bool(stranded)),
                            ],
                        );
                    }
                    let mut ex = match_indexed_packed(&self.map, q);
                    ex.evaluated += out.evaluated;
                    ex
                } else {
                    out
                }
            }
        };
        self.recent_sims.record(outcome.similarity);
        self.previous = Some(outcome.face);
        let estimate = self.resolve_estimate(&outcome);
        (estimate, outcome)
    }

    /// Localizes one round from its query `q` (built once by the caller
    /// with [`Tracker::query`]) with a forced
    /// full-accuracy (indexed) match, regardless of the configured
    /// matching mode, and rebases the warm start on the result. The
    /// session layer's recovery ladder uses this when the heuristic climb
    /// is suspected of being stranded.
    pub fn reacquire(&mut self, q: &PackedQuery) -> (Point, MatchOutcome) {
        let outcome = match_indexed_packed(&self.map, q);
        self.recent_sims.record(outcome.similarity);
        self.previous = Some(outcome.face);
        let estimate = self.resolve_estimate(&outcome);
        (estimate, outcome)
    }

    /// Tracks a target along `trace`: one grouping sampling and one
    /// localization per trace point.
    pub fn track<R: Rng + ?Sized>(
        &mut self,
        field: &SensorField,
        sampler: &GroupSampler,
        trace: &Trace,
        rng: &mut R,
    ) -> TrackingRun {
        self.track_with(field, sampler, trace, rng, |g, _| g)
    }

    /// Like [`Tracker::track`], but pipes every grouping sampling through
    /// `transform` before localization — the hook for inserting a
    /// transport layer (e.g. `wsn_network::Uplink::deliver`) or any other
    /// degradation between the sensors and the matcher.
    pub fn track_with<R, F>(
        &mut self,
        field: &SensorField,
        sampler: &GroupSampler,
        trace: &Trace,
        rng: &mut R,
        mut transform: F,
    ) -> TrackingRun
    where
        R: Rng + ?Sized,
        F: FnMut(GroupSampling, &mut R) -> GroupSampling,
    {
        let mut localizations = Vec::with_capacity(trace.len());
        let mut builder = ROUND_BUILDER.with(Cell::take);
        for p in trace.points() {
            let group = transform(sampler.sample(field, p.pos, rng), rng);
            let (estimate, outcome) = self.localize(self.build_query(&mut builder, &group));
            localizations.push(Localization {
                t: p.t,
                truth: p.pos,
                estimate,
                face: outcome.face,
                similarity: outcome.similarity,
                error: estimate.distance(p.pos),
                evaluated: outcome.evaluated,
            });
        }
        ROUND_BUILDER.with(|slot| slot.set(builder));
        TrackingRun { localizations }
    }

    fn resolve_estimate(&self, outcome: &MatchOutcome) -> Point {
        // The paper's tie rule: the mean of the tied faces' centroids.
        if outcome.ties.len() > 1 {
            let mut x = 0.0;
            let mut y = 0.0;
            for &id in &outcome.ties {
                let c = self.map.face(id).centroid;
                x += c.x;
                y += c.y;
            }
            let n = outcome.ties.len() as f64;
            Point::new(x / n, y / n)
        } else {
            self.map.face(outcome.face).centroid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsn_geometry::Rect;
    use wsn_mobility::{TimedPoint, WaypointPath};
    use wsn_network::{Deployment, FaultModel};
    use wsn_signal::PathLossModel;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(n: usize, sigma: f64, k: usize) -> (SensorField, FaceMap, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(n, field);
        let sensor_field = SensorField::new(deployment, 150.0);
        let model = PathLossModel::new(-40.0, 0.0, 4.0, sigma);
        let c = model.uncertainty_constant(1.0);
        let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 2.0);
        let sampler = GroupSampler::new(model, k);
        (sensor_field, map, sampler)
    }

    fn straight_trace() -> Trace {
        WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0)
    }

    /// The fixed ring gives the same median bits as the sorted copy of a
    /// FIFO deque it replaced, through evictions, repeats, infinities
    /// (never recorded) and clears.
    #[test]
    fn similarity_window_matches_a_sorted_fifo() {
        let mut window = SimilarityWindow::default();
        let mut fifo = std::collections::VecDeque::new();
        let mut x = 0.37f64;
        for i in 0..300 {
            x = (x * 3.7 + 0.11) % 1.0;
            let s = match i % 11 {
                0 => f64::INFINITY,
                1 | 2 => 0.25,
                _ => 0.5 + x,
            };
            window.record(s);
            if s.is_finite() {
                if fifo.len() == SIMILARITY_WINDOW {
                    fifo.pop_front();
                }
                fifo.push_back(s);
            }
            let mut sorted: Vec<f64> = fifo.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let reference = sorted.get(sorted.len() / 2).copied();
            assert_eq!(
                window.median().map(f64::to_bits),
                reference.map(f64::to_bits),
                "round {i}"
            );
            if i % 97 == 96 {
                window.clear();
                fifo.clear();
            }
        }
    }

    #[test]
    fn noiseless_tracking_is_tight() {
        // σ = 0 keeps every pair ordinal outside the ε-band; the estimate
        // should stay within a few face diameters of the truth.
        let (field, map, sampler) = setup(9, 0.0, 3);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &sampler, &straight_trace(), &mut rng(1));
        let stats = run.error_stats();
        assert!(stats.mean < 8.0, "noiseless mean error {}", stats.mean);
    }

    #[test]
    fn noisy_tracking_beats_field_scale() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &sampler, &straight_trace(), &mut rng(2));
        let stats = run.error_stats();
        // A blind guess at the field centre averages ~25 m on this trace.
        assert!(stats.mean < 20.0, "noisy mean error {}", stats.mean);
    }

    #[test]
    fn heuristic_matches_exhaustive_accuracy_with_less_work() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let trace = straight_trace();
        let mut ex = Tracker::new(map.clone(), TrackerOptions::default());
        let run_ex = ex.track(&field, &sampler, &trace, &mut rng(3));
        let mut he = Tracker::new(map, TrackerOptions::heuristic());
        let run_he = he.track(&field, &sampler, &trace, &mut rng(3));
        // Same RNG stream ⟹ identical samplings; errors must be close on
        // average, and the heuristic must evaluate far fewer faces.
        let (me, mh) = (run_ex.error_stats().mean, run_he.error_stats().mean);
        assert!(mh <= me * 1.5 + 2.0, "heuristic {mh} vs exhaustive {me}");
        assert!(
            run_he.total_evaluated() < run_ex.total_evaluated() / 2,
            "heuristic {} vs exhaustive {} evaluations",
            run_he.total_evaluated(),
            run_ex.total_evaluated()
        );
    }

    #[test]
    fn extended_reduces_error_deviation() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let trace = straight_trace();
        let mut basic_stds = Vec::new();
        let mut ext_stds = Vec::new();
        for seed in 0..8 {
            let mut basic = Tracker::new(map.clone(), TrackerOptions::default());
            basic_stds.push(
                basic
                    .track(&field, &sampler, &trace, &mut rng(100 + seed))
                    .error_stats()
                    .std,
            );
            let mut ext = Tracker::new(map.clone(), TrackerOptions::extended());
            ext_stds.push(
                ext.track(&field, &sampler, &trace, &mut rng(100 + seed))
                    .error_stats()
                    .std,
            );
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&ext_stds) <= mean(&basic_stds) * 1.1,
            "extended std {} vs basic {}",
            mean(&ext_stds),
            mean(&basic_stds)
        );
    }

    #[test]
    fn tracking_survives_node_failures() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let faulty = sampler
            .clone()
            .with_fault(FaultModel::with_node_failure(0.3));
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &faulty, &straight_trace(), &mut rng(5));
        let stats = run.error_stats();
        assert!(stats.mean.is_finite());
        assert!(stats.mean < 30.0, "faulty mean error {}", stats.mean);
    }

    #[test]
    fn localize_warm_start_state() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let mut tracker = Tracker::new(map, TrackerOptions::heuristic());
        assert!(tracker.previous.is_none());
        let group = sampler.sample(&field, Point::new(50.0, 50.0), &mut rng(6));
        let _ = tracker.localize(&tracker.query(&group));
        assert!(tracker.previous.is_some());
        tracker.reset();
        assert!(tracker.previous.is_none());
    }

    #[test]
    fn track_with_applies_the_transform() {
        let (field, map, sampler) = setup(9, 6.0, 5);
        let trace = straight_trace();
        // Identity transform reproduces plain track() exactly.
        let mut a = Tracker::new(map.clone(), TrackerOptions::default());
        let run_a = a.track(&field, &sampler, &trace, &mut rng(41));
        let mut b = Tracker::new(map.clone(), TrackerOptions::default());
        let run_b = b.track_with(&field, &sampler, &trace, &mut rng(41), |g, _| g);
        assert_eq!(run_a, run_b);
        // A censoring transform (drop every reading of node 0) changes the
        // run but keeps it sane.
        let mut c = Tracker::new(map, TrackerOptions::default());
        let run_c = c.track_with(&field, &sampler, &trace, &mut rng(41), |mut g, _| {
            for t in 0..g.instants() {
                g.set(t, 0, None);
            }
            g
        });
        assert_ne!(run_a, run_c);
        assert!(run_c.error_stats().mean.is_finite());
    }

    #[test]
    fn shared_map_churn_is_copy_on_write() {
        use crate::facemap::RepairMode;
        let (field, map, sampler) = setup(9, 6.0, 5);
        let shared = Arc::new(map);
        let mut a = Tracker::shared(Arc::clone(&shared), TrackerOptions::default());
        let mut b = Tracker::shared(Arc::clone(&shared), TrackerOptions::default());
        let epoch0 = shared.epoch();
        let (repaired, report) = a.map().repaired(3, true, RepairMode::Incremental);
        a.adopt_repair(Arc::new(repaired), &report);
        // Only `a` sees the repair; the shared original and `b` are
        // untouched.
        assert!(a.map().epoch() > epoch0);
        assert_eq!(shared.epoch(), epoch0);
        assert_eq!(b.map().epoch(), epoch0);
        assert!(!a.map().is_node_live(3));
        assert!(b.map().is_node_live(3));
        let group = sampler.sample(&field, Point::new(50.0, 50.0), &mut rng(9));
        let (estimate, _) = b.localize(&b.query(&group));
        assert!(estimate.x.is_finite() && estimate.y.is_finite());
    }

    #[test]
    fn run_records_are_consistent() {
        let (field, map, sampler) = setup(4, 6.0, 3);
        let trace = Trace::new(vec![
            TimedPoint::new(0.0, Point::new(30.0, 30.0)),
            TimedPoint::new(1.0, Point::new(32.0, 30.0)),
        ]);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let run = tracker.track(&field, &sampler, &trace, &mut rng(7));
        assert_eq!(run.localizations.len(), 2);
        for l in &run.localizations {
            assert!((l.error - l.estimate.distance(l.truth)).abs() < 1e-12);
            assert!(l.similarity > 0.0);
        }
    }
}
