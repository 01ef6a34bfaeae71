//! Self-healing tracking sessions: health monitoring, a recovery ladder
//! and adaptive sampling on top of [`Tracker`].
//!
//! The paper's fault rule (eq. 6) absorbs *erasure* faults — missing
//! readings become `*` components and drop out of the distance sum. A
//! session defends against what that rule cannot see: climbs stranded far
//! from the target, groupings so sparse the match is meaningless, total
//! blackouts, and lying sensors whose readings are present but wrong.
//! Three behavioral health checks run per round:
//!
//! 1. **Relative similarity** — the match similarity against the rolling
//!    median of recent finite similarities (absolute thresholds are
//!    useless: the attainable similarity depends on noise and geometry).
//! 2. **Missing fraction** — the share of `*` components in the sampling
//!    vector; past a threshold the `*`-rule has eaten so much of the
//!    vector that whatever face wins is weakly supported.
//! 3. **Estimate plausibility** — the jump from the last trusted estimate
//!    against the target's maximum speed; RSS matchers fail by
//!    teleporting, real targets don't.
//!
//! Failing checks walk a recovery ladder: trust the (heuristic) climb →
//! force an exhaustive-quality re-acquisition (executed by the
//! chunk-indexed matcher, which returns the identical face at a fraction
//! of the scan cost) → hold the last trusted estimate and
//! report [`TrackStatus::Lost`]. In parallel the session escalates the
//! sampling times `k` toward the Section-5.1 bound
//! `k > 1 − log₂(1 − λ^{1/N})` ([`crate::theory::required_sampling_times`])
//! evaluated at the *live* pair count — fewer responding nodes mean fewer
//! pairs, so the bound, and the session's sampling effort, adapt to the
//! fault regime — and decays `k` back once rounds run healthy again.

use crate::error::ErrorStats;
use crate::facemap::{FaceId, FaceMap, RepairMode, RepairReport};
use crate::sampling::ROUND_BUILDER;
use crate::theory::required_sampling_times;
use crate::tracker::Tracker;
use crate::vector::PackedQuery;
use rand::Rng;
use std::cell::Cell;
use std::sync::Arc;
use wsn_geometry::Point;
use wsn_mobility::Trace;
use wsn_network::{pair_count, GroupSampling};
use wsn_telemetry as telemetry;
use wsn_telemetry::json::{self, JsonValue};
use wsn_telemetry::ArgValue;

/// The session's judgement of how much to trust the current estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackStatus {
    /// Healthy: the estimate passed every check.
    Tracking,
    /// One or more health checks failed recently; the estimate is reported
    /// but should be treated with suspicion.
    Degraded,
    /// The target is considered lost (persistent check failures or
    /// blackout); the session holds the last trusted estimate and keeps
    /// attempting re-acquisition.
    Lost,
}

impl TrackStatus {
    /// Every status, in wire-byte order.
    pub const ALL: [TrackStatus; 3] = [Self::Tracking, Self::Degraded, Self::Lost];

    /// The status spelled `name` by [`status_name`], if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|&s| status_name(s) == name)
    }
}

/// Why a round was judged the way it was: healthy, or the
/// highest-priority failing check (`Blackout` > `Stranded` > `Starved` >
/// `Teleported`). The discriminant is the cause's wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Every check passed.
    Healthy = 0,
    /// The sampling vector was empty or all-`*`; the session held.
    Blackout = 1,
    /// Similarity fell below [`REACQUIRE_RATIO`] × rolling median.
    Stranded = 2,
    /// Missing fraction exceeded [`MAX_MISSING_FRACTION`].
    Starved = 3,
    /// The estimate jumped farther than the target could travel.
    Teleported = 4,
}

impl Cause {
    /// Every cause, in discriminant order (`ALL[c as usize] == c`).
    pub const ALL: [Cause; 5] = [
        Self::Healthy,
        Self::Blackout,
        Self::Stranded,
        Self::Starved,
        Self::Teleported,
    ];

    /// The stable journal/CLI spelling (`"healthy"`, `"blackout"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Blackout => "blackout",
            Self::Stranded => "stranded",
            Self::Starved => "starved",
            Self::Teleported => "teleported",
        }
    }

    /// The cause spelled `name` by [`Cause::name`], if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// A round is unhealthy when its similarity falls below this fraction of
/// the rolling median of recent finite similarities. The heuristic
/// tracker's in-round fallback re-acquisition reads the same ratio: both
/// checks share one similarity window, so they must agree.
pub const REACQUIRE_RATIO: f64 = 0.5;

/// A round is unhealthy when more than this fraction of the sampling
/// vector is `*` (unknown).
pub const MAX_MISSING_FRACTION: f64 = 0.5;

/// Slack added to the plausible-jump radius, metres (covers face
/// granularity: even a perfect match moves in centroid-sized steps).
pub const JUMP_SLACK: f64 = 15.0;

/// Target probability λ for the Section-5.1 sampling-times bound used
/// when escalating `k` under fault pressure.
pub const LAMBDA: f64 = 0.95;

/// Consecutive unhealthy rounds before the session declares
/// [`TrackStatus::Lost`].
pub const LOST_AFTER: usize = 3;

/// Consecutive healthy rounds before a degraded/lost session returns to
/// [`TrackStatus::Tracking`].
pub const RECOVER_AFTER: usize = 2;

/// Session configuration: the baseline sampling times and the target's
/// maximum speed. The monitor's thresholds are the constants of this
/// module ([`REACQUIRE_RATIO`], [`MAX_MISSING_FRACTION`], [`JUMP_SLACK`],
/// [`LAMBDA`], [`LOST_AFTER`], [`RECOVER_AFTER`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOptions {
    /// Maximum plausible target speed in m/s; estimates jumping farther
    /// than `max_speed·Δt + JUMP_SLACK` from the last trusted estimate are
    /// unhealthy. `f64::INFINITY` disables the check.
    pub max_speed: f64,
    /// Baseline sampling times `k` per grouping.
    pub base_samples: usize,
}

impl SessionOptions {
    /// Options around a baseline of `base_samples` sampling times, with
    /// the plausible-speed check disabled.
    ///
    /// # Panics
    ///
    /// Panics if `base_samples == 0`.
    pub fn new(base_samples: usize) -> Self {
        assert!(base_samples > 0, "need at least one sample per grouping");
        Self {
            max_speed: f64::INFINITY,
            base_samples,
        }
    }

    /// Sets the plausible-speed check.
    pub fn with_max_speed(mut self, speed: f64) -> Self {
        self.max_speed = speed;
        self
    }

    /// Ceiling on escalated sampling times: the baseline, but at least 12.
    pub fn max_samples(&self) -> usize {
        self.base_samples.max(12)
    }
}

/// The per-round causal record: which health checks fired, what the
/// monitor concluded and how the recovery ladder moved.
///
/// Every [`TrackingSession::step`] builds one and attaches it to the
/// returned [`SessionRound`]; when a trace journal is installed
/// ([`wsn_telemetry::install_journal`]) the same record is emitted as a
/// `fttt.session.round` journal event, which `fttt-sim explain` renders
/// into a status-transition timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Zero-based index of this round within the session's lifetime.
    pub round: u64,
    /// Session status *before* this round's checks ran.
    pub status_before: TrackStatus,
    /// Why the round was judged the way it was.
    pub cause: Cause,
    /// The sampling vector was empty or all-`*`; the session held.
    pub blackout: bool,
    /// Similarity fell below [`REACQUIRE_RATIO`] × rolling median.
    pub stranded: bool,
    /// Missing fraction exceeded [`MAX_MISSING_FRACTION`].
    pub starved: bool,
    /// The estimate jumped farther than the target could travel.
    pub teleported: bool,
    /// Fraction of *known* components that are exactly zero — pairs whose
    /// order was sampled but never observed flipped. A spike alongside a
    /// healthy missing fraction points at lying (stuck/drifting) sensors
    /// rather than erasures.
    pub zero_fraction: f64,
    /// Sampling times `k` in effect after this round's escalation/decay
    /// (the request for the *next* round; `SessionRound::samples` is the
    /// `k` this round was sampled with).
    pub k_after: usize,
}

/// One session round: the estimate plus everything the monitor saw.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRound {
    /// Round timestamp, seconds.
    pub t: f64,
    /// The reported estimate (held from the last trusted round when the
    /// session could not localize).
    pub estimate: Point,
    /// Session status *after* this round's checks.
    pub status: TrackStatus,
    /// Sampling times `k` the session requested for this round.
    pub samples: usize,
    /// The face the round's match landed on, `None` when the round was a
    /// blackout hold (no match ran). On held non-blackout rounds this is
    /// still the *fresh* match's face — the rejected localization — while
    /// `estimate` is the hold; the replay digest folds both.
    pub face: Option<FaceId>,
    /// Similarity of the match, `None` when the round was a blackout hold.
    pub similarity: Option<f64>,
    /// Fraction of `*` components in the sampling vector (1.0 on
    /// blackout).
    pub missing_fraction: f64,
    /// `true` if the session forced an exhaustive re-acquisition.
    pub reacquired: bool,
    /// `true` if the estimate is a hold of the last trusted one rather
    /// than a fresh localization.
    pub held: bool,
    /// The round's causal record (check verdicts, cause, ladder movement).
    pub trace: RoundTrace,
}

/// A completed session run over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRun {
    /// Per-round records, in trace order.
    pub rounds: Vec<SessionRound>,
    /// Geographic errors against the trace ground truth, parallel to
    /// `rounds`.
    pub errors: Vec<f64>,
}

impl SessionRun {
    /// Summary statistics of the per-round errors.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn error_stats(&self) -> ErrorStats {
        ErrorStats::from_errors(&self.errors)
    }

    /// Number of rounds that ended in `status`.
    pub fn rounds_in(&self, status: TrackStatus) -> usize {
        self.rounds.iter().filter(|r| r.status == status).count()
    }

    /// `true` if the session declared [`TrackStatus::Lost`] at some round
    /// and returned to [`TrackStatus::Tracking`] at a later one.
    pub fn recovered_from_lost(&self) -> bool {
        match self
            .rounds
            .iter()
            .position(|r| r.status == TrackStatus::Lost)
        {
            None => false,
            Some(i) => self.rounds[i..]
                .iter()
                .any(|r| r.status == TrackStatus::Tracking),
        }
    }

    /// Total sampling times spent across the run (the energy-side cost of
    /// adaptive escalation).
    pub fn total_samples(&self) -> usize {
        self.rounds.iter().map(|r| r.samples).sum()
    }
}

/// A self-healing tracking session wrapping a [`Tracker`].
#[derive(Debug, Clone)]
pub struct TrackingSession {
    tracker: Tracker,
    options: SessionOptions,
    status: TrackStatus,
    samples: usize,
    unhealthy_streak: usize,
    healthy_streak: usize,
    /// Last trusted (healthy) estimate and its timestamp.
    last_trusted: Option<(f64, Point)>,
    /// Last reported estimate (trusted or not) — the hold value.
    last_reported: Option<Point>,
    /// Escalation ladder: force exhaustive re-acquisition next round.
    force_reacquire: bool,
    /// Lifetime round counter, indexing [`RoundTrace::round`].
    round_index: u64,
    /// Process-unique id stamped on journaled round events, so traces
    /// holding many interleaved sessions (campaigns) stay separable.
    /// Clones share the id of the original.
    session_id: u64,
}

/// Source of [`TrackingSession::session_id`] values.
static NEXT_SESSION_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl TrackingSession {
    /// Wraps `tracker` in a session with the given options.
    ///
    /// # Panics
    ///
    /// Panics if `base_samples == 0`.
    pub fn new(tracker: Tracker, options: SessionOptions) -> Self {
        assert!(
            options.base_samples > 0,
            "need at least one sample per grouping"
        );
        Self {
            tracker,
            options,
            status: TrackStatus::Tracking,
            samples: options.base_samples,
            unhealthy_streak: 0,
            healthy_streak: 0,
            last_trusted: None,
            last_reported: None,
            force_reacquire: false,
            round_index: 0,
            session_id: NEXT_SESSION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Current status.
    pub fn status(&self) -> TrackStatus {
        self.status
    }

    /// Sampling times `k` the session wants for the next grouping.
    pub fn requested_samples(&self) -> usize {
        self.samples
    }

    /// The session's options.
    pub fn options(&self) -> SessionOptions {
        self.options
    }

    /// The wrapped tracker (read-only) — the seam deterministic harnesses
    /// use to fold the tracker's face-map state into replay digests after
    /// an [`TrackingSession::apply_churn`] repair.
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Replaces the process-unique session id with a caller-chosen one.
    ///
    /// The default ids come from a process-global counter, so sessions
    /// created on racing worker threads get ids in a nondeterministic
    /// order — and across processes the same trial gets different ids
    /// entirely. Deterministic pipelines (the fault
    /// campaign, replay) derive a *stable* id from the trial's identity
    /// instead and install it here before the first round, so journaled
    /// round events key identically across runs, thread counts and
    /// processes. Keep ids below 2⁵³ if the journal will be re-read
    /// through JSON (numbers are f64 there).
    pub fn with_session_id(mut self, id: u64) -> Self {
        self.session_id = id;
        self
    }

    /// The id stamped on this session's journaled round events.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Processes one grouping sampling taken at time `t`.
    ///
    /// `group` should have been sampled with [`requested_samples`]
    /// columns of `k` readings, but any grouping is accepted — the monitor
    /// judges what arrived, not what was asked for. The round runs
    /// Algorithm 1 once, straight into a packed query in this thread's
    /// reused buffers: the health checks and the match share it.
    ///
    /// [`requested_samples`]: TrackingSession::requested_samples
    pub fn step(&mut self, t: f64, group: &GroupSampling) -> SessionRound {
        let mut builder = ROUND_BUILDER.with(Cell::take);
        let q = self.tracker.build_query(&mut builder, group);
        let round = self.step_query(t, group, q);
        ROUND_BUILDER.with(|slot| slot.set(builder));
        round
    }

    /// [`TrackingSession::step`] on the round's query `q`, built from
    /// `group`.
    fn step_query(&mut self, t: f64, group: &GroupSampling, q: &PackedQuery) -> SessionRound {
        let status_before = self.status;
        let samples_requested = self.samples;
        let round_index = self.round_index;
        self.round_index += 1;
        let unknown = q.unknown_count();
        let missing_fraction = unknown as f64 / q.dim() as f64;
        let known = q.dim() - unknown;
        let zero_fraction = if known == 0 {
            0.0
        } else {
            q.zero_count() as f64 / known as f64
        };
        let blackout = known == 0;

        if blackout {
            // Nothing to match against: matching an all-`*` vector ties
            // every face and would report the field centre. Hold instead.
            let estimate = self.hold_estimate();
            self.record_unhealthy();
            self.escalate_samples(group);
            let round = SessionRound {
                t,
                estimate,
                status: self.status,
                samples: samples_requested,
                face: None,
                similarity: None,
                missing_fraction,
                reacquired: false,
                held: true,
                trace: RoundTrace {
                    round: round_index,
                    status_before,
                    cause: Cause::Blackout,
                    blackout: true,
                    stranded: false,
                    starved: false,
                    teleported: false,
                    zero_fraction,
                    k_after: self.samples,
                },
            };
            self.note_round(&round);
            return round;
        }

        // The relative-similarity check reads the tracker's window of
        // recent similarities as it stands before this round's match
        // records into it: the tracker records every matched round's
        // similarity and clears whenever the session restarts its
        // monitor, so one window serves both.
        let median = self.tracker.similarity_median();
        let reacquired = self.force_reacquire;
        let (estimate, outcome) = if reacquired {
            self.force_reacquire = false;
            self.tracker.reacquire(q)
        } else {
            self.tracker.localize(q)
        };

        // Health checks.
        let stranded = median.is_some_and(|median| outcome.similarity < REACQUIRE_RATIO * median);
        let starved = missing_fraction > MAX_MISSING_FRACTION;
        let teleported = self.options.max_speed.is_finite()
            && self.last_trusted.is_some_and(|(t0, p0)| {
                let dt = (t - t0).max(0.0);
                estimate.distance(p0) > self.options.max_speed * dt + JUMP_SLACK
            });

        let healthy = !(stranded || starved || teleported);
        if healthy {
            self.record_healthy();
            self.last_trusted = Some((t, estimate));
        } else {
            self.record_unhealthy();
            // Ladder rung 2: a stranded or teleporting climb gets one
            // forced exhaustive re-acquisition before the session gives
            // up on the warm start entirely.
            if (stranded || teleported) && !reacquired {
                self.force_reacquire = true;
            }
        }

        // While Lost, keep reporting the hold until re-acquisition proves
        // itself: a Lost session's fresh estimates are exactly the ones
        // the checks just rejected.
        let (reported, held) = if self.status == TrackStatus::Lost && !healthy {
            (self.hold_estimate(), true)
        } else {
            self.last_reported = Some(estimate);
            (estimate, false)
        };

        if healthy {
            self.decay_samples();
        } else {
            self.escalate_samples(group);
        }
        let cause = if healthy {
            Cause::Healthy
        } else if stranded {
            Cause::Stranded
        } else if starved {
            Cause::Starved
        } else {
            Cause::Teleported
        };
        let round = SessionRound {
            t,
            estimate: reported,
            status: self.status,
            samples: samples_requested,
            face: Some(outcome.face),
            similarity: Some(outcome.similarity),
            missing_fraction,
            reacquired,
            held,
            trace: RoundTrace {
                round: round_index,
                status_before,
                cause,
                blackout: false,
                stranded,
                starved,
                teleported,
                zero_fraction,
                k_after: self.samples,
            },
        };
        self.note_round(&round);
        round
    }

    /// Runs a whole trace, asking `sample` for each grouping. The closure
    /// receives the requested sampling times `k`, the ground-truth target
    /// position, the round time and the RNG, and returns the grouping as
    /// delivered to the base station — the seam where a
    /// `wsn_network::RegimeEngine` and/or `Uplink` slot in.
    pub fn run<R, F>(&mut self, trace: &Trace, rng: &mut R, sample: F) -> SessionRun
    where
        R: Rng + ?Sized,
        F: FnMut(usize, Point, f64, &mut R) -> GroupSampling,
    {
        self.run_with(trace, rng, sample, |_, _| {})
    }

    /// Like [`TrackingSession::run`], but calls `before_round(self, t)`
    /// ahead of each round's sampling — the seam where a churn schedule
    /// applies pending [`TrackingSession::apply_churn`] events at their
    /// simulation times, between rounds, exactly where a deployed base
    /// station would learn of them.
    pub fn run_with<R, F, B>(
        &mut self,
        trace: &Trace,
        rng: &mut R,
        mut sample: F,
        mut before_round: B,
    ) -> SessionRun
    where
        R: Rng + ?Sized,
        F: FnMut(usize, Point, f64, &mut R) -> GroupSampling,
        B: FnMut(&mut Self, f64),
    {
        let mut rounds = Vec::with_capacity(trace.len());
        let mut errors = Vec::with_capacity(trace.len());
        for p in trace.points() {
            before_round(self, p.t);
            let group = sample(self.samples, p.pos, p.t, rng);
            let round = self.step(p.t, &group);
            errors.push(round.estimate.distance(p.pos));
            rounds.push(round);
        }
        SessionRun { rounds, errors }
    }

    /// Applies one churn event (death when `death`, birth otherwise) at
    /// simulation time `t`: repairs the tracker's face map
    /// ([`FaceMap::repaired`]) and adopts the result
    /// ([`TrackingSession::adopt_repair`]).
    pub fn apply_churn(
        &mut self,
        t: f64,
        node: usize,
        death: bool,
        mode: RepairMode,
    ) -> RepairReport {
        let (map, report) = self.tracker.map().repaired(node, death, mode);
        self.adopt_repair(t, Arc::new(map), &report);
        report
    }

    /// Switches the session at simulation time `t` to `map`, the result
    /// of repairing its current map as `report` describes — computed once
    /// and shared by every session that sees the same churn (the fault
    /// campaign repairs each event once per cell, not once per trial).
    /// Migrates the warm start across the epoch bump
    /// ([`Tracker::adopt_repair`]), restarts the health monitor's
    /// similarity window (its medians were measured against the old pair
    /// dimension), and — when the warm-start face did not survive the
    /// repair exactly — re-enters the recovery ladder at a forced full
    /// re-acquisition, since the remapped face is a merged/split stand-in
    /// rather than the face the climb actually matched.
    ///
    /// Emits one `fttt.map.repair` journal event (the record `fttt-sim
    /// explain` renders) with the post-repair epoch hex-encoded like
    /// every other u64 digest.
    ///
    /// # Panics
    ///
    /// As [`Tracker::adopt_repair`]: `report` must be a repair of the
    /// session's current map.
    pub fn adopt_repair(&mut self, t: f64, map: Arc<FaceMap>, report: &RepairReport) {
        let face_remapped = !self.tracker.adopt_repair(map, report);
        if face_remapped {
            self.force_reacquire = true;
        }
        if telemetry::enabled() {
            telemetry::counter_add("fttt.session.churn_events", 1);
            if face_remapped {
                telemetry::counter_add("fttt.session.churn_remaps", 1);
            }
        }
        if telemetry::journal_enabled() {
            RepairEvent {
                session: self.session_id,
                t,
                epoch: report.epoch,
                node: report.node,
                death: report.death,
                planes_retired: report.planes_retired,
                planes_added: report.planes_added,
                cells: report.cells_reclassified,
                faces_before: report.faces_before,
                faces_after: report.faces_after,
                repair_us: report.repair_us,
                face_remapped,
            }
            .emit();
        }
    }

    fn hold_estimate(&self) -> Point {
        self.last_reported
            .or(self.last_trusted.map(|(_, p)| p))
            // A session born into blackout has nothing to hold; the map
            // centre is the only defensible prior.
            .unwrap_or_else(|| {
                self.tracker
                    .map()
                    .face(self.tracker.map().center_face())
                    .centroid
            })
    }

    fn record_healthy(&mut self) {
        self.unhealthy_streak = 0;
        self.healthy_streak += 1;
        match self.status {
            TrackStatus::Tracking => {}
            TrackStatus::Degraded | TrackStatus::Lost => {
                if self.healthy_streak >= RECOVER_AFTER {
                    self.status = TrackStatus::Tracking;
                }
            }
        }
    }

    fn record_unhealthy(&mut self) {
        self.healthy_streak = 0;
        self.unhealthy_streak += 1;
        if self.unhealthy_streak >= LOST_AFTER {
            if self.status != TrackStatus::Lost {
                // Ladder rung 3: give up the warm start and the similarity
                // history — both are poisoned by whatever went wrong.
                self.tracker.reset();
            }
            self.status = TrackStatus::Lost;
        } else if self.status == TrackStatus::Tracking {
            self.status = TrackStatus::Degraded;
        }
    }

    /// Escalates `k` toward the Section-5.1 bound at the live pair count.
    ///
    /// With fewer than two live nodes there are no pairs, so the bound is
    /// undefined and extra samples buy no localization evidence — the old
    /// `.max(1)` fabricated a phantom pair and escalated against it. Now
    /// the session leaves `k` alone and lets the unhealthy streak walk the
    /// status toward [`TrackStatus::Lost`] instead.
    fn escalate_samples(&mut self, group: &GroupSampling) {
        // A node the map knows is dead cannot contribute pairs even if a
        // stale reading for it arrived; the bound must see the post-churn
        // pair count, not phantom pairs.
        let map = self.tracker.map();
        let live = (0..group.node_count())
            .filter(|&j| group.node_responded(j) && map.is_node_live(j))
            .count();
        let pairs = pair_count(live);
        if pairs == 0 {
            return;
        }
        let needed = required_sampling_times(LAMBDA, pairs);
        let before = self.samples;
        self.samples = needed
            .clamp(self.options.base_samples, self.options.max_samples())
            .max(self.samples);
        if self.samples > before {
            telemetry::counter_add("fttt.session.escalations", 1);
        }
    }

    /// Decays `k` one step back toward the baseline after a healthy round.
    fn decay_samples(&mut self) {
        if self.samples > self.options.base_samples {
            self.samples -= 1;
        }
    }

    /// Per-round telemetry: round/hold/re-acquisition counters, the
    /// current-`k` gauge and health-ladder transition counts into the
    /// metrics sink, plus one `fttt.session.round` event carrying the
    /// full [`RoundTrace`] into the trace journal. Each half is a no-op
    /// when its sink is not installed.
    fn note_round(&self, round: &SessionRound) {
        let before = round.trace.status_before;
        if telemetry::enabled() {
            telemetry::counter_add("fttt.session.rounds", 1);
            if round.held {
                telemetry::counter_add("fttt.session.holds", 1);
            }
            if round.reacquired {
                telemetry::counter_add("fttt.session.reacquisitions", 1);
            }
            telemetry::gauge_set("fttt.session.samples_k", self.samples as f64);
            if before != self.status {
                telemetry::counter_add("fttt.session.transitions", 1);
                let name = match self.status {
                    TrackStatus::Tracking => "fttt.session.to_tracking",
                    TrackStatus::Degraded => "fttt.session.to_degraded",
                    TrackStatus::Lost => "fttt.session.to_lost",
                };
                telemetry::counter_add(name, 1);
            }
        }
        if telemetry::journal_enabled() {
            telemetry::trace_round(
                ROUND_EVENT,
                round.trace.round,
                round.journal_args(self.session_id),
            );
        }
    }
}

/// The stable journal/CLI spelling of a [`TrackStatus`].
pub fn status_name(status: TrackStatus) -> &'static str {
    match status {
        TrackStatus::Tracking => "Tracking",
        TrackStatus::Degraded => "Degraded",
        TrackStatus::Lost => "Lost",
    }
}

/// Name of the journal event that carries one [`SessionRound`].
pub const ROUND_EVENT: &str = "fttt.session.round";

/// Name of the journal event that carries one [`RepairEvent`].
pub const REPAIR_EVENT: &str = "fttt.map.repair";

/// A face as the journal spells it: 1-based, so 0 can mean "no match ran"
/// (blackout hold) without an optional-arg shape change.
fn face_arg(face: Option<FaceId>) -> u64 {
    face.map_or(0, |f| u64::from(f.0) + 1)
}

/// Member `key` of `args` as the name of a `T`, decoded by `from_name`.
fn named<T>(
    args: &JsonValue,
    key: &str,
    ctx: &str,
    from_name: fn(&str) -> Option<T>,
) -> Result<T, String> {
    let name = args.req_str(key, ctx)?;
    from_name(name).ok_or_else(|| format!("{ctx}: unknown {key:?} {name:?}"))
}

/// The journal form of a round: the one schema of a [`ROUND_EVENT`], its
/// writer and its reader side by side.
impl SessionRound {
    /// The args of this round's [`ROUND_EVENT`] for session `session_id`;
    /// the round index travels as the event's
    /// [`TraceKind::Round`](wsn_telemetry::trace::TraceKind::Round) ordinal.
    /// The similarity is left out on a blackout hold, and the journal
    /// writes an exact match's `+∞` as `null`.
    pub fn journal_args(&self, session_id: u64) -> Vec<(&'static str, ArgValue)> {
        let trace = &self.trace;
        let mut args = Vec::with_capacity(20);
        args.extend([
            ("session", ArgValue::U64(session_id)),
            ("t", ArgValue::F64(self.t)),
            (
                "status_before",
                ArgValue::Str(status_name(trace.status_before).into()),
            ),
            ("status", ArgValue::Str(status_name(self.status).into())),
            ("cause", ArgValue::Str(trace.cause.name().into())),
            ("blackout", ArgValue::Bool(trace.blackout)),
            ("stranded", ArgValue::Bool(trace.stranded)),
            ("starved", ArgValue::Bool(trace.starved)),
            ("teleported", ArgValue::Bool(trace.teleported)),
            ("missing", ArgValue::F64(self.missing_fraction)),
            ("zeros", ArgValue::F64(trace.zero_fraction)),
            ("k", ArgValue::U64(self.samples as u64)),
            ("k_after", ArgValue::U64(trace.k_after as u64)),
            ("held", ArgValue::Bool(self.held)),
            ("reacquired", ArgValue::Bool(self.reacquired)),
            ("x", ArgValue::F64(self.estimate.x)),
            ("y", ArgValue::F64(self.estimate.y)),
            ("face", ArgValue::U64(face_arg(self.face))),
        ]);
        if let Some(sim) = self.similarity {
            args.push(("similarity", ArgValue::F64(sim)));
        }
        args
    }

    /// Decodes one parsed [`ROUND_EVENT`] of any journal serialization
    /// (JSONL, canonical JSONL, Chrome trace) back into its session id and
    /// round, exactly: every float comes back bit for bit, and a matched
    /// round whose similarity reads `null` scored `+∞`.
    ///
    /// # Errors
    ///
    /// A missing or mistyped field, or an unknown status or cause name, is
    /// an error naming the field.
    pub fn from_journal(event: &JsonValue) -> Result<(u64, SessionRound), String> {
        let ctx = "fttt.session.round event";
        let args = event.req("args", ctx)?;
        // Chrome puts the round ordinal in args, JSONL beside them.
        let round = match event.get("round") {
            Some(_) => event.req_u64("round", ctx)?,
            None => args.req_u64("round", ctx)?,
        };
        let face = match args.req_u64("face", ctx)? {
            0 => None,
            f => {
                Some(FaceId(u32::try_from(f - 1).map_err(|_| {
                    format!("{ctx}: \"face\" {f} is out of range")
                })?))
            }
        };
        let similarity = match (face, args.get("similarity")) {
            (None, None) => None,
            (None, Some(_)) => {
                return Err(format!("{ctx}: a blackout hold carries no \"similarity\""))
            }
            (Some(_), Some(JsonValue::Null)) => Some(f64::INFINITY),
            (Some(_), _) => Some(args.req_f64("similarity", ctx)?),
        };
        let round = SessionRound {
            t: args.req_f64("t", ctx)?,
            estimate: Point::new(args.req_f64("x", ctx)?, args.req_f64("y", ctx)?),
            status: named(args, "status", ctx, TrackStatus::from_name)?,
            samples: args.req_u64("k", ctx)? as usize,
            face,
            similarity,
            missing_fraction: args.req_f64("missing", ctx)?,
            reacquired: args.req_bool("reacquired", ctx)?,
            held: args.req_bool("held", ctx)?,
            trace: RoundTrace {
                round,
                status_before: named(args, "status_before", ctx, TrackStatus::from_name)?,
                cause: named(args, "cause", ctx, Cause::from_name)?,
                blackout: args.req_bool("blackout", ctx)?,
                stranded: args.req_bool("stranded", ctx)?,
                starved: args.req_bool("starved", ctx)?,
                teleported: args.req_bool("teleported", ctx)?,
                zero_fraction: args.req_f64("zeros", ctx)?,
                k_after: args.req_u64("k_after", ctx)? as usize,
            },
        };
        Ok((args.req_u64("session", ctx)?, round))
    }

    /// The first field in which `self` and `other` differ, as `(journal
    /// key, self's value, other's value)`, in a fixed order that follows
    /// the replay digest's (time, statuses, cause and face first, the
    /// similarity last) — what a replay diff reports. Values compare by
    /// their rendering, and an `f64` renders as its shortest round-trip
    /// form, so floats compare bit for bit (`-0` is not `0`). `None` when
    /// the rounds agree, the round index aside.
    pub fn first_journal_difference(
        &self,
        other: &SessionRound,
    ) -> Option<(&'static str, String, String)> {
        let fields = |r: &SessionRound| {
            let t = &r.trace;
            [
                ("t", r.t.to_string()),
                ("status_before", status_name(t.status_before).to_string()),
                ("status", status_name(r.status).to_string()),
                ("cause", t.cause.name().to_string()),
                ("face", face_arg(r.face).to_string()),
                ("x", r.estimate.x.to_string()),
                ("y", r.estimate.y.to_string()),
                ("blackout", t.blackout.to_string()),
                ("stranded", t.stranded.to_string()),
                ("starved", t.starved.to_string()),
                ("teleported", t.teleported.to_string()),
                ("held", r.held.to_string()),
                ("reacquired", r.reacquired.to_string()),
                ("missing", r.missing_fraction.to_string()),
                ("zeros", t.zero_fraction.to_string()),
                ("k", r.samples.to_string()),
                ("k_after", t.k_after.to_string()),
                (
                    "similarity",
                    r.similarity.map_or("none".into(), |v| v.to_string()),
                ),
            ]
        };
        fields(self)
            .into_iter()
            .zip(fields(other))
            .find(|((_, a), (_, b))| a != b)
            .map(|((key, a), (_, b))| (key, a, b))
    }
}

/// One live-churn face-map repair as a session adopted it
/// ([`TrackingSession::adopt_repair`]): the record of a [`REPAIR_EVENT`],
/// which `fttt-sim explain` interleaves with the session's rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairEvent {
    /// The adopting session's id.
    pub session: u64,
    /// Simulation time of the churn event, seconds.
    pub t: f64,
    /// The map's epoch after the repair (journaled hex-encoded, like every
    /// full-range u64).
    pub epoch: u64,
    /// Deployment index of the churned node.
    pub node: usize,
    /// `true` for a death, `false` for a birth.
    pub death: bool,
    /// Pair planes removed from the map.
    pub planes_retired: usize,
    /// Pair planes added to the map.
    pub planes_added: usize,
    /// Cells the classifier recomputed.
    pub cells: usize,
    /// Face count before the repair.
    pub faces_before: usize,
    /// Face count after the repair.
    pub faces_after: usize,
    /// Wall-clock repair latency, microseconds.
    pub repair_us: f64,
    /// The session's warm-start face did not survive the repair exactly,
    /// so the session re-enters the recovery ladder at a forced
    /// re-acquisition.
    pub face_remapped: bool,
}

impl RepairEvent {
    /// The args of this repair's [`REPAIR_EVENT`].
    pub fn journal_args(&self) -> Vec<(&'static str, ArgValue)> {
        vec![
            ("session", ArgValue::U64(self.session)),
            ("t", ArgValue::F64(self.t)),
            ("epoch", ArgValue::Str(json::format_hex(self.epoch))),
            ("node", ArgValue::U64(self.node as u64)),
            ("death", ArgValue::Bool(self.death)),
            ("planes_retired", ArgValue::U64(self.planes_retired as u64)),
            ("planes_added", ArgValue::U64(self.planes_added as u64)),
            ("cells", ArgValue::U64(self.cells as u64)),
            ("faces_before", ArgValue::U64(self.faces_before as u64)),
            ("faces_after", ArgValue::U64(self.faces_after as u64)),
            ("repair_us", ArgValue::F64(self.repair_us)),
            ("face_remapped", ArgValue::Bool(self.face_remapped)),
        ]
    }

    /// Records this repair as a [`REPAIR_EVENT`] instant into the
    /// installed trace journal (a no-op when none is installed).
    pub fn emit(&self) {
        telemetry::trace_instant(REPAIR_EVENT, self.journal_args());
    }

    /// Decodes one parsed [`REPAIR_EVENT`] of any journal serialization.
    ///
    /// # Errors
    ///
    /// A missing or mistyped field is an error naming the field.
    pub fn from_journal(event: &JsonValue) -> Result<Self, String> {
        let ctx = "fttt.map.repair event";
        let args = event.req("args", ctx)?;
        let count = |key| args.req_u64(key, ctx).map(|v| v as usize);
        Ok(Self {
            session: args.req_u64("session", ctx)?,
            t: args.req_f64("t", ctx)?,
            epoch: args.req_hex("epoch", ctx)?,
            node: count("node")?,
            death: args.req_bool("death", ctx)?,
            planes_retired: count("planes_retired")?,
            planes_added: count("planes_added")?,
            cells: count("cells")?,
            faces_before: count("faces_before")?,
            faces_after: count("faces_after")?,
            repair_us: args.req_f64("repair_us", ctx)?,
            face_remapped: args.req_bool("face_remapped", ctx)?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tracker::TrackerOptions;
    use rand::SeedableRng;
    use wsn_geometry::Rect;
    use wsn_mobility::WaypointPath;
    use wsn_network::{Deployment, GroupSampler, SensorField};
    use wsn_signal::PathLossModel;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(sigma: f64) -> (SensorField, FaceMap, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(9, field);
        let sensor_field = SensorField::new(deployment, 150.0);
        let model = PathLossModel::new(-40.0, 0.0, 4.0, sigma);
        let c = model.uncertainty_constant(1.0);
        let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 2.0);
        let sampler = GroupSampler::new(model, 5);
        (sensor_field, map, sampler)
    }

    fn trace() -> Trace {
        WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0)
    }

    fn session(map: FaceMap) -> TrackingSession {
        TrackingSession::new(
            Tracker::new(map, TrackerOptions::heuristic()),
            SessionOptions::new(5).with_max_speed(6.0),
        )
    }

    #[test]
    fn clean_run_stays_tracking() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let run = s.run(&trace(), &mut rng(1), |k, pos, _, r| {
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            sampler.sample(&field, pos, r)
        });
        assert_eq!(run.rounds_in(TrackStatus::Lost), 0);
        assert!(
            run.error_stats().mean < 20.0,
            "mean {}",
            run.error_stats().mean
        );
        // Healthy rounds decay k back to baseline.
        assert_eq!(s.requested_samples(), 5);
    }

    #[test]
    fn blackout_enters_lost_and_holds() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let nodes = field.len();
        // Blackout between t = 6 and t = 12.
        let run = s.run(&trace(), &mut rng(2), |k, pos, t, r| {
            if (6.0..12.0).contains(&t) {
                GroupSampling::empty(nodes, k)
            } else {
                let sampler = GroupSampler {
                    samples: k,
                    ..sampler.clone()
                };
                sampler.sample(&field, pos, r)
            }
        });
        assert!(
            run.rounds_in(TrackStatus::Lost) > 0,
            "blackout must reach Lost"
        );
        assert!(
            run.recovered_from_lost(),
            "session must recover after the blackout"
        );
        // Held rounds report the pre-blackout estimate, not the map centre.
        let held: Vec<_> = run.rounds.iter().filter(|r| r.held).collect();
        assert!(!held.is_empty());
        for r in &held {
            assert!(r.similarity.is_none() || r.status == TrackStatus::Lost);
            assert!(r.estimate.x.is_finite() && r.estimate.y.is_finite());
        }
    }

    #[test]
    fn partial_blackout_escalates_sampling_times() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let nodes = field.len();
        let mut max_k = 0;
        let _ = s.run(&trace(), &mut rng(3), |k, pos, t, r| {
            max_k = max_k.max(k);
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            let mut g = sampler.sample(&field, pos, r);
            if t >= 6.0 {
                // Six of nine nodes fall silent: three live nodes leave
                // three pairs, a defined Section-5.1 bound to escalate
                // toward (λ = 0.95, N = 3 ⟹ k = 7).
                for node in 3..nodes {
                    for inst in 0..g.instants() {
                        g.set(inst, node, None);
                    }
                }
            }
            g
        });
        assert!(max_k > 5, "fault pressure must escalate k, saw {max_k}");
        assert!(max_k <= s.options().max_samples());
    }

    /// The phantom-pair regression: with fewer than two live nodes there
    /// are no pairs, so the session must hold `k` at baseline and walk
    /// toward Lost — the old `.max(1)` escalated against a fictitious
    /// one-pair bound.
    #[test]
    fn zero_live_nodes_hold_k_and_walk_to_lost() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        for i in 0..4 {
            let round = s.step(i as f64, &g);
            assert_eq!(round.samples, 5, "no pairs must not escalate k");
        }
        assert_eq!(s.requested_samples(), 5);
        assert_eq!(s.status(), TrackStatus::Lost);
    }

    #[test]
    fn one_live_node_holds_k_and_walks_to_lost() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let mut g = GroupSampling::empty(9, 5);
        for inst in 0..g.instants() {
            g.set(inst, 4, Some(wsn_signal::Rss::new(-50.0)));
        }
        assert!(g.node_responded(4));
        for i in 0..4 {
            let round = s.step(i as f64, &g);
            assert_eq!(round.samples, 5, "one live node has no pairs; k must hold");
        }
        assert_eq!(s.requested_samples(), 5);
        assert_eq!(s.status(), TrackStatus::Lost);
    }

    #[test]
    fn session_born_into_blackout_reports_finite_hold() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        for i in 0..5 {
            let round = s.step(i as f64, &g);
            assert!(round.held);
            assert!(round.estimate.x.is_finite() && round.estimate.y.is_finite());
        }
        assert_eq!(s.status(), TrackStatus::Lost);
    }

    #[test]
    fn status_degrades_before_lost() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        assert_eq!(s.step(0.0, &g).status, TrackStatus::Degraded);
        assert_eq!(s.step(1.0, &g).status, TrackStatus::Degraded);
        assert_eq!(s.step(2.0, &g).status, TrackStatus::Lost);
    }

    #[test]
    fn round_trace_records_cause_and_ladder_movement() {
        let (_, map, _) = setup(4.0);
        let mut s = session(map);
        let g = GroupSampling::empty(9, 5);
        let r0 = s.step(0.0, &g);
        assert_eq!(r0.trace.round, 0);
        assert_eq!(r0.trace.status_before, TrackStatus::Tracking);
        assert_eq!(r0.status, TrackStatus::Degraded);
        assert_eq!(r0.trace.cause, Cause::Blackout);
        assert!(r0.trace.blackout);
        assert!(!r0.trace.stranded && !r0.trace.starved && !r0.trace.teleported);
        // No pairs: k must not escalate.
        assert_eq!(r0.trace.k_after, 5);
        let r1 = s.step(1.0, &g);
        assert_eq!(r1.trace.round, 1);
        assert_eq!(r1.trace.status_before, TrackStatus::Degraded);
    }

    #[test]
    fn healthy_rounds_trace_healthy_cause_and_zero_stats() {
        let (field, map, sampler) = setup(4.0);
        let mut s = session(map);
        let run = s.run(&trace(), &mut rng(7), |k, pos, _, r| {
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            sampler.sample(&field, pos, r)
        });
        let healthy = run
            .rounds
            .iter()
            .filter(|r| r.trace.cause == Cause::Healthy)
            .count();
        assert!(healthy > 0, "a clean run must have healthy rounds");
        for (i, r) in run.rounds.iter().enumerate() {
            assert_eq!(r.trace.round, i as u64, "rounds index the session lifetime");
            assert!((0.0..=1.0).contains(&r.trace.zero_fraction));
            assert_eq!(
                r.trace.cause == Cause::Healthy,
                !r.trace.blackout && !r.trace.stranded && !r.trace.starved && !r.trace.teleported
            );
        }
    }

    // NOTE: journal-emission coverage for `note_round` lives in
    // `crates/bench/tests/telemetry_spine.rs` — installing the
    // process-global journal from this multi-threaded unit-test binary
    // would race other tests' sessions into the same ring. The journal
    // form itself round-trips through a local `Journal` below.

    use wsn_telemetry::trace::{Journal, TraceKind};

    /// A matched round with every field set to a distinct, non-default
    /// value (for `round` 0: neither held nor re-acquired).
    pub(crate) fn matched_round(round: u64, status: TrackStatus, cause: Cause) -> SessionRound {
        SessionRound {
            t: 0.1 * round as f64 + 1.0 / 3.0,
            estimate: Point::new(12.345678901234567, -0.0),
            status,
            samples: 7,
            face: Some(FaceId(41)),
            similarity: Some(0.1 + 0.2),
            missing_fraction: 2.0 / 7.0,
            reacquired: round % 2 == 1,
            held: round % 3 == 1,
            trace: RoundTrace {
                round,
                status_before: TrackStatus::ALL[(round as usize + 1) % 3],
                cause,
                blackout: cause == Cause::Blackout,
                stranded: cause == Cause::Stranded,
                starved: cause == Cause::Starved,
                teleported: cause == Cause::Teleported,
                zero_fraction: 1e-300,
                k_after: 9,
            },
        }
    }

    /// Every shape the journal must carry: a blackout hold (no face, no
    /// similarity), an exact match (`+∞`), every cause and every status.
    fn journal_cases() -> Vec<(u64, SessionRound)> {
        let mut hold = matched_round(0, TrackStatus::Lost, Cause::Blackout);
        (hold.face, hold.similarity, hold.missing_fraction) = (None, None, 1.0);
        let mut exact = matched_round(1, TrackStatus::Tracking, Cause::Healthy);
        exact.similarity = Some(f64::INFINITY);
        let mut cases = vec![(3, hold), (1 << 47, exact)];
        for cause in Cause::ALL {
            for status in TrackStatus::ALL {
                let round = cases.len() as u64;
                cases.push((cause as u64, matched_round(round, status, cause)));
            }
        }
        cases
    }

    fn repair_event(death: bool) -> RepairEvent {
        RepairEvent {
            session: 9,
            t: 12.5,
            epoch: u64::MAX - 1,
            node: 7,
            death,
            planes_retired: 12,
            planes_added: 14,
            cells: 625,
            faces_before: 841,
            faces_after: 838,
            repair_us: 480.2,
            face_remapped: !death,
        }
    }

    /// `rounds` and `repairs` journaled, then parsed back from each of the
    /// journal's three serializations (the canonical one sorts its lines).
    fn journal_forms(
        rounds: &[(u64, SessionRound)],
        repairs: &[RepairEvent],
    ) -> Vec<Vec<JsonValue>> {
        let journal = Journal::with_capacity(64);
        for (session, r) in rounds {
            let kind = TraceKind::Round {
                round: r.trace.round,
            };
            journal.record(ROUND_EVENT, kind, r.journal_args(*session));
        }
        for event in repairs {
            journal.record(REPAIR_EVENT, TraceKind::Instant, event.journal_args());
        }
        let log = journal.snapshot();
        [
            log.to_jsonl(),
            log.to_canonical_jsonl(),
            log.to_chrome_json(),
        ]
        .iter()
        .map(|text| wsn_telemetry::trace::parse_journal(text).unwrap().0)
        .collect()
    }

    #[test]
    fn rounds_and_repairs_round_trip_through_every_journal_form() {
        let (rounds, repairs) = (
            journal_cases(),
            vec![repair_event(true), repair_event(false)],
        );
        for events in journal_forms(&rounds, &repairs) {
            let (mut got_rounds, mut got_repairs) = (Vec::new(), Vec::new());
            for e in &events {
                match e.get("name").and_then(JsonValue::as_str) {
                    Some(ROUND_EVENT) => got_rounds.push(SessionRound::from_journal(e).unwrap()),
                    _ => got_repairs.push(RepairEvent::from_journal(e).unwrap()),
                }
            }
            got_rounds.sort_by_key(|(_, r)| r.trace.round);
            got_repairs.sort_by_key(|e| !e.death);
            assert_eq!((&got_rounds, &got_repairs), (&rounds, &repairs));
            // Floats come back bit for bit, not merely equal.
            for ((_, want), (_, got)) in rounds.iter().zip(&got_rounds) {
                assert_eq!(want.first_journal_difference(got), None);
            }
            assert_eq!(got_repairs[0].repair_us.to_bits(), 480.2f64.to_bits());
        }
    }

    #[test]
    fn a_dropped_field_fails_with_its_name() {
        let (session, mut round) = journal_cases().swap_remove(4);
        round.similarity = None; // dropped: only a blackout hold may omit it
        let mut repair = repair_event(true);
        repair.repair_us = f64::NAN; // journaled as null, not a number
        let events = &journal_forms(&[(session, round)], &[repair])[0];
        assert_eq!(
            SessionRound::from_journal(&events[0]).unwrap_err(),
            "fttt.session.round event: missing numeric \"similarity\""
        );
        assert_eq!(
            RepairEvent::from_journal(&events[1]).unwrap_err(),
            "fttt.map.repair event: missing numeric \"repair_us\""
        );
    }
}
