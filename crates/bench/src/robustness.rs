//! The fault campaign: graceful-degradation envelopes for self-healing
//! tracking sessions under composable fault regimes.
//!
//! Each campaign cell runs seeded Monte-Carlo trials of a
//! [`TrackingSession`] (basic or extended FTTT under the heuristic matcher
//! with the session's recovery ladder) against a fault regime described in
//! the `wsn_network::spec` schedule language — the same parser users feed
//! config files through, so the campaign doubles as an end-to-end test of
//! that path. Two families of cells:
//!
//! * a **node-failure sweep** over rates {0, 0.1, 0.3, 0.5}, the paper's
//!   Section-7 fault axis, which must show *graceful* degradation: error
//!   grows with the rate but stays inside an envelope anchored at the
//!   fault-free mean and capped below a blind field-centre guess;
//! * **showcase regimes** exercising each [`wsn_network::RegimeKind`]:
//!   bursty loss, a total blackout window (which must drive the session
//!   Lost *and back*), energy-coupled death, stuck-at and drifting
//!   sensors;
//! * a **churn family** ([`CampaignKind::Churn`]): a staggered death/birth
//!   storm run under three map policies — `churn-stale` (the map is never
//!   repaired, the control a fault-oblivious deployment would be),
//!   `churn-incremental` (live incremental face-map repair) and
//!   `churn-rebuild` (full rebuild per event, the reference the
//!   incremental path must digest-match). Every repair folds the
//!   post-repair map epoch and face-map digest into the trial's world
//!   digest, so churned campaigns stay bit-replayable exactly like
//!   static ones; [`check_churn_digests`] asserts the incremental and
//!   rebuild policies produced identical per-trial digests.
//!
//! [`check_envelopes`] turns those expectations into machine-checked
//! assertions; the `fault_campaign` binary and the CLI `campaign`
//! subcommand print the same table ([`campaign_table`]) and verdict
//! ([`report_violations`]) and fail on any violation.
//!
//! # Determinism
//!
//! The campaign is a pure function of `(master seed, schedule, config)`:
//! trial `i` of every cell is seeded with `seed_for(cfg.seed, i)`, each
//! trial folds its full per-round state (session rounds, regime state,
//! live-node sets — see [`fttt::replay`]) into a [`TrialStat::digest`],
//! and the trial digests fold into a campaign [`campaign_checksum`].
//! [`run_campaign_stats`] can run one slice of the trials
//! (`i % slices == slice`); because seeds come from the global trial index
//! and aggregation always walks the per-trial stats in `(cell, trial)`
//! order, the slices together give bit-identical rows and checksum to
//! the whole campaign.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use fttt::config::PaperParams;
use fttt::facemap::{FaceMap, RepairMode, RepairReport};
use fttt::replay::{digest_face_map, digest_hex, digest_world, Digest};
use fttt::session::{SessionOptions, SessionRun, TrackStatus, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_network::{GroupSampler, Schedule, SensorField};
use wsn_parallel::{par_map, seed_for};
use wsn_telemetry as telemetry;
use wsn_telemetry::json;

use crate::Table;

/// Campaign workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every trial derives deterministically from it.
    pub seed: u64,
    /// Monte-Carlo trials per campaign cell.
    pub trials: usize,
    /// Trace duration per trial, seconds.
    pub duration: f64,
    /// Deployed node count.
    pub nodes: usize,
}

impl CampaignConfig {
    /// The full campaign workload.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            trials: 6,
            duration: 40.0,
            nodes: 10,
        }
    }

    /// A reduced smoke workload (seeded, a few seconds of wall clock) for
    /// tier-1 CI.
    pub fn fast(seed: u64) -> Self {
        Self {
            seed,
            trials: 3,
            duration: 20.0,
            nodes: 8,
        }
    }
}

/// The node-failure rates of the sweep family (the paper's fault axis).
pub const SWEEP_RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

/// Regime label of the sweep family rows.
pub const SWEEP_REGIME: &str = "node-failure";

/// Regime label of the blackout showcase (the Lost→Tracking regression
/// anchor).
pub const BLACKOUT_REGIME: &str = "blackout";

/// The churn campaign's schedule: a staggered death storm (nodes 1, 3, 5
/// die at t = 4, 6, 8) whose casualties all come back 6 s later — both
/// repair directions (retire *and* re-rasterize) exercised inside even
/// the fast config's 20 s trace.
pub const CHURN_SCHEDULE: &str = "churn nodes=1,3,5 from=4 every=2 dead_for=6";

/// How a churn-campaign cell maintains its face map while nodes die and
/// return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnPolicy {
    /// Never repair: sessions keep matching against the stale pristine
    /// map (dead nodes still silenced by the regime). The
    /// fault-oblivious control.
    Stale,
    /// Incremental repair per event ([`RepairMode::Incremental`]).
    Incremental,
    /// Full rebuild per event ([`RepairMode::Rebuild`]) — the reference
    /// trajectory the incremental path must digest-match.
    Rebuild,
}

/// The churn policies in campaign order, with their regime labels.
pub const CHURN_POLICIES: [(&str, ChurnPolicy); 3] = [
    ("churn-stale", ChurnPolicy::Stale),
    ("churn-incremental", ChurnPolicy::Incremental),
    ("churn-rebuild", ChurnPolicy::Rebuild),
];

/// Resolves a churn regime label back to its policy (`None` for
/// non-churn cells).
pub fn churn_policy_of(regime: &str) -> Option<ChurnPolicy> {
    CHURN_POLICIES
        .iter()
        .find(|(label, _)| *label == regime)
        .map(|&(_, policy)| policy)
}

/// The showcase regimes: `(label, schedule text)`. Windows are placed
/// inside even the fast config's 20 s trace.
pub fn showcase_regimes() -> Vec<(&'static str, &'static str)> {
    vec![
        ("burst", "burst enter=0.15 exit=0.35 loss_bad=0.95"),
        (BLACKOUT_REGIME, "outage from=8 until=14"),
        ("energy", "energy battery=0.003"),
        ("stuck", "stuck nodes=0,1 from=5"),
        ("drift", "drift nodes=2 from=5 rate=0.5"),
    ]
}

/// One campaign cell: a (regime, method) pair aggregated over trials.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Regime label (`node-failure` for the sweep family).
    pub regime: String,
    /// Method label.
    pub method: &'static str,
    /// Node-failure rate for sweep rows, `None` for showcase rows.
    pub fault_rate: Option<f64>,
    /// Mean over trials of the per-trial mean error, metres.
    pub mean_error: f64,
    /// Largest per-trial mean error (worst world).
    pub worst_error: f64,
    /// Mean fraction of rounds spent [`TrackStatus::Lost`].
    pub lost_fraction: f64,
    /// Mean fraction of rounds spent [`TrackStatus::Degraded`].
    pub degraded_fraction: f64,
    /// Trials that entered [`TrackStatus::Lost`] at least once.
    pub trials_lost: usize,
    /// Among `trials_lost`, the fraction that returned to
    /// [`TrackStatus::Tracking`] afterwards (1.0 when none were lost).
    pub recovery_rate: f64,
    /// Mean sampling times `k` per round (adaptive escalation cost).
    pub mean_samples: f64,
}

/// The two session-wrapped trackers under test.
const METHODS: [(&str, bool); 2] = [("FTTT-basic", false), ("FTTT-ext", true)];

/// What a campaign runs: the built-in sweep + showcases, or one
/// user-provided schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignKind {
    /// The node-failure sweep, every showcase regime, and the churn
    /// family.
    Builtin,
    /// Both methods against one schedule (the CLI `--schedule` path).
    Custom {
        /// Row label.
        label: String,
        /// The schedule text (embedded in the journal header so a replay
        /// can re-run without the original file).
        schedule: String,
    },
    /// The live-topology-churn family: [`CHURN_SCHEDULE`] under every
    /// [`ChurnPolicy`], both methods.
    Churn,
}

/// The label a campaign kind carries in journal headers and the golden
/// checksum baseline.
pub fn campaign_kind_label(kind: &CampaignKind) -> &'static str {
    match kind {
        CampaignKind::Builtin => "builtin",
        CampaignKind::Custom { .. } => "custom",
        CampaignKind::Churn => "churn",
    }
}

/// One campaign cell's static identity, in deterministic campaign order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Index in campaign order (row order of the artifact).
    pub index: usize,
    /// Regime label.
    pub regime: String,
    /// Method label.
    pub method: &'static str,
    /// Extended sampling vectors?
    pub extended: bool,
    /// Node-failure rate for sweep cells.
    pub fault_rate: Option<f64>,
    /// The cell's schedule, as parseable text.
    pub schedule_text: String,
}

/// The cells a campaign kind expands to, in deterministic order.
///
/// # Panics
///
/// Panics if a custom schedule fails to parse (callers validate first) or
/// a built-in one does (a bug in this module).
pub fn campaign_cells(kind: &CampaignKind) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    match kind {
        CampaignKind::Builtin => {
            for (method, extended) in METHODS {
                for rate in SWEEP_RATES {
                    cells.push(CellSpec {
                        index: cells.len(),
                        regime: SWEEP_REGIME.to_string(),
                        method,
                        extended,
                        fault_rate: Some(rate),
                        schedule_text: format!("static node_failure={rate}"),
                    });
                }
            }
            for (label, text) in showcase_regimes() {
                for (method, extended) in METHODS {
                    cells.push(CellSpec {
                        index: cells.len(),
                        regime: label.to_string(),
                        method,
                        extended,
                        fault_rate: None,
                        schedule_text: text.to_string(),
                    });
                }
            }
            cells.extend(churn_cells(cells.len()));
        }
        CampaignKind::Custom { label, schedule } => {
            Schedule::parse(schedule).expect("custom schedule must have been validated");
            for (method, extended) in METHODS {
                cells.push(CellSpec {
                    index: cells.len(),
                    regime: label.clone(),
                    method,
                    extended,
                    fault_rate: None,
                    schedule_text: schedule.clone(),
                });
            }
        }
        CampaignKind::Churn => cells.extend(churn_cells(0)),
    }
    cells
}

/// The churn family's cells (every policy × every method), starting at
/// `base` in campaign order. The builtin campaign appends these after
/// the showcases; [`CampaignKind::Churn`] runs exactly these.
fn churn_cells(base: usize) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for (label, _) in CHURN_POLICIES {
        for (method, extended) in METHODS {
            cells.push(CellSpec {
                index: base + cells.len(),
                regime: label.to_string(),
                method,
                extended,
                fault_rate: None,
                schedule_text: CHURN_SCHEDULE.to_string(),
            });
        }
    }
    cells
}

/// One completed trial: the unit aggregation and checksumming walk.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStat {
    /// Cell index into [`campaign_cells`] order.
    pub cell: usize,
    /// Trial index within the cell.
    pub trial: u64,
    /// The trial's derived RNG seed (`seed_for(cfg.seed, trial)`).
    pub seed: u64,
    /// Stable session id (deterministic across runs and threads).
    pub session: u64,
    /// Mean geographic error over the trial's rounds, metres.
    pub mean_error: f64,
    /// Rounds in the trial.
    pub rounds: u64,
    /// Rounds that ended [`TrackStatus::Lost`].
    pub lost_rounds: u64,
    /// Rounds that ended [`TrackStatus::Degraded`].
    pub degraded_rounds: u64,
    /// The session declared Lost and later returned to Tracking.
    pub recovered: bool,
    /// Total sampling times spent across the trial.
    pub total_samples: u64,
    /// The trial's replay digest (seed + per-round session state + regime
    /// state + live-node sets + ground-truth errors).
    pub digest: u64,
}

fn campaign_params(cfg: &CampaignConfig) -> PaperParams {
    PaperParams::default()
        .with_nodes(cfg.nodes)
        .with_cell_size(2.0)
}

/// The immutable context one trial runs against: the campaign's shared
/// deployment and face map (built once per campaign; every session starts
/// on it without a copy), the cell's parsed schedule, and — for repairing
/// churn cells — the [`repair_chain`] its group shares.
struct TrialEnv<'a> {
    params: &'a PaperParams,
    field: &'a SensorField,
    map: &'a Arc<FaceMap>,
    schedule: &'a Schedule,
    chain: &'a [ChainLink],
    duration: f64,
}

/// One churn event of a repair chain, repaired once for all the trials
/// that share the chain.
struct ChainLink {
    map: Arc<FaceMap>,
    report: RepairReport,
    /// [`digest_face_map`] of `map`, folded into every trial's world
    /// digest.
    digest: u64,
}

/// A repair chain: every churn event of `schedule`, in order, each
/// repaired from the map the previous one left, starting at `base`.
/// Repair is deterministic, so every trial of every cell that shares the
/// schedule and the repair mode adopts these maps instead of re-deriving
/// (and re-digesting) them: the chain costs one repair and one digest per
/// event, whatever the cell and trial count. A trial whose trace ends
/// early adopts a prefix.
///
/// The repairs run in order on the calling thread, since link k + 1 is
/// repaired from link k's map; the digests are independent once every
/// map exists and run in parallel, zipped back in link order. The chain's
/// wall time (repairs plus digests) is one `fttt.campaign.chain_us`
/// observation, and its length adds to `fttt.campaign.chain.links`.
fn repair_chain(
    base: &Arc<FaceMap>,
    schedule: &Schedule,
    nodes: usize,
    mode: RepairMode,
) -> Vec<ChainLink> {
    let started = Instant::now();
    let mut map = Arc::clone(base);
    let repaired: Vec<(Arc<FaceMap>, RepairReport)> = schedule
        .engine(nodes)
        .churn_events_between(None, f64::INFINITY)
        .into_iter()
        .map(|e| {
            let (next, report) = map.repaired(e.node, e.death, mode);
            map = Arc::new(next);
            (Arc::clone(&map), report)
        })
        .collect();
    let digests = par_map(&repaired, |_, (map, _)| digest_face_map(map));
    let chain: Vec<ChainLink> = repaired
        .into_iter()
        .zip(digests)
        .map(|((map, report), digest)| ChainLink {
            map,
            report,
            digest,
        })
        .collect();
    telemetry::observe(
        "fttt.campaign.chain_us",
        telemetry::DURATION_US_BUCKETS,
        started.elapsed().as_secs_f64() * 1e6,
    );
    telemetry::counter_add("fttt.campaign.chain.links", chain.len() as u64);
    chain
}

/// Runs one seeded session trial, returning the run plus its replay
/// digest; `session_id` must be the trial's stable id.
///
/// For repairing churn cells (a non-empty `env.chain`), the schedule's
/// churn events are applied between rounds at their simulation times:
/// the session adopts the chain's next map
/// ([`TrackingSession::adopt_repair`]) and folds its epoch and
/// [`digest_face_map`] into the world digest, so the digest pins not just
/// what the session saw but the exact map it matched against after every
/// repair. Every other cell — the stale churn policy included — applies
/// nothing: the regime still silences the dead columns, but the map (and
/// the digest) never move.
fn run_session_trial(
    env: &TrialEnv<'_>,
    extended: bool,
    seed: u64,
    session_id: u64,
) -> (SessionRun, u64) {
    let TrialEnv {
        params,
        field,
        map,
        schedule,
        chain,
        duration,
    } = *env;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Grid deployment: the campaign compares fault regimes, so the
    // geometry is held fixed and only noise/faults vary per trial.
    let trace = params.random_trace(duration, &mut rng);
    let options = if extended {
        TrackerOptions {
            extended: true,
            ..TrackerOptions::heuristic()
        }
    } else {
        TrackerOptions::heuristic()
    };
    let session_options = SessionOptions::new(params.samples_k).with_max_speed(params.max_speed);
    let mut session =
        TrackingSession::new(Tracker::shared(Arc::clone(map), options), session_options)
            .with_session_id(session_id);
    // The engine and world digest are shared between the sampling closure
    // and the between-rounds churn closure; the two never run
    // concurrently, so runtime borrows are safe.
    let engine = RefCell::new(schedule.engine(field.len()));
    let base = params.sampler();
    let world = RefCell::new(Digest::new());
    let mut prev_t: Option<f64> = None;
    let mut links = chain.iter();
    let run = session.run_with(
        &trace,
        &mut rng,
        |k, pos, t, r| {
            let sampler = GroupSampler {
                samples: k,
                ..base.clone()
            };
            let mut g = sampler.sample(field, pos, r);
            let mut engine = engine.borrow_mut();
            engine.apply(t, &mut g, r);
            digest_world(&mut world.borrow_mut(), &engine, &g);
            g
        },
        |s, t| {
            if chain.is_empty() {
                return;
            }
            for e in engine.borrow().churn_events_between(prev_t, t) {
                let link = links.next().expect("the chain covers every event");
                assert_eq!(
                    (link.report.node, link.report.death),
                    (e.node, e.death),
                    "churn event at t = {} left the chain",
                    e.t
                );
                s.adopt_repair(t, Arc::clone(&link.map), &link.report);
                let mut w = world.borrow_mut();
                w.write_u64(link.report.epoch);
                w.write_u64(link.digest);
            }
            prev_t = Some(t);
        },
    );
    let mut digest = Digest::new();
    digest.write_u64(seed);
    digest.write_digest(world.into_inner());
    fttt::replay::digest_run(&mut digest, &run);
    (run, digest.value())
}

fn trial_stat_of(
    cell: &CellSpec,
    trial: u64,
    seed: u64,
    session: u64,
    run: &SessionRun,
    digest: u64,
) -> TrialStat {
    TrialStat {
        cell: cell.index,
        trial,
        seed,
        session,
        mean_error: run.error_stats().mean,
        rounds: run.rounds.len() as u64,
        lost_rounds: run.rounds_in(TrackStatus::Lost) as u64,
        degraded_rounds: run.rounds_in(TrackStatus::Degraded) as u64,
        recovered: run.recovered_from_lost(),
        total_samples: run.total_samples() as u64,
        digest,
    }
}

/// The outcome of running (a slice of) a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// The campaign's cells, in order.
    pub cells: Vec<CellSpec>,
    /// Per-trial records, sorted by `(cell, trial)`. A slice holds only
    /// its trial subset.
    pub stats: Vec<TrialStat>,
    /// Digest of the (shared, deterministic) face map.
    pub map_digest: u64,
}

/// Runs the trials of every cell whose index satisfies
/// `trial % shards == shard_id`: slice `shard_id` of `shards` slices;
/// `shards = 1, shard_id = 0` is the whole campaign. Emits the campaign
/// header and one per-trial event into the trace journal when one is
/// installed.
///
/// # Panics
///
/// Panics if `cfg.trials == 0`, `shard_id >= shards`, or a schedule fails
/// to parse.
pub fn run_campaign_stats(
    cfg: &CampaignConfig,
    kind: &CampaignKind,
    shards: usize,
    shard_id: usize,
) -> CampaignStats {
    assert!(cfg.trials > 0, "need at least one trial");
    assert!(
        shards > 0 && shard_id < shards,
        "shard {shard_id}/{shards} out of range"
    );
    let params = campaign_params(cfg);
    let field = params.grid_field();
    let map = Arc::new(params.face_map(&field));
    let map_digest = digest_face_map(&map);
    let cells = campaign_cells(kind);
    journal_header(cfg, kind, &cells, map_digest);
    let trials: Vec<u64> = (0..cfg.trials as u64)
        .filter(|i| *i as usize % shards == shard_id)
        .collect();
    let mut stats = Vec::with_capacity(cells.len() * trials.len());
    let mut rest = &cells[..];
    while let Some(first) = rest.first() {
        // Consecutive cells with one schedule and one churn policy (the
        // two methods of a churn policy, of a showcase regime, of a
        // custom schedule) form a group that shares one chain and one
        // trial fan-out.
        let policy = churn_policy_of(&first.regime);
        let len = rest
            .iter()
            .take_while(|c| {
                c.schedule_text == first.schedule_text && churn_policy_of(&c.regime) == policy
            })
            .count();
        let (group, tail) = rest.split_at(len);
        rest = tail;
        let schedule = Schedule::parse(&first.schedule_text).expect("cell schedule is valid");
        // Built on this thread before the trials fan out (a chain the
        // workers fill lazily peaks higher in memory) and dropped with the
        // group, so one chain is live at a time. Never shared across
        // policies, so the incremental and rebuild cells stay independent
        // computations for `check_churn_digests` to compare.
        let chain = match policy {
            Some(ChurnPolicy::Incremental) => {
                repair_chain(&map, &schedule, field.len(), RepairMode::Incremental)
            }
            Some(ChurnPolicy::Rebuild) => {
                repair_chain(&map, &schedule, field.len(), RepairMode::Rebuild)
            }
            Some(ChurnPolicy::Stale) | None => Vec::new(),
        };
        let env = TrialEnv {
            params: &params,
            field: &field,
            map: &map,
            schedule: &schedule,
            chain: &chain,
            duration: cfg.duration,
        };
        // Cell-major, so the results extend `stats` in `(cell, trial)`
        // order.
        let jobs: Vec<(&CellSpec, u64)> = group
            .iter()
            .flat_map(|cell| trials.iter().map(move |&i| (cell, i)))
            .collect();
        stats.extend(par_map(&jobs, |_, &(cell, i)| {
            let seed = seed_for(cfg.seed, i);
            // The epoch folded into the id is the map's at session start —
            // always the pristine build here, but a harness that re-runs
            // a trial against an already-churned map keys differently.
            let session = fttt::replay::stable_session_id(
                &cell.regime,
                cell.method,
                cell.fault_rate,
                i,
                map.epoch(),
            );
            let (run, digest) = run_session_trial(&env, cell.extended, seed, session);
            let stat = trial_stat_of(cell, i, seed, session, &run, digest);
            journal_trial(cell, &stat);
            stat
        }));
    }
    CampaignStats {
        cells,
        stats,
        map_digest,
    }
}

/// Emits the `fttt.campaign.header` journal event: everything a replay
/// needs to re-run the campaign (config, kind, schedule text, map digest).
fn journal_header(cfg: &CampaignConfig, kind: &CampaignKind, cells: &[CellSpec], map_digest: u64) {
    if !telemetry::journal_enabled() {
        return;
    }
    use telemetry::ArgValue;
    // Full-range u64s travel as hex strings everywhere they are
    // serialized: JSON numbers are f64, exact only below 2^53, and both
    // the master seed and the derived trial seeds use all 64 bits.
    let mut args = vec![
        ("seed", ArgValue::Str(digest_hex(cfg.seed))),
        ("trials", ArgValue::U64(cfg.trials as u64)),
        ("duration_s", ArgValue::F64(cfg.duration)),
        ("nodes", ArgValue::U64(cfg.nodes as u64)),
        ("cells", ArgValue::U64(cells.len() as u64)),
        ("map_digest", ArgValue::Str(digest_hex(map_digest))),
    ];
    // "campaign_kind", not "kind": the JSONL event root already carries a
    // "kind" (the trace-event kind tag) and the replay parser reads both
    // layers.
    args.push((
        "campaign_kind",
        ArgValue::Str(campaign_kind_label(kind).into()),
    ));
    if let CampaignKind::Custom { label, schedule } = kind {
        args.push(("label", ArgValue::Str(label.clone())));
        args.push(("schedule", ArgValue::Str(schedule.clone())));
    }
    telemetry::trace_instant("fttt.campaign.header", args);
}

/// Emits one `fttt.campaign.trial` journal event mapping the trial's
/// stable session id to its cell identity and replay digest.
fn journal_trial(cell: &CellSpec, stat: &TrialStat) {
    if !telemetry::journal_enabled() {
        return;
    }
    use telemetry::ArgValue;
    let mut args = vec![
        ("session", ArgValue::U64(stat.session)),
        ("cell", ArgValue::U64(stat.cell as u64)),
        ("regime", ArgValue::Str(cell.regime.clone())),
        ("method", ArgValue::Str(cell.method.into())),
        ("trial", ArgValue::U64(stat.trial)),
        ("seed", ArgValue::Str(digest_hex(stat.seed))),
        ("rounds", ArgValue::U64(stat.rounds)),
        ("digest", ArgValue::Str(digest_hex(stat.digest))),
    ];
    if let Some(rate) = cell.fault_rate {
        args.push(("fault_rate", ArgValue::F64(rate)));
    }
    telemetry::trace_instant("fttt.campaign.trial", args);
}

/// Aggregates per-trial stats into campaign rows.
///
/// Walks the stats in `(cell, trial)` order — sorting first — so the
/// floating-point reduction order is identical no matter how the stats
/// were produced (the whole campaign, joined slices, any thread count).
///
/// # Panics
///
/// Panics if any cell is missing trials (an incomplete slice set must not
/// silently aggregate into wrong rows).
pub fn rows_from_stats(
    cfg: &CampaignConfig,
    cells: &[CellSpec],
    stats: &[TrialStat],
) -> Vec<CampaignRow> {
    let mut stats: Vec<&TrialStat> = stats.iter().collect();
    stats.sort_by_key(|s| (s.cell, s.trial));
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        let cell_stats: Vec<&&TrialStat> = stats.iter().filter(|s| s.cell == cell.index).collect();
        assert_eq!(
            cell_stats.len(),
            cfg.trials,
            "cell {} ({}/{}) has {} trials, campaign wants {} — joined an incomplete slice set?",
            cell.index,
            cell.regime,
            cell.method,
            cell_stats.len(),
            cfg.trials
        );
        let n = cell_stats.len() as f64;
        let lost: Vec<&&&TrialStat> = cell_stats.iter().filter(|s| s.lost_rounds > 0).collect();
        let recovery_rate = if lost.is_empty() {
            1.0
        } else {
            lost.iter().filter(|s| s.recovered).count() as f64 / lost.len() as f64
        };
        rows.push(CampaignRow {
            regime: cell.regime.clone(),
            method: cell.method,
            fault_rate: cell.fault_rate,
            mean_error: cell_stats.iter().map(|s| s.mean_error).sum::<f64>() / n,
            worst_error: cell_stats
                .iter()
                .map(|s| s.mean_error)
                .fold(f64::NEG_INFINITY, f64::max),
            lost_fraction: cell_stats
                .iter()
                .map(|s| s.lost_rounds as f64 / s.rounds as f64)
                .sum::<f64>()
                / n,
            degraded_fraction: cell_stats
                .iter()
                .map(|s| s.degraded_rounds as f64 / s.rounds as f64)
                .sum::<f64>()
                / n,
            trials_lost: lost.len(),
            recovery_rate,
            mean_samples: cell_stats
                .iter()
                .map(|s| s.total_samples as f64 / s.rounds as f64)
                .sum::<f64>()
                / n,
        });
    }
    rows
}

/// The campaign checksum: a pure function of `(config, cells, map, every
/// trial digest)` folded in canonical `(cell, trial)` order. Wall-clock
/// quantities (durations, timestamps, telemetry histograms) are *not*
/// folded — the checksum pins the simulation, not the machine.
pub fn campaign_checksum(
    cfg: &CampaignConfig,
    cells: &[CellSpec],
    map_digest: u64,
    stats: &[TrialStat],
) -> u64 {
    let mut d = Digest::new();
    d.write_u64(cfg.seed);
    d.write_u64(cfg.trials as u64);
    d.write_f64(cfg.duration);
    d.write_u64(cfg.nodes as u64);
    d.write_u64(map_digest);
    d.write_u64(cells.len() as u64);
    for cell in cells {
        d.write_str(&cell.regime);
        d.write_str(cell.method);
        d.write_bool(cell.fault_rate.is_some());
        d.write_f64(cell.fault_rate.unwrap_or(0.0));
        d.write_str(&cell.schedule_text);
    }
    let mut ordered: Vec<&TrialStat> = stats.iter().collect();
    ordered.sort_by_key(|s| (s.cell, s.trial));
    d.write_u64(ordered.len() as u64);
    for s in ordered {
        d.write_u64(s.cell as u64);
        d.write_u64(s.trial);
        d.write_u64(s.digest);
    }
    d.value()
}

/// Runs the whole campaign: the node-failure sweep then the showcase
/// regimes, for both methods, in deterministic row order.
///
/// # Panics
///
/// Panics if `cfg.trials == 0` or a built-in schedule fails to parse
/// (which would be a bug in this module).
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<CampaignRow> {
    let cs = run_campaign_stats(cfg, &CampaignKind::Builtin, 1, 0);
    rows_from_stats(cfg, &cs.cells, &cs.stats)
}

/// Runs both session-wrapped methods against one user-provided schedule
/// (the CLI `campaign --schedule` path). Row order follows the method
/// order.
///
/// # Panics
///
/// Panics if `cfg.trials == 0` or `schedule_text` does not parse (the CLI
/// validates it first).
pub fn run_custom_schedule(
    cfg: &CampaignConfig,
    label: &str,
    schedule_text: &str,
) -> Vec<CampaignRow> {
    let kind = CampaignKind::Custom {
        label: label.to_string(),
        schedule: schedule_text.to_string(),
    };
    let cs = run_campaign_stats(cfg, &kind, 1, 0);
    rows_from_stats(cfg, &cs.cells, &cs.stats)
}

/// The churn family's strongest invariant, checked over the *per-trial*
/// stats: the `churn-incremental` and `churn-rebuild` cells of the same
/// method must have produced bit-identical trial digests — the
/// incrementally repaired map walked the exact trajectory the
/// rebuild-per-event reference did, round for round, epoch for epoch. A
/// trial present in only one of the two cells is a violation too.
/// Returns one message per violation; empty for campaigns without churn
/// cells.
pub fn check_churn_digests(cells: &[CellSpec], stats: &[TrialStat]) -> Vec<String> {
    let digests: BTreeMap<(usize, u64), u64> = stats
        .iter()
        .map(|s| ((s.cell, s.trial), s.digest))
        .collect();
    let mut violations = Vec::new();
    for (method, _) in METHODS {
        let cell_of = |policy_label: &str| {
            cells
                .iter()
                .find(|c| c.regime == policy_label && c.method == method)
        };
        let (Some(inc), Some(reb)) = (cell_of("churn-incremental"), cell_of("churn-rebuild"))
        else {
            continue;
        };
        let trials_of = |cell: usize| {
            digests
                .range((cell, 0)..=(cell, u64::MAX))
                .map(|(&(_, trial), _)| trial)
        };
        let trials: BTreeSet<u64> = trials_of(inc.index).chain(trials_of(reb.index)).collect();
        for trial in trials {
            match (
                digests.get(&(inc.index, trial)),
                digests.get(&(reb.index, trial)),
            ) {
                (Some(&a), Some(&b)) if a != b => violations.push(format!(
                    "{method} churn trial {trial}: incremental digest {} != rebuild digest {} — \
                     incremental repair left the rebuild-per-event trajectory",
                    digest_hex(a),
                    digest_hex(b)
                )),
                (Some(_), None) => violations.push(format!(
                    "{method} churn trial {trial}: present in the incremental cell, \
                     missing from the rebuild cell"
                )),
                (None, Some(_)) => violations.push(format!(
                    "{method} churn trial {trial}: present in the rebuild cell, \
                     missing from the incremental cell"
                )),
                _ => {}
            }
        }
    }
    violations
}

/// Checks the graceful-degradation envelopes; returns one message per
/// violation (empty = campaign passes).
///
/// * every cell's error is finite and positive;
/// * no cell degrades past a blind field-centre guess
///   (`0.55 × field_side`);
/// * per method, sweep means stay inside the envelope anchored at the
///   fault-free mean: `mean(rate) ≤ 3 × mean(0) + 12 m`;
/// * the blackout showcase actually drives sessions Lost, and a majority
///   of those sessions recover to Tracking.
pub fn check_envelopes(rows: &[CampaignRow], field_side: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let blind_guess = 0.55 * field_side;
    for r in rows {
        if !r.mean_error.is_finite() || r.mean_error <= 0.0 {
            violations.push(format!(
                "{}/{}: mean error {} is not finite-positive",
                r.regime, r.method, r.mean_error
            ));
        } else if r.mean_error > blind_guess {
            violations.push(format!(
                "{}/{}: mean error {:.1} m exceeds the blind-guess scale {:.1} m",
                r.regime, r.method, r.mean_error, blind_guess
            ));
        }
    }
    for (label, _) in METHODS {
        let sweep: Vec<&CampaignRow> = rows
            .iter()
            .filter(|r| r.regime == SWEEP_REGIME && r.method == label)
            .collect();
        // No sweep rows at all: a custom or churn campaign — nothing to
        // anchor. A *partial* sweep (rows but no rate-0 anchor) is still
        // an error.
        if sweep.is_empty() {
            continue;
        }
        let Some(baseline) = sweep.iter().find(|r| r.fault_rate == Some(0.0)) else {
            violations.push(format!("{label}: sweep has no fault-free baseline row"));
            continue;
        };
        for r in &sweep {
            let bound = 3.0 * baseline.mean_error + 12.0;
            if r.mean_error > bound {
                violations.push(format!(
                    "{label}: rate {:?} mean {:.1} m breaks the envelope {:.1} m \
                     (3 × fault-free {:.1} m + 12 m)",
                    r.fault_rate, r.mean_error, bound, baseline.mean_error
                ));
            }
        }
    }
    for r in rows.iter().filter(|r| r.regime == BLACKOUT_REGIME) {
        if r.trials_lost == 0 {
            violations.push(format!(
                "{}/{}: no trial entered Lost during a total blackout",
                r.regime, r.method
            ));
        } else if r.recovery_rate < 0.5 {
            violations.push(format!(
                "{}/{}: only {:.0}% of lost sessions recovered after the blackout",
                r.regime,
                r.method,
                100.0 * r.recovery_rate
            ));
        }
    }
    violations
}

/// The field side the campaign runs on (for envelope scaling).
pub fn campaign_field_side(cfg: &CampaignConfig) -> f64 {
    campaign_params(cfg).field_side
}

/// The campaign rows as the table both front ends print: one line per
/// cell, with the recovered column as `recovered/lost` trials.
pub fn campaign_table(rows: &[CampaignRow], cfg: &CampaignConfig) -> Table {
    let mut table = Table::new(
        format!(
            "Fault campaign ({} trials x {} s, {} nodes, seed {})",
            cfg.trials, cfg.duration, cfg.nodes, cfg.seed
        ),
        &[
            "regime",
            "rate",
            "method",
            "mean err (m)",
            "worst (m)",
            "lost",
            "degraded",
            "recovered",
            "mean k",
        ],
    );
    for r in rows {
        table.row(&[
            r.regime.clone(),
            r.fault_rate
                .map_or_else(|| "-".into(), |v| format!("{v:.1}")),
            r.method.to_string(),
            format!("{:.2}", r.mean_error),
            format!("{:.2}", r.worst_error),
            format!("{:.1}%", 100.0 * r.lost_fraction),
            format!("{:.1}%", 100.0 * r.degraded_fraction),
            format!(
                "{}/{}",
                (r.recovery_rate * r.trials_lost as f64).round(),
                r.trials_lost
            ),
            format!("{:.2}", r.mean_samples),
        ]);
    }
    table
}

/// Prints the envelope verdict: one line on stdout when every envelope
/// holds, else the violations on stderr. Returns whether the campaign
/// passed; both front ends exit 1 when it did not.
pub fn report_violations(violations: &[String]) -> bool {
    if violations.is_empty() {
        println!("all graceful-degradation envelopes hold");
        return true;
    }
    eprintln!("\n{} envelope violation(s):", violations.len());
    for v in violations {
        eprintln!("  - {v}");
    }
    false
}

/// The `BENCH_robustness.json` artifact. When a telemetry snapshot is
/// supplied it is embedded under a `"metrics"` key so the artifact
/// carries the campaign's instrumentation counters alongside the
/// envelopes.
///
/// Floats are written exactly (see [`wsn_telemetry::json::format_f64`]),
/// so the values read back are the values the run computed; the campaign
/// checksum is a hex string.
pub fn render_json(
    rows: &[CampaignRow],
    cfg: &CampaignConfig,
    violations: &[String],
    metrics: Option<&wsn_telemetry::Snapshot>,
    checksum: Option<u64>,
) -> String {
    json::pretty(|o| {
        o.field("bench", "fault_campaign").object("config", |c| {
            c.field("seed", cfg.seed)
                .field("trials", cfg.trials)
                .field("duration_s", cfg.duration)
                .field("nodes", cfg.nodes)
                .field("field_side_m", campaign_field_side(cfg))
                .array("sweep_rates", |a| {
                    a.items(SWEEP_RATES);
                })
                .field(
                    "envelope",
                    "mean(rate) <= 3*mean(0) + 12 m; all cells <= 0.55*field_side; \
                     blackout must reach Lost and majority-recover",
                );
        });
        if let Some(sum) = checksum {
            o.hex("checksum", sum);
        }
        o.array("rows", |a| {
            for r in rows {
                a.object(|row| {
                    row.field("regime", &r.regime)
                        .field("method", r.method)
                        .field("fault_rate", r.fault_rate)
                        .field("mean_error_m", r.mean_error)
                        .field("worst_error_m", r.worst_error)
                        .field("lost_fraction", r.lost_fraction)
                        .field("degraded_fraction", r.degraded_fraction)
                        .field("trials_lost", r.trials_lost)
                        .field("recovery_rate", r.recovery_rate)
                        .field("mean_samples", r.mean_samples);
                });
            }
        })
        .field("violations", violations.len());
        if let Some(snap) = metrics {
            o.object("metrics", |m| snap.write_json(m));
        }
        o.field("pass", violations.is_empty());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_telemetry::json::JsonValue;

    #[test]
    fn showcase_schedules_all_parse() {
        for (label, text) in showcase_regimes() {
            assert!(Schedule::parse(text).is_ok(), "{label} schedule must parse");
        }
    }

    #[test]
    fn single_trial_cell_is_deterministic() {
        let cfg = CampaignConfig {
            seed: 9,
            trials: 1,
            duration: 5.0,
            nodes: 8,
        };
        let params = campaign_params(&cfg);
        let field = params.grid_field();
        let map = Arc::new(params.face_map(&field));
        let schedule = Schedule::parse("static node_failure=0.3").unwrap();
        let env = TrialEnv {
            params: &params,
            field: &field,
            map: &map,
            schedule: &schedule,
            chain: &[],
            duration: cfg.duration,
        };
        let a = run_session_trial(&env, false, 123, 1);
        let b = run_session_trial(&env, false, 123, 1);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "trial digests must agree");
        // A different seed must move the digest.
        let c = run_session_trial(&env, false, 124, 1);
        assert_ne!(a.1, c.1, "different seed, same digest — digest is blind");
    }

    /// The incremental and rebuild chains over the churn schedule agree
    /// link for link, and every link carries its own map's digest (which
    /// pins the order the parallel digests are zipped back in).
    #[test]
    fn repair_chains_agree_and_carry_their_maps_digests() {
        let params = campaign_params(&CampaignConfig::fast(1));
        let field = params.grid_field();
        let map = Arc::new(params.face_map(&field));
        let schedule = Schedule::parse(CHURN_SCHEDULE).unwrap();
        let chain = |mode| repair_chain(&map, &schedule, field.len(), mode);
        let key = |l: &ChainLink| (l.report.node, l.report.death, l.report.epoch, l.digest);
        let inc = chain(RepairMode::Incremental);
        let reb = chain(RepairMode::Rebuild);
        assert_eq!(inc.len(), 6, "3 deaths and 3 revivals");
        assert_eq!(
            inc.iter().map(key).collect::<Vec<_>>(),
            reb.iter().map(key).collect::<Vec<_>>()
        );
        for (k, link) in inc.iter().chain(&reb).enumerate() {
            assert_eq!(link.digest, digest_face_map(&link.map), "link {k}");
        }
        // Each event moves the map, so a misordered zip cannot pass.
        assert!(inc.windows(2).all(|w| w[0].digest != w[1].digest));
    }

    #[test]
    fn campaign_stats_come_back_in_cell_trial_order() {
        let cfg = CampaignConfig {
            seed: 3,
            trials: 4,
            duration: 3.0,
            nodes: 8,
        };
        for shards in [1, 3] {
            for shard_id in 0..shards {
                let part = run_campaign_stats(&cfg, &CampaignKind::Churn, shards, shard_id);
                let keys: Vec<(usize, u64)> =
                    part.stats.iter().map(|s| (s.cell, s.trial)).collect();
                let want: Vec<(usize, u64)> = (0..part.cells.len())
                    .flat_map(|cell| {
                        (0..cfg.trials as u64)
                            .filter(|t| *t as usize % shards == shard_id)
                            .map(move |t| (cell, t))
                    })
                    .collect();
                assert_eq!(keys, want, "slice {shard_id}/{shards}");
            }
        }
    }

    /// Synthetic churn-campaign stats: every cell, `trials` trials, each
    /// trial's digest its trial index (so every policy agrees).
    fn churn_stats(trials: u64) -> (Vec<CellSpec>, Vec<TrialStat>) {
        let cells = campaign_cells(&CampaignKind::Churn);
        let stats = cells
            .iter()
            .flat_map(|c| {
                (0..trials).map(|trial| TrialStat {
                    cell: c.index,
                    trial,
                    seed: trial,
                    session: trial,
                    mean_error: 1.0,
                    rounds: 1,
                    lost_rounds: 0,
                    degraded_rounds: 0,
                    recovered: false,
                    total_samples: 1,
                    digest: trial,
                })
            })
            .collect();
        (cells, stats)
    }

    fn cell_index(cells: &[CellSpec], regime: &str, method: &str) -> usize {
        cells
            .iter()
            .find(|c| c.regime == regime && c.method == method)
            .unwrap()
            .index
    }

    #[test]
    fn churn_digest_check_flags_mismatches() {
        let (cells, mut stats) = churn_stats(3);
        assert!(check_churn_digests(&cells, &stats).is_empty());
        let reb = cell_index(&cells, "churn-rebuild", "FTTT-ext");
        stats
            .iter_mut()
            .find(|s| s.cell == reb && s.trial == 2)
            .unwrap()
            .digest ^= 1;
        let v = check_churn_digests(&cells, &stats);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("FTTT-ext churn trial 2: incremental digest"));
    }

    #[test]
    fn churn_digest_check_flags_a_dropped_rebuild_trial() {
        let (cells, mut stats) = churn_stats(3);
        let reb = cell_index(&cells, "churn-rebuild", "FTTT-basic");
        stats.retain(|s| !(s.cell == reb && s.trial == 1));
        let v = check_churn_digests(&cells, &stats);
        assert_eq!(
            v,
            [
                "FTTT-basic churn trial 1: present in the incremental cell, \
              missing from the rebuild cell"
            ]
        );
    }

    #[test]
    fn churn_digest_check_flags_a_dropped_incremental_trial() {
        let (cells, mut stats) = churn_stats(3);
        let inc = cell_index(&cells, "churn-incremental", "FTTT-ext");
        stats.retain(|s| !(s.cell == inc && s.trial == 0));
        let v = check_churn_digests(&cells, &stats);
        assert_eq!(
            v,
            ["FTTT-ext churn trial 0: present in the rebuild cell, \
              missing from the incremental cell"]
        );
    }

    /// The slicing invariant, in miniature: running the trials of every
    /// cell split across 3 slices and joining them must reproduce the
    /// whole campaign's rows bit-for-bit and the same campaign checksum.
    #[test]
    fn sharded_stats_merge_to_identical_rows_and_checksum() {
        let cfg = CampaignConfig {
            seed: 5,
            trials: 3,
            duration: 4.0,
            nodes: 8,
        };
        let kind = CampaignKind::Custom {
            label: "mini".into(),
            schedule: "static node_failure=0.2".into(),
        };
        let single = run_campaign_stats(&cfg, &kind, 1, 0);
        let mut merged: Vec<TrialStat> = Vec::new();
        let mut map_digests = Vec::new();
        for shard_id in 0..3 {
            let part = run_campaign_stats(&cfg, &kind, 3, shard_id);
            assert_eq!(part.cells, single.cells);
            map_digests.push(part.map_digest);
            merged.extend(part.stats);
        }
        assert!(map_digests.iter().all(|d| *d == single.map_digest));
        // Slices see disjoint trial subsets that union to the full set.
        assert_eq!(merged.len(), single.stats.len());

        let rows_single = rows_from_stats(&cfg, &single.cells, &single.stats);
        let rows_merged = rows_from_stats(&cfg, &single.cells, &merged);
        assert_eq!(rows_single, rows_merged);
        assert_eq!(
            campaign_checksum(&cfg, &single.cells, single.map_digest, &single.stats),
            campaign_checksum(&cfg, &single.cells, single.map_digest, &merged),
        );
    }

    #[test]
    fn incomplete_merge_is_rejected_loudly() {
        let cfg = CampaignConfig {
            seed: 5,
            trials: 2,
            duration: 3.0,
            nodes: 8,
        };
        let kind = CampaignKind::Custom {
            label: "mini".into(),
            schedule: "static node_failure=0.2".into(),
        };
        let part = run_campaign_stats(&cfg, &kind, 2, 0);
        let result = std::panic::catch_unwind(|| rows_from_stats(&cfg, &part.cells, &part.stats));
        assert!(result.is_err(), "one slice of two must not aggregate");
    }

    #[test]
    fn envelope_flags_blowup_and_missing_baseline() {
        let row = |regime: &str, rate: Option<f64>, mean: f64| CampaignRow {
            regime: regime.to_string(),
            method: "FTTT-basic",
            fault_rate: rate,
            mean_error: mean,
            worst_error: mean,
            lost_fraction: 0.0,
            degraded_fraction: 0.0,
            trials_lost: 0,
            recovery_rate: 1.0,
            mean_samples: 5.0,
        };
        // A 0-rate baseline of 5 m and a 0.5-rate mean of 40 m breaks
        // 3·5 + 12 = 27 m. FTTT-ext has no sweep rows at all, which is a
        // campaign without a sweep family for that method — skipped, not
        // flagged.
        let rows = vec![
            row(SWEEP_REGIME, Some(0.0), 5.0),
            row(SWEEP_REGIME, Some(0.5), 40.0),
        ];
        let v = check_envelopes(&rows, 100.0);
        assert_eq!(v.len(), 1, "exactly the envelope break: {v:?}");
        assert!(v[0].contains("breaks the envelope"), "{v:?}");
        // A partial sweep — rows but no rate-0 anchor — is still flagged.
        let rows = vec![row(SWEEP_REGIME, Some(0.5), 10.0)];
        let v = check_envelopes(&rows, 100.0);
        assert!(
            v.iter().any(|m| m.contains("no fault-free baseline")),
            "{v:?}"
        );
        // A blackout row that never reached Lost is a violation too.
        let rows = vec![row(BLACKOUT_REGIME, None, 10.0)];
        let v = check_envelopes(&rows, 100.0);
        assert!(v.iter().any(|m| m.contains("entered Lost")), "{v:?}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cfg = CampaignConfig::fast(1);
        let rows = vec![CampaignRow {
            regime: "burst".into(),
            method: "FTTT-basic",
            fault_rate: None,
            mean_error: 9.5,
            worst_error: 12.0,
            lost_fraction: 0.1,
            degraded_fraction: 0.2,
            trials_lost: 1,
            recovery_rate: 1.0,
            mean_samples: 6.0,
        }];
        let doc = JsonValue::parse(&render_json(&rows, &cfg, &[], None, None)).unwrap();
        let row = &doc.req_array("rows", "test").unwrap()[0];
        assert_eq!(row.get("fault_rate"), Some(&JsonValue::Null));
        assert_eq!(doc.get("pass").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("metrics"), None);
        assert_eq!(doc.get("checksum"), None);

        let registry = wsn_telemetry::Registry::new();
        registry.counter("wsn.regime.activations").add(7);
        let snap = registry.snapshot();
        let json = render_json(&rows, &cfg, &[], Some(&snap), Some(0xdead_beef));
        let doc = JsonValue::parse(&json).unwrap();
        let counters = doc
            .req("metrics", "test")
            .and_then(|m| m.req_object("counters", "metrics"))
            .unwrap();
        assert_eq!(
            counters
                .get("wsn.regime.activations")
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        assert_eq!(doc.req_hex("checksum", "test"), Ok(0xdead_beef));
        assert_eq!(
            doc.get("checksum").and_then(JsonValue::as_str),
            Some("0x00000000deadbeef")
        );
    }

    /// The artifact's floats must round-trip exactly through the shared
    /// JSON parser — the `{:.3}` truncation this replaces could not.
    #[test]
    fn artifact_floats_round_trip_exactly() {
        let cfg = CampaignConfig::fast(1);
        let mean = 9.123456789012345;
        let rows = vec![CampaignRow {
            regime: "burst".into(),
            method: "FTTT-basic",
            fault_rate: Some(0.1),
            mean_error: mean,
            worst_error: mean * 1.5,
            lost_fraction: 1.0 / 3.0,
            degraded_fraction: 0.1 + 0.2,
            trials_lost: 1,
            recovery_rate: 2.0 / 3.0,
            mean_samples: 5.123,
        }];
        let json = render_json(&rows, &cfg, &[], None, None);
        let doc = JsonValue::parse(&json).unwrap();
        let row = &doc.get("rows").and_then(JsonValue::as_array).unwrap()[0];
        for (key, want) in [
            ("mean_error_m", mean),
            ("worst_error_m", mean * 1.5),
            ("lost_fraction", 1.0 / 3.0),
            ("degraded_fraction", 0.1 + 0.2),
            ("recovery_rate", 2.0 / 3.0),
            ("mean_samples", 5.123),
        ] {
            let got = row.get(key).and_then(JsonValue::as_f64).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{key} mangled: {want} -> {got}"
            );
        }
    }
}
