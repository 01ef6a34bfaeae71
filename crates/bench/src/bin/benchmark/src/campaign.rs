//! The campaign workloads: the product's campaign runner,
//! [`run_campaign_stats`] (what `fttt-sim campaign` and every
//! `fault_campaign --shards` worker run), over a seeded configuration.
//!
//! The campaign runs as `SLICES` shard slices in sequence — slice `i`
//! is `run_campaign_stats(cfg, kind, SLICES, i)`, the unit a sharded
//! campaign hands to one worker — so each run also yields a latency
//! sample per slice. Merged, the slices are the whole campaign
//! (sharded equivalence is a tested property of the runner).
//!
//! The traced pass re-runs a fixed sample of trials through this
//! module's own copy of the trial loop, with every call under its span,
//! and requires each trial's replay digest to equal the runner's: the
//! traced pass provably measures the same work.

use crate::layers::{self, span, Spans, Tally, Tracing};
use crate::report::{self, RunResult};
use crate::serve::vm_hwm_mb;
use crate::stats;
use fttt::facemap::{FaceMap, RepairMode};
use fttt::replay::{digest_face_map, digest_run, digest_world, stable_session_id, Digest};
use fttt::session::{SessionOptions, SessionRun, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt::PaperParams;
use fttt_bench::robustness::{
    check_churn_digests, churn_policy_of, run_campaign_stats, CampaignConfig, CampaignKind,
    CellSpec, ChurnPolicy, TrialStat,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wsn_network::{GroupSampler, Schedule, SensorField};
use wsn_parallel::seed_for;

/// Shard slices per run.
const SLICES: usize = 10;
/// Face-map builds before each slice; `setup_s` is the median of all of
/// them. A build takes a few milliseconds, so many, spread over the whole
/// run, keep the median steady against the host's slow swings.
const SETUP_BUILDS: usize = 10;
/// Simulated seconds per trial.
const DURATION: f64 = 40.0;
/// Span around one whole trial.
const TRIAL: &str = "bench.campaign.trial";
/// Trials per cell of the accuracy set.
const ACCURACY_TRIALS: usize = 4;

/// One campaign workload's shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Which cells run.
    pub kind: CampaignKind,
    /// Deployment size.
    pub nodes: usize,
    /// Trials per cell (a multiple of the slice count).
    pub trials: usize,
    /// Trials per cell the traced pass re-runs.
    pub traced_trials: u64,
}

impl Shape {
    /// `campaign`: the built-in campaign — node-failure sweep, burst,
    /// blackout, energy, stuck, drift and churn cells — at 10 nodes.
    pub fn builtin(seconds: u64) -> Shape {
        Shape {
            kind: CampaignKind::Builtin,
            nodes: 10,
            trials: 30 * seconds as usize,
            traced_trials: 2,
        }
    }

    /// `campaign-churn`: the churn family at 40 nodes, where map repair
    /// runs beside matching on the same planes.
    pub fn churn(seconds: u64) -> Shape {
        Shape {
            kind: CampaignKind::Churn,
            nodes: 40,
            trials: 7 * seconds as usize,
            traced_trials: 4,
        }
    }

    fn config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            trials: self.trials,
            duration: DURATION,
            nodes: self.nodes,
        }
    }
}

/// The campaign geometry, as the runner builds it.
fn campaign_params(nodes: usize) -> PaperParams {
    PaperParams::default().with_nodes(nodes).with_cell_size(2.0)
}

/// Runs one campaign workload; `Err` is an environment error.
pub fn run(
    name: &str,
    shape: &Shape,
    seed: u64,
    traced: bool,
    journal: &Path,
) -> Result<RunResult, String> {
    let cfg = shape.config(seed);
    let params = campaign_params(cfg.nodes);
    let field = params.grid_field();
    let mut setup = Vec::with_capacity(SLICES * SETUP_BUILDS);
    let mut slice_us = Vec::with_capacity(SLICES);
    let mut rounds = 0u64;
    let mut stats: Vec<TrialStat> = Vec::new();
    let mut cells = Vec::new();
    let mut map_digests = Vec::new();
    for slice in 0..SLICES {
        for _ in 0..SETUP_BUILDS {
            let started = Instant::now();
            black_box(params.face_map(&field));
            setup.push(started.elapsed().as_secs_f64());
        }
        let at = Instant::now();
        let part = run_campaign_stats(&cfg, &shape.kind, SLICES, slice);
        slice_us.push(at.elapsed().as_secs_f64() * 1e6);
        rounds += part.stats.iter().map(|s| s.rounds).sum::<u64>();
        cells = part.cells;
        map_digests.push(part.map_digest);
        stats.extend(part.stats);
    }
    stats.sort_by_key(|s| (s.cell, s.trial));

    // Every trial present once, with a finite error; incremental and
    // rebuild churn cells digest-identical; one map across slices.
    let attempted = (cells.len() * cfg.trials) as u64;
    let mut failed = attempted.saturating_sub(stats.len() as u64);
    failed += stats.iter().filter(|s| !s.mean_error.is_finite()).count() as u64;
    let violations = check_churn_digests(&cells, &stats);
    for v in &violations {
        eprintln!("{name}: {v}");
    }
    failed += violations.len() as u64;
    failed += u64::from(map_digests.iter().any(|d| *d != map_digests[0]));

    let mut values = BTreeMap::new();
    values.insert("setup_s".into(), stats::median(&setup));
    // Over the whole campaign: the host's speed drifts over seconds, and
    // only the longest average holds still against it.
    let campaign_s = slice_us.iter().sum::<f64>() / 1e6;
    values.insert("rounds_per_s".into(), rounds as f64 / campaign_s);
    values.insert("latency_p50_us".into(), stats::percentile(&slice_us, 0.5));
    values.insert("latency_p90_us".into(), stats::percentile(&slice_us, 0.9));
    values.insert("latency_samples".into(), slice_us.len() as f64);
    values.insert("peak_rss_mb".into(), vm_hwm_mb("/proc/self/status")?);
    values.insert("mean_error_m".into(), accuracy_error_m(shape));

    if traced {
        let env = Env {
            params: &params,
            field: &field,
            duration: cfg.duration,
        };
        failed += traced_pass(&env, shape, seed, &cells, &stats, journal, &mut values)?;
    }
    values.insert("failed_frac".into(), failed as f64 / attempted as f64);
    Ok(RunResult {
        workload: name.to_string(),
        seed,
        traced,
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}

/// The runner's mean tracking error over the accuracy set: the first
/// [`ACCURACY_TRIALS`] trials of every cell of this shape's campaign from
/// [`report::ACCURACY_SEED`].
fn accuracy_error_m(shape: &Shape) -> f64 {
    let cfg = CampaignConfig {
        trials: ACCURACY_TRIALS,
        ..shape.config(report::ACCURACY_SEED)
    };
    let errors: Vec<f64> = run_campaign_stats(&cfg, &shape.kind, 1, 0)
        .stats
        .iter()
        .map(|s| s.mean_error)
        .collect();
    stats::mean(&errors)
}

/// The deployment every trial of a campaign shares.
struct Env<'a> {
    params: &'a PaperParams,
    field: &'a SensorField,
    duration: f64,
}

/// What one trial produced.
struct Trial {
    digest: u64,
    /// µs spent in `TrackingSession::step`.
    step_us: f64,
    /// Rounds whose probed push and reply did not survive the codec.
    codec_failures: u64,
}

/// Trial `trial` of `cell`: the runner's trial loop — the same calls in
/// the same order on the same RNG stream, so the replay digest matches —
/// with each call under its span. With `tally`, every round's stages are
/// also re-run under their own spans.
fn run_trial(
    env: &Env<'_>,
    map: &FaceMap,
    cell: &CellSpec,
    schedule: &Schedule,
    master: u64,
    trial: u64,
    mut tally: Option<&mut Tally>,
) -> Trial {
    let _trial = wsn_telemetry::span(TRIAL);
    let churn = churn_policy_of(&cell.regime);
    let seed = seed_for(master, trial);
    let id = stable_session_id(
        &cell.regime,
        cell.method,
        cell.fault_rate,
        trial,
        map.epoch(),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let trace = span(layers::TRACE, || {
        env.params.random_trace(env.duration, &mut rng)
    });
    let options = TrackerOptions {
        extended: cell.extended,
        ..TrackerOptions::heuristic()
    };
    let session_options =
        SessionOptions::new(env.params.samples_k).with_max_speed(env.params.max_speed);
    let copy = span(layers::CLONE, || map.clone());
    let mut session =
        TrackingSession::new(Tracker::new(copy, options), session_options).with_session_id(id);
    let mut engine = schedule.engine(env.field.len());
    let base = env.params.sampler();
    let mut world = Digest::new();
    let mut prev_t = None;
    let mut run = SessionRun {
        rounds: Vec::with_capacity(trace.len()),
        errors: Vec::with_capacity(trace.len()),
    };
    let mut out = Trial {
        digest: 0,
        step_us: 0.0,
        codec_failures: 0,
    };
    let mut start = map.center_face();
    for p in trace.points() {
        let _round = wsn_telemetry::span("bench.campaign.round");
        if let Some(policy) = churn {
            let events = engine.churn_events_between(prev_t, p.t);
            prev_t = Some(p.t);
            let mode = match policy {
                ChurnPolicy::Stale => None,
                ChurnPolicy::Incremental => Some(RepairMode::Incremental),
                ChurnPolicy::Rebuild => Some(RepairMode::Rebuild),
            };
            for e in events {
                let Some(mode) = mode else { continue };
                let name = match mode {
                    RepairMode::Incremental => layers::REPAIR,
                    RepairMode::Rebuild => layers::REBUILD,
                };
                let report = span(name, || session.apply_churn(p.t, e.node, e.death, mode));
                if let (Some(t), RepairMode::Incremental) = (tally.as_deref_mut(), mode) {
                    t.note_repair(&report);
                }
                span(layers::DIGEST, || {
                    world.write_u64(report.epoch);
                    world.write_u64(digest_face_map(session.tracker().map()));
                });
                // The repair remapped face ids; restart the probe's climb.
                start = session.tracker().map().center_face();
            }
        }
        let sampler = GroupSampler {
            samples: session.requested_samples(),
            ..base.clone()
        };
        let mut group = span(layers::SAMPLE, || {
            sampler.sample(env.field, p.pos, &mut rng)
        });
        span(layers::REGIME, || engine.apply(p.t, &mut group, &mut rng));
        span(layers::DIGEST, || digest_world(&mut world, &engine, &group));
        let at = Instant::now();
        let round = span(layers::STEP, || session.step(p.t, &group));
        out.step_us += at.elapsed().as_secs_f64() * 1e6;
        if let Some(t) = tally.as_deref_mut() {
            let map = session.tracker().map();
            if !t.probe_round(map, &group, cell.extended, &round, start) {
                out.codec_failures += 1;
            }
        }
        start = round.face.unwrap_or(start);
        run.errors.push(round.estimate.distance(p.pos));
        run.rounds.push(round);
    }
    let mut digest = Digest::new();
    digest.write_u64(seed);
    digest.write_digest(world);
    digest_run(&mut digest, &run);
    out.digest = digest.value();
    out
}

/// The traced pass over the first `traced_trials` trials of every cell:
/// each trial once untraced and once traced, both required to reproduce
/// the runner's digest. Returns the number of trials that did not.
fn traced_pass(
    env: &Env<'_>,
    shape: &Shape,
    seed: u64,
    cells: &[CellSpec],
    stats: &[TrialStat],
    journal: &Path,
    values: &mut BTreeMap<String, f64>,
) -> Result<u64, String> {
    let tracing = Tracing::new();
    tracing.on();
    let map = span(layers::BUILD, || env.params.face_map(env.field));
    tracing.off();
    let mut tally = Tally::default();
    let mut failed = 0u64;
    for cell in cells {
        let schedule = Schedule::parse(&cell.schedule_text)
            .map_err(|e| format!("cell {}: {e}", cell.regime))?;
        for trial in 0..shape.traced_trials {
            let want = stats
                .iter()
                .find(|s| s.cell == cell.index && s.trial == trial)
                .map(|s| s.digest);
            let plain = run_trial(env, &map, cell, &schedule, seed, trial, None);
            tally.plain_step_us += plain.step_us;
            tracing.on();
            let traced = run_trial(env, &map, cell, &schedule, seed, trial, Some(&mut tally));
            tracing.off();
            if want != Some(plain.digest)
                || want != Some(traced.digest)
                || traced.codec_failures > 0
            {
                eprintln!(
                    "{}/{} trial {trial}: the traced loop left the runner's trajectory",
                    cell.regime, cell.method
                );
                failed += 1;
            }
        }
    }
    tracing.on();
    tally.probe_grid(env.params, env.field, &map, seed);
    let spans: Spans = tracing.finish(journal)?;
    values.extend(tally.rows(&spans));

    // The trial loop is the runner here: per round, the program's own work
    // (trial time less the probes) splits into the step and the rest.
    let n = tally.rounds as f64;
    let probes: f64 = layers::PROBES.iter().map(|p| spans.sum(p)).sum();
    let per_round = (spans.sum(TRIAL) - probes) / n;
    let round_us = spans.sum(layers::STEP) / n;
    let stages: f64 = [
        layers::SAMPLE,
        layers::REGIME,
        layers::DIGEST,
        layers::TRACE,
        layers::CLONE,
        layers::REPAIR,
        layers::REBUILD,
    ]
    .iter()
    .map(|s| spans.sum(s))
    .sum();
    let churn = spans.sum(layers::REPAIR) + spans.sum(layers::REBUILD) + spans.sum(layers::CLONE);
    values.insert("runner.round_us_mean".into(), round_us);
    values.insert("runner.residual_us_mean".into(), per_round - round_us);
    values.insert(
        "runner.unattributed_us".into(),
        per_round - round_us - stages / n,
    );
    values.insert("facemap.churn_share".into(), churn / (per_round * n));
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trial loop must reproduce the runner's per-trial digests on a
    /// one-trial config, with and without the per-round probes.
    #[test]
    fn the_trial_loop_reproduces_the_runner() {
        for (kind, nodes) in [(CampaignKind::Builtin, 8), (CampaignKind::Churn, 8)] {
            let cfg = CampaignConfig {
                seed: 7,
                trials: 1,
                duration: 12.0,
                nodes,
            };
            let runner = run_campaign_stats(&cfg, &kind, 1, 0);
            let params = campaign_params(nodes);
            let field = params.grid_field();
            let map = params.face_map(&field);
            let env = Env {
                params: &params,
                field: &field,
                duration: cfg.duration,
            };
            for (cell, stat) in runner.cells.iter().zip(&runner.stats) {
                assert_eq!((stat.cell, stat.trial), (cell.index, 0));
                let schedule = Schedule::parse(&cell.schedule_text).unwrap();
                let plain = run_trial(&env, &map, cell, &schedule, cfg.seed, 0, None);
                assert_eq!(plain.digest, stat.digest, "{}/{}", cell.regime, cell.method);
                let mut tally = Tally::default();
                let probed = run_trial(&env, &map, cell, &schedule, cfg.seed, 0, Some(&mut tally));
                assert_eq!(
                    probed.digest, stat.digest,
                    "{}/{}",
                    cell.regime, cell.method
                );
                assert_eq!(probed.codec_failures, 0);
            }
        }
    }
}
