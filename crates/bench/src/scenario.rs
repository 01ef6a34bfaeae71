//! Shared simulation path for every experiment.

use fttt::config::PaperParams;
use fttt::tracker::{Tracker, TrackerOptions, TrackingRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_baselines::{DirectMle, ExtendedKalman, ParticleFilter, PathMatching, WeightedCentroid};
use wsn_network::{FaultModel, SensorField};
use wsn_parallel::{par_map, seed_for};

/// The tracking strategies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Basic FTTT (ternary vectors, exhaustive ML matching).
    FtttBasic,
    /// Extended FTTT (Section 6 quantitative vectors).
    FtttExtended,
    /// Basic FTTT with the heuristic matcher (Algorithm 2).
    FtttHeuristic,
    /// Path matching with MLE under a max-velocity constraint (\[22\]).
    Pm,
    /// Direct one-shot sequence MLE (\[24\]).
    DirectMle,
    /// Weighted centroid localization (classic range-free baseline).
    Wcl,
    /// Bootstrap particle filter (the model-based comparator class).
    ParticleFilter,
    /// Extended Kalman filter (the recursive model-based comparator).
    Ekf,
}

impl MethodKind {
    /// Short label for table columns.
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::FtttBasic => "FTTT",
            MethodKind::FtttExtended => "FTTT-ext",
            MethodKind::FtttHeuristic => "FTTT-heur",
            MethodKind::Pm => "PM",
            MethodKind::DirectMle => "DirectMLE",
            MethodKind::Wcl => "WCL",
            MethodKind::ParticleFilter => "PF",
            MethodKind::Ekf => "EKF",
        }
    }
}

/// One experiment setting: parameters, deployment shape, run length and
/// fault model.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Table-1 parameters (node count, ε, k, …).
    pub params: PaperParams,
    /// Regular grid (`true`) or uniform random (`false`) deployment.
    pub grid_deployment: bool,
    /// Trace duration in seconds (the paper simulates 60 s).
    pub duration: f64,
    /// Fault injection (default none).
    pub fault: FaultModel,
}

impl Scenario {
    /// The paper's default 60 s random-deployment scenario.
    pub fn new(params: PaperParams) -> Self {
        Self {
            params,
            grid_deployment: false,
            duration: 60.0,
            fault: FaultModel::none(),
        }
    }

    /// Switches to a regular grid deployment.
    pub fn with_grid(mut self) -> Self {
        self.grid_deployment = true;
        self
    }

    /// Sets the duration.
    pub fn with_duration(mut self, seconds: f64) -> Self {
        self.duration = seconds;
        self
    }

    /// Sets the fault model.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    fn field(&self, rng: &mut ChaCha8Rng) -> SensorField {
        if self.grid_deployment {
            self.params.grid_field()
        } else {
            self.params.random_field(rng)
        }
    }
}

/// Runs one tracking trial of `method` under `scenario` with a fully
/// deterministic derivation from `seed` (deployment, trace and noise all
/// come from one stream, so methods compared on the same seed see the same
/// world).
pub fn run_once(scenario: &Scenario, method: MethodKind, seed: u64) -> TrackingRun {
    let params = &scenario.params;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let field = scenario.field(&mut rng);
    let trace = params.random_trace(scenario.duration, &mut rng);
    let sampler = params.sampler().with_fault(scenario.fault.clone());
    let positions = field.deployment().positions();
    match method {
        MethodKind::FtttBasic | MethodKind::FtttExtended | MethodKind::FtttHeuristic => {
            let map = params.face_map(&field);
            let options = match method {
                MethodKind::FtttBasic => TrackerOptions::default(),
                MethodKind::FtttExtended => TrackerOptions::extended(),
                _ => TrackerOptions::heuristic(),
            };
            let mut tracker = Tracker::new(map, options);
            tracker.track(&field, &sampler, &trace, &mut rng)
        }
        MethodKind::Pm => {
            let mut pm = PathMatching::new(
                &positions,
                params.rect(),
                params.cell_size,
                params.max_speed,
                params.localization_period(),
            );
            pm.track(&field, &sampler, &trace, &mut rng)
        }
        MethodKind::DirectMle => {
            let mle = DirectMle::new(&positions, params.rect(), params.cell_size);
            mle.track(&field, &sampler, &trace, &mut rng)
        }
        MethodKind::Wcl => {
            let wcl =
                WeightedCentroid::with_path_loss_degree(&positions, params.rect(), params.beta);
            wcl.track(&field, &sampler, &trace, &mut rng)
        }
        MethodKind::ParticleFilter => {
            let mut pf = ParticleFilter::new(
                &positions,
                params.rect(),
                params.model(),
                1000,
                params.max_speed,
                params.localization_period(),
            );
            pf.track(&field, &sampler, &trace, &mut rng)
        }
        MethodKind::Ekf => {
            let mut ekf = ExtendedKalman::new(
                &positions,
                params.rect(),
                params.model(),
                params.localization_period(),
            );
            ekf.track(&field, &sampler, &trace, &mut rng)
        }
    }
}

/// Mean similarity evaluations per localization of one run, `0.0` for an
/// empty run (a `0/0` division here would otherwise poison
/// [`TrialAggregate::mean_evaluated`] with NaN).
pub fn mean_evaluated_per_localization(run: &TrackingRun) -> f64 {
    if run.localizations.is_empty() {
        0.0
    } else {
        run.total_evaluated() as f64 / run.localizations.len() as f64
    }
}

/// Aggregate over Monte-Carlo trials of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialAggregate {
    /// Number of trials.
    pub trials: usize,
    /// Mean over trials of the per-trial mean error.
    pub mean_error: f64,
    /// Mean over trials of the per-trial error standard deviation.
    pub mean_std: f64,
    /// Largest per-trial mean error (worst world).
    pub worst_mean: f64,
    /// Mean similarity evaluations per localization.
    pub mean_evaluated: f64,
}

/// Runs `trials` seeded trials of `(scenario, method)` in parallel and
/// aggregates the error statistics. Trial `i` uses
/// `seed_for(master_seed, i)`, so results are independent of thread count
/// and comparable across methods.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn trial_stats(
    scenario: &Scenario,
    method: MethodKind,
    trials: usize,
    master_seed: u64,
) -> TrialAggregate {
    assert!(trials > 0, "need at least one trial");
    let idx: Vec<u64> = (0..trials as u64).collect();
    let per_trial: Vec<(f64, f64, f64)> = par_map(&idx, |_, &i| {
        let run = run_once(scenario, method, seed_for(master_seed, i));
        let stats = run.error_stats();
        (stats.mean, stats.std, mean_evaluated_per_localization(&run))
    });
    let n = trials as f64;
    TrialAggregate {
        trials,
        mean_error: per_trial.iter().map(|t| t.0).sum::<f64>() / n,
        mean_std: per_trial.iter().map(|t| t.1).sum::<f64>() / n,
        worst_mean: per_trial
            .iter()
            .map(|t| t.0)
            .fold(f64::NEG_INFINITY, f64::max),
        mean_evaluated: per_trial.iter().map(|t| t.2).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> Scenario {
        Scenario::new(PaperParams::default().with_nodes(6).with_cell_size(4.0)).with_duration(5.0)
    }

    #[test]
    fn run_once_is_deterministic_per_seed() {
        let s = small_scenario();
        let a = run_once(&s, MethodKind::FtttBasic, 7);
        let b = run_once(&s, MethodKind::FtttBasic, 7);
        assert_eq!(a.localizations.len(), b.localizations.len());
        assert_eq!(a.errors(), b.errors());
        let c = run_once(&s, MethodKind::FtttBasic, 8);
        assert_ne!(a.errors(), c.errors(), "different seed, different world");
    }

    #[test]
    fn all_methods_run() {
        let s = small_scenario();
        for m in [
            MethodKind::FtttBasic,
            MethodKind::FtttExtended,
            MethodKind::FtttHeuristic,
            MethodKind::Pm,
            MethodKind::DirectMle,
            MethodKind::Wcl,
            MethodKind::ParticleFilter,
            MethodKind::Ekf,
        ] {
            let run = run_once(&s, m, 3);
            assert!(!run.localizations.is_empty(), "{}", m.label());
            assert!(run.error_stats().mean.is_finite());
        }
    }

    #[test]
    fn trial_stats_aggregates() {
        let s = small_scenario();
        let agg = trial_stats(&s, MethodKind::FtttBasic, 4, 11);
        assert_eq!(agg.trials, 4);
        assert!(agg.mean_error > 0.0 && agg.mean_error.is_finite());
        assert!(agg.worst_mean >= agg.mean_error);
        assert!(agg.mean_evaluated > 0.0);
    }

    #[test]
    fn empty_run_does_not_poison_evaluated_mean() {
        let empty = TrackingRun {
            localizations: Vec::new(),
        };
        let m = mean_evaluated_per_localization(&empty);
        assert_eq!(m, 0.0, "0/0 must not produce NaN, got {m}");
    }

    #[test]
    fn grid_and_random_deployments_differ() {
        let s = small_scenario();
        let g = s.clone().with_grid();
        let a = run_once(&s, MethodKind::FtttBasic, 5);
        let b = run_once(&g, MethodKind::FtttBasic, 5);
        // Same seed but different deployment ⟹ different errors.
        assert_ne!(a.errors(), b.errors());
    }
}
