//! The campaign runner repairs each churn event once per repairing cell,
//! not once per trial: every trial of a `churn-incremental` or
//! `churn-rebuild` cell adopts the cell's shared repair chain. With a
//! metrics sink installed, `fttt.map.repair.count` over one
//! `run_campaign_stats` call must equal (repairing cells × schedule
//! events) whatever the trial count.
//!
//! The metrics sink is process-global, so this file is its own test
//! binary and one `#[test]` drives every phase in sequence.

use std::sync::Arc;

use fttt_bench::robustness::{
    campaign_cells, churn_policy_of, run_campaign_stats, CampaignConfig, CampaignKind, ChurnPolicy,
    CHURN_SCHEDULE,
};
use wsn_network::Schedule;
use wsn_telemetry::Registry;

/// `fttt.map.repair.count` and `fttt.session.churn_events` over one
/// churn campaign of `trials` trials per cell.
fn repair_counts(trials: usize) -> (u64, u64) {
    let cfg = CampaignConfig {
        trials,
        ..CampaignConfig::fast(42)
    };
    let registry = Arc::new(Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    run_campaign_stats(&cfg, &CampaignKind::Churn, 1, 0);
    wsn_telemetry::uninstall();
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (
        counter("fttt.map.repair.count"),
        counter("fttt.session.churn_events"),
    )
}

#[test]
fn each_churn_event_is_repaired_once_per_cell() {
    let repairing = campaign_cells(&CampaignKind::Churn)
        .iter()
        .filter(|c| churn_policy_of(&c.regime) != Some(ChurnPolicy::Stale))
        .count() as u64;
    let events = Schedule::parse(CHURN_SCHEDULE)
        .unwrap()
        .engine(8)
        .churn_events_between(None, f64::INFINITY)
        .len() as u64;
    assert_eq!((repairing, events), (4, 6));
    for trials in [3, 6] {
        let (repairs, adopted) = repair_counts(trials);
        assert_eq!(
            repairs,
            repairing * events,
            "{trials} trials: repairs must not scale with the trial count"
        );
        // Every trial still adopts every event (the fast trace outlasts
        // the last revival at t = 14).
        assert_eq!(
            adopted,
            repairing * events * trials as u64,
            "{trials} trials"
        );
    }
}
