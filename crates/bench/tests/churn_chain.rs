//! The campaign runner repairs each churn event once per repairing
//! policy, not once per cell or per trial: the `FTTT-basic` and
//! `FTTT-ext` cells of `churn-incremental` share one repair chain, and
//! so do those of `churn-rebuild`. With a metrics sink installed,
//! `fttt.map.repair.count` over one `run_campaign_stats` call must equal
//! (repairing policies × schedule events) whatever the trial count, and
//! the runner's own chain metrics must agree.
//!
//! The metrics sink is process-global, so this file is its own test
//! binary and one `#[test]` drives every phase in sequence.

use std::collections::BTreeSet;
use std::sync::Arc;

use fttt_bench::robustness::{
    campaign_cells, churn_policy_of, run_campaign_stats, CampaignConfig, CampaignKind, ChurnPolicy,
    CHURN_SCHEDULE,
};
use wsn_network::Schedule;
use wsn_telemetry::Registry;

/// What one churn campaign of `trials` trials per cell records.
struct Counts {
    repairs: u64,
    adopted: u64,
    chains: u64,
    links: u64,
}

fn churn_counts(trials: usize) -> Counts {
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
    Counts {
        repairs: counter("fttt.map.repair.count"),
        adopted: counter("fttt.session.churn_events"),
        chains: snap
            .histograms
            .get("fttt.campaign.chain_us")
            .map_or(0, |h| h.count),
        links: counter("fttt.campaign.chain.links"),
    }
}

#[test]
fn each_churn_event_is_repaired_once_per_policy() {
    let cells = campaign_cells(&CampaignKind::Churn);
    let repairing: Vec<_> = cells
        .iter()
        .filter(|c| churn_policy_of(&c.regime) != Some(ChurnPolicy::Stale))
        .collect();
    let policies = repairing
        .iter()
        .map(|c| c.regime.as_str())
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let repairing = repairing.len() as u64;
    let events = Schedule::parse(CHURN_SCHEDULE)
        .unwrap()
        .engine(8)
        .churn_events_between(None, f64::INFINITY)
        .len() as u64;
    assert_eq!((policies, repairing, events), (2, 4, 6));
    for trials in [3, 6] {
        let c = churn_counts(trials);
        assert_eq!(
            c.repairs,
            policies * events,
            "{trials} trials: repairs must scale with neither the cell nor the trial count"
        );
        assert_eq!((c.chains, c.links), (policies, policies * events));
        // Every trial still adopts every event (the fast trace outlasts
        // the last revival at t = 14).
        assert_eq!(
            c.adopted,
            repairing * events * trials as u64,
            "{trials} trials"
        );
    }
}
