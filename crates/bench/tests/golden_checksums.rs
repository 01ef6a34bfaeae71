//! The golden campaign checksums, recomputed in tier-1: every entry of
//! `baselines/robustness_checksums.json` re-runs its campaign through
//! `run_campaign_stats`, folds it with `campaign_checksum` and must pass
//! `replay::check_checksum` — the same gate `fault_campaign
//! --check-determinism` applies, for all four entries at once.

use fttt_bench::replay::check_checksum;
use fttt_bench::robustness::{
    campaign_checksum, campaign_kind_label, run_campaign_stats, CampaignConfig, CampaignKind,
};
use wsn_telemetry::json::JsonValue;

const BASELINE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/baselines/robustness_checksums.json"
));

#[test]
fn every_golden_checksum_reproduces() {
    let doc = JsonValue::parse(BASELINE).unwrap();
    let entries = doc.req_array("entries", "baseline").unwrap();
    assert_eq!(entries.len(), 4, "builtin and churn, fast and full");
    for (i, e) in entries.iter().enumerate() {
        let ctx = format!("entry {i}");
        let cfg = CampaignConfig {
            seed: e.req_hex("seed", &ctx).unwrap(),
            trials: e.req_u64("trials", &ctx).unwrap() as usize,
            duration: e.req_f64("duration_s", &ctx).unwrap(),
            nodes: e.req_u64("nodes", &ctx).unwrap() as usize,
        };
        let label = e.req_str("campaign", &ctx).unwrap();
        let kind = [CampaignKind::Builtin, CampaignKind::Churn]
            .into_iter()
            .find(|k| campaign_kind_label(k) == label)
            .unwrap_or_else(|| panic!("{ctx}: unknown campaign {label:?}"));
        let cs = run_campaign_stats(&cfg, &kind, 1, 0);
        let checksum = campaign_checksum(&cfg, &cs.cells, cs.map_digest, &cs.stats);
        if let Err(e) = check_checksum(BASELINE, &cfg, label, checksum) {
            panic!("{ctx}: {e}");
        }
    }
}
