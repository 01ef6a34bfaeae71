//! Journal-driven replay: re-run a recorded campaign from its own header
//! and diff the live rounds against the recording, plus the
//! golden-checksum gate the `fault_campaign --check-determinism` mode
//! runs against `crates/bench/baselines/robustness_checksums.json`.
//!
//! A campaign journal is self-describing: the `fttt.campaign.header`
//! event carries the config, the kind (built-in or custom, with the
//! schedule text embedded) and the face-map digest; each
//! `fttt.campaign.trial` event maps a stable session id to its cell,
//! derived seed and replay digest; each `fttt.session.round` event
//! carries the full per-round monitor record. [`parse_recording`] lifts
//! any of the journal's serializations (JSONL, canonical JSONL, Chrome
//! trace) back into a [`RecordedCampaign`]; [`replay_and_diff`] re-runs
//! the campaign from the header alone and reports every field-level
//! divergence, ordered so "first divergent round" means first in
//! deterministic campaign order — the earliest point where the live
//! simulation left the recorded trajectory.

use std::collections::BTreeMap;

use crate::robustness::{
    campaign_cells, campaign_checksum, run_campaign_stats, CampaignConfig, CampaignKind,
};
use fttt::replay::digest_hex;
use fttt::session::{SessionRound, ROUND_EVENT};
use wsn_telemetry::json::{self, JsonValue};
use wsn_telemetry::trace::parse_journal;
use wsn_telemetry::Journal;

/// One recorded `fttt.campaign.trial` event.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrial {
    /// Cell index in campaign order.
    pub cell: u64,
    /// Trial index within the cell.
    pub trial: u64,
    /// The trial's derived RNG seed.
    pub seed: u64,
    /// Rounds the trial ran.
    pub rounds: u64,
    /// The trial's replay digest.
    pub digest: u64,
}

/// A campaign recording, reconstructed from its journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedCampaign {
    /// The recorded config.
    pub cfg: CampaignConfig,
    /// What was run (schedule text embedded for custom runs).
    pub kind: CampaignKind,
    /// The recorded face-map digest.
    pub map_digest: u64,
    /// Per-trial records keyed by stable session id.
    pub trials: BTreeMap<u64, RecordedTrial>,
    /// Per-round records keyed by `(session id, round index)`, decoded by
    /// [`SessionRound::from_journal`].
    pub rounds: BTreeMap<(u64, u64), SessionRound>,
}

/// Parses a journal serialization into a [`RecordedCampaign`].
///
/// Fails loudly when the journal has no campaign header (nothing to
/// replay from), names an unknown kind, or a round/trial event is
/// missing fields.
pub fn parse_recording(text: &str) -> Result<RecordedCampaign, String> {
    let (events, _) = parse_journal(text)?;
    let mut header: Option<(CampaignConfig, CampaignKind, u64)> = None;
    let mut trials = BTreeMap::new();
    let mut rounds = BTreeMap::new();
    for event in &events {
        // Every form nests the payload under "args".
        let args = event.get("args").unwrap_or(&JsonValue::Null);
        match event.get("name").and_then(JsonValue::as_str) {
            Some("fttt.campaign.header") => {
                if header.is_some() {
                    return Err("journal holds more than one campaign header; \
                                replay one campaign at a time"
                        .into());
                }
                let ctx = "campaign header";
                let cfg = CampaignConfig {
                    seed: args.req_hex("seed", ctx)?,
                    trials: args.req_u64("trials", ctx)? as usize,
                    duration: args.req_f64("duration_s", ctx)?,
                    nodes: args.req_u64("nodes", ctx)? as usize,
                };
                let kind = match args.req_str("campaign_kind", ctx)? {
                    "builtin" => CampaignKind::Builtin,
                    "custom" => CampaignKind::Custom {
                        label: args.req_str("label", ctx)?.into(),
                        schedule: args.req_str("schedule", ctx)?.into(),
                    },
                    "churn" => CampaignKind::Churn,
                    other => return Err(format!("{ctx}: unknown campaign kind {other:?}")),
                };
                let map_digest = args.req_hex("map_digest", ctx)?;
                header = Some((cfg, kind, map_digest));
            }
            Some("fttt.campaign.trial") => {
                let ctx = "campaign trial event";
                let session = args.req_u64("session", ctx)?;
                trials.insert(
                    session,
                    RecordedTrial {
                        cell: args.req_u64("cell", ctx)?,
                        trial: args.req_u64("trial", ctx)?,
                        seed: args.req_hex("seed", ctx)?,
                        rounds: args.req_u64("rounds", ctx)?,
                        digest: args.req_hex("digest", ctx)?,
                    },
                );
            }
            Some(ROUND_EVENT) => {
                let (session, round) = SessionRound::from_journal(event)?;
                rounds.insert((session, round.trace.round), round);
            }
            _ => {}
        }
    }
    let (cfg, kind, map_digest) =
        header.ok_or("journal has no fttt.campaign.header event — nothing to replay from")?;
    Ok(RecordedCampaign {
        cfg,
        kind,
        map_digest,
        trials,
        rounds,
    })
}

/// One field-level disagreement between the recording and the live
/// re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Stable session id the divergence is in.
    pub session: u64,
    /// Round index, `None` for trial- or campaign-level divergences.
    pub round: Option<u64>,
    /// Which field disagreed.
    pub field: String,
    /// The recorded value, rendered.
    pub recorded: String,
    /// The live value, rendered.
    pub live: String,
}

/// The outcome of a replay diff.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Round events in the recording.
    pub recorded_rounds: usize,
    /// Round events the live re-run produced.
    pub live_rounds: usize,
    /// Every divergence, in deterministic campaign order — `divergences
    /// .first()` is *the* first divergent round.
    pub divergences: Vec<Divergence>,
    /// The live run's campaign checksum.
    pub checksum: u64,
}

impl ReplayReport {
    /// A faithful recording replays with zero divergences.
    pub fn is_faithful(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Re-runs the recorded campaign from its header and diffs every round
/// and trial digest against the recording.
///
/// The live run executes under a private journal (any installed journal
/// is restored afterwards) — the recording may have come from any thread
/// count, which is exactly what the diff is meant to be invariant to.
pub fn replay_and_diff(rec: &RecordedCampaign) -> Result<ReplayReport, String> {
    let saved = wsn_telemetry::uninstall_journal();
    // Big enough that a full campaign cannot drop round events — a lossy
    // capture would diff as spurious missing rounds.
    let journal = std::sync::Arc::new(Journal::with_capacity(1 << 20));
    wsn_telemetry::install_journal(std::sync::Arc::clone(&journal));
    let stats = run_campaign_stats(&rec.cfg, &rec.kind, 1, 0);
    let log = journal.snapshot();
    wsn_telemetry::uninstall_journal();
    if let Some(prev) = saved {
        wsn_telemetry::install_journal(prev);
    }
    if log.dropped > 0 {
        return Err(format!(
            "replay journal dropped {} events — raise the journal capacity",
            log.dropped
        ));
    }

    let cells = campaign_cells(&rec.kind);
    let checksum = campaign_checksum(&rec.cfg, &cells, stats.map_digest, &stats.stats);
    // The live run is read back through the same reader as the
    // recording, so both sides see exactly what a journal file carries.
    let RecordedCampaign {
        trials: live_trials,
        rounds: live_rounds,
        ..
    } = parse_recording(&log.to_jsonl())?;

    let mut divergences = Vec::new();
    if rec.map_digest != stats.map_digest {
        divergences.push(Divergence {
            session: 0,
            round: None,
            field: "map_digest".into(),
            recorded: digest_hex(rec.map_digest),
            live: digest_hex(stats.map_digest),
        });
    }
    // Order sessions by campaign position (cell, trial) so the first
    // reported divergence is the first in deterministic campaign order,
    // not in id order. Sessions only one side knows about sort last.
    let mut sessions: Vec<u64> = rec
        .trials
        .keys()
        .chain(live_trials.keys())
        .chain(rec.rounds.keys().map(|(s, _)| s))
        .chain(live_rounds.keys().map(|(s, _)| s))
        .copied()
        .collect();
    sessions.sort_unstable();
    sessions.dedup();
    sessions.sort_by_key(|s| {
        live_trials
            .get(s)
            .or_else(|| rec.trials.get(s))
            .map_or((u64::MAX, u64::MAX), |t| (t.cell, t.trial))
    });

    for session in sessions {
        diff_session(session, rec, &live_trials, &live_rounds, &mut divergences);
    }
    Ok(ReplayReport {
        recorded_rounds: rec.rounds.len(),
        live_rounds: live_rounds.len(),
        divergences,
        checksum,
    })
}

type RoundMap = BTreeMap<(u64, u64), SessionRound>;

fn diff_session(
    session: u64,
    rec: &RecordedCampaign,
    live_trials: &BTreeMap<u64, RecordedTrial>,
    live_rounds: &RoundMap,
    divergences: &mut Vec<Divergence>,
) {
    let mut push = |round, field: &str, (recorded, live): (String, String)| {
        divergences.push(Divergence {
            session,
            round,
            field: field.into(),
            recorded,
            live,
        });
    };
    // Round-by-round, in index order; the first field mismatch of a round
    // is reported and the rest of that round skipped (one cause per
    // round keeps the report readable — downstream fields of the same
    // round almost always disagree too).
    let end = |m: &RoundMap| {
        m.range((session, 0)..=(session, u64::MAX))
            .next_back()
            .map_or(0, |((_, r), _)| r + 1)
    };
    for round in 0..end(&rec.rounds).max(end(live_rounds)) {
        let key = (session, round);
        let diff = match (rec.rounds.get(&key), live_rounds.get(&key)) {
            (Some(a), Some(b)) => a
                .first_journal_difference(b)
                .map(|(field, a, b)| (field, (a, b))),
            (a, b) => presence(a, b).map(|p| ("presence", p)),
        };
        if let Some((field, values)) = diff {
            push(Some(round), field, values);
        }
    }
    // Trial digests: the strongest per-trial check (covers regime/world
    // state the round events do not carry).
    let diff = match (rec.trials.get(&session), live_trials.get(&session)) {
        (Some(a), Some(b)) => (a.digest != b.digest)
            .then(|| ("trial digest", (digest_hex(a.digest), digest_hex(b.digest)))),
        (a, b) => presence(a, b).map(|p| ("trial", p)),
    };
    if let Some((field, values)) = diff {
        push(None, field, values);
    }
}

/// The (recorded, live) renderings of a record only one side holds.
fn presence<A, B>(recorded: Option<A>, live: Option<B>) -> Option<(String, String)> {
    match (recorded.is_some(), live.is_some()) {
        (true, false) => Some(("recorded".into(), "absent from live run".into())),
        (false, true) => Some((
            "absent from recording".into(),
            "live run produced it".into(),
        )),
        _ => None,
    }
}

/// The baseline key a `(config, campaign kind)` pair maps to in the
/// golden-checksum file. `campaign` is a
/// [`crate::robustness::campaign_kind_label`].
pub fn checksum_key(cfg: &CampaignConfig, campaign: &str) -> String {
    format!(
        "campaign={},seed={},trials={},duration={},nodes={}",
        campaign, cfg.seed, cfg.trials, cfg.duration, cfg.nodes
    )
}

/// Renders the golden-checksum baseline document. Each entry is keyed by
/// `(campaign kind label, config)`; the seed is a full-range `u64`, so it
/// is written as hex like every other seed.
pub fn render_checksum_baseline(entries: &[(CampaignConfig, &str, u64)]) -> String {
    json::pretty(|o| {
        o.field("bench", "fault_campaign_checksums")
            .field(
                "note",
                "golden campaign checksums; every fault_campaign run prints its \
                 checksum — update these only on an intentional simulation change",
            )
            .array("entries", |a| {
                for (cfg, campaign, sum) in entries {
                    a.object(|e| {
                        e.field("campaign", campaign)
                            .hex("seed", cfg.seed)
                            .field("trials", cfg.trials)
                            .field("duration_s", cfg.duration)
                            .field("nodes", cfg.nodes)
                            .hex("checksum", *sum);
                    });
                }
            });
    })
}

/// Checks a freshly computed campaign checksum against the committed
/// baseline document. `Ok(())` means the run matches its golden value;
/// `Err` names the drift or the missing entry.
pub fn check_checksum(
    baseline_text: &str,
    cfg: &CampaignConfig,
    campaign: &str,
    checksum: u64,
) -> Result<(), String> {
    let doc = JsonValue::parse(baseline_text).map_err(|e| format!("checksum baseline: {e}"))?;
    if doc.get("bench").and_then(JsonValue::as_str) != Some("fault_campaign_checksums") {
        return Err("checksum baseline: not a fault_campaign_checksums document".into());
    }
    for (i, e) in doc
        .req_array("entries", "checksum baseline")?
        .iter()
        .enumerate()
    {
        let ctx = format!("checksum baseline entry {i}");
        let entry_cfg = CampaignConfig {
            seed: e.req_hex("seed", &ctx)?,
            trials: e.req_u64("trials", &ctx)? as usize,
            duration: e.req_f64("duration_s", &ctx)?,
            nodes: e.req_u64("nodes", &ctx)? as usize,
        };
        if entry_cfg == *cfg && e.req_str("campaign", &ctx)? == campaign {
            let golden = e.req_hex("checksum", &ctx)?;
            return if golden == checksum {
                Ok(())
            } else {
                Err(format!(
                    "campaign checksum drift for {}: committed {} vs computed {} — \
                     the simulation no longer reproduces its golden trajectory",
                    checksum_key(cfg, campaign),
                    digest_hex(golden),
                    digest_hex(checksum)
                ))
            };
        }
    }
    Err(format!(
        "checksum baseline has no entry for {} — run fault_campaign with this config \
         (it prints the checksum) and commit it",
        checksum_key(cfg, campaign)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_baseline_round_trips_and_gates() {
        let fast = CampaignConfig::fast(42);
        let full = CampaignConfig::full(42);
        let text = render_checksum_baseline(&[
            (fast, "builtin", 0xabc),
            (full, "builtin", 0xdef),
            (fast, "churn", 0x123),
        ]);
        assert!(check_checksum(&text, &fast, "builtin", 0xabc).is_ok());
        assert!(check_checksum(&text, &full, "builtin", 0xdef).is_ok());
        // The same config under a different campaign kind is a different
        // golden entry.
        assert!(check_checksum(&text, &fast, "churn", 0x123).is_ok());
        assert!(check_checksum(&text, &fast, "churn", 0xabc).is_err());

        let drift = check_checksum(&text, &fast, "builtin", 0xabd).unwrap_err();
        assert!(drift.contains("drift"), "{drift}");
        assert!(drift.contains("0x0000000000000abc"), "{drift}");

        let missing =
            check_checksum(&text, &CampaignConfig::fast(7), "builtin", 0xabc).unwrap_err();
        assert!(missing.contains("no entry"), "{missing}");
        assert!(missing.contains("seed=7"), "{missing}");

        // Seeds above 2^53 have entries of their own: they are hex, not
        // JSON numbers that would round to a neighbouring seed.
        let big = CampaignConfig::fast((1 << 53) + 1);
        let text = render_checksum_baseline(&[(big, "builtin", 0x456)]);
        assert_eq!(check_checksum(&text, &big, "builtin", 0x456), Ok(()));
        let neighbour = CampaignConfig::fast(1 << 53);
        let missing = check_checksum(&text, &neighbour, "builtin", 0x456).unwrap_err();
        assert!(missing.contains("no entry"), "{missing}");
    }

    /// The committed golden file is exactly what the renderer writes for
    /// its own entries, so hand edits cannot drift from the format.
    #[test]
    fn committed_baseline_is_in_rendered_form() {
        let text = include_str!("../baselines/robustness_checksums.json");
        let doc = JsonValue::parse(text).unwrap();
        let entries: Vec<(CampaignConfig, String, u64)> = doc
            .req_array("entries", "test")
            .unwrap()
            .iter()
            .map(|e| {
                let cfg = CampaignConfig {
                    seed: e.req_hex("seed", "test").unwrap(),
                    trials: e.req_u64("trials", "test").unwrap() as usize,
                    duration: e.req_f64("duration_s", "test").unwrap(),
                    nodes: e.req_u64("nodes", "test").unwrap() as usize,
                };
                let campaign = e.req_str("campaign", "test").unwrap().to_string();
                (cfg, campaign, e.req_hex("checksum", "test").unwrap())
            })
            .collect();
        let borrowed: Vec<(CampaignConfig, &str, u64)> = entries
            .iter()
            .map(|(cfg, campaign, sum)| (*cfg, campaign.as_str(), *sum))
            .collect();
        assert_eq!(render_checksum_baseline(&borrowed), text);
    }

    #[test]
    fn recording_parse_rejects_headerless_and_malformed_journals() {
        let err = parse_recording("").unwrap_err();
        assert!(err.contains("no fttt.campaign.header"), "{err}");

        let err = parse_recording("{not json at all").unwrap_err();
        assert!(err.contains("journal line 1"), "{err}");

        // A header missing its seed is named, not silently defaulted.
        let line = r#"{"name":"fttt.campaign.header","kind":"instant","args":{"campaign_kind":"builtin"}}"#;
        let err = parse_recording(line).unwrap_err();
        assert!(err.contains("\"seed\""), "{err}");
    }

    #[test]
    fn first_field_diff_reports_in_canonical_order() {
        use fttt::session::TrackStatus;
        // A healthy round as one line of a JSONL journal.
        let line = r#"{"name":"fttt.session.round","round":0,"args":{"session":1,"t":1,
            "status_before":"Tracking","status":"Tracking","cause":"healthy","blackout":false,
            "stranded":false,"starved":false,"teleported":false,"missing":0,"zeros":0,"k":5,
            "k_after":5,"held":false,"reacquired":false,"x":10,"y":20,"face":3,"similarity":0.9}}"#;
        let (_, base) = SessionRound::from_journal(&JsonValue::parse(line).unwrap()).unwrap();
        assert_eq!(base.first_journal_difference(&base), None);
        // status diverges before x in the canonical order even when both
        // disagree.
        let mut b = base.clone();
        b.status = TrackStatus::Lost;
        b.estimate.x = 11.0;
        let (field, rec, live) = base.first_journal_difference(&b).unwrap();
        assert_eq!(field, "status");
        assert_eq!((rec.as_str(), live.as_str()), ("Tracking", "Lost"));
        // Faces render 1-based, as the journal writes them.
        let mut b = base.clone();
        b.face = None;
        assert_eq!(
            base.first_journal_difference(&b),
            Some(("face", "3".into(), "0".into()))
        );
        // Floats compare by bit pattern: -0.0 is not 0.0.
        let mut b = base.clone();
        b.missing_fraction = -0.0;
        assert_eq!(base.first_journal_difference(&b).unwrap().0, "missing");
        // similarity None vs Some is a divergence, not a wildcard.
        let mut b = base.clone();
        b.similarity = None;
        assert_eq!(base.first_journal_difference(&b).unwrap().0, "similarity");
    }
}
