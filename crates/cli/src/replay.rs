//! `fttt-sim replay TRACE_FILE` — re-run a recorded campaign from its
//! journal header and diff the live rounds against the recording.
//!
//! The journal must have been captured with
//! `fttt-sim campaign --trace-out FILE` (any serialization: `.jsonl`,
//! canonical JSONL, or the Chrome trace form). The recording is
//! self-describing — config, kind and schedule text all come from the
//! `fttt.campaign.header` event, so no other inputs are needed.
//!
//! Exit status: 0 when the replay is faithful (zero divergent rounds and
//! every trial digest matches), 1 when the live run diverged, 2 on
//! unreadable/unparseable input.

use std::path::Path;

use fttt::replay::digest_hex;
use fttt_bench::replay::{parse_recording, replay_and_diff, Divergence};
use fttt_bench::robustness::CampaignKind;

use crate::print_stdout;

/// How many divergences to print before summarizing the rest.
const MAX_SHOWN: usize = 10;

/// Runs the replay diff against a recorded journal.
pub fn run(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let rec = parse_recording(&text).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        std::process::exit(2);
    });
    let kind = match &rec.kind {
        CampaignKind::Builtin => "builtin sweep + showcases".to_string(),
        CampaignKind::Custom { label, .. } => format!("custom schedule `{label}`"),
        CampaignKind::Churn => "churn storm x 3 map policies".to_string(),
    };
    print_stdout(&format!(
        "recording: {kind} | seed {:#x} | {} trials x {} s, {} nodes | \
         {} trial digests, {} round events\nreplaying from the recorded header...\n",
        rec.cfg.seed,
        rec.cfg.trials,
        rec.cfg.duration,
        rec.cfg.nodes,
        rec.trials.len(),
        rec.rounds.len(),
    ));
    let report = replay_and_diff(&rec).unwrap_or_else(|e| {
        eprintln!("error: replay failed: {e}");
        std::process::exit(2);
    });
    print_stdout(&format!(
        "live run: {} round events | campaign checksum {}\n",
        report.live_rounds,
        digest_hex(report.checksum)
    ));
    if report.is_faithful() {
        print_stdout(&format!(
            "replay: FAITHFUL — {} recorded rounds re-derived exactly, \
             0 divergences\n",
            report.recorded_rounds
        ));
        return;
    }
    let first = &report.divergences[0];
    eprintln!(
        "replay: DIVERGED — first divergent round: {}",
        describe(first)
    );
    for d in report.divergences.iter().take(MAX_SHOWN) {
        eprintln!("  - {}", describe(d));
    }
    if report.divergences.len() > MAX_SHOWN {
        eprintln!(
            "  ... and {} more divergence(s)",
            report.divergences.len() - MAX_SHOWN
        );
    }
    eprintln!(
        "{} divergence(s) total; the recording does not reproduce under \
         this build (simulation change, or the journal was edited)",
        report.divergences.len()
    );
    std::process::exit(1);
}

fn describe(d: &Divergence) -> String {
    match d.round {
        Some(round) => format!(
            "session {:#x} round {round}: {} recorded as {}, live {}",
            d.session, d.field, d.recorded, d.live
        ),
        None => format!(
            "session {:#x}: {} recorded as {}, live {}",
            d.session, d.field, d.recorded, d.live
        ),
    }
}
