//! The fault campaign: sweeps fault regimes × session-wrapped trackers,
//! prints the degradation table, writes `BENCH_robustness.json` and exits
//! non-zero on any graceful-degradation envelope violation.
//!
//! Usage:
//!
//! * `fault_campaign [--seed N] [--trials N] [--fast]` — the campaign
//!   (`--fast` is the reduced tier-1 smoke workload). Trials run in
//!   parallel across every core of one process.
//! * `fault_campaign --churn [...]` — the live-topology-churn campaign
//!   instead of the built-in sweep: a staggered death/birth storm under
//!   three map policies (stale / incremental repair / rebuild per event),
//!   with the incremental-vs-rebuild per-trial digest identity enforced
//!   as an envelope. Composes with `--fast` and `--check-determinism`
//!   (churn goldens are separate baseline entries).
//! * `fault_campaign --check-determinism [--fast]` — golden-checksum
//!   gate: recomputes the campaign checksum and compares it against
//!   `crates/bench/baselines/robustness_checksums.json` (or
//!   `--checksum-baseline FILE`), exiting 1 on drift without writing any
//!   artifact. An unreadable baseline fails before any trial runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fttt::replay::digest_hex;
use fttt_bench::replay::{check_checksum, checksum_key};
use fttt_bench::robustness::{
    campaign_checksum, campaign_field_side, campaign_kind_label, campaign_table,
    check_churn_digests, check_envelopes, render_json, report_violations, rows_from_stats,
    run_campaign_stats, CampaignConfig, CampaignKind,
};
use fttt_bench::Cli;

fn main() {
    let cli = Cli::parse();
    let mut cfg = if cli.fast {
        CampaignConfig::fast(cli.seed)
    } else {
        CampaignConfig::full(cli.seed)
    };
    if let Some(trials) = cli.trials {
        cfg.trials = trials.max(1);
    }
    let kind = if cli.churn {
        CampaignKind::Churn
    } else {
        CampaignKind::Builtin
    };

    // Fail on a bad baseline or output path *now*, before the
    // campaign burns minutes of trials.
    let determinism_baseline = if cli.check_determinism {
        let path = baseline_path(&cli);
        match std::fs::read_to_string(&path) {
            Ok(text) => Some((path, text)),
            Err(e) => {
                eprintln!(
                    "fault_campaign: cannot read checksum baseline {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    } else {
        if let Err(msg) = wsn_telemetry::ensure_writable_file(Path::new("BENCH_robustness.json")) {
            eprintln!("fault_campaign: BENCH_robustness.json: {msg}");
            std::process::exit(1);
        }
        None
    };

    let registry = Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    let stats = run_campaign_stats(&cfg, &kind, 1, 0);
    wsn_telemetry::uninstall();
    let metrics = registry.snapshot();
    let rows = rows_from_stats(&cfg, &stats.cells, &stats.stats);
    let checksum = campaign_checksum(&cfg, &stats.cells, stats.map_digest, &stats.stats);

    if let Some((path, text)) = determinism_baseline {
        match check_checksum(&text, &cfg, campaign_kind_label(&kind), checksum) {
            Ok(()) => {
                println!(
                    "determinism gate: {} checksum {} matches {}",
                    checksum_key(&cfg, campaign_kind_label(&kind)),
                    digest_hex(checksum),
                    path.display()
                );
                return;
            }
            Err(msg) => {
                eprintln!("determinism gate FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    campaign_table(&rows, &cfg).print();
    println!("campaign checksum: {}", digest_hex(checksum));

    let mut violations = check_envelopes(&rows, campaign_field_side(&cfg));
    violations.extend(check_churn_digests(&stats.cells, &stats.stats));
    let json = render_json(&rows, &cfg, &violations, Some(&metrics), Some(checksum));
    let path = "BENCH_robustness.json";
    wsn_telemetry::write_file_atomic(Path::new(path), json.as_bytes())
        .expect("write BENCH_robustness.json");
    println!("wrote {path}");

    if !report_violations(&violations) {
        std::process::exit(1);
    }
}

fn baseline_path(cli: &Cli) -> PathBuf {
    if let Some(path) = &cli.checksum_baseline {
        return path.clone();
    }
    let repo_relative = PathBuf::from("crates/bench/baselines/robustness_checksums.json");
    if repo_relative.exists() {
        return repo_relative;
    }
    // Fall back to the compile-time crate location so the gate also works
    // when invoked from outside the repo root.
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/robustness_checksums.json"
    ))
}
