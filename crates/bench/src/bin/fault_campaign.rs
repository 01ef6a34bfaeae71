//! The fault campaign: sweeps fault regimes × session-wrapped trackers,
//! prints the degradation table, writes `BENCH_robustness.json` and exits
//! non-zero on any graceful-degradation envelope violation.
//!
//! Usage:
//!
//! * `fault_campaign [--seed N] [--trials N] [--fast]` — single-process
//!   run (`--fast` is the reduced tier-1 smoke workload).
//! * `fault_campaign --churn [...]` — the live-topology-churn campaign
//!   instead of the built-in sweep: a staggered death/birth storm under
//!   three map policies (stale / incremental repair / rebuild per event),
//!   with the incremental-vs-rebuild per-trial digest identity enforced
//!   as an envelope. Composes with `--shards`, `--fast` and
//!   `--check-determinism` (churn goldens are separate baseline entries).
//! * `fault_campaign --shards N` — coordinator mode: spawns `N` child
//!   processes (one per shard), each running the trial subset
//!   `trial % N == shard`, merges their shard files and writes the same
//!   artifact a single-process run would — bit-identical rows and
//!   campaign checksum, which the coordinator asserts.
//! * `fault_campaign --shards N --shard-id I` — one worker: writes
//!   `shard-I-of-N.json` into `--shard-dir` (default `<out>/shards`) and
//!   exits without touching the merged artifact.
//! * `fault_campaign --shards N --merge-only` — coordinator without
//!   workers: merge whatever shard files already sit in `--shard-dir`
//!   (a finished run, or a doctored one in the failure-path tests).
//!
//! Every coordinator failure — a worker that cannot spawn, exits
//! nonzero or is killed, a missing / unreadable / corrupt shard file, a
//! shard that ran the wrong config — is reported on stderr as a
//! `fault_campaign: shard N: ...` diagnostic and exits 1, without a
//! panic backtrace. When the coordinator spawned the workers itself it
//! also removes its shard files on the way out, so a crashed run cannot
//! poison the next one; `--merge-only` leaves the evidence in place.
//! * `fault_campaign --check-determinism [--fast]` — golden-checksum
//!   gate: recomputes the campaign checksum and compares it against
//!   `crates/bench/baselines/robustness_checksums.json` (or
//!   `--checksum-baseline FILE`), exiting 1 on drift without writing any
//!   artifact.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fttt::replay::digest_hex;
use fttt_bench::replay::{check_checksum, checksum_key};
use fttt_bench::robustness::{
    campaign_checksum, campaign_field_side, campaign_kind_label, check_churn_digests,
    check_envelopes, parse_shard_json, render_json, render_shard_json, rows_from_stats,
    run_campaign_stats, CampaignConfig, CampaignKind, CampaignStats, TrialStat,
};
use fttt_bench::{Cli, Table};

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
    let shard_dir = cli
        .shard_dir
        .clone()
        .unwrap_or_else(|| cli.out.join("shards"));

    // Fail on a bad baseline / output path / shard dir *now*, before the
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
    if cli.shards > 1 || cli.shard_id.is_some() || cli.merge_only {
        if let Err(msg) = wsn_telemetry::ensure_writable_dir(&shard_dir) {
            eprintln!("fault_campaign: --shard-dir: {msg}");
            std::process::exit(1);
        }
    }

    if let Some(shard_id) = cli.shard_id {
        if let Err(msg) = run_shard(&cfg, &kind, cli.shards, shard_id, &shard_dir) {
            eprintln!("fault_campaign: {msg}");
            std::process::exit(1);
        }
        return;
    }

    let (stats, metrics) = if cli.shards > 1 || cli.merge_only {
        match run_coordinator(&cfg, &kind, cli.shards, &shard_dir, &cli) {
            Ok(merged) => merged,
            Err(msg) => {
                eprintln!("fault_campaign: {msg}");
                std::process::exit(1);
            }
        }
    } else {
        let registry = Arc::new(wsn_telemetry::Registry::new());
        wsn_telemetry::install(Arc::clone(&registry));
        let stats = run_campaign_stats(&cfg, &kind, 1, 0);
        wsn_telemetry::uninstall();
        (stats, registry.snapshot())
    };
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

    print_table(&rows, &cfg);
    println!("campaign checksum: {}", digest_hex(checksum));

    let mut violations = check_envelopes(&rows, campaign_field_side(&cfg));
    violations.extend(check_churn_digests(&stats.cells, &stats.stats));
    let json = render_json(&rows, &cfg, &violations, Some(&metrics), Some(checksum));
    let path = "BENCH_robustness.json";
    wsn_telemetry::write_file_atomic(Path::new(path), json.as_bytes())
        .expect("write BENCH_robustness.json");
    println!("wrote {path}");

    if violations.is_empty() {
        println!("all graceful-degradation envelopes hold");
    } else {
        eprintln!("\n{} envelope violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

fn shard_file(shard_dir: &Path, shard_id: usize, shards: usize) -> PathBuf {
    shard_dir.join(format!("shard-{shard_id}-of-{shards}.json"))
}

/// Worker mode: run one shard's trial subset, write its stats + metrics.
fn run_shard(
    cfg: &CampaignConfig,
    kind: &CampaignKind,
    shards: usize,
    shard_id: usize,
    shard_dir: &Path,
) -> Result<(), String> {
    if shard_id >= shards {
        return Err(format!(
            "--shard-id {shard_id} out of range for --shards {shards}"
        ));
    }
    let registry = Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    let stats = run_campaign_stats(cfg, kind, shards, shard_id);
    wsn_telemetry::uninstall();
    std::fs::create_dir_all(shard_dir)
        .map_err(|e| format!("create shard dir {}: {e}", shard_dir.display()))?;
    let path = shard_file(shard_dir, shard_id, shards);
    let json = render_shard_json(
        cfg,
        shards,
        shard_id,
        &stats.stats,
        stats.map_digest,
        &registry.snapshot(),
    );
    wsn_telemetry::write_file_atomic(&path, json.as_bytes())?;
    println!(
        "shard {shard_id}/{shards}: {} trials -> {}",
        stats.stats.len(),
        path.display()
    );
    Ok(())
}

/// Removes the coordinator's own shard files (and the directory, if that
/// leaves it empty) so a failed run cannot feed stale shards to the next.
fn cleanup_shard_files(shard_dir: &Path, shards: usize) {
    for shard_id in 0..shards {
        let _ = std::fs::remove_file(shard_file(shard_dir, shard_id, shards));
    }
    let _ = std::fs::remove_dir(shard_dir); // only succeeds when empty
}

/// Spawns one worker per shard and waits for all of them, reporting every
/// failed shard by name. A worker that cannot even spawn kills the ones
/// already running rather than leaving them orphaned.
fn spawn_workers(
    cfg: &CampaignConfig,
    shards: usize,
    shard_dir: &Path,
    cli: &Cli,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let mut children: Vec<(usize, std::process::Child)> = Vec::with_capacity(shards);
    for shard_id in 0..shards {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--seed")
            .arg(cli.seed.to_string())
            .arg("--trials")
            .arg(cfg.trials.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--shard-id")
            .arg(shard_id.to_string())
            .arg("--shard-dir")
            .arg(shard_dir);
        if cli.fast {
            cmd.arg("--fast");
        }
        if cli.churn {
            cmd.arg("--churn");
        }
        match cmd.spawn() {
            Ok(child) => children.push((shard_id, child)),
            Err(e) => {
                for (_, mut running) in children {
                    let _ = running.kill();
                    let _ = running.wait();
                }
                return Err(format!("shard {shard_id}: cannot spawn worker: {e}"));
            }
        }
    }
    // Wait for *all* workers before judging, so one failure does not
    // orphan the rest; then report every casualty by shard id.
    let mut failures = Vec::new();
    for (shard_id, child) in &mut children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("shard {shard_id}: worker exited with {status}")),
            Err(e) => failures.push(format!("shard {shard_id}: cannot wait for worker: {e}")),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n  "))
    }
}

/// Merges the shard files in `shard_dir` into one campaign result,
/// validating that every shard ran the coordinator's config over the
/// same deterministic map.
fn merge_shard_files(
    cfg: &CampaignConfig,
    kind: &CampaignKind,
    shards: usize,
    shard_dir: &Path,
) -> Result<(CampaignStats, wsn_telemetry::Snapshot), String> {
    let mut merged: Vec<TrialStat> = Vec::new();
    let mut metrics = wsn_telemetry::Snapshot::default();
    let mut map_digest = None;
    for shard_id in 0..shards {
        let path = shard_file(shard_dir, shard_id, shards);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("shard {shard_id}: cannot read {}: {e}", path.display()))?;
        let shard = parse_shard_json(&text).map_err(|e| {
            format!(
                "shard {shard_id}: corrupt shard file {}: {e}",
                path.display()
            )
        })?;
        if shard.config != *cfg {
            return Err(format!(
                "shard {shard_id}: {} ran a different config than the coordinator",
                path.display()
            ));
        }
        if shard.shard != shard_id || shard.shards != shards {
            return Err(format!(
                "shard {shard_id}: {} claims shard {}/{} — wrong file in the shard dir",
                path.display(),
                shard.shard,
                shard.shards
            ));
        }
        match map_digest {
            None => map_digest = Some(shard.map_digest),
            Some(d) => {
                if d != shard.map_digest {
                    return Err(format!(
                        "shard {shard_id}: face-map digest disagrees with shard 0 — \
                         non-deterministic map build"
                    ));
                }
            }
        }
        merged.extend(shard.stats);
        if let Err(e) = metrics.try_merge(&shard.metrics) {
            // Shard workers are spawned from this very binary, so bucket
            // ladders should always agree — a mismatch means a stale or
            // foreign shard file and the merge must not silently mangle
            // the histograms.
            return Err(format!(
                "shard {shard_id}: {} has incompatible metrics: {e}",
                path.display()
            ));
        }
    }
    merged.sort_by_key(|s| (s.cell, s.trial));
    let cells = fttt_bench::robustness::campaign_cells(kind);
    println!("merged {} trials from {shards} shard files", merged.len());
    Ok((
        CampaignStats {
            cells,
            stats: merged,
            map_digest: map_digest.ok_or("no shards to merge")?,
        },
        metrics,
    ))
}

/// Coordinator mode: spawn one worker per shard (unless `--merge-only`),
/// re-parse their files, merge, and check the merge reproduces the
/// single-process checksum derivation (same cells, same map digest, full
/// trial set). Shard files the coordinator itself produced are cleaned up
/// when anything fails.
fn run_coordinator(
    cfg: &CampaignConfig,
    kind: &CampaignKind,
    shards: usize,
    shard_dir: &Path,
    cli: &Cli,
) -> Result<(CampaignStats, wsn_telemetry::Snapshot), String> {
    let spawned = !cli.merge_only;
    if spawned {
        if let Err(msg) = spawn_workers(cfg, shards, shard_dir, cli) {
            cleanup_shard_files(shard_dir, shards);
            return Err(msg);
        }
    }
    let result = merge_shard_files(cfg, kind, shards, shard_dir);
    if result.is_err() && spawned {
        cleanup_shard_files(shard_dir, shards);
    }
    result
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

fn print_table(rows: &[fttt_bench::robustness::CampaignRow], cfg: &CampaignConfig) {
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
    table.print();
}
