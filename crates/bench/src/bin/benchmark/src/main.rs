//! `benchmark`: one command that measures the tracking service and the
//! fault campaign end to end and layer by layer, and checks every output.
//!
//! # Workloads
//!
//! Inputs come from `--seed` alone; the program under test receives only
//! the generated readings.
//!
//! * `serve-n10` — `wsn-serve` (spawned as a child with `--shards 2
//!   --ops-listen 127.0.0.1:0`) over a 10-node grid with 2 m cells, 10⁴
//!   sessions (one in four extended) on one connection. A paced open loop
//!   at the paper's localization period `k/λ = 0.5 s` (20 000 rounds/s),
//!   then a closed-loop saturation phase (window 160, at most one push in
//!   flight per session). The engine step is a few µs of a reply of
//!   ~100 µs, so the wire, the server's threads and queues and the socket
//!   dominate: an engine gain should show **no change** here.
//! * `serve-n100` — 100 nodes, 1 m cells (10⁴ faces, a map of ~127 MB,
//!   far larger than the last-level cache), 500 sessions, paced at
//!   1 000 rounds/s. Algorithm 1 and matching dominate the step: engine
//!   gains show here and wire gains should not. `wsn-serve` does not set
//!   `TCP_NODELAY` on accepted sockets, so Nagle holds each reply until
//!   the next request's ACK; until that changes, this workload's paced
//!   latency stays pinned near its 1 ms inter-arrival gap and engine
//!   gains show only in `rounds_per_s`.
//! * `campaign` — the built-in fault campaign (node-failure sweep, burst,
//!   blackout, energy, stuck, drift and churn cells) at 10 nodes, 40 s
//!   traces, through the product's runner `run_campaign_stats`. No
//!   sockets; the network and mobility simulation does most of the work.
//! * `campaign-churn` — the churn family at 40 nodes: map repair writes
//!   (kill/revive) run beside matching reads on the same planes.
//!
//! Load comes from this one process: at most two threads (a paced sender
//! and a reply reader) and one data connection.
//!
//! # Metrics
//!
//! An untraced run prints the end-to-end metrics: `setup_s` (spawn to the
//! `LISTENING` line, median of 21 starts on `serve-n10` and 7 on
//! `serve-n100`; for campaigns the face-map build, median of 100 spread
//! over the run), `rounds_per_s` (rounds answered over the whole
//! saturation phase; for campaigns, rounds stepped over the whole
//! campaign), `latency_p50_us` (paced pushes timed from their *scheduled*
//! send time, the median over the paced rounds of each round's median; for
//! campaigns the median wall time of the 10 shard slices the campaign runs
//! as), `peak_rss_mb` (`VmHWM` of the server child or of this process) and
//! `mean_error_m`. Diagnostics print beside them: the latency tail (p90,
//! p99 and p99.9) with the sample count, the share of paced rounds answered
//! correctly within 5 ms, how late the paced sender ran, and
//! `failed_frac`, the failed share of opens, pushes and closes (campaigns:
//! of trials).
//!
//! The reference host is a 2-vCPU share of a busy machine whose speed
//! drifts by a third over tens of seconds. Rates are therefore averages
//! over whole phases, the longest span a run has. The paced p90 on
//! `serve-n10` follows the host's wake-up delays: between runs of the same
//! code its quartiles spread by a third of its median, wider than any
//! bound `BENCHMARK.json` may set, so the tail is printed but not bounded.
//!
//! `mean_error_m` guards accuracy against performance shortcuts. The
//! shadow check compares the server with the engine of the same commit, so
//! a shortcut that changes the answers in both passes it; only the error
//! against the ground truth shows the loss. The error of the seed's own
//! inputs moves between seeds by up to 10%, too much for a tight bound, so
//! every run scores instead the workload's engine on its accuracy set:
//! fixed inputs from [`report::ACCURACY_SEED`], whatever `--seed`, stepped
//! outside the measured phases. The value is then exact on every run, and
//! its 1% bound in `BENCHMARK.json` is a 1% accuracy guard.
//!
//! A traced run (`--trace 1`) prints the per-layer rows instead. They come
//! from spans `bench.<layer>.<call>` around this program's own calls into
//! each layer (see [`layers`]), recorded into a trace journal written as
//! JSONL next to the executable (`fttt-sim explain` reads it), plus the
//! `fttt_server_round_us` deltas scraped from `/metrics` and the existing
//! `fttt.match.index.*` counters. The runner is the layer that feeds
//! rounds to sessions: the server's shard worker on `serve-*`, the trial
//! loop on the campaigns. The rows add up: the per-op latency (a paced
//! push, or a campaign round) is `runner.round_us_mean +
//! runner.residual_us_mean`, the residual is the runner's stage rows (wire
//! codec; or network, regime, digest, trace, clone and repair) plus
//! `runner.unattributed_us`, and the step is the
//! sampling and matching rows plus `session.unattributed_us`. Which
//! end-to-end metric each row should move, and on which workload, is
//! recorded with the results in `results.json` beside this package.
//!
//! # Usage
//!
//! ```text
//! run.sh --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1]
//!        [--repeats N] [--out FILE]
//! benchmark compare BASELINE.json CANDIDATE.json
//! benchmark summarize RUNS.json... > results.json
//! ```
//!
//! `run.sh` builds `wsn-serve` and this benchmark into one target
//! directory, so the server is found next to the benchmark. Every
//! (workload, repeat) pair of `--workload all` or `--repeats N` runs in a
//! fresh process with seed `seed + repeat`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Exit codes:
//! 0 ok, 1 a correctness failure, 2 an environment error (such as a
//! missing `wsn-serve`; the benchmark never falls back to an in-process
//! server, which would measure a different program).
//!
//! `compare` applies the bounds of `BENCHMARK.json` at the repository
//! root, the only place they are kept: per end-to-end metric, the share of
//! the baseline's median by which the candidate's median may be worse, and
//! no rise at all in `failed_frac`.
//!
//! This benchmark supersedes `serve_load`, `BENCH_serve.json` and the
//! `check_serve` gate, which remain until they are retired.

mod campaign;
mod layers;
mod report;
mod serve;
mod stats;

use report::RunResult;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Workload names, in `--workload all` order.
const WORKLOADS: [&str; 4] = ["serve-n10", "serve-n100", "campaign", "campaign-churn"];

const USAGE: &str = "usage:
  benchmark [run] --workload <serve-n10|serve-n100|campaign|campaign-churn|all>
            [--seed N] [--seconds N] [--trace 0|1] [--repeats N] [--out FILE]
  benchmark compare BASELINE.json CANDIDATE.json
  benchmark summarize RUNS.json...";

/// The prefix of the line carrying a run's full record, which a parent
/// process running repeats reads back.
const RECORD_PREFIX: &str = "RESULT ";

const ENV_ERROR: u8 = 2;

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeats: u64,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20,
        traced: false,
        repeats: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workloads = if name == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![*WORKLOADS
                        .iter()
                        .find(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => run.seed = number(value()?)?,
            "--seconds" => run.seconds = number(value()?)?,
            "--repeats" => run.repeats = number(value()?)?,
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => run.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if run.seconds == 0 || run.repeats == 0 {
        return Err("--seconds and --repeats must be at least 1".into());
    }
    Ok(run)
}

/// Runs one workload in this process.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    journal: &Path,
) -> Result<RunResult, String> {
    match workload {
        "serve-n10" => serve::run(workload, &serve::Shape::n10(seconds), seed, traced, journal),
        "serve-n100" => serve::run(
            workload,
            &serve::Shape::n100(seconds),
            seed,
            traced,
            journal,
        ),
        "campaign" => campaign::run(
            workload,
            &campaign::Shape::builtin(seconds),
            seed,
            traced,
            journal,
        ),
        "campaign-churn" => campaign::run(
            workload,
            &campaign::Shape::churn(seconds),
            seed,
            traced,
            journal,
        ),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Where a traced run writes its journal: beside the executable, inside
/// the build directory.
fn journal_path(workload: &str, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("own executable has no directory")?
        .join(format!("journal-{workload}-{seed}.jsonl")))
}

/// One (workload, repeat) pair in a fresh process.
fn run_child(run: &RunArgs, workload: &str, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn a {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if output.status.code() == Some(ENV_ERROR.into()) {
        return Err(format!("{workload} seed {seed}: environment error"));
    }
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .ok_or_else(|| format!("{workload} seed {seed}: no result ({})", output.status))?;
    let doc = wsn_telemetry::json::JsonValue::parse(record)?;
    let result = RunResult::from_json(&doc)?;
    print!("{}", result.table());
    Ok(result)
}

/// One workload's repeats folded into one result: medians of the listed
/// metrics, summed counts.
fn aggregate(runs: &[RunResult]) -> RunResult {
    let listed = runs[0].listed();
    let values = listed
        .iter()
        .map(|m| {
            let v: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.values.get(m.name).copied())
                .collect();
            (m.name.to_string(), stats::median(&v))
        })
        .collect();
    RunResult {
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        values,
        ..runs[0].clone()
    }
}

fn run_cmd(args: &[String]) -> Result<u8, String> {
    let run = parse_run(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let single = run.workloads.len() == 1 && run.repeats == 1;
    let runs = if single {
        let workload = run.workloads[0];
        let journal = journal_path(workload, run.seed)?;
        let result = run_one(workload, run.seed, run.seconds, run.traced, &journal)?;
        print!("{}", result.table());
        println!("{RECORD_PREFIX}{}", result.to_json());
        vec![result]
    } else {
        let mut runs = Vec::new();
        for workload in &run.workloads {
            for repeat in 0..run.repeats {
                runs.push(run_child(&run, workload, run.seed + repeat)?);
            }
        }
        runs
    };
    if let Some(out) = &run.out {
        wsn_telemetry::write_file_atomic(out, report::render_runs(&runs).as_bytes())?;
    }
    // One line per workload, the last line last. A run whose outputs were
    // wrong exits 1 with whatever it measured; a correct run that failed
    // to measure a listed metric is a fault of the benchmark itself.
    let mut code = 0;
    for workload in &run.workloads {
        let of: Vec<RunResult> = runs
            .iter()
            .filter(|r| r.workload == *workload)
            .cloned()
            .collect();
        let line = aggregate(&of);
        let unmeasured = line.unmeasured();
        if line.correct && !unmeasured.is_empty() {
            return Err(format!(
                "{workload}: not measured: {}",
                unmeasured.join(", ")
            ));
        }
        println!("{}", line.json_line());
        code = code.max(u8::from(!line.correct));
    }
    Ok(code)
}

fn compare_cmd(args: &[String]) -> Result<u8, String> {
    let [baseline, candidate] = args else {
        return Err("compare takes a baseline and a candidate result file".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let (rows, pass) = report::compare(
        &report::parse_runs(&read(baseline)?)?,
        &report::parse_runs(&read(candidate)?)?,
        &report::parse_bounds(report::BENCHMARK_JSON)?,
    )?;
    for row in rows {
        println!("{row}");
    }
    Ok(u8::from(!pass))
}

/// CPU, kernel, parallelism, SIMD kernel and transparent-huge-page mode.
fn host() -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default();
    let thp = read("/sys/kernel/mm/transparent_hugepage/enabled");
    let thp = thp
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or(thp.trim().to_string(), |(mode, _)| mode.to_string());
    vec![
        ("cpu", cpu),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "simd_kernel",
            format!("{:?}", fttt::vector::active_kernel()),
        ),
        ("thp", thp),
    ]
}

fn summarize_cmd(args: &[String]) -> Result<u8, String> {
    if args.is_empty() {
        return Err("summarize takes one or more result files".into());
    }
    let mut runs = Vec::new();
    for path in args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        runs.extend(report::parse_runs(&text)?);
    }
    print!("{}", report::summarize(&runs, &host()));
    Ok(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("summarize") => summarize_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => run_cmd(&args),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(ENV_ERROR)
        }
    }
}
