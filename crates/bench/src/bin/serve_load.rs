//! `serve_load`: the tracking-server load generator and serve-bench gate.
//!
//! Drives 10⁴–10⁵ concurrent sessions against one `wsn-serve` process
//! (spawned as a sibling binary when available, otherwise hosted
//! in-process), verifies every session bit-for-bit against the in-process
//! shadow engine, and writes `BENCH_serve.json`.
//!
//! Usage:
//!
//! * `serve_load [--fast] [--sessions N] [--rounds N] [--conns N]` —
//!   run the load, print the summary, write the artifact.
//! * `serve_load --check crates/bench/baselines/serve.json [--fast]` —
//!   gate mode: compare the fresh run against the committed baseline and
//!   exit 1 on regression (correctness mismatches fail regardless).
//! * `serve_load --connect ADDR` — drive an externally started server;
//!   it must run the same `--nodes`/`--cell-size` map or the digest
//!   check will (correctly) fail.

use fttt_bench::serve::{render_serve_json, run_load, LoadConfig};
use std::io::BufRead;
use std::process::ExitCode;
use wsn_server::{Connection, Frame, Server, ServerConfig};
use wsn_telemetry::json::JsonValue;

const USAGE: &str = "serve_load — tracking-server load generator

USAGE:
    serve_load [OPTIONS]

OPTIONS:
    --sessions N      Concurrent sessions (default 10000)
    --rounds N        Rounds per session (default 5)
    --conns N         Client connections (default 8)
    --window N        In-flight pushes per connection (default 64)
    --seed N          Workload master seed (default 42)
    --shards N        Server worker shards (default 4)
    --queue-depth N   Server per-shard queue depth (default 256)
    --nodes N         Deployment size (default 10)
    --cell-size M     Face-map cell, metres (default 2.0)
    --fast            Smoke shape: 200 sessions x 3 rounds, 8-node map
    --out PATH        Artifact path (default BENCH_serve.json)
    --check BASELINE  Gate against a committed BENCH_serve.json
    --connect ADDR    Drive an already-running server instead of spawning
    --in-process      Host the server in this process (no child spawn)
    --trace-out PATH  Write the client trace journal (JSONL); pushes are
                      sent as traced v2 frames whose ids the server echoes
                      and journals, for fttt-sim explain --correlate
    --ops-check       Also stand up / scrape the HTTP ops plane: verify
                      /metrics parses and its counters advance across the
                      run, and /healthz reports every shard healthy
    --ops ADDR        Ops address to scrape (required with --connect
                      --ops-check; ignored otherwise)
    --shutdown ADDR   Send one clean Shutdown frame to a running server and
                      exit; the server flushes --trace-out/--metrics-out on
                      the way down (signals kill it without flushing)
    -h, --help        This help
";

struct Args {
    server: ServerConfig,
    load: LoadConfig,
    out: String,
    check: Option<String>,
    connect: Option<String>,
    in_process: bool,
    trace_out: Option<String>,
    ops_check: bool,
    ops: Option<String>,
    shutdown: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut server = ServerConfig::new(
        fttt::PaperParams::default()
            .with_nodes(10)
            .with_cell_size(2.0),
    );
    let mut load = LoadConfig::full();
    let mut out = "BENCH_serve.json".to_string();
    let mut check = None;
    let mut connect = None;
    let mut in_process = false;
    let mut trace_out = None;
    let mut ops_check = false;
    let mut ops = None;
    let mut shutdown = None;
    let mut fast = false;
    let mut nodes: Option<usize> = None;
    let mut cell: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let parse = |flag: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match arg.as_str() {
            "--sessions" => load.sessions = parse("--sessions", value("--sessions")?)?,
            "--rounds" => load.rounds = parse("--rounds", value("--rounds")?)?,
            "--conns" => load.conns = parse("--conns", value("--conns")?)?,
            "--window" => load.window = parse("--window", value("--window")?)?,
            "--seed" => {
                load.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--shards" => server.shards = parse("--shards", value("--shards")?)?,
            "--queue-depth" => {
                server.queue_depth = parse("--queue-depth", value("--queue-depth")?)?
            }
            "--nodes" => nodes = Some(parse("--nodes", value("--nodes")?)?),
            "--cell-size" => {
                cell = Some(
                    value("--cell-size")?
                        .parse()
                        .map_err(|e| format!("--cell-size: {e}"))?,
                )
            }
            "--fast" => fast = true,
            "--out" => out = value("--out")?,
            "--check" => check = Some(value("--check")?),
            "--connect" => connect = Some(value("--connect")?),
            "--in-process" => in_process = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--ops-check" => ops_check = true,
            "--ops" => ops = Some(value("--ops")?),
            "--shutdown" => shutdown = Some(value("--shutdown")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if fast {
        server.params = ServerConfig::fast().params;
        let seed = load.seed;
        load = LoadConfig {
            seed,
            ..LoadConfig::fast()
        };
    }
    if let Some(n) = nodes {
        server.params = server.params.with_nodes(n);
    }
    if let Some(c) = cell {
        server.params = server.params.with_cell_size(c);
    }
    if server.shards == 0 || load.conns == 0 {
        return Err("--shards and --conns must be at least 1".into());
    }
    if ops_check && connect.is_some() && ops.is_none() {
        return Err("--ops-check with --connect needs --ops ADDR to scrape".into());
    }
    load.trace = trace_out.is_some();
    Ok(Args {
        server,
        load,
        out,
        check,
        connect,
        in_process,
        trace_out,
        ops_check,
        ops,
        shutdown,
    })
}

/// Where the server under test lives for the duration of the run.
enum Target {
    /// A spawned sibling `wsn-serve` child (shut down via the wire).
    Child(std::process::Child),
    /// A server hosted in this process.
    InProcess(Server),
    /// Someone else's server; left running.
    External,
}

/// Spawns the sibling `wsn-serve` binary and parses its `LISTENING` line
/// (plus the `OPS LISTENING` line when `ops` asks for the ops plane).
fn spawn_sibling(
    server: &ServerConfig,
    ops: bool,
) -> Result<(String, Option<String>, std::process::Child), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = exe
        .parent()
        .ok_or("own executable has no parent directory")?
        .join("wsn-serve");
    if !sibling.exists() {
        return Err(format!("{} not built", sibling.display()));
    }
    let mut cmd = std::process::Command::new(&sibling);
    cmd.args(["--listen", "127.0.0.1:0"])
        .args(["--shards", &server.shards.to_string()])
        .args(["--queue-depth", &server.queue_depth.to_string()])
        .args(["--nodes", &server.params.nodes.to_string()])
        .args(["--cell-size", &server.params.cell_size.to_string()])
        .stdout(std::process::Stdio::piped());
    if ops {
        cmd.args(["--ops-listen", "127.0.0.1:0"]);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", sibling.display()))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read child banner: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .ok_or_else(|| format!("unexpected child banner {line:?}"))?
        .to_string();
    let ops_addr = if ops {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read child ops banner: {e}"))?;
        Some(
            line.trim()
                .strip_prefix("OPS LISTENING ")
                .ok_or_else(|| format!("unexpected child ops banner {line:?}"))?
                .to_string(),
        )
    } else {
        None
    };
    Ok((addr, ops_addr, child))
}

/// One minimal HTTP/1.1 GET against the ops plane; returns (status, body).
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: wsn-ops\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send GET {path}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read GET {path} reply: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed reply to GET {path}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The first sample value of `series` in Prometheus exposition text.
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(series)?;
        rest.strip_prefix(' ')?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// Scrapes `/metrics` (must be valid exposition text) and `/healthz`
/// (must be 200 = every shard healthy); returns the served-rounds counter.
fn ops_scrape(addr: &str) -> Result<f64, String> {
    let (code, metrics) = http_get(addr, "/metrics")?;
    if code != 200 {
        return Err(format!("/metrics returned {code}"));
    }
    if let Err((line, why)) = wsn_telemetry::validate_prometheus_text(&metrics) {
        return Err(format!("/metrics line {line} is invalid: {why}"));
    }
    let rounds = prom_value(&metrics, "fttt_server_rounds").unwrap_or(0.0);
    let (code, health) = http_get(addr, "/healthz")?;
    if code != 200 {
        return Err(format!("/healthz returned {code}: {}", health.trim()));
    }
    Ok(rounds)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("serve_load: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Stop-a-server mode: one Shutdown frame over the wire is the only
    // way a `wsn-serve` flushes its journal/metrics (it has no signal
    // handler), so ship it and exit without running any load.
    if let Some(addr) = &args.shutdown {
        return match Connection::connect(addr.as_str())
            .and_then(|mut conn| conn.send(&Frame::Shutdown))
        {
            Ok(()) => {
                println!("sent shutdown to {addr}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve_load: --shutdown {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // A bad artifact path or unreadable baseline must fail before the
    // load runs, not after.
    if args.check.is_none() {
        if let Err(msg) = wsn_telemetry::ensure_writable_file(std::path::Path::new(&args.out)) {
            eprintln!("serve_load: --out: {msg}");
            return ExitCode::FAILURE;
        }
    }
    let baseline = match &args.check {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match JsonValue::parse(&text) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    eprintln!("serve_load: parse baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("serve_load: read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Traced pushes feed a client-side journal that `fttt-sim explain
    // --correlate` joins against the server's.
    let journal = args.trace_out.as_ref().map(|path| {
        if let Err(msg) = wsn_telemetry::ensure_writable_file(std::path::Path::new(path)) {
            eprintln!("serve_load: --trace-out: {msg}");
            std::process::exit(1);
        }
        let journal = std::sync::Arc::new(wsn_telemetry::Journal::new());
        wsn_telemetry::install_journal(std::sync::Arc::clone(&journal));
        journal
    });

    let mut ops_handle: Option<wsn_server::OpsHandle> = None;
    let in_process_bind = |ops_handle: &mut Option<wsn_server::OpsHandle>| {
        let server = Server::bind("127.0.0.1:0", args.server.clone())
            .map_err(|e| format!("bind in-process server: {e}"))?;
        let ops_addr = if args.ops_check {
            let handle = server
                .serve_ops("127.0.0.1:0")
                .map_err(|e| format!("{e}"))?;
            let addr = handle.local_addr().to_string();
            *ops_handle = Some(handle);
            Some(addr)
        } else {
            None
        };
        Ok::<_, String>((server.local_addr().to_string(), ops_addr, server))
    };
    let (addr, ops_addr, mut target) = if let Some(addr) = args.connect.clone() {
        (addr, args.ops.clone(), Target::External)
    } else if args.in_process {
        match in_process_bind(&mut ops_handle) {
            Ok((addr, ops_addr, s)) => (addr, ops_addr, Target::InProcess(s)),
            Err(e) => {
                eprintln!("serve_load: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match spawn_sibling(&args.server, args.ops_check) {
            Ok((addr, ops_addr, child)) => (addr, ops_addr, Target::Child(child)),
            Err(msg) => {
                eprintln!("serve_load: no wsn-serve sibling ({msg}); hosting in-process");
                match in_process_bind(&mut ops_handle) {
                    Ok((addr, ops_addr, s)) => (addr, ops_addr, Target::InProcess(s)),
                    Err(e) => {
                        eprintln!("serve_load: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    };

    let rounds_before = if args.ops_check {
        let ops = ops_addr.as_deref().expect("ops address resolved above");
        match ops_scrape(ops) {
            Ok(rounds) => {
                println!("ops plane at {ops}: healthy before load");
                Some(rounds)
            }
            Err(msg) => {
                eprintln!("serve_load: ops check (before load): {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    println!(
        "driving {} sessions x {} rounds over {} conns at {addr}",
        args.load.sessions, args.load.rounds, args.load.conns
    );
    let result = run_load(&addr, &args.server, &args.load);

    // Scrape again while the server is still up: the counters must have
    // advanced by the run just driven and every shard must still be live.
    let mut ops_failure: Option<String> = None;
    if let Some(before) = rounds_before {
        let ops = ops_addr.as_deref().expect("ops address resolved above");
        match ops_scrape(ops) {
            Ok(after) if after > before => {
                println!(
                    "ops plane at {ops}: healthy after load, \
                     fttt_server_rounds {before} -> {after}"
                );
            }
            Ok(after) => {
                ops_failure = Some(format!(
                    "fttt_server_rounds did not advance across the run \
                     ({before} -> {after})"
                ));
            }
            Err(msg) => ops_failure = Some(format!("after load: {msg}")),
        }
    }
    ops_handle.take();

    // Tear the server down before judging the result so a failed run
    // doesn't leak a child process.
    match &mut target {
        Target::Child(child) => {
            let shutdown =
                Connection::connect(addr.as_str()).and_then(|mut c| c.send(&Frame::Shutdown));
            if shutdown.is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        Target::InProcess(server) => server.shutdown(),
        Target::External => {}
    }

    if let Some(path) = &args.trace_out {
        wsn_telemetry::uninstall_journal();
        let log = journal
            .expect("journal installed with --trace-out")
            .snapshot();
        if let Err(msg) =
            wsn_telemetry::write_file_atomic(std::path::Path::new(path), log.to_jsonl().as_bytes())
        {
            eprintln!("serve_load: {msg}");
            return ExitCode::FAILURE;
        }
        println!("wrote client trace {path}");
    }
    if let Some(msg) = ops_failure {
        eprintln!("serve_load: ops check failed: {msg}");
        return ExitCode::FAILURE;
    }

    let report = match result {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("serve_load: load run failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "opens {:.0}/s, rounds {:.0}/s, round p50 {:.0} us, p99 {:.0} us, \
         {} digests checked ({} mismatched, {} result mismatches, {} sheds retried)",
        report.open_per_sec,
        report.rounds_per_sec,
        report.round_p50_us,
        report.round_p99_us,
        report.digest_checked,
        report.digest_mismatches,
        report.result_mismatches,
        report.shed_retries
    );

    let json = render_serve_json(&args.server, &args.load, &report);
    if let Some(base) = baseline {
        let fresh = JsonValue::parse(&json).expect("own artifact parses");
        match fttt_bench::gate::check_serve(&fresh, &base) {
            Ok(violations) if violations.is_empty() => {
                println!(
                    "serve gate: PASS against {}",
                    args.check.as_deref().unwrap()
                );
                ExitCode::SUCCESS
            }
            Ok(violations) => {
                eprintln!("serve gate: {} violation(s):", violations.len());
                for v in &violations {
                    eprintln!("  - {v}");
                }
                ExitCode::FAILURE
            }
            Err(msg) => {
                eprintln!("serve gate: {msg}");
                ExitCode::FAILURE
            }
        }
    } else {
        if report.digest_mismatches > 0 || report.result_mismatches > 0 {
            eprintln!(
                "serve_load: CORRECTNESS FAILURE — server results diverged from the \
                 in-process engine"
            );
            return ExitCode::FAILURE;
        }
        if let Err(e) =
            wsn_telemetry::write_file_atomic(std::path::Path::new(&args.out), json.as_bytes())
        {
            eprintln!("serve_load: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {}", args.out);
        ExitCode::SUCCESS
    }
}
