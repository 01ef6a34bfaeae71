//! `serve_load`: a shadow-checked client for a running `wsn-serve`.
//!
//! * `serve_load --connect ADDR [--fast] [--trace-out PATH]` — drives the
//!   [`LoadConfig::fast`] shape (200 sessions × 3 rounds over 4
//!   connections) against the server at `ADDR`, checks every round and
//!   every close digest bit-for-bit against an in-process shadow engine,
//!   and exits 1 on any mismatch. `--fast` must match the server's own
//!   `--fast`, or the shadow map differs and the run fails. With
//!   `--trace-out` the pushes go out as traced v2 frames and the client
//!   journal is written for `fttt-sim explain CLIENT --correlate SERVER`.
//! * `serve_load --shutdown ADDR` — stops the server cleanly: `wsn-serve`
//!   has no signal handler, and only a `Shutdown` frame makes it write
//!   its `--trace-out`/`--metrics-out`.
//!
//! Throughput, latency and the 10⁴-session shadow check belong to the
//! benchmark: `crates/bench/src/bin/benchmark/run.sh --workload serve-n10`.

use fttt_bench::serve::{run_load, LoadConfig};
use std::path::Path;
use std::process::ExitCode;
use wsn_server::{ClientError, Connection, ServerConfig};

const USAGE: &str = "serve_load — shadow-checked client for a running wsn-serve

USAGE:
    serve_load --connect ADDR [--fast] [--trace-out PATH]
    serve_load --shutdown ADDR

OPTIONS:
    --connect ADDR    Drive 200 sessions x 3 rounds against the server at
                      ADDR and check every result against the in-process
                      engine; exits 1 on any mismatch
    --fast            The server runs --fast (8-node map); without it the
                      server must run its defaults (10 nodes, 2 m cells)
    --trace-out PATH  Send traced v2 pushes and write the client trace
                      journal (JSONL), for fttt-sim explain --correlate
    --shutdown ADDR   Send one Shutdown frame to the server at ADDR and
                      exit; the server writes its --trace-out/--metrics-out
                      on the way down
    -h, --help        This help
";

struct Args {
    connect: Option<String>,
    fast: bool,
    trace_out: Option<String>,
    shutdown: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        connect: None,
        fast: false,
        trace_out: None,
        shutdown: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--connect" => parsed.connect = Some(value("--connect")?),
            "--fast" => parsed.fast = true,
            "--trace-out" => parsed.trace_out = Some(value("--trace-out")?),
            "--shutdown" => parsed.shutdown = Some(value("--shutdown")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("serve_load: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = &args.shutdown {
        let stop = Connection::connect(addr.as_str())
            .map_err(ClientError::from)
            .and_then(|mut c| c.shutdown_server());
        return match stop {
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
    let Some(addr) = &args.connect else {
        eprintln!("serve_load: needs --connect ADDR or --shutdown ADDR (try --help)");
        return ExitCode::FAILURE;
    };
    // The shadow engine must build the server's own map.
    let server = if args.fast {
        ServerConfig::fast()
    } else {
        ServerConfig::new(
            fttt::PaperParams::default()
                .with_nodes(10)
                .with_cell_size(2.0),
        )
    };
    let trace_out = &args.trace_out;

    // A bad trace path must fail before the load runs, not after.
    if let Some(path) = trace_out {
        if let Err(msg) = wsn_telemetry::ensure_writable_file(Path::new(path)) {
            eprintln!("serve_load: --trace-out: {msg}");
            return ExitCode::FAILURE;
        }
        wsn_telemetry::install_journal(std::sync::Arc::new(wsn_telemetry::Journal::new()));
    }
    let load = LoadConfig {
        trace: trace_out.is_some(),
        ..LoadConfig::fast()
    };
    println!(
        "driving {} sessions x {} rounds over {} conns at {addr}",
        load.sessions, load.rounds, load.conns
    );
    let result = run_load(addr, &server, &load);

    if let Some(path) = trace_out {
        let log = wsn_telemetry::uninstall_journal()
            .expect("journal installed with --trace-out")
            .snapshot();
        if let Err(msg) =
            wsn_telemetry::write_file_atomic(Path::new(path), log.to_jsonl().as_bytes())
        {
            eprintln!("serve_load: {msg}");
            return ExitCode::FAILURE;
        }
        println!("wrote client trace {path}");
    }

    let report = match result {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("serve_load: load run failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} digests checked ({} mismatched, {} result mismatches, {} sheds retried)",
        report.digest_checked,
        report.digest_mismatches,
        report.result_mismatches,
        report.shed_retries
    );
    if report.digest_mismatches > 0 || report.result_mismatches > 0 {
        eprintln!(
            "serve_load: CORRECTNESS FAILURE — server results diverged from the \
             in-process engine"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
