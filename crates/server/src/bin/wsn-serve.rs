//! `wsn-serve`: the tracking-as-a-service daemon.
//!
//! Binds a TCP address, prints `LISTENING <addr>` on stdout (the contract
//! the benchmark package, `crates/bench/src/bin/benchmark`, parses when it
//! spawns this binary), then serves sessions until a client sends a
//! `Shutdown` frame (`serve_load --shutdown ADDR` sends one). With
//! `--ops-listen` it also binds the live ops plane (`/metrics`,
//! `/healthz`, `/sessions/<id>`) and prints `OPS LISTENING <addr>` as a
//! second banner line. At exit it writes the merged `fttt.server.*`
//! metrics / trace journal if asked.
//!
//! Crash-consistency contract for `--metrics-out`: with
//! `--metrics-interval` the file is rewritten atomically (tmp + rename)
//! every interval and once more at clean shutdown, so a reader — or a
//! post-crash operator — always sees a complete snapshot no older than
//! one interval. A crash can leave a stale `<path>.tmp` beside the intact
//! artifact; it is safe to delete.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use wsn_server::{Server, ServerConfig};

const USAGE: &str = "wsn-serve — tracking-as-a-service daemon

USAGE:
    wsn-serve [OPTIONS]

OPTIONS:
    --listen ADDR          Bind address (default 127.0.0.1:0 = free port)
    --ops-listen ADDR      Also bind the HTTP ops plane (/metrics, /healthz,
                           /sessions/<id>) on this address
    --shards N             Session-registry worker threads (default 4)
    --queue-depth N        Bounded ingest queue depth per shard (default 256)
    --max-sessions N       Concurrent session cap (default 200000)
    --nodes N              Deployment size of the shared map (default 10)
    --cell-size M          Face-map raster cell, metres (default 2.0)
    --fast                 Small-map preset (8 nodes), for smoke runs
    --metrics-out PATH     Write merged metrics at exit
    --metrics-format F     json (default) or prom
    --metrics-interval S   Also rewrite --metrics-out atomically every S
                           seconds (requires --metrics-out)
    --trace-out PATH       Write the trace journal (JSONL) at exit
    --flight-dir DIR       Enable the anomaly flight recorder: dump journal
                           + metrics into DIR on stalls / shed bursts
    --watchdog-stall S     Declare a shard stalled after S seconds busy on
                           one job (default 5)
    --ingest-stall MS      Fault injection: stall every worker job MS
                           milliseconds (testing only)
    -h, --help             This help
";

struct Args {
    listen: String,
    ops_listen: Option<String>,
    config: ServerConfig,
    metrics_out: Option<String>,
    metrics_prom: bool,
    metrics_interval: Option<Duration>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut ops_listen = None;
    let mut config = ServerConfig::new(
        fttt::PaperParams::default()
            .with_nodes(10)
            .with_cell_size(2.0),
    );
    let mut nodes: Option<usize> = None;
    let mut cell: Option<f64> = None;
    let mut fast = false;
    let mut metrics_out = None;
    let mut metrics_prom = false;
    let mut metrics_interval = None;
    let mut trace_out = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--listen" => listen = value("--listen")?,
            "--ops-listen" => ops_listen = Some(value("--ops-listen")?),
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--max-sessions" => {
                config.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?;
            }
            "--nodes" => {
                nodes = Some(
                    value("--nodes")?
                        .parse()
                        .map_err(|e| format!("--nodes: {e}"))?,
                )
            }
            "--cell-size" => {
                cell = Some(
                    value("--cell-size")?
                        .parse()
                        .map_err(|e| format!("--cell-size: {e}"))?,
                )
            }
            "--fast" => fast = true,
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--metrics-format" => {
                metrics_prom = match value("--metrics-format")?.as_str() {
                    "json" => false,
                    "prom" => true,
                    other => return Err(format!("unknown metrics format {other:?}")),
                }
            }
            "--metrics-interval" => {
                let secs: f64 = value("--metrics-interval")?
                    .parse()
                    .map_err(|e| format!("--metrics-interval: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--metrics-interval must be a positive number of seconds".into());
                }
                metrics_interval = Some(Duration::from_secs_f64(secs));
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--flight-dir" => {
                config.flight_dir = Some(value("--flight-dir")?.into());
            }
            "--watchdog-stall" => {
                let secs: f64 = value("--watchdog-stall")?
                    .parse()
                    .map_err(|e| format!("--watchdog-stall: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--watchdog-stall must be a positive number of seconds".into());
                }
                config.watchdog_stall = Duration::from_secs_f64(secs);
            }
            "--ingest-stall" => {
                let ms: u64 = value("--ingest-stall")?
                    .parse()
                    .map_err(|e| format!("--ingest-stall: {e}"))?;
                config.ingest_stall = Some(Duration::from_millis(ms));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if fast {
        config.params = ServerConfig::fast().params;
    }
    if let Some(n) = nodes {
        config.params = config.params.with_nodes(n);
    }
    if let Some(c) = cell {
        config.params = config.params.with_cell_size(c);
    }
    if config.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if metrics_interval.is_some() && metrics_out.is_none() {
        return Err("--metrics-interval requires --metrics-out".into());
    }
    Ok(Args {
        listen,
        ops_listen,
        config,
        metrics_out,
        metrics_prom,
        metrics_interval,
        trace_out,
    })
}

fn render_metrics(snapshot: &wsn_telemetry::Snapshot, prom: bool) -> String {
    if prom {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("wsn-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    // A typo'd output path must fail now, not after hours of serving.
    for (flag, path) in [
        ("--metrics-out", &args.metrics_out),
        ("--trace-out", &args.trace_out),
    ] {
        if let Some(p) = path {
            if let Err(msg) = wsn_telemetry::ensure_writable_file(std::path::Path::new(p)) {
                eprintln!("wsn-serve: {flag}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The journal feeds --trace-out at exit and the flight recorder live,
    // so either flag installs it.
    let journal = (args.trace_out.is_some() || args.config.flight_dir.is_some()).then(|| {
        let journal = std::sync::Arc::new(wsn_telemetry::Journal::new());
        wsn_telemetry::install_journal(std::sync::Arc::clone(&journal));
        journal
    });

    let mut server = match Server::bind(&args.listen, args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wsn-serve: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    // The spawn contract: exactly one LISTENING line (plus one OPS
    // LISTENING line when the ops plane is up), immediately flushed.
    println!("LISTENING {}", server.local_addr());
    let _ops = match &args.ops_listen {
        Some(addr) => match server.serve_ops(addr) {
            Ok(handle) => {
                println!("OPS LISTENING {}", handle.local_addr());
                Some(handle)
            }
            Err(e) => {
                eprintln!("wsn-serve: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Periodic flusher + shutdown wait share the server by scoped borrow;
    // the flusher polls its stop flag at 50 ms so shutdown is prompt even
    // with long intervals.
    let stop_flusher = AtomicBool::new(false);
    let snapshot = std::thread::scope(|scope| {
        if let (Some(interval), Some(path)) = (args.metrics_interval, &args.metrics_out) {
            let server = &server;
            let stop = &stop_flusher;
            let prom = args.metrics_prom;
            scope.spawn(move || {
                let tick = Duration::from_millis(50);
                let mut since_flush = Duration::ZERO;
                loop {
                    std::thread::sleep(tick);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    since_flush += tick;
                    if since_flush < interval {
                        continue;
                    }
                    since_flush = Duration::ZERO;
                    let payload = render_metrics(&server.metrics_snapshot(), prom);
                    if let Err(msg) = wsn_telemetry::write_file_atomic(
                        std::path::Path::new(path),
                        payload.as_bytes(),
                    ) {
                        eprintln!("wsn-serve: periodic metrics flush: {msg}");
                    }
                }
            });
        }
        server.wait_shutdown();
        let snapshot = server.metrics_snapshot();
        stop_flusher.store(true, Ordering::Relaxed);
        snapshot
    });
    server.shutdown();

    if let Some(path) = &args.metrics_out {
        let payload = render_metrics(&snapshot, args.metrics_prom);
        if let Err(msg) =
            wsn_telemetry::write_file_atomic(std::path::Path::new(path), payload.as_bytes())
        {
            eprintln!("wsn-serve: {msg}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        wsn_telemetry::uninstall_journal();
        let log = journal
            .expect("journal installed with --trace-out")
            .snapshot();
        if let Err(msg) =
            wsn_telemetry::write_file_atomic(std::path::Path::new(path), log.to_jsonl().as_bytes())
        {
            eprintln!("wsn-serve: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
