//! Tier-1 checks of the `serve_load` binary against an in-process server:
//! a traced run writes one client event per push, `--shutdown` stops the
//! server cleanly, and a client whose map disagrees with the server's
//! fails loudly. Every wait is bounded, so a hang fails the test instead
//! of stalling the suite.

use std::process::{Command, Output, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use wsn_server::{Server, ServerConfig};
use wsn_telemetry::json::JsonValue;

/// Longest any single `serve_load` run may take before the test fails.
const DEADLINE: Duration = Duration::from_secs(120);

/// Runs `serve_load` with `args` and returns its output, killing it and
/// failing the test if it outlives [`DEADLINE`].
fn serve_load(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_load"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve_load");
    let start = Instant::now();
    while child.try_wait().expect("poll serve_load").is_none() {
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            panic!("serve_load {args:?} still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect serve_load output")
}

#[test]
fn traced_run_writes_one_client_event_per_push() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let addr = server.local_addr().to_string();
    let trace = std::env::temp_dir().join(format!(
        "serve_load_cli_{}_client.trace.jsonl",
        std::process::id()
    ));
    let out = serve_load(&[
        "--connect",
        &addr,
        "--fast",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("200 digests checked (0 mismatched, 0 result mismatches"),
        "{stdout}"
    );
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    // 200 sessions × 3 rounds, one acked push per round.
    let pushes = jsonl
        .lines()
        .filter_map(|l| JsonValue::parse(l).ok())
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("fttt.client.push"))
        .count();
    assert_eq!(pushes, 600);
}

#[test]
fn shutdown_flag_stops_the_server() {
    let server = Arc::new(Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap());
    let addr = server.local_addr().to_string();
    let (tx, rx) = mpsc::channel();
    let waiter = Arc::clone(&server);
    std::thread::spawn(move || {
        waiter.wait_shutdown();
        let _ = tx.send(());
    });
    let out = serve_load(&["--shutdown", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    rx.recv_timeout(DEADLINE)
        .expect("Server::wait_shutdown did not return after --shutdown");
}

#[test]
fn fast_client_against_a_full_server_fails_with_malformed() {
    // `wsn-serve`'s defaults without `--fast`: a 10-node map, so the
    // client's 8-node readings have the wrong dimension.
    let config = ServerConfig::new(
        fttt::PaperParams::default()
            .with_nodes(10)
            .with_cell_size(2.0),
    );
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let out = serve_load(&["--connect", &server.local_addr().to_string(), "--fast"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a mismatched map must fail the run");
    assert!(stderr.contains("Malformed"), "{stderr}");
}
