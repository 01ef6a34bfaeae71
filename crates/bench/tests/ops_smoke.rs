//! Tier-1 smoke for the live ops plane: a small traced load against an
//! in-process server must advance `/metrics` between scrapes, keep
//! `/healthz` green, stamp the same trace ids on both sides of the wire
//! (client journal events <-> server push spans), and keep serving plain
//! v1 (untraced) clients.

use fttt_bench::serve::{run_load, LoadConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use wsn_server::{Server, ServerConfig};
use wsn_telemetry::json::JsonValue;
use wsn_telemetry::trace::Journal;
use wsn_telemetry::validate_prometheus_text;

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// The value of an un-labelled Prometheus series in a scrape body.
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// `(session, rounds)` per trace id for one event name in a jsonl trace.
fn spans_of(jsonl: &str, name: &str) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    for line in jsonl.lines() {
        let Ok(e) = JsonValue::parse(line) else {
            continue;
        };
        if e.get("name").and_then(JsonValue::as_str) != Some(name) {
            continue;
        }
        let Some(args) = e.get("args") else { continue };
        let u = |key: &str| args.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        if let Some(trace) = args.get("trace").and_then(JsonValue::as_str) {
            out.insert(trace.to_owned(), (u("session"), u("rounds")));
        }
    }
    out
}

#[test]
fn ops_plane_tracks_a_live_traced_load() {
    let journal = Arc::new(Journal::with_capacity(4096));
    wsn_telemetry::install_journal(Arc::clone(&journal));

    let config = ServerConfig::fast();
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let ops = server.serve_ops("127.0.0.1:0").unwrap();
    let addr = ops.local_addr().to_string();
    let tracking = server.local_addr().to_string();

    // Pre-load scrape: valid exposition text, all shards healthy.
    let (status, before) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    validate_prometheus_text(&before).expect("pre-load scrape must parse");
    let rounds_before = prom_value(&before, "fttt_server_rounds ").unwrap_or(0.0);
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // A small traced (wire v2) load.
    let load = LoadConfig {
        sessions: 8,
        rounds: 2,
        conns: 2,
        window: 4,
        seed: 7,
        extended_every: 4,
        trace: true,
    };
    let report = run_load(&tracking, &config, &load).unwrap();
    assert_eq!(report.digest_checked, 8);
    assert_eq!(report.digest_mismatches, 0);
    assert_eq!(report.result_mismatches, 0);
    assert_eq!(report.rounds_total, 16);

    // Counters advanced between scrapes and health stayed green.
    let (status, after) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    validate_prometheus_text(&after).expect("post-load scrape must parse");
    let rounds_after = prom_value(&after, "fttt_server_rounds ").unwrap();
    assert!(
        rounds_after >= rounds_before + 16.0,
        "rounds counter must advance: {rounds_before} -> {rounds_after}"
    );
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");

    // Cross-wire correlation: every acked client push shares its trace id
    // (and session + round count) with a server-side span.
    let jsonl = journal.snapshot().to_jsonl();
    let client = spans_of(&jsonl, "fttt.client.push");
    let server_spans = spans_of(&jsonl, "fttt.server.push");
    assert_eq!(client.len(), 16, "one client event per acked push");
    for (trace, meta) in &client {
        assert_eq!(
            server_spans.get(trace),
            Some(meta),
            "client push {trace} has no matching server span"
        );
    }

    // A plain v1 client (untraced frames) is still served by the same
    // server, bit-identically.
    let v1 = LoadConfig {
        trace: false,
        seed: 8,
        ..load
    };
    let report = run_load(&tracking, &config, &v1).unwrap();
    assert_eq!(report.digest_checked, 8);
    assert_eq!(report.digest_mismatches, 0);
    assert_eq!(report.result_mismatches, 0);
}
