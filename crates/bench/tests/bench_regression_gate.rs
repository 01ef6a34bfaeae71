//! Gate smoke test against the *committed* baseline artifact: the baseline
//! must pass the gate against itself (so `perf_snapshot --check` on an
//! unchanged tree can pass), and a doctored fresh run must be caught with
//! the regressing metric named. `perf_snapshot --fast --check` is refused
//! as a usage error.

use fttt_bench::gate::check_core;
use wsn_telemetry::json::JsonValue;

fn baseline() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/core.json");
    let text = std::fs::read_to_string(path).expect("committed baseline missing");
    JsonValue::parse(&text).expect("committed baseline is not valid JSON")
}

#[test]
fn committed_baseline_passes_against_itself() {
    let doc = baseline();
    assert_eq!(check_core(&doc, &doc).unwrap(), Vec::<String>::new());
}

#[test]
fn committed_baseline_has_every_gated_metric() {
    // A baseline missing a gated metric would silently weaken the gate;
    // check_core reports such holes as violations, so self-check covers it
    // — but assert the row *shape* so an empty or truncated artifact
    // can't pass: the full n = 10/20/40 sweep, the match-only
    // N = 100/200 scale rows, then the trailing n = 40 live-churn repair
    // row, and (presence-driven gating) every row must actually carry
    // the metrics it is supposed to pin — the extended climb, the
    // indexed match and the round's Algorithm-1 and session-step timings.
    let doc = baseline();
    let rows = doc.get("results").and_then(JsonValue::as_array).unwrap();
    let ns: Vec<u64> = rows
        .iter()
        .filter_map(|r| r.get("n").and_then(JsonValue::as_u64))
        .collect();
    assert_eq!(
        ns,
        vec![10, 20, 40, 100, 200, 40],
        "baseline sweep rows changed"
    );
    for row in rows {
        let n = row.get("n").and_then(JsonValue::as_u64).unwrap();
        if let Some(repair) = row.get("map_repair_us") {
            // The repair row carries both medians, and the committed
            // incremental one honors the PR's acceptance criterion:
            // median single-node repair at n = 40 is sub-millisecond.
            let med = |key| repair.get(key).and_then(JsonValue::as_f64);
            let incremental = med("incremental_median").expect("incremental_median");
            assert!(med("rebuild_median").is_some(), "rebuild_median missing");
            assert!(
                incremental > 0.0 && incremental < 1000.0,
                "committed incremental repair median not sub-ms: {incremental} µs"
            );
            continue;
        }
        for (group, metric) in [
            ("match_us", "heuristic_extended"),
            ("match_us", "indexed"),
            ("match_us", "indexed_p99"),
            ("round_us", "alg1_basic"),
            ("round_us", "alg1_extended"),
            ("round_us", "session_step"),
        ] {
            assert!(
                row.get(group)
                    .and_then(|m| m.get(metric))
                    .and_then(JsonValue::as_f64)
                    .is_some(),
                "n={n}: baseline row lacks {group}.{metric}"
            );
        }
        // Scale rows are match-only: they must not accidentally start
        // gating build timings nobody measured at that size.
        assert_eq!(row.get("build_ms").is_some(), n <= 40, "n={n}");
    }
    assert_eq!(
        rows.iter()
            .filter(|r| r.get("map_repair_us").is_some())
            .count(),
        1,
        "exactly one repair row"
    );
}

#[test]
fn doctored_fresh_run_fails_with_the_metric_named() {
    let base = baseline();
    let mut fresh = baseline();
    for row in fresh
        .get_mut("results")
        .unwrap()
        .as_array_mut()
        .unwrap()
        .iter_mut()
    {
        // The trailing repair row has no match_us block; its own
        // doctored-run coverage lives in the gate unit tests.
        let Some(m) = row.get_mut("match_us") else {
            continue;
        };
        if let JsonValue::Obj(map) = m {
            if let Some(JsonValue::Num(v)) = map.get_mut("packed_exhaustive") {
                // Past any tolerance regardless of the baseline's scale.
                *v = *v * 10.0 + 1000.0;
            }
        }
    }
    let violations = check_core(&fresh, &base).unwrap();
    assert!(!violations.is_empty(), "doctored run passed the gate");
    assert!(
        violations
            .iter()
            .all(|v| v.contains("match_us.packed_exhaustive") && v.contains("regressed")),
        "{violations:?}"
    );
}

/// `--fast --check` is refused before anything is timed: the baseline
/// holds full-run numbers, and two timed rounds cannot be held to them.
#[test]
fn fast_check_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perf_snapshot"))
        .args(["--fast", "--check"])
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/core.json"))
        .output()
        .expect("spawn perf_snapshot");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--fast"), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
    // Nothing was timed: the table goes to stdout, and it is empty.
    assert!(out.stdout.is_empty(), "{:?}", out.stdout);
}
