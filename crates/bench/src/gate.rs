//! The bench-regression gate: diff a fresh `perf_snapshot` run against a
//! committed baseline with per-metric tolerances.
//!
//! The ROADMAP's north star is a system that keeps running "as fast as the
//! hardware allows" — but a number nobody checks is a number that drifts.
//! This module pins the trajectory: `perf_snapshot --check BASELINE.json`
//! re-times the kernels, compares each timing against the committed
//! baseline (`crates/bench/baselines/core.json`, generated by a full
//! `perf_snapshot` run on the machine that committed it) and exits nonzero
//! when any metric regresses beyond its tolerance.
//!
//! Tolerances are deliberately loose — interleaved min-of-rounds timing
//! still jitters (frequency scaling, shared CI boxes), and the gate's job
//! is to catch *structural* losses like giving back the packed-kernel
//! speedup, not 10% wobble. Each timing passes iff
//! `fresh ≤ baseline × ratio + slack`; structural fields (`faces`) must
//! match exactly since the workload is seeded and deterministic.

use wsn_telemetry::json::JsonValue;

/// Per-metric allowance: a fresh timing passes iff
/// `fresh ≤ baseline × ratio + slack`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Multiplicative headroom on the baseline value.
    pub ratio: f64,
    /// Absolute slack added on top, in the metric's own unit (ms or µs) —
    /// keeps tiny baselines from turning scheduler noise into failures.
    pub slack: f64,
}

/// The gated metrics of a `BENCH_core.json` row: `(group, metric,
/// tolerance)`, where `group` is the sub-object (`build_ms` / `match_us` /
/// `round_us` / `map_repair_us`).
///
/// The scalar-reference timings are *not* gated: they exist to normalize
/// the speedup story, and regressing a reference implementation is not a
/// product regression. The packed kernels are the product.
pub fn core_tolerances() -> Vec<(&'static str, &'static str, Tolerance)> {
    vec![
        (
            "build_ms",
            "packed_serial",
            Tolerance {
                ratio: 1.75,
                slack: 2.0,
            },
        ),
        (
            "build_ms",
            "packed_parallel",
            Tolerance {
                ratio: 2.0,
                slack: 2.0,
            },
        ),
        (
            "match_us",
            "packed_exhaustive",
            Tolerance {
                ratio: 1.75,
                slack: 25.0,
            },
        ),
        (
            "match_us",
            "heuristic_warm",
            Tolerance {
                ratio: 2.5,
                slack: 10.0,
            },
        ),
        (
            "match_us",
            "heuristic_extended",
            Tolerance {
                ratio: 2.5,
                slack: 10.0,
            },
        ),
        (
            "match_us",
            "indexed",
            Tolerance {
                ratio: 1.75,
                slack: 25.0,
            },
        ),
        (
            "match_us",
            "indexed_p99",
            Tolerance {
                ratio: 1.75,
                slack: 50.0,
            },
        ),
        // One localization round: Algorithm 1 into the packed query (basic
        // and extended) and a warm heuristic session step. The per-pair
        // `alg1_reference` normalizes the kernel's speedup and is not
        // gated. Eight full runs of the same code on a shared 2-vCPU host
        // spread up to 1.85× (max/min) on these rows, which write a
        // cache-sized output vector per call; the ratios sit just above
        // that spread.
        (
            "round_us",
            "alg1_basic",
            Tolerance {
                ratio: 2.0,
                slack: 5.0,
            },
        ),
        (
            "round_us",
            "alg1_extended",
            Tolerance {
                ratio: 2.0,
                slack: 5.0,
            },
        ),
        (
            "round_us",
            "session_step",
            Tolerance {
                ratio: 2.5,
                slack: 10.0,
            },
        ),
        // The live-churn repair path: a single-node death+revive must
        // stay interactive (sub-ms median at n=40, cell 4 m — the finest
        // n=40 grid with real sub-ms margin; repair cost is linear in
        // cell count). Only the incremental median is gated — the
        // rebuild-per-event median exists to normalize the speedup story,
        // and regressing a control is not a product regression.
        (
            "map_repair_us",
            "incremental_median",
            Tolerance {
                ratio: 3.0,
                slack: 300.0,
            },
        ),
    ]
}

/// One gated metric of a row, or `None` when the row lacks it: core
/// gating is presence-driven (the baseline row declares what it gates), so
/// absence is a case for the caller to judge, not an error.
fn metric_of(row: &JsonValue, group: &str, metric: &str) -> Option<f64> {
    row.get(group)
        .and_then(|g| g.get(metric))
        .and_then(JsonValue::as_f64)
}

/// Compares a fresh `BENCH_core.json` document against a baseline one.
///
/// Returns the list of human-readable violations (empty = gate passes).
/// `Err` means one of the documents is structurally not a perf-snapshot
/// artifact at all — the caller should treat that as a failure too, but
/// with a different message ("wrong file", not "regression").
///
/// Every baseline row must exist in the fresh run (matched by `n` plus
/// `cell_m` when the baseline row carries one — the repair row shares
/// `n = 40` with a build/match row and differs only in grid geometry),
/// carry the same deterministic `faces` count, and beat the allowance of
/// each [`core_tolerances`] metric *present in that baseline row* — the
/// baseline declares what a row gates, so match-only scale rows and older
/// baselines without newer metrics work unchanged. Extra fresh rows are
/// ignored: widening the sweep is not a regression.
pub fn check_core(fresh: &JsonValue, baseline: &JsonValue) -> Result<Vec<String>, String> {
    let base_rows = baseline.req_array("results", "baseline")?;
    let fresh_rows = fresh.req_array("results", "fresh run")?;
    if base_rows.is_empty() {
        return Err("baseline: empty \"results\" — nothing to gate against".into());
    }
    let cell_of = |row: &JsonValue| row.get("cell_m").and_then(JsonValue::as_f64);
    let mut violations = Vec::new();
    for base in base_rows {
        let Some(n) = base.get("n").and_then(JsonValue::as_u64) else {
            return Err("baseline: row without a numeric \"n\"".into());
        };
        // Rows without a `cell_m` (older baselines) key by `n` alone —
        // `None == None` keeps them matching.
        let cell = cell_of(base);
        let label = match cell {
            Some(c) => format!("n={n} cell={c}"),
            None => format!("n={n}"),
        };
        let Some(row) = fresh_rows
            .iter()
            .find(|r| r.get("n").and_then(JsonValue::as_u64) == Some(n) && cell_of(r) == cell)
        else {
            violations.push(format!("{label}: row missing from the fresh run"));
            continue;
        };
        let base_faces = base.get("faces").and_then(JsonValue::as_u64);
        let fresh_faces = row.get("faces").and_then(JsonValue::as_u64);
        if base_faces != fresh_faces {
            violations.push(format!(
                "{label}: face count changed — baseline {base_faces:?}, fresh {fresh_faces:?} \
                 (seeded build must be deterministic)"
            ));
        }
        for (group, metric, tol) in core_tolerances() {
            // Presence-driven: the baseline declares which metrics a row
            // gates. Scale rows time only what is meaningful at their
            // size (the N ≥ 100 match-throughput rows skip the build
            // timings and the scalar reference), so a metric absent from
            // the baseline row simply is not gated there. A metric the
            // baseline *has* but the fresh run dropped is still a
            // violation below.
            let Some(base_v) = metric_of(base, group, metric) else {
                continue;
            };
            let Some(fresh_v) = metric_of(row, group, metric) else {
                violations.push(format!("{label}: fresh run lacks {group}.{metric}"));
                continue;
            };
            let limit = base_v * tol.ratio + tol.slack;
            if !fresh_v.is_finite() || fresh_v < 0.0 {
                violations.push(format!(
                    "{label}: {group}.{metric} is not a sane timing ({fresh_v})"
                ));
            } else if fresh_v > limit {
                violations.push(format!(
                    "{label}: {group}.{metric} regressed — {fresh_v:.3} vs baseline \
                     {base_v:.3} (limit {limit:.3} = {base_v:.3}×{} + {})",
                    tol.ratio, tol.slack
                ));
            }
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(u64, u64, f64)]) -> JsonValue {
        // (n, faces, packed_exhaustive_us); other metrics fixed.
        let rows_json: Vec<String> = rows
            .iter()
            .map(|(n, faces, us)| {
                format!(
                    r#"{{"n": {n}, "faces": {faces},
                        "build_ms": {{"scalar_reference": 9.0, "packed_serial": 4.0,
                                      "packed_parallel": 2.0}},
                        "match_us": {{"scalar_reference": 900.0, "packed_exhaustive": {us},
                                      "heuristic_warm": 5.0}}}}"#
                )
            })
            .collect();
        JsonValue::parse(&format!(r#"{{"results": [{}]}}"#, rows_json.join(","))).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(&[(10, 100, 50.0), (20, 400, 100.0)]);
        assert_eq!(check_core(&d, &d).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn regression_beyond_tolerance_fails_with_named_metric() {
        let base = doc(&[(20, 400, 100.0)]);
        // 100 µs × 1.75 + 25 = 200 µs limit; 10× is far past it.
        let fresh = doc(&[(20, 400, 1000.0)]);
        let violations = check_core(&fresh, &base).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("match_us.packed_exhaustive"),
            "{violations:?}"
        );
        assert!(violations[0].contains("n=20"));
    }

    #[test]
    fn small_wobble_within_tolerance_passes() {
        let base = doc(&[(20, 400, 100.0)]);
        let fresh = doc(&[(20, 400, 130.0)]);
        assert!(check_core(&fresh, &base).unwrap().is_empty());
    }

    #[test]
    fn changed_face_count_fails() {
        let base = doc(&[(20, 400, 100.0)]);
        let fresh = doc(&[(20, 401, 100.0)]);
        let violations = check_core(&fresh, &base).unwrap();
        assert!(
            violations[0].contains("face count changed"),
            "{violations:?}"
        );
    }

    #[test]
    fn missing_row_and_missing_metric_fail() {
        let base = doc(&[(10, 100, 50.0), (20, 400, 100.0)]);
        let fresh = doc(&[(10, 100, 50.0)]);
        let violations = check_core(&fresh, &base).unwrap();
        assert!(violations
            .iter()
            .any(|v| v.contains("missing from the fresh run")));

        let mut stripped = doc(&[(10, 100, 50.0)]);
        let row = &mut stripped.get_mut("results").unwrap().as_array_mut().unwrap()[0];
        if let Some(JsonValue::Obj(map)) = row.get_mut("match_us") {
            map.remove("packed_exhaustive");
        }
        let violations = check_core(&stripped, &doc(&[(10, 100, 50.0)])).unwrap();
        assert!(violations
            .iter()
            .any(|v| v.contains("lacks match_us.packed_exhaustive")));
    }

    #[test]
    fn extra_fresh_rows_are_not_violations() {
        let base = doc(&[(10, 100, 50.0)]);
        let fresh = doc(&[(10, 100, 50.0), (80, 9999, 400.0)]);
        assert!(check_core(&fresh, &base).unwrap().is_empty());
    }

    /// Presence-driven gating: metrics absent from a baseline row are not
    /// gated there (the `doc` fixture has no `indexed` metrics and no
    /// violations), and a match-only row without a `build_ms` group gates
    /// only its match metrics.
    #[test]
    fn metrics_absent_from_the_baseline_row_are_skipped() {
        let base = JsonValue::parse(
            r#"{"results": [{"n": 200, "faces": 40000,
                "match_us": {"packed_exhaustive": 9000.0, "indexed": 300.0,
                             "indexed_p99": 800.0}}]}"#,
        )
        .unwrap();
        // Fresh run carries the same row (plus extra metrics — ignored).
        assert!(check_core(&base, &base).unwrap().is_empty());
        // A gated metric the baseline has but the fresh run dropped still
        // fails, and a regression on a present metric is still caught.
        let fresh = JsonValue::parse(
            r#"{"results": [{"n": 200, "faces": 40000,
                "match_us": {"packed_exhaustive": 9100.0, "indexed": 3000.0}}]}"#,
        )
        .unwrap();
        let violations = check_core(&fresh, &base).unwrap();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("lacks match_us.indexed_p99")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("match_us.indexed regressed")),
            "{violations:?}"
        );
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    /// Two rows sharing `n` but differing in `cell_m` are distinct gate
    /// keys: the n=40 repair row (cell 2 m) must not shadow — or be
    /// shadowed by — the n=40 build/match row (cell 1 m).
    #[test]
    fn rows_are_keyed_by_n_and_cell() {
        let doc_for = |repair_us: f64| {
            JsonValue::parse(&format!(
                r#"{{"results": [
                    {{"n": 40, "cell_m": 1, "faces": 9910,
                      "match_us": {{"packed_exhaustive": 100.0}}}},
                    {{"n": 40, "cell_m": 2, "faces": 2600,
                      "map_repair_us": {{"incremental_median": {repair_us},
                                         "rebuild_median": 5000.0}}}}
                ]}}"#
            ))
            .unwrap()
        };
        let base = doc_for(400.0);
        assert!(check_core(&doc_for(400.0), &base).unwrap().is_empty());
        // Within allowance (400×3.0 + 300 = 1500) passes...
        assert!(check_core(&doc_for(1400.0), &base).unwrap().is_empty());
        // ...beyond it fails, naming the repair metric and the right row.
        let violations = check_core(&doc_for(2000.0), &base).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("map_repair_us.incremental_median"),
            "{violations:?}"
        );
        assert!(violations[0].contains("n=40 cell=2"), "{violations:?}");
        // Dropping the repair row from the fresh run is a violation even
        // though another n=40 row is present.
        let no_repair = JsonValue::parse(
            r#"{"results": [{"n": 40, "cell_m": 1, "faces": 9910,
                "match_us": {"packed_exhaustive": 100.0}}]}"#,
        )
        .unwrap();
        let violations = check_core(&no_repair, &base).unwrap();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("n=40 cell=2") && v.contains("missing")),
            "{violations:?}"
        );
    }

    #[test]
    fn structurally_foreign_documents_are_errors() {
        let not_bench = JsonValue::parse(r#"{"hello": 1}"#).unwrap();
        let ok = doc(&[(10, 100, 50.0)]);
        assert!(check_core(&not_bench, &ok).is_err());
        assert!(check_core(&ok, &not_bench).is_err());
        let empty = JsonValue::parse(r#"{"results": []}"#).unwrap();
        assert!(check_core(&ok, &empty).is_err());
    }
}
