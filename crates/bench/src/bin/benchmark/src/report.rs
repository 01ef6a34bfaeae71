//! The metric catalog, one run's result, the result files `--out` writes, and the two consumers of those files:
//! `compare` (the regression check against the bounds of `BENCHMARK.json`)
//! and `summarize` (the recorded results and host).

use crate::stats;
use std::collections::BTreeMap;
use wsn_telemetry::json::{format_f64, format_str, JsonValue};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, error).
    Lower,
    /// Larger is better (rates, hit fractions).
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// For a per-layer row: the end-to-end metric it should move, and on
    /// which workload.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        moves: "",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        moves: "",
    }
}

const fn row(name: &'static str, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

/// What a user sees, printed by every untraced run on every workload.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    higher("rounds_per_s", "rounds/s"),
    lower("latency_p50_us", "us"),
    lower("peak_rss_mb", "MB"),
    lower("mean_error_m", "m"),
];

/// Per-layer rows, printed by every traced run on every workload, each
/// with the end-to-end metric it should move.
pub const PER_LAYER: &[Metric] = &[
    row(
        "runner.round_us_mean",
        "us",
        "rounds_per_s on serve-n100 and the campaigns; little on serve-n10",
    ),
    row(
        "runner.residual_us_mean",
        "us",
        "latency_p50_us on both serve workloads (queue wait, codec, socket, held reply)",
    ),
    row(
        "runner.unattributed_us",
        "us",
        "latency_p50_us on both serve workloads, where the held reply sits",
    ),
    row(
        "session.step_us_mean",
        "us",
        "rounds_per_s on serve-n100 and campaign-churn; no change on serve-n10",
    ),
    row(
        "session.step_us_p99",
        "us",
        "the latency tail (latency_p90_us, p99) on serve-n100",
    ),
    row(
        "session.unattributed_us",
        "us",
        "rounds_per_s on serve-n100 (today the second Algorithm-1 pass)",
    ),
    row(
        "session.reacquire_frac",
        "fraction",
        "rounds_per_s on campaign (re-acquisitions run full matches)",
    ),
    row("sampling.basic_us", "us", "rounds_per_s on serve-n100"),
    row("sampling.extended_us", "us", "rounds_per_s on serve-n100"),
    row(
        "sampling.missing_frac",
        "fraction",
        "nothing: a property of the inputs",
    ),
    row(
        "matching.heuristic_us_mean",
        "us",
        "rounds_per_s on serve-n100 and campaign-churn",
    ),
    row(
        "matching.heuristic_evals_mean",
        "count",
        "matching.heuristic_us_mean, then rounds_per_s on serve-n100",
    ),
    row(
        "matching.indexed_us_p50",
        "us",
        "rounds_per_s on campaign and campaign-churn",
    ),
    row(
        "matching.indexed_us_p99",
        "us",
        "rounds_per_s on campaign and campaign-churn",
    ),
    Metric {
        better: Better::Higher,
        ..row(
            "matching.index_prune_frac",
            "fraction",
            "matching.indexed_us_p50, then rounds_per_s on campaign-churn",
        )
    },
    row("facemap.build_ms", "ms", "setup_s on every workload"),
    row(
        "facemap.clone_us",
        "us",
        "rounds_per_s on campaign-churn; no change on serve-*",
    ),
    row(
        "facemap.repair_us_p50",
        "us",
        "rounds_per_s on campaign-churn; no change on serve-*",
    ),
    row(
        "facemap.rebuild_us_p50",
        "us",
        "rounds_per_s on campaign-churn; no change on serve-*",
    ),
    row("network.sample_us", "us", "rounds_per_s on campaign"),
    row("mobility.trace_us", "us", "rounds_per_s on campaign"),
    row("replay.digest_us", "us", "rounds_per_s on campaign-churn"),
    row(
        "wire.push_encode_us",
        "us",
        "latency_p50_us and rounds_per_s on serve-n10; no change on serve-n100",
    ),
    row(
        "wire.push_decode_us",
        "us",
        "latency_p50_us and rounds_per_s on serve-n10; no change on serve-n100",
    ),
    row(
        "wire.reply_encode_us",
        "us",
        "latency_p50_us and rounds_per_s on serve-n10; no change on serve-n100",
    ),
    row(
        "wire.reply_decode_us",
        "us",
        "latency_p50_us and rounds_per_s on serve-n10; no change on serve-n100",
    ),
    row("trace.overhead_frac", "fraction", "nothing"),
];

/// Diagnostics: printed and kept in `--out` files but not part of the
/// final JSON line, because they are zero, constant, only defined on some
/// workloads, or (the latency tail) spread wider between runs of the same
/// code than any bound `BENCHMARK.json` may set.
pub const DIAGNOSTICS: &[Metric] = &[
    lower("failed_frac", "fraction"),
    higher("slo_frac", "fraction"),
    lower("latency_p90_us", "us"),
    lower("latency_p99_us", "us"),
    lower("latency_p999_us", "us"),
    higher("latency_samples", "count"),
    lower("loadgen.late_p50_us", "us"),
    lower("loadgen.late_p99_us", "us"),
    lower("server.shed_frac", "fraction"),
    lower("wire.push_bytes", "bytes"),
    lower("wire.reply_bytes", "bytes"),
    lower("facemap.memory_mb", "MB"),
    lower("facemap.repair_cells_mean", "count"),
    lower("facemap.churn_share", "fraction"),
    lower("network.regime_us", "us"),
];

/// Looks a metric up in every catalog.
pub fn metric(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DIAGNOSTICS)
        .find(|m| m.name == name)
        .copied()
}

/// `failed_frac` may not rise at all; every end-to-end metric uses its
/// bound in `BENCHMARK.json`.
pub const FAILED_FRAC: &str = "failed_frac";

/// The benchmark's definition at the repository root: the metric list and
/// the one set of bounds, read by `compare` and checked against the
/// catalog above by a test.
pub const BENCHMARK_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../../../../BENCHMARK.json"
));

/// Master seed of the accuracy set: the fixed inputs, the same whatever
/// `--seed`, on which every workload measures `mean_error_m`.
pub const ACCURACY_SEED: u64 = 7;

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Master seed the inputs were generated from.
    pub seed: u64,
    /// A traced run (per-layer rows) rather than an end-to-end one.
    pub traced: bool,
    /// Every output was checked and every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every value measured, by metric name.
    pub values: BTreeMap<String, f64>,
}

impl RunResult {
    /// The metrics the final JSON line must carry.
    pub fn listed(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Listed metrics the run failed to measure (missing or not finite).
    pub fn unmeasured(&self) -> Vec<&'static str> {
        self.listed()
            .iter()
            .filter(|m| !self.values.get(m.name).is_some_and(|v| v.is_finite()))
            .map(|m| m.name)
            .collect()
    }

    /// The final stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every listed metric with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .listed()
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    format_str(m.name),
                    format_f64(self.values.get(m.name).copied().unwrap_or(f64::NAN)),
                    format_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line per measured value, name, value and unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {}{}: {} of {} operations failed, outputs {}\n",
            self.workload,
            self.seed,
            if self.traced { " (traced)" } else { "" },
            self.failed,
            self.attempted,
            if self.correct { "correct" } else { "WRONG" }
        );
        for (name, value) in &self.values {
            let unit = metric(name).map_or("", |m| m.unit);
            out.push_str(&format!("  {name:<32} {value:>16.4} {unit}\n"));
        }
        out
    }

    /// The full record, as kept in `--out` files.
    pub fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}: {}", format_str(k), format_f64(*v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"values\": {{{}}}}}",
            format_str(&self.workload),
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            values.join(", ")
        )
    }

    /// Parses a [`RunResult::to_json`] record.
    pub fn from_json(doc: &JsonValue) -> Result<RunResult, String> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("run record: no {key:?}"))
        };
        let int = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("run record: {key:?} is not a whole number"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("run record: {key:?} is not a boolean"))
        };
        let JsonValue::Obj(raw) = field("values")? else {
            return Err("run record: \"values\" is not an object".into());
        };
        let mut values = BTreeMap::new();
        for (k, v) in raw {
            // Writers emit null for a value that was not finite.
            values.insert(k.clone(), v.as_f64().unwrap_or(f64::NAN));
        }
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("run record: \"workload\" is not a string")?
                .to_string(),
            seed: int("seed")?,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            values,
        })
    }
}

/// Renders a result file: `{"runs": [...]}`.
pub fn render_runs(runs: &[RunResult]) -> String {
    let body: Vec<String> = runs.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n"))
}

/// Parses a result file written by [`render_runs`].
pub fn parse_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = JsonValue::parse(text)?;
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("result file has no \"runs\" array")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

/// Workload names in first-appearance order.
fn workloads(runs: &[RunResult]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in runs {
        if !names.contains(&r.workload) {
            names.push(r.workload.clone());
        }
    }
    names
}

/// The untraced values of `metric` on `workload`.
fn samples(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.values.get(metric).copied())
        .filter(|v| v.is_finite())
        .collect()
}

/// Failed operations over attempted ones, across the untraced runs of a
/// workload.
fn failed_frac(runs: &[RunResult], workload: &str) -> f64 {
    let (mut failed, mut attempted) = (0u64, 0u64);
    for r in runs.iter().filter(|r| r.workload == workload && !r.traced) {
        failed += r.failed;
        attempted += r.attempted;
    }
    failed as f64 / attempted.max(1) as f64
}

/// Per end-to-end metric, the share of the baseline median by which the
/// candidate's median may be worse, on every workload.
pub type Bounds = BTreeMap<String, f64>;

/// Reads the `end_to_end` bounds out of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Bounds, String> {
    let doc = JsonValue::parse(text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no \"end_to_end\" array")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err(format!(
                    "BENCHMARK.json: end_to_end entry without a name and bound: {m:?}"
                )),
            }
        })
        .collect()
}

/// Applies the bounds: for every workload present in both sets, every
/// end-to-end metric's median in `candidate` may be worse than in
/// `baseline` by at most its bound, and `failed_frac` may not rise.
/// Returns one row per workload and whether every row passed.
pub fn compare(
    baseline: &[RunResult],
    candidate: &[RunResult],
    bounds: &Bounds,
) -> Result<(Vec<String>, bool), String> {
    let mut rows = Vec::new();
    let mut all_pass = true;
    for workload in workloads(baseline) {
        if !candidate.iter().any(|r| r.workload == workload) {
            rows.push(format!("{workload:<16} SKIP  not in the candidate set"));
            continue;
        }
        let mut cells = Vec::new();
        let mut pass = true;
        for m in END_TO_END {
            let (a, b) = (
                samples(baseline, &workload, m.name),
                samples(candidate, &workload, m.name),
            );
            if a.is_empty() || b.is_empty() {
                return Err(format!("{workload}: no untraced {} values", m.name));
            }
            let bound = *bounds
                .get(m.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse_by = match m.better {
                Better::Lower => mb / ma - 1.0,
                Better::Higher => 1.0 - mb / ma,
            };
            let ok = worse_by <= bound;
            pass &= ok;
            cells.push(format!(
                "{}{} {:+.1}%/{:.1}%",
                if ok { "" } else { "!" },
                m.name,
                // `+ 0.0` prints an unchanged metric as +0.0, not -0.0.
                -100.0 * worse_by + 0.0,
                100.0 * bound
            ));
        }
        let (fa, fb) = (
            failed_frac(baseline, &workload),
            failed_frac(candidate, &workload),
        );
        let ok = fb <= fa;
        pass &= ok;
        cells.push(format!(
            "{}{FAILED_FRAC} {fa}->{fb}",
            if ok { "" } else { "!" }
        ));
        all_pass &= pass;
        rows.push(format!(
            "{workload:<16} {}  {}",
            if pass { "PASS" } else { "FAIL" },
            cells.join("  ")
        ));
    }
    Ok((rows, all_pass))
}

/// The recorded results: per workload and metric the min, median and max
/// over the runs, and the host block. A metric's values come from the
/// untraced runs where they measure it (end-to-end metrics and most
/// diagnostics), from the traced runs otherwise (per-layer rows, which
/// also carry the end-to-end metric they should move).
pub fn summarize(runs: &[RunResult], host: &[(&str, String)]) -> String {
    let mut out = String::from("{\n  \"claim\": null,\n  \"host\": {");
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", format_str(k), format_str(v)))
        .collect();
    out.push_str(&host.join(", "));
    out.push_str("},\n  \"workloads\": {\n");
    let mut blocks = Vec::new();
    for workload in workloads(runs) {
        let of = |traced: bool| -> Vec<&RunResult> {
            runs.iter()
                .filter(|r| r.workload == workload && r.traced == traced)
                .collect()
        };
        let (untraced, traced) = (of(false), of(true));
        let seeds: Vec<String> = untraced.iter().map(|r| r.seed.to_string()).collect();
        let mut rows = Vec::new();
        for m in END_TO_END.iter().chain(PER_LAYER).chain(DIAGNOSTICS) {
            let finite = |from: &[&RunResult]| -> Vec<f64> {
                from.iter()
                    .filter_map(|r| r.values.get(m.name).copied())
                    .filter(|v| v.is_finite())
                    .collect()
            };
            let mut values = finite(&untraced);
            if values.is_empty() {
                values = finite(&traced);
            }
            if values.is_empty() {
                continue;
            }
            let (min, median, max) = stats::min_median_max(&values);
            let moves = if m.moves.is_empty() {
                String::new()
            } else {
                format!(", \"moves\": {}", format_str(m.moves))
            };
            rows.push(format!(
                "        {}: {{\"unit\": {}, \"better\": \"{}\", \"runs\": {}, \"min\": {}, \
                 \"median\": {}, \"max\": {}{moves}}}",
                format_str(m.name),
                format_str(m.unit),
                m.better.label(),
                values.len(),
                format_f64(min),
                format_f64(median),
                format_f64(max)
            ));
        }
        blocks.push(format!(
            "    {}: {{\n      \"seeds\": [{}],\n      \"metrics\": {{\n{}\n      }}\n    }}",
            format_str(&workload),
            seeds.join(", "),
            rows.join(",\n")
        ));
    }
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, scale: f64, failed: u64) -> RunResult {
        let mut values = BTreeMap::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.insert(m.name.to_string(), (i as f64 + 1.0) * 100.0 * scale);
        }
        values.insert(FAILED_FRAC.to_string(), failed as f64 / 1000.0);
        RunResult {
            workload: workload.into(),
            seed,
            traced: false,
            correct: failed == 0,
            attempted: 1000,
            failed,
            values,
        }
    }

    fn set(scale: f64) -> Vec<RunResult> {
        (0..5)
            .flat_map(|s| [run("serve-n10", s, scale, 0), run("campaign", s, scale, 0)])
            .collect()
    }

    /// Tighter than any bound in `BENCHMARK.json`, so that a 25% change
    /// fails on every metric.
    fn bounds() -> Bounds {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 0.05))
            .collect()
    }

    #[test]
    fn identical_results_pass() {
        let (rows, pass) = compare(&set(1.0), &set(1.0), &bounds()).unwrap();
        assert!(pass, "{rows:?}");
        assert_eq!(rows.len(), 2, "one row per workload: {rows:?}");
    }

    #[test]
    fn a_25_percent_regression_on_any_one_metric_fails() {
        for m in END_TO_END {
            let mut doctored = set(1.0);
            for r in doctored.iter_mut().filter(|r| r.workload == "campaign") {
                let v = r.values.get_mut(m.name).unwrap();
                *v *= match m.better {
                    Better::Lower => 1.25,
                    Better::Higher => 0.75,
                };
            }
            let (rows, pass) = compare(&set(1.0), &doctored, &bounds()).unwrap();
            assert!(!pass, "{} 25% worse must fail: {rows:?}", m.name);
            assert!(
                rows[0].contains("PASS") && rows[1].contains("FAIL"),
                "{rows:?}"
            );
        }
    }

    #[test]
    fn any_rise_in_failed_frac_fails() {
        let mut doctored = set(1.0);
        doctored[0].failed = 1;
        let (rows, pass) = compare(&set(1.0), &doctored, &bounds()).unwrap();
        assert!(!pass, "{rows:?}");
        assert!(rows[0].contains("!failed_frac"), "{rows:?}");
    }

    #[test]
    fn records_round_trip_and_summaries_record_every_metric() {
        let runs = set(1.0);
        let back = parse_runs(&render_runs(&runs)).unwrap();
        assert_eq!(back, runs);
        let summary = JsonValue::parse(&summarize(&runs, &[("nproc", "2".into())])).unwrap();
        let campaign = summary
            .get("workloads")
            .and_then(|w| w.get("campaign"))
            .and_then(|w| w.get("metrics"))
            .unwrap();
        for m in END_TO_END.iter().chain(metric(FAILED_FRAC).as_ref()) {
            let row = campaign.get(m.name).unwrap();
            assert_eq!(row.get("runs").and_then(JsonValue::as_u64), Some(5));
            assert!(
                row.get("bound").is_none(),
                "bounds live in BENCHMARK.json only"
            );
        }
    }

    /// `BENCHMARK.json` lists exactly the catalog's end-to-end and
    /// per-layer metrics, with the same units and directions, and a bound
    /// for every end-to-end metric.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = JsonValue::parse(BENCHMARK_JSON).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let want: Vec<(&str, &str, &str)> = catalog
                .iter()
                .map(|m| (m.name, m.unit, m.better.label()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
        let bounds = parse_bounds(BENCHMARK_JSON).unwrap();
        for m in END_TO_END {
            assert!((0.0..=0.25).contains(&bounds[m.name]), "{}", m.name);
        }
    }
}
