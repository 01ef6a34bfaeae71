//! Zero-dependency, low-overhead instrumentation for the FTTT suite.
//!
//! The suite's hot paths (face-map builds, vector matching, tracking
//! sessions, fault regimes) report what they do through this crate:
//!
//! * [`Counter`] — monotonic `u64` event counts (`fttt.match.evaluations`).
//! * [`Gauge`] — last-write-wins `f64` levels (`fttt.session.samples_k`).
//! * [`Histogram`] — fixed-bucket distributions with Prometheus `le`
//!   (value ≤ bound) semantics (`fttt.match.tie_width`, span durations).
//! * [`span`] — RAII wall-clock timers that record microseconds into a
//!   histogram when dropped.
//!
//! Metrics live in a [`Registry`]. Instrumented code talks to a **global
//! sink**: a process-wide `Option<Arc<Registry>>` behind an `AtomicBool`
//! fast flag. When no sink is installed every entry point reduces to one
//! relaxed atomic load and an untaken branch — no clock reads, no locks,
//! no allocation — so instrumentation can stay compiled into release
//! binaries (the bench suite asserts this stays within noise).
//!
//! ```
//! use std::sync::Arc;
//! use wsn_telemetry as telemetry;
//!
//! let registry = Arc::new(telemetry::Registry::new());
//! telemetry::install(registry.clone());
//! telemetry::counter_add("demo.events", 3);
//! {
//!     let _span = telemetry::span("demo.phase");
//!     // ... timed work ...
//! }
//! telemetry::uninstall();
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["demo.events"], 3);
//! println!("{}", snap.to_json());
//! ```
//!
//! Snapshots ([`Registry::snapshot`]) are plain data: they merge across
//! trials ([`Snapshot::try_merge`]) and export as JSON ([`Snapshot::to_json`],
//! embedded in the `BENCH_*.json` artifacts) or Prometheus text
//! ([`Snapshot::to_prometheus`]).
//!
//! Alongside the metrics sink lives a second, independent global: the
//! **trace journal** ([`trace`] module) — a fixed-capacity ring buffer of
//! typed events (span begin/end with parent ids, instants, round markers)
//! installed via [`install_journal`] and exported as Chrome trace-event
//! JSON or JSONL ([`TraceLog`]). Metrics aggregate; the journal keeps the
//! per-round causal story. The [`json`] module is the matching reader used
//! by downstream tools (`fttt-sim explain`, the bench regression gate) to
//! load these artifacts back (the workspace carries no JSON library).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
mod export;
pub mod json;
mod metrics;
mod registry;
pub mod trace;

pub use artifacts::{ensure_writable_dir, ensure_writable_file, write_file_atomic};
pub use export::validate_prometheus_text;
pub use metrics::{Counter, Gauge, Histogram, COUNT_BUCKETS, DURATION_US_BUCKETS};
pub use registry::{HistogramSnapshot, MergeError, Registry, Snapshot};
pub use trace::{ArgValue, Journal, TraceEvent, TraceKind, TraceLog, DEFAULT_JOURNAL_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Fast-path flag: `true` iff a sink is installed. Checked (relaxed) before
/// any other telemetry work so uninstrumented runs pay a single atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide metrics sink. Only consulted after [`ENABLED`] reads
/// `true`, so the lock is never touched on the disabled path.
static SINK: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// Install `registry` as the process-wide metrics sink and enable
/// instrumentation. Replaces any previously installed sink.
pub fn install(registry: Arc<Registry>) {
    *SINK.write().expect("telemetry sink lock poisoned") = Some(registry);
    ENABLED.store(true, Ordering::Release);
}

/// Disable instrumentation and return the previously installed sink, if any.
pub fn uninstall() -> Option<Arc<Registry>> {
    ENABLED.store(false, Ordering::Release);
    SINK.write().expect("telemetry sink lock poisoned").take()
}

/// Whether a metrics sink is currently installed.
///
/// This is the cheap enabled-check instrumented code guards on: a single
/// relaxed atomic load. Hot paths accumulate into locals and only touch the
/// registry when this returns `true`.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` against the installed sink, or do nothing if there is none.
pub fn with_sink<F: FnOnce(&Registry)>(f: F) {
    if !enabled() {
        return;
    }
    if let Ok(guard) = SINK.read() {
        if let Some(registry) = guard.as_ref() {
            f(registry);
        }
    }
}

/// Add `n` to the counter `name` in the installed sink (no-op when disabled).
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    with_sink(|r| r.counter(name).add(n));
}

/// Set the gauge `name` to `value` in the installed sink (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_sink(|r| r.gauge(name).set(value));
}

/// Record `value` into the histogram `name` with the given bucket `bounds`
/// (no-op when disabled). The bounds are only consulted the first time the
/// histogram is created in the sink.
#[inline]
pub fn observe(name: &str, bounds: &[f64], value: f64) {
    if !enabled() {
        return;
    }
    with_sink(|r| r.histogram(name, bounds).observe(value));
}

/// Fast-path flag for the trace journal, mirroring [`ENABLED`]: `true` iff
/// a journal is installed. With neither sink nor journal installed a
/// [`span`] costs two relaxed atomic loads and two untaken branches.
static TRACING: AtomicBool = AtomicBool::new(false);

/// The process-wide trace journal. Only consulted after [`TRACING`] reads
/// `true`, so the lock is never touched on the disabled path.
static JOURNAL: RwLock<Option<Arc<Journal>>> = RwLock::new(None);

/// Install `journal` as the process-wide trace journal and enable event
/// emission. Replaces any previously installed journal.
pub fn install_journal(journal: Arc<Journal>) {
    *JOURNAL.write().expect("telemetry journal lock poisoned") = Some(journal);
    TRACING.store(true, Ordering::Release);
}

/// Disable event emission and return the previously installed journal, if
/// any. Existing [`Span`]s keep an `Arc` to it, so in-flight spans still
/// record their end events harmlessly.
pub fn uninstall_journal() -> Option<Arc<Journal>> {
    TRACING.store(false, Ordering::Release);
    JOURNAL
        .write()
        .expect("telemetry journal lock poisoned")
        .take()
}

/// Whether a trace journal is currently installed (one relaxed atomic
/// load — the guard instrumented code checks before assembling event args).
#[inline]
pub fn journal_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Run `f` against the installed journal, or do nothing if there is none.
pub fn with_journal<F: FnOnce(&Journal)>(f: F) {
    if !journal_enabled() {
        return;
    }
    if let Ok(guard) = JOURNAL.read() {
        if let Some(journal) = guard.as_ref() {
            f(journal);
        }
    }
}

fn current_journal() -> Option<Arc<Journal>> {
    JOURNAL
        .read()
        .ok()
        .and_then(|guard| guard.as_ref().cloned())
}

/// Record a point-in-time event `name` with `args` into the installed
/// journal (no-op when none is installed).
#[inline]
pub fn trace_instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !journal_enabled() {
        return;
    }
    with_journal(|j| j.record(name, TraceKind::Instant, args));
}

/// Record a tracking-round marker `name` for `round` with `args` into the
/// installed journal (no-op when none is installed).
#[inline]
pub fn trace_round(name: &'static str, round: u64, args: Vec<(&'static str, ArgValue)>) {
    if !journal_enabled() {
        return;
    }
    with_journal(|j| j.record(name, TraceKind::Round { round }, args));
}

/// An RAII span timer: created by [`span`], records its elapsed wall-clock
/// time in microseconds into the histogram `name` (bounds
/// [`DURATION_US_BUCKETS`]) when dropped. When a trace journal is
/// installed the span additionally emits begin/end events with parent
/// links, so one `span()` call site feeds both the metrics and the
/// journal.
///
/// When both telemetry and tracing are disabled at creation the span holds
/// nothing — no `Instant::now()` is taken and drop is free.
#[must_use = "a span records its duration when dropped; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    armed: Option<(&'static str, Instant)>,
    traced: Option<(Arc<Journal>, &'static str, u64)>,
}

/// Start a span timer named `name`. The histogram count doubles as the call
/// count of the instrumented phase, so spans need no separate counter.
pub fn span(name: &'static str) -> Span {
    let traced = if journal_enabled() {
        current_journal().map(|j| {
            let id = j.begin_span(name);
            (j, name, id)
        })
    } else {
        None
    };
    Span {
        armed: enabled().then(|| (name, Instant::now())),
        traced,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let micros = start.elapsed().as_secs_f64() * 1e6;
            observe(name, DURATION_US_BUCKETS, micros);
        }
        if let Some((journal, name, id)) = self.traced.take() {
            journal.end_span(name, id);
        }
    }
}
