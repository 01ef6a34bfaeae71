//! The traced run's instrument: spans named `bench.<layer>.<call>` around
//! the benchmark's own calls into each layer's public functions, recorded
//! into the process-wide trace journal next to the engine's own journal
//! events, and the exact span durations read back out of the journal.
//! Nothing here reaches inside the program: every span wraps a call made
//! from this package. The metrics sink is installed only around the
//! indexed-match probes, whose `fttt.match.index.*` counters give the
//! prune fraction; installed for the whole pass, its per-call registry
//! lookups would dominate the small stages being timed.

use crate::stats;
use fttt::facemap::{FaceId, FaceMap, RepairMode, RepairReport};
use fttt::session::SessionRound;
use fttt::vector::SamplingVector;
use fttt::{
    basic_sampling_vector, extended_sampling_vector, match_heuristic, match_indexed, PaperParams,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use wsn_geometry::Point;
use wsn_network::{GroupSampling, SensorField};
use wsn_server::{Frame, ReadingRound, RoundResult};
use wsn_telemetry::{self as telemetry, Journal, Registry, TraceKind};

/// `TrackingSession::step`.
pub const STEP: &str = "bench.session.step";
/// Algorithm 1 plus the live-pair projection, basic vectors.
pub const BASIC: &str = "bench.sampling.basic";
/// Algorithm 1 plus the live-pair projection, extended vectors.
pub const EXTENDED: &str = "bench.sampling.extended";
/// `match_heuristic` from the previous round's face.
pub const HEURISTIC: &str = "bench.matching.heuristic";
/// `match_indexed` on a re-acquisition round.
pub const INDEXED: &str = "bench.matching.indexed";
/// `match_indexed` on one of the fixed grid of probe positions.
pub const INDEXED_GRID: &str = "bench.matching.indexed_grid";
/// `PaperParams::face_map`.
pub const BUILD: &str = "bench.facemap.build";
/// `FaceMap::clone`.
pub const CLONE: &str = "bench.facemap.clone";
/// An incremental kill or revive.
pub const REPAIR: &str = "bench.facemap.repair";
/// A kill or revive by full rebuild.
pub const REBUILD: &str = "bench.facemap.rebuild";
/// `GroupSampler::sample`.
pub const SAMPLE: &str = "bench.network.sample";
/// `RegimeEngine::apply`.
pub const REGIME: &str = "bench.network.regime";
/// `PaperParams::random_trace`.
pub const TRACE: &str = "bench.mobility.trace";
/// A replay digest fold: `digest_round`, `digest_world` or
/// `digest_face_map`.
pub const DIGEST: &str = "bench.replay.digest";
/// `Frame::encode` of a one-round push.
pub const PUSH_ENCODE: &str = "bench.wire.push_encode";
/// `Frame::decode` of a one-round push.
pub const PUSH_DECODE: &str = "bench.wire.push_decode";
/// `Frame::encode` of a one-round reply.
pub const REPLY_ENCODE: &str = "bench.wire.reply_encode";
/// `Frame::decode` of a one-round reply.
pub const REPLY_DECODE: &str = "bench.wire.reply_decode";

/// Spans that re-run a stage beside the program's own work; a caller
/// timing the program's work subtracts them.
pub const PROBES: [&str; 8] = [
    BASIC,
    EXTENDED,
    HEURISTIC,
    INDEXED,
    PUSH_ENCODE,
    PUSH_DECODE,
    REPLY_ENCODE,
    REPLY_DECODE,
];

/// Side of the grid of indexed-match probe positions.
const GRID: usize = 10;

/// Journal slots. Every traced pass covers a fixed sample of sessions or
/// trials sized to stay well inside this, and a pass that overflows it
/// fails instead of reporting rows from a partial journal.
const JOURNAL_CAPACITY: usize = 1 << 19;

/// Runs `f` inside the span `name`. With tracing off this costs two
/// relaxed atomic loads.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = telemetry::span(name);
    f()
}

/// The journal of one traced pass, switched on around traced work and
/// off around the plain runs it is compared with.
pub struct Tracing {
    journal: Arc<Journal>,
}

impl Tracing {
    /// A fresh, not yet installed journal.
    pub fn new() -> Self {
        Tracing {
            journal: Arc::new(Journal::with_capacity(JOURNAL_CAPACITY)),
        }
    }

    /// Installs the journal process-wide.
    pub fn on(&self) {
        telemetry::install_journal(Arc::clone(&self.journal));
    }

    /// Uninstalls it.
    pub fn off(&self) {
        telemetry::uninstall_journal();
    }

    /// Uninstalls, writes the journal to `path` as JSONL and returns the
    /// span durations. Fails if the journal dropped events.
    pub fn finish(self, path: &Path) -> Result<Spans, String> {
        self.off();
        let log = self.journal.snapshot();
        if log.dropped > 0 {
            return Err(format!(
                "trace journal dropped {} of {} events; shrink the traced sample",
                log.dropped,
                self.journal.emitted()
            ));
        }
        wsn_telemetry::write_file_atomic(path, log.to_jsonl().as_bytes())?;
        let mut open: BTreeMap<u64, (&'static str, f64)> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for e in &log.events {
            match e.kind {
                TraceKind::SpanBegin { id, .. } if e.name.starts_with("bench.") => {
                    open.insert(id, (e.name, e.t_us));
                }
                TraceKind::SpanEnd { id } => {
                    if let Some((name, begin)) = open.remove(&id) {
                        durations.entry(name).or_default().push(e.t_us - begin);
                    }
                }
                _ => {}
            }
        }
        Ok(Spans { durations })
    }
}

/// Exact span durations (µs) by span name.
pub struct Spans {
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Every duration recorded under `name`.
    pub fn all(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total µs under `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.all(name).iter().sum()
    }

    /// Mean µs per `name` span; `NaN` if there was none.
    pub fn mean(&self, name: &str) -> f64 {
        crate::stats::mean(self.all(name))
    }
}

/// `match_indexed` under the span `name`, with `counters` installed as the
/// metrics sink for the call only.
fn indexed(name: &'static str, counters: &Arc<Registry>, map: &FaceMap, v: &SamplingVector) {
    telemetry::install(Arc::clone(counters));
    black_box(span(name, || match_indexed(map, v)));
    telemetry::uninstall();
}

/// What the traced pass counts beside the spans.
#[derive(Debug, Default)]
pub struct Tally {
    /// Rounds traced.
    pub rounds: usize,
    reacquired: usize,
    missing: f64,
    evals: Vec<f64>,
    push_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    repair_cells: Vec<f64>,
    memory_mb: f64,
    /// The engine's `fttt.match.index.*` counters over the indexed probes.
    index_counters: Arc<Registry>,
    /// µs the traced rounds' steps took when run again with tracing off.
    pub plain_step_us: f64,
}

impl Tally {
    /// Re-runs one stepped round's stages under their own spans:
    /// Algorithm 1 (basic or extended) with the live-pair projection; the
    /// match the round ran — `match_indexed` on a re-acquisition round,
    /// `match_heuristic` from `start` (the previous round's face)
    /// otherwise, none on a blackout; and the wire codec of the round's
    /// push and reply. Returns whether both frames decoded back to
    /// themselves.
    pub fn probe_round(
        &mut self,
        map: &FaceMap,
        group: &GroupSampling,
        extended: bool,
        round: &SessionRound,
        start: FaceId,
    ) -> bool {
        self.rounds += 1;
        self.missing += round.missing_fraction;
        let name = if extended { EXTENDED } else { BASIC };
        let v = span(name, || {
            let v = if extended {
                extended_sampling_vector(group)
            } else {
                basic_sampling_vector(group)
            };
            map.project_sampling_vector(v)
        });
        if round.face.is_some() {
            if round.reacquired {
                self.reacquired += 1;
                indexed(INDEXED, &self.index_counters, map, &v);
            } else {
                let out = span(HEURISTIC, || match_heuristic(map, &v, start));
                self.evals.push(out.evaluated as f64);
            }
        }
        let push = Frame::Push {
            session: 1,
            rounds: vec![ReadingRound {
                t: round.t,
                group: group.clone(),
            }],
        };
        let bytes = span(PUSH_ENCODE, || push.encode());
        let push_back = span(PUSH_DECODE, || Frame::decode(&bytes[4..]));
        self.push_bytes.push(bytes.len() as f64);
        let reply = Frame::Rounds {
            session: 1,
            results: vec![RoundResult::from_round(round)],
            digest: 0,
        };
        let bytes = span(REPLY_ENCODE, || reply.encode());
        let reply_back = span(REPLY_DECODE, || Frame::decode(&bytes[4..]));
        self.reply_bytes.push(bytes.len() as f64);
        push_back == Ok(push) && reply_back == Ok(reply)
    }

    /// Notes one incremental repair the program ran.
    pub fn note_repair(&mut self, report: &RepairReport) {
        self.repair_cells.push(report.cells_reclassified as f64);
    }

    /// Indexed matches of basic vectors sampled at a fixed 10 × 10 grid of
    /// positions, and the map's memory.
    pub fn probe_grid(
        &mut self,
        params: &PaperParams,
        field: &SensorField,
        map: &FaceMap,
        seed: u64,
    ) {
        self.memory_mb = map.memory_bytes() as f64 / (1 << 20) as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(wsn_parallel::seed_for(seed, u64::MAX));
        let sampler = params.sampler();
        let cell = params.field_side / GRID as f64;
        for i in 0..GRID * GRID {
            let at = Point::new(
                cell * ((i % GRID) as f64 + 0.5),
                cell * ((i / GRID) as f64 + 0.5),
            );
            let v = map.project_sampling_vector(basic_sampling_vector(
                &sampler.sample(field, at, &mut rng),
            ));
            if v.unknown_count() < v.len() {
                indexed(INDEXED_GRID, &self.index_counters, map, &v);
            }
        }
    }

    /// A clone of `map`, then node 1 killed and revived on it, first
    /// incrementally and then by rebuild.
    pub fn probe_churn(&mut self, map: &FaceMap) {
        let mut copy = span(CLONE, || map.clone());
        for (name, mode) in [
            (REPAIR, RepairMode::Incremental),
            (REBUILD, RepairMode::Rebuild),
        ] {
            for death in [true, false] {
                let report = span(name, || {
                    if death {
                        copy.kill_node(1, mode)
                    } else {
                        copy.revive_node(1, mode)
                    }
                });
                if mode == RepairMode::Incremental {
                    self.note_repair(&report);
                }
            }
        }
    }

    /// The per-layer rows the spans and this tally give. Rows no span fed
    /// (e.g. `network.regime_us` without fault regimes) are left out.
    pub fn rows(&self, spans: &Spans) -> BTreeMap<String, f64> {
        let n = self.rounds as f64;
        let step = spans.all(STEP);
        let sampling = spans.sum(BASIC) + spans.sum(EXTENDED);
        let matching = spans.sum(HEURISTIC) + spans.sum(INDEXED);
        let indexed: Vec<f64> = [spans.all(INDEXED), spans.all(INDEXED_GRID)].concat();
        let counters = self.index_counters.snapshot().counters;
        let count = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
        let pruned =
            count("fttt.match.index.chunks_pruned") / count("fttt.match.index.chunks_total");
        [
            ("session.step_us_mean", stats::mean(step)),
            ("session.step_us_p99", stats::percentile(step, 0.99)),
            (
                "session.unattributed_us",
                (spans.sum(STEP) - sampling - matching) / n,
            ),
            ("session.reacquire_frac", self.reacquired as f64 / n),
            ("sampling.basic_us", spans.mean(BASIC)),
            ("sampling.extended_us", spans.mean(EXTENDED)),
            ("sampling.missing_frac", self.missing / n),
            ("matching.heuristic_us_mean", spans.mean(HEURISTIC)),
            ("matching.heuristic_evals_mean", stats::mean(&self.evals)),
            ("matching.indexed_us_p50", stats::percentile(&indexed, 0.5)),
            ("matching.indexed_us_p99", stats::percentile(&indexed, 0.99)),
            ("matching.index_prune_frac", pruned),
            ("facemap.build_ms", spans.mean(BUILD) / 1e3),
            ("facemap.clone_us", spans.mean(CLONE)),
            ("facemap.repair_us_p50", stats::median(spans.all(REPAIR))),
            ("facemap.rebuild_us_p50", stats::median(spans.all(REBUILD))),
            ("facemap.repair_cells_mean", stats::mean(&self.repair_cells)),
            ("facemap.memory_mb", self.memory_mb),
            ("network.sample_us", spans.mean(SAMPLE)),
            ("network.regime_us", spans.mean(REGIME)),
            ("mobility.trace_us", spans.mean(TRACE)),
            ("replay.digest_us", spans.mean(DIGEST)),
            ("wire.push_encode_us", spans.mean(PUSH_ENCODE)),
            ("wire.push_decode_us", spans.mean(PUSH_DECODE)),
            ("wire.reply_encode_us", spans.mean(REPLY_ENCODE)),
            ("wire.reply_decode_us", spans.mean(REPLY_DECODE)),
            ("wire.push_bytes", stats::mean(&self.push_bytes)),
            ("wire.reply_bytes", stats::mean(&self.reply_bytes)),
            (
                "trace.overhead_frac",
                spans.sum(STEP) / self.plain_step_us - 1.0,
            ),
        ]
        .into_iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}
