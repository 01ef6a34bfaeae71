//! `fttt-sim explain`: render a `--trace-out` journal as a human-readable
//! timeline of session status transitions and their causes.
//!
//! Accepts both trace formats the journal writes: a Chrome trace-event
//! document (one JSON object with a `traceEvents` array) or line-delimited
//! JSON (one meta line, then one object per event). Round data lives in the
//! per-event `args` object in both, so extraction is format-agnostic once
//! the event objects are in hand.

use fttt::session::{status_name, RepairEvent, SessionRound, REPAIR_EVENT, ROUND_EVENT};
use wsn_telemetry::json::JsonValue;
use wsn_telemetry::trace::parse_journal;

/// Aggregated `fttt.match.index` activity (the coarse-to-fine matcher's
/// chunk-pruning instants), either for one round or for a whole trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexStats {
    /// Indexed matches performed.
    pub matches: u64,
    /// Chunk bounds computed across those matches.
    pub chunks: u64,
    /// Chunks whose faces were actually scanned.
    pub scanned: u64,
    /// Chunks pruned wholesale by their envelope lower bound.
    pub pruned: u64,
}

impl IndexStats {
    fn absorb(&mut self, event: &JsonValue) {
        let args = event.get("args");
        let u = |key| {
            args.and_then(|a| a.get(key))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        self.matches += 1;
        self.chunks += u("chunks");
        self.scanned += u("scanned");
        self.pruned += u("pruned");
    }
}

/// Everything `explain` pulls out of one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Session rounds, ordered by (session, round): the owning session's
    /// id, the round, and the indexed-matcher activity journaled since the
    /// previous round event (matches run *during* a round precede it).
    pub rounds: Vec<(u64, SessionRound, IndexStats)>,
    /// Live-churn face-map repairs, ordered by (session, time) so the
    /// timeline can interleave them with their session's rounds.
    pub repairs: Vec<RepairEvent>,
    /// Dropped-event count from the journal meta, when present.
    pub dropped: Option<u64>,
    /// Whole-trace indexed-matcher totals (including matches after the
    /// last round event, which no round can claim).
    pub index_totals: IndexStats,
    /// Occurrence counts of every other event name in the trace.
    pub other_events: Vec<(String, u64)>,
}

/// Parses a trace file's text in either format into a [`TraceSummary`].
///
/// # Errors
///
/// A foreign file, or a round or repair event with a missing or mistyped
/// field (the error names the event, its position and the field).
pub fn load(text: &str) -> Result<TraceSummary, String> {
    let (events, dropped) = parse_journal(text)?;
    let mut summary = TraceSummary {
        dropped,
        ..TraceSummary::default()
    };
    let mut counts = std::collections::BTreeMap::<String, u64>::new();
    // Indexed matches run *inside* a round, so their instants precede the
    // round's closing event in journal order: accumulate until the next
    // round event claims them. Must happen before the stable sort below —
    // attribution is positional, not keyed.
    let mut pending = IndexStats::default();
    for (i, event) in events.iter().enumerate() {
        let at = |e: String| format!("journal event {i}: {e}");
        match event.get("name").and_then(JsonValue::as_str) {
            Some("fttt.match.index") => {
                pending.absorb(event);
                summary.index_totals.absorb(event);
            }
            Some(REPAIR_EVENT) => summary
                .repairs
                .push(RepairEvent::from_journal(event).map_err(at)?),
            Some(ROUND_EVENT) => {
                let (session, round) = SessionRound::from_journal(event).map_err(at)?;
                summary
                    .rounds
                    .push((session, round, std::mem::take(&mut pending)));
            }
            Some(name) => *counts.entry(name.to_owned()).or_insert(0) += 1,
            None => {}
        }
    }
    summary
        .rounds
        .sort_by_key(|(session, r, _)| (*session, r.trace.round));
    summary
        .repairs
        .sort_by(|a, b| a.session.cmp(&b.session).then(a.t.total_cmp(&b.t)));
    summary.other_events = counts.into_iter().collect();
    Ok(summary)
}

/// Writes every not-yet-rendered repair at or before `upto` (as a
/// `(session, t)` bound; `None` drains the rest), advancing `next` and
/// opening a new per-session block when the timeline crosses sessions.
fn flush_repairs(
    out: &mut String,
    repairs: &[RepairEvent],
    next: &mut usize,
    upto: Option<(u64, f64)>,
    many_sessions: bool,
    current_session: &mut Option<u64>,
) {
    use std::fmt::Write as _;
    while let Some(rep) = repairs.get(*next) {
        if let Some((session, t)) = upto {
            let due = rep.session < session || (rep.session == session && rep.t <= t);
            if !due {
                break;
            }
        }
        if many_sessions && *current_session != Some(rep.session) {
            *current_session = Some(rep.session);
            let _ = writeln!(out, "— session {} —", rep.session);
        }
        let _ = writeln!(
            out,
            "churn       t={:>6.1}s  epoch {}: node {} {}, {} planes retired, {} added, \
             {} cells reclassified, faces {} -> {}, repair {:.0} µs{}",
            rep.t,
            rep.epoch,
            rep.node,
            if rep.death { "died" } else { "joined" },
            rep.planes_retired,
            rep.planes_added,
            rep.cells,
            rep.faces_before,
            rep.faces_after,
            rep.repair_us,
            if rep.face_remapped {
                ", face remapped"
            } else {
                ""
            },
        );
        *next += 1;
    }
}

fn pct(fraction: f64) -> String {
    format!("{:.0}%", 100.0 * fraction)
}

/// Renders the human-readable timeline: one line per status transition
/// (naming the round and the cause), ladder movements, and a summary.
pub fn render(summary: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if summary.rounds.is_empty() && summary.repairs.is_empty() {
        out.push_str("no session rounds in this trace\n");
        if !summary.other_events.is_empty() {
            out.push_str("(the journal holds other events — see below)\n");
        }
    }
    let sessions: std::collections::BTreeSet<u64> = summary
        .rounds
        .iter()
        .map(|(session, _, _)| *session)
        .chain(summary.repairs.iter().map(|r| r.session))
        .collect();
    let many_sessions = sessions.len() > 1;
    let mut current_session = None;
    let mut transitions = 0usize;
    let mut next_repair = 0usize;
    for (session, r, index) in &summary.rounds {
        let (session, trace) = (*session, &r.trace);
        // Churn repairs interleave with rounds by simulation time: render
        // every repair due at or before this round first (even when the
        // round itself stays silent).
        flush_repairs(
            &mut out,
            &summary.repairs,
            &mut next_repair,
            Some((session, r.t)),
            many_sessions,
            &mut current_session,
        );
        let mut notes = Vec::new();
        if trace.status_before != r.status {
            transitions += 1;
            notes.push(format!(
                "{} -> {}",
                status_name(trace.status_before),
                status_name(r.status)
            ));
        }
        if trace.k_after != r.samples {
            notes.push(format!(
                "k {} -> {} ({})",
                r.samples,
                trace.k_after,
                if trace.k_after > r.samples {
                    "escalated"
                } else {
                    "relaxed"
                }
            ));
        }
        if r.held {
            notes.push("held last estimate".into());
        }
        if r.reacquired {
            notes.push("reacquired by exhaustive fallback".into());
        }
        if notes.is_empty() {
            continue; // steady-state rounds stay silent
        }
        // Only on rounds that already have something to say: pruning
        // effectiveness of the indexed matches that ran inside them.
        if index.matches > 0 {
            notes.push(format!(
                "index pruned {}/{} chunks over {} match(es)",
                index.pruned, index.chunks, index.matches
            ));
        }
        // Campaign traces interleave many sessions; break the timeline
        // into per-session blocks so round ordinals read coherently (and
        // only for sessions that have something to say).
        if many_sessions && current_session != Some(session) {
            current_session = Some(session);
            let _ = writeln!(out, "— session {session} —");
        }
        let _ = write!(
            out,
            "round {:>4}  t={:>6.1}s  cause: {:<10}  missing {:>4}, zeros {:>4}",
            trace.round,
            r.t,
            trace.cause.name(),
            pct(r.missing_fraction),
            pct(trace.zero_fraction),
        );
        if let Some(sim) = r.similarity {
            let _ = write!(out, ", sim {sim:.2}");
        }
        let _ = writeln!(out, "  | {}", notes.join("; "));
    }
    flush_repairs(
        &mut out,
        &summary.repairs,
        &mut next_repair,
        None,
        many_sessions,
        &mut current_session,
    );
    let _ = writeln!(out, "---");
    let _ = writeln!(
        out,
        "{} rounds across {} session(s), {} status transition(s)",
        summary.rounds.len(),
        sessions.len(),
        transitions
    );
    let mut causes = std::collections::BTreeMap::<&str, u64>::new();
    for (_, r, _) in &summary.rounds {
        *causes.entry(r.trace.cause.name()).or_insert(0) += 1;
    }
    if !causes.is_empty() {
        let rendered: Vec<String> = causes.iter().map(|(c, n)| format!("{c} x{n}")).collect();
        let _ = writeln!(out, "causes: {}", rendered.join(", "));
    }
    if !summary.repairs.is_empty() {
        let deaths = summary.repairs.iter().filter(|r| r.death).count();
        let remaps = summary.repairs.iter().filter(|r| r.face_remapped).count();
        let _ = writeln!(
            out,
            "map repairs: {} ({} death(s), {} birth(s)), {} warm-face remap(s)",
            summary.repairs.len(),
            deaths,
            summary.repairs.len() - deaths,
            remaps
        );
    }
    if let Some((_, last, _)) = summary.rounds.last() {
        let _ = writeln!(out, "final status: {}", status_name(last.status));
    }
    let ix = &summary.index_totals;
    if ix.matches > 0 {
        let rate = if ix.chunks > 0 {
            100.0 * ix.pruned as f64 / ix.chunks as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "indexed matching: {} match(es), pruned {} of {} chunk bounds ({rate:.0}%)",
            ix.matches, ix.pruned, ix.chunks
        );
    }
    if let Some(dropped) = summary.dropped {
        if dropped > 0 {
            let _ = writeln!(
                out,
                "warning: journal dropped {dropped} event(s) — raise the capacity \
                 or shorten the run for a complete record"
            );
        }
    }
    for (name, n) in &summary.other_events {
        let _ = writeln!(out, "other events: {name} x{n}");
    }
    out
}

/// One `fttt.client.push` event: the client-observed side of a traced
/// push batch (`serve_load --connect ADDR --trace-out PATH`).
#[derive(Debug, Clone)]
pub struct ClientPush {
    /// Wire trace id, parsed from the hex field (`None` when malformed).
    pub trace: Option<u64>,
    pub session: u64,
    pub rounds: u64,
    /// Full client-observed round trip: send → matching reply.
    pub rtt_us: f64,
}

/// One `fttt.server.push` event: the shard-side span for the same batch,
/// stamped with the request's trace id.
#[derive(Debug, Clone)]
pub struct ServerPush {
    pub trace: Option<u64>,
    pub session: u64,
    pub shard: u64,
    pub rounds: u64,
    /// Time the worker spent actually stepping rounds (no queue wait).
    pub work_us: f64,
}

/// Push-correlation view of one journal: every cross-wire event, keyed
/// for a trace-id join against the journal from the other side.
#[derive(Debug, Clone, Default)]
pub struct WireTrace {
    pub client_pushes: Vec<ClientPush>,
    pub server_pushes: Vec<ServerPush>,
    /// `fttt.server.shed` trace ids. The client retries a shed push under
    /// the *same* trace id, so a shed and a server span sharing an id
    /// read as "shed, retried, served".
    pub sheds: Vec<Option<u64>>,
}

/// Parses a trace file's text (either format) into its cross-wire events.
pub fn load_wire(text: &str) -> Result<WireTrace, String> {
    let (events, _) = parse_journal(text)?;
    let mut w = WireTrace::default();
    for event in &events {
        let Some(name) = event.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(args) = event.get("args") else {
            continue;
        };
        let trace = args
            .get("trace")
            .and_then(JsonValue::as_str)
            .and_then(wsn_network::replay::parse_digest_hex);
        let u = |key: &str| args.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let f = |key: &str| args.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        match name {
            "fttt.client.push" => w.client_pushes.push(ClientPush {
                trace,
                session: u("session"),
                rounds: u("rounds"),
                rtt_us: f("rtt_us"),
            }),
            "fttt.server.push" => w.server_pushes.push(ServerPush {
                trace,
                session: u("session"),
                shard: u("shard"),
                rounds: u("rounds"),
                work_us: f("work_us"),
            }),
            "fttt.server.shed" => w.sheds.push(trace),
            _ => {}
        }
    }
    Ok(w)
}

/// One push batch seen on both sides of the wire, joined by trace id.
#[derive(Debug, Clone)]
pub struct MatchedPush {
    pub trace: u64,
    pub session: u64,
    pub shard: u64,
    pub rounds: u64,
    pub rtt_us: f64,
    pub work_us: f64,
    /// Server sheds carrying this trace id (retries before it was served).
    pub sheds: u64,
}

/// The cross-wire join of a client trace against a server journal.
#[derive(Debug, Clone, Default)]
pub struct Correlation {
    pub matched: Vec<MatchedPush>,
    pub client_total: usize,
    pub server_total: usize,
    /// Client pushes with no matching server span (untraced v1 frames,
    /// a malformed id, or a dropped server event).
    pub client_only: usize,
    /// Server spans no client push claimed (other clients, drops).
    pub server_only: usize,
    pub sheds_total: usize,
    /// Sheds whose trace id the server eventually served — the client
    /// retried and got through.
    pub sheds_retried: usize,
    /// Trace ids on which the two journals disagree about the session id
    /// or round count (almost certainly journals from different runs).
    pub session_mismatches: usize,
}

/// Joins the two sides by trace id; journal order is irrelevant.
pub fn correlate(client: &WireTrace, server: &WireTrace) -> Correlation {
    let mut spans = std::collections::HashMap::<u64, &ServerPush>::new();
    let mut untraced_spans = 0usize;
    for s in &server.server_pushes {
        match s.trace {
            Some(t) => {
                spans.insert(t, s);
            }
            None => untraced_spans += 1,
        }
    }
    let served: std::collections::HashSet<u64> = server
        .server_pushes
        .iter()
        .filter_map(|s| s.trace)
        .collect();
    let mut shed_counts = std::collections::HashMap::<u64, u64>::new();
    for t in server.sheds.iter().flatten() {
        *shed_counts.entry(*t).or_insert(0) += 1;
    }
    let mut c = Correlation {
        client_total: client.client_pushes.len(),
        server_total: server.server_pushes.len(),
        sheds_total: server.sheds.len(),
        sheds_retried: shed_counts
            .iter()
            .filter(|(t, _)| served.contains(t))
            .map(|(_, n)| *n as usize)
            .sum(),
        ..Correlation::default()
    };
    for p in &client.client_pushes {
        let Some(t) = p.trace else {
            c.client_only += 1;
            continue;
        };
        let Some(s) = spans.remove(&t) else {
            c.client_only += 1;
            continue;
        };
        if s.session != p.session || s.rounds != p.rounds {
            c.session_mismatches += 1;
        }
        c.matched.push(MatchedPush {
            trace: t,
            session: p.session,
            shard: s.shard,
            rounds: p.rounds,
            rtt_us: p.rtt_us,
            work_us: s.work_us,
            sheds: shed_counts.get(&t).copied().unwrap_or(0),
        });
    }
    c.server_only = untraced_spans + spans.len();
    c
}

/// `sorted` ascending; nearest-rank percentile.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Renders the cross-wire join: where each slow round actually spent its
/// time (shard work vs queue/wire), named per trace id.
pub fn render_correlation(c: &Correlation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cross-wire correlation: {} client push(es) <-> {} server span(s), {} matched by trace id",
        c.client_total,
        c.server_total,
        c.matched.len()
    );
    if c.matched.is_empty() {
        out.push_str(
            "no pushes share a trace id — run the client with --trace-out (traced v2 \
             frames) and the server with a journal, then correlate those two files\n",
        );
        return out;
    }
    let mut overheads: Vec<f64> = c
        .matched
        .iter()
        .map(|m| (m.rtt_us - m.work_us).max(0.0))
        .collect();
    overheads.sort_by(f64::total_cmp);
    let work: f64 = c.matched.iter().map(|m| m.work_us).sum();
    let rtt: f64 = c.matched.iter().map(|m| m.rtt_us).sum();
    let _ = writeln!(
        out,
        "queue+wire overhead per push (rtt − server work): p50 {:.0} µs, p99 {:.0} µs, max {:.0} µs",
        percentile(&overheads, 0.5),
        percentile(&overheads, 0.99),
        overheads.last().copied().unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "server work accounts for {:.0}% of client-observed rtt overall",
        100.0 * work / rtt.max(1e-9),
    );
    let mut shards = std::collections::BTreeMap::<u64, u64>::new();
    for m in &c.matched {
        *shards.entry(m.shard).or_insert(0) += 1;
    }
    let spread: Vec<String> = shards
        .iter()
        .map(|(s, n)| format!("shard {s} x{n}"))
        .collect();
    let _ = writeln!(out, "shard spread: {}", spread.join(", "));
    let mut slowest: Vec<&MatchedPush> = c.matched.iter().collect();
    slowest.sort_by(|a, b| b.rtt_us.total_cmp(&a.rtt_us));
    let _ = writeln!(out, "slowest pushes (server-side attribution):");
    for m in slowest.iter().take(5) {
        let overhead = (m.rtt_us - m.work_us).max(0.0);
        let cause = if m.sheds > 0 {
            format!("  [shed x{} before served]", m.sheds)
        } else if overhead > m.work_us {
            "  [queue/wire dominated]".to_owned()
        } else {
            "  [server work dominated]".to_owned()
        };
        let _ = writeln!(
            out,
            "  trace {}  session {:>4}  shard {}  {} round(s)  rtt {:>7.0} µs = {:>6.0} µs work + {:>6.0} µs queue/wire{}",
            wsn_network::replay::digest_hex(m.trace),
            m.session,
            m.shard,
            m.rounds,
            m.rtt_us,
            m.work_us,
            overhead,
            cause,
        );
    }
    if c.sheds_total > 0 {
        let _ = writeln!(
            out,
            "sheds: {} ({} retried under the same trace id and served)",
            c.sheds_total, c.sheds_retried,
        );
    }
    if c.client_only > 0 {
        let _ = writeln!(
            out,
            "client pushes with no server span: {} (untraced v1 frames, or the server \
             journal dropped events)",
            c.client_only,
        );
    }
    if c.server_only > 0 {
        let _ = writeln!(
            out,
            "server spans with no client push: {} (other clients, or the client journal \
             dropped events)",
            c.server_only,
        );
    }
    if c.session_mismatches > 0 {
        let _ = writeln!(
            out,
            "warning: {} trace id(s) name different sessions or round counts on the two \
             sides — are these journals from the same run?",
            c.session_mismatches,
        );
    }
    out
}

/// `explain CLIENT --correlate SERVER`: join the two journals and print
/// the attribution report.
pub fn run_correlate(client_path: &std::path::Path, server_path: &std::path::Path) {
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let parse = |path: &std::path::Path, text: &str| {
        load_wire(text).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let client = parse(client_path, &read(client_path));
    let server = parse(server_path, &read(server_path));
    if client.client_pushes.is_empty() && !client.server_pushes.is_empty() {
        eprintln!(
            "note: {} holds server spans but no client pushes — argument order is \
             `explain CLIENT_TRACE --correlate SERVER_TRACE`",
            client_path.display(),
        );
    }
    crate::print_stdout(&render_correlation(&correlate(&client, &server)));
}

/// The `explain` subcommand: load, render, print.
pub fn run(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    match load(&text) {
        Ok(summary) => crate::print_stdout(&render(&summary)),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fttt::session::{Cause, RoundTrace, TrackStatus};
    use fttt::FaceId;
    use wsn_geometry::Point;
    use wsn_telemetry::trace::{ArgValue, Journal, TraceKind};

    use TrackStatus::{Degraded, Tracking};

    /// A complete round `before -> after` judged `cause`, sampled with
    /// `k = 5`; a blackout is a held round with no match that escalates
    /// `k` to 7.
    fn round(
        round: u64,
        t: f64,
        (before, after): (TrackStatus, TrackStatus),
        cause: Cause,
    ) -> SessionRound {
        let blackout = cause == Cause::Blackout;
        SessionRound {
            t,
            estimate: Point::new(50.0, 50.0),
            status: after,
            samples: 5,
            face: (!blackout).then_some(FaceId(3)),
            similarity: (!blackout).then_some(0.5),
            missing_fraction: if blackout { 1.0 } else { 0.0 },
            reacquired: false,
            held: blackout,
            trace: RoundTrace {
                round,
                status_before: before,
                cause,
                blackout,
                stranded: cause == Cause::Stranded,
                starved: cause == Cause::Starved,
                teleported: cause == Cause::Teleported,
                zero_fraction: 0.25,
                k_after: if blackout { 7 } else { 5 },
            },
        }
    }

    fn record_round(j: &Journal, session: u64, r: &SessionRound) {
        let round = r.trace.round;
        j.record(
            ROUND_EVENT,
            TraceKind::Round { round },
            r.journal_args(session),
        );
    }

    fn repair(session: u64, t: f64, epoch: u64, death: bool, remapped: bool) -> RepairEvent {
        RepairEvent {
            session,
            t,
            epoch,
            node: 7,
            death,
            planes_retired: if death { 12 } else { 0 },
            planes_added: if death { 9 } else { 14 },
            cells: 625,
            faces_before: 841,
            faces_after: 838,
            repair_us: 480.2,
            face_remapped: remapped,
        }
    }

    fn record_repair(j: &Journal, event: &RepairEvent) {
        j.record(REPAIR_EVENT, TraceKind::Instant, event.journal_args());
    }

    /// The two rounds of [`sample_trace`]: a silent healthy round and a
    /// blackout that degrades the session and escalates `k`.
    fn sample_rounds() -> [SessionRound; 2] {
        [
            round(0, 0.0, (Tracking, Tracking), Cause::Healthy),
            round(1, 1.0, (Tracking, Degraded), Cause::Blackout),
        ]
    }

    /// Builds a journal holding [`sample_rounds`] and an unrelated
    /// instant, then returns both serializations.
    fn sample_trace() -> (String, String) {
        let j = Journal::with_capacity(16);
        for r in &sample_rounds() {
            record_round(&j, 0, r);
        }
        j.record("fttt.match.exhaustive", TraceKind::Instant, Vec::new());
        let log = j.snapshot();
        (log.to_chrome_json(), log.to_jsonl())
    }

    #[test]
    fn both_formats_decode_to_the_same_rounds() {
        let (chrome, jsonl) = sample_trace();
        for text in [chrome, jsonl] {
            let s = load(&text).unwrap();
            let decoded: Vec<SessionRound> = s.rounds.iter().map(|(_, r, _)| r.clone()).collect();
            assert_eq!(decoded, sample_rounds(), "{text}");
            assert_eq!(s.dropped, Some(0));
            assert_eq!(s.other_events, vec![("fttt.match.exhaustive".into(), 1)]);
        }
    }

    #[test]
    fn render_names_round_and_cause_of_each_transition() {
        let (chrome, _) = sample_trace();
        let text = render(&load(&chrome).unwrap());
        assert!(text.contains("round    1"), "{text}");
        assert!(text.contains("cause: blackout"), "{text}");
        assert!(text.contains("Tracking -> Degraded"), "{text}");
        assert!(text.contains("k 5 -> 7 (escalated)"), "{text}");
        assert!(
            text.contains("2 rounds across 1 session(s), 1 status transition(s)"),
            "{text}"
        );
        // One session only: no per-session block headers.
        assert!(!text.contains("— session"), "{text}");
        assert!(text.contains("final status: Degraded"), "{text}");
        // The healthy steady-state round stays silent in the timeline.
        assert!(!text.contains("round    0"), "{text}");
    }

    #[test]
    fn interleaved_sessions_split_into_blocks() {
        let j = Journal::with_capacity(16);
        for session in [3u64, 9] {
            let r = round(0, 0.0, (Tracking, Degraded), Cause::Starved);
            record_round(&j, session, &r);
        }
        let s = load(&j.snapshot().to_jsonl()).unwrap();
        assert_eq!(s.rounds[0].0, 3);
        assert_eq!(s.rounds[1].0, 9);
        let text = render(&s);
        assert!(text.contains("— session 3 —"), "{text}");
        assert!(text.contains("— session 9 —"), "{text}");
        assert!(text.contains("2 rounds across 2 session(s)"), "{text}");
    }

    /// Builds a journal interleaving indexed-match instants with rounds:
    /// two matches inside round 0 (silent round), one inside round 1 (a
    /// transition), one after the final round (attributable to no round).
    fn indexed_trace() -> String {
        let j = Journal::with_capacity(32);
        let index_instant = |chunks: u64, scanned: u64| {
            j.record(
                "fttt.match.index",
                TraceKind::Instant,
                vec![
                    ("face", ArgValue::U64(3)),
                    ("evaluated", ArgValue::U64(9)),
                    ("ties", ArgValue::U64(1)),
                    ("chunks", ArgValue::U64(chunks)),
                    ("scanned", ArgValue::U64(scanned)),
                    ("pruned", ArgValue::U64(chunks - scanned)),
                    ("tightness", ArgValue::F64(0.8)),
                ],
            );
        };
        let healthy = |i: u64, after| round(i, i as f64, (Tracking, after), Cause::Healthy);
        index_instant(10, 2);
        index_instant(10, 3);
        record_round(&j, 0, &healthy(0, Tracking));
        index_instant(20, 4);
        record_round(&j, 0, &healthy(1, Degraded));
        index_instant(8, 8);
        j.snapshot().to_jsonl()
    }

    #[test]
    fn index_instants_attribute_to_their_round_in_journal_order() {
        let s = load(&indexed_trace()).unwrap();
        assert_eq!(s.rounds.len(), 2);
        assert_eq!(
            s.rounds[0].2,
            IndexStats {
                matches: 2,
                chunks: 20,
                scanned: 5,
                pruned: 15
            }
        );
        assert_eq!(
            s.rounds[1].2,
            IndexStats {
                matches: 1,
                chunks: 20,
                scanned: 4,
                pruned: 16
            }
        );
        // Totals also cover the trailing match no round could claim.
        assert_eq!(
            s.index_totals,
            IndexStats {
                matches: 4,
                chunks: 48,
                scanned: 17,
                pruned: 31
            }
        );
        // Index instants are rendered as index stats, not "other events".
        assert!(s.other_events.is_empty(), "{:?}", s.other_events);
    }

    #[test]
    fn render_shows_pruning_effectiveness() {
        let text = render(&load(&indexed_trace()).unwrap());
        // Round 0 is steady-state: silent, even with index activity.
        assert!(!text.contains("round    0"), "{text}");
        // Round 1 transitions and reports its own pruning.
        assert!(
            text.contains("index pruned 16/20 chunks over 1 match(es)"),
            "{text}"
        );
        assert!(
            text.contains("indexed matching: 4 match(es), pruned 31 of 48 chunk bounds (65%)"),
            "{text}"
        );
    }

    /// The two repairs of [`churn_trace`]: a remapping death at t = 5 and
    /// a birth at t = 15.
    fn churn_repairs() -> [RepairEvent; 2] {
        [
            repair(0, 5.0, 3, true, true),
            repair(0, 15.0, 4, false, false),
        ]
    }

    /// A journal interleaving churn repairs with rounds: a silent round,
    /// a death repair (t between the rounds), a transition round, then a
    /// birth repair after the final round (flushed by the trailing drain).
    fn churn_trace() -> String {
        let j = Journal::with_capacity(32);
        let [death, birth] = churn_repairs();
        let healthy = |i: u64, after| round(i, i as f64 * 10.0, (Tracking, after), Cause::Healthy);
        record_round(&j, 0, &healthy(0, Tracking));
        record_repair(&j, &death);
        record_round(&j, 0, &healthy(1, Degraded));
        record_repair(&j, &birth);
        j.snapshot().to_jsonl()
    }

    #[test]
    fn repairs_decode_with_parsed_epochs() {
        let s = load(&churn_trace()).unwrap();
        assert_eq!(s.repairs, churn_repairs());
        // Repairs are rendered as churn lines, not "other events".
        assert!(s.other_events.is_empty(), "{:?}", s.other_events);
    }

    #[test]
    fn render_interleaves_repairs_by_time_and_totals_them() {
        let text = render(&load(&churn_trace()).unwrap());
        let death = text
            .find("epoch 3: node 7 died, 12 planes retired, 9 added, 625 cells reclassified")
            .expect(&text);
        assert!(text[death..].contains("faces 841 -> 838"), "{text}");
        assert!(
            text[death..].contains("repair 480 µs, face remapped"),
            "{text}"
        );
        // The death (t=5) lands between round 0 (silent, t=0) and the
        // round-1 transition (t=10); the birth (t=15) follows round 1.
        let transition = text.find("round    1").expect(&text);
        let birth = text.find("epoch 4: node 7 joined").expect(&text);
        assert!(death < transition && transition < birth, "{text}");
        assert!(
            text.contains("map repairs: 2 (1 death(s), 1 birth(s)), 1 warm-face remap(s)"),
            "{text}"
        );
    }

    #[test]
    fn repair_only_sessions_still_open_a_timeline_block() {
        let j = Journal::with_capacity(8);
        for session in [2u64, 5] {
            record_repair(&j, &repair(session, 1.0, session, true, false));
        }
        let s = load(&j.snapshot().to_jsonl()).unwrap();
        let text = render(&s);
        // No rounds at all: the trailing drain still renders both repairs
        // under their own session headers.
        assert!(!text.contains("no session rounds"), "{text}");
        assert!(text.contains("— session 2 —"), "{text}");
        assert!(text.contains("— session 5 —"), "{text}");
        assert!(text.contains("epoch 5: node 7 died"), "{text}");
        assert!(text.contains("0 rounds across 2 session(s)"), "{text}");
    }

    /// A round or repair event with a missing or mistyped field fails the
    /// load, naming the event and the field, instead of being counted as
    /// an other event.
    #[test]
    fn malformed_round_and_repair_events_are_load_errors() {
        let mut round_args = sample_rounds()[0].journal_args(0);
        round_args.retain(|(k, _)| *k != "k_after");
        let mut repair_args = churn_repairs()[0].journal_args();
        repair_args.retain(|(k, _)| *k != "epoch");
        repair_args.push(("epoch", ArgValue::Str("not-hex".into())));
        let load_one = |name, kind, args| {
            let j = Journal::with_capacity(4);
            j.record(name, kind, args);
            load(&j.snapshot().to_chrome_json()).unwrap_err()
        };
        assert_eq!(
            load_one(ROUND_EVENT, TraceKind::Round { round: 0 }, round_args),
            "journal event 0: fttt.session.round event: missing integral \"k_after\""
        );
        assert_eq!(
            load_one(REPAIR_EVENT, TraceKind::Instant, repair_args),
            "journal event 0: fttt.map.repair event: missing hex \"epoch\""
        );
    }

    #[test]
    fn foreign_files_are_rejected_with_a_reason() {
        assert!(load("{\"hello\": 1}").is_err());
        assert!(load("not json at all").is_err());
    }

    /// Client + server journals for one traced run: trace 1 served clean,
    /// trace 2 shed once then served, trace 3 never journaled server-side
    /// (a v1 push or a drop), and trace 9 served for some other client.
    fn wire_pair() -> (String, String) {
        use wsn_network::replay::digest_hex;
        let client = Journal::with_capacity(16);
        for (trace, session, rtt) in [(1u64, 10u64, 500.0), (2, 11, 2500.0), (3, 12, 400.0)] {
            client.record(
                "fttt.client.push",
                TraceKind::Instant,
                vec![
                    ("trace", ArgValue::Str(digest_hex(trace))),
                    ("session", ArgValue::U64(session)),
                    ("rounds", ArgValue::U64(4)),
                    ("rtt_us", ArgValue::F64(rtt)),
                ],
            );
        }
        let server = Journal::with_capacity(16);
        server.record(
            "fttt.server.shed",
            TraceKind::Instant,
            vec![
                ("trace", ArgValue::Str(digest_hex(2))),
                ("shard", ArgValue::U64(1)),
                ("context", ArgValue::U64(11)),
            ],
        );
        for (trace, session, shard, work) in [
            (1u64, 10u64, 0u64, 300.0),
            (2, 11, 1, 700.0),
            (9, 40, 1, 100.0),
        ] {
            server.record(
                "fttt.server.push",
                TraceKind::Instant,
                vec![
                    ("trace", ArgValue::Str(digest_hex(trace))),
                    ("session", ArgValue::U64(session)),
                    ("shard", ArgValue::U64(shard)),
                    ("rounds", ArgValue::U64(4)),
                    ("work_us", ArgValue::F64(work)),
                ],
            );
        }
        (client.snapshot().to_jsonl(), server.snapshot().to_jsonl())
    }

    #[test]
    fn correlation_joins_both_sides_by_trace_id() {
        let (c_text, s_text) = wire_pair();
        let client = load_wire(&c_text).unwrap();
        let server = load_wire(&s_text).unwrap();
        assert_eq!(client.client_pushes.len(), 3);
        assert_eq!(server.server_pushes.len(), 3);
        let c = correlate(&client, &server);
        assert_eq!(c.matched.len(), 2);
        let clean = c.matched.iter().find(|m| m.session == 10).unwrap();
        assert_eq!(clean.shard, 0);
        assert_eq!(clean.rtt_us, 500.0);
        assert_eq!(clean.work_us, 300.0);
        assert_eq!(clean.sheds, 0);
        let retried = c.matched.iter().find(|m| m.session == 11).unwrap();
        assert_eq!(
            retried.sheds, 1,
            "the shed retry shares the push's trace id"
        );
        assert_eq!(c.client_only, 1, "trace 3 has no server span");
        assert_eq!(c.server_only, 1, "trace 9 has no client push");
        assert_eq!((c.sheds_total, c.sheds_retried), (1, 1));
        assert_eq!(c.session_mismatches, 0);
    }

    #[test]
    fn correlation_render_names_the_server_side_cause() {
        let (c_text, s_text) = wire_pair();
        let c = correlate(&load_wire(&c_text).unwrap(), &load_wire(&s_text).unwrap());
        let text = render_correlation(&c);
        assert!(
            text.contains("3 client push(es) <-> 3 server span(s), 2 matched"),
            "{text}"
        );
        assert!(text.contains("shard 0 x1, shard 1 x1"), "{text}");
        // The slowest push (trace 2, rtt 2500) is attributed to its shed.
        assert!(text.contains("[shed x1 before served]"), "{text}");
        assert!(
            text.contains("sheds: 1 (1 retried under the same trace id and served)"),
            "{text}"
        );
        assert!(
            text.contains("client pushes with no server span: 1"),
            "{text}"
        );
        assert!(
            text.contains("server spans with no client push: 1"),
            "{text}"
        );
    }

    #[test]
    fn correlation_of_unrelated_traces_says_so() {
        let j = Journal::with_capacity(4);
        let empty = j.snapshot().to_chrome_json();
        let c = correlate(&load_wire(&empty).unwrap(), &load_wire(&empty).unwrap());
        let text = render_correlation(&c);
        assert!(text.contains("no pushes share a trace id"), "{text}");
    }

    #[test]
    fn correlation_flags_session_mismatches() {
        use wsn_network::replay::digest_hex;
        let one = |name: &'static str, session: u64| {
            let j = Journal::with_capacity(4);
            let mut kv = vec![
                ("trace", ArgValue::Str(digest_hex(5))),
                ("session", ArgValue::U64(session)),
                ("rounds", ArgValue::U64(1)),
            ];
            kv.push(if name == "fttt.client.push" {
                ("rtt_us", ArgValue::F64(10.0))
            } else {
                ("work_us", ArgValue::F64(5.0))
            });
            j.record(name, TraceKind::Instant, kv);
            j.snapshot().to_jsonl()
        };
        let c = correlate(
            &load_wire(&one("fttt.client.push", 1)).unwrap(),
            &load_wire(&one("fttt.server.push", 2)).unwrap(),
        );
        assert_eq!(c.matched.len(), 1);
        assert_eq!(c.session_mismatches, 1);
        assert!(render_correlation(&c).contains("different sessions"));
    }

    /// An empty journal is a trace with no rounds in either form — the
    /// one-line JSONL file used to be refused as a foreign document.
    #[test]
    fn empty_journal_loads_in_both_forms() {
        let log = Journal::new().snapshot();
        for text in [log.to_jsonl(), log.to_chrome_json()] {
            let s = load(&text).unwrap();
            assert!(s.rounds.is_empty());
            assert_eq!(s.dropped, Some(0));
        }
    }

    #[test]
    fn empty_trace_renders_a_note() {
        let j = Journal::with_capacity(4);
        let text = render(&load(&j.snapshot().to_chrome_json()).unwrap());
        assert!(text.contains("no session rounds"), "{text}");
    }
}
