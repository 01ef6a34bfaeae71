//! Performance snapshot of the packed signature-plane kernels.
//!
//! Times face-map construction (serial / parallel) and matching
//! throughput at n ∈ {10, 20, 40} against in-binary *scalar reference*
//! implementations of the seed's code paths, then match throughput alone
//! at the scale rows n ∈ {100, 200} (cell 0.5 m, ~4×10⁴ faces each) where
//! the coarse-to-fine chunk index has to deliver sublinear full-accuracy
//! matching — `indexed` (steady-state mean) and `indexed_p99` (worst
//! percentile over a 10×10 grid of probe targets) are gated alongside the
//! linear scan. Every row also times a warm heuristic
//! [`Tracker::localize`] twice, on the grouping's basic query
//! (`heuristic_warm`) and on its Definition-10 query
//! (`heuristic_extended`); both queries are packed once, off the clock, so
//! the rows time the climb alone:
//!
//! * build reference — a faithful port of the seed's serial
//!   `FaceMap::build`: rasterize all rows into per-cell `SignatureVector`
//!   heap allocations via [`signature_of`], then group by hashing the full
//!   vector (one clone per cell), accumulate centroids/bboxes, construct
//!   faces and run the neighbor-link pass;
//! * match reference — the seed's exhaustive scan: per face one
//!   `difference_norm_squared` plus a `1/√d²`, tracking the max similarity.
//!
//! Every build/match row also times one localization round's stages
//! (`round_us`): Algorithm 1 as the session runs it — the bit-parallel
//! kernel writing the packed query into reused buffers
//! ([`QueryBuilder`]; `alg1_basic`, `alg1_extended`) — against the
//! per-pair [`PairEvidence::gather`] path with eq. (6) rescanning both
//! columns per pair (`alg1_reference`, ungated), and one warm heuristic
//! [`TrackingSession::step`] (`session_step`: Algorithm 1, match and
//! health checks).
//!
//! A final `map_repair_us` row times the live-churn path at n = 40,
//! cell 4 m: the median single-node death + revive repair, incremental
//! (gated sub-millisecond) against the rebuild-per-event control
//! (ungated — it normalizes the speedup story). Repair cost scales
//! linearly with grid cell count, so the gated point is the finest
//! n = 40 geometry that holds the interactive sub-ms budget with margin
//! on a shared box; DESIGN.md records the full cell-size scaling.
//!
//! Writes a table to stdout and a hand-formatted `BENCH_core.json` at the
//! repository root (the workspace carries no JSON library).
//!
//! With `--check BASELINE.json` the binary runs the same workload but,
//! instead of writing the artifact, diffs the fresh timings against the
//! committed baseline through [`fttt_bench::gate`] and exits nonzero on
//! any regression beyond tolerance — the bench-trajectory gate. `--fast
//! --check` is a usage error (exit 2): the baseline is a full run.

use fttt::facemap::{signature_of, FaceMap, RepairMode};
use fttt::matching::{match_exhaustive, match_indexed};
use fttt::sampling::{basic_sampling_vector, PairEvidence, QueryBuilder};
use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt::vector::{difference_norm_squared, PackedQuery, SamplingVector, SignatureVector};
use fttt_bench::{Cli, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use wsn_geometry::{CellIndex, Grid, Point, Rect};
use wsn_network::{Deployment, GroupSampler, GroupSampling, PairIter, SensorField};
use wsn_signal::{uncertainty_constant, PathLossModel};
use wsn_telemetry::json;

struct Setup {
    positions: Vec<Point>,
    field: Rect,
    c: f64,
    cell: f64,
    /// Shared by every tracker and session a row times: no row copies it.
    map: Arc<FaceMap>,
    /// The grouping sampled at a fixed target (k = 5) and its basic vector.
    group: GroupSampling,
    vector: SamplingVector,
    /// Sampling vectors from a 10×10 grid of probe targets — the p99
    /// population (one steady-state query per distinct target position).
    probes: Vec<SamplingVector>,
}

fn setup(n: usize, seed: u64, cell: f64) -> Setup {
    let field = Rect::square(100.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let deployment = Deployment::random_uniform(n, field, &mut rng);
    let sensor_field = SensorField::new(deployment, 200.0);
    let c = uncertainty_constant(1.0, 4.0, 6.0);
    let positions = sensor_field.deployment().positions();
    let map = FaceMap::build(&positions, field, c, cell);
    let sampler = GroupSampler::new(PathLossModel::paper_default(), 5);
    let truth = Point::new(47.0, 53.0);
    let group = sampler.sample(&sensor_field, truth, &mut rng);
    let probes = (0..10)
        .flat_map(|i| {
            (0..10).map(move |j| Point::new(5.0 + 10.0 * i as f64, 5.0 + 10.0 * j as f64))
        })
        .map(|p| basic_sampling_vector(&sampler.sample(&sensor_field, p, &mut rng)))
        .collect();
    Setup {
        positions,
        field,
        c,
        cell,
        map: Arc::new(map),
        vector: basic_sampling_vector(&group),
        group,
        probes,
    }
}

/// A heuristic tracker over `s.map` (basic or extended vectors) and the
/// query it builds from `s.group`. The climb rows time a warm
/// [`Tracker::localize`] on this prebuilt query, so packing stays off the
/// clock.
fn heuristic_tracker(s: &Setup, extended: bool) -> (Tracker, PackedQuery) {
    let options = TrackerOptions {
        extended,
        ..TrackerOptions::heuristic()
    };
    let tracker = Tracker::shared(Arc::clone(&s.map), options);
    let q = tracker.query(&s.group);
    (tracker, q)
}

/// Faithful port of the seed's serial `FaceMap::build` (commit db07e20):
/// one `SignatureVector` allocation per cell, `HashMap<SignatureVector, _>`
/// grouping with a `sig.clone()` per new face, centroid/bbox accumulation,
/// face construction, and the right/up neighbor-link pass. Returns the face
/// count so the optimizer cannot discard the work.
fn scalar_reference_build(positions: &[Point], field: Rect, c: f64, cell_size: f64) -> usize {
    struct RefFace {
        signature: SignatureVector,
        centroid: Point,
        cell_count: usize,
        bbox: Rect,
    }
    let grid = Grid::cover(field, cell_size);
    // Phase 1, as in the seed: rasterize every row into heap signatures
    // (all of them live at once) before any grouping happens.
    let row_sigs: Vec<Vec<SignatureVector>> = (0..grid.ny())
        .map(|iy| {
            (0..grid.nx())
                .map(|ix| signature_of(grid.center(CellIndex::new(ix, iy)), positions, c))
                .collect()
        })
        .collect();
    // Phase 2, the seed's `from_row_signatures`.
    let mut by_signature: HashMap<SignatureVector, u32> = HashMap::new();
    let mut cell_to_face = vec![0u32; grid.cell_count()];
    let mut sums: Vec<(f64, f64, usize)> = Vec::new();
    let mut boxes: Vec<Rect> = Vec::new();
    let mut signatures: Vec<SignatureVector> = Vec::new();
    for (iy, row) in row_sigs.into_iter().enumerate() {
        for (ix, sig) in row.into_iter().enumerate() {
            let idx = CellIndex::new(ix as u32, iy as u32);
            let center = grid.center(idx);
            let next_id = sums.len() as u32;
            let id = *by_signature.entry(sig.clone()).or_insert_with(|| {
                sums.push((0.0, 0.0, 0));
                boxes.push(Rect::point(center));
                signatures.push(sig);
                next_id
            });
            let s = &mut sums[id as usize];
            s.0 += center.x;
            s.1 += center.y;
            s.2 += 1;
            boxes[id as usize] = boxes[id as usize].union_point(center);
            cell_to_face[grid.linear(idx)] = id;
        }
    }
    let faces: Vec<RefFace> = signatures
        .into_iter()
        .enumerate()
        .map(|(i, signature)| {
            let (sx, sy, count) = sums[i];
            RefFace {
                signature,
                centroid: Point::new(sx / count as f64, sy / count as f64),
                cell_count: count,
                bbox: boxes[i],
            }
        })
        .collect();
    let mut neighbor_sets: Vec<Vec<u32>> = vec![Vec::new(); faces.len()];
    for lin in 0..grid.cell_count() {
        let idx = grid.from_linear(lin);
        let here = cell_to_face[lin];
        for nb in grid.neighbors4(idx) {
            if nb.ix <= idx.ix && nb.iy <= idx.iy {
                continue;
            }
            let there = cell_to_face[grid.linear(nb)];
            if there != here {
                neighbor_sets[here as usize].push(there);
                neighbor_sets[there as usize].push(here);
            }
        }
    }
    for set in &mut neighbor_sets {
        set.sort_unstable();
        set.dedup();
    }
    std::hint::black_box((
        &faces.last().map(|f| (f.centroid, f.cell_count, f.bbox)),
        &neighbor_sets,
    ));
    faces.iter().map(|f| f.signature.len().min(1)).sum()
}

/// Algorithm 1 one pair at a time: eq. (6) from `node_responded` scans of
/// both columns and the order evidence from [`PairEvidence::gather`] —
/// the per-pair path the dense kernel replaced.
fn reference_basic_sampling_vector(group: &GroupSampling) -> SamplingVector {
    SamplingVector::new(
        PairIter::new(group.node_count())
            .map(
                |(i, j)| match (group.node_responded(i), group.node_responded(j)) {
                    (true, true) => {
                        let ev = PairEvidence::gather(group, i, j);
                        Some(if ev.sequential > 0 && ev.reverse == 0 && ev.ties == 0 {
                            1.0
                        } else if ev.reverse > 0 && ev.sequential == 0 && ev.ties == 0 {
                            -1.0
                        } else {
                            0.0
                        })
                    }
                    (true, false) => Some(1.0),
                    (false, true) => Some(-1.0),
                    (false, false) => None,
                },
            )
            .collect(),
    )
}

/// Per-round stage timings of one row, µs: Algorithm 1 three ways (the
/// per-pair reference vector, the basic and the extended packed query)
/// and one warm heuristic session step.
struct RoundCols {
    alg1_reference_us: f64,
    alg1_basic_us: f64,
    alg1_extended_us: f64,
    session_step_us: f64,
}

/// Times the `round_us` group on `s`, batches of `batch` calls per round.
/// The session is warmed by a few untimed steps of the same grouping, so
/// every timed step climbs from the face it matched last round.
fn time_round(s: &Setup, rounds: usize, batch: usize) -> RoundCols {
    let tracker = Tracker::shared(Arc::clone(&s.map), TrackerOptions::heuristic());
    let mut session = TrackingSession::new(tracker, SessionOptions::new(s.group.instants()));
    for _ in 0..4 {
        session.step(0.0, &s.group);
    }
    let per_call = |r: f64| r / batch as f64 * 1e3;
    let (mut basic, mut extended) = (QueryBuilder::new(), QueryBuilder::new());
    let times = time_interleaved_ms(
        rounds,
        &mut [
            &mut || {
                for _ in 0..batch {
                    std::hint::black_box(reference_basic_sampling_vector(&s.group));
                }
            },
            &mut || {
                for _ in 0..batch {
                    std::hint::black_box(basic.build(&s.group, None, false));
                }
            },
            &mut || {
                for _ in 0..batch {
                    std::hint::black_box(extended.build(&s.group, None, true));
                }
            },
            &mut || {
                for _ in 0..batch {
                    std::hint::black_box(session.step(0.0, &s.group));
                }
            },
        ],
    );
    RoundCols {
        alg1_reference_us: per_call(times[0]),
        alg1_basic_us: per_call(times[1]),
        alg1_extended_us: per_call(times[2]),
        session_step_us: per_call(times[3]),
    }
}

/// The seed's exhaustive matcher: scalar distance and a `1/√d²` per face.
fn scalar_reference_match(signatures: &[SignatureVector], v: &SamplingVector) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for sig in signatures {
        let d2 = difference_norm_squared(v, sig);
        let s = if d2 == 0.0 {
            f64::INFINITY
        } else {
            1.0 / d2.sqrt()
        };
        if s > best {
            best = s;
        }
    }
    best
}

/// One timed call of `f`, in milliseconds.
fn time_once_ms<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Interleaved minimum-of-rounds timing: each round times every candidate
/// once, and each candidate reports its fastest round. Back-to-back
/// averaging would hand whichever candidate runs later the machine's
/// accumulated noise (frequency scaling, neighbors on a shared box); the
/// interleaved minimum approximates each candidate's uncontended cost.
fn time_interleaved_ms<T>(rounds: usize, fs: &mut [&mut dyn FnMut() -> T]) -> Vec<f64> {
    // One untimed warmup each: page in code and data.
    for f in fs.iter_mut() {
        std::hint::black_box(f());
    }
    let mut best = vec![f64::INFINITY; fs.len()];
    for _ in 0..rounds {
        for (b, f) in best.iter_mut().zip(fs.iter_mut()) {
            *b = b.min(time_once_ms(f));
        }
    }
    best
}

/// Build timings, present only on the full (small-n) rows — the scale
/// rows build once, untimed, and gate match throughput alone.
struct BuildCols {
    ref_ms: f64,
    serial_ms: f64,
    parallel_ms: f64,
}

struct Row {
    n: usize,
    faces: usize,
    cell_m: f64,
    build: Option<BuildCols>,
    match_ref_us: Option<f64>,
    match_packed_us: f64,
    match_heur_us: f64,
    match_heur_ext_us: f64,
    match_indexed_us: f64,
    match_indexed_p99_us: f64,
    round: RoundCols,
}

/// Per-probe minimum-of-rounds single-match timings, 99th percentile, µs.
/// Each probe is timed individually (no batching) because a percentile of
/// batch means would launder slow outliers away — the p99 target is about
/// the worst realistic query, not the average one.
fn indexed_p99_us(map: &FaceMap, probes: &[SamplingVector], rounds: usize) -> f64 {
    for v in probes {
        std::hint::black_box(match_indexed(map, v));
    }
    let mut per = vec![f64::INFINITY; probes.len()];
    for _ in 0..rounds.max(1) {
        for (best, v) in per.iter_mut().zip(probes) {
            let t0 = Instant::now();
            std::hint::black_box(match_indexed(map, v));
            *best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    per.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let idx = ((per.len() as f64) * 0.99).ceil() as usize;
    per[idx.saturating_sub(1).min(per.len() - 1)]
}

/// The `map_repair_us` row: live-churn repair latency at the campaign
/// geometry.
struct RepairRow {
    n: usize,
    faces: usize,
    cell_m: f64,
    /// Repair events behind each median (death + revive per node).
    events: usize,
    incremental_median_us: f64,
    rebuild_median_us: f64,
}

/// Median best-of-rounds latency of one single-node repair under `mode`.
///
/// Each event kills a node and then revives it, timing the two repairs
/// separately — the map returns to its pre-event content (incremental
/// repair is bit-identical to a fresh build of the live set), so events
/// are independent and the map never drifts across rounds.
fn repair_median_us(map: &mut FaceMap, nodes: usize, mode: RepairMode, rounds: usize) -> f64 {
    // One untimed warmup pass: page in the repair scratch and planes.
    for node in 0..nodes {
        std::hint::black_box(map.kill_node(node, mode));
        std::hint::black_box(map.revive_node(node, mode));
    }
    let mut best = vec![f64::INFINITY; 2 * nodes];
    for _ in 0..rounds.max(1) {
        for node in 0..nodes {
            let t0 = Instant::now();
            std::hint::black_box(map.kill_node(node, mode));
            best[2 * node] = best[2 * node].min(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            std::hint::black_box(map.revive_node(node, mode));
            best[2 * node + 1] = best[2 * node + 1].min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    best[best.len() / 2]
}

fn main() {
    let cli = Cli::parse();
    if cli.fast && cli.check.is_some() {
        // The baseline holds full-run timings; two timed rounds cannot be
        // held to tolerances taken from those.
        eprintln!(
            "error: --check gates a full run; drop --fast (its two timed rounds \
             are too few for the baseline's tolerances)"
        );
        std::process::exit(2);
    }
    let build_rounds = if cli.fast { 2 } else { 24 };
    let match_rounds = if cli.fast { 2 } else { 16 };
    let match_batch = if cli.fast { 10 } else { 30 };
    // Scale rows: a single linear scan is tens of milliseconds, so small
    // batches and few rounds keep the snapshot's wall time sane.
    let big_match_rounds = if cli.fast { 2 } else { 6 };
    let big_match_batch = if cli.fast { 1 } else { 3 };
    let p99_rounds = if cli.fast { 1 } else { 3 };
    let round_batch = if cli.fast { 5 } else { 20 };
    let threads = wsn_parallel::recommended_threads();

    let mut rows = Vec::new();
    let mut table = Table::new(
        "Packed-kernel performance snapshot (100×100 m²; n ≤ 40 @ cell 1 m, n ≥ 100 @ cell 0.5 m)",
        &[
            "n",
            "faces",
            "build ref (ms)",
            "build serial (ms)",
            "build par (ms)",
            "match ref (µs)",
            "match packed (µs)",
            "heur warm (µs)",
            "heur ext (µs)",
            "match idx (µs)",
            "idx p99 (µs)",
            "alg1 ref (µs)",
            "alg1 basic (µs)",
            "alg1 ext (µs)",
            "step (µs)",
        ],
    );

    // n ≤ 40 (cell 1 m) also time the build and the seed's scalar matcher
    // against the packed paths. The scale rows (~4×10⁴ faces each, ~10⁵
    // combined) build once, untimed, and record match throughput alone,
    // with the chunk index expected to hold exhaustive-quality matching
    // under 1 ms at the 99th percentile.
    for (n, cell) in [(10usize, 1.0), (20, 1.0), (40, 1.0), (100, 0.5), (200, 0.5)] {
        let s = setup(n, 7, cell);
        let scale = n >= 100;
        let build = (!scale).then(|| {
            let ms = time_interleaved_ms(
                build_rounds,
                &mut [
                    &mut || {
                        scalar_reference_build(&s.positions, s.field, s.c, s.cell);
                    },
                    &mut || {
                        FaceMap::build(&s.positions, s.field, s.c, s.cell);
                    },
                    &mut || {
                        FaceMap::build_with_threads(&s.positions, s.field, s.c, s.cell, threads);
                    },
                ],
            );
            BuildCols {
                ref_ms: ms[0],
                serial_ms: ms[1],
                parallel_ms: ms[2],
            }
        });

        // Matches are microsecond-scale, so each timed round is a batch.
        let (rounds, batch) = if scale {
            (big_match_rounds, big_match_batch)
        } else {
            (match_rounds, match_batch)
        };
        // The scalar reference matcher reads every face's signature,
        // decoded once (the seed kept one `SignatureVector` per face).
        let signatures: Vec<SignatureVector> = if scale {
            Vec::new()
        } else {
            s.map
                .faces()
                .iter()
                .map(|f| s.map.signature(f.id))
                .collect()
        };
        let (mut basic, basic_q) = heuristic_tracker(&s, false);
        let (mut extended, extended_q) = heuristic_tracker(&s, true);
        let mut reference = || {
            for _ in 0..batch {
                std::hint::black_box(scalar_reference_match(&signatures, &s.vector));
            }
        };
        let mut exhaustive = || {
            for _ in 0..batch {
                std::hint::black_box(match_exhaustive(&s.map, &s.vector));
            }
        };
        let mut heuristic = || {
            for _ in 0..batch {
                std::hint::black_box(basic.localize(&basic_q));
            }
        };
        let mut heuristic_extended = || {
            for _ in 0..batch {
                std::hint::black_box(extended.localize(&extended_q));
            }
        };
        let mut indexed = || {
            for _ in 0..batch {
                std::hint::black_box(match_indexed(&s.map, &s.vector));
            }
        };
        let mut candidates: Vec<&mut dyn FnMut()> = vec![
            &mut exhaustive,
            &mut heuristic,
            &mut heuristic_extended,
            &mut indexed,
        ];
        if !scale {
            candidates.insert(0, &mut reference);
        }
        let mut us: Vec<f64> = time_interleaved_ms(rounds, &mut candidates)
            .into_iter()
            .map(|r| r / batch as f64 * 1e3)
            .collect();
        let match_ref_us = (!scale).then(|| us.remove(0));
        let [match_packed_us, match_heur_us, match_heur_ext_us, match_indexed_us] = us[..] else {
            unreachable!("four packed candidates")
        };
        let match_indexed_p99_us = indexed_p99_us(&s.map, &s.probes, p99_rounds);
        let round = time_round(&s, match_rounds, round_batch);

        let cols = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
        table.row(&[
            n.to_string(),
            s.map.face_count().to_string(),
            cols(build.as_ref().map(|b| b.ref_ms)),
            cols(build.as_ref().map(|b| b.serial_ms)),
            cols(build.as_ref().map(|b| b.parallel_ms)),
            cols(match_ref_us),
            format!("{match_packed_us:.1}"),
            format!("{match_heur_us:.1}"),
            format!("{match_heur_ext_us:.1}"),
            format!("{match_indexed_us:.1}"),
            format!("{match_indexed_p99_us:.1}"),
            format!("{:.1}", round.alg1_reference_us),
            format!("{:.1}", round.alg1_basic_us),
            format!("{:.1}", round.alg1_extended_us),
            format!("{:.1}", round.session_step_us),
        ]);
        rows.push(Row {
            n,
            faces: s.map.face_count(),
            cell_m: s.cell,
            build,
            match_ref_us,
            match_packed_us,
            match_heur_us,
            match_heur_ext_us,
            match_indexed_us,
            match_indexed_p99_us,
            round,
        });
        eprintln!("[perf_snapshot] n = {n} done");
    }

    // The live-churn row: median single-node repair at n = 40, cell 4 m
    // (625 cells — the finest n = 40 grid that keeps the median repair
    // sub-millisecond with real margin; cost is linear in cell count).
    // Runs after the timed tables so the repair workload never
    // interleaves with the build/match candidates.
    let repair_rounds = if cli.fast { 1 } else { 5 };
    let rebuild_rounds = if cli.fast { 1 } else { 2 };
    let repair = {
        let mut s = setup(40, 7, 4.0);
        let faces = s.map.face_count();
        let map = Arc::make_mut(&mut s.map);
        let incremental = repair_median_us(map, 40, RepairMode::Incremental, repair_rounds);
        let rebuild = repair_median_us(map, 40, RepairMode::Rebuild, rebuild_rounds);
        eprintln!("[perf_snapshot] map repair done");
        RepairRow {
            n: 40,
            faces,
            cell_m: 4.0,
            events: 2 * 40,
            incremental_median_us: incremental,
            rebuild_median_us: rebuild,
        }
    };

    table.print();
    println!();
    for r in &rows {
        if let (Some(b), Some(match_ref)) = (&r.build, r.match_ref_us) {
            println!(
                "n = {:>3}: build speedup (scalar ref / packed serial) = {:.2}x, \
                 match speedup (scalar ref / packed) = {:.2}x",
                r.n,
                b.ref_ms / b.serial_ms,
                match_ref / r.match_packed_us,
            );
        } else {
            println!(
                "n = {:>3}: indexed speedup (packed scan / indexed) = {:.2}x, \
                 indexed p99 = {:.1} µs",
                r.n,
                r.match_packed_us / r.match_indexed_us,
                r.match_indexed_p99_us,
            );
        }
    }
    for r in &rows {
        println!(
            "n = {:>3}: Algorithm 1 speedup (per-pair reference / packed basic query) = {:.2}x, \
             session step = {:.1} µs",
            r.n,
            r.round.alg1_reference_us / r.round.alg1_basic_us,
            r.round.session_step_us,
        );
    }
    println!(
        "map repair @ n = {}, cell {} m ({} events): incremental median = {:.1} µs, \
         rebuild-per-event median = {:.1} µs ({:.1}x)",
        repair.n,
        repair.cell_m,
        repair.events,
        repair.incremental_median_us,
        repair.rebuild_median_us,
        repair.rebuild_median_us / repair.incremental_median_us,
    );

    // The timing loops above ran with NO telemetry sink installed — the
    // enabled-check must stay effectively free on the hot paths. A single
    // instrumented pass afterwards populates the snapshot embedded in the
    // artifact without contaminating the timings.
    let registry = std::sync::Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(std::sync::Arc::clone(&registry));
    for n in [10usize, 20, 40] {
        let s = setup(n, 7, 1.0);
        FaceMap::build_with_threads(&s.positions, s.field, s.c, s.cell, threads);
        std::hint::black_box(match_exhaustive(&s.map, &s.vector));
        for extended in [false, true] {
            let (mut tracker, q) = heuristic_tracker(&s, extended);
            std::hint::black_box(tracker.localize(&q));
        }
        std::hint::black_box(match_indexed(&s.map, &s.vector));
    }
    {
        // One instrumented death + revive so the `fttt.map.repair.*`
        // counters land in the embedded metrics snapshot.
        let mut s = setup(40, 7, 4.0);
        let map = Arc::make_mut(&mut s.map);
        std::hint::black_box(map.kill_node(7, RepairMode::Incremental));
        std::hint::black_box(map.revive_node(7, RepairMode::Incremental));
    }
    wsn_telemetry::uninstall();
    let metrics = registry.snapshot();

    let json = render_json(&rows, &repair, threads, cli.seed, &metrics);
    if let Some(baseline_path) = &cli.check {
        // Regression-gate mode: compare against the committed baseline and
        // leave BENCH_core.json untouched (a gate run must not move its
        // own goalposts).
        std::process::exit(run_gate(&json, baseline_path));
    }
    let path = "BENCH_core.json";
    wsn_telemetry::write_file_atomic(std::path::Path::new(path), json.as_bytes())
        .expect("write BENCH_core.json");
    println!("\nwrote {path}");
}

/// Diffs the rendered fresh run against the baseline at `path`; returns
/// the process exit code (0 pass, 1 regression or unreadable baseline).
fn run_gate(fresh_json: &str, path: &std::path::Path) -> i32 {
    let baseline_text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[gate] cannot read baseline {}: {e}", path.display());
            return 1;
        }
    };
    let baseline = match wsn_telemetry::json::JsonValue::parse(&baseline_text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("[gate] baseline {} is not valid JSON: {e}", path.display());
            return 1;
        }
    };
    let fresh = wsn_telemetry::json::JsonValue::parse(fresh_json)
        .expect("perf_snapshot renders valid JSON");
    match fttt_bench::gate::check_core(&fresh, &baseline) {
        Err(e) => {
            eprintln!("[gate] structural mismatch: {e}");
            1
        }
        Ok(violations) if violations.is_empty() => {
            println!(
                "\n[gate] PASS — all gated metrics within tolerance of {}",
                path.display()
            );
            0
        }
        Ok(violations) => {
            eprintln!(
                "\n[gate] FAIL — {} regression(s) vs {}:",
                violations.len(),
                path.display()
            );
            for v in &violations {
                eprintln!("[gate]   {v}");
            }
            1
        }
    }
}

/// The `BENCH_core.json` document. The telemetry snapshot comes from a
/// separate instrumented pass (the timed loops run sink-free) and is
/// embedded under `"metrics"`.
fn render_json(
    rows: &[Row],
    repair: &RepairRow,
    threads: usize,
    seed: u64,
    metrics: &wsn_telemetry::Snapshot,
) -> String {
    json::pretty(|o| {
        o.field("bench", "perf_snapshot")
            .object("config", |c| {
                c.field("field", "100x100 m")
                    .field(
                        "cell_size_m",
                        "per row (`cell_m`): 1.0 for n <= 40, 0.5 for the match-only scale rows",
                    )
                    .field("threads", threads)
                    .field("seed", seed)
                    .field(
                        "reference",
                        "in-binary scalar seed paths: faithful port of \
                         the seed serial FaceMap::build (per-cell SignatureVector, full-vector \
                         hash grouping, centroid/neighbor passes) and the per-face \
                         difference_norm_squared + 1/sqrt exhaustive scan; round_us.alg1_reference \
                         is Algorithm 1 per pair through PairEvidence::gather with per-pair \
                         node_responded rescans; round_us.alg1_basic and alg1_extended build \
                         the round's packed query into reused buffers (QueryBuilder)",
                    );
            })
            .array("results", |a| {
                for r in rows {
                    a.object(|row| {
                        row.field("n", r.n)
                            .field("faces", r.faces)
                            .field("cell_m", r.cell_m);
                        // The build and speedup groups exist only on the
                        // full rows; the gate is presence-driven, so
                        // match-only scale rows gate match metrics alone.
                        if let Some(b) = &r.build {
                            row.object("build_ms", |g| {
                                g.field("scalar_reference", b.ref_ms)
                                    .field("packed_serial", b.serial_ms)
                                    .field("packed_parallel", b.parallel_ms);
                            });
                        }
                        row.object("match_us", |g| {
                            if let Some(match_ref) = r.match_ref_us {
                                g.field("scalar_reference", match_ref);
                            }
                            g.field("packed_exhaustive", r.match_packed_us)
                                .field("heuristic_warm", r.match_heur_us)
                                .field("heuristic_extended", r.match_heur_ext_us)
                                .field("indexed", r.match_indexed_us)
                                .field("indexed_p99", r.match_indexed_p99_us);
                        })
                        .object("round_us", |g| {
                            g.field("alg1_reference", r.round.alg1_reference_us)
                                .field("alg1_basic", r.round.alg1_basic_us)
                                .field("alg1_extended", r.round.alg1_extended_us)
                                .field("session_step", r.round.session_step_us);
                        });
                        if let (Some(b), Some(match_ref)) = (&r.build, r.match_ref_us) {
                            row.object("speedup", |g| {
                                g.field("build_serial", b.ref_ms / b.serial_ms)
                                    .field("match_exhaustive", match_ref / r.match_packed_us)
                                    .field("match_indexed", match_ref / r.match_indexed_us);
                            });
                        }
                    });
                }
                // The repair row closes the results array: same shape as
                // the others (keyed by n + cell_m) with a single
                // `map_repair_us` group, so the gate's presence-driven
                // matching gates exactly its metrics.
                a.object(|row| {
                    row.field("n", repair.n)
                        .field("faces", repair.faces)
                        .field("cell_m", repair.cell_m)
                        .object("map_repair_us", |g| {
                            g.field("incremental_median", repair.incremental_median_us)
                                .field("rebuild_median", repair.rebuild_median_us)
                                .field("events", repair.events);
                        });
                });
            })
            .object("metrics", |m| metrics.write_json(m));
    })
}
