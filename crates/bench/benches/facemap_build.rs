//! Criterion bench: offline face-map construction (Section 4.3).
//!
//! Sweeps node count (pair dimension ∝ n²) and contrasts serial vs
//! parallel rasterization — the workload the wsn-parallel substrate
//! exists for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fttt::facemap::FaceMap;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_geometry::{Point, Rect};
use wsn_network::Deployment;
use wsn_signal::uncertainty_constant;

fn positions(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Deployment::random_uniform(n, Rect::square(100.0), &mut rng).positions()
}

fn bench_nodes(c: &mut Criterion) {
    let constant = uncertainty_constant(1.0, 4.0, 6.0);
    let field = Rect::square(100.0);
    let mut g = c.benchmark_group("facemap/nodes");
    g.sample_size(10);
    for n in [10usize, 20, 40] {
        let pos = positions(n, 3);
        g.bench_with_input(BenchmarkId::new("serial_cell2m", n), &pos, |b, pos| {
            b.iter(|| FaceMap::build(pos, field, constant, 2.0));
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let constant = uncertainty_constant(1.0, 4.0, 6.0);
    let field = Rect::square(100.0);
    let pos = positions(25, 4);
    let mut g = c.benchmark_group("facemap/threads");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| FaceMap::build_with_threads(&pos, field, constant, 1.0, threads));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_nodes, bench_parallel);
criterion_main!(benches);
