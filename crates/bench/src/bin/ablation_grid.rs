//! Ablation: raster cell size of the approximate grid division
//! (Section 4.3).
//!
//! Finer cells shrink the intra-face error but inflate the offline build.
//! This sweep exposes the trade-off the paper's adaptive-division follow-up
//! work (\[29\]) optimizes.

use fttt::PaperParams;
use fttt_bench::{trial_stats, Cli, MethodKind, Scenario, Table};
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    let trials = cli.trials_or(8);
    let cells = if cli.fast {
        vec![4.0, 1.0]
    } else {
        vec![8.0, 4.0, 2.0, 1.0, 0.5]
    };

    let mut t = Table::new(
        format!("Ablation — grid cell size (n = 15, k = 5, ε = 1, {trials} trials)"),
        &["cell (m)", "faces", "build (ms)", "mean err (m)", "std (m)"],
    );
    for &cell in &cells {
        let params = PaperParams::default().with_nodes(15).with_cell_size(cell);
        // Face count / build time measured on one representative world.
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(cli.seed);
        let field = params.random_field(&mut rng);
        let t0 = Instant::now();
        let map = params.face_map(&field);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let scenario = Scenario::new(params);
        let agg = trial_stats(&scenario, MethodKind::FtttBasic, trials, cli.seed);
        t.row(&[
            format!("{cell}"),
            map.face_count().to_string(),
            format!("{build_ms:.0}"),
            format!("{:.2}", agg.mean_error),
            format!("{:.2}", agg.mean_std),
        ]);
        eprintln!("[ablation_grid] cell = {cell} done");
    }
    t.print();
    t.write_csv(&cli.out.join("ablation_grid.csv"));
    println!();
    println!("Expected shape: error falls with finer cells until the inter-face error");
    println!("dominates (≈1–2 m cells), while build cost grows quadratically.");
}
