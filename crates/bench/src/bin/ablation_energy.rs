//! Ablation: the accuracy–energy frontier over the sampling times k.
//!
//! Section 5.1 argues a small k suffices; this experiment prices it. Each
//! extra sample costs acquisition energy on every in-range node at every
//! localization, while the accuracy return diminishes (idealized model) or
//! vanishes (Gaussian model). Energy uses the IRIS-calibrated defaults of
//! `wsn_network::energy`.

use fttt::config::PaperParams;
use fttt::tracker::{Tracker, TrackerOptions};
use fttt_bench::{Cli, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsn_network::{EnergyLedger, EnergyModel};
use wsn_parallel::{par_map, seed_for};

fn frontier_point(params: &PaperParams, trials: usize, seed: u64) -> (f64, f64, f64) {
    let idx: Vec<u64> = (0..trials as u64).collect();
    let out: Vec<(f64, f64, f64)> = par_map(&idx, |_, &i| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed_for(seed, i));
        let field = params.random_field(&mut rng);
        let map = params.face_map(&field);
        let trace = params.random_trace(60.0, &mut rng);
        let sampler = params.sampler();
        let mut ledger = EnergyLedger::new(EnergyModel::default(), field.len());
        // Track and charge the ledger from the very samplings used.
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let mut localizations = Vec::new();
        for p in trace.points() {
            let group = sampler.sample(&field, p.pos, &mut rng);
            ledger.charge_grouping(&group);
            let (estimate, outcome) = tracker.localize(&tracker.query(&group));
            localizations.push((estimate.distance(p.pos), outcome));
        }
        ledger.charge_idle(trace.duration());
        let mean_err = localizations.iter().map(|l| l.0).sum::<f64>() / localizations.len() as f64;
        (mean_err, ledger.total() * 1e3, ledger.max_node() * 1e3)
    });
    let n = out.len() as f64;
    (
        out.iter().map(|o| o.0).sum::<f64>() / n,
        out.iter().map(|o| o.1).sum::<f64>() / n,
        out.iter().map(|o| o.2).sum::<f64>() / n,
    )
}

fn main() {
    let cli = Cli::parse();
    let trials = cli.trials_or(8);
    let ks = if cli.fast {
        vec![3usize, 9]
    } else {
        vec![2, 3, 5, 7, 9, 12, 16]
    };

    let mut t = Table::new(
        format!(
            "Ablation — accuracy vs energy over sampling times k (n = 15, idealized sensing, 60 s, {trials} trials)"
        ),
        &["k", "mean err (m)", "network energy (mJ)", "hottest node (mJ)"],
    );
    for &k in &ks {
        let params = PaperParams::default()
            .with_nodes(15)
            .with_samples(k)
            .with_idealized_noise();
        let (err, total_mj, max_mj) = frontier_point(&params, trials, cli.seed);
        t.row(&[
            k.to_string(),
            format!("{err:.2}"),
            format!("{total_mj:.1}"),
            format!("{max_mj:.2}"),
        ]);
        eprintln!("[ablation_energy] k = {k} done");
    }
    t.print();
    t.write_csv(&cli.out.join("ablation_energy.csv"));
    println!();
    println!("Expected shape: energy grows linearly in k (every sample is paid on");
    println!("every in-range node) while the error improvement saturates after a few");
    println!("samples — the Section-5.1 logarithmic law priced in joules. Note the");
    println!("localization period is k/λ, so larger k also means fewer (bigger)");
    println!("messages per second.");
}
