//! End-to-end system simulation: sensors → lossy uplink → base station →
//! FTTT, with per-node energy accounting.
//!
//! This is the deployment story of the paper's Section 4.3 (results
//! "real-time aggregated and stored in the base stations") with the parts
//! a field system adds: packet loss, delivery deadlines and an energy
//! budget.
//!
//! ```sh
//! cargo run --release --example base_station
//! ```

use fttt_suite::fttt::config::PaperParams;
use fttt_suite::fttt::tracker::{Tracker, TrackerOptions};
use fttt_suite::network::{EnergyLedger, EnergyModel, Uplink};
use fttt_suite::signal::Gaussian;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let params = PaperParams::default().with_nodes(12);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let field = params.random_field(&mut rng);
    let map = params.face_map(&field);
    let trace = params.random_trace(60.0, &mut rng);
    let sampler = params.sampler();

    println!(
        "12 sensors, 60 s target, localization every {:.1} s\n",
        params.localization_period()
    );
    println!(
        "{:<34} {:>9} {:>9} {:>11} {:>12}",
        "uplink", "mean (m)", "max (m)", "delivered %", "energy (mJ)"
    );

    let cases: Vec<(String, Uplink)> = vec![
        ("ideal".into(), Uplink::ideal()),
        (
            "5% loss, 20±10 ms, 100 ms deadline".into(),
            Uplink::new(0.05, Gaussian::new(0.02, 0.01), 0.1),
        ),
        (
            "20% loss, 50±30 ms, 100 ms deadline".into(),
            Uplink::new(0.20, Gaussian::new(0.05, 0.03), 0.1),
        ),
        (
            "5% loss, 120±40 ms, 100 ms deadline".into(),
            Uplink::new(0.05, Gaussian::new(0.12, 0.04), 0.1),
        ),
    ];

    for (name, uplink) in cases {
        let mut world = ChaCha8Rng::seed_from_u64(31);
        let mut tracker = Tracker::new(map.clone(), TrackerOptions::default());
        let mut ledger = EnergyLedger::new(EnergyModel::default(), field.len());
        let mut errors = Vec::new();
        let mut sent = 0usize;
        let mut delivered = 0usize;
        for p in trace.points() {
            let sensed = sampler.sample(&field, p.pos, &mut world);
            // Sensors pay for acquisition + transmission regardless of
            // whether the sink hears them.
            ledger.charge_grouping(&sensed);
            sent += sensed.responding().iter().filter(|&&b| b).count();
            let (received, latencies) = uplink.deliver(&sensed, &mut world);
            delivered += latencies.iter().flatten().count();
            let (estimate, _) = tracker.localize(&tracker.query(&received));
            errors.push(estimate.distance(p.pos));
        }
        ledger.charge_idle(trace.duration());
        let stats = fttt_suite::fttt::error::ErrorStats::from_errors(&errors);
        println!(
            "{name:<34} {:>9.2} {:>9.2} {:>11.1} {:>12.2}",
            stats.mean,
            stats.max,
            100.0 * delivered as f64 / sent.max(1) as f64,
            ledger.total() * 1e3,
        );
    }

    println!();
    println!("Lost and late packets put their senders in the paper's N̄_r set; the");
    println!("eq.-6 rule keeps the sampling vector full-length, so accuracy decays");
    println!("with delivery rate instead of collapsing.");
}
