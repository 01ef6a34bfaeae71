//! Per-node energy accounting for the sampling and uplink workload.
//!
//! The paper argues FTTT achieves its accuracy "with limited system cost"
//! and that the sampling times `k` are the main dial (Section 5.1). This
//! module makes the cost side measurable: a simple energy model charging
//! each one-shot acquisition, each uplink message and idle time, with a
//! per-node ledger — enough to plot the accuracy-vs-energy frontier over
//! `k` (the `ablation_energy` experiment).

use crate::sampling::GroupSampling;

/// Energy prices, in joules, loosely calibrated to an IRIS-class mote
/// (≈8 mA active at 3 V, ≈17 mA radio TX).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per one-shot RSS acquisition.
    pub per_sample: f64,
    /// Energy per uplink message (one per responding node per grouping).
    pub per_message: f64,
    /// Idle/sleep power in watts, charged per second to every node.
    pub idle_power: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 3 V × 8 mA × 1 ms acquisition ≈ 24 µJ; a 36-byte 802.15.4 frame
        // at 250 kbps, 17 mA ≈ 59 µJ; 15 µW sleep.
        Self {
            per_sample: 24e-6,
            per_message: 59e-6,
            idle_power: 15e-6,
        }
    }
}

impl EnergyModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite prices.
    pub fn new(per_sample: f64, per_message: f64, idle_power: f64) -> Self {
        for (name, v) in [
            ("per_sample", per_sample),
            ("per_message", per_message),
            ("idle_power", idle_power),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be non-negative, got {v}"
            );
        }
        Self {
            per_sample,
            per_message,
            idle_power,
        }
    }
}

/// Accumulated per-node energy, joules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
    model: EnergyModel,
    consumed: Vec<f64>,
}

impl EnergyLedger {
    /// A fresh ledger for `nodes` sensors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(model: EnergyModel, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self {
            model,
            consumed: vec![0.0; nodes],
        }
    }

    /// Charges one grouping sampling: every delivered reading costs a
    /// sample, every responding node one message.
    ///
    /// # Panics
    ///
    /// Panics if the sampling's node count differs from the ledger's.
    pub fn charge_grouping(&mut self, group: &GroupSampling) {
        assert_eq!(
            group.node_count(),
            self.consumed.len(),
            "node count mismatch"
        );
        for j in 0..group.node_count() {
            let samples = group.column(j).flatten().count();
            if samples > 0 {
                self.consumed[j] += samples as f64 * self.model.per_sample + self.model.per_message;
            }
        }
    }

    /// Charges `seconds` of idle time to every node.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative.
    pub fn charge_idle(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "idle time must be non-negative");
        for c in &mut self.consumed {
            *c += seconds * self.model.idle_power;
        }
    }

    /// Per-node totals, joules, in ID order.
    pub fn per_node(&self) -> &[f64] {
        &self.consumed
    }

    /// Network total, joules.
    pub fn total(&self) -> f64 {
        self.consumed.iter().sum()
    }

    /// The heaviest-loaded node's consumption (the network's lifetime
    /// bottleneck under a fixed battery).
    pub fn max_node(&self) -> f64 {
        self.consumed.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_signal::Rss;

    fn group_with(readings: &[(usize, usize)]) -> GroupSampling {
        // 3 nodes × 4 instants; `readings` lists (instant, node) cells set.
        let mut g = GroupSampling::empty(3, 4);
        for &(t, j) in readings {
            g.set(t, j, Some(Rss::new(-50.0)));
        }
        g
    }

    #[test]
    fn charging_counts_samples_and_messages() {
        let model = EnergyModel::new(2.0, 10.0, 0.0);
        let mut ledger = EnergyLedger::new(model, 3);
        // Node 0: 2 samples; node 1: silent; node 2: 1 sample.
        ledger.charge_grouping(&group_with(&[(0, 0), (1, 0), (3, 2)]));
        assert_eq!(ledger.per_node(), &[14.0, 0.0, 12.0]);
        assert_eq!(ledger.total(), 26.0);
        assert_eq!(ledger.max_node(), 14.0);
    }

    #[test]
    fn silent_nodes_pay_no_message() {
        let model = EnergyModel::new(1.0, 100.0, 0.0);
        let mut ledger = EnergyLedger::new(model, 3);
        ledger.charge_grouping(&GroupSampling::empty(3, 4));
        assert_eq!(ledger.total(), 0.0);
    }

    #[test]
    fn idle_charges_everyone() {
        let model = EnergyModel::new(0.0, 0.0, 2.0);
        let mut ledger = EnergyLedger::new(model, 4);
        ledger.charge_idle(3.0);
        assert_eq!(ledger.per_node(), &[6.0; 4]);
        assert_eq!(ledger.total(), 24.0);
    }

    #[test]
    fn default_prices_are_mote_scale() {
        let m = EnergyModel::default();
        // A 60 s run at 2 localizations/s, k = 5, all 10 nodes responding:
        // dominated by sampling+radio, total well under a joule.
        let mut ledger = EnergyLedger::new(m, 10);
        let mut g = GroupSampling::empty(10, 5);
        for t in 0..5 {
            for j in 0..10 {
                g.set(t, j, Some(Rss::new(-50.0)));
            }
        }
        for _ in 0..120 {
            ledger.charge_grouping(&g);
        }
        ledger.charge_idle(60.0);
        assert!(
            ledger.total() > 0.0 && ledger.total() < 1.0,
            "total {} J",
            ledger.total()
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_price_rejected() {
        let _ = EnergyModel::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn mismatched_ledger_rejected() {
        let mut ledger = EnergyLedger::new(EnergyModel::default(), 2);
        ledger.charge_grouping(&GroupSampling::empty(3, 1));
    }
}
