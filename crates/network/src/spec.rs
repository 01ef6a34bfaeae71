//! A small text format for fault-regime schedules and uplink settings.
//!
//! The workspace carries no serialization library, so config files go
//! through this hand-rolled parser — and, per the same
//! rule the constructors enforce, every value is range-checked **at parse
//! time**: a `node_failure=1.5` or a negative deadline is rejected with a
//! line-numbered error before anything touches the data path.
//!
//! One directive per line; `#` starts a comment; keys are `key=value`
//! tokens in any order. Node lists are comma-separated IDs; omitting
//! `nodes=` means *all* nodes.
//!
//! ```text
//! # bursty channel + a blackout window + two lying sensors
//! burst enter=0.2 exit=0.5 loss_bad=0.9
//! outage from=20 until=30
//! stuck nodes=3 from=10
//! drift nodes=4 from=0 rate=0.2
//! churn nodes=1,2 from=5 every=2.5 dead_for=5
//! static node_failure=0.1 drop=0.05 dead=5,6
//! energy battery=0.05
//! uplink loss=0.1 latency_mean=0.05 latency_std=0.02 deadline=0.2
//! ```

use crate::comms::Uplink;
use crate::energy::EnergyModel;
use crate::fault::{ConfigError, FaultModel};
use crate::node::NodeId;
use crate::regime::{RegimeEngine, RegimeKind};
use std::collections::BTreeSet;
use wsn_signal::Gaussian;

/// A parsed schedule: an ordered list of fault regimes plus an optional
/// uplink. The schedule is deployment-independent; bind it to a node count
/// with [`Schedule::engine`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Regimes in file order (= application order).
    pub regimes: Vec<RegimeKind>,
    /// Uplink between the sensors and the sink, if the file configures one.
    pub uplink: Option<Uplink>,
}

impl Schedule {
    /// Parses a schedule file, validating every value.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut schedule = Schedule::default();
        for (idx, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            parse_line(line, &mut schedule)
                .map_err(|e| ConfigError::new(format!("line {}: {}", idx + 1, e.reason())))?;
        }
        Ok(schedule)
    }

    /// Builds the regime engine for a deployment of `nodes` sensors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` (regimes themselves were validated at parse
    /// time).
    pub fn engine(&self, nodes: usize) -> RegimeEngine {
        let mut engine = RegimeEngine::new(nodes);
        for r in &self.regimes {
            engine = engine.with(r.clone());
        }
        engine
    }
}

/// The `key=value` tokens of one directive, with consumption tracking so
/// unknown keys are reported.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Fields<'a> {
    fn parse(tokens: &[&'a str]) -> Result<Self, ConfigError> {
        let mut pairs = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| ConfigError::new(format!("expected key=value, got `{tok}`")))?;
            pairs.push((k, v, false));
        }
        Ok(Self { pairs })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        for (k, v, used) in &mut self.pairs {
            if *k == key && !*used {
                *used = true;
                return Some(v);
            }
        }
        None
    }

    fn f64(&mut self, key: &str) -> Result<Option<f64>, ConfigError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| ConfigError::new(format!("{key}: cannot parse `{v}` as a number"))),
        }
    }

    fn required_f64(&mut self, key: &str) -> Result<f64, ConfigError> {
        self.f64(key)?
            .ok_or_else(|| ConfigError::new(format!("missing required key `{key}`")))
    }

    fn nodes(&mut self) -> Result<BTreeSet<NodeId>, ConfigError> {
        match self.take("nodes") {
            None => Ok(BTreeSet::new()),
            Some(list) => list
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u32>()
                        .map(NodeId)
                        .map_err(|_| ConfigError::new(format!("nodes: bad node id `{s}`")))
                })
                .collect(),
        }
    }

    fn finish(self) -> Result<(), ConfigError> {
        for (k, _, used) in &self.pairs {
            if !used {
                return Err(ConfigError::new(format!("unknown key `{k}`")));
            }
        }
        Ok(())
    }
}

fn parse_line(line: &str, schedule: &mut Schedule) -> Result<(), ConfigError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let (directive, rest) = tokens.split_first().expect("non-empty line");
    let mut f = Fields::parse(rest)?;
    match *directive {
        "static" => {
            let fault = FaultModel {
                node_failure_prob: f.f64("node_failure")?.unwrap_or(0.0),
                reading_drop_prob: f.f64("drop")?.unwrap_or(0.0),
                dead_nodes: match f.take("dead") {
                    None => BTreeSet::new(),
                    Some(list) => {
                        list.split(',')
                            .map(|s| {
                                s.trim().parse::<u32>().map(NodeId).map_err(|_| {
                                    ConfigError::new(format!("dead: bad node id `{s}`"))
                                })
                            })
                            .collect::<Result<_, _>>()?
                    }
                },
            };
            f.finish()?;
            fault.validate()?;
            schedule.regimes.push(RegimeKind::Static(fault));
        }
        "burst" => {
            let kind = RegimeKind::Burst {
                p_enter: f.required_f64("enter")?,
                p_exit: f.required_f64("exit")?,
                loss_good: f.f64("loss_good")?.unwrap_or(0.0),
                loss_bad: f.f64("loss_bad")?.unwrap_or(1.0),
            };
            f.finish()?;
            kind.validate()?;
            schedule.regimes.push(kind);
        }
        "outage" => {
            let kind = RegimeKind::Outage {
                nodes: f.nodes()?,
                from: f.required_f64("from")?,
                until: f.f64("until")?.unwrap_or(f64::INFINITY),
            };
            f.finish()?;
            kind.validate()?;
            schedule.regimes.push(kind);
        }
        "energy" => {
            let battery_j = f.required_f64("battery")?;
            let default = EnergyModel::default();
            let per_sample = f.f64("per_sample")?.unwrap_or(default.per_sample);
            let per_message = f.f64("per_message")?.unwrap_or(default.per_message);
            let idle_power = f.f64("idle")?.unwrap_or(default.idle_power);
            f.finish()?;
            for (name, v) in [
                ("per_sample", per_sample),
                ("per_message", per_message),
                ("idle", idle_power),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(ConfigError::new(format!(
                        "{name} must be non-negative joules, got {v}"
                    )));
                }
            }
            let kind = RegimeKind::EnergyDepletion {
                model: EnergyModel::new(per_sample, per_message, idle_power),
                battery_j,
            };
            kind.validate()?;
            schedule.regimes.push(kind);
        }
        "stuck" => {
            let kind = RegimeKind::StuckAt {
                nodes: f.nodes()?,
                from: f.f64("from")?.unwrap_or(0.0),
            };
            f.finish()?;
            kind.validate()?;
            schedule.regimes.push(kind);
        }
        "drift" => {
            let kind = RegimeKind::Drift {
                nodes: f.nodes()?,
                from: f.f64("from")?.unwrap_or(0.0),
                rate_db_per_s: f.required_f64("rate")?,
            };
            f.finish()?;
            kind.validate()?;
            schedule.regimes.push(kind);
        }
        "churn" => {
            let kind = RegimeKind::Churn {
                nodes: f.nodes()?,
                from: f.f64("from")?.unwrap_or(0.0),
                every: f.required_f64("every")?,
                dead_for: f.f64("dead_for")?.unwrap_or(f64::INFINITY),
            };
            f.finish()?;
            kind.validate()?;
            schedule.regimes.push(kind);
        }
        "uplink" => {
            if schedule.uplink.is_some() {
                return Err(ConfigError::new("duplicate `uplink` directive"));
            }
            let uplink = Uplink {
                loss_prob: f.f64("loss")?.unwrap_or(0.0),
                latency: Gaussian {
                    mean: f.f64("latency_mean")?.unwrap_or(0.0),
                    std: f.f64("latency_std")?.unwrap_or(0.0),
                },
                deadline: f.f64("deadline")?.unwrap_or(f64::INFINITY),
            };
            f.finish()?;
            uplink.validate()?;
            schedule.uplink = Some(uplink);
        }
        other => {
            return Err(ConfigError::new(format!(
                "unknown directive `{other}` (expected static|burst|outage|energy|stuck|drift|churn|uplink)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_schedule_parses() {
        let text = "\
# exercise every directive
burst enter=0.2 exit=0.5 loss_bad=0.9
outage nodes=0,1,2 from=20 until=30
energy battery=0.05
stuck nodes=3 from=10
drift nodes=4 from=0 rate=0.2
churn nodes=7,8 from=5 every=2.5 dead_for=5
static node_failure=0.1 drop=0.05 dead=5,6
uplink loss=0.1 latency_mean=0.05 latency_std=0.02 deadline=0.2
";
        let s = Schedule::parse(text).expect("valid schedule");
        assert_eq!(s.regimes.len(), 7);
        assert_eq!(s.engine(10).regime_count(), 7);
        let uplink = s.uplink.expect("uplink configured");
        assert_eq!(uplink.loss_prob, 0.1);
        assert_eq!(uplink.deadline, 0.2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let s = Schedule::parse("\n# nothing\n   \nburst enter=0 exit=1 # trailing\n").unwrap();
        assert_eq!(s.regimes.len(), 1);
    }

    #[test]
    fn out_of_range_probability_rejected_at_parse_time() {
        let err = Schedule::parse("static node_failure=1.5").unwrap_err();
        assert!(err.reason().contains("line 1"), "{err}");
        assert!(err.reason().contains("probability"), "{err}");
    }

    #[test]
    fn negative_deadline_rejected_at_parse_time() {
        let err = Schedule::parse("uplink deadline=-3").unwrap_err();
        assert!(err.reason().contains("deadline"), "{err}");
    }

    #[test]
    fn inverted_outage_window_rejected() {
        let err = Schedule::parse("outage from=30 until=20").unwrap_err();
        assert!(err.reason().contains("from ≤ until"), "{err}");
    }

    #[test]
    fn unknown_directive_and_key_rejected() {
        assert!(Schedule::parse("meteor strike=1")
            .unwrap_err()
            .reason()
            .contains("directive"));
        assert!(Schedule::parse("burst enter=0 exit=1 frequency=2")
            .unwrap_err()
            .reason()
            .contains("unknown key"));
    }

    #[test]
    fn missing_required_key_rejected() {
        let err = Schedule::parse("drift nodes=1").unwrap_err();
        assert!(err.reason().contains("rate"), "{err}");
    }

    #[test]
    fn bad_node_id_rejected() {
        let err = Schedule::parse("stuck nodes=1,frog").unwrap_err();
        assert!(err.reason().contains("bad node id"), "{err}");
    }

    #[test]
    fn churn_directive_parses_with_defaults() {
        let s = Schedule::parse("churn every=2.5").unwrap();
        assert_eq!(
            s.regimes,
            vec![RegimeKind::Churn {
                nodes: BTreeSet::new(),
                from: 0.0,
                every: 2.5,
                dead_for: f64::INFINITY,
            }]
        );
        let s = Schedule::parse("churn nodes=1,2 from=5 every=2.5 dead_for=5").unwrap();
        assert_eq!(
            s.regimes,
            vec![RegimeKind::Churn {
                nodes: [NodeId(1), NodeId(2)].into_iter().collect(),
                from: 5.0,
                every: 2.5,
                dead_for: 5.0,
            }]
        );
        // `every` is required; zero stagger rejected at parse time.
        assert!(Schedule::parse("churn from=5")
            .unwrap_err()
            .reason()
            .contains("every"));
        assert!(Schedule::parse("churn every=0")
            .unwrap_err()
            .reason()
            .contains("stagger"));
    }

    #[test]
    fn error_reports_correct_line() {
        let text = "burst enter=0.1 exit=0.9\nstatic drop=2.0\n";
        let err = Schedule::parse(text).unwrap_err();
        assert!(err.reason().starts_with("line 2"), "{err}");
    }
}
