//! Minimal argument parsing shared by the experiment binaries.

/// Common experiment options, parsed from `std::env::args`:
/// `--seed <u64>` (default 42), `--trials <usize>` (default
/// binary-specific), `--out <dir>` (default `results/`), `--fast`
/// (binary-specific reduced workload for smoke runs), `--check <FILE>`
/// (regression-gate mode against a committed baseline; honored by
/// `perf_snapshot`, ignored by the figure binaries).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Master RNG seed; every trial derives from it deterministically.
    pub seed: u64,
    /// Number of Monte-Carlo trials per sweep point (`None`: binary picks).
    pub trials: Option<usize>,
    /// Output directory for CSV dumps.
    pub out: std::path::PathBuf,
    /// Reduced workload for smoke testing.
    pub fast: bool,
    /// Baseline artifact to gate the run against instead of writing a new
    /// one (see [`crate::gate`]).
    pub check: Option<std::path::PathBuf>,
    /// Golden-checksum gate: recompute the campaign checksum and compare
    /// against the committed baseline instead of writing artifacts; exit
    /// non-zero on drift.
    pub check_determinism: bool,
    /// Run the live-topology-churn campaign (three map-repair policies
    /// under a death/birth storm) instead of the built-in sweep
    /// (`fault_campaign` only).
    pub churn: bool,
    /// Override for the golden-checksum baseline path (default:
    /// `crates/bench/baselines/robustness_checksums.json`).
    pub checksum_baseline: Option<std::path::PathBuf>,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            seed: 42,
            trials: None,
            out: "results".into(),
            fast: false,
            check: None,
            check_determinism: false,
            churn: false,
            checksum_baseline: None,
        }
    }
}

/// The options every experiment binary accepts.
const USAGE: &str = "usage: [--seed N] [--trials N] [--out DIR] [--fast] [--churn] \
                     [--check BASELINE.json] [--check-determinism] [--checksum-baseline FILE]";

impl Cli {
    /// Parses the process arguments. On a malformed argument, prints what
    /// is wrong and the usage to stderr and exits with code 2.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Errors
    ///
    /// Names the argument at fault: an unknown flag, a flag missing its
    /// value, or a value that does not parse.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "--seed" => {
                    let v = value("a value")?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| format!("--seed must be a u64, got {v:?}"))?;
                }
                "--trials" => {
                    let v = value("a value")?;
                    cli.trials = Some(
                        v.parse()
                            .map_err(|_| format!("--trials must be a usize, got {v:?}"))?,
                    );
                }
                "--out" => cli.out = value("a value")?.into(),
                "--fast" => cli.fast = true,
                "--check" => cli.check = Some(value("a baseline path")?.into()),
                "--check-determinism" => cli.check_determinism = true,
                "--churn" => cli.churn = true,
                "--checksum-baseline" => {
                    cli.checksum_baseline = Some(value("a baseline path")?.into());
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }

    /// The trial count to use given a binary default.
    pub fn trials_or(&self, default: usize) -> usize {
        let t = self.trials.unwrap_or(default);
        if self.fast {
            t.div_ceil(4).max(1)
        } else {
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Cli {
        try_parse(args).expect("valid arguments")
    }

    #[test]
    fn defaults() {
        let c = parse(&[]);
        assert_eq!(c.seed, 42);
        assert_eq!(c.trials, None);
        assert!(!c.fast);
        assert_eq!(c.trials_or(10), 10);
    }

    #[test]
    fn explicit_values() {
        let c = parse(&["--seed", "7", "--trials", "3", "--out", "/tmp/x", "--fast"]);
        assert_eq!(c.seed, 7);
        assert_eq!(c.trials, Some(3));
        assert_eq!(c.out, std::path::PathBuf::from("/tmp/x"));
        assert!(c.fast);
        assert!(c.check.is_none());
        assert_eq!(c.trials_or(10), 1);
    }

    #[test]
    fn check_takes_a_baseline_path() {
        let c = parse(&["--check", "baselines/core.json"]);
        assert_eq!(
            c.check,
            Some(std::path::PathBuf::from("baselines/core.json"))
        );
    }

    #[test]
    fn fast_divides_defaults() {
        let c = parse(&["--fast"]);
        assert_eq!(c.trials_or(20), 5);
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = try_parse(&["--nope"]).unwrap_err();
        assert!(err.contains("unknown argument --nope"), "{err}");
    }

    #[test]
    fn bad_values_are_named_errors() {
        let err = try_parse(&["--seed", "x"]).unwrap_err();
        assert!(err.contains("--seed must be a u64"), "{err}");
        let err = try_parse(&["--trials"]).unwrap_err();
        assert!(err.contains("--trials needs a value"), "{err}");
    }

    #[test]
    fn determinism_flags_parse() {
        let c = parse(&["--check-determinism", "--checksum-baseline", "b.json"]);
        assert!(c.check_determinism);
        assert_eq!(
            c.checksum_baseline,
            Some(std::path::PathBuf::from("b.json"))
        );
        let d = parse(&[]);
        assert!(!d.check_determinism);
        assert!(!d.churn);
    }

    #[test]
    fn churn_flag_parses() {
        assert!(parse(&["--churn"]).churn);
    }
}
