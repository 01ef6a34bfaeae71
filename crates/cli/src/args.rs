//! Argument parsing for `fttt-sim`.

use fttt_bench::MethodKind;

/// Serialization format for the `--metrics-out` snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Structured JSON document (the default).
    Json,
    /// Prometheus exposition text.
    Prom,
}

/// Usage text printed on `help` or malformed input.
pub const USAGE: &str = "\
fttt-sim — FTTT fault-tolerant target tracking simulator

USAGE:
    fttt-sim <COMMAND> [OPTIONS]

COMMANDS:
    track     run one tracking simulation and report per-point errors
    facemap   build a face map and print its statistics
    sweep     Monte-Carlo sweep of the node count for one method
    campaign  fault campaign: self-healing sessions across fault regimes
    theory    print the Section-5 sampling-times table
    explain   render a human-readable timeline from a --trace-out file;
              `explain CLIENT --correlate SERVER` joins a client trace
              (serve_load --connect ADDR --trace-out CLIENT) against
              the server journal by wire trace id
              and names the server-side cause of each slow push
    replay    re-run a campaign recorded with --trace-out and diff every
              round against the recording (exit 1 on divergence)
    help      show this message

OPTIONS:
    --nodes <N>       number of sensors            (default 10)
    --method <M>      fttt|fttt-ext|fttt-heur|pm|mle|wcl|pf|ekf (default fttt)
    --seed <S>        master RNG seed              (default 42)
    --duration <SEC>  trace duration in seconds    (default 60)
    --grid            regular grid deployment      (default: uniform random)
    --epsilon <E>     sensing resolution, dBm      (default 1.0)
    --samples <K>     grouping sampling times      (default 5)
    --cell <M>        raster cell size, metres     (default 1.0)
    --trials <T>      Monte-Carlo trials (sweep)   (default 10)
    --lambda <L>      confidence level (theory)    (default 0.99)
    --idealized       idealized bounded-noise sensing model
    --render          ASCII-render the field/trajectory
    --save <PATH>     (facemap) write the built map to a binary file
    --load <PATH>     (facemap) load a map instead of building one
    --fast            (campaign) reduced smoke workload
    --schedule <PATH> (campaign) run one regime-schedule file instead of
                      the built-in sweep (see DESIGN.md for the format)
    --metrics-out <PATH>
                      (track/campaign) collect telemetry during the run,
                      print a metrics table and write the snapshot
    --metrics-format <F>
                      (track/campaign) snapshot format for --metrics-out:
                      json (default) or prom (Prometheus exposition text)
    --trace-out <PATH>
                      (track/campaign) record a structured trace journal
                      and write it on exit; `.jsonl` extension selects
                      line-delimited JSON, anything else a Chrome
                      trace-event file loadable in Perfetto / about:tracing
";

/// Parsed options (flat across subcommands; each uses what it needs).
#[derive(Debug, Clone)]
pub struct Options {
    pub nodes: usize,
    pub method: MethodKind,
    pub seed: u64,
    pub duration: f64,
    pub grid: bool,
    pub epsilon: f64,
    pub samples: usize,
    pub cell: f64,
    pub trials: usize,
    pub lambda: f64,
    pub idealized: bool,
    pub render: bool,
    pub save: Option<std::path::PathBuf>,
    pub load: Option<std::path::PathBuf>,
    pub fast: bool,
    pub schedule: Option<std::path::PathBuf>,
    pub metrics_out: Option<std::path::PathBuf>,
    pub metrics_format: MetricsFormat,
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            nodes: 10,
            method: MethodKind::FtttBasic,
            seed: 42,
            duration: 60.0,
            grid: false,
            epsilon: 1.0,
            samples: 5,
            cell: 1.0,
            trials: 10,
            lambda: 0.99,
            idealized: false,
            render: false,
            save: None,
            load: None,
            fast: false,
            schedule: None,
            metrics_out: None,
            metrics_format: MetricsFormat::Json,
            trace_out: None,
        }
    }
}

impl Options {
    /// Parses `argv` (already stripped of the subcommand).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut o = Self::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--nodes" => o.nodes = parse_num(&value("--nodes")?, "--nodes")?,
                "--method" => o.method = parse_method(&value("--method")?)?,
                "--seed" => o.seed = parse_num(&value("--seed")?, "--seed")?,
                "--duration" => o.duration = parse_num(&value("--duration")?, "--duration")?,
                "--grid" => o.grid = true,
                "--epsilon" => o.epsilon = parse_num(&value("--epsilon")?, "--epsilon")?,
                "--samples" => o.samples = parse_num(&value("--samples")?, "--samples")?,
                "--cell" => o.cell = parse_num(&value("--cell")?, "--cell")?,
                "--trials" => o.trials = parse_num(&value("--trials")?, "--trials")?,
                "--lambda" => o.lambda = parse_num(&value("--lambda")?, "--lambda")?,
                "--idealized" => o.idealized = true,
                "--render" => o.render = true,
                "--save" => o.save = Some(value("--save")?.into()),
                "--load" => o.load = Some(value("--load")?.into()),
                "--fast" => o.fast = true,
                "--schedule" => o.schedule = Some(value("--schedule")?.into()),
                "--metrics-out" => o.metrics_out = Some(value("--metrics-out")?.into()),
                "--metrics-format" => {
                    o.metrics_format = match value("--metrics-format")?.as_str() {
                        "json" => MetricsFormat::Json,
                        "prom" => MetricsFormat::Prom,
                        other => {
                            return Err(format!(
                                "--metrics-format: unknown format `{other}` (json|prom)"
                            ))
                        }
                    }
                }
                "--trace-out" => o.trace_out = Some(value("--trace-out")?.into()),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if o.nodes < 2 {
            return Err("--nodes must be at least 2".into());
        }
        if o.samples == 0 {
            return Err("--samples must be at least 1".into());
        }
        Ok(o)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{name}: cannot parse `{s}`"))
}

fn parse_method(s: &str) -> Result<MethodKind, String> {
    Ok(match s {
        "fttt" => MethodKind::FtttBasic,
        "fttt-ext" => MethodKind::FtttExtended,
        "fttt-heur" => MethodKind::FtttHeuristic,
        "pm" => MethodKind::Pm,
        "mle" => MethodKind::DirectMle,
        "wcl" => MethodKind::Wcl,
        "pf" => MethodKind::ParticleFilter,
        "ekf" => MethodKind::Ekf,
        other => return Err(format!("unknown method `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.nodes, 10);
        assert_eq!(o.method, MethodKind::FtttBasic);
        assert!(!o.grid);
    }

    #[test]
    fn full_line() {
        let o = parse(&[
            "--nodes",
            "25",
            "--method",
            "pm",
            "--seed",
            "7",
            "--duration",
            "30",
            "--grid",
            "--epsilon",
            "2.5",
            "--samples",
            "9",
            "--cell",
            "0.5",
            "--trials",
            "4",
            "--lambda",
            "0.999",
            "--idealized",
            "--render",
        ])
        .unwrap();
        assert_eq!(o.nodes, 25);
        assert_eq!(o.method, MethodKind::Pm);
        assert_eq!(o.seed, 7);
        assert_eq!(o.duration, 30.0);
        assert!(o.grid && o.idealized && o.render);
        assert_eq!(o.epsilon, 2.5);
        assert_eq!(o.samples, 9);
        assert_eq!(o.cell, 0.5);
        assert_eq!(o.trials, 4);
        assert_eq!(o.lambda, 0.999);
    }

    #[test]
    fn every_method_parses() {
        for (name, kind) in [
            ("fttt", MethodKind::FtttBasic),
            ("fttt-ext", MethodKind::FtttExtended),
            ("fttt-heur", MethodKind::FtttHeuristic),
            ("pm", MethodKind::Pm),
            ("mle", MethodKind::DirectMle),
            ("wcl", MethodKind::Wcl),
            ("pf", MethodKind::ParticleFilter),
            ("ekf", MethodKind::Ekf),
        ] {
            assert_eq!(parse(&["--method", name]).unwrap().method, kind);
        }
    }

    #[test]
    fn metrics_out_parses() {
        let o = parse(&["--metrics-out", "m.json"]).unwrap();
        assert_eq!(o.metrics_out, Some(std::path::PathBuf::from("m.json")));
        assert!(parse(&[]).unwrap().metrics_out.is_none());
        assert!(parse(&["--metrics-out"]).is_err());
    }

    #[test]
    fn metrics_format_parses() {
        assert_eq!(parse(&[]).unwrap().metrics_format, MetricsFormat::Json);
        assert_eq!(
            parse(&["--metrics-format", "json"]).unwrap().metrics_format,
            MetricsFormat::Json
        );
        assert_eq!(
            parse(&["--metrics-format", "prom"]).unwrap().metrics_format,
            MetricsFormat::Prom
        );
        assert!(parse(&["--metrics-format", "xml"]).is_err());
        assert!(parse(&["--metrics-format"]).is_err());
    }

    #[test]
    fn trace_out_parses() {
        let o = parse(&["--trace-out", "run.trace.json"]).unwrap();
        assert_eq!(
            o.trace_out,
            Some(std::path::PathBuf::from("run.trace.json"))
        );
        assert!(parse(&[]).unwrap().trace_out.is_none());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--nodes"]).is_err());
        assert!(parse(&["--nodes", "abc"]).is_err());
        assert!(parse(&["--nodes", "1"]).is_err());
        assert!(parse(&["--method", "kalman"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
