//! `fttt-sim` — command-line driver for the FTTT tracking suite.
//!
//! ```text
//! fttt-sim track   [--nodes N] [--method M] [--seed S] [--duration SEC]
//!                  [--grid] [--epsilon E] [--samples K] [--render]
//! fttt-sim facemap [--nodes N] [--seed S] [--cell M] [--render]
//! fttt-sim sweep   [--method M] [--trials T] [--seed S]
//! fttt-sim campaign [--seed S] [--trials T] [--fast] [--schedule PATH]
//! fttt-sim theory  [--lambda L]
//! fttt-sim explain TRACE_FILE
//! fttt-sim replay  TRACE_FILE
//! ```
//!
//! Methods: `fttt` (default), `fttt-ext`, `fttt-heur`, `pm`, `mle`, `wcl`, `pf`, `ekf`.

mod args;
mod commands;
mod explain;
mod render;
mod replay;

use std::io::Write;

/// Writes `text` to stdout. A reader that went away (`fttt-sim explain
/// FILE | head`) ends the process quietly with status 0, where `print!`
/// would panic; any other write error is reported with status 1.
pub(crate) fn print_stdout(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", args::USAGE);
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    // `explain` and `replay` take a positional trace-file argument, not
    // options (plus `--correlate SERVER_TRACE` for explain).
    if cmd == "explain" || cmd == "replay" {
        let Some(path) = argv.first() else {
            eprintln!("error: {cmd} needs a trace file\n\n{}", args::USAGE);
            std::process::exit(2);
        };
        if cmd == "explain" {
            match argv.get(1).map(String::as_str) {
                None => explain::run(std::path::Path::new(path)),
                Some("--correlate") => {
                    let Some(server) = argv.get(2) else {
                        eprintln!(
                            "error: --correlate needs a server trace file\n\n{}",
                            args::USAGE
                        );
                        std::process::exit(2);
                    };
                    explain::run_correlate(
                        std::path::Path::new(path),
                        std::path::Path::new(server),
                    );
                }
                Some(other) => {
                    eprintln!(
                        "error: explain: unknown option `{other}`\n\n{}",
                        args::USAGE
                    );
                    std::process::exit(2);
                }
            }
        } else {
            replay::run(std::path::Path::new(path));
        }
        return;
    }
    let opts = match args::Options::parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    match cmd.as_str() {
        "track" => commands::track(&opts),
        "facemap" => commands::facemap(&opts),
        "sweep" => commands::sweep(&opts),
        "campaign" => commands::campaign(&opts),
        "theory" => commands::theory(&opts),
        "help" | "--help" | "-h" => println!("{}", args::USAGE),
        other => {
            eprintln!("error: unknown command `{other}`\n\n{}", args::USAGE);
            std::process::exit(2);
        }
    }
}
