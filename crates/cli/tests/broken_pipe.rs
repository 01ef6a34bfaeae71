//! `fttt-sim explain` writing into a reader that has gone away (the
//! `explain FILE | head` case) must stop quietly, not panic. The child's
//! stdout is one end of a socket pair whose other end is closed before
//! the child starts, so its first write fails with `EPIPE` whatever the
//! buffer size.
#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_fttt-sim");

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fttt-cli-{name}-{}.jsonl", std::process::id()))
}

/// Runs `fttt-sim args` with a stdout nobody reads.
fn run_into_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = UnixStream::pair().unwrap();
    drop(reader);
    Command::new(BIN)
        .args(args)
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .stderr(Stdio::piped())
        .output()
        .unwrap()
}

#[test]
fn explain_into_a_closed_pipe_exits_quietly() {
    let trace = scratch("broken-pipe");
    let recorded = Command::new(BIN)
        .args("track --nodes 8 --method fttt-heur --seed 3 --duration 5 --trace-out".split(' '))
        .arg(&trace)
        .output()
        .unwrap();
    assert!(recorded.status.success(), "{recorded:?}");
    let path = trace.to_str().unwrap();

    for args in [
        vec!["explain", path],
        vec!["explain", path, "--correlate", path],
    ] {
        let out = run_into_closed_stdout(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&trace);
}
