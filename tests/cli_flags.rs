//! The `ftpcloud` binary rejects a numeric flag whose value does not
//! parse: it exits 2 with a diagnostic naming the flag and the value,
//! before building any world, instead of running on the default. A
//! reader that closes stdout early (`ftpcloud … | head`) ends it quietly
//! with exit 0.

use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftpcloud"))
        .args(args)
        .output()
        .expect("ftpcloud runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unparsable_numeric_flags_exit_with_a_usage_error() {
    for (args, flag, value) in [
        (&["study", "--batch-size", "5k"][..], "--batch-size", "5k"),
        (&["funnel", "--servers", "2OO"], "--servers", "2OO"),
        (&["explain", "--seed", "-1", "--journal", "j.jsonl"], "--seed", "-1"),
        (&["honeypot", "--days", "ninety"], "--days", "ninety"),
        (&["certify", "--servers", "1e3"], "--servers", "1e3"),
        (&["notify", "--servers", "8OO"], "--servers", "8OO"),
        (&["verdicts", "--servers", "900x"], "--servers", "900x"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?} should exit 2; stderr: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: {flag} expects a number, got \"{value}\""),
            "{args:?}"
        );
        assert!(stdout.is_empty(), "{args:?} printed a report: {stdout}");
    }
}

#[test]
fn a_flag_with_no_value_is_a_usage_error() {
    let (code, _, stderr) = run(&["funnel", "--servers"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert_eq!(stderr.trim_end(), "error: --servers expects a value");
}

#[test]
fn a_closed_stdout_pipe_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftpcloud"))
        .args(["funnel", "--servers", "60", "--seed", "7"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ftpcloud runs");
    // Close the read end before the report is printed.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("ftpcloud exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
