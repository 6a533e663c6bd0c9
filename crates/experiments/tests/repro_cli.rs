//! The shipped `repro` binary, run as a user runs it: exit codes and the
//! flag a refusal names on stderr.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Asserts that `args` exits 1 and names `flag` on stderr.
fn assert_refused(args: &[&str], flag: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?} should name {flag}: {stderr}"
    );
}

#[test]
fn list_exits_zero_and_prints_experiment_ids() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "fig06"), "{stdout}");
}

#[test]
fn an_unknown_flag_is_refused() {
    assert_refused(&["list", "--io-model", "threads"], "--io-model");
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_refused() {
    assert_refused(&["campaign", "--threads", "1"], "--threads");
}
