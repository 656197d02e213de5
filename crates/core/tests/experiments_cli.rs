//! The `experiments` binary's argument handling, driven as a process.

use std::process::Command;

#[test]
fn unknown_only_ids_are_rejected_before_running() {
    // `--only` with an id the registry does not hold used to filter it
    // away silently, run zero experiments and exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "2e-4", "--only", "T1,T9,X7", "-q"])
        .output()
        .expect("run the experiments binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment id(s) T9, X7"),
        "{stderr}"
    );
    // The message lists the registry so the caller can correct the id.
    for id in torstudy::runner::registry().iter().map(|e| e.id) {
        assert!(stderr.contains(id), "known id {id} not listed: {stderr}");
    }
}

/// Runs the binary with `args` and checks it rejected them as a usage
/// error: exit status 2, nothing run, one stderr line naming `flag`.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may run: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
}

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    // An out-of-range scale must be refused before the deployment
    // asserts on it.
    assert_usage_error(&["--scale", "banana"], "--scale");
    assert_usage_error(&["--scale", "0"], "--scale");
    assert_usage_error(&["--scale", "5"], "--scale");
    assert_usage_error(&["--seed", "x"], "--seed");
    assert_usage_error(&["-q", "--seed"], "--seed");
}
