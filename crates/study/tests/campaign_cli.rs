//! The `campaign` binary's argument handling, driven as a process.

use std::process::Command;

/// Runs the binary with `args` and checks it rejected them as a usage
/// error: exit status 2, nothing run, one stderr line naming `flag`.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("run the campaign binary");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may run: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
}

#[test]
fn missing_values_exit_2_naming_the_flag() {
    // A trailing flag has no value to index.
    assert_usage_error(&["--list", "--days"], "--days");
    assert_usage_error(&["--list", "--json"], "--json");
    assert_usage_error(&["--list", "--attack"], "--attack");
}

#[test]
fn unparsable_values_exit_2_naming_the_flag() {
    assert_usage_error(&["--list", "--scale", "banana"], "--scale");
    assert_usage_error(&["--list", "--shards", "banana"], "--shards");
}

#[test]
fn out_of_range_values_exit_2_naming_the_flag() {
    // A scale outside (0, 1] must be refused before the deployment
    // asserts on it; `--days 0` would be an empty campaign.
    assert_usage_error(&["--list", "--scale", "0"], "--scale");
    assert_usage_error(&["--list", "--scale", "5"], "--scale");
    assert_usage_error(&["--list", "--days", "0"], "--days");
}
