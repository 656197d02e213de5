//! Golden-report regression tests: the rendered output of a fixed
//! `run_some(dep, ["T1", "F1", "T2"])` run is committed under
//! `tests/golden/` and diffed on every run, so pipeline refactors
//! provably preserve experiment outputs down to the formatted digit.
//!
//! To regenerate after an *intentional* output change, run
//! `make golden` (see `tests/common/mod.rs`).

mod common;

use torstudy::deployment::Deployment;
use torstudy::runner::run_some;

const GOLDEN_PATH: &str = "tests/golden/reports_T1_F1_T2.txt";
const SCALE: f64 = 1e-4;
const SEED: u64 = 2018;

fn golden_run() -> String {
    // Shard count pinned: invariance makes it irrelevant to the output
    // (see tests/shard_invariance.rs), but pinning keeps the snapshot's
    // provenance independent of the host's core count by construction.
    let dep = Deployment::at_scale(SCALE, SEED).with_shards(4);
    let reports = run_some(&dep, &["T1", "F1", "T2"]);
    assert_eq!(reports.len(), 3);
    let mut out = String::new();
    for r in &reports {
        out.push_str(&r.render_text());
        out.push('\n');
        out.push_str(&r.render_csv());
        out.push('\n');
    }
    out
}

#[test]
fn reports_match_committed_snapshot() {
    common::assert_golden(GOLDEN_PATH, &golden_run());
}
