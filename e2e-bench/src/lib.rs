//! End-to-end and per-layer benchmark for the reproduction.
//!
//! The `e2e-bench` binary drives each workload through the workspace's
//! public APIs, checks its output, and prints every metric with its
//! unit; see `README.md` next to this package for the metric → layer
//! table. Each op runs in a fresh child process of the binary, as users
//! run the `campaign` and `experiments` binaries: peak RSS is
//! per-process, and nothing an op caches in memory carries over to the
//! next.

pub mod layers;
pub mod workload;

/// The end-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("dp.calibrate_s", "s"),
    ("dp.calibrate_calls", "count"),
    ("psc.zkp_s", "s"),
    ("psc.mix_s", "s"),
    ("psc.decrypt_s", "s"),
    ("psc.mix.cells", "count"),
    ("psc.round_s", "s"),
    ("privcount.round_s", "s"),
    ("torsim.gen_s", "s"),
    ("torsim.events", "count"),
    ("timeline.snapshot_s", "s"),
    ("ingest.psc_s", "s"),
    ("ingest.privcount_s", "s"),
    ("net.frames", "count"),
    ("net.bytes", "count"),
    ("net.frames.failed", "count"),
    ("stats.estimate_s", "s"),
    ("runner.job_max_s", "s"),
    ("runner.queue_wait_s", "s"),
    ("report.assemble_s", "s"),
    ("report.render_s", "s"),
    ("unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// Layer times that split an op without overlap, the candidates for
/// its dominant layer. Probe times that run inside a round span
/// (`torsim.gen_s`, `ingest.*`) and the per-job maximum are not.
pub const DOMINANT_CANDIDATES: [&str; 11] = [
    "dp.calibrate_s",
    "psc.zkp_s",
    "psc.mix_s",
    "psc.decrypt_s",
    "psc.round_s",
    "privcount.round_s",
    "timeline.snapshot_s",
    "stats.estimate_s",
    "runner.queue_wait_s",
    "report.assemble_s",
    "report.render_s",
];

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: one JSON object, `metrics` in the order given.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Whether an op's output digest passes: every op of a run must agree,
/// and with a reference (committed for the reference seed, or given
/// on the command line) the digest must equal it.
pub fn digest_ok(digest: &str, first: &str, reference: Option<&str>) -> bool {
    digest == first && reference.is_none_or(|r| r == digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_corrupted_reference_fails_the_digest_check() {
        let d = "ab12";
        assert!(digest_ok(d, d, Some(d)));
        assert!(digest_ok(d, d, None));
        assert!(!digest_ok(d, d, Some("ab13")));
        assert!(!digest_ok(d, "ab13", None), "repeats must agree");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 7, 0, &[("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let parsed = pm_obs::trace::parse(&line).expect("valid JSON");
        assert!(parsed.get("metrics").is_some());
    }
}
