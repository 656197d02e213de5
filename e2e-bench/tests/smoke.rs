//! Drives the `e2e-bench` binary end to end at tiny size.

use std::process::Command;

use pm_obs::trace::{parse, Value};

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Value::Arr(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name or unit: {m:?}"),
        })
        .collect()
}

/// Runs the binary and returns its exit code and parsed result line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
        .args(["--workload", workload, "--seed", "2018", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"));
    (out.status.code().expect("exited"), result)
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for workload in ["campaign-17d", "psc-verified", "privcount-registry"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (code, result) = run(workload, trace, &[]);
            assert_eq!(code, 0, "{workload} --trace {trace}: {result:?}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(num(&result, "attempted") >= 1.0);
            assert_eq!(num(&result, "failed"), 0.0);
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| match m.get("unit") {
                    Some(Value::Str(u)) => (name.clone(), u.clone()),
                    _ => panic!("{name} has no unit"),
                })
                .collect();
            assert_eq!(emitted, declared(section), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_corrupted_reference_digest_fails_the_output_check() {
    let corrupt = "0".repeat(64);
    let (code, result) = run("privcount-registry", 0, &["--reference", &corrupt]);
    assert_eq!(code, 1);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(num(&result, "failed") >= 1.0);
    assert_eq!(num(&result, "failed"), num(&result, "attempted"));
}
