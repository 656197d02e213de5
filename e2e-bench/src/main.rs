//! `e2e-bench`: runs one workload and prints its metrics.
//!
//! ```text
//! e2e-bench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--reference HEX]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code
//! is nonzero when an output check fails. Each op runs in a child
//! process of this binary (`--child KIND`), started one at a time.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use pm_e2e_bench::layers;
use pm_e2e_bench::workload::{self, secs_since, Size, Workload, REFERENCE_SEED};
use pm_e2e_bench::{digest_ok, median, result_json, DOMINANT_CANDIDATES, END_TO_END, PER_LAYER};
use pm_obs::{clock, Recorder};

/// Set-up-only children before each timed op (which sets up once
/// more): set-up is ~50 ms, so `setup_s` needs many samples, and
/// interleaving them spreads them over the run.
const SETUPS_PER_OP: usize = 2;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    reference: Option<String>,
    child: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut tiny = false;
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--tiny" {
            tiny = true;
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or(format!("{key} needs a value"))?;
        match key {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--reference" | "--child" => {
                map.insert(key, value)
            }
            _ => return Err(format!("unknown argument {key}")),
        };
        i += 2;
    }
    let name = map.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let number = |key: &str, default: &str| -> Result<f64, String> {
        let v = map.get(key).copied().unwrap_or(default);
        v.parse::<f64>()
            .map_err(|_| format!("{key}: not a number: {v}"))
    };
    let seed = map
        .get("--seed")
        .map_or(Ok(REFERENCE_SEED), |s| s.parse::<u64>())
        .map_err(|_| "--seed: not a whole number".to_string())?;
    let trace = match map.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds: number("--seconds", "10")?,
        trace,
        size: if tiny { Size::Tiny } else { Size::Full },
        reference: map.get("--reference").map(|s| s.to_string()),
        child: map.get("--child").map(|s| s.to_string()),
    })
}

// ---- child side: one op per process, `key value` lines on stdout ----

fn emit(out: &mut Vec<(String, String)>, key: &str, value: impl ToString) {
    out.push((key.to_string(), value.to_string()));
}

fn emit_op(out: &mut Vec<(String, String)>, op: &workload::OpResult) {
    emit(out, "wall_s", op.wall_s);
    emit(out, "rounds", op.rounds);
    emit(out, "failed_rounds", op.failed_rounds);
    emit(out, "digest", &op.digest);
    let get = |name: &str| op.snapshot.get(name).unwrap_or(0);
    emit(out, "psc.mix.cells", get("psc.mix.cells"));
    emit(out, "net.frames", get("net.frames.sent"));
    emit(out, "net.bytes", get("net.bytes.sent"));
    let failed =
        get("net.frames.dropped") + get("net.frames.duplicated") + get("net.frames.corrupted");
    emit(out, "net.frames.failed", failed);
    let events: u64 = op
        .snapshot
        .entries
        .iter()
        .filter(|(k, _)| k.starts_with("torsim.events."))
        .map(|(_, v)| *v)
        .sum();
    emit(out, "torsim.events.counted", events);
}

fn run_child(kind: &str, o: &Opts) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let recorder = if kind == "traced" {
        Recorder::with_profiling()
    } else {
        Recorder::new()
    };
    match kind {
        "setup" | "timed" | "traced" => {
            let t = clock::tick();
            let inputs = workload::setup(o.workload, o.seed, o.size, &recorder);
            emit(&mut out, "setup_s", secs_since(t));
            if kind == "setup" {
                return out;
            }
            let op = workload::run_op(inputs, &recorder);
            emit_op(&mut out, &op);
            let kb = pm_obs::rss::peak_rss_kb().unwrap_or(0);
            emit(&mut out, "peak_rss_mb", kb as f64 / 1024.0);
            if kind == "traced" {
                let totals = layers::totals(&recorder.trace_events());
                for (layer, secs) in layers::layer_seconds(&totals) {
                    emit(&mut out, layer, secs);
                }
                emit(
                    &mut out,
                    "unattributed_frac",
                    layers::unattributed_frac(&totals),
                );
                if let Some(job) = totals.get("job.run") {
                    emit(&mut out, "runner.job_max_s", job.max_s);
                }
                if let Some(check) = &op.check_recorder {
                    // psc-verified: the layer split is the unverified
                    // round's; the proofs are what verifying adds.
                    let unverified = layers::totals(&check.trace_events());
                    for (layer, secs) in layers::layer_seconds(&unverified) {
                        if layer.starts_with("psc.") {
                            emit(&mut out, layer, secs);
                        }
                    }
                    let round = |t: &BTreeMap<String, layers::SpanTotals>| {
                        t.get("round.psc").map_or(0.0, |s| s.dur_s)
                    };
                    emit(&mut out, "psc.zkp_s", round(&totals) - round(&unverified));
                }
            }
        }
        "probe" => {
            let p = workload::probe(o.workload, o.seed, o.size);
            emit(&mut out, "dp.calibrate_s", p.dp_calibrate_s);
            emit(&mut out, "dp.calibrate_calls", p.dp_calibrate_calls);
            emit(&mut out, "torsim.gen_s", p.gen_s);
            emit(&mut out, "torsim.events", p.events);
            emit(&mut out, "ingest.psc_s", p.ingest_psc_s);
            emit(&mut out, "ingest.privcount_s", p.ingest_privcount_s);
        }
        _ => panic!("unknown child kind {kind}"),
    }
    out
}

// ---- parent side ----

type ChildOut = BTreeMap<String, String>;

fn spawn(kind: &str, o: &Opts) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", o.workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.size == Size::Tiny {
        cmd.arg("--tiny");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{kind} child failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Ok(text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn num(c: &ChildOut, key: &str) -> f64 {
    c.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Checks and tallies op children: every digest must agree with the
/// first (and with the reference, if there is one).
struct Tally {
    reference: Option<String>,
    first: Option<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn op(&mut self, w: Workload, size: Size, child: &Result<ChildOut, String>) {
        let nominal = w.rounds_per_op(size);
        let c = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("op failed: {e}");
                self.attempted += nominal;
                self.failed += nominal;
                self.correct = false;
                return;
            }
        };
        let rounds = num(c, "rounds") as u64;
        let digest = c.get("digest").cloned().unwrap_or_default();
        let first = self.first.get_or_insert_with(|| digest.clone()).clone();
        self.attempted += rounds.max(nominal);
        if !digest_ok(&digest, &first, self.reference.as_deref()) {
            eprintln!(
                "output check failed: digest {digest} (first {first}, reference {:?})",
                self.reference
            );
            self.failed += rounds.max(nominal);
            self.correct = false;
        } else {
            let failed = num(c, "failed_rounds") as u64;
            self.failed += failed;
            self.correct &= failed == 0 && rounds == nominal;
        }
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &o.child {
        for (k, v) in run_child(kind, &o) {
            println!("{k} {v}");
        }
        return ExitCode::SUCCESS;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={} seed={} cores={} trace={} size={:?}: {}",
        o.workload.name(),
        o.seed,
        cores,
        u8::from(o.trace),
        o.size,
        o.workload.provenance(o.size)
    );
    let reference = o.reference.clone().or_else(|| {
        let r = o.workload.reference_digest();
        (o.seed == REFERENCE_SEED && o.size == Size::Full && !r.is_empty()).then(|| r.to_string())
    });
    let mut tally = Tally {
        reference,
        first: None,
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let metrics = if o.trace {
        traced_run(&o, &mut tally)
    } else {
        timed_run(&o, &mut tally)
    };
    if let Some(d) = &tally.first {
        println!("digest: {d}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<22} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_json(
            tally.correct,
            tally.attempted.max(1),
            tally.failed,
            &metrics
        )
    );
    if tally.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn timed_run(o: &Opts, tally: &mut Tally) -> Vec<(&'static str, f64, &'static str)> {
    let (mut setups, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let start = clock::tick();
    loop {
        for _ in 0..SETUPS_PER_OP {
            match spawn("setup", o) {
                Ok(c) => setups.push(num(&c, "setup_s")),
                Err(e) => {
                    eprintln!("set-up failed: {e}");
                    tally.correct = false;
                }
            }
        }
        let child = spawn("timed", o);
        tally.op(o.workload, o.size, &child);
        if let Ok(c) = &child {
            setups.push(num(c, "setup_s"));
            walls.push(num(c, "wall_s"));
            rss.push(num(c, "peak_rss_mb"));
        }
        if secs_since(start) >= o.seconds || child.is_err() {
            break;
        }
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let values = [med(&walls), med(&setups), med(&rss)];
    eprintln!("op wall_s: {walls:?}; setup_s: {setups:?}");
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn traced_run(o: &Opts, tally: &mut Tally) -> Vec<(&'static str, f64, &'static str)> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = clock::tick();
    loop {
        let untraced = spawn("timed", o);
        tally.op(o.workload, o.size, &untraced);
        let child = spawn("traced", o);
        tally.op(o.workload, o.size, &child);
        match (untraced, child) {
            (Ok(u), Ok(t)) => {
                plain.push(u);
                traced.push(t);
            }
            _ => break,
        }
        if secs_since(start) >= o.seconds {
            break;
        }
    }
    let probe = spawn("probe", o).unwrap_or_else(|e| {
        eprintln!("probe failed: {e}");
        tally.correct = false;
        ChildOut::new()
    });
    if traced.is_empty() {
        return PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect();
    }
    let med = |runs: &[ChildOut], key: &str| {
        median(&runs.iter().map(|c| num(c, key)).collect::<Vec<_>>())
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, _) in &PER_LAYER {
        values.insert(name, med(&traced, name));
    }
    for key in [
        "dp.calibrate_s",
        "dp.calibrate_calls",
        "torsim.gen_s",
        "ingest.psc_s",
        "ingest.privcount_s",
    ] {
        values.insert(key, num(&probe, key));
    }
    // The campaign generates its streams inside the rounds; its event
    // count is the program's own deterministic counter.
    let probed_events = num(&probe, "torsim.events");
    values.insert(
        "torsim.events",
        if probed_events > 0.0 {
            probed_events
        } else {
            med(&traced, "torsim.events.counted")
        },
    );
    values.insert(
        "trace_overhead_frac",
        med(&traced, "wall_s") / med(&plain, "wall_s") - 1.0,
    );
    let (dominant, secs) = DOMINANT_CANDIDATES
        .iter()
        .map(|&n| (n, values[n]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("candidates are listed");
    let inside = if dominant == "privcount.round_s" {
        format!(
            " (its lazy event generation, torsim.gen_s {:.3} s, and DC ingestion, \
             ingest.privcount_s {:.3} s, run inside it)",
            values["torsim.gen_s"], values["ingest.privcount_s"]
        )
    } else {
        String::new()
    };
    println!(
        "dominant layer: {dominant} = {secs:.3} s of a {:.3} s traced op{inside}",
        med(&traced, "wall_s")
    );
    eprintln!("op pairs traced: {}", traced.len());
    PER_LAYER.iter().map(|&(n, u)| (n, values[n], u)).collect()
}
