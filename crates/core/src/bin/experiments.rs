//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p torstudy --bin experiments -- \
//!     [--scale S] [--seed N] [--only T4,F1] [--fabric BACKEND] \
//!     [--csv] [--json PATH] [--trace PATH] [-q | -v] [--list]
//! ```
//!
//! Scale 1.0 reproduces paper-scale totals (minutes of runtime and
//! gigabytes of events); the default 0.01 keeps every statistic's
//! signal-to-noise ratio while running in seconds. `--json PATH`
//! writes the machine-readable document (same schema as the
//! `campaign` binary's) alongside whatever goes to stdout; `--list`
//! prints the registry without running anything. `--trace PATH`
//! enables the wall-clock profiling plane and writes a
//! chrome://tracing trace-event file; `-q` silences progress events,
//! `-v` prints them with structured fields. A usage error (an unknown
//! flag or `--only` id, or a missing, unparsable or out-of-range
//! value) prints one line naming it and exits 2.
//!
//! `--fabric BACKEND` selects the transport carrying every protocol
//! frame: `per-link` (default), `single-lock`, or
//! `wire[:latency_ms[,bw_kbps]]` for real loopback TCP sockets —
//! every report is byte-identical across backends.

use pm_net::FabricChoice;
use pm_obs::{Event, Recorder, Sink, Verbosity};
use torstudy::cli::{usage_error, Args};
use torstudy::report::reports_json;
use torstudy::runner::{registry, run_all, run_some};
use torstudy::Deployment;

fn main() {
    let mut scale = 0.01f64;
    let mut seed = 2018u64;
    let mut only: Option<Vec<String>> = None;
    let mut fabric = FabricChoice::default();
    let mut csv = false;
    let mut json: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut verbosity = Verbosity::Normal;
    let mut list = false;

    let mut args = Args::from_env();
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--scale" => {
                scale = args.parsed("--scale", "a float in (0, 1]", |s| {
                    Deployment::valid_scale(*s)
                })
            }
            "--seed" => seed = args.parsed("--seed", "an integer ≥ 0", |_| true),
            "--only" => {
                only = Some(
                    args.value("--only")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--fabric" => {
                let name = args.value("--fabric");
                fabric = FabricChoice::parse(&name).unwrap_or_else(|| {
                    usage_error(format!(
                        "unknown fabric '{name}'; known: per-link, single-lock, \
                         wire[:latency_ms[,bw_kbps]]"
                    ))
                });
            }
            "--csv" => csv = true,
            "--json" => json = Some(args.value("--json")),
            "--trace" => trace = Some(args.value("--trace")),
            "-q" | "--quiet" => verbosity = Verbosity::Quiet,
            "-v" | "--verbose" => verbosity = Verbosity::Verbose,
            "--list" => list = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--scale S] [--seed N] [--only T4,F1,...] \
                     [--fabric per-link|single-lock|wire[:latency_ms[,bw_kbps]]] \
                     [--csv] [--json PATH] [--trace PATH] [-q | -v] [--list]"
                );
                return;
            }
            other => usage_error(format!("unknown argument: {other}")),
        }
    }

    if let Some(ids) = &only {
        let known: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let unknown: Vec<&str> = ids
            .iter()
            .map(String::as_str)
            .filter(|id| !known.contains(id))
            .collect();
        if !unknown.is_empty() {
            usage_error(format!(
                "unknown experiment id(s) {}; known: {}",
                unknown.join(", "),
                known.join(", ")
            ));
        }
    }

    if list {
        for entry in registry() {
            println!(
                "{}\t{:?}\t{}h",
                entry.id, entry.system, entry.duration_hours
            );
        }
        return;
    }

    let sink = Sink::new(verbosity);
    let recorder = if trace.is_some() {
        Recorder::with_profiling()
    } else {
        Recorder::new()
    };
    sink.emit(
        &Event::new(
            "deployment",
            format!("deployment: 16 relays, 1 TS, 3 SKs, 3 CPs; scale {scale}, seed {seed}"),
        )
        .field("scale", scale)
        .field("seed", seed),
    );
    let dep = Deployment::at_scale(scale, seed)
        .with_recorder(recorder.clone())
        .with_fabric(fabric);
    let reports = match &only {
        Some(ids) => {
            let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
            run_some(&dep, &refs)
        }
        None => run_all(&dep),
    };
    for report in &reports {
        if csv {
            print!("{}", report.render_csv());
        } else {
            println!("{report}");
        }
    }
    if let Some(path) = json {
        if let Err(err) = std::fs::write(&path, reports_json(&reports)) {
            eprintln!("cannot write --json output {path}: {err}");
            std::process::exit(1);
        }
        sink.emit(&Event::new("wrote", format!("wrote {path}")).field("path", &path));
    }
    if let Some(path) = trace {
        if let Err(err) = recorder.write_trace(std::path::Path::new(&path)) {
            eprintln!("cannot write --trace output {path}: {err}");
            std::process::exit(1);
        }
        sink.emit(&Event::new("trace", format!("wrote trace {path}")).field("path", &path));
    }
    sink.emit(
        &Event::new("done", format!("{} experiment(s) completed", reports.len()))
            .field("experiments", reports.len()),
    );
}
