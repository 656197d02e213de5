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
//! prints the registry without running anything, and an `--only` id
//! the registry does not hold exits 2 naming it. `--trace PATH`
//! enables the wall-clock profiling plane and writes a
//! chrome://tracing trace-event file; `-q` silences progress events,
//! `-v` prints them with structured fields.
//!
//! `--fabric BACKEND` selects the transport carrying every protocol
//! frame: `per-link` (default), `single-lock`, or
//! `wire[:latency_ms[,bw_kbps]]` for real loopback TCP sockets —
//! every report is byte-identical across backends.

use pm_net::FabricChoice;
use pm_obs::{Event, Recorder, Sink, Verbosity};
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

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args[i].parse().expect("--scale takes a float in (0, 1]");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--only" => {
                i += 1;
                only = Some(args[i].split(',').map(|s| s.trim().to_string()).collect());
            }
            "--fabric" => {
                i += 1;
                fabric = FabricChoice::parse(&args[i]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown fabric '{}'; known: per-link, single-lock, \
                         wire[:latency_ms[,bw_kbps]]",
                        args[i]
                    );
                    std::process::exit(2);
                });
            }
            "--csv" => csv = true,
            "--json" => {
                i += 1;
                json = Some(args[i].clone());
            }
            "--trace" => {
                i += 1;
                trace = Some(args[i].clone());
            }
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
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(ids) = &only {
        let known: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let unknown: Vec<&str> = ids
            .iter()
            .map(String::as_str)
            .filter(|id| !known.contains(id))
            .collect();
        if !unknown.is_empty() {
            eprintln!(
                "unknown experiment id(s) {}; known: {}",
                unknown.join(", "),
                known.join(", ")
            );
            std::process::exit(2);
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
        std::fs::write(&path, reports_json(&reports)).expect("write --json output");
        sink.emit(&Event::new("wrote", format!("wrote {path}")).field("path", &path));
    }
    if let Some(path) = trace {
        recorder
            .write_trace(std::path::Path::new(&path))
            .expect("write --trace output");
        sink.emit(&Event::new("trace", format!("wrote trace {path}")).field("path", &path));
    }
    sink.emit(
        &Event::new("done", format!("{} experiment(s) completed", reports.len()))
            .field("experiments", reports.len()),
    );
}
