//! Reduces a profiling trace to per-layer self-time.
//!
//! A span's self-time is its duration minus the part of it that child
//! spans on the same thread cover. Spans are guards that record on
//! drop, so on one thread they nest strictly; µs rounding can make a
//! child end a microsecond after its parent, which is clipped.

use std::collections::BTreeMap;

use pm_obs::profile::TraceEvent;

/// The per-layer metric a span's self-time is charged to, if any.
pub fn layer_of(span: &str) -> Option<&'static str> {
    match span {
        "mix.derive" | "mix.batch" | "mix.sequential" => Some("psc.mix_s"),
        "mix.decrypt" => Some("psc.decrypt_s"),
        "round.psc" => Some("psc.round_s"),
        "round.privcount" => Some("privcount.round_s"),
        "job.queue_wait" => Some("runner.queue_wait_s"),
        "stats.estimate" => Some("stats.estimate_s"),
        "report.assemble" => Some("report.assemble_s"),
        "report.render" => Some("report.render_s"),
        s if s.starts_with("timeline.") || s.starts_with("day.") => Some("timeline.snapshot_s"),
        _ => None,
    }
}

/// Per-span-name totals, in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Sum of durations.
    pub dur_s: f64,
    /// Sum of self-times.
    pub self_s: f64,
    /// Longest single span.
    pub max_s: f64,
}

/// Self-time of every event, in µs, index-aligned with `events`.
pub fn self_times(events: &[TraceEvent]) -> Vec<u64> {
    let mut self_us: Vec<u64> = events.iter().map(|e| e.dur).collect();
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Per thread, by start; a parent starting in the same µs as its
    // child is the longer of the two.
    order.sort_by_key(|&i| {
        (
            events[i].tid,
            events[i].ts,
            std::cmp::Reverse(events[i].dur),
        )
    });
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for i in order {
        let e = &events[i];
        if tid != Some(e.tid) {
            stack.clear();
            tid = Some(e.tid);
        }
        while let Some(&top) = stack.last() {
            if events[top].ts + events[top].dur > e.ts {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            let parent_end = events[parent].ts + events[parent].dur;
            let covered = (e.ts + e.dur).min(parent_end) - e.ts;
            self_us[parent] = self_us[parent].saturating_sub(covered);
        }
        stack.push(i);
    }
    self_us
}

/// Totals per span name.
pub fn totals(events: &[TraceEvent]) -> BTreeMap<String, SpanTotals> {
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (e, s) in events.iter().zip(self_times(events)) {
        let t = out.entry(e.name.clone()).or_default();
        let dur = e.dur as f64 / 1e6;
        t.dur_s += dur;
        t.self_s += s as f64 / 1e6;
        t.max_s = t.max_s.max(dur);
    }
    out
}

/// Seconds of self-time per layer metric (thread-seconds: concurrent
/// spans on different threads add up).
pub fn layer_seconds(totals: &BTreeMap<String, SpanTotals>) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals {
        if let Some(layer) = layer_of(name) {
            *out.entry(layer).or_insert(0.0) += t.self_s;
        }
    }
    out
}

/// The share of the work roots' time that no child span covers. Work
/// roots are the `job.run` spans when the op ran on the job runner,
/// else the harness's `bench.op` span: a thread blocked on the runner
/// is waiting, not working.
pub fn unattributed_frac(totals: &BTreeMap<String, SpanTotals>) -> f64 {
    let root = if totals.contains_key("job.run") {
        "job.run"
    } else {
        "bench.op"
    };
    match totals.get(root) {
        Some(t) if t.dur_s > 0.0 => t.self_s / t.dur_s,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "t".into(),
            ts,
            dur,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_thread_only() {
        let events = vec![
            ev("job.run", 1, 0, 100),
            ev("round.psc", 1, 10, 50),
            ev("mix.batch", 1, 20, 30),
            // A span on another thread overlapping the job is no child.
            ev("round.privcount", 2, 0, 80),
            // A child that ends 1 µs past its parent is clipped.
            ev("report.render", 1, 90, 11),
        ];
        assert_eq!(self_times(&events), vec![40, 20, 30, 80, 11]);
        let t = totals(&events);
        let layers = layer_seconds(&t);
        assert_eq!(layers["psc.round_s"], 20e-6);
        assert_eq!(layers["psc.mix_s"], 30e-6);
        assert_eq!(layers["privcount.round_s"], 80e-6);
        assert!((unattributed_frac(&t) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn grouping_spans_are_not_layers() {
        for name in ["bench.op", "campaign.run", "job.run"] {
            assert_eq!(layer_of(name), None);
        }
        assert_eq!(layer_of("day.client_ips"), Some("timeline.snapshot_s"));
    }
}
