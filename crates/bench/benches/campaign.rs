//! Longitudinal-campaign benchmarks: calendar length × ingestion shard
//! count, plus sequential vs parallel round execution. Results are
//! printed and exported to `BENCH_study.json` at the workspace root.
//! The campaign's PSC rounds dominate each iteration; sharding and
//! round-parallelism are transcript-invariant (pinned by
//! `crates/study/tests/campaign_invariance.rs`), so the sweep measures
//! pure execution shape. Expect parity on a single-core container and
//! speedup on real hardware.

use criterion::{Criterion, Measurement};
use pm_bench::BENCH_SCALE;
use pm_study::{Campaign, CampaignConfig};

/// Calendar lengths the sweep covers: the short calendar (three
/// client-IP rounds incl. the 96h churn round) and the full one (adds
/// the PrivCount traffic and PSC country rounds plus the two-day
/// exit-domain and onion-service windows, so BENCH_study.json carries
/// exit/onion-bearing rows).
const DAY_SWEEP: [u64; 2] = [7, 17];
/// Ingestion shard counts.
const SHARD_SWEEP: [usize; 3] = [1, 4, 8];

fn bench_campaign(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for days in DAY_SWEEP {
        let mut group = c.benchmark_group(format!("campaign_{days}d"));
        group.sample_size(5);
        for shards in SHARD_SWEEP {
            group.bench_function(format!("shards_{shards}"), |b| {
                let campaign =
                    Campaign::new(CampaignConfig::new(days, BENCH_SCALE, 2018).with_shards(shards));
                b.iter(|| campaign.run(cores));
            });
        }
        // Sequential vs parallel round execution at the default shards.
        group.bench_function("rounds_sequential", |b| {
            let campaign = Campaign::new(CampaignConfig::new(days, BENCH_SCALE, 2018));
            b.iter(|| campaign.run(1));
        });
        group.bench_function(format!("rounds_parallel_{cores}"), |b| {
            let campaign = Campaign::new(CampaignConfig::new(days, BENCH_SCALE, 2018));
            b.iter(|| campaign.run(cores));
        });
        group.finish();
    }
}

fn export_json(measurements: &[Measurement]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"bench_scale\": {BENCH_SCALE},\n"));
    json.push_str("  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"samples\": {}}}{}\n",
            m.id,
            m.median_ns,
            m.samples,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_study.json");
    std::fs::write(&path, json).expect("write BENCH_study.json");
    println!("wrote {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_campaign(&mut criterion);
    export_json(&criterion.take_measurements());
}
