//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * PSC zero-knowledge verification on vs off (the cost of not
//!   trusting the computation parties);
//! * PrivCount noise allocation equal-across-DCs vs first-DC-only
//!   (identical output distribution, different compromise resilience);
//! * oblivious (ElGamal) vs plaintext (hash-set) marking — the price
//!   of DC-compromise safety;
//! * PSC table size vs estimator accuracy (collision-correction cost).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use privcount::counter::CounterSpec;
use privcount::round::{run_round_streams, NoiseAllocation, RoundConfig};
use psc::items;
use psc::round::{run_psc_round_streams, PscConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::ids::{IpAddr, RelayId};
use torsim::stream::EventStream;

fn events(n: u32) -> Vec<TorEvent> {
    (0..n)
        .map(|i| TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: IpAddr(i),
        })
        .collect()
}

fn ablate_psc_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/psc_verification");
    group.sample_size(10);
    for (label, verify) in [("off", false), ("on", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = PscConfig {
                    table_size: 128,
                    noise_flips_per_cp: 8,
                    num_cps: 2,
                    verify,
                    seed: 1,
                    threaded: false,
                    faults: Default::default(),
                    ..Default::default()
                };
                let streams = vec![EventStream::from_events(events(50), 1)];
                run_psc_round_streams(cfg, items::unique_client_ips(), streams).unwrap()
            });
        });
    }
    group.finish();
}

fn ablate_noise_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/noise_allocation");
    group.sample_size(20);
    for (label, noise) in [
        ("equal", NoiseAllocation::Equal),
        ("first_dc_only", NoiseAllocation::FirstDcOnly),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = RoundConfig {
                    counters: vec![CounterSpec::with_sigma("c", 100.0)],
                    mapper: Arc::new(|ev: &TorEvent, emit: &mut dyn FnMut(usize, i64)| {
                        if matches!(ev, TorEvent::EntryConnection { .. }) {
                            emit(0, 1);
                        }
                    }),
                    num_sks: 3,
                    noise,
                    seed: 2,
                    threaded: false,
                    faults: Default::default(),
                    fabric: Default::default(),
                    adversary: Default::default(),
                    recorder: Default::default(),
                };
                let streams = (0..4)
                    .map(|_| EventStream::from_events(events(500), 1))
                    .collect();
                run_round_streams(cfg, streams).unwrap()
            });
        });
    }
    group.finish();
}

fn ablate_oblivious_vs_plaintext(c: &mut Criterion) {
    use pm_crypto::elgamal::keygen;
    use pm_crypto::group::GroupParams;
    use psc::table::ObliviousTable;
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(3);
    let kp = keygen(&gp, &mut rng);
    let mut group = c.benchmark_group("ablation/marking");
    group.sample_size(20);
    group.bench_function("oblivious_500_items", |b| {
        b.iter(|| {
            let mut table = ObliviousTable::new(gp, kp.public, [1u8; 32], 2048);
            for i in 0u64..500 {
                table.observe(&i.to_be_bytes(), &mut rng);
            }
            table.marks
        });
    });
    group.bench_function("plaintext_500_items", |b| {
        b.iter(|| {
            // The unsafe alternative the paper avoids: a plain hash set.
            let mut set = std::collections::HashSet::new();
            for i in 0u64..500 {
                set.insert(black_box(i));
            }
            set.len()
        });
    });
    group.finish();
}

fn ablate_table_size_accuracy(c: &mut Criterion) {
    // Smaller tables are cheaper but need larger collision corrections;
    // this measures the estimator (not the protocol) across table sizes.
    let mut group = c.benchmark_group("ablation/table_size_ci");
    let true_unique = 2_000u64;
    for bits in [12u32, 14, 16] {
        let bins = 1u64 << bits;
        let occupied = pm_stats::occupancy::OccupancyDist::mean_exact(bins, true_unique);
        group.bench_function(format!("2^{bits}_bins"), |b| {
            b.iter(|| {
                pm_stats::psc_ci::psc_confidence_interval(
                    black_box(bins),
                    occupied.round() as i64,
                    128,
                    0.95,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_psc_verification,
    ablate_noise_allocation,
    ablate_oblivious_vs_plaintext,
    ablate_table_size_accuracy
);
criterion_main!(benches);
