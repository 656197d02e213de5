//! Protocol-level benchmarks: full PrivCount and PSC rounds, event
//! ingestion, and oblivious marking.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
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
            client_ip: IpAddr(i % 1000),
        })
        .collect()
}

fn bench_privcount_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("privcount");
    group.sample_size(20);
    for n_events in [1_000u32, 10_000] {
        group.throughput(Throughput::Elements(n_events as u64));
        group.bench_function(format!("round_3dc_3sk_{n_events}ev"), |b| {
            b.iter(|| {
                let cfg = RoundConfig {
                    counters: vec![CounterSpec::with_sigma("c", 10.0)],
                    mapper: Arc::new(|ev: &TorEvent, emit: &mut dyn FnMut(usize, i64)| {
                        if matches!(ev, TorEvent::EntryConnection { .. }) {
                            emit(0, 1);
                        }
                    }),
                    num_sks: 3,
                    noise: NoiseAllocation::Equal,
                    seed: 1,
                    threaded: false,
                    faults: Default::default(),
                    fabric: Default::default(),
                    adversary: Default::default(),
                    recorder: Default::default(),
                };
                let streams = (0..3)
                    .map(|_| EventStream::from_events(events(n_events / 3), 1))
                    .collect();
                run_round_streams(cfg, streams).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_counter_ingestion(c: &mut Criterion) {
    // Raw event→counter mapping throughput (the hot loop of a DC).
    let schema = privcount::queries::exit_streams(0.3, 1e-11);
    let ev = TorEvent::ExitStream {
        relay: RelayId(0),
        initial: true,
        addr: torsim::events::AddrKind::Hostname,
        port: torsim::events::PortClass::Web,
        domain: Some(torsim::ids::DomainId(5)),
    };
    let mut counts = vec![0i64; schema.len()];
    let mut group = c.benchmark_group("privcount");
    group.throughput(Throughput::Elements(1));
    group.bench_function("event_ingestion", |b| {
        b.iter(|| {
            (schema.mapper)(black_box(&ev), &mut |i, v| counts[i] += v);
        });
    });
    group.finish();
}

fn bench_psc_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("psc");
    group.sample_size(10);
    for (label, verify) in [("unverified", false), ("verified", true)] {
        group.bench_function(format!("round_256cells_2cp_{label}"), |b| {
            b.iter(|| {
                let cfg = PscConfig {
                    table_size: 256,
                    noise_flips_per_cp: 16,
                    num_cps: 2,
                    verify,
                    seed: 2,
                    threaded: false,
                    faults: Default::default(),
                    ..Default::default()
                };
                let streams = vec![EventStream::from_events(events(100), 1)];
                run_psc_round_streams(cfg, items::unique_client_ips(), streams).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_oblivious_marking(c: &mut Criterion) {
    use pm_crypto::elgamal::keygen;
    use pm_crypto::group::GroupParams;
    use psc::table::ObliviousTable;
    let gp = GroupParams::default_params();
    let mut rng = StdRng::seed_from_u64(3);
    let kp = keygen(&gp, &mut rng);
    let mut group = c.benchmark_group("psc");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    let mut table = ObliviousTable::new(gp, kp.public, [1u8; 32], 1 << 14);
    group.bench_function("oblivious_mark", |b| {
        b.iter(|| {
            i += 1;
            table.observe(&i.to_be_bytes(), &mut rng);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_privcount_round,
    bench_counter_ingestion,
    bench_psc_round,
    bench_oblivious_marking
);
criterion_main!(benches);
