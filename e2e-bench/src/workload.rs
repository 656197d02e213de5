//! The three workloads: their inputs, the op each times, the output
//! digest each op is checked by, and the layer probes.

use std::sync::Arc;

use pm_obs::clock::{self, Tick};
use pm_obs::{MetricsSnapshot, Recorder};
use pm_stats::sampling::derive_seed;
use pm_study::{Campaign, CampaignConfig, CampaignReport};
use privcount::counter::Schema;
use privcount::queries::{self, CountryStat};
use psc::PscConfig;
use torsim::ids::{OnionAddr, RelayId};
use torsim::stream::{EventStream, ShardFn, StreamSim};
use torsim::TorEvent;
use torstudy::experiments::{client_ip_stream, client_traffic_streams, psc_round};
use torstudy::Deployment;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 study: the full 17-day campaign calendar.
    Campaign17d,
    /// One unique-client-IP PSC round with its zero-knowledge proofs.
    PscVerified,
    /// The ten PrivCount experiments of the registry.
    PrivcountRegistry,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 3] = [
    Workload::Campaign17d,
    Workload::PscVerified,
    Workload::PrivcountRegistry,
];

/// The registry's PrivCount experiments, in registry order.
pub const PRIVCOUNT_IDS: [&str; 10] = ["T1", "F1", "F2", "F3", "T4", "F4", "T7", "T8", "X1", "X2"];

/// The seed whose output digests are committed in [`reference_digest`].
pub const REFERENCE_SEED: u64 = 2018;

/// The campaign's PSC rounds' noise sensitivities k (ips-a, ips-b,
/// ips-4day, countries, domains, onions), as `pm_study` calibrates them.
const CAMPAIGN_PSC_K: [u64; 6] = [4, 4, 12, 4, 40, 6];
/// Table 1's one-day new-IP bound, the psc-verified round's k.
const IP_ROUND_K: u64 = 4;
/// The δ every PSC round calibrates its binomial noise at.
const PSC_DELTA: f64 = 1e-6;
/// Worker threads of the campaign run; ingestion shards are 1.
pub const CAMPAIGN_WORKERS: usize = 2;

impl Workload {
    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign17d => "campaign-17d",
            Workload::PscVerified => "psc-verified",
            Workload::PrivcountRegistry => "privcount-registry",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds one op runs; the unit of `attempted` and `failed`.
    pub fn rounds_per_op(self, size: Size) -> u64 {
        match (self, size) {
            (Workload::Campaign17d, Size::Full) => 7,
            (Workload::Campaign17d, Size::Tiny) => 3,
            (Workload::PscVerified, _) => 1,
            // T1 runs no round; F2 and F3 two each; F4 three.
            (Workload::PrivcountRegistry, _) => 13,
        }
    }

    /// The committed output digest for [`REFERENCE_SEED`] at full size.
    pub fn reference_digest(self) -> &'static str {
        match self {
            Workload::Campaign17d => {
                "515f610b50854add3429c3742cf43073542999835031deec7a7d6fdeb2cd4de3"
            }
            Workload::PscVerified => {
                "3640f040531c3171e3ae5cf84aa024bb00c6469a1f0d9d17cf97d83fbaa34fab"
            }
            Workload::PrivcountRegistry => {
                "671d87b2f73c5148a8c918803c1d1935e45668379ef5234371ce0ac2f2a43b52"
            }
        }
    }

    /// One line of provenance: what the op runs, at which parameters.
    pub fn provenance(self, size: Size) -> String {
        let p = Params::of(self, size);
        match self {
            Workload::Campaign17d => format!(
                "{}-day calendar, scale {}, {} workers x 1 shard, per-link fabric",
                p.days, p.scale, CAMPAIGN_WORKERS
            ),
            Workload::PscVerified => format!(
                "unique-IP PSC round, verify on, scale {}, b={}, {} CPs, k={IP_ROUND_K}",
                p.scale, p.table_size, p.cps
            ),
            Workload::PrivcountRegistry => format!(
                "run_some over {} at scale {}, 1 worker x {} shards",
                PRIVCOUNT_IDS.join(" "),
                p.scale,
                torstudy::deployment::default_shards()
            ),
        }
    }
}

/// Input size: the benchmark's, or a tiny one for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-long inputs that still reach every layer the full
    /// workload reaches (except the campaign's exit-domain and onion
    /// windows, which need 17 days).
    Tiny,
}

struct Params {
    scale: f64,
    days: u64,
    table_size: u32,
    cps: usize,
}

impl Params {
    fn of(w: Workload, size: Size) -> Params {
        let tiny = size == Size::Tiny;
        match w {
            Workload::Campaign17d => Params {
                scale: 2e-4,
                days: if tiny { 7 } else { 17 },
                table_size: 0,
                cps: 0,
            },
            Workload::PscVerified => Params {
                scale: if tiny { 5e-5 } else { 2e-4 },
                days: 1,
                table_size: if tiny { 256 } else { 512 },
                cps: if tiny { 2 } else { 3 },
            },
            Workload::PrivcountRegistry => Params {
                scale: if tiny { 1e-2 } else { 0.1 },
                days: 1,
                table_size: 0,
                cps: 0,
            },
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Tick) -> f64 {
    clock::tick().micros_since(t) as f64 / 1e6
}

/// The workload's inputs, built by [`setup`].
// One value per process, moved once into `run_op`: variant sizes do
// not matter.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// A planned campaign and the config its report is assembled with.
    Campaign {
        cfg: CampaignConfig,
        campaign: Campaign,
    },
    /// The verified round's config and stream, and the same round
    /// unverified, which checks it.
    Psc {
        verified: PscConfig,
        stream: EventStream,
        unverified: PscConfig,
        check_stream: EventStream,
    },
    /// The deployment the registry runs on.
    Registry { dep: Deployment },
}

/// The PSC workload's stream label (seeds its events).
const PSC_LABEL: &str = "bench-psc-ips";

fn psc_deployment(seed: u64, size: Size) -> (Deployment, f64, f64) {
    let p = Params::of(Workload::PscVerified, size);
    let dep = Deployment::at_scale(p.scale, seed);
    let w = dep.weights.tab5_guard;
    let clients = &dep.workload.clients;
    let observe = 1.0 - (1.0 - w).powi(clients.guards_per_client as i32);
    let expected = clients.selective_ips as f64 * dep.scale * observe
        + clients.promiscuous_ips as f64 * dep.scale;
    (dep, observe, expected)
}

/// Builds the workload's inputs. `recorder` is threaded to every round.
pub fn setup(w: Workload, seed: u64, size: Size, recorder: &Recorder) -> Inputs {
    let p = Params::of(w, size);
    match w {
        Workload::Campaign17d => {
            let cfg = CampaignConfig::new(p.days, p.scale, seed)
                .with_shards(1)
                .with_recorder(recorder.clone());
            Inputs::Campaign {
                campaign: Campaign::new(cfg.clone()),
                cfg,
            }
        }
        Workload::PscVerified => {
            let (dep, observe, expected) = psc_deployment(seed, size);
            let mut verified = psc_round(&dep, expected, IP_ROUND_K, PSC_LABEL);
            verified.table_size = p.table_size;
            verified.num_cps = p.cps;
            verified.verify = true;
            verified.recorder = recorder.clone();
            let mut unverified = verified.clone();
            unverified.verify = false;
            unverified.recorder = if recorder.profiling() {
                Recorder::with_profiling()
            } else {
                Recorder::new()
            };
            Inputs::Psc {
                verified,
                stream: client_ip_stream(&dep, observe, 0, PSC_LABEL),
                unverified,
                check_stream: client_ip_stream(&dep, observe, 0, PSC_LABEL),
            }
        }
        Workload::PrivcountRegistry => Inputs::Registry {
            dep: Deployment::at_scale(p.scale, seed).with_recorder(recorder.clone()),
        },
    }
}

/// What one op produced.
pub struct OpResult {
    /// Seconds from the end of set-up to the complete result.
    pub wall_s: f64,
    /// Rounds the op ran.
    pub rounds: u64,
    /// Rounds that returned `Err`, ended `Aborted` or `Recovered`, or
    /// (psc-verified) disagreed with the unverified round.
    pub failed_rounds: u64,
    /// SHA-256 over the rendered output and the deterministic metrics
    /// snapshot, hex.
    pub digest: String,
    /// The op's deterministic metrics.
    pub snapshot: MetricsSnapshot,
    /// psc-verified only: the unverified check round's recorder.
    pub check_recorder: Option<Recorder>,
}

fn digest(rendered: &str, snapshot: &MetricsSnapshot) -> String {
    let mut bytes = rendered.as_bytes().to_vec();
    bytes.extend_from_slice(b"\n--metrics--\n");
    bytes.extend_from_slice(snapshot.render_lines().as_bytes());
    pm_crypto::sha256::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Runs the workload's op on `inputs`, recording into `recorder`
/// (which must be the one [`setup`] threaded in). The harness's own
/// spans (`bench.op`, `report.*`, `stats.estimate`) are inert unless
/// it profiles.
pub fn run_op(inputs: Inputs, recorder: &Recorder) -> OpResult {
    let start = clock::tick();
    match inputs {
        Inputs::Campaign { cfg, campaign } => {
            let op = recorder.span("bench.op", "bench");
            let outcomes = campaign.run_rounds(CAMPAIGN_WORKERS);
            let failed_rounds = outcomes.iter().filter(|o| !o.status.is_completed()).count() as u64;
            let rounds = outcomes.len() as u64;
            let report = {
                let _s = recorder.span("report.assemble", "bench");
                CampaignReport::assemble(&cfg, outcomes)
            };
            let text = {
                let _s = recorder.span("report.render", "bench");
                report.render_text()
            };
            drop(op);
            let wall_s = secs_since(start);
            let snapshot = recorder.read_snapshot();
            OpResult {
                wall_s,
                rounds,
                failed_rounds,
                digest: digest(&text, &snapshot),
                snapshot,
                check_recorder: None,
            }
        }
        Inputs::Psc {
            verified,
            stream,
            unverified,
            check_stream,
        } => {
            let op = recorder.span("bench.op", "bench");
            let result =
                psc::run_psc_round_streams(verified, psc::items::unique_client_ips(), vec![stream]);
            let estimate = result.as_ref().ok().map(|r| {
                let _s = recorder.span("stats.estimate", "bench");
                r.estimate(0.95)
            });
            drop(op);
            let wall_s = secs_since(start);
            let check_recorder = unverified.recorder.clone();
            let check = psc::run_psc_round_streams(
                unverified,
                psc::items::unique_client_ips(),
                vec![check_stream],
            );
            let (text, ok) = match (&result, &check, &estimate) {
                (Ok(v), Ok(u), Some(est)) => (format!("{:?}\n{est}", v.raw), v.raw == u.raw),
                _ => (
                    format!("{:?} / {:?}", result.as_ref().err(), check.as_ref().err()),
                    false,
                ),
            };
            let snapshot = recorder.read_snapshot();
            OpResult {
                wall_s,
                rounds: 1,
                failed_rounds: u64::from(!ok),
                digest: digest(&text, &snapshot),
                snapshot,
                check_recorder: Some(check_recorder),
            }
        }
        Inputs::Registry { dep } => {
            let op = recorder.span("bench.op", "bench");
            let reports = torstudy::runner::run_some(&dep, &PRIVCOUNT_IDS);
            let text: String = {
                let _s = recorder.span("report.render", "bench");
                reports.iter().map(|r| r.render_text()).collect()
            };
            drop(op);
            let wall_s = secs_since(start);
            let snapshot = recorder.read_snapshot();
            OpResult {
                wall_s,
                rounds: snapshot.get("privcount.rounds").unwrap_or(0),
                // The experiments panic on a failed round; the harness
                // counts a crashed op's rounds as failed.
                failed_rounds: 0,
                digest: digest(&text, &snapshot),
                snapshot,
                check_recorder: None,
            }
        }
    }
}

/// Layer probes: the layers no program span covers, timed by calling
/// the layer's public entry point on the workload's own inputs.
#[derive(Debug, Default)]
pub struct Probes {
    /// Seconds in `binomial_flips_for` / `gaussian_sigma` calibration.
    pub dp_calibrate_s: f64,
    /// Calibration calls replayed.
    pub dp_calibrate_calls: u64,
    /// Seconds to generate the workload's event streams once.
    pub gen_s: f64,
    /// Events generated.
    pub events: u64,
    /// Seconds PSC DC ingestion takes over the generated events.
    pub ingest_psc_s: f64,
    /// Seconds PrivCount DC ingestion takes over the generated events.
    pub ingest_privcount_s: f64,
}

/// Generates `stream` into memory, shard by shard with the parallelism
/// ingestion uses, and returns it as a stream over the stored events
/// (same shards, same order) with its event count and the seconds
/// generation took. Ingesting the replay then times ingestion alone.
fn generate(stream: EventStream) -> (EventStream, u64, f64) {
    let t = clock::tick();
    let parts = stream.fold_parallel(|_| Vec::new(), |v: &mut Vec<TorEvent>, ev| v.push(ev));
    let secs = secs_since(t);
    let events = parts.iter().map(|p| p.len() as u64).sum();
    let shards = parts
        .into_iter()
        .map(|events| {
            let f: ShardFn = Box::new(move |sink| events.into_iter().for_each(sink));
            f
        })
        .collect();
    (EventStream::from_shards(shards), events, secs)
}

fn time_binomial(probes: &mut Probes, eps: f64, ks: &[u64]) {
    for &k in ks {
        let t = clock::tick();
        std::hint::black_box(pm_dp::mechanism::binomial_flips_for(k, eps, PSC_DELTA));
        probes.dp_calibrate_s += secs_since(t);
        probes.dp_calibrate_calls += 1;
    }
}

/// Runs the probes for `w`. The campaign's streams come from its
/// timeline inside each round, so its generation and ingestion are
/// not probed (they stay inside `psc.round_s` and
/// `privcount.round_s`).
pub fn probe(w: Workload, seed: u64, size: Size) -> Probes {
    let mut probes = Probes::default();
    match w {
        Workload::Campaign17d => {
            let dep = Deployment::at_scale(Params::of(w, size).scale, seed);
            let ks = if size == Size::Full {
                &CAMPAIGN_PSC_K[..]
            } else {
                &CAMPAIGN_PSC_K[..3]
            };
            time_binomial(&mut probes, dep.eps(), ks);
        }
        Workload::PscVerified => {
            let (dep, observe, _) = psc_deployment(seed, size);
            time_binomial(&mut probes, dep.eps(), &[IP_ROUND_K]);
            let table_size = Params::of(w, size).table_size as usize;
            let (replay, events, gen_s) = generate(client_ip_stream(&dep, observe, 0, PSC_LABEL));
            probes.events = events;
            probes.gen_s = gen_s;
            let t = clock::tick();
            std::hint::black_box(psc::shard::accumulate_stream(
                replay,
                &psc::items::unique_client_ips(),
                &[7u8; 32],
                table_size,
            ));
            probes.ingest_psc_s = secs_since(t);
        }
        Workload::PrivcountRegistry => {
            let dep = Deployment::at_scale(Params::of(w, size).scale, seed);
            let t = clock::tick();
            for bound in pm_dp::bounds::paper_action_bounds() {
                std::hint::black_box(pm_dp::mechanism::gaussian_sigma(
                    bound.daily_bound as f64,
                    pm_dp::EPSILON,
                    pm_dp::DELTA,
                ));
                probes.dp_calibrate_calls += 1;
            }
            probes.dp_calibrate_s += secs_since(t);
            let t = clock::tick();
            let schemas: Vec<Schema> = registry_rounds().iter().map(|r| (r.schema)(&dep)).collect();
            probes.dp_calibrate_s += secs_since(t);
            probes.dp_calibrate_calls +=
                schemas.iter().map(|s| s.counters.len() as u64).sum::<u64>();
            for (r, schema) in registry_rounds().iter().zip(&schemas) {
                for stream in r.streams(&dep) {
                    let (replay, events, gen_s) = generate(stream);
                    probes.events += events;
                    probes.gen_s += gen_s;
                    let t = clock::tick();
                    std::hint::black_box(privcount::shard::ingest_stream(replay, schema));
                    probes.ingest_privcount_s += secs_since(t);
                }
            }
        }
    }
    probes
}

/// Where a registry round's events come from.
enum Source {
    /// Exit streams over 6 exit DCs at the round's exit weight.
    Exit {
        fraction: fn(&Deployment) -> f64,
        only_initial: bool,
    },
    /// Client traffic over 10 entry DCs at the Table 4 entry weight.
    Traffic,
    /// Table 7's HSDir fetches over 10 DCs.
    Fetches,
    /// Table 8's rendezvous circuits over 10 DCs.
    Rendezvous,
}

/// One PrivCount round of the registry, rebuilt from public APIs with
/// the experiment's own weights, DC counts and seed labels, so the
/// probes generate and ingest the events the experiment does.
struct RegistryRound {
    label: &'static str,
    source: Source,
    schema: fn(&Deployment) -> Schema,
}

fn dc_sim(dep: &Deployment, relay: u32, label: &str) -> StreamSim {
    StreamSim::new(
        Arc::clone(&dep.sites),
        Arc::clone(&dep.geo),
        vec![RelayId(relay)],
        derive_seed(dep.seed, label),
    )
}

impl RegistryRound {
    fn streams(&self, d: &Deployment) -> Vec<EventStream> {
        let dc = |i: u32, relay: u32| {
            let label = format!("{}/dc{i}", self.label);
            (dc_sim(d, relay, &label), label)
        };
        match self.source {
            Source::Exit {
                fraction,
                only_initial,
            } => (0..6)
                .map(|i| {
                    let (sim, label) = dc(i, i);
                    let per_dc = fraction(d) / 6.0;
                    sim.exit_streams(
                        &d.workload.exit,
                        per_dc,
                        d.scale,
                        only_initial,
                        d.shards,
                        &label,
                    )
                })
                .collect(),
            Source::Traffic => client_traffic_streams(d, d.weights.tab4_entry, 10, self.label),
            Source::Fetches => {
                let fraction = d.weights.tab7_fetch;
                let addr_observe = 1.0 - (1.0 - fraction).powi(6);
                (0..10)
                    .map(|i| {
                        let (sim, label) = dc(i, 6 + i);
                        let o = &d.workload.onion;
                        sim.hsdir_fetches(
                            o,
                            fraction / 10.0,
                            addr_observe,
                            d.scale,
                            d.shards,
                            &label,
                        )
                    })
                    .collect()
            }
            Source::Rendezvous => (0..10)
                .map(|i| {
                    let (sim, label) = dc(i, 6 + i);
                    let per_dc = d.weights.tab8_rend / 10.0;
                    sim.rendezvous(&d.workload.onion, per_dc, d.scale, d.shards, &label)
                })
                .collect(),
        }
    }
}

fn exit(fraction: fn(&Deployment) -> f64, only_initial: bool) -> Source {
    Source::Exit {
        fraction,
        only_initial,
    }
}

fn registry_rounds() -> Vec<RegistryRound> {
    let round = |label, source, schema| RegistryRound {
        label,
        source,
        schema,
    };
    vec![
        round("fig1", exit(|d| d.weights.fig1_exit, false), |d| {
            queries::exit_streams(d.eps(), d.delta())
        }),
        round("fig2-rank", exit(|d| d.weights.fig2_rank_exit, true), |d| {
            queries::alexa_rank_histogram(Arc::clone(&d.sites), d.eps(), d.delta())
        }),
        round(
            "fig2-siblings",
            exit(|d| d.weights.fig2_siblings_exit, true),
            |d| queries::alexa_siblings_histogram(Arc::clone(&d.sites), d.eps(), d.delta()),
        ),
        round("fig3-all", exit(|d| d.weights.fig3_all_exit, true), |d| {
            queries::tld_histogram(Arc::clone(&d.sites), false, d.eps(), d.delta())
        }),
        round(
            "fig3-alexa",
            exit(|d| d.weights.fig3_alexa_exit, true),
            |d| queries::tld_histogram(Arc::clone(&d.sites), true, d.eps(), d.delta()),
        ),
        round("tab4", Source::Traffic, |d| {
            queries::client_traffic(d.eps(), d.delta())
        }),
        round("fig4-connections", Source::Traffic, |d| {
            queries::country_histogram(
                Arc::clone(&d.geo),
                CountryStat::Connections,
                d.eps(),
                d.delta(),
            )
        }),
        round("fig4-bytes", Source::Traffic, |d| {
            queries::country_histogram(Arc::clone(&d.geo), CountryStat::Bytes, d.eps(), d.delta())
        }),
        round("fig4-circuits", Source::Traffic, |d| {
            queries::country_histogram(
                Arc::clone(&d.geo),
                CountryStat::Circuits,
                d.eps(),
                d.delta(),
            )
        }),
        round("tab7", Source::Fetches, |d| {
            // Table 7's public index: the even address indices.
            let universe = (d.workload.onion.fetched_addresses as f64 * d.scale) as u64;
            let public: std::collections::BTreeSet<OnionAddr> = (0..universe)
                .map(|k| OnionAddr::from_index(2 * k))
                .collect();
            queries::hsdir_fetches(Arc::new(move |a| public.contains(a)), d.eps(), d.delta())
        }),
        round("tab8", Source::Rendezvous, |d| {
            queries::rendezvous(d.eps(), d.delta())
        }),
        // X1 measures at the 2018-01-29 exit weight, 2.1%.
        round("extra-categories", exit(|_| 0.021, true), |d| {
            queries::category_histogram(Arc::clone(&d.sites), d.eps(), d.delta())
        }),
        round("extra-as", Source::Traffic, |d| {
            queries::as_histogram(Arc::clone(&d.asdb), d.eps(), d.delta())
        }),
    ]
}
