//! Round driver: wires TS, SKs, and DCs over a [`pm_net::Fabric`]
//! backend, runs the protocol to completion, and packages results with
//! confidence intervals.

use crate::adversary::Attack;
use crate::counter::{CounterSpec, EventMapper};
use crate::dc::DcNode;
use crate::sk::SkNode;
use crate::ts::{ResultSlot, TsNode};
use parking_lot::Mutex;
use pm_net::party::{NodeError, Runner};
use pm_net::transport::{FabricChoice, FaultConfig, PartyId};
use pm_stats::ci::Estimate;
use std::sync::Arc;
use torsim::stream::EventStream;

/// How DCs split the per-counter noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseAllocation {
    /// Every DC adds `N(0, σ²/num_dcs)`; the published total carries
    /// exactly `N(0, σ²)` (PrivCount's equal allocation).
    Equal,
    /// Only the first DC adds `N(0, σ²)` (used by the ablation bench;
    /// weaker against DC compromise, same output distribution).
    FirstDcOnly,
    /// No noise at all (ground-truth extraction in tests ONLY — never
    /// differentially private).
    None,
}

/// A PrivCount round configuration.
#[derive(Clone)]
pub struct RoundConfig {
    /// The counters to collect.
    pub counters: Vec<CounterSpec>,
    /// The shared event-to-counter mapping.
    pub mapper: EventMapper,
    /// Number of Share Keepers (the paper deploys 3).
    pub num_sks: usize,
    /// Noise allocation across DCs.
    pub noise: NoiseAllocation,
    /// Base RNG seed (per-party seeds derive from it).
    pub seed: u64,
    /// Run each party on its own OS thread instead of the deterministic
    /// single-threaded scheduler.
    pub threaded: bool,
    /// Optional fault injection on the fabric.
    pub faults: FaultConfig,
    /// Which [`pm_net::Fabric`] backend carries the round: per-link
    /// mailboxes (default), the single-lock baseline, or real loopback
    /// sockets. The wire backend forces threaded execution and rejects
    /// active adversaries (they need the deterministic scheduler).
    pub fabric: FabricChoice,
    /// Optional Byzantine behaviour injected into one party
    /// ([`crate::adversary`]). Forces the deterministic scheduler when
    /// active, so a dead keeper deadlocks loudly instead of hanging
    /// the threaded runner.
    pub adversary: crate::adversary::Attack,
    /// Observability handle threaded to the switchboard: deterministic
    /// counters (`privcount.rounds`, `net.link.*`) plus profiling spans
    /// when built with profiling enabled. Defaults to a detached
    /// recorder.
    pub recorder: pm_obs::Recorder,
}

/// The outcome of a round.
#[derive(Clone, Debug)]
pub struct RoundResult {
    /// Counter specifications (for names and σ).
    pub counters: Vec<CounterSpec>,
    /// Noisy totals, one per counter.
    pub totals: Vec<i64>,
}

impl RoundResult {
    /// The noisy total for a counter by name.
    pub fn total(&self, name: &str) -> i64 {
        let idx = self
            .counters
            .iter()
            .position(|c| c.name == name)
            // lint:allow(panic) counter names are the caller's own schema; a miss is a caller bug
            .unwrap_or_else(|| panic!("no counter named {name}"));
        self.totals[idx]
    }

    /// The estimate (with 95% CI from the known σ) for a counter.
    pub fn estimate(&self, name: &str) -> Estimate {
        let idx = self
            .counters
            .iter()
            .position(|c| c.name == name)
            // lint:allow(panic) counter names are the caller's own schema; a miss is a caller bug
            .unwrap_or_else(|| panic!("no counter named {name}"));
        Estimate::gaussian95(self.totals[idx] as f64, self.counters[idx].sigma)
    }

    /// All (name, estimate) pairs.
    pub fn estimates(&self) -> Vec<(String, Estimate)> {
        self.counters
            .iter()
            .zip(&self.totals)
            .map(|(c, t)| (c.name.clone(), Estimate::gaussian95(*t as f64, c.sigma)))
            .collect()
    }
}

/// Runs a full PrivCount round: one DC per stream, each folding its
/// shards in parallel and applying the totals once at merge (see
/// [`crate::shard`]).
pub fn run_round_streams(
    cfg: RoundConfig,
    dc_streams: Vec<EventStream>,
) -> Result<RoundResult, NodeError> {
    assert!(!dc_streams.is_empty(), "need at least one DC");
    assert!(cfg.num_sks >= 1, "need at least one SK");
    cfg.recorder.incr("privcount.rounds");
    let mut round_span = cfg.recorder.span("round.privcount", "round");
    round_span.note("dcs", dc_streams.len());
    round_span.note("sks", cfg.num_sks);
    let num_dcs = dc_streams.len();
    if cfg.fabric.is_wire() && cfg.adversary.is_active() {
        return Err(NodeError::Protocol(
            "adversarial scenarios need the deterministic scheduler, which the \
             wire fabric cannot provide"
                .into(),
        ));
    }
    let board = cfg.fabric.build(cfg.faults, cfg.recorder.clone());
    let mut runner = Runner::over(board);

    let ts_id = PartyId::new("ts");
    let dc_names: Vec<PartyId> = (0..num_dcs)
        .map(|i| PartyId::new(format!("dc-{i}")))
        .collect();
    let sk_names: Vec<PartyId> = (0..cfg.num_sks)
        .map(|i| PartyId::new(format!("sk-{i}")))
        .collect();

    let slot: ResultSlot = Arc::new(Mutex::new(None));
    runner.add(
        ts_id.clone(),
        Box::new(TsNode::new(
            cfg.counters.clone(),
            dc_names.clone(),
            sk_names.clone(),
            slot.clone(),
        )),
    );
    for (i, sk) in sk_names.iter().enumerate() {
        let mut node = SkNode::new(ts_id.clone(), num_dcs, cfg.seed ^ (0x5100 + i as u64));
        if let Attack::SkDeath { sk, after_messages } = cfg.adversary {
            if sk == i {
                node = node.dying_after(after_messages);
            }
        }
        runner.add(sk.clone(), Box::new(node));
    }
    for (i, (dc, stream)) in dc_names.iter().zip(dc_streams).enumerate() {
        let noise_scale = match cfg.noise {
            NoiseAllocation::Equal => 1.0 / (num_dcs as f64).sqrt(),
            NoiseAllocation::FirstDcOnly => {
                if i == 0 {
                    1.0
                } else {
                    0.0
                }
            }
            NoiseAllocation::None => 0.0,
        };
        let schema = crate::counter::Schema::new(cfg.counters.clone(), cfg.mapper.clone());
        let mut node = DcNode::new(
            ts_id.clone(),
            schema,
            stream,
            noise_scale,
            cfg.seed ^ (0xDC00 + i as u64),
        );
        node = match cfg.adversary {
            Attack::MalformedRegisters { dc } if dc == i => node.malformed(),
            Attack::InflatedCounts { dc, factor } if dc == i => node.inflating(factor),
            Attack::BadSharePayload { dc } if dc == i => node.corrupting_shares(),
            Attack::NoiseExhaustion { dc, budget } if dc == i => node.with_noise_budget(budget),
            _ => node,
        };
        runner.add(dc.clone(), Box::new(node));
    }

    // Attacks require the deterministic scheduler's deadlock detector:
    // a dead keeper hangs the threaded runner forever. The wire fabric
    // conversely has no deterministic scheduler, so it always runs one
    // thread per party.
    let threaded = cfg.threaded || cfg.fabric.is_wire();
    if threaded && !cfg.adversary.is_active() {
        runner.run_threaded()?;
    } else {
        runner.run_deterministic()?;
    }
    let totals = slot
        .lock()
        .take()
        .ok_or_else(|| NodeError::Protocol("TS produced no result".into()))?;
    Ok(RoundResult {
        counters: cfg.counters,
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};

    fn conn_event(ip: u32) -> TorEvent {
        TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: IpAddr(ip),
        }
    }

    fn counting_config(noise: NoiseAllocation, sigma: f64, threaded: bool) -> RoundConfig {
        RoundConfig {
            counters: vec![CounterSpec::with_sigma("connections", sigma)],
            mapper: StdArc::new(|ev: &TorEvent, emit: &mut dyn FnMut(usize, i64)| {
                if matches!(ev, TorEvent::EntryConnection { .. }) {
                    emit(0, 1);
                }
            }),
            num_sks: 3,
            noise,
            seed: 7,
            threaded,
            faults: FaultConfig::none(),
            fabric: FabricChoice::default(),
            adversary: Attack::None,
            recorder: pm_obs::Recorder::new(),
        }
    }

    fn streams(counts: &[u64]) -> Vec<EventStream> {
        counts
            .iter()
            .map(|&n| EventStream::from_events((0..n).map(|i| conn_event(i as u32)).collect(), 1))
            .collect()
    }

    #[test]
    fn noiseless_round_is_exact() {
        let result = run_round_streams(
            counting_config(NoiseAllocation::None, 100.0, false),
            streams(&[100, 200, 300]),
        )
        .unwrap();
        assert_eq!(result.total("connections"), 600);
    }

    #[test]
    fn noisy_round_is_close_and_noisy() {
        let result = run_round_streams(
            counting_config(NoiseAllocation::Equal, 50.0, false),
            streams(&[10_000, 20_000]),
        )
        .unwrap();
        let total = result.total("connections");
        // Pinned: the noise is drawn at Configure from the DC seeds,
        // so how the DCs ingest their events never moves the total.
        assert_eq!(total, 29_973);
        assert_ne!(total, 30_000, "noise must perturb the exact count");
        assert!((total - 30_000).abs() < 300, "total {total} too far (σ=50)");
        let est = result.estimate("connections");
        assert!(est.ci.contains(30_000.0));
    }

    #[test]
    fn threaded_matches_protocol() {
        let result = run_round_streams(
            counting_config(NoiseAllocation::None, 1.0, true),
            streams(&[5, 7, 11, 13]),
        )
        .unwrap();
        assert_eq!(result.total("connections"), 36);
    }

    #[test]
    fn first_dc_only_noise() {
        let result = run_round_streams(
            counting_config(NoiseAllocation::FirstDcOnly, 25.0, false),
            streams(&[1000, 1000]),
        )
        .unwrap();
        let total = result.total("connections");
        assert!((total - 2000).abs() < 150, "{total}");
    }

    #[test]
    fn multi_counter_round() {
        let cfg = RoundConfig {
            counters: vec![
                CounterSpec::with_sigma("connections", 0.0),
                CounterSpec::with_sigma("bytes", 0.0),
            ],
            mapper: StdArc::new(|ev: &TorEvent, emit: &mut dyn FnMut(usize, i64)| match ev {
                TorEvent::EntryConnection { .. } => emit(0, 1),
                TorEvent::EntryBytes { bytes, .. } => emit(1, *bytes as i64),
                _ => {}
            }),
            num_sks: 2,
            noise: NoiseAllocation::None,
            seed: 9,
            threaded: false,
            faults: FaultConfig::none(),
            fabric: FabricChoice::default(),
            adversary: Attack::None,
            recorder: pm_obs::Recorder::new(),
        };
        let events = vec![
            conn_event(1),
            TorEvent::EntryBytes {
                relay: RelayId(0),
                client_ip: IpAddr(1),
                bytes: 4096,
            },
            conn_event(2),
        ];
        let streams = vec![EventStream::from_events(events, 1)];
        let result = run_round_streams(cfg, streams).unwrap();
        assert_eq!(result.total("connections"), 2);
        assert_eq!(result.total("bytes"), 4096);
    }

    #[test]
    fn equal_noise_variance_totals_sigma() {
        // Run many noiseless-count rounds and check the spread of the
        // published totals matches the configured σ.
        let mut totals = Vec::new();
        for seed in 0..60u64 {
            let mut cfg = counting_config(NoiseAllocation::Equal, 40.0, false);
            cfg.seed = seed;
            let r = run_round_streams(cfg, streams(&[500, 500, 500])).unwrap();
            totals.push(r.total("connections") as f64 - 1500.0);
        }
        let var: f64 = totals.iter().map(|x| x * x).sum::<f64>() / totals.len() as f64;
        let sd = var.sqrt();
        assert!((sd - 40.0).abs() < 12.0, "sd {sd}");
    }
}
