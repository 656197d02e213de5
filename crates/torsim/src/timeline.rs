//! Deterministic per-day evolution of the network — the substrate for
//! longitudinal measurement campaigns (`pm-study`).
//!
//! The paper's study ran for weeks over a *live* Tor network: relays
//! joined and left between consensuses, bandwidth weights (and with
//! them the deployment's observed fraction) drifted day to day, site
//! popularity shifted, and the client-IP population turned over
//! (§5.1: 313,213 unique IPs in one day vs 672,303 over four). A
//! [`NetworkTimeline`] reproduces all four axes deterministically:
//!
//! * **Relay churn & weight drift** — [`NetworkTimeline::snapshot`]
//!   evolves a base [`Consensus`] one day at a time: background relays
//!   leave with a daily probability, a Poisson number of fresh relays
//!   join (flag flavor drawn from the day RNG, 1/3 each), and every
//!   weight takes a log-normal daily step. The 16 instrumented relays
//!   never leave (the deployment keeps running), but their weights
//!   drift too, so the observed fraction `p` is a per-day quantity —
//!   exactly why the paper records a different weight fraction for
//!   every measurement date. Day `d`'s evolution draws from an RNG
//!   seeded `derive_seed(seed, "net/day{d}")`, so `snapshot(d)` is a
//!   pure function of `(config, d)` — call order, thread, and shard
//!   count cannot perturb it.
//!
//! * **Site-popularity drift** — each day the [`DomainMix`] shares take
//!   small log-normal steps (a random walk across the campaign). The
//!   alias tables downstream renormalize, so drift shifts *relative*
//!   popularity exactly like real rank churn.
//! * **Client-IP turnover** — the day's observed client pool comes from
//!   the [`ChurnModel`]: a stable core persists across days while the
//!   tail regenerates. [`NetworkTimeline::client_ip_day`] turns the
//!   pool into a sharded, replay-memoized [`EventStream`] (the same
//!   union-semantics contract as `StreamSim::client_ips`) **and** the
//!   matching client-IP [`DistinctTruth`] from the identical pool, so
//!   the measured statistic and its ground truth can never drift apart.
//! * **Exit-domain & onion-service days** —
//!   [`NetworkTimeline::exit_stream_day`] draws one day's exit streams
//!   under that day's *drifted* mix and consensus exit fraction, and
//!   [`NetworkTimeline::hs_stream_day`] draws the day's HSDir publish
//!   and rendezvous streams under the day's HSDir/rendezvous
//!   fractions. Both return the day's exact ground truth (distinct
//!   SLDs with an [`ExitTally`], distinct published addresses with an
//!   [`OnionTally`]) accumulated per shard from a replica of the same
//!   deferred stream, under the shard-invariance contract.
//!
//! Every day's ground truth is one [`DistinctTruth`]: a set of
//! distinct items plus a field-wise-summed [`Tally`].
//! [`DistinctTruth::merge`] is a set union plus count sums, so a
//! multi-day campaign can fold per-day truths in any grouping — per
//! round, per shard, sequential or parallel — and land on the same
//! cross-day unique-IP, unique-SLD and unique-onion totals, with the
//! stable core counted once however the days are grouped.
//!
//! ## Incremental consensus diffs
//!
//! `snapshot(d)` is served by the [`diff`] module: each day is a
//! [`diff::DayDelta`] (leaves, joins, weight steps, mix steps —
//! recorded from the same `"net/day{d}"` / `"mix/day{d}"` RNG streams)
//! and an internal, lock-guarded [`diff::TimelineCursor`] applies
//! deltas forward from checkpoints every
//! [`diff::CHECKPOINT_INTERVAL`] days. A campaign sweeping its
//! calendar therefore evolves the network **once** — `O(churn + n)`
//! amortized per day — instead of replaying day 0..d on every call
//! (`O(d · n)`, quadratic over a calendar). The memoization is
//! invisible to the purity contract: any access order lands on
//! bit-identical snapshots. The from-scratch path survives as
//! [`NetworkTimeline::snapshot_replay`], the regression oracle the
//! proptests and `make timeline-smoke` pin the diff path against.

pub mod diff;

use crate::churn::ChurnModel;
use crate::geo::GeoDb;
use crate::ids::{IpAddr, OnionAddr, RelayId};
use crate::relay::{Consensus, Position, Relay, RelayFlags};
use crate::sampled::poisson_approx;
use crate::sites::SiteList;
use crate::stream::{replayed_stream, EventStream, StreamSim};
use crate::workload::{DomainMix, ExitTruth, OnionTruth};
use crate::TorEvent;
use pm_dp::mechanism::sample_gaussian;
use pm_obs::Recorder;
use pm_stats::extrapolate::hsdir_observe_fraction;
use pm_stats::sampling::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Configuration of the network's day-to-day evolution.
#[derive(Clone, Debug)]
pub struct TimelineConfig {
    /// Background relays in the day-0 consensus.
    pub n_background: usize,
    /// Day-0 instrumented exit-weight fraction.
    pub exit_fraction: f64,
    /// Day-0 instrumented guard-weight fraction.
    pub guard_fraction: f64,
    /// Day-0 instrumented HSDir-weight fraction.
    pub hsdir_fraction: f64,
    /// Daily probability that a background relay leaves the consensus.
    pub relay_leave_prob: f64,
    /// Poisson mean of background relays joining per day.
    pub relay_joins_per_day: f64,
    /// Log-normal σ of each relay's daily weight multiplier.
    pub weight_drift_sigma: f64,
    /// Log-normal σ of each domain-mix share's daily step.
    pub mix_drift_sigma: f64,
    /// Base seed; every per-day RNG derives from it.
    pub seed: u64,
}

impl TimelineConfig {
    /// Paper-shaped defaults: a consensus whose instrumented fractions
    /// start at the Table 5 guard weight and Figure 1 exit weight, with
    /// churn rates sized so the weight fraction visibly drifts over a
    /// multi-week campaign (the paper's per-date fractions span
    /// 0.42%–2.75%) while staying the same order of magnitude.
    pub fn paper_default(seed: u64) -> TimelineConfig {
        TimelineConfig {
            n_background: 600,
            exit_fraction: 0.015,
            guard_fraction: 0.0119,
            hsdir_fraction: 0.0275,
            relay_leave_prob: 0.02,
            relay_joins_per_day: 12.0,
            weight_drift_sigma: 0.05,
            mix_drift_sigma: 0.03,
            seed,
        }
    }
}

/// The network as it stands on one day of the campaign.
#[derive(Clone, Debug)]
pub struct DaySnapshot {
    /// Day index (0 = campaign epoch).
    pub day: u64,
    /// That day's consensus.
    pub consensus: Arc<Consensus>,
    /// That day's site-popularity mix.
    pub mix: DomainMix,
    /// Background relays that joined on this day (0 on day 0).
    pub joined: u64,
    /// Background relays that left on this day (0 on day 0).
    pub left: u64,
}

impl DaySnapshot {
    /// The instrumented weight fraction for a position on this day —
    /// the observation probability `p` every network-wide inference on
    /// this day must use.
    pub fn fraction(&self, pos: Position) -> f64 {
        self.consensus.instrumented_fraction(pos)
    }
}

/// Ground truth for one or more days of a distinct-item statistic:
/// the distinct items observed (client IPs, second-level domains,
/// published onion addresses) plus a per-kind tally of event counts.
/// Values merge associatively — a set union plus field-wise count sums
/// ([`Tally`]) — so any grouping of days, or of shards within a day,
/// folds to the same cross-day totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistinctTruth<T, C = ()> {
    /// Days merged into this truth (for reporting).
    pub days: BTreeSet<u64>,
    /// The distinct observed items (union over the merged days).
    pub items: BTreeSet<T>,
    /// Event counts, summed over the merged days.
    pub tally: C,
}

impl<T, C: Default> Default for DistinctTruth<T, C> {
    fn default() -> Self {
        DistinctTruth {
            days: BTreeSet::new(),
            items: BTreeSet::new(),
            tally: C::default(),
        }
    }
}

impl<T: Ord, C: Tally> DistinctTruth<T, C> {
    /// Distinct observed items.
    pub fn unique(&self) -> u64 {
        self.items.len() as u64
    }

    /// Associative, commutative merge (set unions, count sums).
    pub fn merge(mut self, other: Self) -> Self {
        self.days.extend(other.days);
        self.items.extend(other.items);
        self.tally.add(other.tally);
        self
    }

    /// Items in `self` not present in `earlier` — a day's fresh
    /// contribution to a running cross-day union.
    pub fn new_vs(&self, earlier: &Self) -> u64 {
        self.items.difference(&earlier.items).count() as u64
    }
}

/// Event counts carried beside a [`DistinctTruth`]; merging sums them
/// field-wise. Client-IP truths carry none (`()`).
pub trait Tally: Default {
    /// Adds `other`'s counts into `self`.
    fn add(&mut self, other: Self);
}

impl Tally for () {
    fn add(&mut self, _: ()) {}
}

/// Exit-traffic counts of a unique-SLD truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExitTally {
    /// Observed exit streams (initial + subsequent).
    pub streams: u64,
    /// Observed initial streams.
    pub initial_streams: u64,
}

impl Tally for ExitTally {
    fn add(&mut self, other: ExitTally) {
        self.streams += other.streams;
        self.initial_streams += other.initial_streams;
    }
}

/// Onion-service counts of a published-address truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnionTally {
    /// Observed descriptor-publish events.
    pub publishes: u64,
    /// Observed rendezvous circuits.
    pub rend_circuits: u64,
}

impl Tally for OnionTally {
    fn add(&mut self, other: OnionTally) {
        self.publishes += other.publishes;
        self.rend_circuits += other.rend_circuits;
    }
}

/// The evolving network (see module docs).
pub struct NetworkTimeline {
    cfg: TimelineConfig,
    /// The observed client pool's churn process.
    churn: ChurnModel,
    /// Promiscuous clients (bridges, busy NATs): stable, always seen.
    promiscuous: u64,
    geo: Arc<GeoDb>,
    /// Snapshot memo: the delta cursor every caller of
    /// [`Self::snapshot`] shares, so a campaign's round runners evolve
    /// the network once however many times (and in whatever order) they
    /// ask for a day. Behind a lock; the purity contract is unchanged.
    cursor: Mutex<diff::TimelineCursor>,
    /// Observability handle for day-generation counters and spans.
    recorder: Recorder,
}

impl NetworkTimeline {
    /// Builds a timeline over a churning client pool. `churn` sizes the
    /// *network-wide* daily client pool at the caller's scale;
    /// `promiscuous` clients contact every guard daily and are observed
    /// regardless of weight.
    pub fn new(
        cfg: TimelineConfig,
        churn: ChurnModel,
        promiscuous: u64,
        geo: Arc<GeoDb>,
    ) -> NetworkTimeline {
        let cursor = Mutex::new(diff::TimelineCursor::new(cfg.clone()));
        NetworkTimeline {
            cfg,
            churn,
            promiscuous,
            geo,
            cursor,
            recorder: Recorder::new(),
        }
    }

    /// Attaches an observability handle: day-generation counters/spans
    /// land on `recorder`, and the cursor's schedule-invariant
    /// projections and seek spans do too. By default the timeline
    /// records into a private, unobserved recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> NetworkTimeline {
        self.cursor
            .get_mut()
            // lint:allow(panic) a panic while holding the memo lock is already fatal to the study
            .expect("timeline cursor lock poisoned")
            .set_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// The client-pool churn process.
    pub fn churn(&self) -> &ChurnModel {
        &self.churn
    }

    /// The promiscuous (always-observed, stable) client count.
    pub fn promiscuous(&self) -> u64 {
        self.promiscuous
    }

    /// The network on `day`: the day-0 consensus evolved through `day`
    /// deterministic daily steps. Pure in `(config, day)`; served by
    /// the memoized delta cursor (see [`diff`]), so a calendar sweep
    /// evolves the network once — `O(churn + n)` amortized per day —
    /// and any out-of-order access replays at most
    /// [`diff::CHECKPOINT_INTERVAL`] deltas from a checkpoint.
    pub fn snapshot(&self, day: u64) -> DaySnapshot {
        self.cursor
            .lock()
            // lint:allow(panic) a panic while holding the memo lock is already fatal to the study
            .expect("timeline cursor lock poisoned")
            .snapshot(day)
    }

    /// The from-scratch replay of `day` — the legacy `O(d · n)` path,
    /// kept as the regression oracle the diff path is pinned against
    /// (proptests + `make timeline-smoke`). Bit-identical to
    /// [`Self::snapshot`] by contract.
    pub fn snapshot_replay(&self, day: u64) -> DaySnapshot {
        replay_snapshot(&self.cfg, day)
    }

    /// Whether a pool IP is observed by the deployment at guard
    /// observation probability `observe_prob`. The per-IP uniform is a
    /// pure hash of `(seed, ip)` — stable across days — so while the
    /// fraction drifts, the *same* stable-core clients keep being seen
    /// (or not): observation respects the stable core rather than
    /// re-rolling it every day.
    fn observed(&self, ip: IpAddr, observe_prob: f64) -> bool {
        let u = derive_seed(self.cfg.seed, &format!("observe/{}", ip.0));
        ((u >> 11) as f64 / (1u64 << 53) as f64) < observe_prob
    }

    /// One day's observed client-IP pool as a sharded, replay-memoized
    /// event stream (events attributed round-robin over `relays`)
    /// together with the matching ground truth, both derived from the
    /// identical churned pool.
    pub fn client_ip_day(
        &self,
        day: u64,
        observe_prob: f64,
        shards: usize,
        relays: Vec<RelayId>,
    ) -> (EventStream, DistinctTruth<IpAddr>) {
        assert!(!relays.is_empty());
        let mut span = self.recorder.span("day.client_ips", "torsim");
        span.note("day", day);
        let pool = self.observed_pool(day, observe_prob);
        self.recorder.incr("torsim.days.generated");
        self.recorder
            .add("torsim.events.client_ip", pool.len() as u64);
        let mut truth = DistinctTruth::default();
        truth.days.insert(day);
        truth.items.extend(pool.iter().copied());
        let stream = replayed_stream(shards, move || {
            pool.iter()
                .enumerate()
                .map(|(i, ip)| TorEvent::EntryConnection {
                    relay: relays[i % relays.len()],
                    client_ip: *ip,
                })
                .collect()
        });
        (stream, truth)
    }

    /// The observed pool for a day, in slot order (selective churned
    /// slots first, then the promiscuous stable set), with each
    /// distinct IP appearing exactly once.
    ///
    /// The dedupe is a bugfix: promiscuous IPs are independent
    /// `sample_ip` draws, so they can collide with selective
    /// churned-pool IPs (or, at small geo universes, with each other
    /// and among the churned slots). An undeduped pool emitted one
    /// `EntryConnection` per *slot* while the [`DistinctTruth`] set-dedupes its
    /// IPs — event counts and the unique-IP truth silently diverged
    /// (the same family as the PR 2 `unique_ips` overcount). A
    /// collision keeps its first slot: the IP stays observed, counted
    /// once by stream and truth alike.
    fn observed_pool(&self, day: u64, observe_prob: f64) -> Arc<Vec<IpAddr>> {
        let mut pool = Vec::new();
        let mut seen = BTreeSet::new();
        for ip in self.churn.ips_for_day(day, &self.geo) {
            if self.observed(ip, observe_prob) && seen.insert(ip) {
                pool.push(ip);
            }
        }
        for p in 0..self.promiscuous {
            let mut rng =
                StdRng::seed_from_u64(derive_seed(self.cfg.seed, &format!("promiscuous/{p}")));
            let ip = self.geo.sample_ip(&mut rng);
            if seen.insert(ip) {
                pool.push(ip);
            }
        }
        Arc::new(pool)
    }

    /// One campaign day's exit-stream observation, sampling that day's
    /// drifted [`DomainMix`] and consensus exit fraction (both read
    /// from `snap`, so the caller's one-snapshot-per-day evolution is
    /// reused rather than replayed). Returns `copies` bit-identical
    /// deferred streams — a campaign round feeds one to each
    /// measurement system sharing the round's window — plus the day's
    /// exact ground truth (distinct SLDs and stream counts),
    /// accumulated per shard and merged associatively under the same
    /// shard-invariance contract as every other source. Events and
    /// truth derive from `derive_seed(seed, "exit/day{d}")`, pure in
    /// `(config, day)`.
    #[allow(clippy::too_many_arguments)] // one knob per axis of the day's observation
    pub fn exit_stream_day(
        &self,
        snap: &DaySnapshot,
        sites: &Arc<SiteList>,
        base: &ExitTruth,
        scale: f64,
        shards: usize,
        relays: Vec<RelayId>,
        copies: usize,
    ) -> (Vec<EventStream>, DistinctTruth<String, ExitTally>) {
        assert!(copies >= 1);
        let mut span = self.recorder.span("day.exit_streams", "torsim");
        span.note("day", snap.day);
        let mut truth_cfg = base.clone();
        truth_cfg.mix = snap.mix.clone();
        let fraction = snap.fraction(Position::Exit);
        let sim = StreamSim::new(
            Arc::clone(sites),
            Arc::clone(&self.geo),
            relays,
            derive_seed(self.cfg.seed, &format!("exit/day{}", snap.day)),
        );
        let streams: Vec<EventStream> = (0..copies)
            .map(|_| sim.exit_streams(&truth_cfg, fraction, scale, false, shards, "exit"))
            .collect();
        // Exact ground truth from a replica of the same deferred
        // stream: folded per shard, merged associatively.
        let replica = sim.exit_streams(&truth_cfg, fraction, scale, false, shards, "exit");
        let parts = replica.fold_parallel(
            |_| DistinctTruth::<String, ExitTally>::default(),
            |acc, ev| {
                if let TorEvent::ExitStream {
                    initial, domain, ..
                } = ev
                {
                    acc.tally.streams += 1;
                    if initial {
                        acc.tally.initial_streams += 1;
                    }
                    if let Some(d) = domain {
                        acc.items.insert(sites.sld(d));
                    }
                }
            },
        );
        let mut truth = parts
            .into_iter()
            .fold(DistinctTruth::default(), DistinctTruth::merge);
        truth.days.insert(snap.day);
        self.recorder.incr("torsim.days.generated");
        self.recorder
            .add("torsim.events.exit_stream", truth.tally.streams);
        (streams, truth)
    }

    /// One campaign day's onion-service observation under that day's
    /// consensus: the HSDir descriptor-publish stream at the day's
    /// replica-level observe probability (`1 − (1−w)²` for v2's two
    /// descriptor replicas) and the rendezvous-circuit stream at the
    /// day's rendezvous fraction, plus the day's exact ground truth
    /// (distinct published addresses, publish and rendezvous counts)
    /// merged associatively across shards. Seeded
    /// `derive_seed(seed, "hs/day{d}")` — pure in `(config, day)`.
    pub fn hs_stream_day(
        &self,
        snap: &DaySnapshot,
        sites: &Arc<SiteList>,
        base: &OnionTruth,
        scale: f64,
        shards: usize,
        relays: Vec<RelayId>,
    ) -> HsDay {
        let mut span = self.recorder.span("day.hs_streams", "torsim");
        span.note("day", snap.day);
        let publish_observe = hsdir_observe_fraction(snap.fraction(Position::HsDir), 2);
        let rend_fraction = snap.fraction(Position::Rendezvous);
        let sim = StreamSim::new(
            Arc::clone(sites),
            Arc::clone(&self.geo),
            relays,
            derive_seed(self.cfg.seed, &format!("hs/day{}", snap.day)),
        );
        let publish = sim.hsdir_publishes(base, publish_observe, scale, shards, "publish");
        let rendezvous = sim.rendezvous(base, rend_fraction, scale, shards, "rend");
        let mut truth = DistinctTruth::default();
        truth.days.insert(snap.day);
        for replica in [
            sim.hsdir_publishes(base, publish_observe, scale, shards, "publish"),
            sim.rendezvous(base, rend_fraction, scale, shards, "rend"),
        ] {
            let parts = replica.fold_parallel(
                |_| DistinctTruth::<OnionAddr, OnionTally>::default(),
                |acc, ev| match ev {
                    TorEvent::HsDescPublish { addr, .. } => {
                        acc.tally.publishes += 1;
                        acc.items.insert(addr);
                    }
                    TorEvent::RendCircuit { .. } => acc.tally.rend_circuits += 1,
                    _ => {}
                },
            );
            truth = parts.into_iter().fold(truth, DistinctTruth::merge);
        }
        self.recorder.incr("torsim.days.generated");
        self.recorder
            .add("torsim.events.hs_publish", truth.tally.publishes);
        self.recorder
            .add("torsim.events.rend_circuit", truth.tally.rend_circuits);
        HsDay {
            publish,
            rendezvous,
            truth,
            publish_observe,
            rend_fraction,
        }
    }
}

/// One campaign day's onion-service observation
/// ([`NetworkTimeline::hs_stream_day`]): the streams, the truth, and
/// the exact observation parameters the streams were thinned at. A
/// caller's network extrapolation must divide by these same values, so
/// they travel with the streams instead of being re-derived.
pub struct HsDay {
    /// HSDir descriptor-publish stream.
    pub publish: EventStream,
    /// Rendezvous-circuit stream.
    pub rendezvous: EventStream,
    /// The day's exact ground truth.
    pub truth: DistinctTruth<OnionAddr, OnionTally>,
    /// Address-level publish observe probability (`1 − (1−w)²` over the
    /// day's HSDir fraction) the publish stream was thinned at.
    pub publish_observe: f64,
    /// Rendezvous fraction the rendezvous stream was thinned at.
    pub rend_fraction: f64,
}

/// The from-scratch replay of `day` from a bare config — the legacy
/// path behind [`NetworkTimeline::snapshot_replay`], exposed so the
/// diff-equivalence tests can build the oracle without a full timeline
/// (the replay touches neither the churn model nor the geo database).
pub fn replay_snapshot(cfg: &TimelineConfig, day: u64) -> DaySnapshot {
    let base = Consensus::paper_deployment(
        cfg.n_background,
        cfg.exit_fraction,
        cfg.guard_fraction,
        cfg.hsdir_fraction,
    );
    let mut relays: Vec<Relay> = base.relays().to_vec();
    // Normalized from day 0 so `total_share() == 1` holds for every
    // snapshot (the paper mix sums to ~1.05; only relative shares
    // reach the samplers, so this changes no generated event).
    let mut mix = DomainMix::paper_default();
    mix.normalize();
    let mut joined = 0;
    let mut left = 0;
    for d in 1..=day {
        let mut rng = diff::net_day_rng(cfg.seed, d);
        (joined, left) = evolve_consensus(&mut relays, cfg, &mut rng);
        let mut mix_rng = diff::mix_day_rng(cfg.seed, d);
        drift_mix(&mut mix, cfg.mix_drift_sigma, &mut mix_rng);
    }
    for (i, r) in relays.iter_mut().enumerate() {
        r.id = RelayId(i as u32);
    }
    DaySnapshot {
        day,
        consensus: Arc::new(Consensus::new(relays)),
        mix,
        joined,
        left,
    }
}

/// One daily consensus step: leaves, joins, weight drift. Returns
/// `(joined, left)`.
///
/// Every position is guaranteed a background survivor: leaves are
/// uniform, so over a long high-churn campaign an unconstrained
/// process eventually removes every background Exit- or HSDir-flagged
/// relay — the instrumented fraction would hit 1.0 and exit/onion
/// rounds would extrapolate a network consisting of our own relays.
/// When every background holder of a flag is marked to leave, the
/// first holder stays instead.
///
/// Joining relays draw their flag flavor from the day RNG
/// ([`diff::join_flag_flavor`], 1/3 each) — the fix for the `j % 3`
/// cycling bias that made every 1-join day a Guard+HSDir join and
/// never an Exit. [`diff::DayDelta::compute`] mirrors this function's
/// draws record-for-record; any change here must change there too.
fn evolve_consensus(relays: &mut Vec<Relay>, cfg: &TimelineConfig, rng: &mut StdRng) -> (u64, u64) {
    let before = relays.len();
    // Instrumented relays are ours: they never leave mid-campaign (and
    // draw nothing, keeping the day's RNG stream stable).
    let mut leaves: Vec<bool> = relays
        .iter()
        .map(|r| !r.instrumented && rng.gen::<f64>() < cfg.relay_leave_prob)
        .collect();
    for flag in [
        RelayFlags::GUARD,
        RelayFlags::EXIT,
        RelayFlags::HSDIR,
        RelayFlags::FAST,
    ] {
        let survives = relays
            .iter()
            .zip(&leaves)
            .any(|(r, &leave)| !leave && !r.instrumented && r.flags.contains(flag));
        if !survives {
            if let Some(i) = relays
                .iter()
                .position(|r| !r.instrumented && r.flags.contains(flag))
            {
                leaves[i] = false;
            }
        }
    }
    let mut leave_iter = leaves.iter();
    relays.retain(|_| !leave_iter.next().expect("one decision per relay"));
    let left = (before - relays.len()) as u64;
    let joined = poisson_approx(cfg.relay_joins_per_day, rng);
    for j in 0..joined {
        let flags = diff::join_flag_flavor(rng);
        relays.push(Relay {
            id: RelayId(0), // re-indexed by the caller
            nickname: format!("join{j}"),
            weight: 0.5 + rng.gen::<f64>(), // fresh relays ramp up around bg weight
            flags,
            instrumented: false,
        });
    }
    for r in relays.iter_mut() {
        r.weight *= (cfg.weight_drift_sigma * sample_gaussian(1.0, rng)).exp();
    }
    (joined, left)
}

/// One daily log-normal step of every drifting mix share, followed by a
/// renormalization. The steps are independent, so without the
/// renormalization the total share performs an unbounded random walk —
/// over a 30+ day campaign it drifts arbitrarily far from 1 and every
/// category's *absolute* visit share is silently distorted, even though
/// the alias tables downstream keep relative sampling correct.
/// Dividing by the post-step total preserves exactly the relative drift
/// while pinning the invariant `total_share() == 1`.
fn drift_mix(mix: &mut DomainMix, sigma: f64, rng: &mut StdRng) {
    mix.for_each_share_mut(&mut |x: &mut f64| *x *= (sigma * sample_gaussian(1.0, rng)).exp());
    mix.normalize();
    let total = mix.total_share();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "mix drift must preserve total share 1, got {total}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(seed: u64) -> NetworkTimeline {
        NetworkTimeline::new(
            TimelineConfig::paper_default(seed),
            ChurnModel::new(2_000, 760, seed ^ 0xC1),
            30,
            Arc::new(GeoDb::paper_default()),
        )
    }

    #[test]
    fn snapshots_are_pure_and_day_indexed() {
        let t = timeline(9);
        let a = t.snapshot(5);
        let b = t.snapshot(5);
        assert_eq!(
            a.consensus.relays().len(),
            b.consensus.relays().len(),
            "snapshot must not depend on call order"
        );
        assert_eq!(a.fraction(Position::Guard), b.fraction(Position::Guard));
        assert_eq!(a.mix.torproject, b.mix.torproject);
        // The network actually evolves.
        let day0 = t.snapshot(0);
        assert_ne!(
            day0.fraction(Position::Guard),
            a.fraction(Position::Guard),
            "weight fraction must drift"
        );
        assert_ne!(day0.mix.torproject, a.mix.torproject);
    }

    #[test]
    fn instrumented_relays_survive_churn() {
        let t = timeline(11);
        for day in [0, 3, 10] {
            let snap = t.snapshot(day);
            let ours = snap
                .consensus
                .relays()
                .iter()
                .filter(|r| r.instrumented)
                .count();
            assert_eq!(ours, 16, "day {day}: instrumented relays must persist");
            let frac = snap.fraction(Position::Guard);
            assert!(frac > 0.0 && frac < 0.1, "day {day}: fraction {frac}");
        }
    }

    #[test]
    fn fraction_drift_stays_same_order_of_magnitude() {
        let t = timeline(13);
        let base = t.snapshot(0).fraction(Position::Guard);
        for day in 1..=14 {
            let f = t.snapshot(day).fraction(Position::Guard);
            assert!(
                f > base / 5.0 && f < base * 5.0,
                "day {day}: fraction {f} drifted too far from {base}"
            );
        }
    }

    #[test]
    fn day_truth_merge_is_associative_over_days() {
        let t = timeline(17);
        let truth = |day| t.client_ip_day(day, 0.5, 1, vec![RelayId(0)]).1;
        let (a, b, c) = (truth(0), truth(1), truth(2));
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.clone().merge(c.clone()));
        assert_eq!(left, right);
        // Stable core counted once: union < sum of dailies.
        let sum = a.unique() + b.unique() + c.unique();
        assert!(left.unique() < sum, "{} vs {sum}", left.unique());
        assert!(left.unique() > a.unique());
        assert_eq!(left.days.len(), 3);
    }

    #[test]
    fn stream_and_truth_share_the_pool() {
        let t = timeline(19);
        let (stream, truth) = t.client_ip_day(2, 0.4, 4, vec![RelayId(0), RelayId(1)]);
        let mut seen = BTreeSet::new();
        stream.for_each(|ev| {
            if let TorEvent::EntryConnection { client_ip, .. } = ev {
                seen.insert(client_ip);
            }
        });
        assert_eq!(seen, truth.items);
        assert!(truth.unique() > 100, "{}", truth.unique());
    }

    #[test]
    fn pool_collisions_do_not_duplicate_events() {
        // Regression for the promiscuous-collision bugfix: confine the
        // IP universe to 8 addresses so 20 churned slots + 20
        // promiscuous draws *must* collide (pigeonhole), then check the
        // stream emits exactly one event per distinct IP — before the
        // pool dedupe it emitted one per slot, overcounting every
        // statistic derived from event counts while `DistinctTruth.items`
        // (a set) stayed correct.
        let geo = Arc::new(GeoDb::confined(
            &[(crate::ids::CountryCode::new("AA"), 1.0)],
            8,
        ));
        let t = NetworkTimeline::new(
            TimelineConfig::paper_default(41),
            ChurnModel::new(20, 5, 9),
            20,
            geo,
        );
        for day in [0, 1, 5] {
            let (stream, truth) = t.client_ip_day(day, 1.0, 3, vec![RelayId(0)]);
            let mut events = 0u64;
            let mut seen = BTreeSet::new();
            stream.for_each(|ev| {
                if let TorEvent::EntryConnection { client_ip, .. } = ev {
                    events += 1;
                    seen.insert(client_ip);
                }
            });
            assert!(truth.unique() <= 8, "day {day}: universe is 8 IPs");
            assert!(truth.unique() > 0, "day {day}: pool must not be empty");
            assert_eq!(
                events,
                truth.unique(),
                "day {day}: one event per distinct IP, not per slot"
            );
            assert_eq!(seen, truth.items, "day {day}: stream and truth agree");
        }
    }

    #[test]
    fn client_stream_shard_invariant() {
        let t = timeline(23);
        let collect = |k| {
            let mut out = Vec::new();
            t.client_ip_day(1, 0.4, k, vec![RelayId(0)])
                .0
                .for_each(|ev| out.push(format!("{ev:?}")));
            out.sort();
            out
        };
        let base = collect(1);
        assert!(!base.is_empty());
        for k in [4, 16] {
            assert_eq!(base, collect(k), "shard count {k} changed the stream");
        }
    }

    #[test]
    fn drifted_mix_total_share_stays_one() {
        // The drift bugfix: independent log-normal steps used to leave
        // the total share on an unbounded random walk; every snapshot
        // must now sum to exactly 1 while relative shares keep moving.
        let t = timeline(31);
        let mut previous = f64::NAN;
        for day in [0, 1, 10, 30] {
            let snap = t.snapshot(day);
            let total = snap.mix.total_share();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "day {day}: mix total {total} drifted off 1"
            );
            assert_ne!(snap.mix.torproject, previous, "day {day}: share frozen");
            previous = snap.mix.torproject;
        }
    }

    #[test]
    fn high_churn_never_empties_a_position() {
        // The churn bugfix: with aggressive leave probability and few
        // joins, an unconstrained process strips every background Exit/
        // HSDir relay within days. Every position must keep at least
        // one background relay, and the instrumented fraction must stay
        // strictly inside (0, 1).
        let cfg = TimelineConfig {
            n_background: 30,
            relay_leave_prob: 0.9,
            relay_joins_per_day: 0.3,
            ..TimelineConfig::paper_default(77)
        };
        let t = NetworkTimeline::new(
            cfg,
            ChurnModel::new(100, 40, 7),
            5,
            Arc::new(GeoDb::paper_default()),
        );
        for day in [1, 3, 10, 30] {
            let snap = t.snapshot(day);
            for pos in [
                Position::Guard,
                Position::Exit,
                Position::HsDir,
                Position::Middle,
                Position::Rendezvous,
            ] {
                let background = snap
                    .consensus
                    .eligible(pos)
                    .filter(|r| !r.instrumented)
                    .count();
                assert!(background >= 1, "day {day}: {pos:?} has no background");
                let f = snap.fraction(pos);
                assert!(f > 0.0 && f < 1.0, "day {day}: {pos:?} fraction {f}");
            }
        }
    }

    fn small_sites() -> Arc<SiteList> {
        Arc::new(SiteList::new(crate::sites::SiteListConfig {
            alexa_size: 20_000,
            long_tail_size: 50_000,
            seed: 5,
        }))
    }

    #[test]
    fn exit_stream_day_truth_matches_stream_and_is_shard_invariant() {
        let t = timeline(37);
        let sites = small_sites();
        let snap = t.snapshot(2);
        let exit = crate::workload::Workload::paper_default().exit;
        let (streams, truth) = t.exit_stream_day(
            &snap,
            &sites,
            &exit,
            1e-4,
            4,
            vec![RelayId(0), RelayId(1)],
            2,
        );
        assert_eq!(streams.len(), 2);
        assert_eq!(truth.days, BTreeSet::from([2]));
        // Both copies and the truth describe the identical event set.
        let mut fingerprints = Vec::new();
        for stream in streams {
            let mut events = Vec::new();
            let mut slds = BTreeSet::new();
            let (mut total, mut initial) = (0u64, 0u64);
            stream.for_each(|ev| {
                events.push(format!("{ev:?}"));
                if let TorEvent::ExitStream {
                    initial: init,
                    domain,
                    ..
                } = ev
                {
                    total += 1;
                    if init {
                        initial += 1;
                    }
                    if let Some(d) = domain {
                        slds.insert(sites.sld(d));
                    }
                }
            });
            events.sort();
            assert_eq!(total, truth.tally.streams);
            assert_eq!(initial, truth.tally.initial_streams);
            assert_eq!(slds, truth.items);
            fingerprints.push(events);
        }
        assert_eq!(fingerprints[0], fingerprints[1], "copies must be identical");
        assert!(truth.unique() > 50, "{}", truth.unique());
        assert!(truth.tally.streams > truth.tally.initial_streams);
        // Shard-count invariance of both events and truth.
        for k in [1, 16] {
            let (streams_k, truth_k) = t.exit_stream_day(
                &snap,
                &sites,
                &exit,
                1e-4,
                k,
                vec![RelayId(0), RelayId(1)],
                1,
            );
            assert_eq!(truth_k, truth, "shard count {k} changed the truth");
            let mut events = Vec::new();
            for s in streams_k {
                s.for_each(|ev| events.push(format!("{ev:?}")));
            }
            events.sort();
            assert_eq!(events, fingerprints[0], "shard count {k} changed events");
        }
        // A different day samples a different drifted mix and fraction.
        let snap9 = t.snapshot(9);
        let (_, truth9) = t.exit_stream_day(&snap9, &sites, &exit, 1e-4, 4, vec![RelayId(0)], 1);
        assert_ne!(truth9.items, truth.items);
    }

    #[test]
    fn hs_stream_day_truth_matches_streams() {
        let t = timeline(41);
        let sites = small_sites();
        let snap = t.snapshot(3);
        let onion = crate::workload::Workload::paper_default().onion;
        let day = t.hs_stream_day(&snap, &sites, &onion, 1e-2, 4, vec![RelayId(0)]);
        let truth = day.truth;
        let mut published = BTreeSet::new();
        let mut publishes = 0u64;
        day.publish.for_each(|ev| {
            if let TorEvent::HsDescPublish { addr, .. } = ev {
                published.insert(addr);
                publishes += 1;
            }
        });
        let mut rends = 0u64;
        day.rendezvous.for_each(|ev| {
            if let TorEvent::RendCircuit { .. } = ev {
                rends += 1;
            }
        });
        assert_eq!(published, truth.items);
        assert_eq!(publishes, truth.tally.publishes);
        assert_eq!(rends, truth.tally.rend_circuits);
        assert!(truth.unique() > 0, "observed no published addresses");
        assert!(
            truth.tally.rend_circuits > 100,
            "{}",
            truth.tally.rend_circuits
        );
        assert_eq!(truth.days, BTreeSet::from([3]));
        // The thinning parameters travel with the streams and match the
        // snapshot they were derived from.
        assert_eq!(
            day.publish_observe,
            hsdir_observe_fraction(snap.fraction(Position::HsDir), 2)
        );
        assert_eq!(day.rend_fraction, snap.fraction(Position::Rendezvous));
        // Truth is shard-count invariant.
        let day1 = t.hs_stream_day(&snap, &sites, &onion, 1e-2, 1, vec![RelayId(0)]);
        assert_eq!(day1.truth, truth);
    }

    #[test]
    fn domain_and_onion_truths_merge_associatively() {
        let t = timeline(43);
        let sites = small_sites();
        let exit = crate::workload::Workload::paper_default().exit;
        let truth = |day| {
            t.exit_stream_day(
                &t.snapshot(day),
                &sites,
                &exit,
                2e-5,
                1,
                vec![RelayId(0)],
                1,
            )
            .1
        };
        let (a, b, c) = (truth(0), truth(1), truth(2));
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.clone().merge(c.clone()));
        assert_eq!(left, right);
        assert_eq!(
            left.tally.streams,
            a.tally.streams + b.tally.streams + c.tally.streams
        );
        // Popular SLDs recur across days: the union is below the sum.
        assert!(left.unique() < a.unique() + b.unique() + c.unique());
        assert!(left.unique() >= a.unique());
    }

    #[test]
    fn observation_respects_stable_core() {
        // The same observation probability on two days must observe the
        // same stable-core subset (per-IP uniforms are day-independent).
        let t = timeline(29);
        let stable = t.churn().stable_count();
        let geo = Arc::new(GeoDb::paper_default());
        let mut kept = 0u64;
        for slot in 0..stable {
            let ip = t.churn().ip_at(slot, 0, &geo);
            assert_eq!(
                t.observed(ip, 0.3),
                t.observed(ip, 0.3),
                "observation must be a pure function of the IP"
            );
            if t.observed(ip, 0.3) {
                kept += 1;
            }
        }
        let frac = kept as f64 / stable as f64;
        assert!((frac - 0.3).abs() < 0.05, "observe fraction {frac}");
    }
}
