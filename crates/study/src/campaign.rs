//! The campaign engine: calendar planning, §3.1 validation, and
//! day-indexed parallel execution (see the crate docs for the model).

use crate::anomaly::{Anomaly, AnomalyKind};
use crate::report::CampaignReport;
use pm_dp::accountant::{Accountant, MeasurementRound, System};
use pm_net::party::NodeError;
use pm_stats::guards::observe_probability;
use pm_stats::sampling::derive_seed;
use pm_stats::union::{multi_day_network_estimate, DayShare};
use pm_stats::Estimate;
use std::ops::Range;
use std::sync::Arc;
use torsim::churn::ChurnModel;
use torsim::ids::{IpAddr, OnionAddr};
use torsim::relay::Position;
use torsim::stream::EventStream;
use torsim::timeline::{
    DaySnapshot, DistinctTruth, ExitTally, NetworkTimeline, OnionTally, Tally, TimelineConfig,
};
use torstudy::deployment::Deployment;
use torstudy::experiments::{client_traffic_streams, privcount_round, psc_round};
use torstudy::report::{fmt_count, fmt_estimate, Report, ReportRow};
use torstudy::runner::{run_jobs_with, Job};

/// What a campaign round measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// PSC distinct client IPs over the round's window (1-day rounds
    /// and the 96-hour churn round).
    UniqueIps,
    /// PSC distinct client countries on the round's day.
    UniqueCountries,
    /// PrivCount connections/circuits/bytes, one day-indexed sub-round
    /// per day of the window.
    ClientTraffic,
    /// Exit-domain window (§4): one PSC unique-SLD round chained over
    /// the window's per-day exit streams, plus day-indexed PrivCount
    /// stream counters over identical copies of the same streams. The
    /// cross-day unique-SLD total extrapolates each day's fresh
    /// contribution by that day's own exit fraction.
    ExitDomains,
    /// Onion-service window (§6): one PSC unique-published-address
    /// round chained over the window's per-day HSDir publish streams,
    /// plus day-indexed PrivCount rendezvous counters; the network
    /// extrapolation combines each day's own replica-level observe
    /// probability.
    OnionServices,
}

impl RoundKind {
    /// The measurement system the round occupies (§3.1 forbids
    /// overlapping rounds of either system). The exit/onion windows run
    /// PrivCount sub-rounds alongside their PSC round over bit-identical
    /// copies of the same streams; the ledger carries them as a single
    /// PSC round (the oblivious table is what the executor's memory cap
    /// must see), and since the [`Accountant`] rejects *any* round
    /// overlap, no *other* round of either system can land inside the
    /// window. The two systems sharing one collection within the window
    /// is a deliberate relaxation of the paper's operational rule that
    /// the ledger does not model — one window, one measurement unit.
    pub fn system(self) -> System {
        match self {
            RoundKind::UniqueIps
            | RoundKind::UniqueCountries
            | RoundKind::ExitDomains
            | RoundKind::OnionServices => System::Psc,
            RoundKind::ClientTraffic => System::PrivCount,
        }
    }
}

/// A Byzantine scenario injected into every round of a campaign — the
/// adversarial scenario suite. Each round kind lowers the scenario to
/// the matching protocol-level attack ([`psc::adversary::Attack`] /
/// [`privcount::adversary::Attack`]); the campaign then asserts the
/// attack is *detected* — the round ends [`RoundStatus::Aborted`] with
/// the detecting party named, or [`RoundStatus::Recovered`] with the
/// degradation flagged — instead of panicking the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CampaignAttack {
    /// Honest campaign (the default).
    #[default]
    None,
    /// A DC submits structurally malformed shares (wrong-size PSC
    /// table / short PrivCount register vector). Caught by the TS.
    ByzantineShares,
    /// A DC submits statistically-skewed shares (bogus PSC marks /
    /// inflated PrivCount increments). Protocol-invisible; caught by
    /// the campaign's plausibility cap, degrading the round.
    SkewedShares,
    /// A computation party / share keeper dies mid-round. Caught by
    /// the deterministic runner's deadlock detector.
    KeeperDeath,
    /// A party corrupts its cryptographic transcript (invalid PSC
    /// mixing proof, verified rounds only; truncated PrivCount share
    /// ciphertext). Caught by the verifying TS / the receiving SK.
    InvalidProof,
    /// A party's noise budget runs out mid-campaign; it refuses to
    /// run under-noised rather than silently weaken the DP guarantee.
    NoiseExhaustion,
}

impl CampaignAttack {
    /// Every non-trivial scenario (the matrix tests iterate this).
    pub const ALL: [CampaignAttack; 5] = [
        CampaignAttack::ByzantineShares,
        CampaignAttack::SkewedShares,
        CampaignAttack::KeeperDeath,
        CampaignAttack::InvalidProof,
        CampaignAttack::NoiseExhaustion,
    ];

    /// Stable CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignAttack::None => "none",
            CampaignAttack::ByzantineShares => "byzantine-shares",
            CampaignAttack::SkewedShares => "skewed-shares",
            CampaignAttack::KeeperDeath => "keeper-death",
            CampaignAttack::InvalidProof => "invalid-proof",
            CampaignAttack::NoiseExhaustion => "noise-exhaustion",
        }
    }

    /// Parses a CLI name ([`Self::name`]).
    pub fn parse(name: &str) -> Option<CampaignAttack> {
        std::iter::once(CampaignAttack::None)
            .chain(Self::ALL)
            .find(|a| a.name() == name)
    }
}

/// How one executed round ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundStatus {
    /// The round ran to completion and its output is plausible.
    Completed,
    /// The round completed but its output is degraded (e.g. an
    /// implausible count from a statistically-skewed share); it is
    /// reported but flagged, and excluded from headline claims.
    Recovered {
        /// What is wrong with the output.
        degraded: String,
    },
    /// The round failed before producing a result. Its privacy budget
    /// stays spent and its ledger slot occupied (§3.1 accounts hours,
    /// not success).
    Aborted {
        /// The failure, as reported by the detecting party.
        reason: String,
        /// Who detected it: a party id, or `"runner"` for
        /// runner-level detection (deadlock).
        detected_by: String,
    },
}

impl RoundStatus {
    /// True when the round produced no result.
    pub fn is_aborted(&self) -> bool {
        matches!(self, RoundStatus::Aborted { .. })
    }

    /// True when the round completed with a plausible output.
    pub fn is_completed(&self) -> bool {
        matches!(self, RoundStatus::Completed)
    }
}

/// One scheduled measurement round of the campaign calendar.
#[derive(Clone, Debug)]
pub struct RoundSpec {
    /// Round id (unique within the campaign; labels seeds and reports).
    pub id: String,
    /// Statistic name for the §3.1 ledger: rounds with the same
    /// statistic are repeats (may be adjacent, are dependency-ordered
    /// and reconciled); distinct statistics need the 24-hour gap.
    pub statistic: String,
    /// What the round measures.
    pub kind: RoundKind,
    /// First calendar day of collection.
    pub start_day: u64,
    /// Collection days (1 for dailies, 4 for the churn round).
    pub duration_days: u64,
}

impl RoundSpec {
    /// The calendar days the round collects over.
    pub fn days(&self) -> Range<u64> {
        self.start_day..self.start_day + self.duration_days
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Calendar length in days; rounds that do not fit are dropped.
    pub days: u64,
    /// Deployment scale in (0, 1] (see [`Deployment::at_scale`]).
    pub scale: f64,
    /// Base seed; every day/round RNG derives from it.
    pub seed: u64,
    /// Ingestion shards per stream (0 = deployment default).
    pub shards: usize,
    /// Network-evolution override (`None` = the paper-shaped defaults
    /// derived from the seed). Lets stress tests drive the campaign
    /// over a high-churn or fast-drifting network.
    pub timeline: Option<TimelineConfig>,
    /// Fabric backend every round runs over (in-process per-link by
    /// default; `wire` carries protocol frames over real loopback
    /// sockets without changing a report byte).
    pub fabric: pm_net::FabricChoice,
    /// Byzantine scenario injected into every round (the adversarial
    /// scenario suite); [`CampaignAttack::None`] runs honestly.
    pub attack: CampaignAttack,
    /// Observability handle threaded through the deployment, the
    /// timeline, and every round. Its deterministic metrics snapshot is
    /// part of the campaign's bit-identity contract (identical for
    /// every worker and shard count); profiling spans are recorded only
    /// when it was built with profiling enabled.
    pub recorder: pm_obs::Recorder,
}

impl CampaignConfig {
    /// A campaign over `days` calendar days.
    pub fn new(days: u64, scale: f64, seed: u64) -> CampaignConfig {
        CampaignConfig {
            days,
            scale,
            seed,
            shards: 0,
            timeline: None,
            fabric: pm_net::FabricChoice::default(),
            attack: CampaignAttack::None,
            recorder: pm_obs::Recorder::new(),
        }
    }

    /// Overrides the ingestion shard count.
    pub fn with_shards(mut self, shards: usize) -> CampaignConfig {
        self.shards = shards;
        self
    }

    /// Overrides the network-evolution model.
    pub fn with_timeline(mut self, timeline: TimelineConfig) -> CampaignConfig {
        self.timeline = Some(timeline);
        self
    }

    /// Overrides the fabric backend every round runs over.
    pub fn with_fabric(mut self, fabric: pm_net::FabricChoice) -> CampaignConfig {
        self.fabric = fabric;
        self
    }

    /// Injects a Byzantine scenario into every round.
    pub fn with_attack(mut self, attack: CampaignAttack) -> CampaignConfig {
        self.attack = attack;
        self
    }

    /// Attaches an observability recorder (see
    /// [`CampaignConfig::recorder`]).
    pub fn with_recorder(mut self, recorder: pm_obs::Recorder) -> CampaignConfig {
        self.recorder = recorder;
        self
    }
}

/// The outcome of one executed round.
pub struct RoundOutcome {
    /// The round.
    pub spec: RoundSpec,
    /// Its rendered report.
    pub report: Report,
    /// Ground truth per collected day, in calendar order (client-IP
    /// rounds only).
    pub day_truths: Vec<DistinctTruth<IpAddr>>,
    /// Per-day exit-domain ground truth (exit-domain rounds only).
    pub domain_truths: Vec<DistinctTruth<String, ExitTally>>,
    /// Per-day onion-service ground truth (onion-service rounds only).
    pub onion_truths: Vec<DistinctTruth<OnionAddr, OnionTally>>,
    /// Headline measured estimate (at scale for unique counts).
    pub estimate: Option<Estimate>,
    /// Network-wide extrapolation of [`Self::estimate`] using each
    /// collected day's own observation fraction (where the round
    /// performs one).
    pub network_estimate: Option<Estimate>,
    /// The estimate repeats of this statistic are reconciled on: the
    /// network-extrapolated value — the quantity that is *constant*
    /// across repeat days, unlike the day's realized observed pool —
    /// with the Binomial observation-sampling variance (which the PSC
    /// interval does not include) folded into the CI. `None` falls
    /// back to [`Self::estimate`].
    pub reconcile_estimate: Option<Estimate>,
    /// How the round ended. Aborted rounds carry empty truths and no
    /// estimates; their budget stays spent (§3.1 accounts hours).
    pub status: RoundStatus,
    /// Structured irregularities detected during the round (see
    /// [`crate::anomaly`]); the campaign report folds every round's
    /// records into one channel.
    pub anomalies: Vec<Anomaly>,
}

impl RoundOutcome {
    /// An outcome carrying no ground truths and no estimates.
    pub(crate) fn new(
        spec: &RoundSpec,
        report: Report,
        status: RoundStatus,
        anomalies: Vec<Anomaly>,
    ) -> RoundOutcome {
        RoundOutcome {
            spec: spec.clone(),
            report,
            day_truths: Vec::new(),
            domain_truths: Vec::new(),
            onion_truths: Vec::new(),
            estimate: None,
            network_estimate: None,
            reconcile_estimate: None,
            status,
            anomalies,
        }
    }
}

/// A planned, validated, runnable campaign.
pub struct Campaign {
    cfg: CampaignConfig,
    base: Deployment,
    timeline: NetworkTimeline,
    rounds: Vec<RoundSpec>,
}

/// The calendar templates, in scheduling priority order: the §5.1
/// client-IP measurement, its confirmation repeat, the 96-hour churn
/// round, then the PrivCount traffic and PSC country rounds, and
/// finally the two-day exit-domain and onion-service windows. A short
/// campaign keeps the highest-priority prefix that fits.
fn round_templates() -> Vec<(&'static str, &'static str, RoundKind, u64)> {
    vec![
        ("ips-a", "unique-ips", RoundKind::UniqueIps, 1),
        ("ips-b", "unique-ips", RoundKind::UniqueIps, 1),
        ("ips-4day", "unique-ips-4day", RoundKind::UniqueIps, 4),
        ("traffic", "client-traffic", RoundKind::ClientTraffic, 1),
        (
            "countries",
            "unique-countries",
            RoundKind::UniqueCountries,
            1,
        ),
        ("domains", "exit-domains", RoundKind::ExitDomains, 2),
        ("onions", "onion-services", RoundKind::OnionServices, 2),
    ]
}

impl Campaign {
    /// Builds the campaign: the evolving network, the churned client
    /// pool at the configured scale, and the default calendar —
    /// validated through the §3.1 [`Accountant`] (an invalid calendar
    /// is a programming error and panics here, never mid-execution).
    pub fn new(cfg: CampaignConfig) -> Campaign {
        let mut base = Deployment::at_scale(cfg.scale, cfg.seed)
            .with_recorder(cfg.recorder.clone())
            .with_fabric(cfg.fabric);
        if cfg.shards > 0 {
            base = base.with_shards(cfg.shards);
        }
        let clients = &base.workload.clients;
        let daily_unique = ((clients.selective_ips as f64 * cfg.scale) as u64).max(1);
        let new_per_day = (daily_unique as f64 * clients.daily_churn_fraction) as u64;
        let promiscuous = (clients.promiscuous_ips as f64 * cfg.scale).ceil() as u64;
        let timeline_cfg = cfg
            .timeline
            .clone()
            .unwrap_or_else(|| TimelineConfig::paper_default(derive_seed(cfg.seed, "timeline")));
        let timeline = NetworkTimeline::new(
            timeline_cfg,
            ChurnModel::new(daily_unique, new_per_day, derive_seed(cfg.seed, "churn")),
            promiscuous,
            Arc::clone(&base.geo),
        )
        .with_recorder(cfg.recorder.clone());
        let mut campaign = Campaign {
            cfg,
            base,
            timeline,
            rounds: Vec::new(),
        };
        campaign.rounds = campaign.default_calendar();
        campaign.validate();
        campaign
    }

    /// Lays the round templates onto the calendar greedily: each takes
    /// the earliest §3.1-legal start and is dropped if it would end
    /// after the campaign.
    fn default_calendar(&self) -> Vec<RoundSpec> {
        let mut accountant = Accountant::new();
        let horizon = self.cfg.days * 24;
        let mut rounds = Vec::new();
        for (id, statistic, kind, duration_days) in round_templates() {
            let stats = vec![statistic.to_string()];
            let start = accountant.earliest_start(&stats);
            let duration_hours = duration_days * 24;
            if start + duration_hours > horizon {
                continue;
            }
            accountant
                .schedule(MeasurementRound {
                    name: id.to_string(),
                    system: kind.system(),
                    start_hour: start,
                    duration_hours,
                    statistics: stats,
                })
                // lint:allow(panic) earliest_start vetted this placement; a refusal is a planner bug
                .expect("greedy placement is legal by construction");
            rounds.push(RoundSpec {
                id: id.to_string(),
                statistic: statistic.to_string(),
                kind,
                start_day: start / 24,
                duration_days,
            });
        }
        rounds
    }

    /// Re-validates the calendar through a fresh [`Accountant`] and
    /// returns the filled ledger. Panics on a §3.1 violation.
    pub fn validate(&self) -> Accountant {
        let mut accountant = Accountant::new();
        for spec in &self.rounds {
            accountant
                .schedule(MeasurementRound {
                    name: spec.id.clone(),
                    system: spec.kind.system(),
                    start_hour: spec.start_day * 24,
                    duration_hours: spec.duration_days * 24,
                    statistics: vec![spec.statistic.clone()],
                })
                // lint:allow(panic) validate() re-checks a calendar plan() already proved legal
                .unwrap_or_else(|e| panic!("campaign calendar violates §3.1: {e}"));
        }
        accountant
    }

    /// The scheduled rounds, in calendar order.
    pub fn rounds(&self) -> &[RoundSpec] {
        &self.rounds
    }

    /// The evolving network.
    pub fn timeline(&self) -> &NetworkTimeline {
        &self.timeline
    }

    /// The base (day-0) deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.base
    }

    /// Runs the whole calendar on up to `workers` threads (0 = the
    /// machine's parallelism) via the registry's generic executor:
    /// repeats of a statistic are dependency-ordered, everything else
    /// — §3.1 guarantees logically-disjoint intervals — runs
    /// wall-clock-concurrently, with PSC rounds throttled by the
    /// deployment's memory cap. The report is identical for every
    /// worker and shard count.
    pub fn run(&self, workers: usize) -> CampaignReport {
        let mut span = self.cfg.recorder.span("campaign.run", "study");
        span.note("days", self.cfg.days);
        span.note("rounds", self.rounds.len());
        CampaignReport::assemble(&self.cfg, self.run_rounds(workers))
    }

    /// Like [`Self::run`] but returns the raw per-round outcomes
    /// (reports plus mergeable ground truths and headline estimates) —
    /// what tests and custom aggregations introspect.
    pub fn run_rounds(&self, workers: usize) -> Vec<RoundOutcome> {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let jobs: Vec<Job<'_, RoundOutcome>> = self
            .rounds
            .iter()
            .enumerate()
            .map(|(i, spec)| Job {
                id: spec.id.clone(),
                is_psc: spec.kind.system() == System::Psc,
                deps: self.rounds[..i]
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.statistic == spec.statistic)
                    .map(|(j, _)| j)
                    .collect(),
                run: Box::new(move || self.run_round(spec)),
            })
            .collect();
        let outcomes = run_jobs_with(
            jobs,
            workers,
            self.base.max_concurrent_psc_rounds,
            &self.cfg.recorder,
        );
        // Outcome tallies are pure functions of (config, calendar) —
        // every schedule produces the same statuses and anomalies — so
        // they live in the deterministic plane. Ledger hours come from
        // the validated calendar, not from execution.
        let rec = &self.cfg.recorder;
        rec.add(
            "study.ledger.hours",
            self.rounds.iter().map(|s| s.duration_days * 24).sum(),
        );
        for outcome in &outcomes {
            let status = match outcome.status {
                RoundStatus::Completed => "study.rounds.completed",
                RoundStatus::Recovered { .. } => "study.rounds.recovered",
                RoundStatus::Aborted { .. } => "study.rounds.aborted",
            };
            rec.incr(status);
            rec.add("study.anomalies", outcome.anomalies.len() as u64);
        }
        outcomes
    }

    /// Lowers the campaign scenario to a PSC-level attack on `cfg`.
    /// Indices are deterministic (DC 0 / the second CP), so an
    /// attacked campaign renders bit-identically across schedules.
    fn apply_psc_attack(&self, cfg: &mut psc::PscConfig) {
        match self.cfg.attack {
            CampaignAttack::None => {}
            CampaignAttack::ByzantineShares => {
                cfg.adversary = psc::adversary::Attack::MalformedTable { dc: 0 };
            }
            CampaignAttack::SkewedShares => {
                // Enough bogus marks to saturate well past the
                // plausibility cap whatever the table size.
                cfg.adversary = psc::adversary::Attack::SkewedShares {
                    dc: 0,
                    extra_marks: cfg.table_size * 3 / 4,
                };
            }
            CampaignAttack::KeeperDeath => {
                cfg.adversary = psc::adversary::Attack::CpDeath {
                    cp: 1,
                    after_messages: 1,
                };
            }
            CampaignAttack::InvalidProof => {
                // Invalid proofs are only detectable when the round
                // verifies them; the TS fails on the first corrupted
                // hop, so verification cost stays contained.
                cfg.adversary = psc::adversary::Attack::InvalidProof { cp: 0 };
                cfg.verify = true;
            }
            CampaignAttack::NoiseExhaustion => {
                cfg.adversary = psc::adversary::Attack::NoiseExhaustion { cp: 1, budget: 0 };
            }
        }
    }

    /// Lowers the campaign scenario to a PrivCount-level attack.
    /// `InvalidProof` maps to the corrupted-ciphertext attack —
    /// PrivCount has no mixing proofs; a truncated share payload is
    /// its closest transcript-corruption analogue.
    fn apply_privcount_attack(&self, cfg: &mut privcount::RoundConfig) {
        match self.cfg.attack {
            CampaignAttack::None => {}
            CampaignAttack::ByzantineShares => {
                cfg.adversary = privcount::adversary::Attack::MalformedRegisters { dc: 0 };
            }
            CampaignAttack::SkewedShares => {
                cfg.adversary = privcount::adversary::Attack::InflatedCounts {
                    dc: 0,
                    factor: 1000,
                };
            }
            CampaignAttack::KeeperDeath => {
                cfg.adversary = privcount::adversary::Attack::SkDeath {
                    sk: 0,
                    after_messages: 1,
                };
            }
            CampaignAttack::InvalidProof => {
                cfg.adversary = privcount::adversary::Attack::BadSharePayload { dc: 0 };
            }
            CampaignAttack::NoiseExhaustion => {
                cfg.adversary = privcount::adversary::Attack::NoiseExhaustion { dc: 0, budget: 0 };
            }
        }
    }

    /// Packages a failed round as an aborted outcome: the failure and
    /// its detecting party become a report note, a structured anomaly,
    /// and the round status — never a panic. Ground truths are dropped
    /// (the round produced nothing to compare them against) and the
    /// round's budget stays spent.
    fn aborted_outcome(&self, spec: &RoundSpec, err: NodeError) -> RoundOutcome {
        let detected_by = err
            .detected_by()
            .map_or_else(|| "runner".to_string(), |p| p.as_str().to_string());
        let reason = err.reason();
        let detail = format!("{reason} (detected by {detected_by})");
        let title = format!("Round {}, {} — ABORTED", spec.id, window(spec));
        let mut report = Report::new(spec.id.clone(), title);
        report.note(format!("aborted: {detail}"));
        let day = Some(spec.start_day);
        let anomaly = Anomaly::new(AnomalyKind::Aborted, spec.id.clone(), day, detail);
        let status = RoundStatus::Aborted {
            reason,
            detected_by,
        };
        RoundOutcome::new(spec, report, status, vec![anomaly])
    }

    /// Executes one round against its day-indexed deployment: the
    /// round kind's plain description, run by the shared pipeline
    /// ([`RoundPlan::run`]).
    fn run_round(&self, spec: &RoundSpec) -> RoundOutcome {
        let n = spec.duration_days;
        let workload = &self.base.workload;
        match spec.kind {
            RoundKind::UniqueIps => RoundPlan {
                title: format!("Unique client IPs, {} (PSC)", window(spec)),
                observe: |c, _, dep, snap| c.observe_clients(dep, snap, |ip| ip),
                psc: Some(PscPlan {
                    items: |_| psc::items::unique_client_ips(),
                    // Noise sensitivity per Table 1, matching tab5's
                    // calibration: a 1-day round bounds NewIpDay1 at 4; a
                    // multi-day round bounds NewIpMultiDay at 3 per day.
                    sensitivity: if n == 1 { 4 } else { 3 * n },
                    expected: |union| union as f64,
                    label: format!("unique IPs ({n} day(s), at scale)"),
                    paper: if n >= 4 {
                        "672,303 [671,781; 1,118,147]"
                    } else {
                        "313,213 [313,039; 376,343]"
                    },
                    day_row: Some(("pool / fresh", |t| t.unique().to_string())),
                    network: Some(NetworkPlan {
                        how: Extrapolation::ClientPool,
                        label: "network-wide clients (per-day fractions)",
                        // The churn process's definitional multi-day union
                        // (pinned exact by the ChurnModel proptests) plus
                        // the stable promiscuous set: the network-wide pool
                        // the per-day-fraction inference tries to recover.
                        truth: Some(
                            (self.timeline.churn().unique_over(n) + self.timeline.promiscuous())
                                as f64,
                        ),
                        paper: "—",
                    }),
                }),
                privcount: None,
                note: &["guard fractions"],
                note_exact: false,
                keep: |o, truths| o.day_truths = truths,
            }
            .run(self, spec),
            RoundKind::UniqueCountries => RoundPlan {
                title: format!("Unique client countries, day {} (PSC)", spec.start_day),
                observe: |c, _, dep, snap| {
                    c.observe_clients(dep, snap, |ip| dep.geo.country_of(ip))
                },
                psc: Some(PscPlan {
                    items: |dep| psc::items::unique_countries(Arc::clone(&dep.geo)),
                    sensitivity: 4,
                    expected: |_| 260.0,
                    label: "countries (at scale)".into(),
                    paper: "203 [141; 250]",
                    day_row: None,
                    network: None,
                }),
                privcount: None,
                note: &[],
                note_exact: false,
                keep: |_, _| {},
            }
            .run(self, spec),
            RoundKind::ClientTraffic => RoundPlan::<(), ()> {
                title: format!("Client traffic, {} (PrivCount)", window(spec)),
                observe: |c, spec, _, snap| {
                    let day_dep = c.base.for_day(snap);
                    let p = day_dep.weights.tab4_entry;
                    DayObservation {
                        psc: None,
                        privcount: client_traffic_streams(&day_dep, p, 10, &spec.id),
                        observe: p,
                        fraction: p,
                        noted: vec![p],
                    }
                },
                psc: None,
                privcount: Some(PrivCountPlan {
                    schema: privcount::queries::client_traffic,
                    counter: "client.connections",
                    label: "connections (network-wide)",
                    truth: workload.clients.connections_per_day,
                    paper: "148e6 [143e6; 153e6]",
                }),
                note: &["entry fractions"],
                note_exact: true,
                keep: |_, _| {},
            }
            .run(self, spec),
            RoundKind::ExitDomains => RoundPlan {
                title: format!(
                    "Exit domains, {} (PSC SLDs + PrivCount streams)",
                    window(spec)
                ),
                observe: |c, _, dep, snap| {
                    let p = snap.fraction(Position::Exit);
                    let exit = &c.base.workload.exit;
                    let relays = dep.exit_relays();
                    let (mut streams, truth) = c
                        .timeline
                        .exit_stream_day(snap, &dep.sites, exit, dep.scale, dep.shards, relays, 2);
                    // Both systems observe the identical events of the
                    // shared window, so their truths cannot drift apart.
                    let privcount = streams.split_off(1);
                    DayObservation {
                        psc: streams.pop().map(|stream| (stream, truth)),
                        privcount,
                        observe: p,
                        fraction: p,
                        noted: vec![p],
                    }
                },
                psc: Some(PscPlan {
                    items: |dep| psc::items::unique_slds(Arc::clone(&dep.sites), false),
                    // Table 1 sensitivity: tab2's SLD round bounds 20 per day.
                    sensitivity: 20 * n,
                    expected: |union| union as f64,
                    label: format!("unique SLDs ({n} day(s), at scale)"),
                    paper: "471,228 [470,357; 472,099]",
                    day_row: Some(("streams / initial / fresh SLDs", |t| {
                        format!("{} / {}", t.tally.streams, t.tally.initial_streams)
                    })),
                    network: Some(NetworkPlan {
                        how: Extrapolation::PerDayShares,
                        label: "network-wide SLDs (per-day exit fractions)",
                        truth: None,
                        paper: "—",
                    }),
                }),
                privcount: Some(PrivCountPlan {
                    schema: privcount::queries::exit_streams,
                    counter: "streams.initial",
                    label: "initial streams (network-wide)",
                    truth: workload.exit.streams_per_day * workload.exit.initial_fraction,
                    paper: "≈1.0e8 (Fig. 1)",
                }),
                note: &["exit fractions"],
                note_exact: false,
                keep: |o, truths| o.domain_truths = truths,
            }
            .run(self, spec),
            RoundKind::OnionServices => RoundPlan {
                title: format!(
                    "Onion services, {} (PSC publishes + PrivCount rendezvous)",
                    window(spec)
                ),
                observe: |c, _, dep, snap| {
                    let onion = &c.base.workload.onion;
                    let relays = dep.entry_relays();
                    let hs = c
                        .timeline
                        .hs_stream_day(snap, &dep.sites, onion, dep.scale, dep.shards, relays);
                    // Extrapolation divides by the exact probabilities the
                    // streams were thinned at; they travel with the streams.
                    DayObservation {
                        psc: Some((hs.publish, hs.truth)),
                        privcount: vec![hs.rendezvous],
                        observe: hs.publish_observe,
                        fraction: hs.rend_fraction,
                        noted: vec![hs.publish_observe, hs.rend_fraction],
                    }
                },
                psc: Some(PscPlan {
                    items: |_| psc::items::unique_onions_published(),
                    // Table 1 sensitivity: tab6's publish round bounds 3 per day.
                    sensitivity: 3 * n,
                    expected: |union| (union as f64).max(64.0),
                    label: format!("unique onions published ({n} day(s), at scale)"),
                    paper: "3,900 [3,769; 4,045]",
                    day_row: Some(("publishes / fresh onions", |t| {
                        t.tally.publishes.to_string()
                    })),
                    network: Some(NetworkPlan {
                        how: Extrapolation::CombinedDays,
                        label: "network-wide published (per-day HSDir fractions)",
                        truth: Some(workload.onion.published_addresses as f64),
                        paper: "70,826 [65,738; 76,350]",
                    }),
                }),
                privcount: Some(PrivCountPlan {
                    schema: privcount::queries::rendezvous,
                    counter: "rend.circuits",
                    label: "rend circuits (network-wide)",
                    truth: workload.onion.rend_circuits_per_day,
                    paper: "366e6 [351e6; 380e6]",
                }),
                note: &["publish observe probs", "rend fractions"],
                note_exact: false,
                keep: |o, truths| o.onion_truths = truths,
            }
            .run(self, spec),
        }
    }

    /// One day's observed client pool, its truth's IPs mapped to the
    /// round's items. A client is observed with the day's guard
    /// fraction compounded over the guards each client contacts.
    fn observe_clients<T: Ord>(
        &self,
        dep: &Deployment,
        snap: &DaySnapshot,
        item: impl Fn(IpAddr) -> T,
    ) -> DayObservation<T, ()> {
        let p = snap.fraction(Position::Guard);
        let observe = observe_probability(p, self.base.workload.clients.guards_per_client);
        let (stream, ips) =
            self.timeline
                .client_ip_day(snap.day, observe, dep.shards, dep.entry_relays());
        let truth = DistinctTruth {
            days: ips.days,
            items: ips.items.into_iter().map(item).collect(),
            tally: (),
        };
        DayObservation {
            psc: Some((stream, truth)),
            privcount: Vec::new(),
            observe,
            fraction: p,
            noted: vec![p],
        }
    }

    /// Network-wide inference of a PSC round's measured union, plus the
    /// estimate repeats of the statistic reconcile on (client pools
    /// only).
    fn extrapolate(
        &self,
        how: Extrapolation,
        est: Estimate,
        shares: &[DayShare],
    ) -> (Option<Estimate>, Option<Estimate>) {
        let any_fresh = shares.iter().map(|s| s.share).sum::<f64>() > 0.0;
        match how {
            Extrapolation::PerDayShares => (
                any_fresh.then(|| multi_day_network_estimate(&est, shares)),
                None,
            ),
            Extrapolation::CombinedDays => {
                let combined = 1.0 - shares.iter().map(|s| 1.0 - s.fraction).product::<f64>();
                let network = (combined > 0.0).then(|| {
                    est.scale_to_network(combined)
                        .scale_to_network(self.base.scale)
                });
                (network, None)
            }
            Extrapolation::ClientPool => {
                let prom = self.timeline.promiscuous() as f64;
                let network = if any_fresh {
                    multi_day_network_estimate(&est.shift(-prom), shares).shift(prom)
                } else {
                    est // degenerate pool: purely promiscuous, nothing to infer
                };
                // Repeats of this statistic on other days re-draw the
                // Binomial observation thinning; its variance is not in
                // the PSC interval, so the reconciliation estimate widens
                // by its 95% band.
                let mean_observe =
                    shares.iter().map(|s| s.fraction).sum::<f64>() / shares.len() as f64;
                let daily = self.timeline.churn().daily_unique as f64;
                let sd = (daily * mean_observe * (1.0 - mean_observe)).sqrt() / mean_observe;
                let ci =
                    pm_stats::Interval::new(network.ci.lo - 1.96 * sd, network.ci.hi + 1.96 * sd);
                (Some(network), Some(Estimate::with_ci(network.value, ci)))
            }
        }
    }
}

/// The round's calendar window, as report titles print it.
fn window(spec: &RoundSpec) -> String {
    format!("days {:?}", spec.days())
}

/// The plain description of one round kind that the shared pipeline
/// ([`RoundPlan::run`]) executes: how a day is observed, which
/// protocols count the window, and how the report reads.
struct RoundPlan<T, C> {
    title: String,
    /// Observes one day: `(campaign, round, round deployment, the
    /// day's snapshot)`.
    observe: fn(&Campaign, &RoundSpec, &Deployment, &DaySnapshot) -> DayObservation<T, C>,
    /// One PSC round over the window's chained day streams.
    psc: Option<PscPlan<T, C>>,
    /// Day-indexed PrivCount sub-rounds.
    privcount: Option<PrivCountPlan>,
    /// Names of the [`DayObservation::noted`] series the report's
    /// per-day note lists (empty: no note).
    note: &'static [&'static str],
    /// Whether the note prints full precision rather than 4 decimals.
    note_exact: bool,
    /// Stores the per-day truths in the outcome field of their kind.
    keep: fn(&mut RoundOutcome, Vec<DistinctTruth<T, C>>),
}

/// A per-day report row's truth column, before its `" / {fresh}"`.
type DayCounts<T, C> = fn(&DistinctTruth<T, C>) -> String;

/// A round's PSC count and its report rows.
struct PscPlan<T, C> {
    items: fn(&Deployment) -> psc::items::ItemExtractor,
    /// Table 1 noise sensitivity of the window.
    sensitivity: u64,
    /// Sizing expectation from the window's true union size.
    expected: fn(u64) -> f64,
    /// Headline row label and paper column.
    label: String,
    paper: &'static str,
    /// Per-day rows: the label after `"day {d}: "` and the day's counts.
    day_row: Option<(&'static str, DayCounts<T, C>)>,
    network: Option<NetworkPlan>,
}

/// How a PSC union extrapolates to the network, and its report row.
struct NetworkPlan {
    how: Extrapolation,
    label: &'static str,
    /// The row's truth column (`None` prints `—`).
    truth: Option<f64>,
    paper: &'static str,
}

/// Network-wide inference of a measured multi-day union.
#[derive(Clone, Copy)]
enum Extrapolation {
    /// Each day's fresh share divides by that day's own observation
    /// probability (`pm_stats::union::multi_day_network_estimate`).
    PerDayShares,
    /// The measured union splits into the always-observed promiscuous
    /// clients and the selective remainder; only the latter
    /// extrapolates ([`Self::PerDayShares`]).
    ClientPool,
    /// The published universe is fixed across the window while each
    /// day's replica placement re-randomizes (v2 descriptor ids rotate
    /// daily), so the union divides by the combined probability
    /// `1 − Π(1 − q_d)` with each day's own HSDir-level `q_d` — §6.1's
    /// replica extrapolation extended across the window's days.
    CombinedDays,
}

/// A round's day-indexed PrivCount counter and its per-day rows.
struct PrivCountPlan {
    /// The query schema at `(ε, δ)`.
    schema: fn(f64, f64) -> privcount::counter::Schema,
    counter: &'static str,
    /// Row label after `"day {d}: "`.
    label: &'static str,
    /// Truth column, and the sizing expectation of a PrivCount-only
    /// round.
    truth: f64,
    paper: &'static str,
}

/// One collected day of a round, as its kind observes it.
struct DayObservation<T, C> {
    /// The day's PSC stream and exact ground truth.
    psc: Option<(EventStream, DistinctTruth<T, C>)>,
    /// The day's PrivCount DC streams.
    privcount: Vec<EventStream>,
    /// Observation probability the day's fresh PSC share divides by.
    observe: f64,
    /// Instrumented fraction the day's PrivCount counts divide by.
    fraction: f64,
    /// The values the report's per-day note lists.
    noted: Vec<f64>,
}

impl<T: Ord + Clone, C: Tally + Clone> RoundPlan<T, C> {
    /// The shared round pipeline every [`RoundKind`] runs.
    fn run(self, c: &Campaign, spec: &RoundSpec) -> RoundOutcome {
        // 1-2. Observe each day and fold its fresh share against the
        // running union. One snapshot fetch per day: the shared timeline
        // cursor evolves the network incrementally, so a calendar sweep
        // is O(churn) per day rather than replaying day 0..d.
        let dep = c.base.for_day(&c.timeline.snapshot(spec.start_day));
        let mut anomalies = Vec::new();
        let mut union = DistinctTruth::<T, C>::default();
        let (mut truths, mut shares, mut psc_days) = (Vec::new(), Vec::new(), Vec::new());
        let (mut pc_days, mut fractions, mut noted) = (Vec::new(), Vec::new(), Vec::new());
        for (k, day) in spec.days().enumerate() {
            let obs = (self.observe)(c, spec, &dep, &c.timeline.snapshot(day));
            if let Some((stream, truth)) = obs.psc {
                // An unattributed truth is flagged, never read as day 0.
                if truth.days.is_empty() {
                    anomalies.push(Anomaly::new(
                        AnomalyKind::EmptyTruth,
                        spec.id.clone(),
                        Some(day),
                        format!("day {day} ground truth carries no day attribution"),
                    ));
                }
                // Promiscuous clients sit in every day's pool, always
                // observed: all fresh on the first day, they must not be
                // divided by the selective fraction.
                let mut fresh = truth.new_vs(&union) as f64;
                if k == 0 && matches!(self.network(), Some(Extrapolation::ClientPool)) {
                    fresh = (fresh - c.timeline.promiscuous() as f64).max(0.0);
                }
                shares.push(DayShare {
                    share: fresh,
                    fraction: obs.observe,
                });
                union = union.merge(truth.clone());
                truths.push(truth);
                psc_days.push(stream);
            }
            if !obs.privcount.is_empty() {
                pc_days.push(obs.privcount);
            }
            fractions.push(obs.fraction);
            noted.push(obs.noted);
        }

        // 3-4. One PSC round over the chained day streams, then the
        // day-indexed PrivCount sub-rounds. The campaign's attack
        // targets the round's lead protocol: PSC where the round has
        // one, else PrivCount; ride-along PrivCount sub-rounds run
        // honestly under their own `"{id}-pc"` label.
        let expected = self.psc.as_ref().map(|p| (p.expected)(union.unique()));
        let counted = (|| -> Result<_, NodeError> {
            let mut psc_est = None;
            if let (Some(p), Some(expected)) = (&self.psc, expected) {
                let mut cfg = psc_round(&dep, expected, p.sensitivity, &spec.id);
                c.apply_psc_attack(&mut cfg);
                // Every day supplies the one PSC DC's stream; chained in
                // calendar order, the window counts distinct items once
                // however many days re-observe them.
                let streams = vec![EventStream::chain(psc_days)];
                let result = psc::run_psc_round_streams(cfg, (p.items)(&dep), streams)?;
                psc_est = Some(result.estimate(0.95));
            }
            // Each day's PrivCount count, network-wide.
            let mut pc_estimates = Vec::new();
            if let Some(p) = &self.privcount {
                let schema = (p.schema)(dep.eps(), dep.delta());
                let cfg = if self.psc.is_some() {
                    privcount_round(&dep, schema, &format!("{}-pc", spec.id))
                } else {
                    let mut cfg = privcount_round(&dep, schema, &spec.id);
                    c.apply_privcount_attack(&mut cfg);
                    cfg
                };
                for (d, (streams, f)) in pc_days.into_iter().zip(&fractions).enumerate() {
                    // Day `d`'s seed is a pure function of the round
                    // config, so its noise cannot depend on which days
                    // ran before or alongside it. The label is
                    // namespaced so it never aliases the deployment's
                    // own `"day{d}"` seed stream.
                    let day_cfg = privcount::RoundConfig {
                        seed: derive_seed(cfg.seed, &format!("privcount/day{d}")),
                        ..cfg.clone()
                    };
                    let result = privcount::run_round_streams(day_cfg, streams)?;
                    pc_estimates.push(dep.to_network(result.estimate(p.counter), *f));
                }
            }
            Ok((psc_est, pc_estimates))
        })();
        let (psc_est, pc_estimates) = match counted {
            Ok(counts) => counts,
            Err(err) => return c.aborted_outcome(spec, err),
        };

        // 5. Extrapolate the PSC union to the network.
        let (network, reconcile) = match (self.network(), psc_est) {
            (Some(how), Some(est)) => c.extrapolate(how, est, &shares),
            _ => (None, None),
        };

        // 6. The report: headline, per-day rows, network row, PrivCount
        // per-day rows, per-day-fraction note.
        let mut report = Report::new(spec.id.clone(), self.title);
        if let (Some(p), Some(est)) = (&self.psc, &psc_est) {
            let truth = fmt_count(union.unique() as f64);
            report.row(ReportRow::new(&p.label, fmt_estimate(est), truth, p.paper));
            if let Some((label, counts)) = p.day_row {
                for ((day, truth), share) in spec.days().zip(&truths).zip(&shares) {
                    report.row(ReportRow::new(
                        format!("day {day}: {label}"),
                        "—",
                        format!("{} / {}", counts(truth), share.share as u64),
                        "—",
                    ));
                }
            }
            if let (Some(net), Some(value)) = (&p.network, &network) {
                report.row(ReportRow::new(
                    net.label,
                    fmt_estimate(value),
                    net.truth.map_or_else(|| "—".to_string(), fmt_count),
                    net.paper,
                ));
            }
        }
        if let Some(p) = &self.privcount {
            for (day, value) in spec.days().zip(&pc_estimates) {
                report.row(ReportRow::new(
                    format!("day {day}: {}", p.label),
                    fmt_estimate(value),
                    fmt_count(p.truth),
                    p.paper,
                ));
            }
        }
        if !self.note.is_empty() {
            let series: Vec<String> = (0..self.note.len())
                .map(|i| {
                    let values: Vec<f64> = noted.iter().map(|n| n[i]).collect();
                    if self.note_exact {
                        format!("{} {values:?}", self.note[i])
                    } else {
                        let rounded: Vec<String> =
                            values.iter().map(|p| format!("{p:.4}")).collect();
                        format!("{} {rounded:?}", self.note[i])
                    }
                })
                .collect();
            report.note(format!("per-day {}", series.join(", ")));
        }

        // 7. The plausibility cap: statistically-skewed shares are
        // protocol-invisible (that is the point of blinding and oblivious
        // counters), so the campaign cross-checks the headline count
        // against the expectation its round was sized for. An
        // implausible count degrades the round (reported, flagged,
        // excluded from headline claims) but never panics. The cap is
        // wider for a PrivCount headline: inflated increments pass
        // through blinding untouched and its network extrapolation
        // divides by a small drifting fraction.
        let headline = match (psc_est, expected) {
            (Some(est), Some(expected)) => Some((est, expected, 2.5)),
            _ => self
                .privcount
                .as_ref()
                .zip(pc_estimates.first())
                .map(|(p, est)| (*est, p.truth, 10.0)),
        };
        let mut status = RoundStatus::Completed;
        if let Some((est, expected, cap_multiple)) = headline {
            let cap = cap_multiple * expected.max(1.0);
            if est.value > cap {
                let degraded = format!(
                    "count {:.0} exceeds the plausibility cap {cap:.0} ({cap_multiple}x the \
                     sizing expectation {expected:.0}); skewed shares cannot be attributed \
                     to a party, so the round is kept but flagged",
                    est.value
                );
                report.note(format!("recovered (degraded): {degraded}"));
                let (id, day) = (spec.id.clone(), Some(spec.start_day));
                anomalies.push(Anomaly::new(AnomalyKind::Degraded, id, day, &degraded));
                status = RoundStatus::Recovered { degraded };
            }
        }
        let mut outcome = RoundOutcome {
            estimate: headline.map(|(est, ..)| est),
            network_estimate: network,
            reconcile_estimate: reconcile,
            ..RoundOutcome::new(spec, report, status, anomalies)
        };
        (self.keep)(&mut outcome, truths);
        outcome
    }

    /// How the round's PSC union extrapolates, if it does.
    fn network(&self) -> Option<Extrapolation> {
        Some(self.psc.as_ref()?.network.as_ref()?.how)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_day_calendar_includes_the_churn_round() {
        let c = Campaign::new(CampaignConfig::new(7, 1e-3, 5));
        let ids: Vec<&str> = c.rounds().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["ips-a", "ips-b", "ips-4day"]);
        let churn = &c.rounds()[2];
        assert_eq!(churn.duration_days, 4);
        // Repeats are adjacent; the distinct statistic waited 24h.
        assert_eq!(c.rounds()[0].start_day, 0);
        assert_eq!(c.rounds()[1].start_day, 1);
        assert_eq!(churn.start_day, 3);
        // The ledger accepts the calendar.
        assert_eq!(c.validate().rounds().len(), 3);
    }

    #[test]
    fn longer_calendar_adds_traffic_countries_and_domains() {
        let c = Campaign::new(CampaignConfig::new(14, 1e-3, 5));
        let ids: Vec<&str> = c.rounds().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ips-a",
                "ips-b",
                "ips-4day",
                "traffic",
                "countries",
                "domains"
            ]
        );
        assert_eq!(c.validate().rounds().len(), 6);
    }

    #[test]
    fn full_calendar_includes_exit_and_onion_windows() {
        let c = Campaign::new(CampaignConfig::new(17, 1e-3, 5));
        let ids: Vec<&str> = c.rounds().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ips-a",
                "ips-b",
                "ips-4day",
                "traffic",
                "countries",
                "domains",
                "onions"
            ]
        );
        let domains = &c.rounds()[5];
        assert_eq!(domains.kind, RoundKind::ExitDomains);
        assert_eq!(domains.duration_days, 2);
        assert_eq!(domains.kind.system(), System::Psc);
        let onions = &c.rounds()[6];
        assert_eq!(onions.kind, RoundKind::OnionServices);
        assert_eq!(onions.duration_days, 2);
        assert_eq!(onions.kind.system(), System::Psc);
        // The ledger accepts the full calendar.
        assert_eq!(c.validate().rounds().len(), 7);
    }

    #[test]
    fn repeats_depend_on_earlier_rounds_only() {
        let c = Campaign::new(CampaignConfig::new(7, 1e-3, 5));
        // ips-a and ips-b share a statistic; ips-4day does not.
        let specs = c.rounds();
        assert_eq!(specs[0].statistic, specs[1].statistic);
        assert_ne!(specs[1].statistic, specs[2].statistic);
    }
}
