//! # pm-study — longitudinal measurement campaigns over an evolving
//! network
//!
//! The paper's results were not one-shot: they come from a multi-week
//! **campaign** over a live, churning Tor network. Relays joined and
//! left between consensuses, the deployment's observed weight fraction
//! drifted from measurement date to measurement date (the per-date
//! fractions in §4–§6 span 0.42%–2.75%), and the headline §5.1 result
//! — 313,213 unique client IPs in one day vs 672,303 over four — is
//! inherently a *cross-day* statistic over a churning population. The
//! single-`Deployment` experiment registry in `torstudy` reproduces
//! each table against one frozen day; this crate reproduces the
//! *study*.
//!
//! # The campaign model
//!
//! A [`campaign::Campaign`] binds three layers together:
//!
//! 1. **An evolving network** — a `torsim::timeline::NetworkTimeline`
//!    produces a deterministic per-day world: consensus relay
//!    join/leave churn, bandwidth-weight drift (and with it the
//!    observed fraction `p`), site-popularity drift, and a
//!    `ChurnModel`-churned client-IP population whose per-day ground
//!    truths merge associatively into cross-day unions.
//! 2. **A §3.1-valid calendar** — measurement rounds (daily unique-IP
//!    rounds, a repeat round for anomaly confirmation, the 96-hour
//!    churn round, PrivCount traffic rounds) are laid out with the
//!    scheduling rules the paper operated under — no overlapping
//!    rounds, 24 hours between distinct statistics, repeats of the
//!    same statistic may be adjacent — and the whole calendar is
//!    validated through the `pm_dp::accountant::Accountant` ledger
//!    before anything executes. The §3.1 `Accountant` thereby guards a
//!    calendar something actually *runs*.
//! 3. **Day-indexed execution** — each round derives a `Deployment`
//!    for its calendar day (`Deployment::for_day`: that day's
//!    consensus fractions, drifted site mix, day-derived seed) and the
//!    rounds lower onto the same generic executor as the registry
//!    (`torstudy::runner::run_jobs`): rounds whose logical intervals
//!    are disjoint execute wall-clock-concurrently, PSC rounds honour
//!    the deployment's memory cap, and every stream ingests under the
//!    shard-count-invariance contract. Because all randomness derives
//!    from `(seed, day, label)` — never from execution order — the
//!    [`report::CampaignReport`] is bit-identical for sequential vs
//!    parallel execution and for every shard count.
//!
//! # One round pipeline
//!
//! Every round kind runs the same recipe, written once: a `match` on
//! the [`campaign::RoundKind`] yields a plain description (how a day
//! is observed, PSC items, sensitivity and sizing, PrivCount schema and
//! counter, row labels, paper column), and one pipeline takes a
//! snapshot per day, folds each day's fresh share into the running
//! union, runs the PSC round and/or the day-indexed PrivCount
//! sub-rounds, extrapolates to the network, writes the report rows and
//! applies the plausibility cap. A protocol failure ends the round
//! [`campaign::RoundStatus::Aborted`] instead.
//!
//! # Exit-domain and onion-service rounds
//!
//! Beyond the client-side rounds, the calendar schedules two-day
//! **exit-domain** and **onion-service** windows over the same evolving
//! network ([`campaign::RoundKind::ExitDomains`] /
//! [`campaign::RoundKind::OnionServices`]):
//!
//! * **Exit domains (§4)** — each window day draws that day's exit
//!   streams from `torsim::timeline::NetworkTimeline::exit_stream_day`,
//!   which samples the day's *drifted* `DomainMix` and the day's
//!   consensus exit fraction. One PSC round counts distinct
//!   second-level domains across the chained days (popular domains
//!   mark their oblivious-table cells once however many days revisit
//!   them), while day-indexed PrivCount sub-rounds count stream
//!   breakdowns over bit-identical copies of the same streams. The
//!   cross-day unique-SLD total extrapolates network-wide via
//!   `pm_stats::union::multi_day_network_estimate`: each day's fresh
//!   contribution divides by **that day's own** exit fraction, exactly
//!   as the paper divides each measurement by the fraction on its
//!   date.
//! * **Onion services (§6)** — each window day draws the HSDir
//!   descriptor-publish stream at the day's replica-level observe
//!   probability (`1 − (1−w)²`) and the rendezvous stream at the day's
//!   rendezvous fraction
//!   (`torsim::timeline::NetworkTimeline::hs_stream_day`). One PSC
//!   round counts distinct published addresses across the window; the
//!   published universe is fixed while each day's replica placement
//!   re-randomizes, so the network extrapolation divides by the
//!   combined probability `1 − Π(1 − q_d)` with each day's own HSDir
//!   fraction. Day-indexed PrivCount sub-rounds count rendezvous
//!   circuits.
//!
//! Both rounds are ledgered as PSC in the §3.1 [`pm_dp::accountant`]
//! (the oblivious table is what the executor's memory cap must see);
//! since the accountant rejects *any* overlap, no other round of
//! either system can land inside their window. The ride-along
//! PrivCount sub-rounds deliberately share the window's collection
//! with the PSC round — one window, one measurement unit over
//! bit-identical streams, a relaxation of the paper's operational
//! rule the ledger does not model. Every per-day ground truth — client
//! IPs, SLDs with their stream counts, published onion addresses with
//! their publish and rendezvous counts — is one generic
//! `torsim::timeline::DistinctTruth` that merges associatively (set
//! union plus field-wise count sums), so the campaign report's
//! cumulative IP, SLD and onion rows fold through one loop and are
//! grouping-independent.
//!
//! # Relation to §5.1 / Table 5
//!
//! The campaign's 4-day round is a *real* PSC measurement over four
//! churned daily populations: the four day-streams are chained into
//! one oblivious-table round, so the stable client core marks its
//! cells once however many days re-observe it, and the estimate is
//! compared against the exact churned ground-truth union (no
//! `1 + 3·churn` closed form anywhere in the measured path — `tab5`'s
//! single-deployment reproduction was rebuilt on the same realized
//! unions). Repeat rounds are reconciled via
//! `pm_stats::union::reconcile` (disjoint CIs flag an anomaly, as in
//! the paper's confirmation re-runs), and network-wide extrapolation
//! uses *each day's own* observation fraction
//! (`pm_stats::union::multi_day_network_estimate`), exactly as the
//! paper divides each measurement by the fraction on its date.
//!
//! # Threat model: rounds fail loudly, the study survives
//!
//! The paper's study ran unattended for weeks across mutually
//! distrusting parties; a single misbehaving party must not take the
//! campaign down, and must not silently corrupt it either. The
//! campaign therefore treats every round as fallible
//! ([`campaign::RoundStatus`]) and runs an **adversarial scenario
//! suite** ([`campaign::CampaignAttack`]) against itself:
//!
//! * **Byzantine shares** — a DC submits structurally malformed shares
//!   (wrong-size PSC table, short PrivCount register vector). The TS's
//!   structural checks reject them; the round ends
//!   [`campaign::RoundStatus::Aborted`] naming the TS.
//! * **Skewed shares** — a DC submits well-formed but statistically
//!   bogus shares. Blinding and oblivious counters make this
//!   *protocol-invisible by design*, so detection is the campaign's
//!   plausibility cap against the round's sizing expectation; the
//!   round ends [`campaign::RoundStatus::Recovered`] — reported,
//!   flagged, excluded from headline claims.
//! * **Keeper death** — a CP/SK dies mid-round; the deterministic
//!   runner's deadlock detector attributes the stall.
//! * **Invalid proof** — a CP corrupts its mixing proof (verified
//!   rounds) or a DC its share ciphertext; the verifying TS / the
//!   receiving SK rejects and names the culprit.
//! * **Noise exhaustion** — a party's DP noise budget runs out; it
//!   refuses to run under-noised rather than silently weaken the
//!   guarantee.
//!
//! Every detected irregularity — aborts, degradations, disjoint repeat
//! CIs, missing day attributions, starved confirmation checks — flows
//! into one structured **anomaly channel** ([`anomaly::Anomaly`])
//! rendered in all three report formats, and the §3.1 ledger accounts
//! aborted rounds' hours as *spent* (the noise was drawn and the
//! shares published before the failure). Attack injection is
//! seed-deterministic with fixed party indices, so even an attacked
//! campaign renders bit-identically across schedules and shard counts
//! — the channel is part of the determinism contract, not exempt from
//! it.

pub mod anomaly;
pub mod campaign;
pub mod report;

pub use anomaly::{Anomaly, AnomalyKind};
pub use campaign::{Campaign, CampaignAttack, CampaignConfig, RoundKind, RoundSpec, RoundStatus};
pub use report::CampaignReport;
