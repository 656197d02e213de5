//! Cross-day aggregation: the campaign-wide report.
//!
//! Per-round reports come back from the executor in calendar order;
//! assembly folds the per-day ground truths into a running cross-day
//! union (associative merges — the same totals whatever grouping the
//! rounds used), reconciles repeat measurements (disjoint CIs are
//! flagged as anomalies, as in the paper's confirmation re-runs), and
//! renders per-day and cumulative rows as text, CSV, or JSON (the
//! JSON document shares its schema with the `experiments` binary's).

use crate::anomaly::{Anomaly, AnomalyKind};
use crate::campaign::{CampaignConfig, RoundOutcome, RoundStatus};
use pm_dp::accountant::{Accountant, MeasurementRound, RoundDisposition};
use pm_obs::MetricsSnapshot;
use pm_stats::union::reconcile;
use torsim::timeline::{DistinctTruth, Tally};
use torstudy::report::{csv_escape, fmt_estimate, json_escape, Report, ReportRow};

/// The campaign's aggregated outcome.
pub struct CampaignReport {
    /// Calendar length.
    pub days: u64,
    /// Deployment scale.
    pub scale: f64,
    /// Base seed.
    pub seed: u64,
    /// Per-round reports, calendar order.
    pub rounds: Vec<Report>,
    /// Cross-day cumulative report: one row per measured day.
    pub cumulative: Report,
    /// The anomaly channel: every structured irregularity of the
    /// campaign — per-round records (aborts, degradations, missing day
    /// attributions) in calendar order, then cross-round reconciliation
    /// records. Rendered in all three output formats.
    pub anomalies: Vec<Anomaly>,
    /// The deterministic metrics snapshot, read from the campaign's
    /// recorder at assembly. Part of the bit-identity contract:
    /// identical for every worker and shard count, and never touched by
    /// the wall-clock profiling plane. Empty when no recorder was
    /// threaded through the campaign.
    pub metrics: MetricsSnapshot,
}

/// Writes one round's cumulative rows, one per day of `truths`
/// (labelled `day {d} [{round}]{suffix}`), folding each day into the
/// statistic's running cross-day `union`. The last row's measured
/// column is `headline` (or `—`).
fn cumulative_rows<T: Ord + Clone, C: Tally + Clone>(
    cumulative: &mut Report,
    anomalies: &mut Vec<Anomaly>,
    round: &str,
    union: &mut DistinctTruth<T, C>,
    truths: &[DistinctTruth<T, C>],
    suffix: &str,
    headline: Option<&str>,
) {
    let last = truths.len().saturating_sub(1);
    for (i, truth) in truths.iter().enumerate() {
        // An unattributed truth would misattribute its rows to
        // whatever round measured day 0: label it `day ?` and flag it.
        let day = truth.days.first().map_or_else(
            || {
                let detail = "cumulative row ground truth carries no day attribution";
                anomalies.push(Anomaly::new(AnomalyKind::EmptyTruth, round, None, detail));
                "?".to_string()
            },
            |d| d.to_string(),
        );
        let fresh = truth.new_vs(union);
        *union = std::mem::take(union).merge(truth.clone());
        let measured = headline.filter(|_| i == last).unwrap_or("—");
        cumulative.row(ReportRow::new(
            format!("day {day} [{round}]{suffix}"),
            measured,
            format!(
                "pool {}, fresh {fresh}, cumulative {}",
                truth.unique(),
                union.unique()
            ),
            "—",
        ));
    }
}

impl CampaignReport {
    /// Folds executed rounds into the campaign report.
    pub fn assemble(cfg: &CampaignConfig, outcomes: Vec<RoundOutcome>) -> CampaignReport {
        // Per-round records first, calendar order; cross-round
        // reconciliation records are appended below.
        let mut anomalies: Vec<Anomaly> = outcomes
            .iter()
            .flat_map(|o| o.anomalies.iter().cloned())
            .collect();
        let mut cumulative = Report::new(
            "CUM",
            format!(
                "Campaign cumulative unique client IPs ({}-day calendar)",
                cfg.days
            ),
        );
        // Per-day truths merge associatively into one running cross-day
        // union per statistic, one cumulative row per measured day; a
        // client-IP round's last row carries its headline estimate.
        let mut ips = DistinctTruth::default();
        let mut slds = DistinctTruth::default();
        let mut onions = DistinctTruth::default();
        for o in &outcomes {
            let id = &o.spec.id;
            let headline = o
                .estimate
                .as_ref()
                .map(|e| format!("{} ({id})", fmt_estimate(e)));
            let (cum, anom) = (&mut cumulative, &mut anomalies);
            let (ip_days, sld_days, onion_days) =
                (&o.day_truths, &o.domain_truths, &o.onion_truths);
            cumulative_rows(cum, anom, id, &mut ips, ip_days, "", headline.as_deref());
            cumulative_rows(cum, anom, id, &mut slds, sld_days, ": SLDs", None);
            cumulative_rows(cum, anom, id, &mut onions, onion_days, ": onions", None);
        }
        cumulative.note(format!(
            "campaign union: {} distinct IPs over {} measured day(s), scale {}, seed {}",
            ips.unique(),
            ips.days.len(),
            cfg.scale,
            cfg.seed
        ));
        if !slds.days.is_empty() {
            cumulative.note(format!(
                "campaign SLD union: {} distinct SLDs over {} measured day(s)",
                slds.unique(),
                slds.days.len()
            ));
        }
        if !onions.days.is_empty() {
            cumulative.note(format!(
                "campaign onion union: {} distinct published addresses over {} measured day(s)",
                onions.unique(),
                onions.days.len()
            ));
        }

        // Reconcile repeats: same statistic, measured more than once.
        // Compare on the reconciliation estimate where one exists — the
        // network-extrapolated, sampling-variance-aware value that is
        // constant across repeat days — not the day's raw observed
        // pool, whose true value legitimately churns between repeats.
        // A repeat pair where either side carries no estimate (e.g. an
        // aborted round) used to be skipped silently — the confirmation
        // check proved nothing and nobody knew; now the gap is a
        // MissingReconcile record (one per round, however many pairs it
        // starves).
        let mut missing_noted: std::collections::BTreeSet<String> = Default::default();
        for (i, a) in outcomes.iter().enumerate() {
            for b in outcomes.iter().skip(i + 1) {
                if a.spec.statistic != b.spec.statistic {
                    continue;
                }
                let pick = |o: &RoundOutcome| o.reconcile_estimate.or(o.estimate);
                if let (Some(ea), Some(eb)) = (pick(a), pick(b)) {
                    let r = reconcile(&ea, &eb);
                    if r.consistent {
                        cumulative.note(format!(
                            "repeat {} / {} consistent; hull {}",
                            a.spec.id, b.spec.id, r.hull
                        ));
                    } else {
                        anomalies.push(Anomaly::new(
                            AnomalyKind::DisjointRepeat,
                            format!("{}/{}", a.spec.id, b.spec.id),
                            None,
                            format!(
                                "repeat measurements have disjoint CIs (gap {:.1}); hull {}",
                                r.gap, r.hull
                            ),
                        ));
                    }
                } else {
                    for o in [a, b] {
                        if pick(o).is_none() && missing_noted.insert(o.spec.id.clone()) {
                            anomalies.push(Anomaly::new(
                                AnomalyKind::MissingReconcile,
                                o.spec.id.clone(),
                                None,
                                format!(
                                    "repeat of '{}' has no estimate to reconcile; \
                                     the confirmation check proved nothing",
                                    o.spec.statistic
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // Settle the §3.1 ledger: re-schedule the executed calendar
        // (synthetic outcome lists in tests need not be §3.1-legal, so
        // schedule errors are ignored — an unscheduled round simply
        // stays out of the budget) and record how each round ended.
        // Aborted hours are spent, not refunded.
        let mut ledger = Accountant::new();
        for o in &outcomes {
            let _ = ledger.schedule(MeasurementRound {
                name: o.spec.id.clone(),
                system: o.spec.kind.system(),
                start_hour: o.spec.start_day * 24,
                duration_hours: o.spec.duration_days * 24,
                statistics: vec![o.spec.statistic.clone()],
            });
        }
        for o in &outcomes {
            let disposition = match &o.status {
                RoundStatus::Completed => RoundDisposition::Completed,
                RoundStatus::Recovered { degraded } => RoundDisposition::Recovered {
                    degraded: degraded.clone(),
                },
                RoundStatus::Aborted {
                    reason,
                    detected_by,
                } => RoundDisposition::Aborted {
                    reason: reason.clone(),
                    detected_by: detected_by.clone(),
                },
            };
            ledger.record_outcome(&o.spec.id, disposition);
        }
        let budget = ledger.budget_summary();
        cumulative.note(format!(
            "§3.1 budget: {}h scheduled, {}h completed, {}h aborted (spent, not refunded), \
             {}h recovered",
            budget.scheduled_hours,
            budget.completed_hours,
            budget.aborted_hours,
            budget.recovered_hours
        ));

        // The whole channel, as text notes — CSV and JSON carry the
        // same records structurally.
        for a in &anomalies {
            cumulative.note(a.describe());
        }

        CampaignReport {
            days: cfg.days,
            scale: cfg.scale,
            seed: cfg.seed,
            rounds: outcomes.into_iter().map(|o| o.report).collect(),
            cumulative,
            anomalies,
            metrics: cfg.recorder.read_snapshot(),
        }
    }

    /// Every report, calendar rounds first, cumulative last.
    pub fn all_reports(&self) -> Vec<&Report> {
        self.rounds.iter().chain(Some(&self.cumulative)).collect()
    }

    /// Fixed-width text rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== campaign: {} days, scale {}, seed {} ==\n\n",
            self.days, self.scale, self.seed
        );
        for r in self.all_reports() {
            out.push_str(&r.render_text());
            out.push('\n');
        }
        if !self.metrics.entries.is_empty() {
            out.push_str("== metrics ==\n");
            out.push_str(&self.metrics.render_lines());
            out.push('\n');
        }
        out
    }

    /// One CSV document: a single header, then every report's rows,
    /// then one `ANOMALY` record per channel entry (id column literal
    /// `ANOMALY`, then kind tag, round, day or `—`, detail).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("id,label,measured,truth,paper\n");
        for r in self.all_reports() {
            let csv = r.render_csv();
            out.push_str(csv.split_once('\n').map(|(_, rest)| rest).unwrap_or(""));
        }
        for a in &self.anomalies {
            out.push_str(&format!(
                "ANOMALY,{},{},{},{}\n",
                a.kind.tag(),
                csv_escape(&a.round),
                a.day.map(|d| d.to_string()).unwrap_or_else(|| "—".into()),
                csv_escape(&a.detail)
            ));
        }
        for (name, value) in &self.metrics.entries {
            out.push_str(&format!("METRIC,{},{value},—,—\n", csv_escape(name)));
        }
        out
    }

    /// One JSON document: the `reports` array shares its schema with
    /// the `experiments` binary's, plus an `anomalies` array carrying
    /// the structured channel (`day` is a number or `null`).
    pub fn render_json(&self) -> String {
        let reports = self.all_reports();
        let mut out = String::from("{\"reports\": [\n");
        for (i, r) in reports.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.render_json());
            if i + 1 < reports.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("], \"anomalies\": [\n");
        for (i, a) in self.anomalies.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"kind\": {}, \"round\": {}, \"day\": {}, \"detail\": {}}}",
                json_escape(a.kind.tag()),
                json_escape(&a.round),
                a.day
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "null".into()),
                json_escape(&a.detail)
            ));
            if i + 1 < self.anomalies.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("], \"metrics\": ");
        out.push_str(&self.metrics.render_json_object());
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{RoundKind, RoundSpec};
    use pm_stats::{Estimate, Interval};
    use torsim::ids::IpAddr;
    use torsim::timeline::ExitTally;

    fn truth(day: u64, ips: &[u32]) -> DistinctTruth<IpAddr> {
        let mut t = DistinctTruth::default();
        t.days.insert(day);
        t.items.extend(ips.iter().map(|i| IpAddr(*i)));
        t
    }

    fn outcome(
        id: &str,
        stat: &str,
        days: Vec<DistinctTruth<IpAddr>>,
        est: Estimate,
    ) -> RoundOutcome {
        let spec = RoundSpec {
            id: id.into(),
            statistic: stat.into(),
            kind: RoundKind::UniqueIps,
            start_day: days
                .first()
                .and_then(|t| t.days.first().copied())
                .unwrap_or(0),
            duration_days: days.len().max(1) as u64,
        };
        let report = Report::new(id, "test");
        RoundOutcome {
            day_truths: days,
            estimate: Some(est),
            ..RoundOutcome::new(&spec, report, RoundStatus::Completed, Vec::new())
        }
    }

    fn domain_truth(day: u64, slds: &[&str]) -> DistinctTruth<String, ExitTally> {
        let mut t = DistinctTruth::<String, ExitTally>::default();
        t.days.insert(day);
        t.items.extend(slds.iter().map(|s| s.to_string()));
        t.tally.streams = 10 * slds.len() as u64;
        t.tally.initial_streams = slds.len() as u64;
        t
    }

    #[test]
    fn cumulative_sld_union_rows_fold_associatively() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut o = outcome(
            "domains",
            "exit-domains",
            vec![truth(5, &[1])],
            Estimate::with_ci(2.0, Interval::new(1.0, 3.0)),
        );
        o.day_truths.clear();
        o.domain_truths = vec![
            domain_truth(5, &["a.com", "b.com"]),
            domain_truth(6, &["b.com", "c.com"]),
        ];
        let report = CampaignReport::assemble(&cfg, vec![o]);
        let sld_rows: Vec<_> = report
            .cumulative
            .rows
            .iter()
            .filter(|r| r.label.contains("SLDs"))
            .collect();
        assert_eq!(sld_rows.len(), 2);
        assert!(sld_rows[0].truth.contains("pool 2, fresh 2, cumulative 2"));
        assert!(sld_rows[1].truth.contains("pool 2, fresh 1, cumulative 3"));
        let text = report.render_text();
        assert!(text.contains("campaign SLD union: 3 distinct SLDs over 2 measured day(s)"));
    }

    #[test]
    fn cumulative_union_counts_stable_core_once() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let report = CampaignReport::assemble(
            &cfg,
            vec![
                outcome(
                    "a",
                    "s1",
                    vec![truth(0, &[1, 2, 3])],
                    Estimate::with_ci(3.0, Interval::new(2.0, 4.0)),
                ),
                outcome(
                    "b",
                    "s2",
                    vec![truth(1, &[2, 3, 4]), truth(2, &[3, 4, 5])],
                    Estimate::with_ci(5.0, Interval::new(4.0, 6.0)),
                ),
            ],
        );
        assert_eq!(report.cumulative.rows.len(), 3);
        // day 1 adds one fresh IP on top of {1,2,3}; day 2 one more.
        assert!(report.cumulative.rows[1]
            .truth
            .contains("fresh 1, cumulative 4"));
        assert!(report.cumulative.rows[2]
            .truth
            .contains("fresh 1, cumulative 5"));
        assert!(report.anomalies.is_empty());
    }

    #[test]
    fn disjoint_repeats_are_flagged() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let report = CampaignReport::assemble(
            &cfg,
            vec![
                outcome(
                    "a",
                    "same",
                    vec![truth(0, &[1])],
                    Estimate::with_ci(10.0, Interval::new(9.0, 11.0)),
                ),
                outcome(
                    "b",
                    "same",
                    vec![truth(1, &[2])],
                    Estimate::with_ci(100.0, Interval::new(90.0, 110.0)),
                ),
            ],
        );
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::DisjointRepeat);
        assert_eq!(report.anomalies[0].round, "a/b");
        assert!(report.anomalies[0].describe().contains("ANOMALY"));
        assert!(report.render_text().contains("ANOMALY[disjoint-repeat]"));
        let csv = report.render_csv();
        assert!(csv.contains("ANOMALY,disjoint-repeat,a/b,—,"), "{csv}");
        assert!(report
            .render_json()
            .contains("\"kind\": \"disjoint-repeat\""));
    }

    #[test]
    fn aborted_rounds_surface_in_channel_and_ledger() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut bad = outcome(
            "b",
            "same",
            vec![truth(1, &[2])],
            Estimate::with_ci(1.0, Interval::new(0.0, 2.0)),
        );
        bad.estimate = None;
        bad.status = RoundStatus::Aborted {
            reason: "CP died mid-mix".into(),
            detected_by: "runner".into(),
        };
        bad.anomalies = vec![Anomaly::new(
            AnomalyKind::Aborted,
            "b",
            Some(1),
            "CP died mid-mix (detected by runner)",
        )];
        let report = CampaignReport::assemble(
            &cfg,
            vec![
                outcome(
                    "a",
                    "same",
                    vec![truth(0, &[1])],
                    Estimate::with_ci(10.0, Interval::new(9.0, 11.0)),
                ),
                bad,
            ],
        );
        // The round's own record plus the starved confirmation check.
        let kinds: Vec<_> = report.anomalies.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            [AnomalyKind::Aborted, AnomalyKind::MissingReconcile],
            "{:?}",
            report.anomalies
        );
        assert_eq!(report.anomalies[1].round, "b");
        let text = report.render_text();
        assert!(text.contains("ANOMALY[aborted] b:"), "{text}");
        assert!(text.contains("ANOMALY[missing-reconcile]"), "{text}");
        // Ledger: both 24h rounds scheduled, the aborted hours spent.
        assert!(
            text.contains("48h scheduled, 24h completed, 24h aborted"),
            "{text}"
        );
        let csv = report.render_csv();
        assert!(csv.contains("ANOMALY,aborted,b,1,"), "{csv}");
        let json = report.render_json();
        assert!(json.contains("\"anomalies\": ["), "{json}");
        assert!(json.contains("\"day\": 1"), "{json}");
        assert!(json.contains("\"day\": null"), "{json}");
    }

    #[test]
    fn anomaly_details_round_trip_through_csv_and_json_escaping() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut o = outcome(
            "a",
            "s",
            vec![truth(0, &[1])],
            Estimate::with_ci(1.0, Interval::new(0.0, 2.0)),
        );
        o.anomalies = vec![Anomaly::new(
            AnomalyKind::Aborted,
            "a",
            Some(0),
            "tricky, \"quoted\"\nmultiline detail",
        )];
        let report = CampaignReport::assemble(&cfg, vec![o]);
        let csv = report.render_csv();
        // One logical CSV record: the detail quoted, inner quotes
        // doubled, the newline inside the quotes — not shearing the row.
        assert!(
            csv.contains("ANOMALY,aborted,a,0,\"tricky, \"\"quoted\"\"\nmultiline detail\""),
            "{csv}"
        );
        let json = report.render_json();
        assert!(
            json.contains("tricky, \\\"quoted\\\"\\nmultiline detail"),
            "{json}"
        );
        // Cheap well-formedness: braces/brackets stay balanced despite
        // the hostile payload.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn dayless_truth_is_flagged_not_misattributed_to_day_zero() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let mut t = DistinctTruth::default();
        t.items.insert(IpAddr(9)); // no day attribution at all
        let report = CampaignReport::assemble(
            &cfg,
            vec![outcome(
                "a",
                "s",
                vec![t],
                Estimate::with_ci(1.0, Interval::new(0.0, 2.0)),
            )],
        );
        assert!(report.cumulative.rows[0].label.starts_with("day ? [a]"));
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::EmptyTruth);
        assert!(report.render_csv().contains("ANOMALY,empty-truth,a,—,"));
    }

    #[test]
    fn csv_has_single_header_json_balanced() {
        let cfg = CampaignConfig::new(7, 1e-3, 1);
        let report = CampaignReport::assemble(
            &cfg,
            vec![outcome(
                "a",
                "s",
                vec![truth(0, &[1, 2])],
                Estimate::with_ci(2.0, Interval::new(1.0, 3.0)),
            )],
        );
        let csv = report.render_csv();
        assert_eq!(
            csv.matches("id,label,measured,truth,paper").count(),
            1,
            "{csv}"
        );
        let json = report.render_json();
        assert!(json.contains("\"id\": \"CUM\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }
}
