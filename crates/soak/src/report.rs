//! The soak's trajectory artifact: `BENCH_soak.json`.
//!
//! One soak run produces one [`SoakOutcome`]; [`SoakOutcome::to_json`]
//! renders it as the machine-readable artifact CI uploads and
//! EXPERIMENTS.md § Soak explains how to read — a per-interval rate
//! time-series, min/median/max rate summaries, percentile histograms
//! from the final (quiesced, hence exact) snapshot, the violation list
//! and a pass/fail verdict. JSON is hand-rolled like the telemetry
//! crate's exporter (the workspace has no serde_json), with its string
//! escaper ([`snap_telemetry::write_str`]).

use crate::monitor::{IntervalStats, Violation};
use crate::SoakConfig;
use snap_telemetry::MetricsSnapshot;
use std::fmt::Write as _;
use std::time::Duration;

/// Everything one soak run produced.
pub struct SoakOutcome {
    /// The configuration the run executed.
    pub config: SoakConfig,
    /// The per-interval rate time-series, in order.
    pub intervals: Vec<IntervalStats>,
    /// Retained violations (first few, with snapshots attached).
    pub violations: Vec<Violation>,
    /// Total violations, including unretained ones.
    pub total_violations: u64,
    /// Policy-churn commits that landed while traffic was flowing.
    pub commits: u64,
    /// Churn commits that aborted.
    pub aborts: u64,
    /// Packets that failed processing (driver or injection errors).
    pub worker_errors: u64,
    /// A few representative error strings (bounded).
    pub error_samples: Vec<String>,
    /// Packets processed across all workers.
    pub packets: u64,
    /// Egress deliveries across all workers.
    pub deliveries: u64,
    /// The final post-quiesce snapshot (exact: all writers joined).
    pub final_snapshot: MetricsSnapshot,
    /// Wall-clock length of the traffic phase.
    pub elapsed: Duration,
}

/// min/median/max of one interval rate series.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateSummary {
    /// Smallest interval value.
    pub min: f64,
    /// Median interval value.
    pub median: f64,
    /// Largest interval value.
    pub max: f64,
}

impl RateSummary {
    /// Summarize a series (all zeros when empty).
    pub fn of(values: impl Iterator<Item = f64>) -> RateSummary {
        let mut v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return RateSummary::default();
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        RateSummary {
            min: v[0],
            median: v[v.len() / 2],
            max: v[v.len() - 1],
        }
    }
}

impl SoakOutcome {
    /// Did the run meet every acceptance condition: zero violations, zero
    /// errors, zero aborts, and at least the configured commit and
    /// interval counts?
    pub fn passed(&self) -> bool {
        self.total_violations == 0
            && self.worker_errors == 0
            && self.aborts == 0
            && self.commits >= self.config.min_commits
            && self.intervals.len() >= self.config.min_intervals
    }

    /// `"pass"` or `"fail"` — the machine-readable verdict.
    pub fn verdict(&self) -> &'static str {
        if self.passed() {
            "pass"
        } else {
            "fail"
        }
    }

    /// Rate summary over the interval series for a field selector.
    pub fn rate_summary(&self, f: impl Fn(&IntervalStats) -> f64) -> RateSummary {
        RateSummary::of(self.intervals.iter().map(f))
    }

    /// The `BENCH_soak.json` artifact.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\n  \"config\": {");
        let _ = write!(
            out,
            "\"topology\": \"igen-{}\", \"transport\": \"{}\", \"seed\": {}, \"workers\": {}, \"batch_size\": {}, \
             \"duration_s\": {:.3}, \"interval_s\": {:.3}, \"churn_period_s\": {:.3}, \
             \"quiesce_every\": {}, \"queue_capacity\": {}, \"egress_ports\": {}, \
             \"min_commits\": {}, \"min_intervals\": {}",
            c.switches,
            c.transport.label(),
            c.seed,
            c.workers,
            c.batch_size,
            c.duration.as_secs_f64(),
            c.interval.as_secs_f64(),
            c.churn_period.as_secs_f64(),
            c.quiesce_every,
            c.queue_capacity,
            c.egress_ports,
            c.min_commits,
            c.min_intervals,
        );
        out.push_str("},\n  \"intervals\": [");
        for (i, s) in self.intervals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"index\": {}, \"at_s\": {:.3}, \"elapsed_s\": {:.3}, \
                 \"pkts_per_s\": {:.1}, \"deliveries_per_s\": {:.1}, \"state_writes_per_s\": {:.1}, \
                 \"commits\": {}, \"aborts\": {}, \"prepare_us_max\": {}, \
                 \"commit_us_max\": {}, \"slowest_ack_us\": {}, \"contention\": {:.4}, \
                 \"queue_depth_max\": {}, \"tail_drops\": {}, \"errors\": {}, \
                 \"pool_live_nodes\": {}, \"pool_distribution_nodes\": {}, \
                 \"epoch\": {}, \"epoch_skew\": {}}}",
                s.index,
                s.at_secs,
                s.elapsed_secs,
                s.pkts_per_s,
                s.deliveries_per_s,
                s.state_writes_per_s,
                s.commits,
                s.aborts,
                s.prepare_us_max,
                s.commit_us_max,
                s.slowest_ack_us,
                s.contention,
                s.queue_depth_max,
                s.tail_drops,
                s.errors,
                s.pool_live_nodes,
                s.pool_distribution_nodes,
                s.epoch,
                s.epoch_skew,
            );
        }
        out.push_str("\n  ],\n  \"rates\": {");
        for (i, (name, summary)) in [
            ("pkts_per_s", self.rate_summary(|s| s.pkts_per_s)),
            (
                "deliveries_per_s",
                self.rate_summary(|s| s.deliveries_per_s),
            ),
            (
                "state_writes_per_s",
                self.rate_summary(|s| s.state_writes_per_s),
            ),
            ("contention", self.rate_summary(|s| s.contention)),
            (
                "commit_us_max",
                self.rate_summary(|s| s.commit_us_max as f64),
            ),
            (
                "queue_depth_max",
                self.rate_summary(|s| s.queue_depth_max as f64),
            ),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"min\": {:.2}, \"median\": {:.2}, \"max\": {:.2}}}",
                summary.min, summary.median, summary.max
            );
        }
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for name in [
            "driver.batch_ns",
            "packet.delivery_hops",
            "commit.prepare_us",
            "commit.commit_us",
            "commit.prepare_ack_us",
            "commit.commit_ack_us",
        ] {
            let Some(h) = self.final_snapshot.histograms.get(name) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let (p50, p90, p99) = h.percentiles();
            let _ = write!(
                out,
                "\"{name}\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {}}}",
                h.count,
                h.mean(),
                p50,
                p90,
                p99,
                h.max
            );
        }
        out.push_str("},\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"interval\": {}, \"monitor\": \"{}\", \"detail\": ",
                v.interval, v.monitor
            );
            snap_telemetry::write_str(&mut out, &v.detail);
            out.push('}');
        }
        let _ = write!(
            out,
            "\n  ],\n  \"violation_count\": {},\n  \"commits\": {},\n  \"aborts\": {},\n  \
             \"worker_errors\": {},\n  \"packets\": {},\n  \"deliveries\": {},\n  \
             \"elapsed_s\": {:.3},\n  \"verdict\": \"{}\"\n}}\n",
            self.total_violations,
            self.commits,
            self.aborts,
            self.worker_errors,
            self.packets,
            self.deliveries,
            self.elapsed.as_secs_f64(),
            self.verdict()
        );
        out
    }

    /// A terse multi-line human summary for run logs.
    pub fn summary(&self) -> String {
        let pkts = self.rate_summary(|s| s.pkts_per_s);
        format!(
            "soak {}: {} packets, {} deliveries over {:.1}s in {} intervals\n  \
             rates: {:.0}/{:.0}/{:.0} pkt/s (min/median/max)\n  \
             churn: {} commits, {} aborts; errors: {}; violations: {}",
            self.verdict(),
            self.packets,
            self.deliveries,
            self.elapsed.as_secs_f64(),
            self.intervals.len(),
            pkts.min,
            pkts.median,
            pkts.max,
            self.commits,
            self.aborts,
            self.worker_errors,
            self.total_violations,
        )
    }
}
