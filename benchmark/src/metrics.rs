//! The metrics of record: names, units, directions and — for the
//! end-to-end ones — the regression bound. `BENCHMARK.json` at the repo
//! root states the same table for the driver; a unit test keeps the two
//! in step. From this PR on, performance claims are made in these names.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, gated on every workload.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A single layer's metric, reported by the traced run; no bound.
pub struct Layer {
    /// Name (`<crate>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The end-to-end metrics. Every workload reports every one of them.
///
/// Bounds are set from the measured run-to-run spread on the 2-core
/// sandbox (README § Baseline), whose clock speed switches between three
/// levels about 20 % apart for seconds at a time: every timing carries the
/// widest bound the driver allows, memory a tighter one.
pub const END_TO_END: [EndToEnd; 7] = [
    // Topology + session + deploy + cold first commit + working set +
    // one warm-up pass of the ring; median of the run's set-ups.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // `Compiler::compile` wall time, fresh compiler: geometric mean over
    // the workload's rows of each row's median.
    EndToEnd {
        name: "cold_compile_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // Edit issued (or due) → probe packet back on the new epoch: median
    // over the blocks of 20 edits of each block's p50 / p90.
    EndToEnd {
        name: "update_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_ms_p90",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // Median over 250 ms windows of packets completed per second.
    EndToEnd {
        name: "pkts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    // `inject_batch(64)` call latency.
    EndToEnd {
        name: "batch_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    // VmHWM at the end of the run.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The per-layer ledger (README § Metric map says which end-to-end metric
/// each should move, and on which workload).
pub const PER_LAYER: [Layer; 77] = [
    layer("failed_share", "share", Lower),
    layer("topology.generate.ms", "ms", Lower),
    // Compile phases: sum over the workload's rows of each row's median
    // `PhaseTimings` entry, so the phases add up to `core.compile.sum_ms`.
    layer("xfdd.deps.ms", "ms", Lower),
    layer("xfdd.translate.ms", "ms", Lower),
    layer("xfdd.translate.nodes", "count", Lower),
    layer("core.mapping.ms", "ms", Lower),
    layer("core.optimize.ms", "ms", Lower),
    layer("core.rulegen.ms", "ms", Lower),
    layer("core.compile.sum_ms", "ms", Lower),
    layer("core.reroute.ms", "ms", Lower),
    layer("milp.exact.ms", "ms", Lower),
    layer("xfdd.flatten.us", "us", Lower),
    layer("xfdd.tables.compile_us", "us", Lower),
    layer("xfdd.wire.encode_us", "us", Lower),
    layer("xfdd.wire.apply_us", "us", Lower),
    layer("xfdd.wire.full_bytes", "bytes", Lower),
    layer("xfdd.tables.eval_ns_per_pkt", "ns", Lower),
    layer("lang.eval.ns_per_pkt", "ns", Lower),
    // Edits (gated mix unless named otherwise).
    layer("update.samples", "count", Higher),
    layer("update_ms_p99", "ms", Lower),
    layer("update.flip_ms_p50", "ms", Lower),
    layer("update.novel_ms_p50", "ms", Lower),
    layer("update.te_ms_p50", "ms", Lower),
    layer("update.flip_after_te_ms_p50", "ms", Lower),
    layer("session.compile.ms_p50.flip", "ms", Lower),
    layer("session.compile.ms_p50.novel", "ms", Lower),
    layer("session.compile.ms_p50.te", "ms", Lower),
    layer("session.cache.version_hit_share", "share", Higher),
    layer("session.cache.subtree_hit_share", "share", Higher),
    layer("session.cache.placement_reuse_share", "share", Higher),
    layer("session.pool.live_nodes", "count", Lower),
    layer("distrib.prepare.ms_p50", "ms", Lower),
    layer("distrib.prepare.ms_p90", "ms", Lower),
    layer("distrib.commit.ms_p50", "ms", Lower),
    layer("distrib.commit.ms_p90", "ms", Lower),
    layer("distrib.ack.prepare_us_p90", "us", Lower),
    layer("distrib.ack.commit_us_p90", "us", Lower),
    layer("distrib.wire.delta_bytes_per_update", "bytes", Lower),
    layer("distrib.wire.delta_ratio", "share", Lower),
    layer("distrib.resyncs", "count", Lower),
    layer("distrib.aborts", "count", Lower),
    layer("distrib.mux.stale", "count", Lower),
    layer("distrib.mux.duplicates", "count", Lower),
    layer("distrib.pool.distribution_nodes", "count", Lower),
    layer("distrib.frame.encode_us_per_msg", "us", Lower),
    layer("distrib.frame.decode_us_per_msg", "us", Lower),
    layer("distrib.probe.us", "us", Lower),
    // Traffic.
    layer("dataplane.inject.ns_per_pkt", "ns", Lower),
    layer("dataplane.inject.ns_per_hop", "ns", Lower),
    layer("dataplane.hops_per_pkt", "count", Lower),
    layer("dataplane.inject.batch_us_p99", "us", Lower),
    layer("dataplane.inject.batch_us_p999", "us", Lower),
    layer("dataplane.wave_prefix.survivor_share", "share", Lower),
    layer("dataplane.policy_drop_share", "share", Lower),
    layer("dataplane.state.writes_per_pkt", "count", Lower),
    layer("dataplane.state.entries", "count", Lower),
    layer("dataplane.shards.acquisitions_per_pkt", "count", Lower),
    layer("dataplane.shards.contended_share", "share", Lower),
    layer("dataplane.shards.merge_flushes_per_batch", "count", Lower),
    layer("dataplane.outcomes.free_ns_per_pkt", "ns", Lower),
    layer("dataplane.egress.drain_ns_per_pkt", "ns", Lower),
    layer("dataplane.egress.tail_drops", "count", Lower),
    layer("dataplane.egress.depth_max", "count", Lower),
    layer("dataplane.scaling_w2", "ratio", Higher),
    layer("telemetry.overhead_share", "share", Lower),
    layer("telemetry.snapshot.ms", "ms", Lower),
    // The benchmark's own footprint and the ledger property.
    layer("loadgen.share", "share", Lower),
    layer("loadgen.late_ms_p90", "ms", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Lower),
    layer("ledger.update.unaccounted_share", "share", Lower),
    layer("ledger.traffic.unaccounted_share", "share", Lower),
    // Self times from the spans, the rows the two ledgers sum over.
    layer("ledger.update.compile_share", "share", Lower),
    layer("ledger.update.prepare_share", "share", Lower),
    layer("ledger.update.commit_share", "share", Lower),
    layer("ledger.update.probe_share", "share", Lower),
    layer("ledger.traffic.inject_share", "share", Lower),
];

/// `(name, unit)` of the metrics a run reports: the end-to-end ones
/// untraced, the per-layer ones traced.
pub fn reported(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
    }
}
