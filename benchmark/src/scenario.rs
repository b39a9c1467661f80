//! The five named workloads. Later issues cite these names; BENCHMARK.json
//! carries the one-line `why` of each, the README the long form.
//!
//! A workload fixes a *scenario* — topology, base traffic matrix, policy
//! family, flow count — and how a run's measured seconds are split between
//! the compile, traffic and edit legs. Every workload runs every leg,
//! because the driver gates every end-to-end metric on every workload; the
//! split is what makes each workload stress its own layers.

use crate::gen::MAX_HOST;
use snap_apps as apps;
use snap_lang::builder::*;
use snap_lang::{Field, Policy};
use snap_topology::generators::{self, presets};
use snap_topology::{PortId, Topology, TrafficMatrix};

/// Seed of the fixed topologies and base traffic matrices. Not `--seed`:
/// see `gen.rs` for why the scenario is held constant across seeds.
const SCENARIO_SEED: u64 = 7;

/// Total gravity demand; shapes the matrix, not the packet rate.
pub const VOLUME: f64 = 10_000.0;

/// Size of the flip working set pre-committed during set-up.
pub const VARIANTS: usize = 5;

/// The subnet (`10.0.6.0/24`) and port the Table 3 firewall and DNS-tunnel
/// applications protect.
pub const PROTECTED_PORT: PortId = PortId(6);

/// Detection thresholds sit far above anything a run can reach, so the
/// counters keep counting for the whole run: a threshold inside reach
/// would flip flows to "detected" midway and the per-packet work would
/// drift with run length.
const THRESHOLD_BASE: i64 = 1_000_000;

/// The family of policies a workload deploys and edits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `¬(srcip ∈ denied /30) ; assign_egress`: no state anywhere.
    StatelessAcl,
    /// `port_monitoring ; dns_tunnel_detect ; stateful_firewall ;
    /// heavy_hitter_detection ; assign_egress`: commuting counters, exact
    /// test-and-set and read-only lookups side by side.
    StatefulPipeline,
    /// `assumption ; dns_tunnel_detect ; assign_egress`: the policy of the
    /// paper's Table 6 / Figure 9 / Figure 10 experiments.
    TunnelRouting,
}

impl Family {
    /// Working-set variant `i` (`0..VARIANTS`) for a network of `ports`
    /// external ports. Variants differ in one threshold (or one denied
    /// prefix), so they share placement and every subtree but one.
    pub fn variant(self, ports: usize, i: usize) -> Policy {
        self.with_param(ports, i as i64, false)
    }

    /// A policy no session has compiled before: the same single-subtree
    /// edit as between variants, with a parameter outside the working set.
    pub fn novel(self, ports: usize, param: u64) -> Policy {
        self.with_param(ports, VARIANTS as i64 + param as i64, true)
    }

    fn with_param(self, ports: usize, param: i64, novel: bool) -> Policy {
        match self {
            Family::StatelessAcl => {
                // Denied /30s start at host octet 192; generated sources
                // stay below MAX_HOST, so no edit ever drops ring traffic
                // and the expected egress of every packet is edit-invariant.
                // Variants deny host 192 of subnets 1..=5, novel edits hosts
                // 196.. of any subnet, so the two never coincide.
                const _: () = assert!(MAX_HOST <= 192);
                let subnet = 1 + (param % 250) as u8;
                let host = if novel {
                    196 + 4 * ((param / 250) % 15) as u8
                } else {
                    192
                };
                filter(test_prefix(Field::SrcIp, 10, 0, subnet, host, 30).not())
                    .seq(apps::assign_egress(ports))
            }
            Family::StatefulPipeline => apps::port_monitoring()
                .seq(apps::dns_tunnel_detect(THRESHOLD_BASE + param))
                .seq(apps::stateful_firewall())
                .seq(apps::heavy_hitter_detection(THRESHOLD_BASE))
                .seq(apps::assign_egress(ports)),
            Family::TunnelRouting => apps::assumption(ports)
                .seq(apps::dns_tunnel_detect(THRESHOLD_BASE + param))
                .seq(apps::assign_egress(ports)),
        }
    }

    /// Whether the family's policies count packets per ingress port
    /// (`count[inport]++` on every packet), which lets the run check the
    /// fleet's final state against the number of packets injected.
    pub fn counts_ingress(self) -> bool {
        self == Family::StatefulPipeline
    }

    /// Whether a packet towards `dst` may legitimately be dropped: only the
    /// stateful firewall drops, and only unsolicited traffic into the
    /// protected subnet.
    pub fn may_drop(self, dst: PortId) -> bool {
        self == Family::StatefulPipeline && dst == PROTECTED_PORT
    }
}

/// One (topology, matrix, policy) input of the compile leg.
pub struct CompileRow {
    /// Row label, printed with the row's result.
    pub name: String,
    /// Target topology.
    pub topology: Topology,
    /// Traffic matrix placement and routing optimise for.
    pub traffic: TrafficMatrix,
    /// The policy to compile.
    pub policy: Policy,
}

/// Which rows a workload's compile leg compiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileRows {
    /// The workload's own (topology, matrix, variant 0): one row.
    Own,
    /// The paper's evaluation: the seven Table 5 presets × the Table 6
    /// policy, plus Figure 11's last point (20 composed applications on
    /// igen-50).
    Paper,
}

/// How the edit leg is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditLoop {
    /// One operator, next edit issued when the previous probe returned; no
    /// traffic during the leg.
    Closed,
    /// One edit due every `period_ms`, timed from when it was due, while
    /// the traffic thread keeps injecting.
    Open {
        /// Milliseconds between due times.
        period_ms: u64,
    },
}

/// A named workload.
pub struct Workload {
    /// The name later issues cite.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    topology: fn() -> Topology,
    /// The deployed policy family.
    pub family: Family,
    /// Rows of the compile leg.
    pub compile_rows: CompileRows,
    /// Compile rounds per measured second (at least three are run).
    pub compile_rounds_per_s: f64,
    /// Share of the measured seconds spent in the closed-loop traffic leg
    /// (ignored with an open edit loop, where traffic runs as long as the
    /// operator does).
    pub traffic_share: f64,
    /// Blocks of `gen::EDIT_BLOCK` edits per measured second. A fixed op
    /// count rather than a time limit, so pool growth and cache state are
    /// identical on both sides of a comparison.
    pub edit_blocks_per_s: f64,
    /// Closed or open edit loop.
    pub edit_loop: EditLoop,
}

fn igen50() -> Topology {
    generators::igen_topology(50, SCENARIO_SEED)
}

fn igen70() -> Topology {
    generators::igen_topology(70, SCENARIO_SEED)
}

/// A Table 5 preset with one OBS port per edge switch (the aggregated
/// demands the heuristic placer is evaluated on; see EXPERIMENTS.md).
fn preset_topology(spec: &generators::RandomTopologySpec) -> Topology {
    let mut spec = spec.clone();
    spec.external_ports = None;
    generators::random_topology(&spec)
}

fn stanford() -> Topology {
    preset_topology(&presets::stanford())
}

/// The workloads, in the order they are run and reported.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "compile-cold",
        why: "Table 5 presets + Fig. 11's 20-app point compiled cold: xfdd translate/compose and core mapping/optimize/rulegen do the work, session caches do none",
        topology: stanford,
        family: Family::TunnelRouting,
        compile_rows: CompileRows::Paper,
        compile_rounds_per_s: 0.6,
        traffic_share: 0.3,
        edit_blocks_per_s: 2.0,
        edit_loop: EditLoop::Closed,
    },
    Workload {
        name: "edit-churn",
        why: "igen-50 fleet, one operator, 80% working-set flips + 20% novel threshold edits, each ended by a probe on the new epoch: session caches, wire delta, prepare and commit do the work",
        topology: igen50,
        family: Family::StatefulPipeline,
        compile_rows: CompileRows::Own,
        compile_rounds_per_s: 0.8,
        traffic_share: 0.3,
        edit_blocks_per_s: 3.0,
        edit_loop: EditLoop::Closed,
    },
    Workload {
        name: "fwd-stateless",
        why: "igen-50, source-prefix ACL ; assign_egress, batches of 64: table dispatch, wave prefix, forwarding and egress queues do everything; state shards and replica merge do nothing",
        topology: igen50,
        family: Family::StatelessAcl,
        compile_rows: CompileRows::Own,
        compile_rounds_per_s: 20.0,
        traffic_share: 0.6,
        edit_blocks_per_s: 4.0,
        edit_loop: EditLoop::Closed,
    },
    Workload {
        name: "fwd-stateful",
        why: "same topology and ring, five-app stateful pipeline over 65536 flows: commuting counters, exact test-and-set and read-only lookups side by side",
        topology: igen50,
        family: Family::StatefulPipeline,
        compile_rows: CompileRows::Own,
        compile_rounds_per_s: 0.8,
        traffic_share: 0.6,
        edit_blocks_per_s: 1.0,
        edit_loop: EditLoop::Closed,
    },
    Workload {
        name: "mixed-isp",
        why: "igen-70, the stateful traffic thread plus an open-loop operator (one edit due every 100 ms): the only place commit and forwarding contend for epoch views, shard locks and the second core",
        topology: igen70,
        family: Family::StatefulPipeline,
        compile_rows: CompileRows::Own,
        compile_rounds_per_s: 0.4,
        traffic_share: 0.0,
        edit_blocks_per_s: 0.6,
        edit_loop: EditLoop::Open { period_ms: 100 },
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generate the workload's topology (deterministic; timed by set-up).
    pub fn topology(&self) -> Topology {
        (self.topology)()
    }

    /// The base traffic matrix of `topology`.
    pub fn base_traffic(&self, topology: &Topology) -> TrafficMatrix {
        TrafficMatrix::gravity(topology, VOLUME, SCENARIO_SEED)
    }

    /// The workload's own (topology, base matrix, variant 0) as a compile row.
    pub fn own_row(&self) -> CompileRow {
        let topology = self.topology();
        CompileRow {
            name: topology.name.clone(),
            traffic: self.base_traffic(&topology),
            policy: self.family.variant(topology.num_external_ports(), 0),
            topology,
        }
    }

    /// The rows of this workload's compile leg.
    pub fn compile_inputs(&self) -> Vec<CompileRow> {
        match self.compile_rows {
            CompileRows::Own => vec![self.own_row()],
            CompileRows::Paper => paper_rows(),
        }
    }
}

fn paper_rows() -> Vec<CompileRow> {
    let mut rows: Vec<CompileRow> = presets::table5()
        .iter()
        .map(|spec| {
            let topology = preset_topology(spec);
            let traffic = TrafficMatrix::gravity(&topology, VOLUME, spec.seed);
            let ports = topology.num_external_ports().min(200);
            CompileRow {
                name: spec.name.clone(),
                policy: apps::assumption(ports)
                    .seq(apps::dns_tunnel_detect(10))
                    .seq(apps::assign_egress(ports)),
                topology,
                traffic,
            }
        })
        .collect();
    let topology = igen50();
    let traffic = TrafficMatrix::gravity(&topology, VOLUME, SCENARIO_SEED);
    let ports = topology.num_external_ports();
    rows.push(CompileRow {
        name: "igen-50 x 20 apps".to_string(),
        policy: composed_catalogue(20, ports),
        topology,
        traffic,
    });
    rows
}

/// Figure 11's policies: the first `n` catalogue applications, each guarded
/// so it only sees traffic towards "its" egress port, parallel-composed and
/// followed by egress assignment (§6.2.1).
fn composed_catalogue(n: usize, ports: usize) -> Policy {
    let components: Vec<Policy> = apps::catalogue()
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(i, (_, policy))| {
            let port = (i % ports) + 1;
            ite(
                test_prefix(Field::DstIp, 10, 0, port as u8, 0, 24),
                policy,
                id(),
            )
        })
        .collect();
    Policy::par_all(components).seq(apps::assign_egress(ports))
}

/// The ninth row, which feeds only `milp.exact.ms`: the campus running
/// example (Figure 2 topology, Table 6 policy) for the exact MILP engine,
/// with two demands into the protected subnet — the in-tree
/// branch-and-bound is practical only at that size (ROADMAP, "MILP: scale
/// it or shrink it").
pub fn exact_row() -> CompileRow {
    let topology = generators::campus();
    let mut traffic = TrafficMatrix::new();
    traffic.set(PortId(1), PROTECTED_PORT, 3.0);
    traffic.set(PortId(2), PROTECTED_PORT, 3.0);
    let ports = topology.num_external_ports();
    CompileRow {
        name: "campus (exact MILP)".to_string(),
        policy: apps::assumption(ports)
            .seq(apps::dns_tunnel_detect(10))
            .seq(apps::assign_egress(ports)),
        topology,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_the_five_of_record() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "compile-cold",
                "edit-churn",
                "fwd-stateless",
                "fwd-stateful",
                "mixed-isp"
            ]
        );
        assert!(Workload::by_name("fwd-stateful").is_some());
        assert!(Workload::by_name("nope").is_none());
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{} why too long for BENCHMARK.json",
                w.name
            );
        }
    }

    #[test]
    fn variants_and_novel_edits_are_all_distinct_policies() {
        for family in [
            Family::StatelessAcl,
            Family::StatefulPipeline,
            Family::TunnelRouting,
        ] {
            let mut seen: Vec<Policy> = (0..VARIANTS).map(|i| family.variant(20, i)).collect();
            seen.extend((1..=50).map(|p| family.novel(20, p)));
            for (i, a) in seen.iter().enumerate() {
                for b in &seen[i + 1..] {
                    assert_ne!(a, b, "{family:?} produced the same policy twice");
                }
            }
        }
    }

    #[test]
    fn paper_rows_are_table5_plus_fig11() {
        let rows = paper_rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].name, "stanford-like");
        assert_eq!(rows[7].topology.num_nodes(), 50);
    }
}
