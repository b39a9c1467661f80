//! The packet plane: traffic over a set of [`SwitchAgent`]s — the only
//! place in the workspace a packet runs.
//!
//! A [`DistNetwork`] has no global configuration at all: each agent holds
//! its own epoch views, updated by the controller's two-phase commit.
//! Consistency comes from epoch stamping: a packet is stamped with its
//! ingress agent's current epoch and every subsequent hop resolves the view
//! for *that* epoch, so the packet executes exactly one configuration end
//! to end no matter how the commit wave interleaves with its flight.
//!
//! This module holds the plane's state and its public surface; the batch
//! loop behind [`DistNetwork::inject_batch`] — dispatch, hop budget,
//! per-batch view pins, per-visit store locks, delivery
//! into the agents' bounded per-port FIFO queues
//! ([`snap_dataplane::EgressQueues`]) — is [`crate::driver`], and the
//! multi-worker [`crate::TrafficEngine`] pumps workloads through it.

use crate::agent::SwitchAgent;
use crate::driver::DEFAULT_HOP_BUDGET;
use snap_dataplane::egress::EgressEvent;
use snap_dataplane::exec::{NextHops, SimError};
use snap_dataplane::metrics::{export_egress, export_shards, PlaneTelemetry};
use snap_lang::{Packet, Store};
use snap_telemetry::{MetricsSnapshot, Telemetry};
use snap_topology::{NodeId as SwitchId, PortId, Topology};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by distributed injection.
#[derive(Clone, Debug, PartialEq)]
pub enum InjectError {
    /// Packet execution failed.
    Sim(SimError),
    /// A switch on the packet's path has no agent.
    NoAgent(SwitchId),
    /// The ingress agent has no committed configuration yet.
    NotConfigured(SwitchId),
    /// An agent could no longer resolve the packet's stamped epoch (it was
    /// pruned from the history ring — the packet outlived
    /// [`crate::agent::EPOCH_HISTORY`] commits).
    EpochUnavailable {
        /// The switch that could not resolve the epoch.
        switch: SwitchId,
        /// The stamped epoch.
        epoch: u64,
    },
}

impl From<SimError> for InjectError {
    fn from(e: SimError) -> Self {
        InjectError::Sim(e)
    }
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::Sim(e) => write!(f, "simulation error: {e:?}"),
            InjectError::NoAgent(s) => write!(f, "switch {s:?} has no agent"),
            InjectError::NotConfigured(s) => write!(f, "agent {s:?} has no configuration"),
            InjectError::EpochUnavailable { switch, epoch } => {
                write!(f, "agent {switch:?} cannot resolve epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// What one injection did.
#[derive(Clone, Debug)]
pub struct InjectOutcome {
    /// The epoch the packet was stamped with at ingress (and executed under
    /// at every hop).
    pub epoch: u64,
    /// Deliveries, in emission order. Each was also enqueued on its port's
    /// egress queue unless that queue was full.
    pub delivered: Vec<(PortId, Packet)>,
    /// Deliveries tail-dropped by a full egress queue (still listed in
    /// `delivered`; the loss is an egress-queue property, not a processing
    /// one).
    pub backpressure_drops: usize,
}

/// A distributed network: topology, hop distances, one agent per switch.
pub struct DistNetwork {
    pub(crate) topology: Topology,
    pub(crate) next_hops: NextHops,
    /// Indexed densely by switch (`None`: the switch has no agent), so the
    /// packet path reaches an agent, its store and its egress queues with
    /// one array load per hop and per delivery.
    agents: Vec<Option<Arc<SwitchAgent>>>,
    pub(crate) hop_budget: usize,
    /// This plane's telemetry handles; shared with the controller by
    /// [`crate::deploy_in_process`] so one snapshot covers packet counters
    /// *and* commit events. `None` disables recording.
    pub(crate) telemetry: Option<Arc<PlaneTelemetry>>,
}

impl DistNetwork {
    /// A network over a set of agents.
    pub fn new(topology: Topology, agents: BTreeMap<SwitchId, Arc<SwitchAgent>>) -> DistNetwork {
        let next_hops = NextHops::compute(&topology);
        let telemetry = Some(PlaneTelemetry::new(Telemetry::new(), &topology));
        let mut dense = vec![None; topology.num_nodes()];
        for (switch, agent) in agents {
            if dense.len() <= switch.0 {
                dense.resize(switch.0 + 1, None);
            }
            dense[switch.0] = Some(agent);
        }
        DistNetwork {
            topology,
            next_hops,
            agents: dense,
            hop_budget: DEFAULT_HOP_BUDGET,
            telemetry,
        }
    }

    /// Record this plane's metrics into `telemetry` instead of the private
    /// instance created by [`DistNetwork::new`] — how the deployment
    /// helpers share one registry between controller and data plane.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> DistNetwork {
        self.telemetry = Some(PlaneTelemetry::new(telemetry, &self.topology));
        self
    }

    /// Disable telemetry entirely (baseline leg of the overhead guard).
    pub fn without_telemetry(mut self) -> DistNetwork {
        self.telemetry = None;
        self
    }

    /// This plane's telemetry handles, if enabled.
    pub fn telemetry(&self) -> Option<&Arc<PlaneTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Snapshot this instance's metrics, traces and commit events,
    /// enriched at read time with per-agent data the hot path never
    /// touches: each agent's egress queue stats (`egress.<switch>.*`),
    /// its store lock contention stats (`store.shard.*`, rows labeled
    /// `<switch>`), its protocol counters (`agent.*`
    /// families labeled by switch name) and the committed-epoch gauge
    /// `network.epoch` (the max across agents; `network.epoch_skew` is
    /// nonzero only mid-commit). Returns an empty snapshot when
    /// telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(t) = &self.telemetry else {
            return MetricsSnapshot::default();
        };
        let epochs = self.current_epochs();
        let registry = t.telemetry().registry();
        let max = epochs.iter().next_back().copied().unwrap_or(0);
        let min = epochs.iter().next().copied().unwrap_or(0);
        registry.gauge("network.epoch").set(max as i64);
        registry.gauge("network.epoch_skew").set((max - min) as i64);
        let mut snap = t.telemetry().snapshot();
        let mut stat_families: BTreeMap<&str, Vec<(String, u64)>> = BTreeMap::new();
        for agent in self.agents() {
            export_egress(
                &mut snap,
                &format!("egress.{}", agent.name()),
                agent.egress(),
            );
            export_shards(&mut snap, agent.name(), agent.store());
            let stats = agent.stats();
            let relaxed = std::sync::atomic::Ordering::Relaxed;
            for (stat, value) in [
                ("agent.prepares", stats.prepares.load(relaxed)),
                (
                    "agent.prepare_failures",
                    stats.prepare_failures.load(relaxed),
                ),
                ("agent.commits", stats.commits.load(relaxed)),
                ("agent.aborts", stats.aborts.load(relaxed)),
                ("agent.resyncs", stats.resyncs.load(relaxed)),
                ("agent.delta_bytes", stats.delta_bytes.load(relaxed)),
                ("agent.nodes_appended", stats.nodes_appended.load(relaxed)),
                (
                    "agent.tables_installed",
                    stats.tables_installed.load(relaxed),
                ),
                ("agent.mirror_nodes", agent.mirror_len() as u64),
            ] {
                stat_families
                    .entry(stat)
                    .or_default()
                    .push((agent.name().to_string(), value));
            }
        }
        for (name, rows) in stat_families {
            snap.families.insert(name.to_string(), rows);
        }
        snap
    }

    /// Set the hop budget at construction time (default
    /// [`DEFAULT_HOP_BUDGET`]): the maximum number of hops a packet may take
    /// before it fails with `SimError::HopBudgetExceeded`.
    pub fn with_hop_budget(mut self, budget: usize) -> DistNetwork {
        self.hop_budget = budget;
        self
    }

    /// The current hop budget.
    pub fn hop_budget(&self) -> usize {
        self.hop_budget
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The agent for a switch.
    #[inline]
    pub fn agent(&self, switch: SwitchId) -> Option<&Arc<SwitchAgent>> {
        self.agents.get(switch.0)?.as_ref()
    }

    /// All agents, in switch order.
    pub fn agents(&self) -> impl Iterator<Item = &Arc<SwitchAgent>> {
        self.agents.iter().flatten()
    }

    /// Inject a packet at an OBS external port: stamp it with the ingress
    /// agent's current epoch, run it hop by hop against that epoch's views,
    /// and deliver egress into the owning agents' port queues — a batch of
    /// one through [`DistNetwork::inject_batch`].
    pub fn inject(&self, port: PortId, packet: &Packet) -> Result<InjectOutcome, InjectError> {
        let batch = [(port, packet)];
        self.inject_batch(&batch)
            .pop()
            .expect("one outcome per injected packet")
    }

    /// Drain the egress queue of a port (wherever its agent is), in FIFO
    /// order.
    pub fn drain_port(&self, port: PortId) -> Vec<EgressEvent> {
        match self.topology.port_switch(port) {
            Some(switch) => self
                .agent(switch)
                .map(|a| a.egress().drain(port))
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Total backpressure drops across every agent's queues.
    pub fn total_backpressure(&self) -> u64 {
        self.agents().map(|a| a.egress().total_dropped()).sum()
    }

    /// Merge every agent's state tables into one OBS-level store, filtered
    /// to the variables each agent currently owns (each variable lives on
    /// exactly one switch, so this is a disjoint union).
    pub fn aggregate_store(&self) -> Store {
        let mut out = Store::new();
        for agent in self.agents() {
            let Some(view) = agent.current_view() else {
                continue;
            };
            for var in &view.local_vars {
                if let Some(table) = agent.store().collect_table(var) {
                    out.insert_table(var.clone(), table);
                }
            }
        }
        out
    }

    /// The set of current epochs across agents (a singleton whenever no
    /// commit is mid-flight).
    pub fn current_epochs(&self) -> std::collections::BTreeSet<u64> {
        self.agents()
            .filter_map(|a| a.current_view().map(|v| v.epoch))
            .collect()
    }
}
