//! A concurrent network simulator that executes a *distributed* SNAP
//! program: per-switch xFDD fragments, per-switch state tables and
//! hop-by-hop forwarding with a SNAP header that records how far into the
//! diagram a packet has progressed (§4.5).
//!
//! The dataplane is split RCU-style into two halves:
//!
//! * an immutable [`ConfigSnapshot`] — per-switch configurations, the shared
//!   [`FlatProgram`], the state-variable placement and the epoch — published
//!   behind an `Arc`. Packet workers grab a snapshot per packet (or per
//!   batch) and process against it without further coordination; a packet
//!   therefore never mixes two configurations, no matter how many
//!   [`Network::swap_configs`] calls race with it.
//! * sharded mutable state: one [`StateShards`] per switch (`K`
//!   independently-locked key-range partitions plus per-shard contention
//!   counters), shared *across* snapshots so state survives recompiles.
//!   The paper's invariant that each state variable lives on exactly one
//!   switch pins a variable to one switch; within that switch its keys
//!   spread over the shards, so workers serialize only when they hit the
//!   same key range — and commuting updates (see
//!   [`snap_xfdd::StateClass`]) don't lock at all, merging per-worker
//!   replica deltas at batch-group boundaries.
//!
//! [`Network::inject`] takes `&self`: traffic and recompile-and-swap run
//! concurrently. [`Network::swap_configs`] builds the next snapshot on the
//! side (migrating state tables whose owner moved) and publishes it with one
//! pointer store — readers never block on a recompile.
//!
//! Per-switch execution walks the dense [`FlatProgram`] lowered from the
//! hash-consed xFDD: the flat node ids *are* the packet tag, so a switch
//! resumes processing at the recorded id with pure index arithmetic, and the
//! "every switch carries the full diagram" requirement costs one `Arc`
//! clone per switch.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use snap_lang::{Packet, StateVar, Store};
use snap_xfdd::{FlatProgram, TableProgram, Xfdd};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::driver::{Driver, EgressSink, HopView, Ingress, ViewResolver};
use crate::egress::EgressQueues;
pub use crate::exec::SimError;
use crate::exec::{bind_slots, NextHops, SlotBinding};
use crate::metrics::{export_shards, PlaneTelemetry};
use crate::shards::{StateShards, DEFAULT_STATE_SHARDS};
use snap_telemetry::{MetricsSnapshot, Telemetry};
use snap_topology::{NodeId as SwitchId, PortId, Topology};

/// Per-switch configuration produced by rule generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// The switch this configuration belongs to.
    pub node: SwitchId,
    /// The state variables stored on this switch.
    pub local_vars: BTreeSet<StateVar>,
    /// The program. Every switch carries the full (shared, interned) diagram
    /// but only executes the parts whose state it owns; the SNAP header
    /// records where processing stopped. Installing the configuration
    /// flattens the diagram once into the [`FlatProgram`] all switches
    /// execute.
    pub program: Xfdd,
    /// OBS external ports attached to this switch.
    pub ports: BTreeSet<PortId>,
}

impl SwitchConfig {
    /// Build one configuration per switch of `topology`: every switch
    /// carries `program`, external ports are derived from the topology, and
    /// state variables are placed per `owners` (switches absent from the
    /// map own nothing). The single constructor behind rule generation,
    /// tests and benches, so the config shape has one source of truth.
    pub fn for_topology(
        topology: &Topology,
        program: &Xfdd,
        owners: &BTreeMap<SwitchId, BTreeSet<StateVar>>,
    ) -> Vec<SwitchConfig> {
        let mut ports_per_switch: BTreeMap<SwitchId, BTreeSet<PortId>> = BTreeMap::new();
        for (port, node) in topology.external_ports() {
            ports_per_switch.entry(node).or_default().insert(port);
        }
        topology
            .nodes()
            .map(|n| SwitchConfig {
                node: n,
                local_vars: owners.get(&n).cloned().unwrap_or_default(),
                program: program.clone(),
                ports: ports_per_switch.remove(&n).unwrap_or_default(),
            })
            .collect()
    }
}

/// One immutable, atomically-swappable configuration of the whole network:
/// per-switch configs, the shared flattened program, the state placement and
/// the per-switch store handles, all stamped with an epoch.
///
/// Snapshots are published behind an `Arc` by [`Network::swap_configs`];
/// a packet (or batch) is processed entirely against one snapshot, so it can
/// never observe half of an old configuration and half of a new one. The
/// store handles are shared across snapshots — state survives swaps — while
/// everything else is immutable once published.
pub struct ConfigSnapshot {
    configs: BTreeMap<SwitchId, SwitchConfig>,
    /// The shared program, flattened once at install time. `None` when no
    /// programs are installed.
    flat: Option<Arc<FlatProgram>>,
    /// The table compilation of `flat` (same flat ids, per-field dispatch
    /// stages), built alongside it at install time. `Some` iff `flat` is.
    tables: Option<Arc<TableProgram>>,
    /// Which switch holds each state variable (derived from the configs).
    placement: BTreeMap<StateVar, SwitchId>,
    /// Per-switch key-range state shards. Shared across snapshots; each
    /// variable's table lives on exactly one switch (its owner's), split
    /// across that switch's shards by index hash.
    stores: BTreeMap<SwitchId, Arc<StateShards>>,
    /// What the packet path reads of each configured switch, resolved when
    /// the snapshot is built (see [`ResolvedSwitch`]).
    resolved: BTreeMap<SwitchId, ResolvedSwitch>,
    /// Configuration epoch: 0 at construction, bumped by every
    /// [`Network::swap_configs`].
    epoch: u64,
}

/// One switch's configuration with every name looked up, once per snapshot:
/// each variable slot of the shared program bound to the switch's own table
/// or to its owner under the snapshot's placement, and the port set as a
/// sorted slice. Immutable with the snapshot, so a packet meets one binding
/// from ingress to egress.
struct ResolvedSwitch {
    bindings: Box<[SlotBinding]>,
    ports: Box<[PortId]>,
}

impl ConfigSnapshot {
    /// Build a snapshot, resolving every switch of `indexed` against its
    /// store (`stores` must hold one for each configured switch).
    fn new(
        indexed: IndexedConfigs,
        stores: BTreeMap<SwitchId, Arc<StateShards>>,
        epoch: u64,
    ) -> ConfigSnapshot {
        let mut snapshot = ConfigSnapshot {
            configs: indexed.map,
            flat: indexed.flat,
            tables: indexed.tables,
            placement: indexed.placement,
            stores,
            resolved: BTreeMap::new(),
            epoch,
        };
        snapshot.resolve();
        snapshot
    }

    /// (Re)resolve every configured switch against the snapshot's stores —
    /// table ids are the stores' own, so replacing a store invalidates them.
    fn resolve(&mut self) {
        let Some(flat) = self.flat.as_deref() else {
            return;
        };
        let resolve = |(node, config): (&SwitchId, &SwitchConfig)| {
            let resolved = ResolvedSwitch {
                bindings: bind_slots(
                    flat,
                    &config.local_vars,
                    &self.placement,
                    &self.stores[node],
                ),
                ports: config.ports.iter().copied().collect(),
            };
            (*node, resolved)
        };
        self.resolved = self.configs.iter().map(resolve).collect();
    }
}

impl ConfigSnapshot {
    /// This snapshot's configuration epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The switch a state variable lives on under this snapshot.
    pub fn owner(&self, var: &StateVar) -> Option<SwitchId> {
        self.placement.get(var).copied()
    }

    /// The shared flattened program, if any is installed.
    pub fn program(&self) -> Option<&Arc<FlatProgram>> {
        self.flat.as_ref()
    }

    /// The table compilation of the installed program, if any — the hot
    /// path the driver actually dispatches through.
    pub fn tables(&self) -> Option<&Arc<TableProgram>> {
        self.tables.as_ref()
    }

    /// The configuration installed on a switch.
    pub fn config(&self, switch: SwitchId) -> Option<&SwitchConfig> {
        self.configs.get(&switch)
    }
}

/// Per-switch configurations, indexed and validated: every config must hold
/// a handle on the *same* interned pool and root, since the packet tag of
/// one switch dereferences another switch's program.
struct IndexedConfigs {
    map: BTreeMap<SwitchId, SwitchConfig>,
    flat: Option<Arc<FlatProgram>>,
    tables: Option<Arc<TableProgram>>,
    placement: BTreeMap<StateVar, SwitchId>,
}

fn index_configs(configs: Vec<SwitchConfig>) -> IndexedConfigs {
    let mut placement = BTreeMap::new();
    let mut map = BTreeMap::new();
    let mut root = None;
    let mut pool: Option<*const snap_xfdd::Pool> = None;
    let mut shared: Option<&Xfdd> = None;
    for c in &configs {
        // NodeIds are only meaningful within their own arena: every
        // config must hold a handle on the same interned pool (rule
        // generation guarantees this), otherwise the packet tag of one
        // switch would dereference another switch's program.
        let c_pool = c.program.pool() as *const _;
        assert!(
            *pool.get_or_insert(c_pool) == c_pool,
            "switch {:?} carries a program from a different xFDD pool",
            c.node
        );
        assert!(
            *root.get_or_insert(c.program.root()) == c.program.root(),
            "switch {:?} carries a program with a different root",
            c.node
        );
        shared.get_or_insert(&c.program);
    }
    // One flattening pass for the whole network: the dense ids are the
    // packet tags, so every switch must execute the *same* flat program.
    // The dispatch tables are compiled right next to it — same ids, so
    // they agree on every switch by construction.
    let flat = shared.map(|program| Arc::new(program.flatten()));
    let tables = flat.as_ref().map(|f| Arc::new(TableProgram::compile(f)));
    for c in configs {
        for v in &c.local_vars {
            placement.insert(v.clone(), c.node);
        }
        map.insert(c.node, c);
    }
    IndexedConfigs {
        map,
        flat,
        tables,
        placement,
    }
}

/// The result of injecting a batch of packets under one configuration
/// snapshot. Results are per packet: one packet failing (bad outport,
/// missing field, ...) does not discard the egress of the packets that
/// already completed — their state side effects have happened either way.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// The epoch of the snapshot every packet of the batch ran against.
    pub epoch: u64,
    /// Per-packet egress sets (or the packet's error), in batch order.
    pub outputs: Vec<Result<BTreeSet<(PortId, Packet)>, SimError>>,
}

/// The distributed network: an immutable topology, an atomically-swappable
/// [`ConfigSnapshot`] and sharded per-switch state.
pub struct Network {
    topology: Topology,
    /// First hop of a shortest path per switch pair, precomputed once so
    /// per-packet forwarding is two array loads instead of a BFS.
    next_hop: NextHops,
    /// The current snapshot. The mutex guards only the `Arc` pointer: a
    /// reader clones it and drops the lock, so the critical section is a
    /// refcount bump — nobody holds it across packet processing, let alone
    /// a recompile.
    snapshot: Mutex<Arc<ConfigSnapshot>>,
    /// Serializes writers: concurrent [`Network::swap_configs`] calls
    /// migrate state one at a time while readers keep flowing.
    swap_lock: Mutex<()>,
    /// Maximum number of hops a packet may take before the simulator reports
    /// a routing loop.
    hop_budget: usize,
    /// This instance's telemetry plane (pre-registered driver handles).
    /// `None` disables all recording — every injection pays one branch per
    /// observation site and nothing else.
    telemetry: Option<Arc<PlaneTelemetry>>,
    /// Shards per switch, used when a swap creates a store for a switch
    /// that had none (see [`Network::with_state_shards`]).
    state_shards: usize,
}

/// Default hop budget (see [`Network::with_hop_budget`]).
pub const DEFAULT_HOP_BUDGET: usize = 256;

impl Network {
    /// Build a network from per-switch configurations.
    pub fn new(topology: Topology, configs: Vec<SwitchConfig>) -> Self {
        let indexed = index_configs(configs);
        let stores = indexed
            .map
            .keys()
            .map(|&n| (n, Arc::new(StateShards::new(DEFAULT_STATE_SHARDS))))
            .collect();
        let next_hop = NextHops::compute(&topology);
        let telemetry = Some(PlaneTelemetry::new(Telemetry::new(), &topology));
        Network {
            topology,
            next_hop,
            snapshot: Mutex::new(Arc::new(ConfigSnapshot::new(indexed, stores, 0))),
            swap_lock: Mutex::new(()),
            hop_budget: DEFAULT_HOP_BUDGET,
            telemetry,
            state_shards: DEFAULT_STATE_SHARDS,
        }
    }

    /// Set the number of key-range state shards per switch (default
    /// [`DEFAULT_STATE_SHARDS`]). Construction-time only: the network must
    /// not have processed traffic yet, since existing (empty) shards are
    /// replaced.
    pub fn with_state_shards(mut self, k: usize) -> Self {
        self.state_shards = k.max(1);
        let snap = Arc::get_mut(self.snapshot.get_mut())
            .expect("with_state_shards is construction-time only");
        for store in snap.stores.values_mut() {
            *store = Arc::new(StateShards::new(self.state_shards));
        }
        snap.resolve();
        self
    }

    /// Record this network's metrics into `telemetry` instead of the
    /// private instance created by [`Network::new`] — used by the
    /// distribution plane to share one registry between the controller,
    /// the agents and the packet driver.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(PlaneTelemetry::new(telemetry, &self.topology));
        self
    }

    /// Disable telemetry entirely: no counters, no traces. This is the
    /// baseline leg of the bench's overhead guard.
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = None;
        self
    }

    /// This network's telemetry handles, if enabled.
    pub fn telemetry(&self) -> Option<&Arc<PlaneTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Snapshot this instance's metrics, traces and events, enriched with
    /// the current configuration epoch (gauge `network.epoch`) and each
    /// switch's per-shard store contention (`store.shard.*` families, read
    /// off the shards at snapshot time). Returns an empty snapshot when
    /// telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(t) = &self.telemetry else {
            return MetricsSnapshot::default();
        };
        t.telemetry()
            .registry()
            .gauge("network.epoch")
            .set(self.current_epoch() as i64);
        let mut out = t.telemetry().snapshot();
        let snap = self.snapshot();
        for (node, shards) in &snap.stores {
            export_shards(&mut out, self.topology.node_name(*node), shards);
        }
        out
    }

    /// Set the hop budget at construction time (default
    /// [`DEFAULT_HOP_BUDGET`]): the maximum number of hops a packet may take
    /// before the simulator reports [`SimError::HopBudgetExceeded`] instead
    /// of spinning on a loopy configuration.
    pub fn with_hop_budget(mut self, budget: usize) -> Self {
        self.hop_budget = budget;
        self
    }

    /// Change the hop budget of a network that is not yet shared.
    pub fn set_hop_budget(&mut self, budget: usize) {
        self.hop_budget = budget;
    }

    /// The current hop budget.
    pub fn hop_budget(&self) -> usize {
        self.hop_budget
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current configuration snapshot. The returned `Arc` stays valid
    /// (and internally consistent) however many swaps happen after this
    /// call.
    pub fn snapshot(&self) -> Arc<ConfigSnapshot> {
        self.snapshot.lock().clone()
    }

    /// The current configuration epoch (how many times
    /// [`Self::swap_configs`] replaced the running program). The one
    /// canonical epoch read — a lock, a load and a drop, no snapshot clone.
    pub fn current_epoch(&self) -> u64 {
        self.snapshot.lock().epoch
    }

    /// Atomically replace every switch's configuration with a freshly
    /// compiled set — the controller's recompile-and-push step — without
    /// stopping traffic or losing switch state. Takes `&self`: packet
    /// workers keep injecting throughout; each packet runs against whichever
    /// snapshot was current when it entered, never a mix. Variables whose
    /// owner moved have their state tables migrated to the new owner;
    /// variables no longer placed anywhere have their tables *dropped*, so
    /// re-placing the same name later deterministically starts fresh
    /// wherever it lands (rather than resurrecting stale state only when
    /// the optimizer happens to pick the old switch). Returns the new
    /// epoch.
    ///
    /// The new configs may come from a different xFDD pool than the old
    /// ones (they must still all share one pool among themselves): the swap
    /// publishes program, root and placement together in one snapshot, so
    /// no packet ever resolves an old node id against a new program.
    ///
    /// Consistency caveat: table migration happens eagerly on the shared
    /// store shards, so when a variable's owner *moves* (or the variable is
    /// dropped), a packet still executing against the previous snapshot can
    /// race with the migration — a write it performs on the old owner after
    /// the table moved lands in a fresh table and is orphaned. Packets that
    /// start after the swap are always consistent. Controllers that need
    /// exactly-once state transfer under live traffic should keep a
    /// variable's placement stable across updates (the session's placement
    /// reuse does this automatically when mapping and dependencies are
    /// unchanged) or quiesce injection around an owner move; full
    /// migration consistency under owner moves needs reader quiescence and
    /// is future work (see ROADMAP).
    pub fn swap_configs(&self, configs: Vec<SwitchConfig>) -> u64 {
        let _writer = self.swap_lock.lock();
        let cur = self.snapshot();
        let indexed = index_configs(configs);
        // The store shards are shared with the current snapshot (state
        // survives the swap); migrate tables owned by a different switch
        // under the new placement, and drop tables of variables the new
        // program no longer places.
        let mut stores = cur.stores.clone();
        for (var, &old_owner) in &cur.placement {
            // Removing a variable unions its key-disjoint per-shard
            // partials back into one exact table; installing it on the new
            // owner redistributes the entries across that switch's shards.
            let take = |stores: &BTreeMap<SwitchId, Arc<StateShards>>| {
                stores.get(&old_owner).and_then(|s| s.remove_var(var))
            };
            match indexed.placement.get(var) {
                Some(&new_owner) if new_owner != old_owner => {
                    if let Some(table) = take(&stores) {
                        stores
                            .entry(new_owner)
                            .or_insert_with(|| Arc::new(StateShards::new(self.state_shards)))
                            .insert_table(var.clone(), table);
                    }
                }
                Some(_) => {} // same owner: table stays put
                None => {
                    take(&stores);
                }
            }
        }
        for &n in indexed.map.keys() {
            stores
                .entry(n)
                .or_insert_with(|| Arc::new(StateShards::new(self.state_shards)));
        }
        let epoch = cur.epoch + 1;
        *self.snapshot.lock() = Arc::new(ConfigSnapshot::new(indexed, stores, epoch));
        epoch
    }

    /// The switch a state variable lives on.
    pub fn owner(&self, var: &StateVar) -> Option<SwitchId> {
        self.snapshot.lock().owner(var)
    }

    /// Merge the per-switch state tables into a single OBS-level store
    /// (each variable lives on exactly one switch, so this is a disjoint
    /// union).
    ///
    /// Shard locks are taken one at a time, per table: listing a switch's
    /// variables and unioning a table's per-shard partials each lock one
    /// shard at a time, so a switch with a huge table cannot stall packet
    /// workers for the duration of the whole clone. Replicated (commuting)
    /// updates buffered by in-flight batch groups merge at group
    /// boundaries, so a concurrent aggregate may lag them by at most one
    /// group; totals are exact once the workers have joined.
    pub fn aggregate_store(&self) -> Store {
        let snap = self.snapshot();
        let mut out = Store::new();
        for (node, store) in &snap.stores {
            let Some(config) = snap.configs.get(node) else {
                continue;
            };
            for var in store.variables() {
                if !config.local_vars.contains(&var) {
                    continue;
                }
                if let Some(table) = store.collect_table(&var) {
                    out.insert_table(var, table);
                }
            }
        }
        out
    }

    /// The shared packet driver over this network's topology, next-hop
    /// table and hop budget.
    fn driver(&self) -> Driver<'_> {
        Driver::new(&self.topology, &self.next_hop, self.hop_budget)
            .with_metrics(self.telemetry.as_deref())
    }

    /// Inject a packet at an OBS external port and run it to completion
    /// against the current configuration snapshot. Returns the set of
    /// `(egress port, packet)` pairs that leave the network.
    pub fn inject(
        &self,
        port: PortId,
        packet: &Packet,
    ) -> Result<BTreeSet<(PortId, Packet)>, SimError> {
        let snap = self.snapshot();
        let resolver = SnapshotResolver { snap: &snap };
        let mut sink = SetSink::for_batch(1);
        let batch = [(port, packet)];
        let mut results = self.driver().run_batch(&resolver, &mut sink, &batch);
        results
            .pop()
            .expect("one result per packet")
            .map(|_| sink.outputs.pop().expect("one egress set per packet"))
    }

    /// Inject a batch of packets, all against the *same* configuration
    /// snapshot (one snapshot load for the whole batch). Execution is
    /// batched per switch by the shared driver: in-flight packets at the
    /// same switch drain under a single store-lock acquisition, so state
    /// writes from *different* packets of one batch may interleave (each
    /// packet's own semantics are unchanged, and every packet of the batch
    /// observed the same epoch).
    pub fn inject_batch(&self, batch: &[(PortId, Packet)]) -> BatchOutput {
        let snap = self.snapshot();
        let resolver = SnapshotResolver { snap: &snap };
        let mut sink = SetSink::for_batch(batch.len());
        let results = self.driver().run_batch(&resolver, &mut sink, batch);
        let outputs = results
            .into_iter()
            .zip(sink.outputs)
            .map(|(result, set)| result.map(|_| set))
            .collect();
        BatchOutput {
            epoch: snap.epoch,
            outputs,
        }
    }

    /// The allocation-lean egress path behind the traffic engine: the same
    /// events as [`Network::inject_batch`], but each packet's egress is
    /// collected as a sorted, deduplicated `Vec` instead of a tree set —
    /// one flat buffer per packet on the hot path rather than a node
    /// allocation per delivery.
    pub(crate) fn inject_batch_lists(&self, batch: &[(PortId, Packet)]) -> BatchLists {
        let snap = self.snapshot();
        let resolver = SnapshotResolver { snap: &snap };
        let mut sink = ListSink {
            outputs: batch.iter().map(|_| Vec::new()).collect(),
        };
        let results = self.driver().run_batch(&resolver, &mut sink, batch);
        let outputs = results
            .into_iter()
            .zip(sink.outputs)
            .map(|(result, mut list)| {
                result.map(|_| {
                    // Exactly the set shape: sorted, duplicates collapsed.
                    list.sort_unstable();
                    list.dedup();
                    list
                })
            })
            .collect();
        (snap.epoch, outputs)
    }

    /// Inject a batch whose egress is *delivered* rather than collected:
    /// every emitted packet is pushed onto its port's bounded FIFO queue in
    /// `queues` (tail-dropping and counting backpressure when full), in
    /// addition to the per-packet result lists. This is the [`Network`]
    /// counterpart of the distributed plane's queued egress, sharing the
    /// same driver and the same [`EgressQueues`] semantics — including
    /// that a delivery already enqueued is *not* retracted if a later copy
    /// of the same packet fails (the per-packet `Err` discards only the
    /// result list; the queue is a wire, and its enqueue/drop counters
    /// keep counting such deliveries).
    pub fn inject_batch_queued(
        &self,
        batch: &[(PortId, Packet)],
        queues: &EgressQueues,
    ) -> QueuedBatchOutput {
        let snap = self.snapshot();
        let resolver = SnapshotResolver { snap: &snap };
        let mut sink = QueueSink {
            queues,
            outputs: batch.iter().map(|_| Vec::new()).collect(),
            drops: 0,
        };
        let results = self.driver().run_batch(&resolver, &mut sink, batch);
        let outputs = results
            .into_iter()
            .zip(sink.outputs)
            .map(|(result, list)| result.map(|_| list))
            .collect();
        QueuedBatchOutput {
            epoch: snap.epoch,
            outputs,
            backpressure_drops: sink.drops,
        }
    }

    /// Inject a sequence of packets (a trace) and collect every egress
    /// event. Each packet runs against the then-current snapshot.
    pub fn inject_trace(
        &self,
        trace: &[(PortId, Packet)],
    ) -> Result<Vec<BTreeSet<(PortId, Packet)>>, SimError> {
        trace
            .iter()
            .map(|(port, pkt)| self.inject(*port, pkt))
            .collect()
    }
}

/// The result of a queued batch injection ([`Network::inject_batch_queued`]).
#[derive(Clone, Debug)]
pub struct QueuedBatchOutput {
    /// The epoch of the snapshot every packet of the batch ran against.
    pub epoch: u64,
    /// Per-packet egress events (also enqueued on the port queues unless
    /// tail-dropped), or the packet's error, in batch order.
    pub outputs: Vec<Result<Vec<(PortId, Packet)>, SimError>>,
    /// Deliveries tail-dropped by a full egress queue (still listed in
    /// `outputs`; the loss is a queue property, not a processing one).
    pub backpressure_drops: u64,
}

/// [`ViewResolver`] over one RCU snapshot: every hop of every packet sees
/// the same epoch, program and placement — the single-pointer-swap
/// consistency story expressed through the shared driver's seam.
struct SnapshotResolver<'a> {
    snap: &'a ConfigSnapshot,
}

/// One switch's view under a snapshot.
struct SnapshotView<'a> {
    flat: &'a FlatProgram,
    tables: &'a TableProgram,
    switch: &'a ResolvedSwitch,
}

impl HopView for SnapshotView<'_> {
    fn flat(&self) -> &FlatProgram {
        self.flat
    }

    fn tables(&self) -> &TableProgram {
        self.tables
    }

    fn bindings(&self) -> &[SlotBinding] {
        &self.switch.bindings
    }

    fn serves_port(&self, port: PortId) -> bool {
        self.switch.ports.binary_search(&port).is_ok()
    }
}

impl ViewResolver for SnapshotResolver<'_> {
    type View<'v>
        = SnapshotView<'v>
    where
        Self: 'v;
    type Error = SimError;

    fn ingress(&self, switch: SwitchId) -> Result<Option<Ingress<SnapshotView<'_>>>, SimError> {
        // No programs installed: packets vanish with empty egress.
        let Some(flat) = &self.snap.flat else {
            return Ok(None);
        };
        Ok(Some(Ingress {
            epoch: self.snap.epoch,
            root: flat.root(),
            view: self.resolve(switch, self.snap.epoch)?,
        }))
    }

    fn resolve(&self, switch: SwitchId, _epoch: u64) -> Result<Option<SnapshotView<'_>>, SimError> {
        let Some(resolved) = self.snap.resolved.get(&switch) else {
            return Ok(None); // a switch without a config only forwards
        };
        let flat = self
            .snap
            .flat
            .as_deref()
            .expect("a non-empty config set always carries a flattened program");
        let tables = self
            .snap
            .tables
            .as_deref()
            .expect("the table program is compiled wherever the flat one is");
        Ok(Some(SnapshotView {
            flat,
            tables,
            switch: resolved,
        }))
    }

    fn store(&self, switch: SwitchId) -> Option<&StateShards> {
        self.snap.stores.get(&switch).map(|s| s.as_ref())
    }
}

/// Collects per-packet egress sets — the `Network`'s classic result shape.
struct SetSink {
    outputs: Vec<BTreeSet<(PortId, Packet)>>,
}

impl SetSink {
    fn for_batch(n: usize) -> SetSink {
        SetSink {
            outputs: vec![BTreeSet::new(); n],
        }
    }
}

impl EgressSink for SetSink {
    fn deliver(&mut self, origin: usize, _at: SwitchId, port: PortId, pkt: Packet, _epoch: u64) {
        self.outputs[origin].insert((port, pkt));
    }
}

/// What [`Network::inject_batch_lists`] returns: the batch's epoch plus each
/// packet's egress as a sorted, deduplicated list (or its error).
pub(crate) type BatchLists = (u64, Vec<Result<Vec<(PortId, Packet)>, SimError>>);

/// Collects per-packet egress as flat lists — the traffic engine's shape.
struct ListSink {
    outputs: Vec<Vec<(PortId, Packet)>>,
}

impl EgressSink for ListSink {
    fn deliver(&mut self, origin: usize, _at: SwitchId, port: PortId, pkt: Packet, _epoch: u64) {
        self.outputs[origin].push((port, pkt));
    }
}

/// Delivers into bounded per-port FIFO queues while keeping per-packet
/// result lists and a backpressure count.
struct QueueSink<'a> {
    queues: &'a EgressQueues,
    outputs: Vec<Vec<(PortId, Packet)>>,
    drops: u64,
}

impl EgressSink for QueueSink<'_> {
    fn deliver(&mut self, origin: usize, _at: SwitchId, port: PortId, pkt: Packet, epoch: u64) {
        if !self.queues.push(port, pkt.clone(), epoch) {
            self.drops += 1;
        }
        self.outputs[origin].push((port, pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::*;
    use snap_lang::{Field, Policy, Value};
    use snap_topology::generators::campus;

    /// Build a network for `policy` on the campus topology with all state on
    /// the named switch. All configs share one interned program.
    fn campus_network(policy: &Policy, state_switch: &str) -> Network {
        let topo = campus();
        Network::new(topo.clone(), campus_configs(policy, state_switch))
    }

    fn assign_egress_stateless() -> Policy {
        // Forward to port 6 when dstip is in 10.0.6.0/24, else to port 1.
        ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
            modify(Field::OutPort, Value::Int(6)),
            modify(Field::OutPort, Value::Int(1)),
        )
    }

    #[test]
    fn stateless_forwarding_reaches_the_right_port() {
        let policy = assign_egress_stateless();
        let net = campus_network(&policy, "D4");
        let pkt = Packet::new()
            .with(Field::SrcIp, Value::ip(10, 0, 1, 9))
            .with(Field::DstIp, Value::ip(10, 0, 6, 9));
        let out = net.inject(PortId(1), &pkt).unwrap();
        assert_eq!(out.len(), 1);
        let (port, delivered) = out.into_iter().next().unwrap();
        assert_eq!(port, PortId(6));
        assert_eq!(delivered.get(&Field::OutPort), Some(&Value::Int(6)));
    }

    #[test]
    fn stateful_counting_happens_on_the_state_switch() {
        // Count per inport, then forward to port 6.
        let policy = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let net = campus_network(&policy, "C6");
        let pkt = Packet::new()
            .with(Field::InPort, 1)
            .with(Field::DstIp, Value::ip(10, 0, 6, 1));
        for _ in 0..3 {
            let out = net.inject(PortId(1), &pkt).unwrap();
            assert_eq!(out.len(), 1);
        }
        let store = net.aggregate_store();
        assert_eq!(store.get(&"count".into(), &[Value::Int(1)]), Value::Int(3));
        // The state lives only on C6.
        let owner = net.owner(&"count".into()).unwrap();
        assert_eq!(net.topology.node_name(owner), "C6");
    }

    #[test]
    fn distributed_execution_matches_obs_eval() {
        // A stateful firewall-ish program plus egress assignment, compared
        // against the one-big-switch semantics packet by packet.
        let policy = ite(
            test_prefix(Field::SrcIp, 10, 0, 6, 0, 24),
            state_set(
                "established",
                vec![field(Field::SrcIp), field(Field::DstIp)],
                Value::Bool(true),
            ),
            ite(
                state_truthy(
                    "established",
                    vec![field(Field::DstIp), field(Field::SrcIp)],
                ),
                id(),
                drop(),
            ),
        )
        .seq(ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
            modify(Field::OutPort, Value::Int(6)),
            modify(Field::OutPort, Value::Int(1)),
        ));

        let net = campus_network(&policy, "D4");
        let inside = Value::ip(10, 0, 6, 10);
        let outside = Value::ip(10, 0, 1, 20);
        let trace = vec![
            // Outside host tries to reach inside: dropped (no established state).
            (
                PortId(1),
                Packet::new()
                    .with(Field::SrcIp, outside.clone())
                    .with(Field::DstIp, inside.clone()),
            ),
            // Inside host opens a connection outward.
            (
                PortId(6),
                Packet::new()
                    .with(Field::SrcIp, inside.clone())
                    .with(Field::DstIp, outside.clone()),
            ),
            // Now the reverse direction is allowed.
            (
                PortId(1),
                Packet::new()
                    .with(Field::SrcIp, outside)
                    .with(Field::DstIp, inside),
            ),
        ];

        // Reference: one-big-switch evaluation.
        let mut obs_store = Store::new();
        let mut obs_outputs = Vec::new();
        for (_, pkt) in &trace {
            let r = snap_lang::eval(&policy, &obs_store, pkt).unwrap();
            obs_store = r.store;
            obs_outputs.push(r.packets);
        }

        let dist_outputs = net.inject_trace(&trace).unwrap();
        assert_eq!(dist_outputs.len(), obs_outputs.len());
        for (dist, obs) in dist_outputs.iter().zip(obs_outputs.iter()) {
            let dist_pkts: BTreeSet<Packet> = dist.iter().map(|(_, p)| p.clone()).collect();
            assert_eq!(&dist_pkts, obs);
        }
        assert_eq!(net.aggregate_store(), obs_store);
    }

    #[test]
    fn unknown_port_is_reported() {
        let policy = assign_egress_stateless();
        let net = campus_network(&policy, "D4");
        let err = net.inject(PortId(99), &Packet::new()).unwrap_err();
        assert_eq!(err, SimError::UnknownPort(PortId(99)));
    }

    #[test]
    fn parallel_leaf_forks_and_both_copies_are_delivered() {
        // Multicast to ports 1 and 6 simultaneously.
        let policy =
            modify(Field::OutPort, Value::Int(1)).par(modify(Field::OutPort, Value::Int(6)));
        let net = campus_network(&policy, "D4");
        let out = net
            .inject(
                PortId(2),
                &Packet::new().with(Field::SrcIp, Value::ip(1, 1, 1, 1)),
            )
            .unwrap();
        let ports: BTreeSet<PortId> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, BTreeSet::from([PortId(1), PortId(6)]));
    }

    #[test]
    fn packet_with_no_outport_is_an_error() {
        let policy = Policy::id();
        let net = campus_network(&policy, "D4");
        let err = net.inject(PortId(1), &Packet::new()).unwrap_err();
        assert!(matches!(err, SimError::BadOutPort(_)));
    }

    #[test]
    fn hop_budget_is_configurable_and_enforced() {
        // Egress port 6 (on D4) is several hops from port 1's switch (I1):
        // with a one-hop budget the simulator must report the budget error
        // instead of forwarding forever.
        let policy = modify(Field::OutPort, Value::Int(6));
        let net = campus_network(&policy, "D4").with_hop_budget(1);
        assert_eq!(net.hop_budget(), 1);
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(10, 0, 1, 9));
        let err = net.inject(PortId(1), &pkt).unwrap_err();
        assert_eq!(err, SimError::HopBudgetExceeded);

        // The default budget routes the same packet fine.
        let mut net = campus_network(&policy, "D4");
        assert_eq!(net.hop_budget(), DEFAULT_HOP_BUDGET);
        net.set_hop_budget(64);
        assert_eq!(net.hop_budget(), 64);
        assert_eq!(net.inject(PortId(1), &pkt).unwrap().len(), 1);
    }

    #[test]
    fn state_ping_pong_across_switches_stays_within_budget() {
        // Two variables on two different switches: the packet must visit
        // C1 for `a`, then C6 for `b`, then egress — a multi-hop state
        // itinerary that still terminates well within the default budget.
        let policy = state_incr("a", vec![field(Field::InPort)])
            .seq(state_incr("b", vec![field(Field::InPort)]))
            .seq(modify(Field::OutPort, Value::Int(6)));
        let topo = campus();
        let program = snap_xfdd::compile(&policy).unwrap();
        let owners = BTreeMap::from([
            (
                topo.node_by_name("C1").unwrap(),
                BTreeSet::from(["a".into()]),
            ),
            (
                topo.node_by_name("C6").unwrap(),
                BTreeSet::from(["b".into()]),
            ),
        ]);
        let configs = SwitchConfig::for_topology(&topo, &program, &owners);
        let net = Network::new(topo, configs);
        let pkt = Packet::new().with(Field::InPort, 1);
        let out = net.inject(PortId(1), &pkt).unwrap();
        assert_eq!(out.len(), 1);
        let store = net.aggregate_store();
        assert_eq!(store.get(&"a".into(), &[Value::Int(1)]), Value::Int(1));
        assert_eq!(store.get(&"b".into(), &[Value::Int(1)]), Value::Int(1));

        // And with a tiny budget, the same itinerary is cut off with the
        // budget error rather than spinning.
        let err = {
            let net = campus_network(&policy, "C6").with_hop_budget(0);
            net.inject(PortId(1), &pkt).unwrap_err()
        };
        assert_eq!(err, SimError::HopBudgetExceeded);
    }

    /// The configs a `campus_network` for `policy` would install, without
    /// building a new network.
    fn campus_configs(policy: &Policy, state_switch: &str) -> Vec<SwitchConfig> {
        let topo = campus();
        let program = snap_xfdd::compile(policy).unwrap();
        let owner = topo.node_by_name(state_switch).unwrap();
        let owners = BTreeMap::from([(owner, policy.state_vars())]);
        SwitchConfig::for_topology(&topo, &program, &owners)
    }

    #[test]
    fn swap_configs_bumps_the_epoch_and_replaces_the_program() {
        let count_then_6 = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let net = campus_network(&count_then_6, "C6");
        assert_eq!(net.current_epoch(), 0);
        let pkt = Packet::new().with(Field::InPort, 1);
        net.inject(PortId(1), &pkt).unwrap();

        // Recompile with a different egress and swap it in.
        let count_then_1 = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(1)));
        let epoch = net.swap_configs(campus_configs(&count_then_1, "C6"));
        assert_eq!(epoch, 1);
        assert_eq!(net.current_epoch(), 1);

        // The new program routes to port 1, and the old counter state
        // survived the swap.
        let out = net.inject(PortId(2), &pkt).unwrap();
        assert_eq!(out.iter().next().unwrap().0, PortId(1));
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int(2)
        );
    }

    #[test]
    fn unplaced_variables_are_dropped_not_resurrected() {
        let counting = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let stateless = assign_egress_stateless();
        let net = campus_network(&counting, "C6");
        let pkt = Packet::new().with(Field::InPort, 1);
        for _ in 0..3 {
            net.inject(PortId(1), &pkt).unwrap();
        }

        // Swap to a program that no longer places "count" while its table
        // still holds entries: the table is dropped, not stranded on C6.
        net.swap_configs(campus_configs(&stateless, "C6"));
        assert_eq!(net.owner(&"count".into()), None);
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int(0)
        );

        // Re-placing the variable — on the *same* switch as before — starts
        // fresh rather than resurrecting the old table.
        net.swap_configs(campus_configs(&counting, "C6"));
        net.inject(PortId(1), &pkt).unwrap();
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int(1)
        );
    }

    #[test]
    fn swap_configs_migrates_state_to_the_new_owner() {
        let policy = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let net = campus_network(&policy, "C6");
        let pkt = Packet::new().with(Field::InPort, 1);
        for _ in 0..3 {
            net.inject(PortId(1), &pkt).unwrap();
        }
        assert_eq!(
            net.topology.node_name(net.owner(&"count".into()).unwrap()),
            "C6"
        );

        // Same program, state re-placed on D4: the table must move with it.
        net.swap_configs(campus_configs(&policy, "D4"));
        assert_eq!(
            net.topology.node_name(net.owner(&"count".into()).unwrap()),
            "D4"
        );
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int(3)
        );
        // And the counter keeps counting on the new owner.
        net.inject(PortId(1), &pkt).unwrap();
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int(4)
        );
    }

    #[test]
    fn owner_moving_twice_keeps_the_table_intact_across_three_epochs() {
        let policy = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let net = campus_network(&policy, "C6");
        let pkt = Packet::new().with(Field::InPort, 1);
        for _ in 0..2 {
            net.inject(PortId(1), &pkt).unwrap();
        }

        // Epoch 1: C6 -> D4. Epoch 2: D4 -> C1. The table follows both
        // moves; a count is taken on each owner along the way.
        assert_eq!(net.swap_configs(campus_configs(&policy, "D4")), 1);
        net.inject(PortId(1), &pkt).unwrap();
        assert_eq!(net.swap_configs(campus_configs(&policy, "C1")), 2);
        net.inject(PortId(1), &pkt).unwrap();

        assert_eq!(
            net.topology.node_name(net.owner(&"count".into()).unwrap()),
            "C1"
        );
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int(4)
        );
        assert_eq!(net.current_epoch(), 2);
    }

    #[test]
    fn snapshots_stay_consistent_across_a_swap() {
        // A snapshot taken before a swap keeps answering with its own
        // epoch, placement and program — the reader-side RCU guarantee.
        let counting = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let stateless = assign_egress_stateless();
        let net = campus_network(&counting, "C6");
        let before = net.snapshot();
        net.swap_configs(campus_configs(&stateless, "D4"));
        let after = net.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        assert!(before.owner(&"count".into()).is_some());
        assert!(after.owner(&"count".into()).is_none());
        // Both snapshots expose a program; they are different flattenings.
        assert!(before.program().is_some());
        assert!(after.program().is_some());
        assert!(!Arc::ptr_eq(
            before.program().unwrap(),
            after.program().unwrap()
        ));
    }

    #[test]
    fn concurrent_injection_during_swaps_sees_consistent_epochs_and_state() {
        // Four injector threads hammer the network with batches while the
        // main thread swaps configurations 16 times. The counter's owner
        // never moves, so every increment lands in the same shard: the
        // total must be *exactly* the number of injected packets, every
        // batch must observe a single valid epoch, and per-worker epochs
        // must be monotone (snapshots are published in order).
        let v6 = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(6)));
        let v1 = state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(1)));
        let net = campus_network(&v6, "C6");

        const WORKERS: usize = 4;
        const BATCHES: usize = 30;
        const BATCH: usize = 8;
        const SWAPS: u64 = 16;

        std::thread::scope(|scope| {
            let net = &net;
            let v1 = &v1;
            let v6 = &v6;
            let mut handles = Vec::new();
            for w in 0..WORKERS {
                handles.push(scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    let mut delivered = 0usize;
                    for b in 0..BATCHES {
                        let batch: Vec<(PortId, Packet)> = (0..BATCH)
                            .map(|i| {
                                (
                                    PortId(1 + (w + b + i) % 6),
                                    Packet::new().with(Field::InPort, 1),
                                )
                            })
                            .collect();
                        let out = net.inject_batch(&batch);
                        assert!(
                            out.epoch >= last_epoch,
                            "epoch went backwards: {} after {last_epoch}",
                            out.epoch
                        );
                        assert!(out.epoch <= SWAPS);
                        last_epoch = out.epoch;
                        for set in out.outputs {
                            let set = set.unwrap();
                            assert_eq!(set.len(), 1, "every packet egresses exactly once");
                            let port = set.iter().next().unwrap().0;
                            assert!(port == PortId(1) || port == PortId(6));
                            delivered += 1;
                        }
                    }
                    delivered
                }));
            }
            for s in 0..SWAPS {
                let policy = if s % 2 == 0 { v1 } else { v6 };
                net.swap_configs(campus_configs(policy, "C6"));
                std::thread::yield_now();
            }
            let delivered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(delivered, WORKERS * BATCHES * BATCH);
        });

        assert_eq!(net.current_epoch(), SWAPS);
        // Exactly one increment per injected packet survived the swaps.
        assert_eq!(
            net.aggregate_store().get(&"count".into(), &[Value::Int(1)]),
            Value::Int((WORKERS * BATCHES * BATCH) as i64)
        );
    }
}
