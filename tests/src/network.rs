//! A switch fleet with the test as its controller.
//!
//! [`Fleet`] is one `SwitchAgent` per switch of a topology, a `DistNetwork`
//! over them, and [`Fleet::update`] playing the controller synchronously
//! through the agents' message handlers — prepare everywhere, commit
//! everywhere, relay the yields as `InstallTable`: the real protocol, with
//! the placement chosen by the test instead of the optimizer. No threads, no
//! transport; `update` takes `&mut self` while injectors hold clones of
//! [`Fleet::network`], so updates and traffic can still race.

use snap_distrib::{DistNetwork, FromAgent, PrepareMsg, SwitchAgent, SwitchMeta, ToAgent};
use snap_lang::{Policy, StateVar};
use snap_topology::generators::campus;
use snap_topology::{NodeId as SwitchId, Topology};
use snap_xfdd::{encode_delta, to_xfdd, Pool, StateDependencies};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One agent per switch, a traffic plane over them, and the caller as
/// controller.
pub struct Fleet {
    /// The topology the agents and the plane were built over.
    pub topology: Topology,
    /// The agents, indexed by switch.
    pub agents: Vec<Arc<SwitchAgent>>,
    /// The traffic plane over [`Fleet::agents`].
    pub network: Arc<DistNetwork>,
    /// The distribution pool the agents mirror.
    pub dist: Pool,
    fresh_len: usize,
    /// The epoch of the last [`Fleet::update`] (0: nothing installed yet).
    pub epoch: u64,
    /// Tables relayed from a yielding agent to the new owner so far.
    pub relayed: usize,
}

impl Fleet {
    /// A fleet over `topology` whose pool orders the variables of every
    /// policy in `all`, with per-port egress queues of `queue_capacity`.
    /// Nothing is installed until the first [`Fleet::update`].
    pub fn new(topology: Topology, all: &Policy, queue_capacity: usize) -> Fleet {
        let agents: Vec<Arc<SwitchAgent>> = topology
            .nodes()
            .map(|switch| {
                let ports = topology.external_ports();
                let here = ports.filter(|(_, s)| *s == switch).map(|(p, _)| p);
                let name = topology.node_name(switch);
                Arc::new(SwitchAgent::new(switch, name, here, queue_capacity))
            })
            .collect();
        let by_switch = agents.iter().map(|a| (a.switch(), Arc::clone(a))).collect();
        let order = StateDependencies::analyze(all).var_order();
        Fleet {
            network: Arc::new(DistNetwork::new(topology.clone(), by_switch)),
            topology,
            agents,
            fresh_len: Pool::new(order.clone()).len(),
            dist: Pool::new(order),
            epoch: 0,
            relayed: 0,
        }
    }

    /// A campus fleet running `policy` with all its state on the switch
    /// named `state_switch`.
    pub fn campus(policy: &Policy, state_switch: &str) -> Fleet {
        let mut fleet = Fleet::new(campus(), policy, 4096);
        fleet.place(policy, state_switch);
        fleet
    }

    /// Replace the traffic plane by `build(plane)` over the same agents —
    /// for the plane's construction-time knobs (hop budget, telemetry).
    pub fn with_plane(mut self, build: impl FnOnce(DistNetwork) -> DistNetwork) -> Fleet {
        let by_switch = self.agents.iter().map(|a| (a.switch(), Arc::clone(a)));
        let plane = DistNetwork::new(self.topology.clone(), by_switch.collect());
        self.network = Arc::new(build(plane));
        self
    }

    /// The switch named `name`.
    pub fn node(&self, name: &str) -> SwitchId {
        let node = self.topology.node_by_name(name);
        node.unwrap_or_else(|| panic!("no switch named {name}"))
    }

    /// The switch whose committed view owns `var`.
    pub fn owner(&self, var: &StateVar) -> Option<SwitchId> {
        let owns = |a: &&Arc<SwitchAgent>| {
            let view = a.current_view();
            view.is_some_and(|v| v.local_vars.contains(var))
        };
        self.agents.iter().find(owns).map(|a| a.switch())
    }

    /// [`Fleet::update`] to `policy` with all its state on `state_switch`.
    pub fn place(&mut self, policy: &Policy, state_switch: &str) {
        let owner = self.node(state_switch);
        let vars = policy.state_vars().into_iter();
        let placement = vars.map(|var| (var, owner)).collect();
        self.update(policy, &placement, self.epoch == 0);
    }

    /// One two-phase update: `policy` under `placement`, as a full-table
    /// resync (always needed the first time) or as the suffix delta past
    /// what the agents already mirror. A yielded table whose variable
    /// `placement` no longer mentions is dropped, as the controller does.
    pub fn update(
        &mut self,
        policy: &Policy,
        placement: &BTreeMap<StateVar, SwitchId>,
        resync: bool,
    ) {
        let mirrored = self.dist.len();
        let root = to_xfdd(policy, &mut self.dist).expect("the policy compiles");
        let base = if resync { self.fresh_len } else { mirrored };
        let delta = encode_delta(&self.dist, base, root);
        self.epoch += 1;
        let epoch = self.epoch;
        for agent in &self.agents {
            let here = agent.switch();
            let owned = placement.iter().filter(|(_, &owner)| owner == here);
            let meta = SwitchMeta {
                local_vars: owned.map(|(var, _)| var.clone()).collect(),
                ports: agent.egress().ports().collect(),
            };
            let replies = agent.handle(ToAgent::Prepare(Box::new(PrepareMsg {
                epoch,
                resync,
                delta: delta.clone(),
                meta: Some(meta),
                placement: Some(placement.clone()),
            })));
            assert!(
                matches!(replies[0], FromAgent::Prepared { .. }),
                "{replies:?}"
            );
        }
        let mut yielded = Vec::new();
        for agent in &self.agents {
            match agent.handle(ToAgent::Commit { epoch }).pop() {
                Some(FromAgent::Committed { yields, .. }) => yielded.extend(yields),
                other => panic!("unexpected commit reply {other:?}"),
            }
        }
        for (var, table) in yielded {
            let Some(owner) = placement.get(&var) else {
                continue;
            };
            self.agents[owner.0].handle(ToAgent::InstallTable { epoch, var, table });
            self.relayed += 1;
        }
    }
}

/// Keeps an updater in step with injecting workers without stopping them:
/// workers report each finished batch, the updater waits — before each
/// update — until every worker still running has finished one since the
/// previous update. An in-flight batch then carries an epoch at most two
/// behind the fleet's, so no packet outlives the agents' `EPOCH_HISTORY`
/// ring however the threads are scheduled, while every update still lands
/// between two batches of every running worker.
pub struct Pace {
    done: Vec<AtomicUsize>,
    batches: usize,
}

impl Pace {
    /// For `workers` workers of `batches` batches each.
    pub fn new(workers: usize, batches: usize) -> Pace {
        let done = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        Pace { done, batches }
    }

    /// Worker `w` finished a batch.
    pub fn batch_done(&self, w: usize) {
        self.done[w].fetch_add(1, Ordering::SeqCst);
    }

    /// Block until every unfinished worker is past what `seen` recorded for
    /// it (`seen` starts as zeros and is brought up to date).
    pub fn wait(&self, seen: &mut [usize]) {
        for (done, seen) in self.done.iter().zip(seen) {
            loop {
                let now = done.load(Ordering::SeqCst);
                if now > *seen || now == self.batches {
                    *seen = now;
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_dataplane::SimError;
    use snap_distrib::InjectError;
    use snap_distrib::DEFAULT_HOP_BUDGET;
    use snap_lang::builder::*;
    use snap_lang::{Field, Packet, Store, Value};
    use snap_topology::PortId;
    use std::collections::BTreeSet;

    /// Inject one packet and collect its egress as a set.
    fn inject(
        fleet: &Fleet,
        port: usize,
        pkt: &Packet,
    ) -> Result<BTreeSet<(PortId, Packet)>, InjectError> {
        let out = fleet.network.inject(PortId(port), pkt)?;
        Ok(out.delivered.into_iter().collect())
    }

    fn count_of(fleet: &Fleet, inport: i64) -> Value {
        let store = fleet.network.aggregate_store();
        store.get(&"count".into(), &[Value::Int(inport)])
    }

    fn owner_name(fleet: &Fleet, var: &str) -> String {
        let owner = fleet.owner(&var.into()).expect("the variable is placed");
        fleet.topology.node_name(owner).to_string()
    }

    fn assign_egress_stateless() -> Policy {
        // Forward to port 6 when dstip is in 10.0.6.0/24, else to port 1.
        ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
            modify(Field::OutPort, Value::Int(6)),
            modify(Field::OutPort, Value::Int(1)),
        )
    }

    /// Count per inport, then forward to `egress`.
    fn counting(egress: i64) -> Policy {
        state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(egress)))
    }

    #[test]
    fn stateless_forwarding_reaches_the_right_port() {
        let fleet = Fleet::campus(&assign_egress_stateless(), "D4");
        let pkt = Packet::new()
            .with(Field::SrcIp, Value::ip(10, 0, 1, 9))
            .with(Field::DstIp, Value::ip(10, 0, 6, 9));
        let out = inject(&fleet, 1, &pkt).unwrap();
        assert_eq!(out.len(), 1);
        let (port, delivered) = out.into_iter().next().unwrap();
        assert_eq!(port, PortId(6));
        assert_eq!(delivered.get(&Field::OutPort), Some(&Value::Int(6)));
    }

    #[test]
    fn stateful_counting_happens_on_the_state_switch() {
        let fleet = Fleet::campus(&counting(6), "C6");
        let pkt = Packet::new()
            .with(Field::InPort, 1)
            .with(Field::DstIp, Value::ip(10, 0, 6, 1));
        for _ in 0..3 {
            assert_eq!(inject(&fleet, 1, &pkt).unwrap().len(), 1);
        }
        assert_eq!(count_of(&fleet, 1), Value::Int(3));
        // The state lives only on C6.
        assert_eq!(owner_name(&fleet, "count"), "C6");
        let c6 = fleet.node("C6");
        for agent in &fleet.agents {
            let held = agent.store().collect_table(&"count".into());
            assert_eq!(held.is_some(), agent.switch() == c6, "{}", agent.name());
        }
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
        .seq(assign_egress_stateless());

        let fleet = Fleet::campus(&policy, "D4");
        let inside = Value::ip(10, 0, 6, 10);
        let outside = Value::ip(10, 0, 1, 20);
        let flow = |src: &Value, dst: &Value| {
            Packet::new()
                .with(Field::SrcIp, src.clone())
                .with(Field::DstIp, dst.clone())
        };
        let trace = [
            // Outside host tries to reach inside: dropped (no established state).
            (1, flow(&outside, &inside)),
            // Inside host opens a connection outward.
            (6, flow(&inside, &outside)),
            // Now the reverse direction is allowed.
            (1, flow(&outside, &inside)),
        ];

        let mut obs_store = Store::new();
        for (port, pkt) in &trace {
            let obs = snap_lang::eval(&policy, &obs_store, pkt).unwrap();
            obs_store = obs.store;
            let dist = inject(&fleet, *port, pkt).unwrap();
            let dist_pkts: BTreeSet<Packet> = dist.into_iter().map(|(_, p)| p).collect();
            assert_eq!(dist_pkts, obs.packets);
        }
        assert_eq!(fleet.network.aggregate_store(), obs_store);
    }

    #[test]
    fn unknown_port_is_reported() {
        let fleet = Fleet::campus(&assign_egress_stateless(), "D4");
        let err = inject(&fleet, 99, &Packet::new()).unwrap_err();
        assert_eq!(err, InjectError::Sim(SimError::UnknownPort(PortId(99))));
    }

    #[test]
    fn parallel_leaf_forks_and_both_copies_are_delivered() {
        // Multicast to ports 1 and 6 simultaneously.
        let policy =
            modify(Field::OutPort, Value::Int(1)).par(modify(Field::OutPort, Value::Int(6)));
        let fleet = Fleet::campus(&policy, "D4");
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(1, 1, 1, 1));
        let out = inject(&fleet, 2, &pkt).unwrap();
        let ports: BTreeSet<PortId> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, BTreeSet::from([PortId(1), PortId(6)]));
    }

    #[test]
    fn packet_with_no_outport_is_an_error() {
        let fleet = Fleet::campus(&Policy::id(), "D4");
        let err = inject(&fleet, 1, &Packet::new()).unwrap_err();
        assert!(matches!(err, InjectError::Sim(SimError::BadOutPort(_))));
    }

    #[test]
    fn hop_budget_is_configurable_and_enforced() {
        // Egress port 6 (on D4) is several hops from port 1's switch (I1):
        // with a one-hop budget the plane must report the budget error
        // instead of forwarding forever.
        let policy = modify(Field::OutPort, Value::Int(6));
        let fleet = Fleet::campus(&policy, "D4").with_plane(|n| n.with_hop_budget(1));
        assert_eq!(fleet.network.hop_budget(), 1);
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(10, 0, 1, 9));
        let err = inject(&fleet, 1, &pkt).unwrap_err();
        assert_eq!(err, InjectError::Sim(SimError::HopBudgetExceeded));

        // The default budget routes the same packet fine.
        let fleet = Fleet::campus(&policy, "D4");
        assert_eq!(fleet.network.hop_budget(), DEFAULT_HOP_BUDGET);
        let fleet = fleet.with_plane(|n| n.with_hop_budget(64));
        assert_eq!(fleet.network.hop_budget(), 64);
        assert_eq!(inject(&fleet, 1, &pkt).unwrap().len(), 1);
    }

    #[test]
    fn state_ping_pong_across_switches_stays_within_budget() {
        // Two variables on two different switches: the packet must visit
        // C1 for `a`, then C6 for `b`, then egress — a multi-hop state
        // itinerary that still terminates well within the default budget.
        let policy = state_incr("a", vec![field(Field::InPort)])
            .seq(state_incr("b", vec![field(Field::InPort)]))
            .seq(modify(Field::OutPort, Value::Int(6)));
        let mut fleet = Fleet::new(campus(), &policy, 4096);
        let placement = BTreeMap::from([
            ("a".into(), fleet.node("C1")),
            ("b".into(), fleet.node("C6")),
        ]);
        fleet.update(&policy, &placement, true);
        let pkt = Packet::new().with(Field::InPort, 1);
        assert_eq!(inject(&fleet, 1, &pkt).unwrap().len(), 1);
        let store = fleet.network.aggregate_store();
        assert_eq!(store.get(&"a".into(), &[Value::Int(1)]), Value::Int(1));
        assert_eq!(store.get(&"b".into(), &[Value::Int(1)]), Value::Int(1));

        // And with a tiny budget, the same itinerary is cut off with the
        // budget error rather than spinning.
        let tiny = Fleet::campus(&policy, "C6").with_plane(|n| n.with_hop_budget(0));
        let err = inject(&tiny, 1, &pkt).unwrap_err();
        assert_eq!(err, InjectError::Sim(SimError::HopBudgetExceeded));
    }

    #[test]
    fn an_update_bumps_the_epoch_and_replaces_the_program() {
        let mut fleet = Fleet::campus(&counting(6), "C6");
        assert_eq!(fleet.network.current_epochs(), BTreeSet::from([1]));
        let pkt = Packet::new().with(Field::InPort, 1);
        assert_eq!(fleet.network.inject(PortId(1), &pkt).unwrap().epoch, 1);

        // The same counter with a different egress, committed on top.
        fleet.place(&counting(1), "C6");
        assert_eq!(fleet.network.current_epochs(), BTreeSet::from([2]));

        // The new program routes to port 1, and the old counter state
        // survived the update.
        let out = fleet.network.inject(PortId(2), &pkt).unwrap();
        assert_eq!(out.epoch, 2);
        assert_eq!(out.delivered[0].0, PortId(1));
        assert_eq!(count_of(&fleet, 1), Value::Int(2));
    }

    #[test]
    fn unplaced_variables_are_dropped_not_resurrected() {
        let mut fleet = Fleet::campus(&counting(6), "C6");
        let pkt = Packet::new().with(Field::InPort, 1);
        for _ in 0..3 {
            inject(&fleet, 1, &pkt).unwrap();
        }

        // Update to a program that no longer places "count" while its table
        // still holds entries: the table is dropped, not stranded on C6.
        fleet.place(&assign_egress_stateless(), "C6");
        assert_eq!(fleet.owner(&"count".into()), None);
        assert_eq!(count_of(&fleet, 1), Value::Int(0));
        let c6 = &fleet.agents[fleet.node("C6").0];
        assert_eq!(c6.store().collect_table(&"count".into()), None);
        assert_eq!(fleet.relayed, 0);

        // Re-placing the variable — on the *same* switch as before — starts
        // fresh rather than resurrecting the old table.
        fleet.place(&counting(6), "C6");
        inject(&fleet, 1, &pkt).unwrap();
        assert_eq!(count_of(&fleet, 1), Value::Int(1));
    }

    #[test]
    fn an_update_migrates_state_to_the_new_owner() {
        let mut fleet = Fleet::campus(&counting(6), "C6");
        let pkt = Packet::new().with(Field::InPort, 1);
        for _ in 0..3 {
            inject(&fleet, 1, &pkt).unwrap();
        }
        assert_eq!(owner_name(&fleet, "count"), "C6");

        // Same program, state re-placed on D4: the table must move with it.
        fleet.place(&counting(6), "D4");
        assert_eq!(owner_name(&fleet, "count"), "D4");
        assert_eq!(fleet.relayed, 1);
        assert_eq!(count_of(&fleet, 1), Value::Int(3));
        // And the counter keeps counting on the new owner.
        inject(&fleet, 1, &pkt).unwrap();
        assert_eq!(count_of(&fleet, 1), Value::Int(4));
    }

    #[test]
    fn owner_moving_twice_keeps_the_table_intact_across_three_epochs() {
        let mut fleet = Fleet::campus(&counting(6), "C6");
        let pkt = Packet::new().with(Field::InPort, 1);
        for _ in 0..2 {
            inject(&fleet, 1, &pkt).unwrap();
        }

        // Epoch 2: C6 -> D4. Epoch 3: D4 -> C1. The table follows both
        // moves; a count is taken on each owner along the way.
        fleet.place(&counting(6), "D4");
        assert_eq!(fleet.epoch, 2);
        inject(&fleet, 1, &pkt).unwrap();
        fleet.place(&counting(6), "C1");
        assert_eq!(fleet.epoch, 3);
        inject(&fleet, 1, &pkt).unwrap();

        assert_eq!(owner_name(&fleet, "count"), "C1");
        assert_eq!(count_of(&fleet, 1), Value::Int(4));
        assert_eq!(fleet.network.current_epochs(), BTreeSet::from([3]));
    }

    #[test]
    fn snapshots_stay_consistent_across_a_swap() {
        // An epoch view is an immutable snapshot of one configuration: one
        // taken before an update keeps answering with its own epoch,
        // placement and program — what lets an in-flight packet finish under
        // the configuration it started with.
        let mut fleet = Fleet::campus(&counting(6), "C6");
        let c6 = Arc::clone(&fleet.agents[fleet.node("C6").0]);
        let before = c6.current_view().unwrap();
        fleet.place(&assign_egress_stateless(), "D4");
        let after = c6.current_view().unwrap();
        assert_eq!(before.epoch, 1);
        assert_eq!(after.epoch, 2);
        assert!(before.placement.contains_key(&StateVar::new("count")));
        assert!(!after.placement.contains_key(&StateVar::new("count")));
        assert!(before.local_vars.contains(&StateVar::new("count")));
        assert!(after.local_vars.is_empty());
        // Two different flattenings, and the agent still resolves the older.
        assert!(!Arc::ptr_eq(&before.flat, &after.flat));
        assert!(Arc::ptr_eq(&c6.view_for(1).unwrap(), &before));
    }

    #[test]
    fn concurrent_injection_during_swaps_sees_consistent_epochs_and_state() {
        // Four injector threads hammer the fleet with batches while the
        // main thread commits 16 updates. The counter's owner never moves,
        // so every increment lands in the same table: the total must be
        // *exactly* the number of injected packets, every packet must
        // egress where the epoch it reports says, and per ingress port a
        // worker's epochs must be monotone (an agent never flips back).
        const WORKERS: usize = 4;
        const BATCHES: usize = 30;
        const BATCH: usize = 8;
        const UPDATES: u64 = 16;

        // Epoch e egresses at port 6 when e is odd, at port 1 when even.
        let egress_of = |epoch: u64| if epoch % 2 == 1 { 6 } else { 1 };
        let mut fleet = Fleet::campus(&counting(egress_of(1)), "C6");
        let pace = Pace::new(WORKERS, BATCHES);

        std::thread::scope(|scope| {
            let pace = &pace;
            let mut handles = Vec::new();
            for w in 0..WORKERS {
                let network = Arc::clone(&fleet.network);
                handles.push(scope.spawn(move || {
                    let mut last_epoch = [0u64; 7];
                    let mut delivered = 0usize;
                    for b in 0..BATCHES {
                        let batch: Vec<(PortId, Packet)> = (0..BATCH)
                            .map(|i| {
                                let port = PortId(1 + (w + b + i) % 6);
                                (port, Packet::new().with(Field::InPort, 1))
                            })
                            .collect();
                        for ((port, _), out) in batch.iter().zip(network.inject_batch(&batch)) {
                            let out = out.unwrap();
                            let last = &mut last_epoch[port.0];
                            assert!(
                                out.epoch >= *last,
                                "epoch went backwards: {} after {last}",
                                out.epoch
                            );
                            assert!(out.epoch <= 1 + UPDATES);
                            *last = out.epoch;
                            assert_eq!(out.delivered.len(), 1, "exactly one egress per packet");
                            assert_eq!(out.delivered[0].0, PortId(egress_of(out.epoch) as usize));
                            delivered += 1;
                        }
                        pace.batch_done(w);
                    }
                    delivered
                }));
            }
            let mut seen = [0; WORKERS];
            for _ in 0..UPDATES {
                pace.wait(&mut seen);
                let next = counting(egress_of(fleet.epoch + 1));
                fleet.place(&next, "C6");
            }
            let delivered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(delivered, WORKERS * BATCHES * BATCH);
        });

        assert_eq!(
            fleet.network.current_epochs(),
            BTreeSet::from([1 + UPDATES])
        );
        // Exactly one increment per injected packet survived the updates.
        let total = (WORKERS * BATCHES * BATCH) as i64;
        assert_eq!(count_of(&fleet, 1), Value::Int(total));
    }
}
