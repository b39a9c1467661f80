//! State by slot, checked against state by name.
//!
//! The packet path reaches state through three private numberings — a
//! lowering's variable slots, a switch's table ids, a table's hash keys —
//! and nothing outside a process may be able to tell: deliveries and the
//! aggregate store must equal `snap_lang::eval` folded over the packet
//! sequence, whatever the placement and across an update that re-places
//! variables; the by-name operations on a switch's `SwitchStore` must answer
//! exactly like a by-name `Store`; errors and sampled hop records must still
//! name the variable.
//!
//! The fleet here is eight agents driven synchronously through their message
//! handlers (`snap_tests::network::Fleet`: prepare everywhere, commit
//! everywhere, relay the yields as `InstallTable`) — the real protocol, with
//! the placement chosen by the test instead of the optimizer.

use proptest::prelude::*;
use snap_dataplane::exec::process_at_switch;
use snap_dataplane::{InFlight, SimError, SlotBinding, SwitchStore};
use snap_distrib::{InjectError, PrepareMsg, ToAgent};
use snap_lang::prelude::*;
use snap_tests::network::Fleet;
use snap_topology::{NodeId as SwitchId, PortId, Topology};
use snap_xfdd::{encode_delta, to_xfdd};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SWITCHES: usize = 8;
const VARS: usize = 6;

/// The variable behind index `i`. 0–1 are only ever incremented or
/// decremented, 2 only ever set to one literal, 3 is tested and set, 4 is
/// tested and incremented (the compiler rejects an increment between a
/// computed set and a test of one variable, so the two stay apart), 5 is
/// only ever tested (its table is seeded from outside).
fn var(i: usize) -> StateVar {
    StateVar::new(["hits", "bytes", "flag", "conn", "quota", "listed"][i])
}

/// A ring of eight switches, external port `i + 1` on switch `i`.
fn ring() -> Topology {
    let mut topo = Topology::new("ring-8");
    let nodes: Vec<SwitchId> = (0..SWITCHES)
        .map(|i| topo.add_node(format!("s{i}")))
        .collect();
    for i in 0..SWITCHES {
        topo.add_bidi_link(nodes[i], nodes[(i + 1) % SWITCHES], 10.0);
        topo.add_external_port(PortId(i + 1), nodes[i]);
    }
    topo
}

/// The index expressions a fragment keys its variable by.
fn key(k: usize) -> Vec<Expr> {
    match k % 4 {
        0 => vec![field(Field::SrcPort)],
        1 => vec![field(Field::DstPort)],
        2 => vec![field(Field::SrcPort), field(Field::DstPort)],
        _ => vec![field(Field::InPort)],
    }
}

/// One stateful step of a generated policy.
#[derive(Clone, Debug)]
enum Fragment {
    /// `v[k]++` / `v[k]--` on a counter.
    Count { v: usize, k: usize, up: bool },
    /// `flag[k] <- 1`.
    Flag { k: usize },
    /// `if conn[k] = expect then conn[k] <- (7 | srcport) else id`.
    TestAndSet {
        k: usize,
        expect: i64,
        computed: bool,
    },
    /// `if quota[k] = limit then drop else quota[k]++`.
    TestAndCount { k: usize, limit: i64 },
    /// `if listed[k] = expect then content <- 1 else id` — read-only.
    Lookup { k: usize, expect: i64 },
}

impl Fragment {
    fn policy(&self) -> Policy {
        match *self {
            Fragment::Count { v, k, up: true } => state_incr(var(v), key(k)),
            Fragment::Count { v, k, up: false } => state_decr(var(v), key(k)),
            Fragment::Flag { k } => state_set(var(2), key(k), int(1)),
            Fragment::TestAndSet {
                k,
                expect,
                computed,
            } => {
                let stored = if computed {
                    field(Field::SrcPort)
                } else {
                    int(7)
                };
                ite(
                    state_test(var(3), key(k), int(expect)),
                    state_set(var(3), key(k), stored),
                    id(),
                )
            }
            Fragment::TestAndCount { k, limit } => ite(
                state_test(var(4), key(k), int(limit)),
                drop(),
                state_incr(var(4), key(k)),
            ),
            Fragment::Lookup { k, expect } => ite(
                state_test(var(5), key(k), int(expect)),
                modify(Field::Content, Value::Int(1)),
                id(),
            ),
        }
    }
}

fn fragment() -> impl Strategy<Value = Fragment> {
    prop_oneof![
        (0usize..2, 0usize..4, 0usize..2).prop_map(|(v, k, up)| Fragment::Count {
            v,
            k,
            up: up == 1
        }),
        (0usize..4).prop_map(|k| Fragment::Flag { k }),
        (0usize..4, 0i64..2, 0usize..2).prop_map(|(k, expect, c)| Fragment::TestAndSet {
            k,
            expect,
            computed: c == 1,
        }),
        (0usize..4, 1i64..4).prop_map(|(k, limit)| Fragment::TestAndCount { k, limit }),
        (0usize..4, 3i64..6).prop_map(|(k, expect)| Fragment::Lookup { k, expect }),
    ]
}

/// A program: its stateful fragments in sequence, then an egress choice.
#[derive(Clone, Debug)]
struct Program {
    fragments: Vec<Fragment>,
    egress: (usize, usize),
}

impl Program {
    fn policy(&self) -> Policy {
        let steps = self.fragments.iter().map(Fragment::policy);
        Policy::seq_all(steps).seq(ite(
            test(Field::DstPort, Value::Int(0)),
            modify(Field::OutPort, Value::Int(self.egress.0 as i64)),
            modify(Field::OutPort, Value::Int(self.egress.1 as i64)),
        ))
    }
}

fn program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(fragment(), 1..7),
        (1usize..=SWITCHES, 1usize..=SWITCHES),
    )
        .prop_map(|(fragments, egress)| Program { fragments, egress })
}

/// `(ingress port, srcport, dstport)`.
type Arrival = (usize, i64, i64);

fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec((1usize..=SWITCHES, 0i64..3, 0i64..3), 1..24)
}

fn packet((port, src, dst): Arrival) -> (PortId, Packet) {
    let packet = Packet::new()
        .with(Field::InPort, port as i64)
        .with(Field::SrcPort, src)
        .with(Field::DstPort, dst);
    (PortId(port), packet)
}

fn placement_of(owners: &[usize]) -> BTreeMap<StateVar, SwitchId> {
    let placed = owners.iter().enumerate();
    placed.map(|(v, &s)| (var(v), SwitchId(s))).collect()
}

/// Eight agents on the ring, ordered for every variable of `all`.
fn fleet(all: &Policy) -> Fleet {
    Fleet::new(ring(), all, 4096)
}

/// Inject `arrivals` one by one, folding `snap_lang::eval` next to them.
fn run(
    fleet: &Fleet,
    policy: &Policy,
    arrivals: &[Arrival],
    oracle: &mut Store,
) -> Result<(), TestCaseError> {
    for &arrival in arrivals {
        let (port, pkt) = packet(arrival);
        let expected = eval(policy, oracle, &pkt).expect("generated policies evaluate");
        let out = fleet
            .network
            .inject(port, &pkt)
            .expect("the packet executes");
        prop_assert_eq!(out.epoch, fleet.epoch);
        for (port, delivered) in &out.delivered {
            let outport = delivered.get(&Field::OutPort);
            prop_assert_eq!(outport, Some(&Value::Int(port.0 as i64)));
        }
        let delivered: BTreeSet<Packet> = out.delivered.into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(delivered, expected.packets, "arrival {:?}", arrival);
        *oracle = expected.store;
    }
    prop_assert_eq!(&fleet.network.aggregate_store(), &*oracle);
    Ok(())
}

/// The seeded contents of the read-only variable: a non-zero default (so an
/// absent key must read the installed table's default) and a few written
/// entries.
fn listed_table() -> StateTable {
    let mut table = StateTable::with_default(Value::Int(3));
    for i in 0..3 {
        table.set(vec![Value::Int(i)], Value::Int(3 + i));
        table.set(vec![Value::Int(i), Value::Int(i)], Value::Int(5));
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // (a) Random programs, random placements, an update in the middle that
    // moves at least one variable: deliveries and state equal the
    // specification's.
    #[test]
    fn fleet_matches_eval_across_a_re_placing_update(
        first in program(),
        second in program(),
        owners in proptest::collection::vec(0usize..SWITCHES, VARS..=VARS),
        reshuffle in proptest::collection::vec(0usize..SWITCHES, VARS..=VARS),
        moved in 0usize..VARS,
        by in 1usize..SWITCHES,
        before in arrivals(),
        after in arrivals(),
    ) {
        let (first, second) = (first.policy(), second.policy());
        let mut fleet = fleet(&first.clone().seq(second.clone()));
        fleet.update(&first, &placement_of(&owners), true);

        let mut oracle = Store::new();
        oracle.insert_table(var(5), listed_table());
        fleet.agents[owners[5]].store().insert_table(var(5), listed_table());
        run(&fleet, &first, &before, &mut oracle)?;

        // Half the variables land wherever `reshuffle` says, and `moved`
        // moves for certain.
        let mut next: Vec<usize> = (0..VARS)
            .map(|v| if v % 2 == 0 { reshuffle[v] } else { owners[v] })
            .collect();
        next[moved] = (owners[moved] + by) % SWITCHES;
        let tables_before = oracle.variables().count();
        let moving = (0..VARS)
            .filter(|&v| next[v] != owners[v] && oracle.table(&var(v)).is_some())
            .count();
        fleet.update(&second, &placement_of(&next), false);
        prop_assert_eq!(fleet.relayed, moving, "every moved table was yielded and relayed");
        prop_assert_eq!(fleet.network.aggregate_store().variables().count(), tables_before);
        run(&fleet, &second, &after, &mut oracle)?;
    }
}

/// A by-name operation on a switch's state, applied to its store and to a
/// plain `Store` side by side.
#[derive(Clone, Debug)]
enum StoreOp {
    Set { v: usize, key: i64, value: i64 },
    Install { v: usize, flagged: Vec<i64> },
    Remove { v: usize },
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0usize..3, 0i64..40, 0i64..9).prop_map(|(v, key, value)| StoreOp::Set { v, key, value }),
        (0usize..3, 0i64..40, 0i64..9).prop_map(|(v, key, value)| StoreOp::Set { v, key, value }),
        (0usize..3, proptest::collection::vec(0i64..40, 0..12))
            .prop_map(|(v, flagged)| StoreOp::Install { v, flagged }),
        (0usize..3).prop_map(|v| StoreOp::Remove { v }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (b) `variables` / `collect_table` / `remove_var` / `get` answer like
    // the name-keyed store did — installed defaults and absent keys included.
    #[test]
    fn a_switch_store_answers_like_a_store_by_name(
        ops in proptest::collection::vec(store_op(), 1..40),
    ) {
        let store = SwitchStore::new();
        let mut model = Store::new();
        for op in ops {
            match op {
                StoreOp::Set { v, key, value } => {
                    store.set(&var(v), vec![Value::Int(key)], Value::Int(value));
                    model.set(&var(v), vec![Value::Int(key)], Value::Int(value));
                }
                StoreOp::Install { v, flagged } => {
                    let mut table = StateTable::with_default(Value::Bool(false));
                    for key in flagged {
                        table.set(vec![Value::Int(key)], Value::Bool(true));
                    }
                    store.insert_table(var(v), table.clone());
                    model.insert_table(var(v), table);
                }
                StoreOp::Remove { v } => {
                    prop_assert_eq!(store.remove_var(&var(v)), model.remove_table(&var(v)));
                }
            }
            let held: BTreeSet<StateVar> = model.variables().cloned().collect();
            prop_assert_eq!(store.variables(), held);
            for v in 0..3 {
                prop_assert_eq!(store.collect_table(&var(v)), model.table(&var(v)).cloned());
                // Keys 40.. were never written: they must read the table's
                // own default, or 0 without a table.
                for key in (0..48).map(|k| [Value::Int(k)]) {
                    prop_assert_eq!(store.get(&var(v), &key), model.get(&var(v), &key));
                }
            }
            let sizes = store.table_entries();
            let expected = model.variables().map(|v| (v.clone(), model.table(v).unwrap().len() as u64));
            prop_assert_eq!(sizes.into_iter().collect::<BTreeMap<_, _>>(), expected.collect());
        }
    }
}

fn counting(outport: i64) -> Policy {
    state_incr("hits", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(outport)))
}

fn counting_and_flagging() -> Policy {
    state_incr("hits", vec![field(Field::InPort)])
        .seq(state_set("flag", vec![field(Field::SrcPort)], int(1)))
        .seq(modify(Field::OutPort, Value::Int(2)))
}

/// (b) A table id outlives the table: yielded at a commit, re-installed
/// later, the variable is reached under the id it always had.
#[test]
fn a_table_id_survives_yield_and_re_install() {
    let hits = var(0);
    let mut fleet = fleet(&counting(2));
    fleet.update(&counting(2), &placement_of(&[0]), true);
    let agent = Arc::clone(&fleet.agents[0]);
    let store = agent.store();
    let id = store.table_id(&hits);
    for _ in 0..3 {
        fleet
            .network
            .inject(PortId(1), &packet((1, 0, 0)).1)
            .unwrap();
    }
    assert_eq!(store.get(&hits, &[Value::Int(1)]), Value::Int(3));

    // `hits` moves to s5: s0 yields the table and keeps the id.
    fleet.update(&counting(2), &placement_of(&[5]), false);
    assert_eq!(fleet.relayed, 1);
    assert!(store.variables().is_empty());
    assert_eq!(store.collect_table(&hits), None);
    assert_eq!(store.get(&hits, &[Value::Int(1)]), Value::Int(0));
    assert_eq!(store.table_id(&hits), id);

    // ... and back: the re-installed table sits under the same id, and the
    // packet path (bound to that id at prepare) finds it.
    fleet.update(&counting(2), &placement_of(&[0]), false);
    assert_eq!(fleet.relayed, 2);
    assert_eq!(store.table_id(&hits), id);
    fleet
        .network
        .inject(PortId(1), &packet((1, 0, 0)).1)
        .unwrap();
    let total = fleet.network.aggregate_store();
    assert_eq!(total.get(&hits, &[Value::Int(1)]), Value::Int(4));
    assert_eq!(store.get(&hits, &[Value::Int(1)]), Value::Int(4));
}

/// (b) A view of an older epoch, still in the ring after two more commits —
/// one a different program, one a resync that renumbered the agent's slots —
/// keeps its own binding, and a packet executed under it reaches the
/// switch's table.
#[test]
fn an_older_epochs_view_still_resolves_its_slots() {
    let (hits, flag) = (var(0), var(2));
    let all = counting_and_flagging();
    let mut fleet = fleet(&all);
    let on = |h: usize, f: usize| BTreeMap::from([(var(0), SwitchId(h)), (var(2), SwitchId(f))]);
    fleet.update(&counting(2), &on(0, 0), true);
    fleet.update(&all, &on(3, 0), false);
    fleet.update(&all, &on(3, 4), true);

    let agent = &fleet.agents[0];
    let store = agent.store();
    let old = agent.view_for(1).expect("epoch 1 is still in the ring");
    assert_eq!(old.bindings.len(), old.flat.var_names().len());
    for (name, binding) in old.flat.var_names().iter().zip(old.bindings.iter()) {
        // Epoch 1 placed everything it mentions on this switch.
        assert_eq!(*binding, SlotBinding::Local(store.table_id(name)), "{name}");
    }
    let current = agent.current_view().unwrap();
    let remote = |owner| SlotBinding::Remote(SwitchId(owner));
    for (name, binding) in current.flat.var_names().iter().zip(current.bindings.iter()) {
        let expected = if *name == hits { remote(3) } else { remote(4) };
        assert_eq!(*binding, expected, "{name}");
    }

    // A straggler of epoch 1 arrives: it still counts, here, under the
    // table id its view bound (an orphaned write — the documented
    // eager-migration caveat — but a resolved one).
    let (port, pkt) = packet((1, 0, 0));
    let mut flight = InFlight::ingress(pkt, port, agent.switch(), old.flat.root());
    let mut writes = 0;
    let step = process_at_switch(
        &old.bindings,
        &old.flat,
        Some(store),
        &mut flight,
        None,
        &mut writes,
    );
    assert!(step.is_ok());
    assert_eq!(writes, 1);
    assert_eq!(store.get(&hits, &[Value::Int(1)]), Value::Int(1));
    assert_eq!(store.collect_table(&flag), None);
}

/// An `InstallTable` merges under one hold of the store lock: packet writes
/// that land on the variable while its migrated table is being installed
/// are kept. A race by nature — the writes and the installs interleave as
/// they happen to — so a lost write shows only when one lands mid-install.
#[test]
fn an_install_keeps_the_writes_that_land_during_it() {
    const KEYS: i64 = 4_000;
    let flag = state_set(var(2), vec![field(Field::SrcPort)], int(1))
        .seq(modify(Field::OutPort, Value::Int(1)));
    let mut fleet = fleet(&flag);
    fleet.update(&flag, &placement_of(&[0, 0, 0]), true);
    let agent = Arc::clone(&fleet.agents[0]);
    let mut migrated = StateTable::with_default(Value::Int(0));
    for k in 1..=64 {
        migrated.set(vec![Value::Int(-k)], Value::Int(2));
    }
    let written = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let keys: Vec<i64> = (0..KEYS).collect();
            for keys in keys.chunks(16) {
                let batch: Vec<_> = keys.iter().map(|&k| packet((1, k, 0))).collect();
                for out in fleet.network.inject_batch(&batch) {
                    out.expect("the packet executes");
                }
            }
            written.store(true, Ordering::SeqCst);
        });
        while !written.load(Ordering::SeqCst) {
            agent.handle(ToAgent::InstallTable {
                epoch: fleet.epoch,
                var: var(2),
                table: migrated.clone(),
            });
        }
    });
    let store = agent.store();
    for k in 0..KEYS {
        let value = store.get(&var(2), &[Value::Int(k)]);
        assert_eq!(value, Value::Int(1), "key {k} lost its write");
    }
    assert_eq!(store.get(&var(2), &[Value::Int(-1)]), Value::Int(2));
}

/// The reason an injection failed, if it was a missing-field evaluation
/// error (which is how placement errors surface).
fn placement_error(err: InjectError) -> String {
    match err {
        InjectError::Sim(SimError::Eval(EvalError::MissingField(Field::Custom(why)))) => {
            why.to_string()
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// (c) Placement errors name the variable, not its slot.
#[test]
fn placement_errors_name_the_variable() {
    let mut fleet = fleet(&counting(2));
    // No placement for `hits` at all.
    fleet.update(&counting(2), &BTreeMap::new(), true);
    let err = fleet.network.inject(PortId(1), &packet((1, 0, 0)).1);
    assert_eq!(
        placement_error(err.unwrap_err()),
        "no placement for state variable hits"
    );

    // The placement says s0, but s0's own metadata does not list it: build
    // that disagreement by hand (the fleet's `update` keeps them in step).
    let placement = placement_of(&[0]);
    let root = to_xfdd(&counting(2), &mut fleet.dist).unwrap();
    let delta = encode_delta(&fleet.dist, fleet.dist.len(), root);
    for agent in &fleet.agents {
        agent.handle(ToAgent::Prepare(Box::new(PrepareMsg {
            epoch: 2,
            resync: false,
            delta: delta.clone(),
            meta: None, // unchanged: nobody owns `hits`
            placement: Some(placement.clone()),
        })));
        agent.handle(ToAgent::Commit { epoch: 2 });
    }
    let err = fleet.network.inject(PortId(1), &packet((1, 0, 0)).1);
    assert_eq!(
        placement_error(err.unwrap_err()),
        "state variable hits placed on a switch that does not own it"
    );
}

/// (c) Sampled hop records name the variables a hop tested, wrote and went
/// looking for.
#[test]
fn sampled_hop_records_name_the_variables() {
    let policy = ite(
        state_test("conn", vec![field(Field::SrcPort)], int(0)),
        state_incr("hits", vec![field(Field::InPort)]),
        id(),
    )
    .seq(modify(Field::OutPort, Value::Int(2)));
    let mut fleet = fleet(&policy);
    let placement = BTreeMap::from([(var(3), SwitchId(0)), (var(0), SwitchId(6))]);
    fleet.update(&policy, &placement, true);
    let telemetry = fleet.network.telemetry().expect("planes record telemetry");
    telemetry.telemetry().tracer().set_every(1);
    fleet
        .network
        .inject(PortId(1), &packet((1, 0, 0)).1)
        .unwrap();

    let snapshot = fleet.network.metrics_snapshot();
    let trace = snapshot.traces.last().expect("every packet is sampled");
    let hop = |switch: usize| trace.hops.iter().find(|h| h.switch == switch).unwrap();
    assert_eq!(hop(0).state_tests, ["conn"]);
    assert_eq!(hop(0).outcome, "need-state:hits");
    assert_eq!(hop(6).state_writes, ["hits"]);
}

/// An increment of a key an earlier program set to a non-integer fails the
/// packet with the error `snap_lang::eval` returns for the same two
/// packets, and leaves the stored value as it was.
#[test]
fn a_counter_over_a_table_an_earlier_program_filled_fails_as_the_spec_does() {
    let flag = state_set("seen", vec![field(Field::InPort)], val(true))
        .seq(modify(Field::OutPort, Value::Int(6)));
    let count =
        state_incr("seen", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(6)));
    let pkt = Packet::new().with(Field::InPort, 1);

    let first = eval(&flag, &Store::new(), &pkt).unwrap();
    let spec = eval(&count, &first.store, &pkt).unwrap_err();
    let seen = StateVar::new("seen");
    assert_eq!(
        spec,
        EvalError::NotAnInteger {
            var: seen.clone(),
            value: Value::Bool(true)
        }
    );

    let mut fleet = Fleet::campus(&flag, "C6");
    fleet.network.inject(PortId(1), &pkt).unwrap();
    fleet.place(&count, "C6");
    let err = fleet.network.inject(PortId(1), &pkt).unwrap_err();
    assert_eq!(err, InjectError::Sim(SimError::Eval(spec)));
    let store = fleet.network.aggregate_store();
    assert_eq!(store.get(&seen, &[Value::Int(1)]), Value::Bool(true));
}
