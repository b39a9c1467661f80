//! Differential tests of the lowered mirror, a one-off flatten as oracle.
//!
//! A switch agent's program is its [`Mirror`]'s node table — every node
//! lowered once, when a delta delivered it, down to its dispatch entry and
//! state summary — plus a root, numbered by *mirror ids*. The oracle is
//! [`FlatProgram::from_pool`] on a pool decoded from scratch: the same
//! program lowered in one go, densely numbered. The two number the program
//! differently, so they are compared through the node bijection a walk
//! from both roots defines: mapped nodes must carry the same test, mapped
//! successors, the same leaf and written variables, and dispatch every
//! sampled packet to mapped nodes, from *every* reachable node (a §4.5 tag
//! may name any of them). The state classification must agree too, and
//! has its own oracle: the two-pass by-name `classify_state` that the
//! slot-indexed fold replaced, kept below as a test-only copy.
//!
//! Mirrors that hold the same numbering must agree on more: the same flat
//! ids, the same variable slots and the same dispatch outcomes for the
//! same root and entry node, whatever their history — fed by deltas only,
//! resynced mid-sequence, or resynced after a compaction. That is what
//! makes a tag minted on one switch resume on another.

use proptest::prelude::*;
use snap_apps as apps;
use snap_lang::builder::*;
use snap_lang::{Expr, Field, Packet, Policy, StateVar, Value};
use snap_xfdd::{
    decode_delta_fresh, encode_delta, to_xfdd, Action, FlatId, FlatNode, FlatProgram, Mirror,
    NodeId, Pool, StateClass, StateDependencies, VarOrder,
};
use std::collections::{BTreeMap, BTreeSet};

/// The edit family: detection threshold and egress fan-out vary, the state
/// variables (hence the composition order) stay fixed.
fn edited(threshold: i64, ports: usize) -> Policy {
    apps::dns_tunnel_detect(threshold).seq(apps::assign_egress(ports))
}

fn order() -> VarOrder {
    StateDependencies::analyze(&edited(1, 4)).var_order()
}

/// Packets over the fields the edit family tests: DNS responses and other
/// traffic, towards every egress subnet, plus one missing most fields.
fn sample_packets() -> Vec<Packet> {
    let mut out: Vec<Packet> = (0..12u8)
        .map(|i| {
            Packet::new()
                .with(Field::InPort, 1 + i64::from(i % 6))
                .with(Field::SrcIp, Value::ip(10, 0, 1 + i % 6, 7))
                .with(Field::DstIp, Value::ip(10, 0, 1 + (i * 5) % 7, 9))
                .with(Field::SrcPort, if i % 2 == 0 { 53 } else { 80 })
                .with(Field::DnsRdata, Value::ip(9, 9, 9, i % 3))
        })
        .collect();
    out.push(Packet::new().with(Field::SrcPort, 53));
    out
}

/// The nodes reachable from the program's root.
fn reachable(flat: &FlatProgram) -> BTreeSet<FlatId> {
    let mut seen = BTreeSet::new();
    let mut work = vec![flat.root()];
    while let Some(at) = work.pop() {
        if seen.insert(at) {
            if let FlatNode::Branch { tru, fls, .. } = flat.node(at) {
                work.extend([tru, fls]);
            }
        }
    }
    seen
}

/// The node bijection between two numberings of one program, found by
/// walking both from their roots in step. Panics if the walk pairs a node
/// with two others or a branch with a leaf.
fn bijection(a: &FlatProgram, b: &FlatProgram) -> BTreeMap<FlatId, FlatId> {
    let (mut map, mut image) = (BTreeMap::new(), BTreeSet::new());
    let mut work = vec![(a.root(), b.root())];
    while let Some((x, y)) = work.pop() {
        if let Some(seen) = map.insert(x, y) {
            assert_eq!(seen, y, "{x:?} pairs with two nodes");
            continue;
        }
        assert!(image.insert(y), "{y:?} pairs with two nodes");
        match (a.node(x), b.node(y)) {
            (FlatNode::Branch { tru, fls, .. }, FlatNode::Branch { tru: t, fls: f, .. }) => {
                work.extend([(tru, t), (fls, f)])
            }
            (FlatNode::Leaf(_), FlatNode::Leaf(_)) => {}
            _ => panic!("{x:?} and {y:?} are different kinds of node"),
        }
    }
    map
}

/// The mirror-built program must be the program an agent would build from
/// a fresh full-table decode of the controller's pool, lowered from
/// scratch: node for node under the bijection, dispatch included.
fn assert_same_program(mirror: &Mirror, dist: &Pool, root: NodeId) {
    let fresh_len = Pool::new(dist.order().clone()).len();
    let (scratch, scratch_root) = decode_delta_fresh(&encode_delta(dist, fresh_len, root)).unwrap();
    assert_eq!(scratch_root, root);
    assert_eq!(mirror.len(), dist.len());
    let oracle = FlatProgram::from_pool(&scratch, root);
    let built = mirror.flatten(root);
    let map = bijection(&built, &oracle);
    assert_eq!(map.len(), oracle.num_nodes());
    assert_eq!(built.num_nodes(), oracle.num_nodes());

    let packets = sample_packets();
    for (&id, &expected) in &map {
        match (built.node(id), oracle.node(expected)) {
            (
                FlatNode::Branch {
                    test,
                    slot,
                    tru,
                    fls,
                },
                FlatNode::Branch {
                    test: t,
                    slot: s,
                    tru: a,
                    fls: b,
                },
            ) => {
                assert_eq!(test, t, "branch {id:?}");
                assert_eq!((map[&tru], map[&fls]), (a, b), "branch {id:?}");
                // Each numbering resolves the test's slot to the variable
                // it reads.
                assert_eq!(slot.map(|s| built.var_name(s)), test.state_var());
                assert_eq!(s.map(|s| oracle.var_name(s)), test.state_var());
                assert_eq!(built.branch_var(id), oracle.branch_var(expected));
                for pkt in &packets {
                    assert_eq!(
                        built.step_stateless(id, pkt).map(|next| map[&next]),
                        oracle.step_stateless(expected, pkt),
                        "step from {id:?} on {pkt:?}"
                    );
                }
            }
            (FlatNode::Leaf(leaf), FlatNode::Leaf(other)) => {
                assert_eq!(leaf.seqs, other.seqs, "leaf {id:?}");
                assert_eq!(leaf.writes_state(), other.writes_state());
                for (s, seq) in leaf.seqs.iter().enumerate() {
                    for (a, action) in seq.actions.iter().enumerate() {
                        let var = action.written_var();
                        assert_eq!(leaf.written_slot(s, a).map(|x| built.var_name(x)), var);
                        assert_eq!(other.written_slot(s, a).map(|x| oracle.var_name(x)), var);
                    }
                }
            }
            _ => unreachable!("the bijection pairs kinds"),
        }
        for pkt in &packets {
            assert_eq!(
                map[&built.advance_stateless(id, pkt)],
                oracle.advance_stateless(expected, pkt),
                "advance from {id:?} on {pkt:?}"
            );
        }
    }
    assert_eq!(built.state_classes(), oracle.state_classes());
    assert_eq!(built.state_classes(), two_pass_classify(&built));
}

/// Two flat programs are the same program *in the same numbering*: the same
/// root and reachable ids, tests, successors, leaves, variable slots and
/// classes, and the same dispatch outcome from every reachable node.
fn assert_identical(a: &FlatProgram, b: &FlatProgram) {
    assert_eq!(a.root(), b.root());
    let ids = reachable(a);
    assert_eq!(ids, reachable(b));
    let packets = sample_packets();
    for &id in &ids {
        match (a.node(id), b.node(id)) {
            (
                FlatNode::Branch {
                    test,
                    slot,
                    tru,
                    fls,
                },
                FlatNode::Branch {
                    test: t,
                    slot: s,
                    tru: x,
                    fls: y,
                },
            ) => {
                assert_eq!((test, slot, tru, fls), (t, s, x, y), "branch {id:?}");
                for pkt in &packets {
                    assert_eq!(
                        a.step_stateless(id, pkt),
                        b.step_stateless(id, pkt),
                        "step from {id:?} on {pkt:?}"
                    );
                }
            }
            (FlatNode::Leaf(leaf), FlatNode::Leaf(other)) => {
                assert_eq!(leaf.seqs, other.seqs, "leaf {id:?}");
                for (s, seq) in leaf.seqs.iter().enumerate() {
                    for offset in 0..seq.actions.len() {
                        assert_eq!(leaf.written_slot(s, offset), other.written_slot(s, offset));
                    }
                }
            }
            _ => panic!("{id:?} names different kinds of node"),
        }
        for pkt in &packets {
            assert_eq!(
                a.advance_stateless(id, pkt),
                b.advance_stateless(id, pkt),
                "advance from {id:?} on {pkt:?}"
            );
        }
    }
    assert_eq!(a.var_names(), b.var_names());
    assert_eq!(a.state_classes(), b.state_classes());
}

/// One step an agent's mirror can go through.
#[derive(Clone, Debug)]
enum Step {
    /// A policy edit: a suffix delta (possibly empty, if the policy was
    /// shipped before).
    Edit { threshold: i64, ports: usize },
    /// A zero-node delta back to the `k`-th root shipped under the current
    /// numbering.
    Rollback(usize),
    /// A delta cut short on the wire, then what the controller does about
    /// it: compact its pool to the live program (a *different* numbering)
    /// and resync.
    CorruptThenResync { threshold: i64, cut: usize },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Twice: edits are what grows the pool the other steps play on.
        (1i64..=9, 3usize..=6).prop_map(|(threshold, ports)| Step::Edit { threshold, ports }),
        (1i64..=9, 3usize..=6).prop_map(|(threshold, ports)| Step::Edit { threshold, ports }),
        (0usize..8).prop_map(Step::Rollback),
        (1i64..=9, 0usize..10_000)
            .prop_map(|(threshold, cut)| Step::CorruptThenResync { threshold, cut }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mirror_flatten_matches_from_pool_over_delta_sequences(
        steps in proptest::collection::vec(step(), 1..7),
    ) {
        let fresh_len = Pool::new(order()).len();
        let mut dist = Pool::new(order());
        let first = to_xfdd(&edited(1, 4), &mut dist).unwrap();
        let (mut mirror, root) =
            Mirror::decode_fresh(&encode_delta(&dist, fresh_len, first)).unwrap();
        prop_assert_eq!(root, first);
        assert_same_program(&mirror, &dist, first);
        // Roots shipped under the current numbering, oldest first.
        let mut roots = vec![first];

        for step in steps {
            match step {
                Step::Edit { threshold, ports } => {
                    let base = dist.len();
                    let root = to_xfdd(&edited(threshold, ports), &mut dist).unwrap();
                    let applied = mirror.apply_delta(&encode_delta(&dist, base, root)).unwrap();
                    prop_assert_eq!(applied, root);
                    roots.push(root);
                }
                Step::Rollback(k) => {
                    let root = roots[k % roots.len()];
                    let delta = encode_delta(&dist, dist.len(), root);
                    let before = mirror.len();
                    prop_assert_eq!(mirror.apply_delta(&delta).unwrap(), root);
                    prop_assert_eq!(mirror.len(), before, "a rollback ships no nodes");
                    roots.push(root);
                }
                Step::CorruptThenResync { threshold, cut } => {
                    let base = dist.len();
                    let root = to_xfdd(&edited(threshold, 5), &mut dist).unwrap();
                    let delta = encode_delta(&dist, base, root);
                    // Any strict prefix of a delta is an error; it may have
                    // appended nodes first, which is why the mirror goes.
                    prop_assert!(mirror.apply_delta(&delta[..cut % delta.len()]).is_err());
                    let mut compacted = Pool::new(order());
                    let root = compacted.import(&dist, root);
                    dist = compacted;
                    let resync = encode_delta(&dist, fresh_len, root);
                    let (fresh, applied) = Mirror::decode_fresh(&resync).unwrap();
                    prop_assert_eq!(applied, root);
                    mirror = fresh;
                    roots = vec![root];
                }
            }
            let root = *roots.last().unwrap();
            assert_same_program(&mirror, &dist, root);
            // Earlier programs of this numbering still flatten the same
            // (an agent's epoch views rely on it).
            assert_same_program(&mirror, &dist, roots[0]);
        }
    }
}

/// The full table of `pool` as a resync ships it, decoded.
fn resync(pool: &Pool, root: NodeId) -> Mirror {
    let fresh_len = Pool::new(pool.order().clone()).len();
    let (mirror, applied) = Mirror::decode_fresh(&encode_delta(pool, fresh_len, root)).unwrap();
    assert_eq!(applied, root);
    mirror
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Mirrors on one numbering, different histories: fed by deltas only,
    // resynced mid-sequence, and — on the numbering a compaction starts —
    // resynced then fed by deltas, against one decoded whole at the end.
    // Their lowerings differ (a batch builds its own dispatch stages), yet
    // they must assign the same flat ids and dispatch alike.
    #[test]
    fn mirrors_with_different_histories_agree_on_ids_and_outcomes(
        edits in proptest::collection::vec((1i64..=9, 3usize..=6), 2..7),
        resync_at in 0usize..8,
        compact_at in 0usize..8,
    ) {
        let (resync_at, compact_at) = (resync_at % edits.len(), compact_at % edits.len());
        let mut dist = Pool::new(order());
        let first = to_xfdd(&edited(1, 4), &mut dist).unwrap();
        let mut by_deltas = resync(&dist, first);
        let mut resynced: Option<Mirror> = None;
        let mut compacted: Option<(Pool, Mirror, Vec<NodeId>)> = None;
        let mut roots = vec![first];
        for (k, &(threshold, ports)) in edits.iter().enumerate() {
            let policy = edited(threshold, ports);
            let base = dist.len();
            let root = to_xfdd(&policy, &mut dist).unwrap();
            let delta = encode_delta(&dist, base, root);
            prop_assert_eq!(by_deltas.apply_delta(&delta).unwrap(), root);
            match &mut resynced {
                Some(mirror) => prop_assert_eq!(mirror.apply_delta(&delta).unwrap(), root),
                None if k == resync_at => resynced = Some(resync(&dist, root)),
                None => {}
            }
            match &mut compacted {
                Some((pool, mirror, roots)) => {
                    let base = pool.len();
                    let root = to_xfdd(&policy, pool).unwrap();
                    let delta = encode_delta(pool, base, root);
                    prop_assert_eq!(mirror.apply_delta(&delta).unwrap(), root);
                    roots.push(root);
                }
                None if k == compact_at => {
                    // What `Controller::compact_distribution` does: a fresh
                    // pool holding only the live program, then a resync.
                    let mut pool = Pool::new(order());
                    let root = pool.import(&dist, root);
                    let mirror = resync(&pool, root);
                    compacted = Some((pool, mirror, vec![root]));
                }
                None => {}
            }
            roots.push(root);
        }

        let resynced = resynced.expect("resynced mid-sequence");
        for &root in &roots {
            assert_identical(&by_deltas.flatten(root), &resynced.flatten(root));
        }
        let (pool, by_deltas, roots) = compacted.expect("compacted mid-sequence");
        let whole = resync(&pool, *roots.last().unwrap());
        for &root in &roots {
            assert_identical(&by_deltas.flatten(root), &whole.flatten(root));
        }
    }
}

/// `FlatProgram::classify_state` as it was before the write summaries: one
/// pass over every action of the reachable leaves for the write kinds, a
/// second for conflicting set literals, then the demotion of tested
/// variables. Test oracle only.
fn two_pass_classify(flat: &FlatProgram) -> BTreeMap<StateVar, StateClass> {
    let ids = reachable(flat);
    let leaves = || {
        ids.iter()
            .filter(|id| id.is_leaf())
            .map(|&id| flat.leaf(id))
    };
    let actions = || leaves().flat_map(|l| l.seqs.iter().flat_map(|s| s.actions.iter()));
    let mut classes: BTreeMap<StateVar, StateClass> = BTreeMap::new();
    for action in actions() {
        let (var, kind) = match action {
            Action::Modify(_, _) => continue,
            Action::StateIncr { var, .. } | Action::StateDecr { var, .. } => {
                (var, StateClass::Counter)
            }
            Action::StateSet {
                var,
                value: Expr::Value(_),
                ..
            } => (var, StateClass::IdempotentSet),
            Action::StateSet { var, .. } => (var, StateClass::Exact),
        };
        classes
            .entry(var.clone())
            .and_modify(|c| {
                if *c != kind {
                    *c = StateClass::Exact;
                }
            })
            .or_insert(kind);
    }
    let mut set_literal: BTreeMap<&StateVar, &Value> = BTreeMap::new();
    for action in actions() {
        if let Action::StateSet {
            var,
            value: Expr::Value(v),
            ..
        } = action
        {
            if classes.get(var) == Some(&StateClass::IdempotentSet) {
                match set_literal.get(var) {
                    None => {
                        set_literal.insert(var, v);
                    }
                    Some(seen) if *seen != v => {
                        classes.insert(var.clone(), StateClass::Exact);
                    }
                    Some(_) => {}
                }
            }
        }
    }
    for &id in ids.iter().filter(|id| !id.is_leaf()) {
        if let Some(var) = flat.branch_var(id) {
            classes.insert(var.clone(), StateClass::Exact);
        }
    }
    classes
}

fn classes_of(
    policy: &Policy,
) -> (
    BTreeMap<StateVar, StateClass>,
    BTreeMap<StateVar, StateClass>,
) {
    let flat = snap_xfdd::compile(policy)
        .expect("the policy compiles")
        .flatten();
    (flat.state_classes(), two_pass_classify(&flat))
}

#[test]
fn classify_state_matches_the_two_pass_oracle_on_the_catalogue() {
    let catalogue = apps::catalogue();
    assert!(catalogue.len() >= 20);
    let mut seen = std::collections::BTreeSet::new();
    for (name, policy) in &catalogue {
        let (new, old) = classes_of(policy);
        assert_eq!(new, old, "{name}");
        seen.extend(new.into_values().map(|c| format!("{c:?}")));
    }
    // The benchmark's pipeline: several applications' variables in one
    // program, counters next to tested flags.
    let pipeline = apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(10))
        .seq(apps::stateful_firewall())
        .seq(apps::heavy_hitter_detection(10))
        .seq(apps::assign_egress(6));
    let (new, old) = classes_of(&pipeline);
    assert_eq!(new, old);
    assert!(new.len() >= 4);
    // The catalogue exercises both the replicable and the exact outcome.
    assert!(
        seen.contains("Counter") && seen.contains("Exact"),
        "{seen:?}"
    );
}

/// One mirror, several programs: the mirror numbers the variables of all of
/// them, so a program that mentions only some sees slots it neither tests
/// nor writes. Its slot-indexed classification must skip those and agree
/// with the by-name oracle (and with a one-off flatten) on the rest.
#[test]
fn classify_state_over_a_shared_numbering_matches_the_by_name_oracle() {
    let egress = || apps::assign_egress(6);
    let pipeline = apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(10))
        .seq(apps::stateful_firewall())
        .seq(apps::heavy_hitter_detection(10))
        .seq(egress());
    let order = StateDependencies::analyze(&pipeline).var_order();
    let fresh_len = Pool::new(order.clone()).len();
    let mut dist = Pool::new(order);
    let roots: Vec<NodeId> = [
        pipeline,
        apps::port_monitoring().seq(egress()),
        apps::stateful_firewall().seq(egress()),
        apps::dns_tunnel_detect(10).seq(apps::heavy_hitter_detection(10)),
        egress(),
    ]
    .iter()
    .map(|policy| to_xfdd(policy, &mut dist).unwrap())
    .collect();
    let last = *roots.last().unwrap();
    let (mirror, _) = Mirror::decode_fresh(&encode_delta(&dist, fresh_len, last)).unwrap();
    let all_vars = mirror.flatten(roots[0]).var_names().len();
    assert!(all_vars >= 4);
    let mut partial = 0;
    for &root in &roots {
        let built = mirror.flatten(root);
        // One numbering for every program of the mirror.
        assert_eq!(built.var_names().len(), all_vars);
        let classes = built.state_classes();
        assert_eq!(classes, two_pass_classify(&built));
        assert_eq!(classes, FlatProgram::from_pool(&dist, root).state_classes());
        for (var, class) in &classes {
            assert_eq!(built.state_class(var), *class);
        }
        partial += usize::from(classes.len() < all_vars);
    }
    assert!(partial >= 4, "the sub-programs leave slots unclassified");
}

#[test]
fn classify_state_matches_the_two_pass_oracle_on_mixed_and_conflicting_writes() {
    let port53 = || test(Field::SrcPort, Value::Int(53));
    let idx = || vec![field(Field::InPort)];
    let cases: Vec<(&str, Policy, StateClass)> = vec![
        (
            "incr and decr commute",
            ite(port53(), state_incr("v", idx()), state_decr("v", idx())),
            StateClass::Counter,
        ),
        (
            "one literal everywhere",
            ite(
                port53(),
                state_set("v", idx(), int(1)),
                state_set("v", vec![field(Field::DstPort)], int(1)),
            ),
            StateClass::IdempotentSet,
        ),
        (
            "conflicting literals",
            ite(
                port53(),
                state_set("v", idx(), int(1)),
                state_set("v", idx(), int(2)),
            ),
            StateClass::Exact,
        ),
        (
            "conflicting literals inside one leaf's sequences",
            state_set("v", idx(), int(1)).seq(state_set("v", idx(), int(2))),
            StateClass::Exact,
        ),
        (
            "mixed kinds",
            ite(
                port53(),
                state_incr("v", idx()),
                state_set("v", idx(), int(0)),
            ),
            StateClass::Exact,
        ),
        (
            "computed value",
            state_set("v", idx(), field(Field::SrcPort)),
            StateClass::Exact,
        ),
        (
            "literal and computed",
            ite(
                port53(),
                state_set("v", idx(), int(1)),
                state_set("v", idx(), field(Field::SrcPort)),
            ),
            StateClass::Exact,
        ),
        (
            "a tested counter",
            ite(
                state_test("v", idx(), int(3)),
                drop(),
                state_incr("v", idx()),
            ),
            StateClass::Exact,
        ),
    ];
    for (name, policy, expected) in cases {
        let (new, old) = classes_of(&policy);
        assert_eq!(new, old, "{name}");
        assert_eq!(new.get(&StateVar::new("v")), Some(&expected), "{name}");
    }
    // Independent variables keep independent classes.
    let both = state_incr("hits", idx()).seq(ite(
        state_test("seen", idx(), int(1)),
        id(),
        state_set("seen", idx(), int(1)),
    ));
    let (new, old) = classes_of(&both);
    assert_eq!(new, old);
    assert_eq!(new[&StateVar::new("hits")], StateClass::Counter);
    assert_eq!(new[&StateVar::new("seen")], StateClass::Exact);
}

/// An agent's mirror is append-only between compactions, so the root of the
/// running program sits ever deeper in it. Flattening must produce the
/// program, not the arena: the same program, in the same ids, whether the
/// root is the mirror's last node or has ten thousand unrelated nodes after
/// it (`alloc_budget.rs` holds the same flatten to the same bytes).
#[test]
fn flatten_is_unchanged_by_unrelated_nodes_appended_to_the_mirror() {
    let policy = apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(10))
        .seq(apps::stateful_firewall())
        .seq(apps::assign_egress(6));
    let order = StateDependencies::analyze(&policy).var_order();
    let fresh_len = Pool::new(order.clone()).len();
    let mut dist = Pool::new(order);
    let root = to_xfdd(&policy, &mut dist).unwrap();
    let (mut mirror, _) = Mirror::decode_fresh(&encode_delta(&dist, fresh_len, root)).unwrap();
    let before = mirror.flatten(root);

    let base = dist.len();
    let (id, drop) = (dist.id(), dist.drop());
    for port in 0..10_000 {
        dist.branch(
            snap_xfdd::Test::FieldValue(Field::SrcPort, Value::Int(100_000 + port)),
            id,
            drop,
        );
    }
    assert_eq!(dist.len(), base + 10_000);
    assert_eq!(
        mirror
            .apply_delta(&encode_delta(&dist, base, root))
            .unwrap(),
        root
    );
    assert_eq!(mirror.len(), dist.len());

    assert_identical(&before, &mirror.flatten(root));
    assert_same_program(&mirror, &dist, root);
    // A root in the middle of the appended run flattens to its three nodes.
    let middle = NodeId((base + 5_000) as u32);
    assert_eq!(mirror.flatten(middle).num_nodes(), 3);
}
