//! Property-based equivalence of table dispatch with its two oracles: for
//! random policies, packets and stores, [`FlatProgram::evaluate`] agrees with
//! the source diagram's [`Pool`] evaluation, and dispatch from any branch
//! agrees with [`FlatProgram::walk`] — including state tests, drop leaves
//! and, most importantly, dispatch that *starts mid-run*: a §4.5 packet tag
//! can name any branch of a collapsed field-test chain, and its cursor must
//! behave exactly like stepping the original branches one by one.
//!
//! [`FlatProgram::evaluate`]: snap_xfdd::FlatProgram::evaluate
//! [`FlatProgram::walk`]: snap_xfdd::FlatProgram::walk
//! [`Pool`]: snap_xfdd::Pool
//!
//! The CI bench/equivalence gate greps for `tables_equiv` in the test list;
//! renaming this file requires updating `.github/workflows/ci.yml`.

use proptest::prelude::*;
use snap_lang::{Expr, Field, Packet, Policy, Pred, StateVar, Store, Value};
use snap_xfdd::FlatNode;

const FIELDS: [Field; 5] = [
    Field::SrcIp,
    Field::DstIp,
    Field::SrcPort,
    Field::DstPort,
    Field::InPort,
];

// Wider key ranges than the semantics-equivalence suite: table compilation
// branches on key *shape* (dense vs sparse ints, prefixes vs exact ips), so
// the generator mixes dense small ints, sparse ints, ips and prefixes to
// reach every `Lookup` kind.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..8).prop_map(Value::Int),
        (0i64..10_000).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0u8..6).prop_map(|d| Value::ip(10, 0, 0, d)),
        (0u8..4, 8u8..=24).prop_map(|(d, len)| Value::prefix(10, d, 0, 0, len)),
    ]
}

fn arb_packet_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..8).prop_map(Value::Int),
        (0i64..10_000).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0u8..4, 0u8..6).prop_map(|(b, d)| Value::ip(10, b, 0, d)),
    ]
}

fn arb_field() -> impl Strategy<Value = Field> {
    (0usize..FIELDS.len()).prop_map(|i| FIELDS[i].clone())
}

fn arb_state_var() -> impl Strategy<Value = StateVar> {
    prop_oneof![
        Just(StateVar::new("s")),
        Just(StateVar::new("t")),
        Just(StateVar::new("u"))
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        arb_field().prop_map(Expr::Field),
        arb_value().prop_map(Expr::Value),
    ]
}

fn arb_index() -> impl Strategy<Value = Vec<Expr>> {
    proptest::collection::vec(arb_expr(), 1..=2)
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        Just(Pred::Id),
        Just(Pred::Drop),
        (arb_field(), arb_value()).prop_map(|(f, v)| Pred::Test(f, v)),
        (arb_state_var(), arb_index(), arb_expr())
            .prop_map(|(var, index, value)| Pred::StateTest { var, index, value }),
        // A disjunction over one field: the same-field runs dispatch
        // collapses, which independently drawn tests rarely line up.
        (arb_field(), proptest::collection::vec(arb_value(), 2..=5)).prop_map(|(f, keys)| {
            let tests = keys.into_iter().map(|k| Pred::Test(f.clone(), k));
            tests
                .reduce(|a, b| Pred::Or(Box::new(a), Box::new(b)))
                .expect("two keys or more")
        }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|x| Pred::Not(Box::new(x))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Pred::And(Box::new(x), Box::new(y))),
            (inner.clone(), inner).prop_map(|(x, y)| Pred::Or(Box::new(x), Box::new(y))),
        ]
    })
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    let leaf = prop_oneof![
        arb_pred().prop_map(Policy::Filter),
        (arb_field(), arb_value()).prop_map(|(f, v)| Policy::Modify(f, v)),
        (arb_state_var(), arb_index(), arb_expr())
            .prop_map(|(var, index, value)| Policy::StateSet { var, index, value }),
        (arb_state_var(), arb_index()).prop_map(|(var, index)| Policy::StateIncr { var, index }),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.par(q)),
            (arb_pred(), inner.clone(), inner.clone()).prop_map(|(a, p, q)| Policy::If(
                a,
                Box::new(p),
                Box::new(q)
            )),
        ]
    })
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    proptest::collection::vec(arb_packet_value(), FIELDS.len())
        .prop_map(|vals| FIELDS.iter().cloned().zip(vals).collect::<Packet>())
}

fn arb_store() -> impl Strategy<Value = Store> {
    proptest::collection::vec(
        (
            arb_state_var(),
            proptest::collection::vec(arb_packet_value(), 1..=2),
            (0i64..4).prop_map(Value::Int),
        ),
        0..4,
    )
    .prop_map(|entries| {
        let mut store = Store::new();
        for (var, idx, val) in entries {
            store.set(&var, idx, val);
        }
        store
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    // Full evaluation (dispatch to a leaf + leaf application) agrees with
    // the one-test-per-step walk's and with the source diagram's, errors
    // included.
    #[test]
    fn table_evaluation_matches_flat_evaluation(
        policy in arb_policy(),
        packet in arb_packet(),
        store in arb_store(),
    ) {
        let diagram = match snap_xfdd::compile(&policy) {
            Ok(d) => d,
            Err(_) => return Ok(()), // rejected programs have nothing to compare
        };
        let flat = diagram.flatten();
        let dispatched = flat.evaluate(&packet, &store);
        let walked = flat
            .walk(flat.root(), &packet, &store)
            .and_then(|leaf| flat.leaf(leaf).apply(&packet, &store));
        prop_assert_eq!(&dispatched, &walked, "walk diverged for {:?}", policy);
        let via_pool = diagram.evaluate(&packet, &store);
        prop_assert_eq!(&dispatched, &via_pool, "pool diverged for {:?}", policy);
    }

    // Dispatch agrees with the walk from *every* branch node, not just the
    // root: packet tags resume mid-program, and a tag may land in the
    // middle of a collapsed same-field run (the cursor machinery). By
    // induction over the state tests between stateless spans, so does the
    // whole dispatch loop from any entry point.
    #[test]
    fn table_walk_matches_flat_walk_from_every_branch(
        policy in arb_policy(),
        packet in arb_packet(),
        store in arb_store(),
    ) {
        let diagram = match snap_xfdd::compile(&policy) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        let flat = diagram.flatten();
        for i in 0..flat.num_branches() {
            let from = flat.branch_id(i);
            let dispatched = flat.walk(flat.advance_stateless(from, &packet), &packet, &store);
            let walked = flat.walk(from, &packet, &store);
            prop_assert_eq!(
                &dispatched, &walked,
                "dispatch from branch {} diverged for {:?}", i, policy
            );
        }
    }

    // The lock-free prefix step is sound: `advance_stateless` stops only
    // at a leaf or at a state test, and alternating it with the state test
    // it stopped at — the loop `FlatProgram::evaluate` runs from the root —
    // reaches the walk's leaf from any entry point.
    #[test]
    fn stateless_prefix_then_stateful_suffix_reaches_the_same_leaf(
        policy in arb_policy(),
        packet in arb_packet(),
        store in arb_store(),
    ) {
        let diagram = match snap_xfdd::compile(&policy) {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        let flat = diagram.flatten();
        for i in 0..flat.num_branches() {
            let from = flat.branch_id(i);
            let mut at = flat.advance_stateless(from, &packet);
            let dispatched = loop {
                let FlatNode::Branch { test, tru, fls, .. } = flat.node(at) else {
                    break Ok(at);
                };
                prop_assert!(
                    matches!(test, snap_xfdd::Test::State { .. }),
                    "stateless advance stopped at a stateless test for {:?}", policy
                );
                match snap_xfdd::eval_test(test, &packet, &store) {
                    Ok(pass) => at = flat.advance_stateless(if pass { tru } else { fls }, &packet),
                    Err(e) => break Err(e),
                }
            };
            prop_assert_eq!(
                &dispatched, &flat.walk(from, &packet, &store),
                "prefix+suffix from branch {} diverged for {:?}", i, policy
            );
        }
    }
}
