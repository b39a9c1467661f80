//! Property-based tests for pool compaction, pool-to-pool import and the
//! wire format: for random programs, `Pool::compact` must preserve the
//! semantics of every surviving diagram, never grow the arena, and leave the
//! interners consistent; the wire format must round-trip diagrams
//! bit-exactly in structure; and payload sharing must be invisible —
//! `extract`, `import` and `compact`, which move shared handles, must number
//! and encode exactly like the deep-copying import they replaced
//! ([`import_deep`], kept here as their oracle).

use proptest::prelude::*;
use snap_lang::{Expr, Field, Packet, Policy, Pred, StateVar, Store, Value};
use snap_xfdd::{encode_delta, to_xfdd, Hashed, Leaf, Node, NodeId, Pool, StateDependencies, Test};
use std::collections::HashMap;

const FIELDS: [Field; 5] = [
    Field::SrcIp,
    Field::DstIp,
    Field::SrcPort,
    Field::DstPort,
    Field::InPort,
];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0u8..3).prop_map(|d| Value::ip(10, 0, 0, d)),
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
            .prop_map(|(var, index, value)| { Pred::StateTest { var, index, value } }),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
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
            .prop_map(|(var, index, value)| { Policy::StateSet { var, index, value } }),
        (arb_state_var(), arb_index()).prop_map(|(var, index)| Policy::StateIncr { var, index }),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
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
    proptest::collection::vec(arb_value(), FIELDS.len())
        .prop_map(|vals| FIELDS.iter().cloned().zip(vals).collect::<Packet>())
}

fn arb_store() -> impl Strategy<Value = Store> {
    proptest::collection::vec(
        (
            arb_state_var(),
            proptest::collection::vec(arb_value(), 1..=2),
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

/// Translate both policies into one pool (sharing nodes and warming the memo
/// tables, like an incremental session would), keep only the second.
fn two_policy_pool(keep: &Policy, dead: &Policy) -> Option<(Pool, snap_xfdd::NodeId)> {
    let combined = dead.clone().par(keep.clone());
    let deps = StateDependencies::analyze(&combined);
    let mut pool = Pool::new(deps.var_order());
    to_xfdd(dead, &mut pool).ok()?;
    let root = to_xfdd(keep, &mut pool).ok()?;
    Some((pool, root))
}

/// The import `Pool::import` replaced, as its oracle: the same walk (depth
/// first, true side first, a node after both its children), but every
/// payload is rebuilt from its content — a deep copy, hashed afresh —
/// instead of carried over by handle.
fn import_deep(
    dst: &mut Pool,
    src: &Pool,
    n: NodeId,
    remap: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    if let Some(&mapped) = remap.get(&n) {
        return mapped;
    }
    let mapped = match src.node(n) {
        Node::Leaf(leaf) => dst.leaf(Leaf::clone(leaf)),
        Node::Branch { test, tru, fls } => {
            let tru = import_deep(dst, src, *tru, remap);
            let fls = import_deep(dst, src, *fls, remap);
            dst.branch(Test::clone(test), tru, fls)
        }
    };
    remap.insert(n, mapped);
    mapped
}

/// Two pools hold the same diagrams under the same numbering: node for
/// node, and byte for byte on the wire (full table and reachable diagram).
fn assert_same_pool(
    a: (&Pool, NodeId),
    b: (&Pool, NodeId),
    step: &str,
) -> Result<(), TestCaseError> {
    let ((a, ra), (b, rb)) = (a, b);
    prop_assert_eq!(ra, rb, "root after {}", step);
    prop_assert_eq!(a.len(), b.len(), "pool length after {}", step);
    for i in 0..a.len() as u32 {
        prop_assert_eq!(
            a.node(NodeId(i)),
            b.node(NodeId(i)),
            "node {} after {}",
            i,
            step
        );
    }
    let fresh = Pool::new(a.order().clone()).len();
    prop_assert_eq!(
        encode_delta(a, fresh, ra),
        encode_delta(b, fresh, rb),
        "table after {}",
        step
    );
    // The canonical form: only what the root reaches, renumbered by
    // extraction, as the full-table payload of that minimal pool.
    let canonical = |pool: &Pool, root| {
        let (minimal, root) = pool.extract(root);
        encode_delta(&minimal, fresh, root)
    };
    prop_assert_eq!(canonical(a, ra), canonical(b, rb), "diagram after {}", step);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sharing_payloads_is_invisible_to_extract_import_and_compact(
        keep in arb_policy(),
        dead in arb_policy(),
    ) {
        // Pool A: a session-like arena, the diagram to publish among garbage.
        let (a, root) = match two_policy_pool(&keep, &dead) {
            Some(x) => x,
            None => return Ok(()),
        };
        // extract: A → a minimal pool, by handle and by deep copy.
        let (frozen, frozen_root) = a.extract(root);
        let mut frozen_deep = Pool::new(a.order().clone());
        let frozen_deep_root = import_deep(&mut frozen_deep, &a, root, &mut HashMap::new());
        assert_same_pool((&frozen, frozen_root), (&frozen_deep, frozen_deep_root), "extract")?;

        // import: into a pool B that already holds something else (the
        // dead diagram), so existing nodes must be found, not duplicated.
        let populated = || {
            let mut b = Pool::new(a.order().clone());
            to_xfdd(&dead, &mut b).expect("translated into A before");
            b
        };
        let (mut b, mut b_deep) = (populated(), populated());
        let b_root = b.import(&frozen, frozen_root);
        let b_deep_root = import_deep(&mut b_deep, &frozen_deep, frozen_deep_root, &mut HashMap::new());
        assert_same_pool((&b, b_root), (&b_deep, b_deep_root), "import")?;

        // compact: down to the imported diagram.
        let b_root = b.compact(&[b_root]).node(b_root).expect("root survives");
        let b_deep_root = b_deep.compact(&[b_deep_root]).node(b_deep_root).expect("root survives");
        assert_same_pool((&b, b_root), (&b_deep, b_deep_root), "compact")?;

        // The hash a payload carries is the hash of its content.
        for i in 0..b.len() as u32 {
            match b.node(NodeId(i)) {
                Node::Leaf(leaf) => prop_assert_eq!(
                    leaf.content_hash(),
                    Hashed::new(Leaf::clone(leaf)).content_hash()
                ),
                Node::Branch { test, .. } => prop_assert_eq!(
                    test.content_hash(),
                    Hashed::new(Test::clone(test)).content_hash()
                ),
            }
        }

        // Equal payloads built independently — B's came by handle from A,
        // B-deep's were rebuilt from content — are one node in a third pool.
        let mut c = Pool::new(a.order().clone());
        let by_handle = c.import(&b, b_root);
        let len = c.len();
        let by_content = c.import(&b_deep, b_deep_root);
        prop_assert_eq!(by_handle, by_content);
        prop_assert_eq!(c.len(), len, "equal payloads interned twice");
    }

    #[test]
    fn compact_preserves_evaluation_and_never_grows(
        keep in arb_policy(),
        dead in arb_policy(),
        packet in arb_packet(),
        store in arb_store(),
    ) {
        let (mut pool, root) = match two_policy_pool(&keep, &dead) {
            Some(x) => x,
            None => return Ok(()),
        };
        let before_len = pool.len();
        let before_size = pool.size(root);
        let reference = pool.evaluate(root, &packet, &store);

        let remap = pool.compact(&[root]);
        let root2 = remap.node(root).expect("root must survive its own GC");

        prop_assert!(pool.len() <= before_len, "compaction grew the pool");
        prop_assert_eq!(remap.nodes_reclaimed(), before_len - pool.len());
        prop_assert_eq!(pool.size(root2), before_size, "diagram changed size");
        prop_assert!(pool.is_well_formed(root2));

        let after = pool.evaluate(root2, &packet, &store);
        match (reference, after) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "evaluation changed after compact"),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "evaluation outcome changed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn compacted_pool_reinterns_live_nodes_to_identical_ids(
        keep in arb_policy(),
        dead in arb_policy(),
    ) {
        let (mut pool, root) = match two_policy_pool(&keep, &dead) {
            Some(x) => x,
            None => return Ok(()),
        };
        let remap = pool.compact(&[root]);
        let root2 = remap.node(root).unwrap();
        let len = pool.len();
        // Re-interning every surviving node must be a no-op: identical ids,
        // identical structure, no growth.
        for id in pool.reachable(root2) {
            match pool.node(id).clone() {
                Node::Leaf(l) => prop_assert_eq!(pool.leaf(Leaf::clone(&l)), id),
                Node::Branch { test, tru, fls } => {
                    prop_assert_eq!(pool.branch(Test::clone(&test), tru, fls), id)
                }
            }
        }
        prop_assert_eq!(pool.len(), len, "re-interning grew the compacted pool");
    }

    #[test]
    fn retranslation_after_compact_matches_the_remapped_root(
        keep in arb_policy(),
        dead in arb_policy(),
    ) {
        let (mut pool, root) = match two_policy_pool(&keep, &dead) {
            Some(x) => x,
            None => return Ok(()),
        };
        let remap = pool.compact(&[root]);
        let root2 = remap.node(root).unwrap();
        // Translating the surviving policy again must re-derive the same
        // interned diagram (intermediates may be rebuilt, the root may not
        // move).
        let again = to_xfdd(&keep, &mut pool).expect("policy compiled before");
        prop_assert_eq!(again, root2);
    }

    #[test]
    fn wire_roundtrip_is_structure_exact(policy in arb_policy()) {
        let deps = StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = match to_xfdd(&policy, &mut pool) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        let fresh = Pool::new(pool.order().clone()).len();
        let bytes = encode_delta(&pool, fresh, root);
        let (decoded, droot) = snap_xfdd::decode_delta_fresh(&bytes).expect("roundtrip decode");
        prop_assert_eq!(decoded.order(), pool.order());
        prop_assert_eq!((decoded.len(), droot), (pool.len(), root));
        prop_assert_eq!(decoded.debug(droot), pool.debug(root));
        // Importing the decoded table back into the original pool
        // re-interns onto the root.
        let len = pool.len();
        prop_assert_eq!(pool.import(&decoded, droot), root);
        prop_assert_eq!(pool.len(), len);
    }
}
