//! Robustness of the wire-format decoder against malformed input: for valid
//! encodings of representative diagrams, every truncation must decode to an
//! error (never a panic), arbitrary bit flips must either decode to an
//! error or to a *well-defined* diagram the pool accepts, and crafted
//! nesting or lengths must fail before they cost stack or memory — the
//! decoder is fed controller→switch bytes and must never take a switch down.

use proptest::prelude::*;
use snap_lang::builder::*;
use snap_lang::codec::{CodecError, Writer};
use snap_lang::{Field, Policy, Value};
use snap_xfdd::{
    apply_delta, decode_delta_fresh, encode_delta, to_xfdd, Mirror, NodeId, Pool,
    StateDependencies, VarOrder,
};

/// Representative policies covering every encoded shape: all three test
/// kinds, all four actions, tuples, prefixes, symbols, parallel leaves.
fn corpus() -> Vec<Policy> {
    vec![
        ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24).and(test(Field::SrcPort, Value::Int(53))),
            Policy::seq_all(vec![
                state_set(
                    "orphan",
                    vec![field(Field::DstIp), field(Field::DnsRdata)],
                    Value::Bool(true),
                ),
                state_incr("susp", vec![field(Field::DstIp)]),
                modify(Field::OutPort, Value::Int(6)),
            ]),
            ite(
                state_test(
                    "mode",
                    vec![snap_lang::Expr::Tuple(vec![field(Field::SrcIp), int(1)])],
                    snap_lang::Expr::Value(Value::sym("ESTABLISHED")),
                ),
                state_decr("susp", vec![field(Field::SrcIp)]),
                modify(Field::Content, Value::str("quarantine")),
            ),
        ),
        modify(Field::OutPort, Value::Int(1)).par(state_incr("c", vec![field(Field::InPort)])),
        ite(
            test(Field::SrcPort, Value::Int(53)),
            modify(Field::OutPort, Value::Int(6)),
            drop(),
        ),
    ]
}

/// The corpus as full-table payloads (deltas from a fresh pool).
fn encodings() -> Vec<Vec<u8>> {
    corpus()
        .iter()
        .map(|policy| {
            let deps = StateDependencies::analyze(policy);
            let fresh_len = Pool::new(deps.var_order()).len();
            let mut pool = Pool::new(deps.var_order());
            let root = to_xfdd(policy, &mut pool).unwrap();
            encode_delta(&pool, fresh_len, root)
        })
        .collect()
}

/// One member of a family of policies a controller might walk through while
/// editing: thresholds, egress ports and a guard toggle vary, the state
/// variables (and hence the composition order) stay fixed.
fn edited_policy(threshold: i64, egress: i64, guarded: bool) -> Policy {
    let detect = ite(
        test(Field::SrcPort, Value::Int(53)),
        ite(
            state_test("susp", vec![field(Field::DstIp)], int(threshold)),
            drop(),
            state_incr("susp", vec![field(Field::DstIp)]),
        ),
        id(),
    );
    let route = ite(
        test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
        modify(Field::OutPort, Value::Int(egress)),
        modify(Field::OutPort, Value::Int(1)),
    );
    if guarded {
        ite(
            test_prefix(Field::SrcIp, 10, 0, 0, 0, 8),
            detect.seq(route),
            drop(),
        )
    } else {
        detect.seq(route)
    }
}

fn edited_order() -> VarOrder {
    StateDependencies::analyze(&edited_policy(1, 1, false)).var_order()
}

/// Assert two pools hold identical node tables (same nodes at same ids).
fn assert_mirrors(a: &Pool, b: &Pool) {
    assert_eq!(a.len(), b.len(), "mirrors differ in length");
    for i in 0..a.len() {
        let id = NodeId(i as u32);
        assert_eq!(a.node(id), b.node(id), "mirrors differ at node {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // For random policy-edit sequences, shipping suffix deltas keeps the
    // receiver node-for-node identical to the controller's pool — and to a
    // full-table decode from scratch.
    #[test]
    fn delta_sequences_mirror_full_decode(
        edits in proptest::collection::vec((1i64..=12, 1i64..=6, any::<bool>()), 1..6),
    ) {
        let order = edited_order();
        let fresh_len = Pool::new(order.clone()).len();
        let mut dist = Pool::new(order.clone());
        let mut mirror: Option<Pool> = None;

        for (threshold, egress, guarded) in edits {
            let policy = edited_policy(threshold, egress, guarded);
            let base = dist.len();
            let root = to_xfdd(&policy, &mut dist).unwrap();
            let delta = encode_delta(&dist, base, root);

            let applied_root = match mirror.as_mut() {
                None => {
                    // Bootstrap: full-table payload into a fresh pool.
                    let boot = encode_delta(&dist, fresh_len, root);
                    let (pool, r) = decode_delta_fresh(&boot).unwrap();
                    mirror = Some(pool);
                    r
                }
                Some(m) => apply_delta(&delta, m).unwrap(),
            };
            let m = mirror.as_ref().unwrap();
            prop_assert_eq!(applied_root, root);
            assert_mirrors(m, &dist);

            // The incrementally maintained mirror equals a from-scratch
            // full-table decode of the same state.
            let full = encode_delta(&dist, fresh_len, root);
            let (scratch, scratch_root) = decode_delta_fresh(&full).unwrap();
            prop_assert_eq!(scratch_root, root);
            assert_mirrors(&scratch, m);
        }
    }

    // Any strict prefix of a delta payload errors (never panics), and the
    // receiving mirror can always be resynced afterwards.
    #[test]
    fn truncated_deltas_error_and_never_panic(
        threshold in 1i64..=12,
        cut in 0usize..10_000,
    ) {
        let order = edited_order();
        let fresh_len = Pool::new(order.clone()).len();
        let mut dist = Pool::new(order.clone());
        let r1 = to_xfdd(&edited_policy(1, 1, false), &mut dist).unwrap();
        let boot = encode_delta(&dist, fresh_len, r1);
        let (mirror, _) = decode_delta_fresh(&boot).unwrap();

        let base = dist.len();
        let r2 = to_xfdd(&edited_policy(threshold, 2, true), &mut dist).unwrap();
        let delta = encode_delta(&dist, base, r2);
        let cut = cut % delta.len();
        prop_assert!(apply_delta(&delta[..cut], &mut mirror.clone()).is_err());
    }

    // Arbitrary single-byte corruption of a delta payload must never panic:
    // it either errors or produces a structurally valid pool state.
    #[test]
    fn bit_flipped_deltas_never_panic(
        threshold in 1i64..=12,
        pos in 0usize..10_000,
        bit in 0u32..8,
    ) {
        let order = edited_order();
        let fresh_len = Pool::new(order.clone()).len();
        let mut dist = Pool::new(order.clone());
        let r1 = to_xfdd(&edited_policy(1, 1, false), &mut dist).unwrap();
        let boot = encode_delta(&dist, fresh_len, r1);
        let (mirror, _) = decode_delta_fresh(&boot).unwrap();

        let base = dist.len();
        let r2 = to_xfdd(&edited_policy(threshold, 3, true), &mut dist).unwrap();
        let mut delta = encode_delta(&dist, base, r2);
        let pos = pos % delta.len();
        delta[pos] ^= 1 << bit;

        let mut target = mirror.clone();
        if let Ok(root) = apply_delta(&delta, &mut target) {
            prop_assert!(root.index() < target.len());
            prop_assert!(target.size(root) >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_encodings_error_and_never_panic(
        which in 0usize..3,
        cut in 0usize..10_000,
    ) {
        let bytes = &encodings()[which];
        // Any strict prefix is a decode error — a prefix can never look
        // complete because the trailing root id is mandatory.
        let cut = cut % bytes.len();
        prop_assert!(decode_delta_fresh(&bytes[..cut]).is_err());
    }

    #[test]
    fn bit_flipped_encodings_never_panic(
        which in 0usize..3,
        pos in 0usize..10_000,
        bit in 0u32..8,
    ) {
        let mut bytes = encodings()[which].clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        // A flipped bit may still be a structurally valid diagram (e.g. a
        // flipped payload byte inside an integer value); what it must never
        // do is panic or produce a diagram the pool itself rejects.
        if let Ok((pool, root)) = decode_delta_fresh(&bytes) {
            prop_assert!(root.index() < pool.len());
            // The decoded diagram is a real, traversable pool citizen.
            prop_assert!(pool.size(root) >= 1);
        }
    }

    #[test]
    fn multi_byte_corruption_never_panics(
        which in 0usize..3,
        a in 0usize..10_000,
        b in 0usize..10_000,
        byte in 0u8..=255,
    ) {
        let mut bytes = encodings()[which].clone();
        let len = bytes.len();
        bytes[a % len] = byte;
        bytes[b % len] = byte.wrapping_mul(31).wrapping_add(7);
        if let Ok((pool, root)) = decode_delta_fresh(&bytes) {
            prop_assert!(root.index() < pool.len());
        }
    }
}

/// A one-node full-table payload over the empty variable order whose node
/// is whatever `node` writes — the header and framing of a real payload
/// around a crafted body.
fn crafted(node: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(b"XFDD");
    w.u16(2);
    w.u8(1);
    w.u32(0); // no state variables
    w.u32(Pool::new(VarOrder::empty()).len() as u32); // base: a fresh pool
    w.u32(1); // one node
    node(&mut w);
    w.u32(0); // root
    w.into_bytes()
}

/// A branch node up to the name its test starts with (`test_tag` 0: a field
/// test's field, 2: a state test's variable).
fn branch(w: &mut Writer, test_tag: u8, name: &str) {
    w.u8(1);
    w.u8(test_tag);
    w.str(name);
}

/// `levels` one-element tuples (values: tag 6, expressions: tag 2).
fn nest(w: &mut Writer, tag: u8, levels: usize) {
    for _ in 0..levels {
        w.u8(tag);
        w.u32(1);
    }
}

// Crafted nesting and lengths fail before they cost stack or memory. A
// megabyte of nesting is far inside the 64 MiB frame cap; a decoder that
// recurses once per level dies of stack overflow on it — an abort, not a
// panic, so nothing upstream could catch it. And a length is believed only
// as far as the bytes behind it go: nothing is allocated, looped over or
// sliced for a count the input cannot hold.
#[test]
fn hostile_nesting_and_lengths_fail_and_do_not_abort() {
    const LEVELS: usize = 200_000;
    let int = Value::Int(0);
    let cases = [
        // 200 000 levels in a value ...
        (
            CodecError::TooDeep,
            crafted(|w| {
                branch(w, 0, "srcport");
                nest(w, 6, LEVELS);
                w.value(&int);
            }),
        ),
        // ... in an index expression ...
        (
            CodecError::TooDeep,
            crafted(|w| {
                branch(w, 2, "s");
                w.u32(1);
                nest(w, 2, LEVELS);
                w.u8(0);
                w.value(&int);
            }),
        ),
        // ... and in a state test's value, tuple expressions around tuple
        // values: one cap covers both together.
        (
            CodecError::TooDeep,
            crafted(|w| {
                branch(w, 2, "s");
                w.u32(0);
                nest(w, 2, LEVELS / 2);
                w.u8(0);
                nest(w, 6, LEVELS / 2);
                w.value(&int);
            }),
        ),
        // A node count, a string length and a tuple length past the input.
        (CodecError::BadLength, {
            let mut bytes = crafted(|_| {});
            let count = bytes.len() - 8;
            bytes[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            bytes
        }),
        (
            CodecError::BadLength,
            crafted(|w| {
                w.u8(1);
                w.u8(0);
                w.u32(u32::MAX);
                w.raw(b"srcport");
            }),
        ),
        (
            CodecError::BadLength,
            crafted(|w| {
                branch(w, 0, "srcport");
                w.u8(6);
                w.u32(u32::MAX);
                w.value(&int);
            }),
        ),
    ];
    // Every way a program payload reaches a pool, each on a receiver in the
    // state the payload was cut for.
    let fresh = Pool::new(VarOrder::empty());
    let empty = encode_delta(&fresh, fresh.len(), fresh.drop());
    let (mut mirror, _) = Mirror::decode_fresh(&empty).unwrap();
    for (i, (want, bytes)) in cases.iter().enumerate() {
        let results = [
            apply_delta(bytes, &mut fresh.clone()),
            decode_delta_fresh(bytes).map(|(_, root)| root),
            mirror.apply_delta(bytes),
            Mirror::decode_fresh(bytes).map(|(_, root)| root),
        ];
        for (entry, result) in results.into_iter().enumerate() {
            assert_eq!(
                result,
                Err(want.clone().into()),
                "payload {i}, entry {entry}"
            );
        }
    }
}
