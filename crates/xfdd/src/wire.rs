//! The wire format for programs: length-prefixed binary encoding of a
//! pool's node table plus a root id, written and read through the
//! workspace's one byte codec ([`snap_lang::codec`]).
//!
//! Controller→switch distribution needs diagrams to cross process
//! boundaries. The arena already stores nodes in a flat table whose child
//! links always point at smaller indices, and an append-only pool never
//! stores duplicates, so its node table is itself a valid child-first
//! encoding. There is one payload ([`encode_delta`] / [`apply_delta`]): a
//! header (magic, version, payload kind, variable order), the base length,
//! the *suffix* of the encoder pool's node table past that base, and a root
//! id. An update is just the bytes past what the receiver already holds; a
//! full table — what a fresh or diverged receiver is resynced with
//! ([`decode_delta_fresh`]) — is the delta from a fresh pool. Child links
//! are *absolute* arena indices; the receiver re-interns each node through
//! its pool's constructors and verifies it lands at the expected absolute
//! index, which proves its cached table is a node-for-node mirror of the
//! encoder's (or fails the update cleanly).

use crate::action::{Action, ActionSeq, Leaf};
use crate::pool::{Node, NodeId, Pool};
use crate::test::{Test, VarOrder};
use snap_lang::codec::{CodecError, Reader, Writer};
use snap_lang::{Expr, Field, StateVar};
use std::fmt;

const MAGIC: &[u8; 4] = b"XFDD";
/// Version 2 added the payload-kind byte.
const VERSION: u16 = 2;

/// Header byte of the node-table-suffix payload — the only kind there is;
/// its value is part of the version-2 format.
const KIND_DELTA: u8 = 1;

/// Errors surfaced while decoding a wire-format program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes are not a well-formed structure at all: truncated, an
    /// unknown tag, a length past the input, nesting past the cap, trailing
    /// bytes.
    Codec(CodecError),
    /// The buffer does not start with the `XFDD` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// A delta was cut at a different base length than the receiving pool
    /// holds: the receiver is ahead, behind, or was never synced.
    DeltaBaseMismatch {
        /// The node-table length the delta was encoded against.
        expected: u32,
        /// The receiving pool's actual node-table length.
        actual: u32,
    },
    /// Re-interning a delta node did not land at its expected absolute
    /// index: the receiving pool is not a node-for-node mirror of the
    /// encoder's base (it interned different nodes, or the same nodes in a
    /// different order). The receiver needs a full resync.
    DeltaNotCanonical {
        /// Absolute index the node should have occupied.
        node: u32,
    },
    /// A node referenced a child at or after itself (the child-first
    /// invariant is violated, so the table cannot be re-interned).
    BadNodeRef {
        /// Absolute id of the offending node.
        node: u32,
        /// The child id it referenced.
        child: u32,
    },
    /// The root id is outside the node table.
    BadRoot(u32),
    /// The encoded diagram was built under a different variable order than
    /// the target pool composes with.
    OrderMismatch,
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => e.fmt(f),
            WireError::BadMagic => write!(f, "missing XFDD magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::DeltaBaseMismatch { expected, actual } => write!(
                f,
                "delta encoded against a {expected}-node base, pool holds {actual} nodes"
            ),
            WireError::DeltaNotCanonical { node } => write!(
                f,
                "delta node did not re-intern at absolute index {node}; the pool is not a \
                 mirror of the encoder's base"
            ),
            WireError::BadNodeRef { node, child } => {
                write!(f, "node {node} references non-preceding child {child}")
            }
            WireError::BadRoot(r) => write!(f, "root id {r} outside the node table"),
            WireError::OrderMismatch => {
                write!(f, "diagram was encoded under a different variable order")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encode the suffix of `pool`'s node table past `base_len`, plus the root:
/// what a controller ships to a switch whose cached pool mirrors the first
/// `base_len` nodes. Child references are absolute arena indices (they may
/// point into the base region). With `base_len` equal to a fresh pool's
/// length, the payload carries the *entire* table — the full resync, which
/// reproduces the distribution pool's exact node numbering, which every
/// mirror must share for flat packet tags to be portable across switches.
///
/// The root may lie anywhere in the table, including the base region: an
/// update that rolls back to an already-shipped program is a delta with zero
/// nodes and a new root.
pub fn encode_delta(pool: &Pool, base_len: usize, root: NodeId) -> Vec<u8> {
    assert!(
        base_len <= pool.len(),
        "delta base {base_len} past the pool's {} nodes",
        pool.len()
    );
    assert!(root.index() < pool.len(), "delta root outside the pool");
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u16(VERSION);
    w.u8(KIND_DELTA);
    let vars = pool.order().variables();
    w.seq_len(vars.len());
    for v in &vars {
        w.str(v.name());
    }
    w.u32(base_len as u32);
    w.seq_len(pool.len() - base_len);
    for i in base_len..pool.len() {
        match pool.node(NodeId(i as u32)) {
            Node::Leaf(leaf) => {
                w.u8(0);
                put_leaf(&mut w, leaf);
            }
            Node::Branch { test, tru, fls } => {
                w.u8(1);
                put_test(&mut w, test);
                w.u32(tru.0);
                w.u32(fls.0);
            }
        }
    }
    w.u32(root.0);
    w.into_bytes()
}

/// Apply a delta to a mirrored pool: re-intern every suffix node, verifying
/// each lands at its expected absolute index, and return the new root.
///
/// Errors are total — [`WireError::DeltaBaseMismatch`] when the pool is not
/// at the delta's base length, [`WireError::DeltaNotCanonical`] when the
/// pool's contents diverge from the encoder's base (either way the receiver
/// needs a full resync), plus the usual malformed-payload errors. On error
/// the pool may retain some re-interned suffix nodes; they are ordinary
/// interned nodes and keep the pool structurally valid, but the mirror must
/// be considered out of sync.
pub fn apply_delta(bytes: &[u8], pool: &mut Pool) -> Result<NodeId, WireError> {
    let mut r = Reader::new(bytes);
    if &decode_header(&mut r)? != pool.order() {
        return Err(WireError::OrderMismatch);
    }
    apply_delta_body(r, pool)
}

/// Decode a delta into a fresh pool created with the encoded variable order
/// — how a switch bootstraps (or resyncs) its mirror from a full-table delta
/// (one encoded at a fresh pool's base length). Returns the pool and root.
pub fn decode_delta_fresh(bytes: &[u8]) -> Result<(Pool, NodeId), WireError> {
    let mut r = Reader::new(bytes);
    let mut pool = Pool::new(decode_header(&mut r)?);
    let root = apply_delta_body(r, &mut pool)?;
    Ok((pool, root))
}

fn decode_header(r: &mut Reader<'_>) -> Result<VarOrder, WireError> {
    if r.take(4)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    if kind != KIND_DELTA {
        return Err(CodecError::BadTag("payload kind", kind).into());
    }
    Ok(VarOrder::new(r.seq(4, get_var)?))
}

fn apply_delta_body(mut r: Reader<'_>, pool: &mut Pool) -> Result<NodeId, WireError> {
    let base = r.u32()?;
    if base as usize != pool.len() {
        return Err(WireError::DeltaBaseMismatch {
            expected: base,
            actual: pool.len() as u32,
        });
    }
    let count = r.seq_len(MIN_NODE_BYTES)? as u32;
    for i in 0..count {
        let absolute = base.checked_add(i).ok_or(CodecError::BadLength)?;
        let id = match r.u8()? {
            0 => pool.leaf(get_leaf(&mut r)?),
            1 => {
                let test = get_test(&mut r)?;
                let tru = r.u32()?;
                let fls = r.u32()?;
                for child in [tru, fls] {
                    if child >= absolute {
                        return Err(WireError::BadNodeRef {
                            node: absolute,
                            child,
                        });
                    }
                }
                pool.branch(test, NodeId(tru), NodeId(fls))
            }
            t => return Err(CodecError::BadTag("node", t).into()),
        };
        // The encoder's suffix nodes are new to its arena by construction
        // (an arena never holds duplicates), so on a faithful mirror each
        // re-interning appends at exactly the absolute index. Anything else
        // proves the mirror diverged.
        if id.index() != absolute as usize {
            return Err(WireError::DeltaNotCanonical { node: absolute });
        }
    }
    let root = r.u32()?;
    if root as usize >= pool.len() {
        return Err(WireError::BadRoot(root));
    }
    r.finish()?;
    Ok(NodeId(root))
}

// Lower bounds on an element's encoded width, for the length-vs-remaining
// check (`Reader::seq_len`): a node is a tag and at least an empty leaf's
// count; an action sequence its drop flag and a count; an action a tag, a
// name's length prefix and two more bytes; an expression a tag and a value.
const MIN_NODE_BYTES: usize = 5;
const MIN_SEQ_BYTES: usize = 5;
const MIN_ACTION_BYTES: usize = 7;
const MIN_EXPR_BYTES: usize = 3;

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

fn put_field(w: &mut Writer, f: &Field) {
    // Fields round-trip through their canonical surface-syntax name.
    w.str(f.name());
}

fn put_expr(w: &mut Writer, e: &Expr) {
    match e {
        Expr::Value(v) => {
            w.u8(0);
            w.value(v);
        }
        Expr::Field(f) => {
            w.u8(1);
            put_field(w, f);
        }
        Expr::Tuple(es) => {
            w.u8(2);
            put_exprs(w, es);
        }
    }
}

fn put_exprs(w: &mut Writer, es: &[Expr]) {
    w.seq_len(es.len());
    for e in es {
        put_expr(w, e);
    }
}

fn put_test(w: &mut Writer, t: &Test) {
    match t {
        Test::FieldValue(f, v) => {
            w.u8(0);
            put_field(w, f);
            w.value(v);
        }
        Test::FieldField(a, b) => {
            w.u8(1);
            put_field(w, a);
            put_field(w, b);
        }
        Test::State { var, index, value } => {
            w.u8(2);
            w.str(var.name());
            put_exprs(w, index);
            put_expr(w, value);
        }
    }
}

fn put_action(w: &mut Writer, a: &Action) {
    match a {
        Action::Modify(f, v) => {
            w.u8(0);
            put_field(w, f);
            w.value(v);
        }
        Action::StateSet { var, index, value } => {
            w.u8(1);
            w.str(var.name());
            put_exprs(w, index);
            put_expr(w, value);
        }
        Action::StateIncr { var, index } => {
            w.u8(2);
            w.str(var.name());
            put_exprs(w, index);
        }
        Action::StateDecr { var, index } => {
            w.u8(3);
            w.str(var.name());
            put_exprs(w, index);
        }
    }
}

fn put_leaf(w: &mut Writer, leaf: &Leaf) {
    w.seq_len(leaf.0.len());
    for seq in &leaf.0 {
        w.bool(seq.drops);
        w.seq_len(seq.actions.len());
        for a in seq.actions.iter() {
            put_action(w, a);
        }
    }
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

fn get_var(r: &mut Reader<'_>) -> Result<StateVar, WireError> {
    Ok(StateVar::new(r.str()?))
}

fn get_field(r: &mut Reader<'_>) -> Result<Field, WireError> {
    Ok(Field::from_name(r.str()?))
}

fn get_expr(r: &mut Reader<'_>) -> Result<Expr, WireError> {
    match r.u8()? {
        0 => Ok(Expr::Value(r.value()?)),
        1 => Ok(Expr::Field(get_field(r)?)),
        2 => r.nested(get_exprs).map(Expr::Tuple),
        t => Err(CodecError::BadTag("expr", t).into()),
    }
}

fn get_exprs(r: &mut Reader<'_>) -> Result<Vec<Expr>, WireError> {
    r.seq(MIN_EXPR_BYTES, get_expr)
}

fn get_test(r: &mut Reader<'_>) -> Result<Test, WireError> {
    match r.u8()? {
        0 => Ok(Test::FieldValue(get_field(r)?, r.value()?)),
        1 => Ok(Test::FieldField(get_field(r)?, get_field(r)?)),
        2 => Ok(Test::State {
            var: get_var(r)?,
            index: get_exprs(r)?,
            value: get_expr(r)?,
        }),
        t => Err(CodecError::BadTag("test", t).into()),
    }
}

fn get_action(r: &mut Reader<'_>) -> Result<Action, WireError> {
    match r.u8()? {
        0 => Ok(Action::Modify(get_field(r)?, r.value()?)),
        1 => Ok(Action::StateSet {
            var: get_var(r)?,
            index: get_exprs(r)?,
            value: get_expr(r)?,
        }),
        2 => Ok(Action::StateIncr {
            var: get_var(r)?,
            index: get_exprs(r)?,
        }),
        3 => Ok(Action::StateDecr {
            var: get_var(r)?,
            index: get_exprs(r)?,
        }),
        t => Err(CodecError::BadTag("action", t).into()),
    }
}

fn get_leaf(r: &mut Reader<'_>) -> Result<Leaf, WireError> {
    let n = r.seq_len(MIN_SEQ_BYTES)?;
    let mut leaf = Leaf::drop();
    for _ in 0..n {
        let drops = r.bool()?;
        let mut seq = ActionSeq::from_actions(r.seq(MIN_ACTION_BYTES, get_action)?);
        if drops {
            seq = seq.with_drop();
        }
        leaf.insert(seq);
    }
    Ok(leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::to_xfdd;
    use snap_lang::builder::*;
    use snap_lang::{Packet, Policy, Store, Value};

    // A representative policy exercising every encoded shape: all three
    // test kinds, all four actions, tuples, prefixes, symbols.
    fn stateful_policy() -> Policy {
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
                    vec![Expr::Tuple(vec![field(Field::SrcIp), int(1)])],
                    Expr::Value(Value::sym("ESTABLISHED")),
                ),
                state_decr("susp", vec![field(Field::SrcIp)]),
                modify(Field::Content, Value::str("quarantine")),
            ),
        )
    }

    /// `policy` translated into a pool of its own, under its own order.
    fn translated(policy: &Policy) -> (Pool, NodeId) {
        let deps = crate::deps::StateDependencies::analyze(policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(policy, &mut pool).unwrap();
        (pool, root)
    }

    fn fresh_len(pool: &Pool) -> usize {
        Pool::new(pool.order().clone()).len()
    }

    /// The full-table payload: the delta from a fresh pool.
    fn full_table(pool: &Pool, root: NodeId) -> Vec<u8> {
        encode_delta(pool, fresh_len(pool), root)
    }

    #[test]
    fn roundtrip_through_a_fresh_pool() {
        let (pool, root) = translated(&stateful_policy());

        let bytes = full_table(&pool, root);
        let (decoded_pool, decoded_root) = decode_delta_fresh(&bytes).unwrap();

        assert_eq!(decoded_pool.order(), pool.order());
        assert_eq!((decoded_pool.len(), decoded_root), (pool.len(), root));
        assert_eq!(decoded_pool.debug(decoded_root), pool.debug(root));

        let store = Store::new();
        let pkt = Packet::new()
            .with(snap_lang::Field::DstIp, Value::ip(10, 0, 6, 9))
            .with(snap_lang::Field::SrcPort, 53)
            .with(snap_lang::Field::DnsRdata, Value::ip(1, 2, 3, 4));
        assert_eq!(
            decoded_pool.evaluate(decoded_root, &pkt, &store).unwrap(),
            pool.evaluate(root, &pkt, &store).unwrap()
        );
    }

    /// The wire format is what two builds of an agent and a controller
    /// share; how a value keeps its text in memory, and which module holds
    /// the byte codec, is not. Pinned from `encode_delta` as it was before
    /// it moved onto `snap_lang::codec`: a program over a custom field, a
    /// string and symbols must encode to the same bytes.
    #[test]
    fn text_carrying_programs_encode_to_the_recorded_bytes() {
        let policy = ite(
            test(snap_lang::Field::from_name("vlan.tag"), Value::str("blue"))
                .and(test(snap_lang::Field::TcpFlags, Value::sym("SYN"))),
            stateful_policy(),
            modify(snap_lang::Field::from_name("vlan.tag"), Value::sym("RED")),
        );
        let (pool, root) = translated(&policy);
        let bytes = full_table(&pool, root);
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (1824, 5_620_719_045_101_852_803));
        // And the decoder hands the text back intact: re-encoding what it
        // read reproduces the bytes.
        let (decoded_pool, decoded_root) = decode_delta_fresh(&bytes).unwrap();
        assert_eq!(full_table(&decoded_pool, decoded_root), bytes);
    }

    #[test]
    fn decode_rejects_mismatched_variable_order() {
        let (pool, root) = translated(&stateful_policy());
        let bytes = full_table(&pool, root);

        let mut wrong = Pool::new(VarOrder::new(vec![StateVar::new("unrelated")]));
        assert_eq!(
            apply_delta(&bytes, &mut wrong),
            Err(WireError::OrderMismatch)
        );
    }

    #[test]
    fn delta_shipping_keeps_a_mirror_in_lockstep() {
        // Controller side: an append-only distribution pool, two program
        // versions imported in sequence.
        let policy_v1 = stateful_policy();
        let policy_v2 = ite(
            test(Field::SrcPort, Value::Int(80)),
            drop(),
            stateful_policy(),
        );
        let (mut dist, root1) = translated(&policy_v1);
        // Garbage from composition intermediates is fine: the mirror mirrors
        // the whole table, reachable or not.
        let fresh_len = fresh_len(&dist);

        // Switch side: bootstrap from a full-table delta.
        let boot = encode_delta(&dist, fresh_len, root1);
        let (mut mirror, mroot1) = decode_delta_fresh(&boot).unwrap();
        assert_eq!(mirror.len(), dist.len());
        assert_eq!(mroot1, root1);
        assert_eq!(mirror.debug(mroot1), dist.debug(root1));

        // Second version: ship only the suffix.
        let base = dist.len();
        let root2 = to_xfdd(&policy_v2, &mut dist).unwrap();
        let delta = encode_delta(&dist, base, root2);
        let full = encode_delta(&dist, fresh_len, root2);
        assert!(delta.len() < full.len(), "suffix not smaller than table");
        let mroot2 = apply_delta(&delta, &mut mirror).unwrap();
        assert_eq!(mirror.len(), dist.len());
        assert_eq!(mroot2, root2);
        assert_eq!(mirror.debug(mroot2), dist.debug(root2));

        // Rolling back to v1 is a zero-node delta with an old root.
        let rollback = encode_delta(&dist, dist.len(), root1);
        let len = mirror.len();
        let mroot = apply_delta(&rollback, &mut mirror).unwrap();
        assert_eq!(mroot, root1);
        assert_eq!(mirror.len(), len);
    }

    #[test]
    fn delta_against_the_wrong_base_is_rejected() {
        let (pool, root) = translated(&stateful_policy());
        let delta = full_table(&pool, root);

        // A pool that is already past the base (it holds the program) ...
        assert!(matches!(
            apply_delta(&delta, &mut pool.clone()),
            Err(WireError::DeltaBaseMismatch { .. })
        ));

        // ... and a same-length pool with *different* contents: the first
        // re-interned node collapses onto an existing id instead of
        // appending, which is exactly the divergence the check catches.
        let mut diverged = Pool::new(pool.order().clone());
        to_xfdd(
            &ite(
                test_prefix(Field::DstIp, 10, 0, 6, 0, 24)
                    .and(test(Field::SrcPort, Value::Int(53))),
                Policy::seq_all(vec![
                    state_set(
                        "orphan",
                        vec![field(Field::DstIp), field(Field::DnsRdata)],
                        Value::Bool(true),
                    ),
                    state_incr("susp", vec![field(Field::DstIp)]),
                    modify(Field::OutPort, Value::Int(6)),
                ]),
                drop(),
            ),
            &mut diverged,
        )
        .unwrap();
        let at_base = encode_delta(&pool, diverged.len().min(pool.len()), root);
        let err = apply_delta(&at_base, &mut diverged).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::DeltaNotCanonical { .. }
                    | WireError::DeltaBaseMismatch { .. }
                    | WireError::BadNodeRef { .. }
            ),
            "diverged mirror accepted a delta: {err}"
        );
    }

    #[test]
    fn truncated_and_corrupt_buffers_are_rejected() {
        let (pool, root) = translated(&ite(
            test(Field::SrcPort, Value::Int(53)),
            modify(Field::OutPort, Value::Int(6)),
            drop(),
        ));
        let bytes = full_table(&pool, root);

        assert_eq!(
            decode_delta_fresh(&[]).unwrap_err(),
            CodecError::Truncated.into()
        );
        assert_eq!(
            decode_delta_fresh(b"NOPE____").unwrap_err(),
            WireError::BadMagic
        );
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_delta_fresh(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"junk");
        assert_eq!(
            decode_delta_fresh(&trailing).unwrap_err(),
            CodecError::TrailingBytes(4).into()
        );
        // The header names one payload kind; any other byte there is an
        // unknown tag.
        let mut other_kind = bytes;
        other_kind[6] = 0;
        assert_eq!(
            decode_delta_fresh(&other_kind).unwrap_err(),
            CodecError::BadTag("payload kind", 0).into()
        );
    }
}
