//! A wire format for frozen diagrams: length-prefixed binary encoding of a
//! pool's node table plus a root id, with no serde dependency.
//!
//! Controller→switch distribution needs diagrams to cross process
//! boundaries. The arena already stores nodes in a flat table whose child
//! links always point at smaller indices, so the encoding is direct: a
//! header (magic, version, payload kind, variable order), a node table and
//! a root id. The decoder *re-interns* every node through the target pool's
//! constructors, so decoding is also a cross-pool import: structurally equal
//! nodes collapse onto existing ids, and decoding into a non-empty pool
//! shares everything it can.
//!
//! Two payload kinds exist, distinguished by a header byte so a receiver can
//! never misinterpret one as the other:
//!
//! * **full** ([`encode_diagram`] / [`decode_diagram`] / [`decode_into`]) —
//!   the subgraph reachable from one root, renumbered densely. Child links
//!   are local to the payload; the payload is self-contained.
//! * **delta** ([`encode_delta`] / [`apply_delta`]) — a *suffix* of the
//!   encoder pool's node table, for controller→switch distribution against a
//!   mirrored pool. Because the arena appends children before parents and
//!   never stores duplicates, the node table of an append-only distribution
//!   pool is itself a valid child-first encoding, and an update is just the
//!   bytes past what the receiver already holds. Child links are *absolute*
//!   arena indices; the receiver re-interns each node and verifies it lands
//!   at the expected absolute index, which proves its cached table is a
//!   node-for-node mirror of the encoder's (or fails the update cleanly).
//!
//! All integers are little-endian; strings and tables are `u32`
//! length-prefixed.

use crate::action::{Action, ActionSeq, Leaf};
use crate::pool::{Node, NodeId, Pool};
use crate::test::{Test, VarOrder};
use snap_lang::{Expr, Field, StateVar, Value};
use std::fmt;

const MAGIC: &[u8; 4] = b"XFDD";
/// Version 2 added the payload-kind byte (full vs delta).
const VERSION: u16 = 2;

/// Header byte of a full, self-contained diagram payload.
const KIND_FULL: u8 = 0;
/// Header byte of a node-table-suffix delta payload.
const KIND_DELTA: u8 = 1;

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_FULL => "full",
        KIND_DELTA => "delta",
        _ => "unknown",
    }
}

/// Errors surfaced while decoding a wire-format diagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// The buffer does not start with the `XFDD` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// An unknown enum tag was encountered.
    BadTag(&'static str, u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// The payload is of the other kind (a delta handed to a full-diagram
    /// decoder, or vice versa).
    WrongKind {
        /// The kind the decoder expected.
        expected: u8,
        /// The kind byte found in the header.
        found: u8,
    },
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
        /// Local (renumbered) id of the offending node.
        node: u32,
        /// The child id it referenced.
        child: u32,
    },
    /// The root id is outside the node table.
    BadRoot(u32),
    /// The encoded diagram was built under a different variable order than
    /// the target pool composes with.
    OrderMismatch,
    /// The buffer has trailing bytes after the encoded diagram.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer ends inside an encoded structure"),
            WireError::BadMagic => write!(f, "missing XFDD magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(what, t) => write!(f, "unknown {what} tag {t}"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::WrongKind { expected, found } => write!(
                f,
                "expected a {} payload, found a {} payload (kind byte {found})",
                kind_name(*expected),
                kind_name(*found)
            ),
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
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the diagram"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode the diagram rooted at `root` as a self-contained byte buffer:
/// variable order, reachable-node table (children before parents) and root.
pub fn encode_diagram(pool: &Pool, root: NodeId) -> Vec<u8> {
    let mut w = encode_header(KIND_FULL, pool.order());

    // Reachable nodes in ascending arena order: the arena's child-first
    // invariant carries over to the dense renumbering.
    let mut ids = pool.reachable(root);
    ids.sort_unstable();
    let mut local = vec![u32::MAX; pool.len()];
    for (i, id) in ids.iter().enumerate() {
        local[id.index()] = i as u32;
    }

    put_u32(&mut w, ids.len() as u32);
    for id in &ids {
        match pool.node(*id) {
            Node::Leaf(leaf) => {
                w.push(0);
                put_leaf(&mut w, leaf);
            }
            Node::Branch { test, tru, fls } => {
                w.push(1);
                put_test(&mut w, test);
                put_u32(&mut w, local[tru.index()]);
                put_u32(&mut w, local[fls.index()]);
            }
        }
    }
    put_u32(&mut w, local[root.index()]);
    w
}

/// Decode a full diagram into a fresh pool created with the encoded
/// variable order. Returns the pool and the root id.
pub fn decode_diagram(bytes: &[u8]) -> Result<(Pool, NodeId), WireError> {
    let mut r = Reader::new(bytes);
    let order = decode_header(&mut r, KIND_FULL)?;
    let mut pool = Pool::new(order);
    let root = decode_body(&mut r, &mut pool)?;
    Ok((pool, root))
}

/// Decode a full diagram into an existing pool, re-interning every node (a
/// cross-pool import over the wire). The pool must compose under the same
/// variable order the diagram was encoded with.
pub fn decode_into(bytes: &[u8], pool: &mut Pool) -> Result<NodeId, WireError> {
    let mut r = Reader::new(bytes);
    let order = decode_header(&mut r, KIND_FULL)?;
    if &order != pool.order() {
        return Err(WireError::OrderMismatch);
    }
    decode_body(&mut r, pool)
}

/// Encode the suffix of `pool`'s node table past `base_len`, plus the root,
/// as a delta payload: what a controller ships to a switch whose cached pool
/// mirrors the first `base_len` nodes. Child references are absolute arena
/// indices (they may point into the base region). With `base_len` equal to a
/// fresh pool's length, the payload carries the *entire* table — the full
/// resync that (unlike [`encode_diagram`]'s reachable-only renumbering)
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
    let mut w = encode_header(KIND_DELTA, pool.order());
    put_u32(&mut w, base_len as u32);
    put_u32(&mut w, (pool.len() - base_len) as u32);
    for i in base_len..pool.len() {
        match pool.node(NodeId(i as u32)) {
            Node::Leaf(leaf) => {
                w.push(0);
                put_leaf(&mut w, leaf);
            }
            Node::Branch { test, tru, fls } => {
                w.push(1);
                put_test(&mut w, test);
                put_u32(&mut w, tru.0);
                put_u32(&mut w, fls.0);
            }
        }
    }
    put_u32(&mut w, root.0);
    w
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
    let order = decode_header(&mut r, KIND_DELTA)?;
    if &order != pool.order() {
        return Err(WireError::OrderMismatch);
    }
    apply_delta_body(&mut r, pool)
}

/// Decode a delta into a fresh pool created with the encoded variable order
/// — how a switch bootstraps (or resyncs) its mirror from a full-table delta
/// (one encoded at a fresh pool's base length). Returns the pool and root.
pub fn decode_delta_fresh(bytes: &[u8]) -> Result<(Pool, NodeId), WireError> {
    let mut r = Reader::new(bytes);
    let order = decode_header(&mut r, KIND_DELTA)?;
    let mut pool = Pool::new(order);
    let root = apply_delta_body(&mut r, &mut pool)?;
    Ok((pool, root))
}

fn apply_delta_body(r: &mut Reader<'_>, pool: &mut Pool) -> Result<NodeId, WireError> {
    let base = r.u32()?;
    if base as usize != pool.len() {
        return Err(WireError::DeltaBaseMismatch {
            expected: base,
            actual: pool.len() as u32,
        });
    }
    let count = r.u32()?;
    for i in 0..count {
        let absolute = base.checked_add(i).ok_or(WireError::Truncated)?;
        let tag = r.u8()?;
        let id = match tag {
            0 => {
                let leaf = get_leaf(r)?;
                pool.leaf(leaf)
            }
            1 => {
                let test = get_test(r)?;
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
            t => return Err(WireError::BadTag("node", t)),
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
    if !r.is_empty() {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(NodeId(root))
}

fn encode_header(kind: u8, order: &VarOrder) -> Vec<u8> {
    let mut w = Vec::new();
    w.extend_from_slice(MAGIC);
    put_u16(&mut w, VERSION);
    w.push(kind);
    let vars = order.variables();
    put_u32(&mut w, vars.len() as u32);
    for v in &vars {
        put_str(&mut w, v.name());
    }
    w
}

fn decode_header(r: &mut Reader<'_>, expected_kind: u8) -> Result<VarOrder, WireError> {
    if r.take(4)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    if kind != KIND_FULL && kind != KIND_DELTA {
        return Err(WireError::BadTag("payload kind", kind));
    }
    if kind != expected_kind {
        return Err(WireError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let n = r.u32()? as usize;
    let mut vars = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        vars.push(StateVar::new(r.str()?));
    }
    Ok(VarOrder::new(vars))
}

fn decode_body(r: &mut Reader<'_>, pool: &mut Pool) -> Result<NodeId, WireError> {
    let count = r.u32()?;
    let mut map: Vec<NodeId> = Vec::with_capacity((count as usize).min(1 << 20));
    for i in 0..count {
        let tag = r.u8()?;
        let id = match tag {
            0 => {
                let leaf = get_leaf(r)?;
                pool.leaf(leaf)
            }
            1 => {
                let test = get_test(r)?;
                let tru = r.u32()?;
                let fls = r.u32()?;
                let resolve = |child: u32| {
                    if child >= i {
                        Err(WireError::BadNodeRef { node: i, child })
                    } else {
                        Ok(map[child as usize])
                    }
                };
                let (t, f) = (resolve(tru)?, resolve(fls)?);
                pool.branch(test, t, f)
            }
            t => return Err(WireError::BadTag("node", t)),
        };
        map.push(id);
    }
    let root = r.u32()?;
    let root = *map.get(root as usize).ok_or(WireError::BadRoot(root))?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(root)
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

fn put_u16(w: &mut Vec<u8>, v: u16) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(w: &mut Vec<u8>, v: i64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put_u32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

fn put_value(w: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            w.push(0);
            put_i64(w, *i);
        }
        Value::Bool(b) => {
            w.push(1);
            w.push(u8::from(*b));
        }
        Value::Ip(ip) => {
            w.push(2);
            put_u32(w, ip.0);
        }
        Value::Prefix(p) => {
            w.push(3);
            put_u32(w, p.addr.0);
            w.push(p.len);
        }
        Value::Str(s) => {
            w.push(4);
            put_str(w, s);
        }
        Value::Symbol(s) => {
            w.push(5);
            put_str(w, s);
        }
        Value::Tuple(vs) => {
            w.push(6);
            put_u32(w, vs.len() as u32);
            for v in vs {
                put_value(w, v);
            }
        }
    }
}

fn put_field(w: &mut Vec<u8>, f: &Field) {
    // Fields round-trip through their canonical surface-syntax name.
    put_str(w, f.name());
}

fn put_expr(w: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Value(v) => {
            w.push(0);
            put_value(w, v);
        }
        Expr::Field(f) => {
            w.push(1);
            put_field(w, f);
        }
        Expr::Tuple(es) => {
            w.push(2);
            put_u32(w, es.len() as u32);
            for e in es {
                put_expr(w, e);
            }
        }
    }
}

fn put_exprs(w: &mut Vec<u8>, es: &[Expr]) {
    put_u32(w, es.len() as u32);
    for e in es {
        put_expr(w, e);
    }
}

fn put_test(w: &mut Vec<u8>, t: &Test) {
    match t {
        Test::FieldValue(f, v) => {
            w.push(0);
            put_field(w, f);
            put_value(w, v);
        }
        Test::FieldField(a, b) => {
            w.push(1);
            put_field(w, a);
            put_field(w, b);
        }
        Test::State { var, index, value } => {
            w.push(2);
            put_str(w, var.name());
            put_exprs(w, index);
            put_expr(w, value);
        }
    }
}

fn put_action(w: &mut Vec<u8>, a: &Action) {
    match a {
        Action::Modify(f, v) => {
            w.push(0);
            put_field(w, f);
            put_value(w, v);
        }
        Action::StateSet { var, index, value } => {
            w.push(1);
            put_str(w, var.name());
            put_exprs(w, index);
            put_expr(w, value);
        }
        Action::StateIncr { var, index } => {
            w.push(2);
            put_str(w, var.name());
            put_exprs(w, index);
        }
        Action::StateDecr { var, index } => {
            w.push(3);
            put_str(w, var.name());
            put_exprs(w, index);
        }
    }
}

fn put_leaf(w: &mut Vec<u8>, leaf: &Leaf) {
    put_u32(w, leaf.0.len() as u32);
    for seq in &leaf.0 {
        w.push(u8::from(seq.drops));
        put_u32(w, seq.actions.len() as u32);
        for a in seq.actions.iter() {
            put_action(w, a);
        }
    }
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed string, borrowed from the input: each caller
    /// copies it once, straight into the form it stores (shared text for
    /// values and custom fields, nothing at all for a built-in field name).
    fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::BadUtf8)
    }

    fn is_empty(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Bool(r.bool()?)),
        2 => Ok(Value::Ip(snap_lang::Ipv4(r.u32()?))),
        3 => {
            let addr = snap_lang::Ipv4(r.u32()?);
            let len = r.u8()?;
            if len > 32 {
                return Err(WireError::BadTag("prefix length", len));
            }
            Ok(Value::Prefix(snap_lang::Prefix::new(addr, len)))
        }
        4 => Ok(Value::Str(r.str()?.into())),
        5 => Ok(Value::Symbol(r.str()?.into())),
        6 => {
            let n = r.u32()? as usize;
            let mut vs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                vs.push(get_value(r)?);
            }
            Ok(Value::Tuple(vs))
        }
        t => Err(WireError::BadTag("value", t)),
    }
}

fn get_field(r: &mut Reader<'_>) -> Result<Field, WireError> {
    Ok(Field::from_name(r.str()?))
}

fn get_expr(r: &mut Reader<'_>) -> Result<Expr, WireError> {
    match r.u8()? {
        0 => Ok(Expr::Value(get_value(r)?)),
        1 => Ok(Expr::Field(get_field(r)?)),
        2 => {
            let n = r.u32()? as usize;
            let mut es = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                es.push(get_expr(r)?);
            }
            Ok(Expr::Tuple(es))
        }
        t => Err(WireError::BadTag("expr", t)),
    }
}

fn get_exprs(r: &mut Reader<'_>) -> Result<Vec<Expr>, WireError> {
    let n = r.u32()? as usize;
    let mut es = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        es.push(get_expr(r)?);
    }
    Ok(es)
}

fn get_test(r: &mut Reader<'_>) -> Result<Test, WireError> {
    match r.u8()? {
        0 => Ok(Test::FieldValue(get_field(r)?, get_value(r)?)),
        1 => Ok(Test::FieldField(get_field(r)?, get_field(r)?)),
        2 => Ok(Test::State {
            var: StateVar::new(r.str()?),
            index: get_exprs(r)?,
            value: get_expr(r)?,
        }),
        t => Err(WireError::BadTag("test", t)),
    }
}

fn get_action(r: &mut Reader<'_>) -> Result<Action, WireError> {
    match r.u8()? {
        0 => Ok(Action::Modify(get_field(r)?, get_value(r)?)),
        1 => Ok(Action::StateSet {
            var: StateVar::new(r.str()?),
            index: get_exprs(r)?,
            value: get_expr(r)?,
        }),
        2 => Ok(Action::StateIncr {
            var: StateVar::new(r.str()?),
            index: get_exprs(r)?,
        }),
        3 => Ok(Action::StateDecr {
            var: StateVar::new(r.str()?),
            index: get_exprs(r)?,
        }),
        t => Err(WireError::BadTag("action", t)),
    }
}

fn get_leaf(r: &mut Reader<'_>) -> Result<Leaf, WireError> {
    let n = r.u32()? as usize;
    let mut leaf = Leaf::drop();
    for _ in 0..n {
        let drops = r.bool()?;
        let count = r.u32()? as usize;
        let mut actions = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            actions.push(get_action(r)?);
        }
        let mut seq = ActionSeq::from_actions(actions);
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
    use snap_lang::{Packet, Policy, Store};
    use snap_xfdd_test_policies::*;

    // A couple of representative policies exercising every encoded shape:
    // all three test kinds, all four actions, tuples, prefixes, symbols.
    mod snap_xfdd_test_policies {
        use snap_lang::builder::*;
        use snap_lang::{Expr, Field, Policy, Value};

        pub fn stateful_policy() -> Policy {
            ite(
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
    }

    #[test]
    fn roundtrip_through_a_fresh_pool() {
        let policy = stateful_policy();
        let deps = crate::deps::StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(&policy, &mut pool).unwrap();

        let bytes = encode_diagram(&pool, root);
        let (decoded_pool, decoded_root) = decode_diagram(&bytes).unwrap();

        assert_eq!(decoded_pool.order(), pool.order());
        assert_eq!(decoded_pool.size(decoded_root), pool.size(root));
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
    /// share; how a value keeps its text in memory is not. Pinned from the
    /// encoder as it was when text was still `String`-backed: a program over
    /// a custom field, a string and symbols must encode to the same bytes.
    #[test]
    fn text_carrying_programs_encode_to_the_recorded_bytes() {
        let policy = ite(
            test(snap_lang::Field::from_name("vlan.tag"), Value::str("blue"))
                .and(test(snap_lang::Field::TcpFlags, Value::sym("SYN"))),
            stateful_policy(),
            modify(snap_lang::Field::from_name("vlan.tag"), Value::sym("RED")),
        );
        let deps = crate::deps::StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(&policy, &mut pool).unwrap();
        let bytes = encode_diagram(&pool, root);
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (485, 6_892_126_127_997_553_502));
        // And the decoder hands the text back intact: re-encoding what it
        // read reproduces the bytes.
        let (decoded_pool, decoded_root) = decode_diagram(&bytes).unwrap();
        assert_eq!(encode_diagram(&decoded_pool, decoded_root), bytes);
    }

    #[test]
    fn decode_into_reuses_existing_structure() {
        let policy = stateful_policy();
        let deps = crate::deps::StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(&policy, &mut pool).unwrap();
        let bytes = encode_diagram(&pool, root);

        // Decoding back into the *same* pool re-interns onto existing ids
        // without growing the arena.
        let len = pool.len();
        let again = decode_into(&bytes, &mut pool).unwrap();
        assert_eq!(again, root);
        assert_eq!(pool.len(), len);

        // Decoding into a different, non-empty pool with the same order
        // shares whatever already exists there.
        let mut other = Pool::new(deps.var_order());
        let partial = to_xfdd(
            &modify(snap_lang::Field::OutPort, Value::Int(6)),
            &mut other,
        );
        partial.unwrap();
        let imported = decode_into(&bytes, &mut other).unwrap();
        assert_eq!(other.debug(imported), pool.debug(root));
    }

    #[test]
    fn decode_rejects_mismatched_variable_order() {
        let policy = stateful_policy();
        let deps = crate::deps::StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(&policy, &mut pool).unwrap();
        let bytes = encode_diagram(&pool, root);

        let mut wrong = Pool::new(crate::test::VarOrder::new(vec![snap_lang::StateVar::new(
            "unrelated",
        )]));
        assert_eq!(
            decode_into(&bytes, &mut wrong),
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
        let deps = crate::deps::StateDependencies::analyze(&policy_v1);
        let mut dist = Pool::new(deps.var_order());
        let root1 = to_xfdd(&policy_v1, &mut dist).unwrap();
        // Garbage from composition intermediates is fine: the mirror mirrors
        // the whole table, reachable or not.
        let fresh_len = Pool::new(deps.var_order()).len();

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
    fn payload_kinds_never_cross_decode() {
        let policy = stateful_policy();
        let deps = crate::deps::StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(&policy, &mut pool).unwrap();
        let fresh_len = Pool::new(deps.var_order()).len();

        let full = encode_diagram(&pool, root);
        let delta = encode_delta(&pool, fresh_len, root);

        // A delta handed to the full decoders errors out, and vice versa.
        assert!(matches!(
            decode_diagram(&delta),
            Err(WireError::WrongKind { .. })
        ));
        let mut target = Pool::new(deps.var_order());
        assert!(matches!(
            decode_into(&delta, &mut target),
            Err(WireError::WrongKind { .. })
        ));
        assert!(matches!(
            apply_delta(&full, &mut target),
            Err(WireError::WrongKind { .. })
        ));
        assert!(matches!(
            decode_delta_fresh(&full),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn delta_against_the_wrong_base_is_rejected() {
        let policy = stateful_policy();
        let deps = crate::deps::StateDependencies::analyze(&policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(&policy, &mut pool).unwrap();
        let fresh_len = Pool::new(deps.var_order()).len();
        let delta = encode_delta(&pool, fresh_len, root);

        // A pool that is already past the base (it holds the program) ...
        assert!(matches!(
            apply_delta(&delta, &mut pool.clone()),
            Err(WireError::DeltaBaseMismatch { .. })
        ));

        // ... and a same-length pool with *different* contents: the first
        // re-interned node collapses onto an existing id instead of
        // appending, which is exactly the divergence the check catches.
        let mut diverged = Pool::new(deps.var_order());
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
        let mut pool = Pool::new(crate::test::VarOrder::empty());
        let root = to_xfdd(
            &ite(
                test(snap_lang::Field::SrcPort, Value::Int(53)),
                modify(snap_lang::Field::OutPort, Value::Int(6)),
                drop(),
            ),
            &mut pool,
        )
        .unwrap();
        let bytes = encode_diagram(&pool, root);

        assert_eq!(decode_diagram(&[]).unwrap_err(), WireError::Truncated);
        assert_eq!(
            decode_diagram(b"NOPE____").unwrap_err(),
            WireError::BadMagic
        );
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_diagram(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"junk");
        assert_eq!(
            decode_diagram(&trailing).unwrap_err(),
            WireError::TrailingBytes(4)
        );
    }
}
