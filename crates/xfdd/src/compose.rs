//! xFDD composition operators: union (`⊕`), negation (`⊖`), restriction
//! (`·|t`) and sequential composition (`⊙`), following Figures 7–8 and
//! Appendices B/E of the paper — implemented over the hash-consed [`Pool`]
//! with memoization.
//!
//! Because nodes are interned, structural equality is id equality, and each
//! operator keeps a memo table in the pool keyed on `(lhs, rhs)` (plus the
//! interned context for the union recursion, whose refinement step depends on
//! the facts accumulated along the composition path). Repeating a composition
//! — the common case when policies are built incrementally or recompiled — is
//! then a hash lookup instead of a diagram traversal. Tests are interned as
//! well, so the recursion carries, compares and hashes them as ids; a `Test`
//! value is only built where an action sequence re-expresses one.
//!
//! The delicate part is composing an *action sequence* with a *branch*: the
//! actions happen "before" the test, so the test must be re-expressed over
//! the original packet header and the pre-existing state. That is where the
//! field-field tests and the context machinery come in.

use crate::action::{Action, ActionSeq, Leaf};
use crate::error::CompileError;
use crate::pool::{CtxId, Node, NodeId, Pool, TestId};
use crate::test::Test;
use snap_lang::{Expr, Field, StateVar, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A node, decomposed into copyable parts for recursion while the pool is
/// mutably borrowed.
enum Shape {
    Leaf,
    Branch(TestId, NodeId, NodeId),
}

impl Pool {
    fn shape(&self, n: NodeId) -> Shape {
        match self.node(n) {
            Node::Leaf(_) => Shape::Leaf,
            Node::Branch { tru, fls, .. } => Shape::Branch(self.node_test(n), *tru, *fls),
        }
    }

    fn leaf_of(&self, n: NodeId) -> &Leaf {
        match self.node(n) {
            Node::Leaf(l) => l,
            Node::Branch { .. } => unreachable!("leaf_of called on a branch"),
        }
    }

    fn is_drop_leaf(&self, n: NodeId) -> bool {
        matches!(self.node(n), Node::Leaf(l) if l.is_drop())
    }

    // -----------------------------------------------------------------------
    // Union, negation, restriction
    // -----------------------------------------------------------------------

    /// `d1 ⊕ d2` — parallel composition of diagrams.
    pub fn union(&mut self, d1: NodeId, d2: NodeId) -> NodeId {
        self.union_ctx(d1, d2, CtxId::EMPTY)
    }

    fn union_ctx(&mut self, d1: NodeId, d2: NodeId, ctx: CtxId) -> NodeId {
        let d1 = self.refine(d1, ctx);
        let d2 = self.refine(d2, ctx);
        if d1 == d2 {
            // Union is idempotent, and interning makes this check O(1).
            return d1;
        }
        // `{drop}` is the unit of `⊕`: return the other side untouched.
        // (Diagrams produced by this compiler are already path-refined, so
        // the recursion would rebuild the identical diagram node by node —
        // this matters because `seq` unions every leaf's result into a
        // `{drop}` accumulator on the compiler's hottest path.)
        if self.is_drop_leaf(d1) {
            return d2;
        }
        if self.is_drop_leaf(d2) {
            return d1;
        }
        // Union is commutative, so canonicalize the key order.
        let key = (d1.min(d2), d1.max(d2), ctx);
        if let Some(&r) = self.union_memo.get(&key) {
            return r;
        }
        let result = match (self.shape(d1), self.shape(d2)) {
            (Shape::Leaf, Shape::Leaf) => {
                let merged = self.leaf_of(d1).union(self.leaf_of(d2));
                self.leaf(merged)
            }
            (Shape::Branch(test, tru, fls), Shape::Leaf) => {
                let ct = self.ctx_with(ctx, test, true);
                let cf = self.ctx_with(ctx, test, false);
                let a = self.union_ctx(tru, d2, ct);
                let b = self.union_ctx(fls, d2, cf);
                self.branch_id(test, a, b)
            }
            (Shape::Leaf, Shape::Branch(test, tru, fls)) => {
                let ct = self.ctx_with(ctx, test, true);
                let cf = self.ctx_with(ctx, test, false);
                let a = self.union_ctx(d1, tru, ct);
                let b = self.union_ctx(d1, fls, cf);
                self.branch_id(test, a, b)
            }
            (Shape::Branch(t1, d11, d12), Shape::Branch(t2, d21, d22)) => {
                match self.cmp_tests(t1, t2) {
                    Ordering::Equal => {
                        let ct = self.ctx_with(ctx, t1, true);
                        let cf = self.ctx_with(ctx, t1, false);
                        let a = self.union_ctx(d11, d21, ct);
                        let b = self.union_ctx(d12, d22, cf);
                        self.branch_id(t1, a, b)
                    }
                    Ordering::Less => {
                        let ct = self.ctx_with(ctx, t1, true);
                        let cf = self.ctx_with(ctx, t1, false);
                        let a = self.union_ctx(d11, d2, ct);
                        let b = self.union_ctx(d12, d2, cf);
                        self.branch_id(t1, a, b)
                    }
                    Ordering::Greater => {
                        let ct = self.ctx_with(ctx, t2, true);
                        let cf = self.ctx_with(ctx, t2, false);
                        let a = self.union_ctx(d1, d21, ct);
                        let b = self.union_ctx(d1, d22, cf);
                        self.branch_id(t2, a, b)
                    }
                }
            }
        };
        self.union_memo.insert(key, result);
        result
    }

    /// The paper's `refine`: strip redundant or contradicting tests from the
    /// top of a diagram given what the context already implies.
    fn refine(&mut self, d: NodeId, ctx: CtxId) -> NodeId {
        let mut cur = d;
        while let Shape::Branch(test, tru, fls) = self.shape(cur) {
            match self.ctx_implies(ctx, test) {
                Some(true) => cur = tru,
                Some(false) => cur = fls,
                None => break,
            }
        }
        cur
    }

    /// `⊖d` — negation. Only meaningful for predicate diagrams (leaves `{id}`
    /// / `{drop}`); a leaf with real actions is treated as "passes" and
    /// therefore negates to `drop`.
    pub fn negate(&mut self, d: NodeId) -> NodeId {
        if let Some(&r) = self.negate_memo.get(&d) {
            return r;
        }
        let result = match self.shape(d) {
            Shape::Leaf => {
                if self.is_drop_leaf(d) {
                    self.id()
                } else {
                    self.drop()
                }
            }
            Shape::Branch(test, tru, fls) => {
                let a = self.negate(tru);
                let b = self.negate(fls);
                self.branch_id(test, a, b)
            }
        };
        self.negate_memo.insert(d, result);
        result
    }

    /// `d|t` (when `positive`) or `d|¬t` (otherwise): keep `d`'s behaviour
    /// only where the test has the given outcome; drop elsewhere.
    pub fn restrict(&mut self, d: NodeId, test: &Test, positive: bool) -> NodeId {
        let test = self.intern_test(test.clone());
        self.restrict_id(d, test, positive)
    }

    fn restrict_id(&mut self, d: NodeId, test: TestId, positive: bool) -> NodeId {
        let key = (d, test, positive);
        if let Some(&r) = self.restrict_memo.get(&key) {
            return r;
        }
        // `test ? d : drop` (or its mirror image): `d` only where the test
        // has the wanted outcome.
        let guard = |pool: &mut Pool, d: NodeId| {
            let drop = pool.drop();
            if positive {
                pool.branch_id(test, d, drop)
            } else {
                pool.branch_id(test, drop, d)
            }
        };
        let result = match self.shape(d) {
            Shape::Leaf => {
                if self.is_drop_leaf(d) {
                    self.drop()
                } else {
                    guard(self, d)
                }
            }
            Shape::Branch(t1, tru, fls) => match self.cmp_tests(t1, test) {
                Ordering::Equal => {
                    let drop = self.drop();
                    if positive {
                        self.branch_id(t1, tru, drop)
                    } else {
                        self.branch_id(t1, drop, fls)
                    }
                }
                // `test` comes first in the order: hoist it above `d`.
                Ordering::Greater => guard(self, d),
                Ordering::Less => {
                    let a = self.restrict_id(tru, test, positive);
                    let b = self.restrict_id(fls, test, positive);
                    self.branch_id(t1, a, b)
                }
            },
        };
        self.restrict_memo.insert(key, result);
        result
    }

    /// Build a semantically correct, well-formed `test ? dt : df` even when
    /// `dt` or `df` contain tests that precede `test` in the global order.
    pub fn make_branch(&mut self, test: Test, dt: NodeId, df: NodeId) -> NodeId {
        let test = self.intern_test(test);
        self.make_branch_id(test, dt, df)
    }

    fn make_branch_id(&mut self, test: TestId, dt: NodeId, df: NodeId) -> NodeId {
        let a = self.restrict_id(dt, test, true);
        let b = self.restrict_id(df, test, false);
        self.union(a, b)
    }

    // -----------------------------------------------------------------------
    // Sequential composition
    // -----------------------------------------------------------------------

    /// `d1 ⊙ d2` — sequential composition of diagrams.
    pub fn seq(&mut self, d1: NodeId, d2: NodeId) -> Result<NodeId, CompileError> {
        if let Some(r) = self.seq_memo.get(&(d1, d2)) {
            return r.clone();
        }
        let result = self.seq_uncached(d1, d2);
        self.seq_memo.insert((d1, d2), result.clone());
        result
    }

    fn seq_uncached(&mut self, d1: NodeId, d2: NodeId) -> Result<NodeId, CompileError> {
        match self.shape(d1) {
            Shape::Leaf => {
                if self.is_drop_leaf(d1) {
                    return Ok(self.drop());
                }
                let seqs: Vec<ActionSeq> = self.leaf_of(d1).0.iter().cloned().collect();
                let mut acc = self.drop();
                for a in &seqs {
                    let part = self.seq_action(&Actions::new(a), d2, CtxId::EMPTY)?;
                    acc = self.union(acc, part);
                }
                Ok(acc)
            }
            Shape::Branch(test, tru, fls) => {
                let a = self.seq(tru, d2)?;
                let b = self.seq(fls, d2)?;
                Ok(self.make_branch_id(test, a, b))
            }
        }
    }

    /// Compose a single action sequence with a diagram (`as ⊙ d`), threading
    /// a context of decided tests — Appendix E's `seq(a, d, T)`.
    fn seq_action(
        &mut self,
        actions: &Actions,
        d: NodeId,
        ctx: CtxId,
    ) -> Result<NodeId, CompileError> {
        // A sequence that already dropped the packet never reaches the rest
        // of the program, but its state updates still take effect.
        if actions.seq.drops {
            return Ok(self.leaf(Leaf::from_seq(actions.seq.clone())));
        }
        let (test, tru, fls) = match self.shape(d) {
            Shape::Leaf => {
                if self.is_drop_leaf(d) {
                    // `as ⊙ {drop}`: the actions run, then the packet drops.
                    return Ok(self.leaf(Leaf::from_seq(actions.seq.clone().with_drop())));
                }
                let suffixes: Vec<ActionSeq> = self.leaf_of(d).0.iter().cloned().collect();
                let mut out = Leaf::drop();
                for suffix in &suffixes {
                    out.insert(actions.seq.concat(suffix));
                }
                return Ok(self.leaf(out));
            }
            Shape::Branch(test, tru, fls) => (test, tru, fls),
        };

        let fmap = &actions.fields;
        // A handle of the test's payload, so its parts can be borrowed while
        // the pool is composed into.
        let payload = self.tests[test.index()].clone();
        match &**payload {
            Test::FieldValue(f, v) => {
                if let Some(assigned) = fmap.get(f) {
                    // The sequence overwrote the field: the test is decided.
                    return if v.matches(assigned) {
                        self.seq_action(actions, tru, ctx)
                    } else {
                        self.seq_action(actions, fls, ctx)
                    };
                }
                self.decide_or_branch(test, actions, tru, fls, ctx)
            }
            Test::FieldField(f, g) => {
                let rf = resolve_field(f, fmap, self, ctx);
                let rg = resolve_field(g, fmap, self, ctx);
                let resolved = match (rf, rg) {
                    (Resolved::Val(a), Resolved::Val(b)) => {
                        return if a == b {
                            self.seq_action(actions, tru, ctx)
                        } else {
                            self.seq_action(actions, fls, ctx)
                        };
                    }
                    (Resolved::Val(a), Resolved::Fld(g2)) => Test::FieldValue(g2, a),
                    (Resolved::Fld(f2), Resolved::Val(b)) => Test::FieldValue(f2, b),
                    (Resolved::Fld(f2), Resolved::Fld(g2)) => {
                        if f2 == g2 {
                            return self.seq_action(actions, tru, ctx);
                        }
                        Test::FieldField(f2, g2)
                    }
                };
                let resolved = self.intern_test(resolved);
                self.decide_or_branch(resolved, actions, tru, fls, ctx)
            }
            Test::State { var, index, value } => {
                self.seq_action_state(actions, d, tru, fls, var, index, value, ctx)
            }
        }
    }

    /// Check the context for the (already re-expressed) test; recurse into
    /// the decided branch or build a well-formed branch over it.
    fn decide_or_branch(
        &mut self,
        test: TestId,
        actions: &Actions,
        tru: NodeId,
        fls: NodeId,
        ctx: CtxId,
    ) -> Result<NodeId, CompileError> {
        match self.ctx_implies(ctx, test) {
            Some(true) => self.seq_action(actions, tru, ctx),
            Some(false) => self.seq_action(actions, fls, ctx),
            None => {
                let ct = self.ctx_with(ctx, test, true);
                let cf = self.ctx_with(ctx, test, false);
                let dt = self.seq_action(actions, tru, ct)?;
                let df = self.seq_action(actions, fls, cf)?;
                Ok(self.make_branch_id(test, dt, df))
            }
        }
    }

    /// The hardest case: `as ⊙ (s[e1] = e2 ? d1 : d2)`.
    ///
    /// The writes to `s` inside `as` may determine the test: scanning from
    /// the latest write backwards, a write to the same entry with a known
    /// value decides the test (possibly shifted by intervening
    /// increments/decrements), and a write to a *possibly* equal entry forces
    /// a disambiguating field-field / field-value test to be inserted (the
    /// `(test ? d : d)` trick of Appendix E). If no write is relevant, the
    /// test reads pre-existing state and is emitted, re-expressed over the
    /// original packet header.
    #[allow(clippy::too_many_arguments)]
    fn seq_action_state(
        &mut self,
        actions: &Actions,
        whole: NodeId,
        tru: NodeId,
        fls: NodeId,
        var: &StateVar,
        index: &[Expr],
        value: &Expr,
        ctx: CtxId,
    ) -> Result<NodeId, CompileError> {
        let fmap = &actions.fields;
        // Test expressions re-expressed over the original header: fields that
        // the sequence modified become the constants it assigned.
        let t_idx: Vec<Expr> = index
            .iter()
            .map(|e| resolve_expr(e, fmap, self, ctx))
            .collect();
        let t_val: Expr = resolve_expr(value, fmap, self, ctx);

        // Writes to `var` inside the sequence, each re-expressed over the
        // original header using only the field modifications that *precede*
        // it.
        let writes = collect_writes(actions.seq, var, self, ctx);

        let mut offset: i64 = 0;
        for w in writes.iter().rev() {
            match exprs_equal(&t_idx, &w.index, self, ctx) {
                EqResult::Neq => continue,
                EqResult::Unknown(test) => {
                    // Emit the disambiguating test (it is expressed over the
                    // *original* header) and redo this node on both sides
                    // with the outcome recorded in the context, which then
                    // decides the equality.
                    return self.disambiguate(test, actions, whole, ctx);
                }
                EqResult::Eq => match &w.kind {
                    WriteKind::Set(wval) => {
                        if offset == 0 {
                            match exprs_equal(
                                std::slice::from_ref(&t_val),
                                std::slice::from_ref(wval),
                                self,
                                ctx,
                            ) {
                                EqResult::Eq => return self.seq_action(actions, tru, ctx),
                                EqResult::Neq => return self.seq_action(actions, fls, ctx),
                                EqResult::Unknown(test) => {
                                    return self.disambiguate(test, actions, whole, ctx);
                                }
                            }
                        }
                        // An increment/decrement sits between this write and
                        // the test: only constant integers can be compared
                        // statically.
                        return match (const_int(&t_val), const_int(wval)) {
                            (Some(tv), Some(wv)) => {
                                if tv == wv + offset {
                                    self.seq_action(actions, tru, ctx)
                                } else {
                                    self.seq_action(actions, fls, ctx)
                                }
                            }
                            _ => Err(CompileError::UnsupportedStateArithmetic { var: var.clone() }),
                        };
                    }
                    WriteKind::Bump(delta) => {
                        offset += delta;
                        continue;
                    }
                },
            }
        }

        // No write in the sequence decided the test: it reads pre-existing
        // state, possibly shifted by increments of the same entry.
        let final_value = if offset == 0 {
            t_val.clone()
        } else {
            match const_int(&t_val) {
                Some(tv) => Expr::Value(Value::Int(tv - offset)),
                None => return Err(CompileError::UnsupportedStateArithmetic { var: var.clone() }),
            }
        };
        let resolved = self.intern_test(Test::State {
            var: var.clone(),
            index: t_idx,
            value: final_value,
        });
        self.decide_or_branch(resolved, actions, tru, fls, ctx)
    }

    /// Emit a disambiguating test over the original header and re-process the
    /// state-test node on both sides with the outcome recorded in the context
    /// (Appendix E's `(test ? d : d)` expansion, done without re-interpreting
    /// the new test as a post-action test).
    fn disambiguate(
        &mut self,
        test: TestId,
        actions: &Actions,
        whole: NodeId,
        ctx: CtxId,
    ) -> Result<NodeId, CompileError> {
        let ct = self.ctx_with(ctx, test, true);
        let cf = self.ctx_with(ctx, test, false);
        let dt = self.seq_action(actions, whole, ct)?;
        let df = self.seq_action(actions, whole, cf)?;
        Ok(self.make_branch_id(test, dt, df))
    }
}

/// The outcome of a static equality comparison.
enum EqResult {
    Eq,
    Neq,
    Unknown(TestId),
}

// ---------------------------------------------------------------------------
// Static analysis of action sequences
// ---------------------------------------------------------------------------

enum Resolved {
    Val(Value),
    Fld(Field),
}

fn resolve_field(f: &Field, fmap: &BTreeMap<Field, Value>, pool: &Pool, ctx: CtxId) -> Resolved {
    if let Some(v) = fmap.get(f) {
        return Resolved::Val(v.clone());
    }
    if let Some(v) = pool.ctx_definite_value(ctx, f) {
        return Resolved::Val(v.clone());
    }
    Resolved::Fld(f.clone())
}

/// Re-express an expression over the original packet header, substituting
/// fields the sequence assigned (or the context pins down) with constants.
fn resolve_expr(e: &Expr, fmap: &BTreeMap<Field, Value>, pool: &Pool, ctx: CtxId) -> Expr {
    match e {
        Expr::Value(v) => Expr::Value(v.clone()),
        Expr::Field(f) => match resolve_field(f, fmap, pool, ctx) {
            Resolved::Val(v) => Expr::Value(v),
            Resolved::Fld(f) => Expr::Field(f),
        },
        Expr::Tuple(es) => Expr::Tuple(
            es.iter()
                .map(|e| resolve_expr(e, fmap, pool, ctx))
                .collect(),
        ),
    }
}

/// An action sequence on its way through `seq_action`'s recursion, with
/// the net field assignments it performs (last write wins), which every step
/// consults: worked out once per sequence, not once per node.
struct Actions<'a> {
    seq: &'a ActionSeq,
    fields: BTreeMap<Field, Value>,
}

impl<'a> Actions<'a> {
    fn new(seq: &'a ActionSeq) -> Actions<'a> {
        let mut fields = BTreeMap::new();
        for a in seq.actions.iter() {
            if let Action::Modify(f, v) = a {
                fields.insert(f.clone(), v.clone());
            }
        }
        Actions { seq, fields }
    }
}

enum WriteKind {
    /// `s[idx] ← value`
    Set(Expr),
    /// `s[idx]++` / `s[idx]--`
    Bump(i64),
}

struct StateWrite {
    index: Vec<Expr>,
    kind: WriteKind,
}

/// Collect the writes to `var` in sequence order, each with its index/value
/// expressions re-expressed over the original header using only the field
/// modifications that precede the write (Appendix E's `filter`).
fn collect_writes(actions: &ActionSeq, var: &StateVar, pool: &Pool, ctx: CtxId) -> Vec<StateWrite> {
    let mut running: BTreeMap<Field, Value> = BTreeMap::new();
    let mut out = Vec::new();
    for a in actions.actions.iter() {
        match a {
            Action::Modify(f, v) => {
                running.insert(f.clone(), v.clone());
            }
            Action::StateSet {
                var: w,
                index,
                value,
            } if w == var => out.push(StateWrite {
                index: index
                    .iter()
                    .map(|e| resolve_expr(e, &running, pool, ctx))
                    .collect(),
                kind: WriteKind::Set(resolve_expr(value, &running, pool, ctx)),
            }),
            Action::StateIncr { var: w, index } if w == var => out.push(StateWrite {
                index: index
                    .iter()
                    .map(|e| resolve_expr(e, &running, pool, ctx))
                    .collect(),
                kind: WriteKind::Bump(1),
            }),
            Action::StateDecr { var: w, index } if w == var => out.push(StateWrite {
                index: index
                    .iter()
                    .map(|e| resolve_expr(e, &running, pool, ctx))
                    .collect(),
                kind: WriteKind::Bump(-1),
            }),
            _ => {}
        }
    }
    out
}

fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Value(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

fn flatten_exprs(es: &[Expr], out: &mut Vec<Expr>) {
    for e in es {
        match e {
            Expr::Tuple(inner) => flatten_exprs(inner, out),
            other => out.push(other.clone()),
        }
    }
}

/// Are two (re-expressed) expression vectors equal for every packet, unequal
/// for every packet, or dependent on a header test we can emit?
fn exprs_equal(a: &[Expr], b: &[Expr], pool: &mut Pool, ctx: CtxId) -> EqResult {
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    flatten_exprs(a, &mut fa);
    flatten_exprs(b, &mut fb);
    if fa.len() != fb.len() {
        return EqResult::Neq;
    }
    for (x, y) in fa.iter().zip(fb.iter()) {
        match (x, y) {
            (Expr::Value(u), Expr::Value(v)) => {
                if u != v {
                    return EqResult::Neq;
                }
            }
            (Expr::Field(f), Expr::Field(g)) => {
                if f == g {
                    continue;
                }
                let t = pool.intern_test(Test::FieldField(f.clone(), g.clone()));
                match pool.ctx_implies(ctx, t) {
                    Some(true) => continue,
                    Some(false) => return EqResult::Neq,
                    None => return EqResult::Unknown(t),
                }
            }
            (Expr::Field(f), Expr::Value(v)) | (Expr::Value(v), Expr::Field(f)) => {
                let t = pool.intern_test(Test::FieldValue(f.clone(), v.clone()));
                match pool.ctx_implies(ctx, t) {
                    Some(true) => continue,
                    Some(false) => return EqResult::Neq,
                    None => return EqResult::Unknown(t),
                }
            }
            _ => return EqResult::Neq,
        }
    }
    EqResult::Eq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::VarOrder;
    use snap_lang::builder::field;
    use snap_lang::{Packet, Store};

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    fn pool() -> Pool {
        Pool::new(VarOrder::empty())
    }

    fn leaf_action(p: &mut Pool, a: Action) -> NodeId {
        p.leaf(Leaf::single(a))
    }

    fn test_branch(p: &mut Pool, t: Test) -> NodeId {
        let id = p.id();
        let drop = p.drop();
        p.branch(t, id, drop)
    }

    #[test]
    fn union_of_predicates_is_disjunction() {
        let mut p = pool();
        let a = test_branch(&mut p, Test::FieldValue(Field::SrcPort, Value::Int(53)));
        let b = test_branch(&mut p, Test::FieldValue(Field::DstPort, Value::Int(53)));
        let d = p.union(a, b);
        assert!(p.is_well_formed(d));
        let store = Store::new();
        let p1 = Packet::new()
            .with(Field::SrcPort, 53)
            .with(Field::DstPort, 80);
        let p2 = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::DstPort, 53);
        let p3 = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::DstPort, 80);
        assert_eq!(p.evaluate(d, &p1, &store).unwrap().0.len(), 1);
        assert_eq!(p.evaluate(d, &p2, &store).unwrap().0.len(), 1);
        assert_eq!(p.evaluate(d, &p3, &store).unwrap().0.len(), 0);
    }

    #[test]
    fn union_is_memoized() {
        let mut p = pool();
        let a = test_branch(&mut p, Test::FieldValue(Field::SrcPort, Value::Int(53)));
        let b = test_branch(&mut p, Test::FieldValue(Field::DstPort, Value::Int(53)));
        let d1 = p.union(a, b);
        let nodes_after_first = p.len();
        // Repeating the union (in either order — it is commutative) hits the
        // memo and interns nothing new.
        let d2 = p.union(a, b);
        let d3 = p.union(b, a);
        assert_eq!(d1, d2);
        assert_eq!(d1, d3);
        assert_eq!(p.len(), nodes_after_first);
    }

    #[test]
    fn union_refines_contradicting_subtrees() {
        // (srcport = 53 ? id : drop) ⊕ (srcport = 80 ? id : drop): on the
        // true branch of srcport=53, the srcport=80 test must be refined
        // away.
        let mut p = pool();
        let a = test_branch(&mut p, Test::FieldValue(Field::SrcPort, Value::Int(53)));
        let b = test_branch(&mut p, Test::FieldValue(Field::SrcPort, Value::Int(80)));
        let d = p.union(a, b);
        assert!(p.is_well_formed(d));
        // No path should test srcport twice.
        for (path, _) in p.paths(d) {
            let fields: Vec<_> = path
                .iter()
                .filter(|(t, _)| matches!(t, Test::FieldValue(Field::SrcPort, _)))
                .collect();
            assert!(fields.len() <= 2);
        }
        let store = Store::new();
        let pkt = Packet::new().with(Field::SrcPort, 80);
        assert_eq!(p.evaluate(d, &pkt, &store).unwrap().0.len(), 1);
    }

    #[test]
    fn negate_flips_pass_and_drop() {
        let mut p = pool();
        let a = test_branch(&mut p, Test::FieldValue(Field::SrcPort, Value::Int(53)));
        let n = p.negate(a);
        let store = Store::new();
        let dns = Packet::new().with(Field::SrcPort, 53);
        let web = Packet::new().with(Field::SrcPort, 80);
        assert!(p.evaluate(n, &dns, &store).unwrap().0.is_empty());
        assert_eq!(p.evaluate(n, &web, &store).unwrap().0.len(), 1);
        let id = p.id();
        let drop = p.drop();
        assert_eq!(p.negate(id), drop);
        assert_eq!(p.negate(drop), id);
        // Memoized: same input, same output id.
        assert_eq!(p.negate(a), n);
    }

    #[test]
    fn restrict_keeps_only_matching_side() {
        let mut p = pool();
        let t = Test::FieldValue(Field::SrcPort, Value::Int(53));
        let d = leaf_action(&mut p, Action::Modify(Field::OutPort, Value::Int(1)));
        let pos = p.restrict(d, &t, true);
        let neg = p.restrict(d, &t, false);
        let store = Store::new();
        let dns = Packet::new().with(Field::SrcPort, 53);
        let web = Packet::new().with(Field::SrcPort, 80);
        assert_eq!(p.evaluate(pos, &dns, &store).unwrap().0.len(), 1);
        assert!(p.evaluate(pos, &web, &store).unwrap().0.is_empty());
        assert!(p.evaluate(neg, &dns, &store).unwrap().0.is_empty());
        assert_eq!(p.evaluate(neg, &web, &store).unwrap().0.len(), 1);
    }

    #[test]
    fn make_branch_handles_out_of_order_tests() {
        // The branches contain a test that precedes the branch test in the
        // global order; make_branch must still build a well-formed diagram.
        let mut p = pool();
        let early = Test::FieldValue(Field::DstIp, Value::ip(1, 1, 1, 1));
        let late = Test::FieldValue(Field::SrcPort, Value::Int(53));
        let dt = test_branch(&mut p, early.clone());
        let drop = p.drop();
        let d = p.make_branch(late.clone(), dt, drop);
        assert!(p.is_well_formed(d));
        let store = Store::new();
        let yes = Packet::new()
            .with(Field::SrcPort, 53)
            .with(Field::DstIp, Value::ip(1, 1, 1, 1));
        let no = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::DstIp, Value::ip(1, 1, 1, 1));
        assert_eq!(p.evaluate(d, &yes, &store).unwrap().0.len(), 1);
        assert!(p.evaluate(d, &no, &store).unwrap().0.is_empty());
    }

    #[test]
    fn seq_modification_then_test_is_resolved_statically() {
        // (outport <- 6) ; (outport = 6 ? id : drop)  ≡  outport <- 6
        let mut p = pool();
        let set = leaf_action(&mut p, Action::Modify(Field::OutPort, Value::Int(6)));
        let check = test_branch(&mut p, Test::FieldValue(Field::OutPort, Value::Int(6)));
        let d = p.seq(set, check).unwrap();
        assert!(p.is_well_formed(d));
        let store = Store::new();
        let pkt = Packet::new().with(Field::InPort, 1);
        let (pkts, _) = p.evaluate(d, &pkt, &store).unwrap();
        assert_eq!(pkts.len(), 1);
        // And against a different constant the packet is dropped.
        let check5 = test_branch(&mut p, Test::FieldValue(Field::OutPort, Value::Int(5)));
        let d = p.seq(set, check5).unwrap();
        assert!(p.evaluate(d, &pkt, &store).unwrap().0.is_empty());
        // No residual test on outport should remain in either diagram.
        assert_eq!(p.num_tests(d), 0);
    }

    #[test]
    fn seq_is_memoized() {
        let mut p = pool();
        let set = leaf_action(&mut p, Action::Modify(Field::OutPort, Value::Int(6)));
        let check = test_branch(&mut p, Test::FieldValue(Field::OutPort, Value::Int(6)));
        let d1 = p.seq(set, check).unwrap();
        let nodes_after_first = p.len();
        let d2 = p.seq(set, check).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(p.len(), nodes_after_first);
    }

    #[test]
    fn seq_state_write_then_same_entry_test() {
        // s[srcip] <- 1 ; (s[srcip] = 1 ? id : drop) ≡ s[srcip] <- 1
        let mut p = pool();
        let w = leaf_action(
            &mut p,
            Action::StateSet {
                var: sv("s"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Value(Value::Int(1)),
            },
        );
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("s"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Value(Value::Int(1)),
            },
        );
        let d = p.seq(w, t).unwrap();
        // The state test must have been eliminated: the write decides it.
        assert_eq!(p.num_tests(d), 0);
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(9, 9, 9, 9));
        let (pkts, store) = p.evaluate(d, &pkt, &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(store.get(&sv("s"), &[Value::ip(9, 9, 9, 9)]), Value::Int(1));
    }

    #[test]
    fn seq_state_write_different_field_needs_field_field_test() {
        // s[srcip] <- e ; (s[dstip] = e ? d1 : d2): whether the write decides
        // the test depends on srcip = dstip, so a field-field test appears.
        let mut p = pool();
        let w = leaf_action(
            &mut p,
            Action::StateSet {
                var: sv("s"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Value(Value::Int(1)),
            },
        );
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("s"),
                index: vec![field(Field::DstIp)],
                value: Expr::Value(Value::Int(1)),
            },
        );
        let d = p.seq(w, t).unwrap();
        assert!(p.is_well_formed(d));
        let has_ff = p.paths(d).iter().any(|(path, _)| {
            path.iter()
                .any(|(t, _)| matches!(t, Test::FieldField(_, _)))
        });
        assert!(has_ff, "expected a field-field test in {}", p.debug(d));

        // Behaviour check against the obvious semantics.
        let store = Store::new();
        let same = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 1, 1, 1))
            .with(Field::DstIp, Value::ip(1, 1, 1, 1));
        let diff = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 1, 1, 1))
            .with(Field::DstIp, Value::ip(2, 2, 2, 2));
        // srcip = dstip: the write makes the test true -> pass.
        assert_eq!(p.evaluate(d, &same, &store).unwrap().0.len(), 1);
        // different: the test reads pre-existing state (0 ≠ 1) -> drop.
        assert!(p.evaluate(d, &diff, &store).unwrap().0.is_empty());
        // ... unless the pre-existing state already holds 1 at dstip.
        let mut seeded = Store::new();
        seeded.set(&sv("s"), vec![Value::ip(2, 2, 2, 2)], Value::Int(1));
        assert_eq!(p.evaluate(d, &diff, &seeded).unwrap().0.len(), 1);
    }

    #[test]
    fn seq_increment_then_constant_test_shifts_the_constant() {
        // c[srcip]++ ; (c[srcip] = 3 ? id : drop): equivalent to testing the
        // *pre*-increment value against 2.
        let mut p = pool();
        let inc = leaf_action(
            &mut p,
            Action::StateIncr {
                var: sv("c"),
                index: vec![field(Field::SrcIp)],
            },
        );
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("c"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Value(Value::Int(3)),
            },
        );
        let d = p.seq(inc, t).unwrap();
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(7, 7, 7, 7));
        let mut store = Store::new();
        store.set(&sv("c"), vec![Value::ip(7, 7, 7, 7)], Value::Int(2));
        let (pkts, new_store) = p.evaluate(d, &pkt, &store).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(
            new_store.get(&sv("c"), &[Value::ip(7, 7, 7, 7)]),
            Value::Int(3)
        );
        // With a pre-state of 0 the packet is dropped (post-value 1 ≠ 3).
        let (pkts, _) = p.evaluate(d, &pkt, &Store::new()).unwrap();
        assert!(pkts.is_empty());
    }

    #[test]
    fn seq_increment_then_non_constant_test_is_rejected() {
        let mut p = pool();
        let inc = leaf_action(
            &mut p,
            Action::StateIncr {
                var: sv("c"),
                index: vec![field(Field::SrcIp)],
            },
        );
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("c"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Field(Field::DstPort),
            },
        );
        let err = p.seq(inc, t).unwrap_err();
        assert!(matches!(
            err,
            CompileError::UnsupportedStateArithmetic { .. }
        ));
        // The error is memoized too.
        let err2 = p.seq(inc, t).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn seq_set_then_set_last_write_wins() {
        // s[0] <- 1; s[0] <- 2 ; (s[0] = 2 ? id : drop) keeps packets.
        let mut p = pool();
        let w = p.leaf(Leaf::from_seq(ActionSeq::from_actions(vec![
            Action::StateSet {
                var: sv("s"),
                index: vec![Expr::Value(Value::Int(0))],
                value: Expr::Value(Value::Int(1)),
            },
            Action::StateSet {
                var: sv("s"),
                index: vec![Expr::Value(Value::Int(0))],
                value: Expr::Value(Value::Int(2)),
            },
        ])));
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("s"),
                index: vec![Expr::Value(Value::Int(0))],
                value: Expr::Value(Value::Int(2)),
            },
        );
        let d = p.seq(w, t).unwrap();
        assert_eq!(p.num_tests(d), 0);
        let (pkts, _) = p.evaluate(d, &Packet::new(), &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn seq_modified_field_in_write_index_uses_preceding_value() {
        // outport <- 6; s[outport] <- 1; (s[outport] = 1 ? id : drop):
        // the write and the test both see outport = 6, so the test is
        // decided.
        let mut p = pool();
        let w = p.leaf(Leaf::from_seq(ActionSeq::from_actions(vec![
            Action::Modify(Field::OutPort, Value::Int(6)),
            Action::StateSet {
                var: sv("s"),
                index: vec![field(Field::OutPort)],
                value: Expr::Value(Value::Int(1)),
            },
        ])));
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("s"),
                index: vec![field(Field::OutPort)],
                value: Expr::Value(Value::Int(1)),
            },
        );
        let d = p.seq(w, t).unwrap();
        assert_eq!(p.num_tests(d), 0);
        let (pkts, _) = p.evaluate(d, &Packet::new(), &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn seq_write_after_field_change_does_not_decide_pre_change_index() {
        // s[srcip] <- 1; srcip <- 9.9.9.9 ; (s[srcip] = 1 ? id : drop):
        // the test reads s at the *new* srcip (9.9.9.9), which the write (at
        // the old srcip) only decides if the old srcip was already 9.9.9.9.
        let mut p = pool();
        let w = p.leaf(Leaf::from_seq(ActionSeq::from_actions(vec![
            Action::StateSet {
                var: sv("s"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Value(Value::Int(1)),
            },
            Action::Modify(Field::SrcIp, Value::ip(9, 9, 9, 9)),
        ])));
        let t = test_branch(
            &mut p,
            Test::State {
                var: sv("s"),
                index: vec![field(Field::SrcIp)],
                value: Expr::Value(Value::Int(1)),
            },
        );
        let d = p.seq(w, t).unwrap();
        assert!(p.is_well_formed(d));
        let store = Store::new();
        // Old srcip is different from 9.9.9.9: write does not alias the
        // read, pre-state is 0, packet dropped.
        let other = Packet::new().with(Field::SrcIp, Value::ip(1, 1, 1, 1));
        assert!(p.evaluate(d, &other, &store).unwrap().0.is_empty());
        // Old srcip *is* 9.9.9.9: the write decides the test -> pass.
        let aliased = Packet::new().with(Field::SrcIp, Value::ip(9, 9, 9, 9));
        assert_eq!(p.evaluate(d, &aliased, &store).unwrap().0.len(), 1);
    }

    #[test]
    fn seq_through_branches_distributes() {
        // (srcport = 53 ? outport <- 1 : outport <- 2) ; (outport = 1 ? id : drop)
        let mut p = pool();
        let then_leaf = leaf_action(&mut p, Action::Modify(Field::OutPort, Value::Int(1)));
        let else_leaf = leaf_action(&mut p, Action::Modify(Field::OutPort, Value::Int(2)));
        let first = p.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(53)),
            then_leaf,
            else_leaf,
        );
        let second = test_branch(&mut p, Test::FieldValue(Field::OutPort, Value::Int(1)));
        let d = p.seq(first, second).unwrap();
        assert!(p.is_well_formed(d));
        let store = Store::new();
        let dns = Packet::new().with(Field::SrcPort, 53);
        let web = Packet::new().with(Field::SrcPort, 80);
        assert_eq!(p.evaluate(d, &dns, &store).unwrap().0.len(), 1);
        assert!(p.evaluate(d, &web, &store).unwrap().0.is_empty());
    }

    #[test]
    fn exprs_equal_basics() {
        let mut p = pool();
        let ctx = CtxId::EMPTY;
        assert!(matches!(
            exprs_equal(
                &[Expr::Value(Value::Int(1))],
                &[Expr::Value(Value::Int(1))],
                &mut p,
                ctx
            ),
            EqResult::Eq
        ));
        assert!(matches!(
            exprs_equal(
                &[Expr::Value(Value::Int(1))],
                &[Expr::Value(Value::Int(2))],
                &mut p,
                ctx
            ),
            EqResult::Neq
        ));
        assert!(matches!(
            exprs_equal(&[field(Field::SrcIp)], &[field(Field::SrcIp)], &mut p, ctx),
            EqResult::Eq
        ));
        let EqResult::Unknown(t) =
            exprs_equal(&[field(Field::SrcIp)], &[field(Field::DstIp)], &mut p, ctx)
        else {
            panic!("two distinct fields are not statically equal or unequal");
        };
        assert!(matches!(p.test(t), Test::FieldField(_, _)));
        // Different lengths can never be equal.
        assert!(matches!(
            exprs_equal(&[field(Field::SrcIp)], &[], &mut p, ctx),
            EqResult::Neq
        ));
        // Tuples are flattened before comparison.
        assert!(matches!(
            exprs_equal(
                &[Expr::Tuple(vec![
                    field(Field::SrcIp),
                    Expr::Value(Value::Int(1))
                ])],
                &[field(Field::SrcIp), Expr::Value(Value::Int(1))],
                &mut p,
                ctx
            ),
            EqResult::Eq
        ));
    }
}
