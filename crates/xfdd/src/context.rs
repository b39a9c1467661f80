//! Contexts: the facts accumulated along a path while composing xFDDs.
//!
//! The composition algorithms of the paper (Figure 8 and Appendix E) thread a
//! `context` — the set of tests already decided on the current path, with
//! their outcomes — through their recursion. The context is used to
//! (1) `refine` away redundant or contradicting tests and (2) answer the
//! field/field and field/value equality questions that arise when an action
//! sequence is composed with a state test.
//!
//! Contexts are persistent and interned in the [`Pool`]: a non-empty context
//! is its parent's id plus one fact (an interned test and its outcome), so
//! extending one is `O(1)` and shares every older fact. Queries walk the
//! parent chain, newest fact first, but answer as if the facts were scanned
//! oldest first — when several facts bear on a query, the *oldest* one
//! decides — so diagrams come out node for node as they did when a context
//! was a cloned fact vector. That vector form survives under `#[cfg(test)]`
//! as the oracle the tests below compare against.
//!
//! A context is immutable, so what it implies about a test is a function of
//! the two ids. Composition asks the same pairs again and again (once per
//! `refine` of each operand), so the pool keeps every answer; a pair asked
//! for the first time is mostly answered from its parent context's kept
//! answer and the one newest fact, and walks the chain only when those two
//! do not settle it. Compaction renumbers both ids and remaps the kept
//! answers with them.

use crate::pool::{CtxId, Pool, TestId};
use crate::test::Test;
use snap_lang::{Field, Value};

/// One interned, non-empty context: everything `parent` knows, plus one fact.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CtxFact {
    pub(crate) parent: CtxId,
    pub(crate) test: TestId,
    pub(crate) outcome: bool,
}

impl Pool {
    /// Extend a context with the outcome of a test (interned: extending the
    /// same context with the same fact yields the same id).
    pub(crate) fn ctx_with(&mut self, ctx: CtxId, test: TestId, outcome: bool) -> CtxId {
        if let Some(&id) = self.ctx_intern.get(&(ctx, test, outcome)) {
            return id;
        }
        self.ctxs.push(CtxFact {
            parent: ctx,
            test,
            outcome,
        });
        let id = CtxId::new(self.ctxs.len());
        self.ctx_intern.insert((ctx, test, outcome), id);
        id
    }

    /// The facts of a context, newest first.
    fn ctx_facts(&self, ctx: CtxId) -> impl Iterator<Item = (TestId, bool)> + '_ {
        let mut cur = ctx;
        std::iter::from_fn(move || {
            if cur == CtxId::EMPTY {
                return None;
            }
            let fact = self.ctxs[cur.index() - 1];
            cur = fact.parent;
            Some((fact.test, fact.outcome))
        })
    }

    /// The constant value of field `f` implied by the context, if any.
    /// Prefix facts do not pin down a single value and are ignored here.
    pub(crate) fn ctx_definite_value(&self, ctx: CtxId, f: &Field) -> Option<&Value> {
        let mut oldest = None;
        for (t, outcome) in self.ctx_facts(ctx) {
            if let Test::FieldValue(tf, v) = self.test(t) {
                if outcome && tf == f && !matches!(v, Value::Prefix(_)) {
                    oldest = Some(v);
                }
            }
        }
        oldest
    }

    /// Does the context determine the outcome of an interned test?
    ///
    /// Returns `Some(true)` / `Some(false)` when the recorded facts imply the
    /// test must pass / fail, and `None` when it cannot be decided. A context
    /// never changes, so each (context, test) pair is answered once and the
    /// answer kept; every later ask is one probe. A first ask is mostly told
    /// from the parent's kept answer and the one newest fact, and walks the
    /// context only when those two do not settle it.
    pub(crate) fn ctx_implies(&mut self, ctx: CtxId, test: TestId) -> Option<bool> {
        // The empty context has no facts to walk.
        if ctx == CtxId::EMPTY {
            return self.implies_by_walk(ctx, test);
        }
        if let Some(&answer) = self.ctx_answers.get(&(ctx, test)) {
            return answer;
        }
        let answer = self
            .implies_from_parent(ctx, test)
            .unwrap_or_else(|| self.implies_by_walk(ctx, test));
        self.ctx_answers.insert((ctx, test), answer);
        answer
    }

    /// [`Pool::ctx_implies`]'s answer for a non-empty context, told from the
    /// parent's answer (when kept) and the newest fact; `None` when those
    /// two do not settle it.
    fn implies_from_parent(&self, ctx: CtxId, id: TestId) -> Option<Option<bool>> {
        let fact = self.ctxs[ctx.index() - 1];
        let before = match fact.parent {
            CtxId::EMPTY => self.implies_by_walk(CtxId::EMPTY, id),
            parent => *self.ctx_answers.get(&(parent, id))?,
        };
        let same_test = fact.test == id || Some(fact.test) == self.test_mirrors[id.index()];
        match before {
            // Older facts decide — except that a fact on the test itself
            // outranks value facts of any age, so a newest one that says
            // otherwise leaves it open which of the two the parent used.
            Some(decided) => (!same_test || fact.outcome == decided).then_some(Some(decided)),
            None if same_test => Some(Some(fact.outcome)),
            None => match self.test(id) {
                Test::FieldValue(f, v) => Some(match self.test(fact.test) {
                    Test::FieldValue(tf, tv) if tf == f => fact_decides(tv, fact.outcome, v),
                    _ => None,
                }),
                // The parent may know one side's value without the other;
                // its answer does not say.
                Test::FieldField(..) => None,
                Test::State { .. } => Some(None),
            },
        }
    }

    /// [`Pool::ctx_implies`]'s answer, found by walking the context (and the
    /// oracle its kept answers are tested against).
    pub(crate) fn implies_by_walk(&self, ctx: CtxId, id: TestId) -> Option<bool> {
        let test = self.test(id);
        // A field-field fact also decides its mirror image.
        let mirror = self.test_mirrors[id.index()];
        // One walk, newest fact first; each `Option` is overwritten as older
        // facts are met, so it ends up holding what the oldest one says.
        let mut same_test = None;
        let mut by_value = None;
        let (mut value_f, mut value_g) = (None, None);
        for (t, outcome) in self.ctx_facts(ctx) {
            if t == id || Some(t) == mirror {
                same_test = Some(outcome);
            }
            let Test::FieldValue(tf, tv) = self.test(t) else {
                continue;
            };
            match test {
                Test::FieldValue(f, v) if tf == f => {
                    if let Some(decided) = fact_decides(tv, outcome, v) {
                        by_value = Some(decided);
                    }
                }
                Test::FieldField(f, g) if outcome && !matches!(tv, Value::Prefix(_)) => {
                    if tf == f {
                        value_f = Some(tv);
                    }
                    if tf == g {
                        value_g = Some(tv);
                    }
                }
                _ => {}
            }
        }
        same_test.or(match test {
            Test::FieldValue(..) => by_value,
            Test::FieldField(f, g) if f == g => Some(true),
            Test::FieldField(..) => match (value_f, value_g) {
                (Some(a), Some(b)) => Some(a == b),
                _ => None,
            },
            Test::State { .. } => None,
        })
    }
}

/// What the fact "the field does (`outcome`) or does not match `known`" says
/// about whether the same field matches `v`, if anything.
fn fact_decides(known: &Value, outcome: bool, v: &Value) -> Option<bool> {
    if outcome {
        match (known, v) {
            // Exact known value: decide anything.
            (a, b) if a == b => Some(true),
            (Value::Ip(ip), Value::Prefix(p)) => Some(p.contains(*ip)),
            (Value::Ip(_), Value::Ip(_)) => Some(false),
            (Value::Prefix(known), Value::Prefix(q)) => {
                if q.contains_prefix(known) {
                    Some(true)
                } else if !q.overlaps(known) {
                    Some(false)
                } else {
                    // Overlapping but not containing: undecided.
                    None
                }
            }
            // The field may still be anywhere inside `known`: undecided
            // unless the address falls outside it.
            (Value::Prefix(known), Value::Ip(ip)) if !known.contains(*ip) => Some(false),
            // Two distinct non-IP constants cannot both match.
            (a, b) if !matches!(a, Value::Prefix(_)) && !matches!(b, Value::Prefix(_)) => {
                Some(false)
            }
            _ => None,
        }
    } else {
        match (known, v) {
            (a, b) if a == b => Some(false),
            (Value::Prefix(known), Value::Ip(ip)) if known.contains(*ip) => Some(false),
            (Value::Prefix(known), Value::Prefix(q)) if known.contains_prefix(q) => Some(false),
            _ => None,
        }
    }
}

/// The reference implementation the persistent contexts replaced, kept as
/// their oracle: a cloned vector of facts, scanned oldest first.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub(crate) struct Context {
    facts: Vec<(Test, bool)>,
}

#[cfg(test)]
impl Context {
    /// The empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Extend the context with the outcome of a test.
    pub fn with(&self, test: Test, outcome: bool) -> Context {
        let mut c = self.clone();
        c.facts.push((test, outcome));
        c
    }

    /// How many facts the context holds (used only by tests).
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The constant value of field `f` implied by the context, if any.
    /// Prefix facts do not pin down a single value and are ignored here.
    pub fn definite_value(&self, f: &Field) -> Option<Value> {
        for (t, outcome) in &self.facts {
            if let Test::FieldValue(tf, v) = t {
                if *outcome && tf == f && !matches!(v, Value::Prefix(_)) {
                    return Some(v.clone());
                }
            }
        }
        None
    }

    /// Does the context determine the outcome of `test`?
    ///
    /// Returns `Some(true)` / `Some(false)` when the recorded facts imply the
    /// test must pass / fail, and `None` when it cannot be decided.
    pub fn implies(&self, test: &Test) -> Option<bool> {
        // Exact (or symmetric, for field-field) matches first.
        for (t, outcome) in &self.facts {
            if t == test {
                return Some(*outcome);
            }
            if let (Test::FieldField(a1, b1), Test::FieldField(a2, b2)) = (t, test) {
                if a1 == b2 && b1 == a2 {
                    return Some(*outcome);
                }
            }
        }
        match test {
            Test::FieldValue(f, v) => self.implies_field_value(f, v),
            Test::FieldField(f, g) => {
                if f == g {
                    return Some(true);
                }
                match (self.definite_value(f), self.definite_value(g)) {
                    (Some(a), Some(b)) => Some(a == b),
                    _ => None,
                }
            }
            Test::State { .. } => None,
        }
    }

    fn implies_field_value(&self, f: &Field, v: &Value) -> Option<bool> {
        for (t, outcome) in &self.facts {
            let (tf, tv) = match t {
                Test::FieldValue(tf, tv) => (tf, tv),
                _ => continue,
            };
            if tf != f {
                continue;
            }
            if *outcome {
                // We know the field matches `tv`.
                match (tv, v) {
                    // Exact known value: decide anything.
                    (a, b) if a == b => return Some(true),
                    (Value::Ip(ip), Value::Prefix(p)) => return Some(p.contains(*ip)),
                    (Value::Ip(_), Value::Ip(_)) => return Some(false),
                    (Value::Prefix(known), Value::Prefix(q)) => {
                        if q.contains_prefix(known) {
                            return Some(true);
                        }
                        if !q.overlaps(known) {
                            return Some(false);
                        }
                        // Overlapping but not containing: undecided; keep looking.
                    }
                    // The field may still be anywhere inside `known`:
                    // undecided unless the address falls outside it.
                    (Value::Prefix(known), Value::Ip(ip)) if !known.contains(*ip) => {
                        return Some(false)
                    }
                    // Two distinct non-IP constants cannot both match.
                    (a, b) if !matches!(a, Value::Prefix(_)) && !matches!(b, Value::Prefix(_)) => {
                        return Some(false)
                    }
                    _ => {}
                }
            } else {
                // We know the field does *not* match `tv`.
                match (tv, v) {
                    (a, b) if a == b => return Some(false),
                    (Value::Prefix(known), Value::Ip(ip)) if known.contains(*ip) => {
                        return Some(false)
                    }
                    (Value::Prefix(known), Value::Prefix(q)) if known.contains_prefix(q) => {
                        return Some(false)
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::VarOrder;
    use proptest::prelude::*;

    fn fv(f: Field, v: Value) -> Test {
        Test::FieldValue(f, v)
    }

    /// The same facts as a persistent context and as the oracle; every query
    /// is answered by both, which must agree.
    struct Both {
        pool: Pool,
        ctx: CtxId,
        oracle: Context,
    }

    impl Both {
        fn new() -> Both {
            Both {
                pool: Pool::new(VarOrder::empty()),
                ctx: CtxId::EMPTY,
                oracle: Context::new(),
            }
        }

        fn with(mut self, test: Test, outcome: bool) -> Both {
            let id = self.pool.intern_test(test.clone());
            self.ctx = self.pool.ctx_with(self.ctx, id, outcome);
            self.oracle = self.oracle.with(test, outcome);
            self
        }

        fn implies(&mut self, test: &Test) -> Option<bool> {
            let expected = self.oracle.implies(test);
            // Asked by id (interning the query adds no fact), the walk
            // answers as the fact vector does...
            let id = self.pool.intern_test(test.clone());
            assert_eq!(self.pool.implies_by_walk(self.ctx, id), expected);
            // ...and so does the path `refine` takes, twice: the second
            // answer is the one the pool kept from the first.
            assert_eq!(self.pool.ctx_implies(self.ctx, id), expected);
            assert_eq!(self.pool.ctx_implies(self.ctx, id), expected);
            expected
        }

        fn definite_value(&self, f: &Field) -> Option<Value> {
            let expected = self.oracle.definite_value(f);
            assert_eq!(self.pool.ctx_definite_value(self.ctx, f).cloned(), expected);
            expected
        }
    }

    #[test]
    fn exact_fact_is_implied() {
        let t = fv(Field::SrcPort, Value::Int(53));
        let mut ctx = Both::new().with(t.clone(), true);
        assert_eq!(ctx.implies(&t), Some(true));
        let mut ctx = Both::new().with(t.clone(), false);
        assert_eq!(ctx.implies(&t), Some(false));
        assert!(Both::new().implies(&t).is_none());
    }

    #[test]
    fn distinct_constants_exclude_each_other() {
        let mut ctx = Both::new().with(fv(Field::SrcPort, Value::Int(53)), true);
        assert_eq!(
            ctx.implies(&fv(Field::SrcPort, Value::Int(80))),
            Some(false)
        );
        assert_eq!(ctx.implies(&fv(Field::DstPort, Value::Int(80))), None);
    }

    #[test]
    fn ip_inside_prefix_is_implied() {
        let mut ctx = Both::new().with(fv(Field::DstIp, Value::ip(10, 0, 6, 9)), true);
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::prefix(10, 0, 6, 0, 24))),
            Some(true)
        );
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::prefix(10, 0, 5, 0, 24))),
            Some(false)
        );
    }

    #[test]
    fn prefix_knowledge_decides_sub_and_disjoint_prefixes() {
        let mut ctx = Both::new().with(fv(Field::DstIp, Value::prefix(10, 0, 6, 0, 25)), true);
        // 10.0.6.0/25 is inside 10.0.6.0/24.
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::prefix(10, 0, 6, 0, 24))),
            Some(true)
        );
        // Disjoint prefix.
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::prefix(10, 0, 7, 0, 24))),
            Some(false)
        );
        // A narrower sub-prefix cannot be decided.
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::prefix(10, 0, 6, 0, 26))),
            None
        );
        // A specific address inside the known prefix cannot be decided.
        assert_eq!(ctx.implies(&fv(Field::DstIp, Value::ip(10, 0, 6, 3))), None);
    }

    #[test]
    fn negative_prefix_fact_excludes_contained_addresses() {
        let mut ctx = Both::new().with(fv(Field::DstIp, Value::prefix(10, 0, 6, 0, 24)), false);
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::ip(10, 0, 6, 3))),
            Some(false)
        );
        assert_eq!(ctx.implies(&fv(Field::DstIp, Value::ip(10, 0, 7, 3))), None);
        // Sub-prefix is also excluded.
        assert_eq!(
            ctx.implies(&fv(Field::DstIp, Value::prefix(10, 0, 6, 128, 25))),
            Some(false)
        );
    }

    #[test]
    fn field_field_implication() {
        let same = Test::FieldField(Field::SrcIp, Field::SrcIp);
        assert_eq!(Both::new().implies(&same), Some(true));
        let ff = Test::FieldField(Field::SrcIp, Field::DstIp);
        let sym = Test::FieldField(Field::DstIp, Field::SrcIp);
        let mut ctx = Both::new().with(ff.clone(), true);
        assert_eq!(ctx.implies(&sym), Some(true));
        // Known constant values decide field-field tests.
        let mut ctx = Both::new()
            .with(fv(Field::SrcIp, Value::ip(1, 1, 1, 1)), true)
            .with(fv(Field::DstIp, Value::ip(1, 1, 1, 1)), true);
        assert_eq!(ctx.implies(&ff), Some(true));
        let mut ctx = Both::new()
            .with(fv(Field::SrcIp, Value::ip(1, 1, 1, 1)), true)
            .with(fv(Field::DstIp, Value::ip(2, 2, 2, 2)), true);
        assert_eq!(ctx.implies(&ff), Some(false));
    }

    #[test]
    fn kept_answers_belong_to_their_context() {
        // Each query is first asked where it is open, then again after a
        // newer fact settles it: an answer kept for the parent must not
        // stand for the child.
        let t = fv(Field::SrcPort, Value::Int(53));
        let mut ctx = Both::new().with(fv(Field::DstPort, Value::Int(80)), true);
        assert_eq!(ctx.implies(&t), None);
        let mut ctx = ctx.with(fv(Field::SrcPort, Value::Int(80)), true);
        assert_eq!(ctx.implies(&t), Some(false));
        // A field-field test interned before its mirror image is decided
        // by a later fact on the mirror.
        let ff = Test::FieldField(Field::SrcIp, Field::DstIp);
        assert_eq!(ctx.implies(&ff), None);
        let mut ctx = ctx.with(Test::FieldField(Field::DstIp, Field::SrcIp), true);
        assert_eq!(ctx.implies(&ff), Some(true));
    }

    #[test]
    fn definite_value_ignores_prefixes() {
        let ctx = Both::new()
            .with(fv(Field::DstIp, Value::prefix(10, 0, 6, 0, 24)), true)
            .with(fv(Field::SrcPort, Value::Int(53)), true);
        assert_eq!(ctx.definite_value(&Field::DstIp), None);
        assert_eq!(ctx.definite_value(&Field::SrcPort), Some(Value::Int(53)));
        assert!(!ctx.oracle.is_empty());
        assert_eq!(ctx.oracle.len(), 2);
    }
    // Few fields and values, so facts collide: repeated and contradicting
    // facts, overlapping prefixes where an older fact leaves the question
    // open and a newer one settles it, mirrored field-field tests.
    fn arb_field() -> impl Strategy<Value = Field> {
        prop_oneof![Just(Field::SrcIp), Just(Field::DstIp), Just(Field::SrcPort)]
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..3).prop_map(Value::Int),
            (0u8..4).prop_map(|d| Value::ip(10, 0, 0, d * 64)),
            (0u8..2, 24u8..27).prop_map(|(d, len)| Value::prefix(10, 0, 0, d * 128, len)),
            Just(Value::prefix(10, 0, 0, 0, 8)),
        ]
    }

    fn arb_test() -> impl Strategy<Value = Test> {
        prop_oneof![
            (arb_field(), arb_value()).prop_map(|(f, v)| Test::FieldValue(f, v)),
            (arb_field(), arb_value()).prop_map(|(f, v)| Test::FieldValue(f, v)),
            (arb_field(), arb_field()).prop_map(|(f, g)| Test::FieldField(f, g)),
            (0i64..2).prop_map(|i| Test::State {
                var: snap_lang::StateVar::new("s"),
                index: vec![snap_lang::Expr::Field(Field::SrcIp)],
                value: snap_lang::Expr::Value(Value::Int(i)),
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn persistent_contexts_answer_like_the_fact_vector(
            facts in proptest::collection::vec((arb_test(), any::<bool>()), 0..12),
            queries in proptest::collection::vec(arb_test(), 1..8),
        ) {
            let mut ctx = Both::new();
            for (test, outcome) in facts {
                ctx = ctx.with(test, outcome);
                // Every prefix of the fact sequence is a context of its own.
                for query in &queries {
                    ctx.implies(query);
                }
                for f in [Field::SrcIp, Field::DstIp, Field::SrcPort] {
                    ctx.definite_value(&f);
                }
            }
        }
    }

    #[test]
    fn an_older_undecided_prefix_fact_does_not_hide_a_newer_deciding_one() {
        // 10.0.0.0/24 overlaps 10.0.0.0/25 without being contained in it:
        // the oldest fact leaves the query open ("keep looking"), the next
        // one settles it — and a third, contradicting fact is too new to
        // matter.
        let query = fv(Field::DstIp, Value::prefix(10, 0, 0, 0, 25));
        let mut ctx = Both::new()
            .with(fv(Field::DstIp, Value::prefix(10, 0, 0, 0, 24)), true)
            .with(fv(Field::DstIp, Value::ip(10, 0, 0, 200)), true)
            .with(fv(Field::DstIp, Value::ip(10, 0, 0, 3)), true);
        assert_eq!(ctx.implies(&query), Some(false));
        assert_eq!(
            ctx.definite_value(&Field::DstIp),
            Some(Value::ip(10, 0, 0, 200))
        );
    }
}
