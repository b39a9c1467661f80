//! Abstract syntax of SNAP programs (paper Figure 4).
//!
//! A SNAP program is built from *predicates* (which filter packets and may
//! read state) and *policies* (which may additionally modify packets and
//! state, and compose in parallel or sequence).

use crate::value::{Field, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A global, persistent state variable (array), e.g. `orphan` or `susp-client`.
///
/// The name is immutable shared text, like [`Value::Str`]: a variable is
/// copied into every test, action, placement and per-switch variable set
/// that mentions it, and each of those copies is a reference-count bump.
/// Ordering, equality, hashing and display are those of the name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateVar(pub Arc<str>);

impl StateVar {
    /// Create a state variable by name.
    pub fn new(name: impl Into<String>) -> Self {
        StateVar(name.into().into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for StateVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for StateVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for StateVar {
    fn from(s: &str) -> Self {
        StateVar::new(s)
    }
}

/// An expression: a value, a packet field, or a vector of expressions
/// (the paper's `e ::= v | f | ⇀e`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A literal value.
    Value(Value),
    /// The value of a packet header field.
    Field(Field),
    /// A vector of sub-expressions.
    Tuple(Vec<Expr>),
}

impl Expr {
    /// All packet fields referenced by this expression.
    pub fn fields(&self) -> BTreeSet<Field> {
        let mut out = BTreeSet::new();
        self.collect_fields(&mut out);
        out
    }

    fn collect_fields(&self, out: &mut BTreeSet<Field>) {
        match self {
            Expr::Value(_) => {}
            Expr::Field(f) => {
                out.insert(f.clone());
            }
            Expr::Tuple(es) => {
                for e in es {
                    e.collect_fields(out);
                }
            }
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Value(v) => write!(f, "{v}"),
            Expr::Field(field) => write!(f, "{field}"),
            Expr::Tuple(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Self {
        Expr::Value(v)
    }
}

impl From<Field> for Expr {
    fn from(f: Field) -> Self {
        Expr::Field(f)
    }
}

impl From<i64> for Expr {
    fn from(i: i64) -> Self {
        Expr::Value(Value::Int(i))
    }
}

impl From<bool> for Expr {
    fn from(b: bool) -> Self {
        Expr::Value(Value::Bool(b))
    }
}

/// A predicate (paper Figure 4, `x, y ∈ Pred`). Predicates never modify the
/// packet or the state; they pass or drop the input packet, possibly reading
/// state along the way.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pred {
    /// `id` — pass every packet.
    Id,
    /// `drop` — drop every packet.
    Drop,
    /// `f = v` — field test.
    Test(Field, Value),
    /// `¬x` — negation.
    Not(Box<Pred>),
    /// `x | y` — disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// `x & y` — conjunction.
    And(Box<Pred>, Box<Pred>),
    /// `s[⇀e] = e` — state test.
    StateTest {
        /// The state variable read.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
        /// Expected value.
        value: Expr,
    },
}

impl Pred {
    /// `¬self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// `self & other`
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// `self | other`
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// State variables read by this predicate.
    pub fn reads(&self) -> BTreeSet<StateVar> {
        let mut out = BTreeSet::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut BTreeSet<StateVar>) {
        match self {
            Pred::Id | Pred::Drop | Pred::Test(_, _) => {}
            Pred::Not(x) => x.collect_reads(out),
            Pred::Or(x, y) | Pred::And(x, y) => {
                x.collect_reads(out);
                y.collect_reads(out);
            }
            Pred::StateTest { var, .. } => {
                out.insert(var.clone());
            }
        }
    }

    /// Packet fields referenced by this predicate.
    pub fn fields(&self) -> BTreeSet<Field> {
        let mut out = BTreeSet::new();
        self.collect_fields(&mut out);
        out
    }

    fn collect_fields(&self, out: &mut BTreeSet<Field>) {
        match self {
            Pred::Id | Pred::Drop => {}
            Pred::Test(f, _) => {
                out.insert(f.clone());
            }
            Pred::Not(x) => x.collect_fields(out),
            Pred::Or(x, y) | Pred::And(x, y) => {
                x.collect_fields(out);
                y.collect_fields(out);
            }
            Pred::StateTest { index, value, .. } => {
                for e in index {
                    e.collect_fields(out);
                }
                value.collect_fields(out);
            }
        }
    }
}

/// A policy (paper Figure 4, `p, q ∈ Pol`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Policy {
    /// A predicate used as a filter.
    Filter(Pred),
    /// `f ← v` — field modification.
    Modify(Field, Value),
    /// `p + q` — parallel composition.
    Par(Box<Policy>, Box<Policy>),
    /// `p ; q` — sequential composition.
    Seq(Box<Policy>, Box<Policy>),
    /// `s[⇀e] ← e` — state modification.
    StateSet {
        /// The state variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
        /// New value.
        value: Expr,
    },
    /// `s[⇀e]++` — increment.
    StateIncr {
        /// The state variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
    },
    /// `s[⇀e]--` — decrement.
    StateDecr {
        /// The state variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
    },
    /// `if a then p else q`.
    If(Pred, Box<Policy>, Box<Policy>),
    /// `atomic(p)` — network transaction; all state in `p` is co-located and
    /// updated atomically.
    Atomic(Box<Policy>),
}

impl Policy {
    /// The identity policy.
    pub fn id() -> Policy {
        Policy::Filter(Pred::Id)
    }

    /// The drop policy.
    pub fn drop() -> Policy {
        Policy::Filter(Pred::Drop)
    }

    /// `self ; other`
    pub fn seq(self, other: Policy) -> Policy {
        Policy::Seq(Box::new(self), Box::new(other))
    }

    /// `self + other`
    pub fn par(self, other: Policy) -> Policy {
        Policy::Par(Box::new(self), Box::new(other))
    }

    /// `atomic(self)`
    pub fn atomic(self) -> Policy {
        Policy::Atomic(Box::new(self))
    }

    /// Sequentially compose a list of policies (`id` when empty).
    pub fn seq_all(policies: impl IntoIterator<Item = Policy>) -> Policy {
        let mut it = policies.into_iter();
        match it.next() {
            None => Policy::id(),
            Some(first) => it.fold(first, |acc, p| acc.seq(p)),
        }
    }

    /// Parallel-compose a list of policies (`drop` when empty).
    pub fn par_all(policies: impl IntoIterator<Item = Policy>) -> Policy {
        let mut it = policies.into_iter();
        match it.next() {
            None => Policy::drop(),
            Some(first) => it.fold(first, |acc, p| acc.par(p)),
        }
    }

    /// State variables read by this policy (including tests in conditionals).
    pub fn reads(&self) -> BTreeSet<StateVar> {
        let mut out = BTreeSet::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut BTreeSet<StateVar>) {
        match self {
            Policy::Filter(x) => x.collect_reads(out),
            Policy::Modify(_, _) => {}
            Policy::Par(p, q) | Policy::Seq(p, q) => {
                p.collect_reads(out);
                q.collect_reads(out);
            }
            Policy::StateSet { .. } | Policy::StateIncr { .. } | Policy::StateDecr { .. } => {}
            Policy::If(a, p, q) => {
                a.collect_reads(out);
                p.collect_reads(out);
                q.collect_reads(out);
            }
            Policy::Atomic(p) => p.collect_reads(out),
        }
    }

    /// State variables written by this policy.
    pub fn writes(&self) -> BTreeSet<StateVar> {
        let mut out = BTreeSet::new();
        self.collect_writes(&mut out);
        out
    }

    fn collect_writes(&self, out: &mut BTreeSet<StateVar>) {
        match self {
            Policy::Filter(_) | Policy::Modify(_, _) => {}
            Policy::Par(p, q) | Policy::Seq(p, q) => {
                p.collect_writes(out);
                q.collect_writes(out);
            }
            Policy::StateSet { var, .. }
            | Policy::StateIncr { var, .. }
            | Policy::StateDecr { var, .. } => {
                out.insert(var.clone());
            }
            Policy::If(_, p, q) => {
                p.collect_writes(out);
                q.collect_writes(out);
            }
            Policy::Atomic(p) => p.collect_writes(out),
        }
    }

    /// All state variables mentioned by this policy (reads ∪ writes).
    pub fn state_vars(&self) -> BTreeSet<StateVar> {
        let mut out = self.reads();
        out.extend(self.writes());
        out
    }

    /// All packet fields referenced by this policy.
    pub fn fields(&self) -> BTreeSet<Field> {
        let mut out = BTreeSet::new();
        self.collect_fields(&mut out);
        out
    }

    fn collect_fields(&self, out: &mut BTreeSet<Field>) {
        match self {
            Policy::Filter(x) => x.collect_fields(out),
            Policy::Modify(f, _) => {
                out.insert(f.clone());
            }
            Policy::Par(p, q) | Policy::Seq(p, q) => {
                p.collect_fields(out);
                q.collect_fields(out);
            }
            Policy::StateSet { index, value, .. } => {
                for e in index {
                    e.collect_fields(out);
                }
                value.collect_fields(out);
            }
            Policy::StateIncr { index, .. } | Policy::StateDecr { index, .. } => {
                for e in index {
                    e.collect_fields(out);
                }
            }
            Policy::If(a, p, q) => {
                a.collect_fields(out);
                p.collect_fields(out);
                q.collect_fields(out);
            }
            Policy::Atomic(p) => p.collect_fields(out),
        }
    }

    /// Size of the AST (number of nodes), useful for reporting and fuzzing.
    pub fn size(&self) -> usize {
        match self {
            Policy::Filter(x) => pred_size(x),
            Policy::Modify(_, _)
            | Policy::StateSet { .. }
            | Policy::StateIncr { .. }
            | Policy::StateDecr { .. } => 1,
            Policy::Par(p, q) | Policy::Seq(p, q) => 1 + p.size() + q.size(),
            Policy::If(a, p, q) => 1 + pred_size(a) + p.size() + q.size(),
            Policy::Atomic(p) => 1 + p.size(),
        }
    }
}

fn pred_size(p: &Pred) -> usize {
    match p {
        Pred::Id | Pred::Drop | Pred::Test(_, _) | Pred::StateTest { .. } => 1,
        Pred::Not(x) => 1 + pred_size(x),
        Pred::Or(x, y) | Pred::And(x, y) => 1 + pred_size(x) + pred_size(y),
    }
}

impl From<Pred> for Policy {
    fn from(p: Pred) -> Self {
        Policy::Filter(p)
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::pred_to_string(self))
    }
}

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::policy_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn reads_and_writes() {
        // if s[srcip] = 1 then t[dstip] <- 2 else u[srcip]++
        let p = ite(
            state_test("s", vec![field(Field::SrcIp)], int(1)),
            state_set("t", vec![field(Field::DstIp)], int(2)),
            state_incr("u", vec![field(Field::SrcIp)]),
        );
        assert_eq!(p.reads(), [StateVar::new("s")].into_iter().collect());
        assert_eq!(
            p.writes(),
            [StateVar::new("t"), StateVar::new("u")]
                .into_iter()
                .collect()
        );
        assert_eq!(p.state_vars().len(), 3);
    }

    #[test]
    fn fields_collection() {
        let p = test(Field::DstIp, Value::prefix(10, 0, 6, 0, 24))
            .and(test(Field::SrcPort, Value::Int(53)));
        let fields = p.fields();
        assert!(fields.contains(&Field::DstIp));
        assert!(fields.contains(&Field::SrcPort));
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn seq_all_and_par_all() {
        assert_eq!(Policy::seq_all(vec![]), Policy::id());
        assert_eq!(Policy::par_all(vec![]), Policy::drop());
        let p = Policy::seq_all(vec![Policy::id(), Policy::drop()]);
        assert_eq!(p, Policy::id().seq(Policy::drop()));
    }

    #[test]
    fn policy_size() {
        let p = Policy::id()
            .seq(Policy::drop())
            .par(modify(Field::OutPort, Value::Int(1)));
        assert_eq!(p.size(), 1 + (1 + 1 + 1) + 1);
    }

    #[test]
    fn expr_fields() {
        let e = Expr::Tuple(vec![
            Expr::Field(Field::SrcIp),
            Expr::Value(Value::Int(1)),
            Expr::Field(Field::DstIp),
        ]);
        assert_eq!(e.fields().len(), 2);
    }
}
