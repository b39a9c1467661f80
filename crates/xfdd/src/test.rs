//! xFDD tests and the total test order (§4.2).
//!
//! An xFDD branch node carries one of three kinds of tests: field-value
//! (`f = v`), field-field (`f1 = f2`, an extension needed when composing
//! stateful operations) and state (`s[e] = e`). The paper requires a total
//! order on tests so that every path of a composed diagram mentions each test
//! at most once: *all field-value tests precede all field-field tests, which
//! precede all state tests*; state tests are ordered by the state-variable
//! order derived from the dependency graph.

use snap_lang::{Expr, Field, StateVar, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A test at an xFDD branch node.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Test {
    /// `f = v`
    FieldValue(Field, Value),
    /// `f1 = f2` — do two header fields of the packet hold equal values?
    FieldField(Field, Field),
    /// `s[⇀e] = e`
    State {
        /// The state variable read.
        var: StateVar,
        /// Index expressions (over the *original* packet header).
        index: Vec<Expr>,
        /// Compared value expression.
        value: Expr,
    },
}

impl Test {
    /// The state variable this test reads, if it is a state test.
    pub fn state_var(&self) -> Option<&StateVar> {
        match self {
            Test::State { var, .. } => Some(var),
            _ => None,
        }
    }

    /// Rank of the test *kind* in the global order.
    fn kind_rank(&self) -> u8 {
        match self {
            Test::FieldValue(_, _) => 0,
            Test::FieldField(_, _) => 1,
            Test::State { .. } => 2,
        }
    }

    /// Compare two tests under the given state-variable order.
    pub fn cmp_in(&self, other: &Test, order: &VarOrder) -> Ordering {
        match self.kind_rank().cmp(&other.kind_rank()) {
            Ordering::Equal => {}
            o => return o,
        }
        match (self, other) {
            (Test::FieldValue(f1, v1), Test::FieldValue(f2, v2)) => (f1, v1).cmp(&(f2, v2)),
            (Test::FieldField(a1, b1), Test::FieldField(a2, b2)) => (a1, b1).cmp(&(a2, b2)),
            (
                Test::State {
                    var: s1,
                    index: i1,
                    value: v1,
                },
                Test::State {
                    var: s2,
                    index: i2,
                    value: v2,
                },
            ) => order
                .rank(s1)
                .cmp(&order.rank(s2))
                .then_with(|| s1.cmp(s2))
                .then_with(|| i1.cmp(i2))
                .then_with(|| v1.cmp(v2)),
            _ => unreachable!("kind ranks already compared"),
        }
    }
}

impl fmt::Debug for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Test::FieldValue(field, v) => write!(f, "{field} = {v}"),
            Test::FieldField(a, b) => write!(f, "{a} = {b}"),
            Test::State { var, index, value } => {
                write!(f, "{var}")?;
                for e in index {
                    write!(f, "[{e:?}]")?;
                }
                write!(f, " = {value:?}")
            }
        }
    }
}

/// The state-variable order used to place state tests in xFDDs.
///
/// Derived from the SCC condensation of the state dependency graph (see
/// [`crate::deps`]); variables not in the order are ranked after all ordered
/// ones and tie-broken by name, so an order built from an incomplete variable
/// list still yields a total order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarOrder {
    ranks: BTreeMap<StateVar, usize>,
}

impl VarOrder {
    /// An order over the given variables (first = smallest).
    pub fn new(vars: impl IntoIterator<Item = StateVar>) -> Self {
        let mut ranks = BTreeMap::new();
        for (i, v) in vars.into_iter().enumerate() {
            ranks.entry(v).or_insert(i);
        }
        VarOrder { ranks }
    }

    /// An empty order (all variables tie-broken by name); convenient for
    /// stateless programs and unit tests.
    pub fn empty() -> Self {
        VarOrder::default()
    }

    /// The rank of a variable (unknown variables rank last).
    pub fn rank(&self, var: &StateVar) -> usize {
        self.ranks.get(var).copied().unwrap_or(usize::MAX)
    }

    /// The variables of this order, most-significant first.
    pub fn variables(&self) -> Vec<StateVar> {
        let mut vs: Vec<(usize, StateVar)> =
            self.ranks.iter().map(|(v, r)| (*r, v.clone())).collect();
        vs.sort();
        vs.into_iter().map(|(_, v)| v).collect()
    }

    /// Does the order mention this variable?
    pub fn contains(&self, var: &StateVar) -> bool {
        self.ranks.contains_key(var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::field;

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    fn state_test(var: &str) -> Test {
        Test::State {
            var: sv(var),
            index: vec![field(Field::SrcIp)],
            value: Expr::Value(Value::Bool(true)),
        }
    }

    #[test]
    fn kind_order_field_value_then_field_field_then_state() {
        let order = VarOrder::empty();
        let fv = Test::FieldValue(Field::SrcPort, Value::Int(53));
        let ff = Test::FieldField(Field::SrcIp, Field::DstIp);
        let st = state_test("s");
        assert_eq!(fv.cmp_in(&ff, &order), Ordering::Less);
        assert_eq!(ff.cmp_in(&st, &order), Ordering::Less);
        assert_eq!(fv.cmp_in(&st, &order), Ordering::Less);
        assert_eq!(st.cmp_in(&fv, &order), Ordering::Greater);
    }

    #[test]
    fn state_tests_ordered_by_var_order() {
        let order = VarOrder::new(vec![sv("orphan"), sv("susp-client"), sv("blacklist")]);
        let a = state_test("orphan");
        let b = state_test("susp-client");
        let c = state_test("blacklist");
        assert_eq!(a.cmp_in(&b, &order), Ordering::Less);
        assert_eq!(b.cmp_in(&c, &order), Ordering::Less);
        // Reversing the order reverses the comparison.
        let order2 = VarOrder::new(vec![sv("blacklist"), sv("susp-client"), sv("orphan")]);
        assert_eq!(a.cmp_in(&b, &order2), Ordering::Greater);
    }

    #[test]
    fn unknown_vars_rank_last_and_tie_break_by_name() {
        let order = VarOrder::new(vec![sv("known")]);
        let known = state_test("known");
        let zzz = state_test("zzz");
        let aaa = state_test("aaa");
        assert_eq!(known.cmp_in(&zzz, &order), Ordering::Less);
        assert_eq!(aaa.cmp_in(&zzz, &order), Ordering::Less);
        assert!(!order.contains(&sv("aaa")));
        assert!(order.contains(&sv("known")));
    }

    #[test]
    fn identical_tests_compare_equal() {
        let order = VarOrder::empty();
        let a = Test::FieldValue(Field::DstIp, Value::prefix(10, 0, 6, 0, 24));
        assert_eq!(a.cmp_in(&a.clone(), &order), Ordering::Equal);
        let s = state_test("s");
        assert_eq!(s.cmp_in(&s.clone(), &order), Ordering::Equal);
    }

    #[test]
    fn var_order_roundtrip() {
        let order = VarOrder::new(vec![sv("a"), sv("b"), sv("c")]);
        assert_eq!(order.variables(), vec![sv("a"), sv("b"), sv("c")]);
        assert_eq!(order.rank(&sv("a")), 0);
        assert_eq!(order.rank(&sv("c")), 2);
    }

    #[test]
    fn duplicate_vars_keep_first_rank() {
        let order = VarOrder::new(vec![sv("a"), sv("b"), sv("a")]);
        assert_eq!(order.rank(&sv("a")), 0);
        assert_eq!(order.rank(&sv("b")), 1);
    }
}
