//! Model-building API for linear and mixed-integer linear programs: the
//! interface `snap-core` builds the Table 2 oracle through.

use std::collections::BTreeMap;

/// A variable handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub usize);

/// The kind of a variable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VarKind {
    /// A continuous variable in `[lb, ub]` (`ub` may be `f64::INFINITY`).
    Continuous {
        /// Lower bound (must be ≥ 0; the solver works in standard form).
        lb: f64,
        /// Upper bound.
        ub: f64,
    },
    /// A binary variable in `{0, 1}`.
    Binary,
}

/// The sense of a constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// A sparse linear expression: a map from variables to coefficients.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
}

impl LinExpr {
    /// The empty expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// Add `coef * var` to the expression (accumulating).
    pub fn add(&mut self, var: VarId, coef: f64) -> &mut Self {
        *self.terms.entry(var).or_insert(0.0) += coef;
        self
    }

    /// Builder-style [`LinExpr::add`].
    pub fn with(mut self, var: VarId, coef: f64) -> Self {
        self.add(var, coef);
        self
    }

    /// Build an expression from `(var, coef)` pairs.
    pub fn from_terms(terms: impl IntoIterator<Item = (VarId, f64)>) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in terms {
            e.add(v, c);
        }
        e
    }

    /// The terms of the expression.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Is the expression empty?
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluate the expression on an assignment.
    pub fn eval(&self, assignment: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|(v, c)| c * assignment.get(v.0).copied().unwrap_or(0.0))
            .sum()
    }
}

/// A linear constraint.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Constraint {
    /// The left-hand side.
    pub expr: LinExpr,
    /// The sense.
    pub sense: Sense,
    /// The right-hand side.
    pub rhs: f64,
}

/// A linear / mixed-integer linear program (minimization).
#[derive(Clone, Debug, Default)]
pub struct Model {
    vars: Vec<VarKind>,
    objective: LinExpr,
    constraints: Vec<Constraint>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Add a continuous variable in `[lb, ub]`.
    pub fn add_var(&mut self, lb: f64, ub: f64) -> VarId {
        assert!(
            lb >= 0.0,
            "the solver works in standard form: lb must be ≥ 0"
        );
        assert!(ub >= lb, "upper bound must be at least the lower bound");
        let id = VarId(self.vars.len());
        self.vars.push(VarKind::Continuous { lb, ub });
        id
    }

    /// Add a binary variable.
    pub fn add_binary(&mut self) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarKind::Binary);
        id
    }

    /// Set the objective coefficient of a variable (minimization).
    pub fn set_objective(&mut self, var: VarId, coef: f64) {
        self.objective.add(var, coef);
    }

    /// Add a constraint.
    pub fn add_constraint(&mut self, expr: LinExpr, sense: Sense, rhs: f64) {
        self.constraints.push(Constraint { expr, sense, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The kind of a variable.
    pub fn var_kind(&self, var: VarId) -> VarKind {
        self.vars[var.0]
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The constraints.
    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The binary variables of the model.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, k)| matches!(k, VarKind::Binary).then_some(VarId(i)))
            .collect()
    }

    /// Is an assignment feasible (within `tol`) for all constraints and bounds?
    pub fn is_feasible(&self, assignment: &[f64], tol: f64) -> bool {
        if assignment.len() != self.vars.len() {
            return false;
        }
        for (i, kind) in self.vars.iter().enumerate() {
            let x = assignment[i];
            let (lb, ub) = match kind {
                VarKind::Continuous { lb, ub } => (*lb, *ub),
                VarKind::Binary => (0.0, 1.0),
            };
            if x < lb - tol || x > ub + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.eval(assignment);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// A solution to a model.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// The value of each variable, indexed by `VarId`.
    pub values: Vec<f64>,
    /// The objective value.
    pub objective: f64,
}

impl Solution {
    /// The value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// Is a (binary or near-integral) variable set, i.e. ≥ 0.5?
    pub fn is_set(&self, var: VarId) -> bool {
        self.value(var) >= 0.5
    }
}

/// Solver outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveResult {
    /// An optimal solution was found.
    Optimal(Solution),
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

impl SolveResult {
    /// Unwrap the optimal solution (panics otherwise).
    pub fn expect_optimal(self, msg: &str) -> Solution {
        match self {
            SolveResult::Optimal(s) => s,
            other => panic!("{msg}: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_small_model() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_binary();
        m.set_objective(x, 1.0);
        m.set_objective(y, -2.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 1.0), Sense::Le, 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.constraints().len(), 1);
        assert_eq!(m.binary_vars(), vec![y]);
        assert!(matches!(m.var_kind(x), VarKind::Continuous { .. }));
    }

    #[test]
    fn lin_expr_accumulates_and_evaluates() {
        let x = VarId(0);
        let y = VarId(1);
        let mut e = LinExpr::new();
        e.add(x, 1.0);
        e.add(x, 2.0);
        e.add(y, -1.0);
        assert_eq!(e.eval(&[2.0, 3.0]), 3.0 * 2.0 - 3.0);
        let e2 = LinExpr::from_terms([(x, 3.0), (y, -1.0)]);
        assert_eq!(e, e2);
        assert!(!e.is_empty());
        assert!(LinExpr::new().is_empty());
    }

    #[test]
    fn feasibility_checks_bounds_and_constraints() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0);
        let y = m.add_binary();
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 2.0), Sense::Ge, 3.0);
        assert!(m.is_feasible(&[3.0, 0.0], 1e-9));
        assert!(m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 0.0], 1e-9)); // constraint violated
        assert!(!m.is_feasible(&[5.0, 0.0], 1e-9)); // bound violated
        assert!(!m.is_feasible(&[1.0, 2.0], 1e-9)); // binary out of range
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
        let _ = x;
    }

    #[test]
    #[should_panic(expected = "standard form")]
    fn negative_lower_bound_is_rejected() {
        let mut m = Model::new();
        m.add_var(-1.0, 1.0);
    }

    #[test]
    fn solution_accessors() {
        let s = Solution {
            values: vec![0.0, 1.0, 0.3],
            objective: 4.5,
        };
        assert!(!s.is_set(VarId(0)));
        assert!(s.is_set(VarId(1)));
        assert!(!s.is_set(VarId(2)));
        assert_eq!(s.value(VarId(2)), 0.3);
        assert_eq!(SolveResult::Optimal(s.clone()).expect_optimal("optimal"), s);
    }
}
