//! Property-based tests for the LP/MILP solver: whatever the solver returns
//! must be feasible, and no sampled feasible point may beat it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_milp::{solve_lp, solve_milp, LinExpr, Model, Sense, SolveResult, VarId};

/// A random bounded LP: variables in [0, ub], a handful of ≤ constraints with
/// non-negative coefficients (so the origin is always feasible and the
/// problem is never unbounded upward), and a mixed-sign objective.
fn random_lp(seed: u64, nvars: usize, ncons: usize, binaries: bool) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new();
    let mut vars = Vec::new();
    for _ in 0..nvars {
        let v = if binaries && rng.gen_bool(0.5) {
            m.add_binary()
        } else {
            m.add_var(0.0, rng.gen_range(1.0..5.0))
        };
        m.set_objective(v, rng.gen_range(-3.0..3.0));
        vars.push(v);
    }
    for _ in 0..ncons {
        let mut e = LinExpr::new();
        for &v in &vars {
            if rng.gen_bool(0.6) {
                e.add(v, rng.gen_range(0.0..2.0));
            }
        }
        if !e.is_empty() {
            m.add_constraint(e, Sense::Le, rng.gen_range(1.0..6.0));
        }
    }
    m
}

/// Sample random feasible points of the box, keeping those satisfying all
/// constraints.
fn sample_feasible(model: &Model, seed: u64, tries: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..tries {
        let candidate: Vec<f64> = (0..model.num_vars())
            .map(|i| match model.var_kind(VarId(i)) {
                snap_milp::VarKind::Continuous { lb, ub } => rng.gen_range(lb..=ub.min(lb + 10.0)),
                snap_milp::VarKind::Binary => {
                    if rng.gen_bool(0.5) {
                        1.0
                    } else {
                        0.0
                    }
                }
            })
            .collect();
        if model.is_feasible(&candidate, 1e-9) {
            out.push(candidate);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_solution_is_feasible_and_not_beaten_by_samples(seed in 0u64..5_000) {
        let model = random_lp(seed, 4, 3, false);
        match solve_lp(&model) {
            SolveResult::Optimal(sol) => {
                prop_assert!(model.is_feasible(&sol.values, 1e-5), "solution must be feasible");
                for point in sample_feasible(&model, seed ^ 0xabcd, 50) {
                    let obj = model.objective().eval(&point);
                    prop_assert!(
                        sol.objective <= obj + 1e-6,
                        "sampled point beats the 'optimal' solution: {obj} < {}",
                        sol.objective
                    );
                }
            }
            // The origin is always feasible and the box is bounded, so the LP
            // can be neither infeasible nor unbounded.
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn milp_solution_is_integral_feasible_and_not_beaten_by_integral_samples(seed in 0u64..3_000) {
        let model = random_lp(seed, 4, 3, true);
        match solve_milp(&model) {
            SolveResult::Optimal(sol) => {
                prop_assert!(model.is_feasible(&sol.values, 1e-5));
                for v in model.binary_vars() {
                    let x = sol.value(v);
                    prop_assert!((x - x.round()).abs() < 1e-6, "binary {v:?} is fractional: {x}");
                }
                for point in sample_feasible(&model, seed ^ 0x1234, 50) {
                    let obj = model.objective().eval(&point);
                    prop_assert!(sol.objective <= obj + 1e-6);
                }
            }
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }
}
