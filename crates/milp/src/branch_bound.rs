//! Branch and bound over the LP relaxation, for models with binary variables.
//!
//! The Table 2 oracle has binary placement variables `P_{s,n}` and
//! continuous routing variables; depth-first branch and bound on the
//! placement variables, bounded by the simplex LP relaxation, solves it
//! exactly on small instances.

use crate::model::{Model, Solution, SolveResult, VarId};
use crate::simplex::{default_bounds, solve_lp_with_bounds};

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;

/// Explored nodes after which the search stops and returns the best
/// incumbent (or `Infeasible` if none was found).
const MAX_NODES: usize = 100_000;

/// Solve a mixed-integer program.
pub fn solve_milp(model: &Model) -> SolveResult {
    let root_bounds = default_bounds(model);
    let binaries = model.binary_vars();

    // No integer variables: plain LP.
    if binaries.is_empty() {
        return solve_lp_with_bounds(model, &root_bounds);
    }

    let mut best: Option<Solution> = None;
    // Depth-first stack of nodes, each node being a bounds vector.
    let mut stack = vec![root_bounds];
    let mut explored = 0usize;

    while let Some(bounds) = stack.pop() {
        if explored >= MAX_NODES {
            break;
        }
        explored += 1;
        let relaxed = match solve_lp_with_bounds(model, &bounds) {
            SolveResult::Optimal(s) => s,
            SolveResult::Infeasible => continue,
            // An unbounded relaxation of a node with all binaries still free
            // means the MILP itself is unbounded in its continuous part.
            SolveResult::Unbounded => return SolveResult::Unbounded,
        };

        // Bound: prune nodes that cannot beat the incumbent.
        if let Some(ref incumbent) = best {
            if relaxed.objective >= incumbent.objective - 1e-9 {
                continue;
            }
        }

        // Find the most fractional binary variable.
        let mut branch_var: Option<VarId> = None;
        let mut most_fractional = INT_TOL;
        for &v in &binaries {
            let x = relaxed.value(v);
            let frac = (x - x.round()).abs();
            if frac > most_fractional {
                most_fractional = frac;
                branch_var = Some(v);
            }
        }

        match branch_var {
            None => {
                // All binaries integral: candidate incumbent.
                let better = best
                    .as_ref()
                    .map(|b| relaxed.objective < b.objective - 1e-9)
                    .unwrap_or(true);
                if better {
                    best = Some(round_binaries(relaxed, &binaries));
                }
            }
            Some(v) => {
                let mut zero = bounds.clone();
                zero[v.0] = (0.0, 0.0);
                let mut one = bounds;
                one[v.0] = (1.0, 1.0);
                // Explore the side the relaxation leans towards first.
                if relaxed.value(v) >= 0.5 {
                    stack.push(zero);
                    stack.push(one);
                } else {
                    stack.push(one);
                    stack.push(zero);
                }
            }
        }
    }

    best.map_or(SolveResult::Infeasible, SolveResult::Optimal)
}

fn round_binaries(mut s: Solution, binaries: &[VarId]) -> Solution {
    for &v in binaries {
        s.values[v.0] = s.values[v.0].round();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0);
        m.set_objective(x, -1.0);
        assert_close(solve_milp(&m).expect_optimal("lp").value(x), 3.0);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c  s.t. a + b + c <= 2 (binaries) -> a, b chosen.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.set_objective(a, -10.0);
        m.set_objective(b, -6.0);
        m.set_objective(c, -4.0);
        m.add_constraint(
            LinExpr::new().with(a, 1.0).with(b, 1.0).with(c, 1.0),
            Sense::Le,
            2.0,
        );
        let s = solve_milp(&m).expect_optimal("milp");
        assert!(s.is_set(a));
        assert!(s.is_set(b));
        assert!(!s.is_set(c));
        assert_close(s.objective, -16.0);
    }

    #[test]
    fn knapsack_with_weights_needs_branching() {
        // max 8x1 + 11x2 + 6x3 + 4x4 s.t. 5x1 + 7x2 + 4x3 + 3x4 <= 14. The
        // relaxation takes x1, x2 and half of x3 (value 22), so the search
        // must branch; the integral optimum is x2, x3, x4 (weight 14, value 21).
        let mut m = Model::new();
        let x1 = m.add_binary();
        let x2 = m.add_binary();
        let x3 = m.add_binary();
        let x4 = m.add_binary();
        for (v, p) in [(x1, 8.0), (x2, 11.0), (x3, 6.0), (x4, 4.0)] {
            m.set_objective(v, -p);
        }
        m.add_constraint(
            LinExpr::from_terms([(x1, 5.0), (x2, 7.0), (x3, 4.0), (x4, 3.0)]),
            Sense::Le,
            14.0,
        );
        let s = solve_milp(&m).expect_optimal("milp");
        assert_close(s.objective, -21.0);
        assert!(!s.is_set(x1));
        assert!(s.is_set(x2));
        assert!(s.is_set(x3));
        assert!(s.is_set(x4));
    }

    #[test]
    fn facility_location_toy() {
        // Two facilities (binary open variables), three clients; each client
        // must be served by an open facility; facility opening costs dominate
        // so exactly one facility opens and serves everyone.
        let mut m = Model::new();
        let open_a = m.add_binary();
        let open_b = m.add_binary();
        m.set_objective(open_a, 10.0);
        m.set_objective(open_b, 12.0);
        let mut serve = Vec::new();
        for _ in 0..3 {
            let sa = m.add_var(0.0, 1.0);
            let sb = m.add_var(0.0, 1.0);
            // Serving costs differ slightly.
            m.set_objective(sa, 1.0);
            m.set_objective(sb, 0.5);
            m.add_constraint(LinExpr::new().with(sa, 1.0).with(sb, 1.0), Sense::Eq, 1.0);
            m.add_constraint(
                LinExpr::new().with(sa, 1.0).with(open_a, -1.0),
                Sense::Le,
                0.0,
            );
            m.add_constraint(
                LinExpr::new().with(sb, 1.0).with(open_b, -1.0),
                Sense::Le,
                0.0,
            );
            serve.push((sa, sb));
        }
        let s = solve_milp(&m).expect_optimal("milp");
        // Opening A costs 10 + 3*1 = 13, opening B costs 12 + 3*0.5 = 13.5,
        // opening both is never cheaper -> A only.
        assert!(s.is_set(open_a));
        assert!(!s.is_set(open_b));
        assert_close(s.objective, 13.0);
        for (sa, sb) in serve {
            assert_close(s.value(sa), 1.0);
            assert_close(s.value(sb), 0.0);
        }
    }

    #[test]
    fn infeasible_integer_program() {
        // x + y = 1.5 has the fractional relaxation x = 1, y = 0.5 but no
        // binary solution: integral sums are 0, 1 or 2.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.set_objective(x, 1.0);
        m.set_objective(y, 1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 1.0), Sense::Eq, 1.5);
        assert_eq!(solve_milp(&m), SolveResult::Infeasible);
    }

    #[test]
    fn integral_solution_is_feasible_for_the_model() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        let z = m.add_var(0.0, 10.0);
        m.set_objective(z, 1.0);
        m.set_objective(x, 2.0);
        m.set_objective(y, 3.0);
        // z >= 4 - 3x - 3y : need at least some capacity open.
        m.add_constraint(
            LinExpr::from_terms([(z, 1.0), (x, 3.0), (y, 3.0)]),
            Sense::Ge,
            4.0,
        );
        let s = solve_milp(&m).expect_optimal("milp");
        assert!(m.is_feasible(&s.values, 1e-6));
        // Best: open x (cost 2) and cover remaining 1 with z -> 3.0 total.
        assert_close(s.objective, 3.0);
        let _ = y;
    }
}
