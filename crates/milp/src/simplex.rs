//! A two-phase primal simplex solver for linear programs.
//!
//! The implementation favours robustness over raw speed: it keeps a dense
//! tableau, recomputes reduced costs every iteration, uses Dantzig's rule
//! while progress is easy and falls back to Bland's rule (which guarantees
//! termination) after a fixed number of iterations. The dense tableau limits
//! it to small programs: the Table 2 oracle on a handful of switches and
//! demands, never a production placement.

use crate::model::{Model, Sense, Solution, SolveResult, VarKind};

const TOL: f64 = 1e-7;

/// Solve the LP relaxation of a model (binary variables are relaxed to
/// `[0, 1]`).
pub fn solve_lp(model: &Model) -> SolveResult {
    let bounds = default_bounds(model);
    solve_lp_with_bounds(model, &bounds)
}

/// The `[lb, ub]` box for each variable of a model (binaries become `[0,1]`).
pub(crate) fn default_bounds(model: &Model) -> Vec<(f64, f64)> {
    (0..model.num_vars())
        .map(|i| match model.var_kind(crate::model::VarId(i)) {
            VarKind::Continuous { lb, ub } => (lb, ub),
            VarKind::Binary => (0.0, 1.0),
        })
        .collect()
}

/// Solve the LP relaxation with explicit variable bounds (used by branch and
/// bound to fix or restrict binaries without rebuilding the model).
pub(crate) fn solve_lp_with_bounds(model: &Model, bounds: &[(f64, f64)]) -> SolveResult {
    assert_eq!(bounds.len(), model.num_vars());
    let n = model.num_vars();

    // Collect rows: the model's constraints plus bound rows for finite,
    // non-trivial bounds (x ≥ 0 is implicit in standard form).
    struct Row {
        coefs: Vec<(usize, f64)>,
        sense: Sense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for c in model.constraints() {
        rows.push(Row {
            coefs: c.expr.terms().map(|(v, k)| (v.0, k)).collect(),
            sense: c.sense,
            rhs: c.rhs,
        });
    }
    for (i, &(lb, ub)) in bounds.iter().enumerate() {
        if lb > 0.0 {
            rows.push(Row {
                coefs: vec![(i, 1.0)],
                sense: Sense::Ge,
                rhs: lb,
            });
        }
        if ub.is_finite() {
            rows.push(Row {
                coefs: vec![(i, 1.0)],
                sense: Sense::Le,
                rhs: ub,
            });
        }
    }

    let m = rows.len();
    // With no rows at all, every variable sits at 0 and any negative
    // objective coefficient makes the program unbounded (finite bounds would
    // have produced rows).
    if m == 0 {
        if model.objective().terms().any(|(_, c)| c < -TOL) {
            return SolveResult::Unbounded;
        }
        return SolveResult::Optimal(Solution {
            values: vec![0.0; n],
            objective: 0.0,
        });
    }
    // Column layout: [structural | slacks/surplus | artificials].
    let mut num_slack = 0;
    let mut num_art = 0;
    for r in &rows {
        // Normalize to rhs ≥ 0 before deciding on slack/artificial columns.
        let rhs = r.rhs;
        let sense = if rhs < 0.0 { flip(r.sense) } else { r.sense };
        match sense {
            Sense::Le => num_slack += 1,
            Sense::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Sense::Eq => num_art += 1,
        }
    }
    let total = n + num_slack + num_art;
    let mut a = vec![vec![0.0f64; total]; m];
    let mut b = vec![0.0f64; m];
    let mut basis = vec![0usize; m];
    let art_start = n + num_slack;

    let mut slack_idx = n;
    let mut art_idx = art_start;
    for (i, r) in rows.iter().enumerate() {
        let mut rhs = r.rhs;
        let mut sign = 1.0;
        let mut sense = r.sense;
        if rhs < 0.0 {
            rhs = -rhs;
            sign = -1.0;
            sense = flip(r.sense);
        }
        for &(j, coef) in &r.coefs {
            a[i][j] += sign * coef;
        }
        b[i] = rhs;
        match sense {
            Sense::Le => {
                a[i][slack_idx] = 1.0;
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Sense::Ge => {
                a[i][slack_idx] = -1.0;
                slack_idx += 1;
                a[i][art_idx] = 1.0;
                basis[i] = art_idx;
                art_idx += 1;
            }
            Sense::Eq => {
                a[i][art_idx] = 1.0;
                basis[i] = art_idx;
                art_idx += 1;
            }
        }
    }

    // Phase 1: minimize the sum of artificial variables.
    if num_art > 0 {
        let mut cost = vec![0.0; total];
        for c in cost.iter_mut().skip(art_start) {
            *c = 1.0;
        }
        match run_simplex(&mut a, &mut b, &mut basis, &cost, total) {
            SimplexOutcome::Optimal => {}
            SimplexOutcome::Unbounded => return SolveResult::Infeasible,
        }
        let phase1_obj: f64 = basis
            .iter()
            .enumerate()
            .map(|(i, &bv)| if bv >= art_start { b[i] } else { 0.0 })
            .sum();
        if phase1_obj > 1e-6 {
            return SolveResult::Infeasible;
        }
        // Drive any remaining (degenerate) artificial variables out of the basis.
        for i in 0..m {
            if basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| a[i][j].abs() > TOL) {
                    pivot(&mut a, &mut b, &mut basis, i, j);
                }
            }
        }
    }

    // Phase 2: original objective over structural (and slack) columns only.
    let mut cost = vec![0.0; total];
    for (v, coef) in model.objective().terms() {
        cost[v.0] = coef;
    }
    // Forbid artificial columns from re-entering by pricing them prohibitively.
    for c in cost.iter_mut().skip(art_start) {
        *c = 1e12;
    }
    match run_simplex(&mut a, &mut b, &mut basis, &cost, art_start) {
        SimplexOutcome::Optimal => {}
        SimplexOutcome::Unbounded => return SolveResult::Unbounded,
    }

    let mut values = vec![0.0; n];
    for (i, &bv) in basis.iter().enumerate() {
        if bv < n {
            values[bv] = b[i];
        }
    }
    let objective = model.objective().eval(&values);
    SolveResult::Optimal(Solution { values, objective })
}

fn flip(s: Sense) -> Sense {
    match s {
        Sense::Le => Sense::Ge,
        Sense::Ge => Sense::Le,
        Sense::Eq => Sense::Eq,
    }
}

enum SimplexOutcome {
    Optimal,
    Unbounded,
}

/// Run primal simplex on the tableau, allowing only columns `< allowed_cols`
/// to enter the basis. Dantzig's rule first, Bland's rule after a while.
fn run_simplex(
    a: &mut [Vec<f64>],
    b: &mut [f64],
    basis: &mut [usize],
    cost: &[f64],
    allowed_cols: usize,
) -> SimplexOutcome {
    let m = a.len();
    if m == 0 {
        return SimplexOutcome::Optimal;
    }
    let bland_after = 2_000usize;
    let max_iters = 200_000usize;
    for iter in 0..max_iters {
        // Reduced costs: r_j = c_j - c_B' * A_j.
        let cb: Vec<f64> = basis.iter().map(|&j| cost[j]).collect();
        let mut entering: Option<usize> = None;
        let mut best = -TOL;
        for j in 0..allowed_cols {
            if basis.contains(&j) {
                continue;
            }
            let mut r = cost[j];
            for i in 0..m {
                if cb[i] != 0.0 {
                    r -= cb[i] * a[i][j];
                }
            }
            if r < -TOL {
                if iter >= bland_after {
                    // Bland: first improving column.
                    entering = Some(j);
                    break;
                }
                if r < best {
                    best = r;
                    entering = Some(j);
                }
            }
        }
        let Some(j) = entering else {
            return SimplexOutcome::Optimal;
        };

        // Ratio test.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if a[i][j] > TOL {
                let ratio = b[i] / a[i][j];
                let better = ratio < best_ratio - TOL
                    || ((ratio - best_ratio).abs() <= TOL
                        && leaving.map(|l| basis[i] < basis[l]).unwrap_or(false));
                if leaving.is_none() || better {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(i) = leaving else {
            return SimplexOutcome::Unbounded;
        };
        pivot(a, b, basis, i, j);
    }
    // With Bland's rule the method terminates; reaching here means numerical
    // trouble — report the current (feasible) point as optimal-so-far.
    SimplexOutcome::Optimal
}

fn pivot(a: &mut [Vec<f64>], b: &mut [f64], basis: &mut [usize], row: usize, col: usize) {
    let m = a.len();
    let p = a[row][col];
    for v in a[row].iter_mut() {
        *v /= p;
    }
    b[row] /= p;
    for i in 0..m {
        if i != row {
            let factor = a[i][col];
            if factor.abs() > 0.0 {
                let (pivot_row, work_row) = if i < row {
                    let (head, tail) = a.split_at_mut(row);
                    (&tail[0], &mut head[i])
                } else {
                    let (head, tail) = a.split_at_mut(i);
                    (&head[row], &mut tail[0])
                };
                for (w, pv) in work_row.iter_mut().zip(pivot_row.iter()) {
                    *w -= factor * pv;
                }
                b[i] -= factor * b[row];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense, VarId};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn maximize_profit_classic_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min form: -3x -5y)
        // Optimum at x=2, y=6, objective -36.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        let y = m.add_var(0.0, f64::INFINITY);
        m.set_objective(x, -3.0);
        m.set_objective(y, -5.0);
        m.add_constraint(LinExpr::new().with(x, 1.0), Sense::Le, 4.0);
        m.add_constraint(LinExpr::new().with(y, 2.0), Sense::Le, 12.0);
        m.add_constraint(LinExpr::new().with(x, 3.0).with(y, 2.0), Sense::Le, 18.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
        assert_close(s.objective, -36.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y s.t. x + y = 10, x >= 3, y >= 2 -> x=8, y=2, obj=12.
        let mut m = Model::new();
        let x = m.add_var(3.0, f64::INFINITY);
        let y = m.add_var(2.0, f64::INFINITY);
        m.set_objective(x, 1.0);
        m.set_objective(y, 2.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 1.0), Sense::Eq, 10.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert_close(s.value(x), 8.0);
        assert_close(s.value(y), 2.0);
        assert_close(s.objective, 12.0);
    }

    #[test]
    fn infeasible_program_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.set_objective(x, 1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0), Sense::Ge, 2.0);
        assert_eq!(solve_lp(&m), SolveResult::Infeasible);
    }

    #[test]
    fn unbounded_program_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        m.set_objective(x, -1.0);
        assert_eq!(solve_lp(&m), SolveResult::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -2 with x,y in [0,10], minimize x + y -> x=0, y=2.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.set_objective(x, 1.0);
        m.set_objective(y, 1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, -1.0), Sense::Le, -2.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert_close(s.value(x), 0.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn binary_vars_relax_to_unit_interval() {
        // min -(x + y) with x binary, x + 2y <= 2 -> LP relaxation x=1, y=0.5.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.set_objective(x, -1.0);
        m.set_objective(y, -1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 2.0), Sense::Le, 2.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 0.5);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; just check it terminates at the optimum.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        let y = m.add_var(0.0, f64::INFINITY);
        m.set_objective(x, -1.0);
        m.set_objective(y, -1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 1.0), Sense::Le, 1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 1.0), Sense::Le, 1.0);
        m.add_constraint(LinExpr::new().with(x, 2.0).with(y, 1.0), Sense::Le, 2.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn solution_is_feasible_for_the_model() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0);
        let y = m.add_var(1.0, 5.0);
        m.set_objective(x, 2.0);
        m.set_objective(y, 1.0);
        m.add_constraint(LinExpr::new().with(x, 1.0).with(y, 1.0), Sense::Ge, 4.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert!(m.is_feasible(&s.values, 1e-6));
        assert_close(s.objective, 4.0); // x=0, y=4
        let _ = (x, y);
    }

    #[test]
    fn bounds_overrides_are_respected() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.set_objective(x, -1.0);
        let s = solve_lp_with_bounds(&m, &[(0.0, 0.0)]).expect_optimal("should solve");
        assert_close(s.value(x), 0.0);
        let s = solve_lp_with_bounds(&m, &[(1.0, 1.0)]).expect_optimal("should solve");
        assert_close(s.value(x), 1.0);
    }

    #[test]
    fn multicommodity_toy_flow() {
        // Two units of flow from a to c over two parallel 1-capacity paths
        // a-b-c and a-d-c; minimize total link usage -> both paths used.
        // Variables: f1 (via b), f2 (via d).
        let mut m = Model::new();
        let f1 = m.add_var(0.0, f64::INFINITY);
        let f2 = m.add_var(0.0, f64::INFINITY);
        m.set_objective(f1, 2.0); // 2 links each
        m.set_objective(f2, 2.0);
        m.add_constraint(LinExpr::new().with(f1, 1.0).with(f2, 1.0), Sense::Eq, 2.0);
        m.add_constraint(LinExpr::new().with(f1, 1.0), Sense::Le, 1.0);
        m.add_constraint(LinExpr::new().with(f2, 1.0), Sense::Le, 1.0);
        let s = solve_lp(&m).expect_optimal("should solve");
        assert_close(s.value(f1), 1.0);
        assert_close(s.value(f2), 1.0);
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn default_bounds_reflect_kinds() {
        let mut m = Model::new();
        let _x = m.add_var(0.5, 2.0);
        let _y = m.add_binary();
        let b = default_bounds(&m);
        assert_eq!(b, vec![(0.5, 2.0), (0.0, 1.0)]);
        let _ = VarId(0);
    }
}
