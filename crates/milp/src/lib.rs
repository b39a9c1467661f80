//! # snap-milp
//!
//! A small, dependency-free linear-programming and mixed-integer
//! linear-programming solver: a two-phase primal simplex method plus branch
//! and bound over binary variables.
//!
//! The SNAP paper solves its joint state-placement / routing optimization
//! (§4.4, Table 2) with Gurobi, which is closed source and unavailable here.
//! This solver is exact only on small instances, so the compiler places
//! state with its heuristic and keeps the Table 2 program, solved here, as
//! that heuristic's optimality oracle (`snap-core`'s `optimize` module).
//!
//! ```
//! use snap_milp::{LinExpr, Model, Sense, solve_milp};
//!
//! // Choose at most one of two facilities, maximizing profit 3a + 2b.
//! let mut m = Model::new();
//! let a = m.add_binary();
//! let b = m.add_binary();
//! m.set_objective(a, -3.0);
//! m.set_objective(b, -2.0);
//! m.add_constraint(LinExpr::new().with(a, 1.0).with(b, 1.0), Sense::Le, 1.0);
//! let solution = solve_milp(&m).expect_optimal("solvable");
//! assert!(solution.is_set(a) && !solution.is_set(b));
//! ```

#![warn(missing_docs)]

mod branch_bound;
mod model;
mod simplex;

pub use branch_bound::solve_milp;
pub use model::{LinExpr, Model, Sense, Solution, SolveResult, VarId, VarKind};
pub use simplex::solve_lp;
