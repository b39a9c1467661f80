//! Joint state placement and routing (§4.4).
//!
//! Two engines are provided:
//!
//! * **Exact**: the mixed-integer linear program of Table 2 — binary
//!   placement variables `P_{s,n}`, per-flow routing fractions `R_{uv,ij}`
//!   and "has passed s" flows `PS_{s,uv,ij}` — built with `snap-milp` and
//!   solved with simplex + branch and bound. The paper solves this with
//!   Gurobi; our from-scratch solver handles the small/medium instances used
//!   in tests and the campus-scale experiments.
//! * **Heuristic**: a traffic-weighted placement (each co-location group goes
//!   to the switch minimizing demand-weighted detour) plus
//!   ordered-waypoint shortest-path routing. Used for the large Table 5 /
//!   Figure 10 topologies where an exact MILP without a commercial solver is
//!   impractical.
//!
//! Both produce a [`PlacementResult`]: a switch per state variable, a path
//! per OBS flow that visits the needed variables in dependency order, and
//! link-utilization statistics.

use crate::mapping::{PacketStateMap, VarSet};
use snap_lang::StateVar;
use snap_milp::{solve_lp, solve_milp, LinExpr, Model, Sense, SolveResult, VarId};
use snap_topology::{HopMatrix, NodeId, PortId, Topology, TrafficMatrix};
use snap_xfdd::{StateDependencies, VarOrder};
use std::collections::{BTreeMap, BTreeSet};

/// Which engine to use for placement and routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverChoice {
    /// Always build and solve the exact MILP.
    Exact,
    /// Always use the heuristic placer.
    Heuristic,
    /// Exact when the instance is small enough, heuristic otherwise.
    Auto,
}

/// The inputs of the optimization phase.
pub struct OptimizeInput<'a> {
    /// The physical topology.
    pub topology: &'a Topology,
    /// Expected traffic between OBS ports.
    pub traffic: &'a TrafficMatrix,
    /// Which flows need which state variables.
    pub mapping: &'a PacketStateMap,
    /// State dependency analysis (order, `dep`, `tied`).
    pub deps: &'a StateDependencies,
}

/// The result of placement and routing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementResult {
    /// The switch chosen for each state variable.
    pub placement: BTreeMap<StateVar, NodeId>,
    /// The switch-level path chosen for each OBS flow with demand.
    pub paths: BTreeMap<(PortId, PortId), Vec<NodeId>>,
    /// Sum over links of `load / capacity` (the MILP objective).
    pub total_utilization: f64,
    /// The most utilized link's `load / capacity`.
    pub max_utilization: f64,
    /// Which engine produced the result (`"milp"` or `"heuristic"`).
    pub method: String,
}

impl PlacementResult {
    /// Does the path chosen for `(u, v)` visit the switches holding all the
    /// variables in `vars`, in the given order?
    pub fn path_respects_order(&self, u: PortId, v: PortId, vars: &[StateVar]) -> bool {
        let Some(path) = self.paths.get(&(u, v)) else {
            return vars.is_empty();
        };
        let mut position = 0usize;
        for var in vars {
            let Some(&node) = self.placement.get(var) else {
                return false;
            };
            match path[position..].iter().position(|&n| n == node) {
                Some(offset) => position += offset,
                None => return false,
            }
        }
        true
    }
}

/// Wall-clock timings of the optimization phase, split the way Table 4/6 of
/// the paper report them: model (MILP) creation versus solving.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OptimizeTimings {
    /// Time spent building the MILP/LP model (the paper's P4). Zero when the
    /// heuristic engine is used.
    pub model_creation: std::time::Duration,
    /// Time spent solving (the paper's P5).
    pub solving: std::time::Duration,
}

/// [`place_and_route`] with per-sub-phase timings.
pub fn place_and_route_timed(
    input: &OptimizeInput<'_>,
    choice: SolverChoice,
) -> (PlacementResult, OptimizeTimings) {
    let use_exact = matches!(choice, SolverChoice::Exact)
        || (matches!(choice, SolverChoice::Auto) && exact_is_tractable(input));
    if use_exact {
        let t0 = std::time::Instant::now();
        let instance = build_model(input, None);
        let model_creation = t0.elapsed();
        let t1 = std::time::Instant::now();
        let result = match solve_milp(&instance.model) {
            SolveResult::Optimal(solution) => {
                let variables = all_variables(input);
                let mut placement = BTreeMap::new();
                for s in &variables {
                    for n in input.topology.nodes() {
                        if let Some(&pv) = instance.vars.placement.get(&(s.clone(), n)) {
                            if solution.is_set(pv) {
                                placement.insert(s.clone(), n);
                            }
                        }
                    }
                }
                finish_exact(input, &instance, &solution.values, placement)
            }
            _ => heuristic_place_and_route(input, None),
        };
        let solving = t1.elapsed();
        (
            result,
            OptimizeTimings {
                model_creation,
                solving,
            },
        )
    } else {
        let t1 = std::time::Instant::now();
        let result = heuristic_place_and_route(input, None);
        let solving = t1.elapsed();
        (
            result,
            OptimizeTimings {
                model_creation: std::time::Duration::ZERO,
                solving,
            },
        )
    }
}

/// [`reroute`] with timings (the "TE" variant never rebuilds the placement).
pub fn reroute_timed(
    input: &OptimizeInput<'_>,
    placement: &BTreeMap<StateVar, NodeId>,
    choice: SolverChoice,
) -> (PlacementResult, OptimizeTimings) {
    let t1 = std::time::Instant::now();
    let result = reroute(input, placement, choice);
    let solving = t1.elapsed();
    (
        result,
        OptimizeTimings {
            model_creation: std::time::Duration::ZERO,
            solving,
        },
    )
}

/// Decide placement and routing.
pub fn place_and_route(input: &OptimizeInput<'_>, choice: SolverChoice) -> PlacementResult {
    match choice {
        SolverChoice::Heuristic => heuristic_place_and_route(input, None),
        SolverChoice::Exact => exact_place_and_route(input),
        SolverChoice::Auto => {
            if exact_is_tractable(input) {
                exact_place_and_route(input)
            } else {
                heuristic_place_and_route(input, None)
            }
        }
    }
}

/// Re-optimize routing only, keeping an existing placement (the paper's "TE"
/// variant, run on topology or traffic-matrix changes).
pub fn reroute(
    input: &OptimizeInput<'_>,
    placement: &BTreeMap<StateVar, NodeId>,
    choice: SolverChoice,
) -> PlacementResult {
    match choice {
        SolverChoice::Heuristic => heuristic_place_and_route(input, Some(placement.clone())),
        SolverChoice::Exact => exact_route_fixed_placement(input, placement)
            .unwrap_or_else(|| heuristic_place_and_route(input, Some(placement.clone()))),
        SolverChoice::Auto => {
            if exact_is_tractable(input) {
                exact_route_fixed_placement(input, placement)
                    .unwrap_or_else(|| heuristic_place_and_route(input, Some(placement.clone())))
            } else {
                heuristic_place_and_route(input, Some(placement.clone()))
            }
        }
    }
}

/// A rough tractability bound for the exact MILP with the built-in solver.
fn exact_is_tractable(input: &OptimizeInput<'_>) -> bool {
    let demands = input.traffic.num_demands();
    let links = input.topology.num_links();
    let vars = all_variables(input).len();
    // R variables plus PS variables; keep the dense tableau modest.
    demands * links <= 4_000 && vars * input.topology.num_nodes() <= 600
}

fn all_variables(input: &OptimizeInput<'_>) -> BTreeSet<StateVar> {
    let mut vars = input.deps.variables.clone();
    vars.extend(input.mapping.all_vars());
    vars
}

// ---------------------------------------------------------------------------
// Heuristic engine
// ---------------------------------------------------------------------------

fn heuristic_place_and_route(
    input: &OptimizeInput<'_>,
    fixed: Option<BTreeMap<StateVar, NodeId>>,
) -> PlacementResult {
    let topo = input.topology;
    let hops = HopMatrix::new(topo);
    let variables = all_variables(input);

    let placement = match fixed {
        Some(p) => p,
        None => {
            // Group variables that must be co-located.
            let groups = colocation_groups(&variables, input.deps);
            let mut placement = BTreeMap::new();
            for group in groups {
                let node = best_node_for_group(input, &hops, &group);
                for var in group {
                    placement.insert(var, node);
                }
            }
            placement
        }
    };

    // Route every demand through its needed variables in dependency order.
    let order = input.deps.var_order();
    let mut paths = BTreeMap::new();
    for (u, v, demand) in input.traffic.iter() {
        if demand <= 0.0 {
            continue;
        }
        let (Some(src), Some(dst)) = (topo.port_switch(u), topo.port_switch(v)) else {
            continue;
        };
        let waypoints = waypoints_in_order(input.mapping.vars_for(u, v), &order, &placement);
        if let Some(path) = hops.path_through(src, &waypoints, dst) {
            paths.insert((u, v), path);
        }
    }

    let (total, max) = utilization(topo, input.traffic, &paths);
    PlacementResult {
        placement,
        paths,
        total_utilization: total,
        max_utilization: max,
        method: "heuristic".to_string(),
    }
}

/// The switches holding a flow's variables, in the order the flow must visit
/// them (the state-variable dependency order).
fn waypoints_in_order(
    needed: VarSet<'_>,
    order: &VarOrder,
    placement: &BTreeMap<StateVar, NodeId>,
) -> Vec<NodeId> {
    let mut needed: Vec<&StateVar> = needed.iter().collect();
    needed.sort_by_key(|s| order.rank(s));
    let mut waypoints: Vec<NodeId> = needed
        .into_iter()
        .filter_map(|s| placement.get(s).copied())
        .collect();
    waypoints.dedup();
    waypoints
}

/// Union-find-free co-location grouping: connected components of the `tied`
/// relation, plus singletons for everything else, ordered by variable order.
fn colocation_groups(
    variables: &BTreeSet<StateVar>,
    deps: &StateDependencies,
) -> Vec<Vec<StateVar>> {
    let mut assigned: BTreeSet<StateVar> = BTreeSet::new();
    let mut groups = Vec::new();
    let order = deps.var_order();
    let mut sorted: Vec<StateVar> = variables.iter().cloned().collect();
    sorted.sort_by_key(|v| order.rank(v));
    for var in sorted {
        if assigned.contains(&var) {
            continue;
        }
        // Grow the component of `var` under `tied`.
        let mut group = vec![var.clone()];
        assigned.insert(var.clone());
        let mut frontier = vec![var];
        while let Some(cur) = frontier.pop() {
            for (a, b) in &deps.tied {
                if *a == cur && !assigned.contains(b) {
                    assigned.insert(b.clone());
                    group.push(b.clone());
                    frontier.push(b.clone());
                }
            }
        }
        groups.push(group);
    }
    groups
}

/// The switch minimizing the demand-weighted detour for all flows that need
/// any variable of the group.
fn best_node_for_group(input: &OptimizeInput<'_>, hops: &HopMatrix, group: &[StateVar]) -> NodeId {
    let topo = input.topology;
    // Flows needing the group, with their demand.
    let mut flows: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for (u, v, vars) in input.mapping.iter() {
        if group.iter().any(|g| vars.contains(g)) {
            let demand = input.traffic.get(u, v);
            if demand <= 0.0 {
                continue;
            }
            if let (Some(src), Some(dst)) = (topo.port_switch(u), topo.port_switch(v)) {
                flows.push((src, dst, demand));
            }
        }
    }
    if flows.is_empty() {
        // Nothing constrains the group; put it on the most central switch.
        return topo
            .nodes()
            .min_by_key(|&n| {
                topo.nodes()
                    .map(|m| hops.distance(n, m).unwrap_or(usize::MAX / 2))
                    .sum::<usize>()
            })
            .unwrap_or(NodeId(0));
    }
    let mut best = NodeId(0);
    let mut best_cost = f64::INFINITY;
    for n in topo.nodes() {
        let mut cost = 0.0;
        for &(src, dst, demand) in &flows {
            let d1 = hops.distance(src, n).unwrap_or(usize::MAX / 4) as f64;
            let d2 = hops.distance(n, dst).unwrap_or(usize::MAX / 4) as f64;
            cost += demand * (d1 + d2);
        }
        if cost < best_cost {
            best_cost = cost;
            best = n;
        }
    }
    best
}

/// Link-utilization statistics for a set of single-path routes.
fn utilization(
    topo: &Topology,
    traffic: &TrafficMatrix,
    paths: &BTreeMap<(PortId, PortId), Vec<NodeId>>,
) -> (f64, f64) {
    let mut load: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    for (&(u, v), path) in paths {
        let demand = traffic.get(u, v);
        for hop in path.windows(2) {
            *load.entry((hop[0], hop[1])).or_insert(0.0) += demand;
        }
    }
    let mut total = 0.0;
    let mut max = 0.0f64;
    for (&(a, b), &l) in &load {
        let cap = topo.link_capacity(a, b).unwrap_or(f64::INFINITY);
        let u = if cap.is_finite() && cap > 0.0 {
            l / cap
        } else {
            0.0
        };
        total += u;
        max = max.max(u);
    }
    (total, max)
}

// ---------------------------------------------------------------------------
// Exact engine (Table 2)
// ---------------------------------------------------------------------------

struct MilpVars {
    /// `R_{uv,ij}` per (demand index, link index).
    routing: BTreeMap<(usize, usize), VarId>,
    /// `P_{s,n}` per (variable, node).
    placement: BTreeMap<(StateVar, NodeId), VarId>,
    /// `PS_{s,uv,ij}` per (variable, demand index, link index).
    passed: BTreeMap<(StateVar, usize, usize), VarId>,
}

struct MilpInstance {
    model: Model,
    vars: MilpVars,
    demands: Vec<(PortId, PortId, f64, NodeId, NodeId)>,
}

/// Build the Table 2 model. When `fixed_placement` is given, the placement
/// variables are replaced by constants and the model becomes the routing-only
/// "TE" LP.
fn build_model(
    input: &OptimizeInput<'_>,
    fixed_placement: Option<&BTreeMap<StateVar, NodeId>>,
) -> MilpInstance {
    let topo = input.topology;
    let links: Vec<(NodeId, NodeId, f64)> = topo
        .links()
        .iter()
        .map(|l| (l.from, l.to, l.capacity))
        .collect();
    let variables = all_variables(input);
    let order = input.deps.var_order();

    // Demands with positive volume and distinct endpoint switches.
    let mut demands = Vec::new();
    for (u, v, d) in input.traffic.iter() {
        if d <= 0.0 {
            continue;
        }
        let (Some(src), Some(dst)) = (topo.port_switch(u), topo.port_switch(v)) else {
            continue;
        };
        if src == dst {
            continue;
        }
        demands.push((u, v, d, src, dst));
    }

    let mut model = Model::new();
    let mut vars = MilpVars {
        routing: BTreeMap::new(),
        placement: BTreeMap::new(),
        passed: BTreeMap::new(),
    };

    // Routing variables and objective (sum of link utilization).
    for (di, &(_, _, demand, _, _)) in demands.iter().enumerate() {
        for (li, &(i, j, cap)) in links.iter().enumerate() {
            let r = model.add_var(format!("R_{di}_{}_{}", i.0, j.0), 0.0, f64::INFINITY);
            model.set_objective(r, demand / cap.max(1e-9));
            vars.routing.insert((di, li), r);
        }
    }

    // Placement variables (binary) unless fixed.
    let placement_value = |s: &StateVar, n: NodeId| -> Option<f64> {
        fixed_placement.map(|p| if p.get(s) == Some(&n) { 1.0 } else { 0.0 })
    };
    if fixed_placement.is_none() {
        for s in &variables {
            for n in topo.nodes() {
                let p = model.add_binary(format!("P_{s}_{}", n.0));
                vars.placement.insert((s.clone(), n), p);
            }
        }
    }

    // PS variables for (s, demand) pairs where the flow needs s.
    for (di, &(u, v, _, _, _)) in demands.iter().enumerate() {
        for s in input.mapping.vars_for(u, v).iter() {
            for li in 0..links.len() {
                let ps = model.add_var(format!("PS_{s}_{di}_{li}"), 0.0, f64::INFINITY);
                vars.passed.insert((s.clone(), di, li), ps);
            }
        }
    }

    // Helper closures for link indexing.
    let out_links = |n: NodeId| -> Vec<usize> {
        links
            .iter()
            .enumerate()
            .filter(|(_, (i, _, _))| *i == n)
            .map(|(li, _)| li)
            .collect()
    };
    let in_links = |n: NodeId| -> Vec<usize> {
        links
            .iter()
            .enumerate()
            .filter(|(_, (_, j, _))| *j == n)
            .map(|(li, _)| li)
            .collect()
    };

    // Routing constraints.
    for (di, &(_, _, _, src, dst)) in demands.iter().enumerate() {
        // Leave the source, arrive at the destination.
        let mut leave = LinExpr::new();
        for li in out_links(src) {
            leave.add(vars.routing[&(di, li)], 1.0);
        }
        model.add_constraint(format!("leave_src_{di}"), leave, Sense::Eq, 1.0);
        let mut arrive = LinExpr::new();
        for li in in_links(dst) {
            arrive.add(vars.routing[&(di, li)], 1.0);
        }
        model.add_constraint(format!("arrive_dst_{di}"), arrive, Sense::Eq, 1.0);
        // Conservation and no-loop constraints at intermediate switches.
        for n in topo.nodes() {
            if n == src || n == dst {
                continue;
            }
            let mut conserve = LinExpr::new();
            let mut incoming = LinExpr::new();
            for li in in_links(n) {
                conserve.add(vars.routing[&(di, li)], 1.0);
                incoming.add(vars.routing[&(di, li)], 1.0);
            }
            for li in out_links(n) {
                conserve.add(vars.routing[&(di, li)], -1.0);
            }
            model.add_constraint(format!("conserve_{di}_{}", n.0), conserve, Sense::Eq, 0.0);
            model.add_constraint(format!("noloop_{di}_{}", n.0), incoming, Sense::Le, 1.0);
        }
    }
    // Capacity constraints.
    for (li, &(i, j, cap)) in links.iter().enumerate() {
        let mut c = LinExpr::new();
        for (di, &(_, _, demand, _, _)) in demands.iter().enumerate() {
            c.add(vars.routing[&(di, li)], demand);
        }
        model.add_constraint(format!("cap_{}_{}", i.0, j.0), c, Sense::Le, cap);
    }

    // State constraints.
    if fixed_placement.is_none() {
        for s in &variables {
            // Exactly one location.
            let mut one = LinExpr::new();
            for n in topo.nodes() {
                one.add(vars.placement[&(s.clone(), n)], 1.0);
            }
            model.add_constraint(format!("place_{s}"), one, Sense::Eq, 1.0);
        }
        // Co-location of tied variables.
        for (s, t) in &input.deps.tied {
            if !variables.contains(s) || !variables.contains(t) {
                continue;
            }
            for n in topo.nodes() {
                let expr = LinExpr::new()
                    .with(vars.placement[&(s.clone(), n)], 1.0)
                    .with(vars.placement[&(t.clone(), n)], -1.0);
                model.add_constraint(format!("tied_{s}_{t}_{}", n.0), expr, Sense::Eq, 0.0);
            }
        }
    }

    // Per-flow state traversal, "passed" flow conservation and ordering.
    for (di, &(u, v, _, src, dst)) in demands.iter().enumerate() {
        let needed = input.mapping.vars_for(u, v);
        for s in needed.iter() {
            // The flow must pass the switch where s is placed.
            for n in topo.nodes() {
                if n == src || n == dst {
                    continue;
                }
                let mut expr = LinExpr::new();
                for li in in_links(n) {
                    expr.add(vars.routing[&(di, li)], 1.0);
                }
                match placement_value(s, n) {
                    Some(pv) => {
                        if pv > 0.5 {
                            model.add_constraint(
                                format!("visit_{s}_{di}_{}", n.0),
                                expr,
                                Sense::Ge,
                                1.0,
                            );
                        }
                    }
                    None => {
                        expr.add(vars.placement[&(s.clone(), n)], -1.0);
                        model.add_constraint(
                            format!("visit_{s}_{di}_{}", n.0),
                            expr,
                            Sense::Ge,
                            0.0,
                        );
                    }
                }
            }
            // PS ≤ R.
            for li in 0..links.len() {
                let expr = LinExpr::new()
                    .with(vars.passed[&(s.clone(), di, li)], 1.0)
                    .with(vars.routing[&(di, li)], -1.0);
                model.add_constraint(format!("psr_{s}_{di}_{li}"), expr, Sense::Le, 0.0);
            }
            // PS conservation: the "passed s" flow is created at s's switch.
            for n in topo.nodes() {
                if n == dst {
                    continue;
                }
                let mut expr = LinExpr::new();
                for li in in_links(n) {
                    expr.add(vars.passed[&(s.clone(), di, li)], 1.0);
                }
                for li in out_links(n) {
                    expr.add(vars.passed[&(s.clone(), di, li)], -1.0);
                }
                let mut rhs = 0.0;
                match placement_value(s, n) {
                    Some(pv) => rhs = -pv,
                    None => {
                        expr.add(vars.placement[&(s.clone(), n)], 1.0);
                    }
                }
                model.add_constraint(format!("psflow_{s}_{di}_{}", n.0), expr, Sense::Eq, rhs);
            }
            // By the destination, the flow has passed s.
            let mut at_dst = LinExpr::new();
            for li in in_links(dst) {
                at_dst.add(vars.passed[&(s.clone(), di, li)], 1.0);
            }
            let rhs = match placement_value(s, dst) {
                Some(pv) => 1.0 - pv,
                None => {
                    at_dst.add(vars.placement[&(s.clone(), dst)], 1.0);
                    1.0
                }
            };
            model.add_constraint(format!("psdst_{s}_{di}"), at_dst, Sense::Eq, rhs);
        }
        // Ordering: s before t on this flow.
        for (s, t) in &input.deps.dep {
            if !needed.contains(s) || !needed.contains(t) {
                continue;
            }
            for n in topo.nodes() {
                let mut expr = LinExpr::new();
                for li in in_links(n) {
                    expr.add(vars.passed[&(s.clone(), di, li)], 1.0);
                }
                let mut rhs = 0.0;
                match (placement_value(s, n), placement_value(t, n)) {
                    (Some(ps), Some(pt)) => rhs = pt - ps,
                    _ => {
                        expr.add(vars.placement[&(s.clone(), n)], 1.0);
                        expr.add(vars.placement[&(t.clone(), n)], -1.0);
                    }
                }
                model.add_constraint(format!("order_{s}_{t}_{di}_{}", n.0), expr, Sense::Ge, rhs);
            }
        }
        let _ = order;
    }

    MilpInstance {
        model,
        vars,
        demands,
    }
}

fn exact_place_and_route(input: &OptimizeInput<'_>) -> PlacementResult {
    let instance = build_model(input, None);
    match solve_milp(&instance.model) {
        SolveResult::Optimal(solution) => {
            let variables = all_variables(input);
            let mut placement = BTreeMap::new();
            for s in &variables {
                for n in input.topology.nodes() {
                    if let Some(&pv) = instance.vars.placement.get(&(s.clone(), n)) {
                        if solution.is_set(pv) {
                            placement.insert(s.clone(), n);
                        }
                    }
                }
            }
            finish_exact(input, &instance, &solution.values, placement)
        }
        // Infeasible or unbounded exact model (e.g. capacity too tight):
        // fall back to the heuristic so compilation still succeeds.
        _ => heuristic_place_and_route(input, None),
    }
}

fn exact_route_fixed_placement(
    input: &OptimizeInput<'_>,
    placement: &BTreeMap<StateVar, NodeId>,
) -> Option<PlacementResult> {
    let instance = build_model(input, Some(placement));
    match solve_lp(&instance.model) {
        SolveResult::Optimal(solution) => Some(finish_exact(
            input,
            &instance,
            &solution.values,
            placement.clone(),
        )),
        _ => None,
    }
}

/// Turn a solved model into concrete per-flow paths (largest-fraction walk,
/// with a heuristic fallback when decoding fails) and utilization statistics.
fn finish_exact(
    input: &OptimizeInput<'_>,
    instance: &MilpInstance,
    values: &[f64],
    placement: BTreeMap<StateVar, NodeId>,
) -> PlacementResult {
    let topo = input.topology;
    let hops = HopMatrix::new(topo);
    let links: Vec<(NodeId, NodeId)> = topo.links().iter().map(|l| (l.from, l.to)).collect();
    let order = input.deps.var_order();
    let mut paths = BTreeMap::new();
    for (di, &(u, v, _, src, dst)) in instance.demands.iter().enumerate() {
        let mut path = vec![src];
        let mut current = src;
        let mut visited = BTreeSet::from([src]);
        let mut ok = false;
        for _ in 0..topo.num_nodes() * 2 {
            if current == dst {
                ok = true;
                break;
            }
            // Follow the outgoing link with the largest routing fraction.
            let mut best: Option<(NodeId, f64)> = None;
            for (li, &(i, j)) in links.iter().enumerate() {
                if i != current || visited.contains(&j) {
                    continue;
                }
                let r = instance
                    .vars
                    .routing
                    .get(&(di, li))
                    .map(|id| values[id.0])
                    .unwrap_or(0.0);
                if r > 1e-4 && best.map(|(_, b)| r > b).unwrap_or(true) {
                    best = Some((j, r));
                }
            }
            match best {
                Some((next, _)) => {
                    path.push(next);
                    visited.insert(next);
                    current = next;
                }
                None => break,
            }
        }
        if !ok {
            // Fallback: deterministic waypoint path honouring the placement.
            let waypoints = waypoints_in_order(input.mapping.vars_for(u, v), &order, &placement);
            if let Some(p) = hops.path_through(src, &waypoints, dst) {
                path = p;
            }
        }
        paths.insert((u, v), path);
    }
    let (total, max) = utilization(topo, input.traffic, &paths);
    PlacementResult {
        placement,
        paths,
        total_utilization: total,
        max_utilization: max,
        method: "milp".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PacketStateMap;
    use snap_lang::builder::*;
    use snap_lang::{Field, Policy, Value};
    use snap_topology::generators::campus;

    /// A small program: count DNS responses heading to port 6.
    fn small_policy() -> Policy {
        ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24).and(test(Field::SrcPort, Value::Int(53))),
            state_incr("dns-count", vec![field(Field::DstIp)]),
            id(),
        )
        .seq(ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
            modify(Field::OutPort, Value::Int(6)),
            ite(
                test_prefix(Field::DstIp, 10, 0, 1, 0, 24),
                modify(Field::OutPort, Value::Int(1)),
                drop(),
            ),
        ))
    }

    fn setup(
        policy: &Policy,
    ) -> (
        snap_topology::Topology,
        TrafficMatrix,
        PacketStateMap,
        StateDependencies,
    ) {
        let topo = campus();
        let tm = TrafficMatrix::uniform(&topo, 10.0);
        let deps = StateDependencies::analyze(policy);
        let d = snap_xfdd::compile(policy).unwrap();
        let ports: Vec<PortId> = topo.external_ports().map(|(p, _)| p).collect();
        let psm = PacketStateMap::analyze(&d, &ports);
        (topo, tm, psm, deps)
    }

    #[test]
    fn heuristic_places_state_and_routes_through_it() {
        let policy = small_policy();
        let (topo, tm, psm, deps) = setup(&policy);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let result = place_and_route(&input, SolverChoice::Heuristic);
        assert_eq!(result.method, "heuristic");
        let node = result.placement.get(&"dns-count".into()).copied().unwrap();
        // Every flow that needs the variable passes its switch.
        for (u, v, vars) in psm.iter() {
            if vars.contains(&"dns-count".into()) && tm.get(u, v) > 0.0 {
                let path = result.paths.get(&(u, v)).expect("path exists");
                assert!(
                    path.contains(&node),
                    "flow {u:?}->{v:?} must pass the state switch"
                );
            }
        }
        assert!(result.total_utilization > 0.0);
        assert!(result.max_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn heuristic_prefers_d4_for_port6_centric_state() {
        // All flows needing the variable either enter or leave at port 6,
        // which sits behind D4 — the weighted-detour minimizer must be D4
        // (the same location the paper reports for the running example).
        let policy = small_policy();
        let (topo, tm, psm, deps) = setup(&policy);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let result = place_and_route(&input, SolverChoice::Heuristic);
        let node = result.placement[&StateVar::new("dns-count")];
        assert_eq!(topo.node_name(node), "D4");
    }

    #[test]
    fn exact_milp_on_a_tiny_instance_matches_expectations() {
        // Line topology a - b - c with ports 1 (at a) and 2 (at c); a single
        // state variable needed by both directions must sit on the a-c path,
        // and with traffic in both directions the middle switch minimizes
        // nothing in particular but every choice on the path is feasible.
        let mut topo = snap_topology::Topology::new("line");
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.add_bidi_link(a, b, 100.0);
        topo.add_bidi_link(b, c, 100.0);
        topo.add_external_port(PortId(1), a);
        topo.add_external_port(PortId(2), c);

        let policy = state_incr("cnt", vec![field(Field::SrcIp)]).seq(ite(
            test(Field::InPort, Value::Int(1)),
            modify(Field::OutPort, Value::Int(2)),
            modify(Field::OutPort, Value::Int(1)),
        ));
        let deps = StateDependencies::analyze(&policy);
        let d = snap_xfdd::compile(&policy).unwrap();
        let psm = PacketStateMap::analyze(&d, &[PortId(1), PortId(2)]);
        let mut tm = TrafficMatrix::new();
        tm.set(PortId(1), PortId(2), 5.0);
        tm.set(PortId(2), PortId(1), 5.0);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let result = place_and_route(&input, SolverChoice::Exact);
        assert_eq!(result.method, "milp");
        let node = result.placement[&StateVar::new("cnt")];
        // Both directions pass through whichever switch was chosen (they all
        // lie on the only path), and the paths are the direct line.
        assert_eq!(result.paths[&(PortId(1), PortId(2))], vec![a, b, c]);
        assert_eq!(result.paths[&(PortId(2), PortId(1))], vec![c, b, a]);
        assert!([a, b, c].contains(&node));
    }

    #[test]
    fn exact_milp_respects_state_ordering_on_campus() {
        // Two dependent variables: `first` must be visited before `second`.
        let policy = ite(
            state_truthy("first", vec![field(Field::SrcIp)]),
            state_set("second", vec![field(Field::SrcIp)], Value::Bool(true)),
            id(),
        )
        .seq(ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
            modify(Field::OutPort, Value::Int(6)),
            drop(),
        ));
        let topo = campus();
        // Keep the instance tiny: only two demands.
        let mut tm = TrafficMatrix::new();
        tm.set(PortId(1), PortId(6), 3.0);
        tm.set(PortId(2), PortId(6), 3.0);
        let deps = StateDependencies::analyze(&policy);
        let d = snap_xfdd::compile(&policy).unwrap();
        let ports: Vec<PortId> = topo.external_ports().map(|(p, _)| p).collect();
        let psm = PacketStateMap::analyze(&d, &ports);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let result = place_and_route(&input, SolverChoice::Exact);
        for &(u, v) in &[(PortId(1), PortId(6)), (PortId(2), PortId(6))] {
            assert!(result.path_respects_order(
                u,
                v,
                &[StateVar::new("first"), StateVar::new("second")]
            ));
        }
    }

    #[test]
    fn reroute_keeps_placement_fixed() {
        let policy = small_policy();
        let (topo, tm, psm, deps) = setup(&policy);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let first = place_and_route(&input, SolverChoice::Heuristic);
        // New traffic matrix (shifted volumes) but the same placement.
        let tm2 = TrafficMatrix::gravity(&topo, 500.0, 3);
        let input2 = OptimizeInput {
            topology: &topo,
            traffic: &tm2,
            mapping: &psm,
            deps: &deps,
        };
        let rerouted = reroute(&input2, &first.placement, SolverChoice::Heuristic);
        assert_eq!(rerouted.placement, first.placement);
        assert!(!rerouted.paths.is_empty());
    }

    #[test]
    fn path_respects_order_helper() {
        let mut result = PlacementResult::default();
        result.placement.insert(StateVar::new("a"), NodeId(1));
        result.placement.insert(StateVar::new("b"), NodeId(3));
        result.paths.insert(
            (PortId(1), PortId(2)),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        );
        assert!(result.path_respects_order(
            PortId(1),
            PortId(2),
            &[StateVar::new("a"), StateVar::new("b")]
        ));
        assert!(!result.path_respects_order(
            PortId(1),
            PortId(2),
            &[StateVar::new("b"), StateVar::new("a")]
        ));
        // Missing path with no required vars is fine.
        assert!(result.path_respects_order(PortId(5), PortId(6), &[]));
    }
}
