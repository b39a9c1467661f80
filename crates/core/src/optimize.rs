//! Joint state placement and routing (§4.4).
//!
//! **The placer** is a heuristic: each co-location group goes to the switch
//! minimizing the demand-weighted detour of the flows that need it, and every
//! flow takes the shortest path through its variables' switches in
//! dependency order. Re-routing after a topology or traffic change (the
//! paper's "TE" scenario) runs the same waypoint router with the placement
//! fixed.
//!
//! It works on indices from start to finish: no variable name is compared
//! and no map is looked up inside its loops. Each call builds its tables
//! once:
//!
//! - the demands with volume, ascending in `(u, v)`, each with its endpoint
//!   switches and its cell of the [`PacketStateMap`];
//! - each co-location group as a bitmask over the map's variable table;
//! - the table's placed variables in dependency order, each with its switch;
//! - f64 hop-distance rows from and to every switch that hosts a port, an
//!   unreachable pair counting `usize::MAX / 4`.
//!
//! A group's cost is then one pass over the demands, ANDing each cell with
//! the group's mask and adding each needing flow's detour to every switch's
//! cost; a flow's waypoints are its cell's bits walked in dependency order;
//! link loads go into a dense `from × to` array. Every float is summed in a
//! fixed order — per switch flow by flow in `(u, v)` order, per link route
//! by route, over links in ascending `(from, to)` order — and placements,
//! paths and utilization bits are pinned to the values recorded before the
//! placer moved to index space (`placer_answers_are_pinned` in this module's
//! tests, and the rows of `tests/tests/golden_structure.rs`).
//!
//! **The oracle** is the mixed-integer linear program of the paper's
//! Table 2 — binary placement variables `P_{s,n}`, per-flow routing fractions
//! `R_{uv,ij}` and "has passed s" flows `PS_{s,uv,ij}` — built with
//! `snap-milp` and solved with simplex + branch and bound. The paper solves
//! it with Gurobi; the in-tree solver is exact only on small instances (the
//! campus running example with two demands takes seconds), so it places
//! nothing in production. [`SolverChoice::Exact`] runs it for the
//! benchmark's `milp.exact.ms` leg, and a seeded sweep in this module's tests
//! bounds the heuristic's total utilization against its optimum. Where its
//! solution decodes to no path, a flow takes the heuristic's waypoint route,
//! and its utilization is summed by the same function.
//!
//! Both produce a [`PlacementResult`]: a switch per state variable, a path
//! per OBS flow that visits the needed variables in dependency order, and
//! link-utilization statistics.

use crate::mapping::PacketStateMap;
use snap_lang::StateVar;
use snap_milp::{solve_milp, LinExpr, Model, Sense, Solution, SolveResult, VarId};
use snap_topology::{HopMatrix, NodeId, PortId, Topology, TrafficMatrix};
use snap_xfdd::{StateDependencies, VarOrder};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Which engine places state and routes traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverChoice {
    /// The heuristic placer: the one every compile uses unless told
    /// otherwise.
    #[default]
    Heuristic,
    /// The Table 2 MILP, solved exactly: tractable on small instances only.
    /// It is the heuristic's test oracle, and the benchmark times it as
    /// `milp.exact.ms`.
    Exact,
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
    /// Time spent building the MILP model (the paper's P4). Zero for the
    /// heuristic.
    pub model_creation: Duration,
    /// Time spent solving (the paper's P5).
    pub solving: Duration,
}

/// Decide placement and routing.
pub fn place_and_route(
    input: &OptimizeInput<'_>,
    choice: SolverChoice,
) -> (PlacementResult, OptimizeTimings) {
    match choice {
        SolverChoice::Heuristic => timed(Duration::ZERO, || heuristic_place_and_route(input, None)),
        SolverChoice::Exact => {
            let t = Instant::now();
            let instance = build_model(input);
            timed(t.elapsed(), || match solve_milp(&instance.model) {
                SolveResult::Optimal(solution) => finish_exact(input, &instance, &solution),
                // Infeasible or unbounded exact model (e.g. capacity too
                // tight): fall back to the heuristic so compilation still
                // succeeds.
                _ => heuristic_place_and_route(input, None),
            })
        }
    }
}

/// Re-route every flow, keeping an existing placement (the paper's "TE"
/// variant, run on topology or traffic-matrix changes).
pub fn reroute(
    input: &OptimizeInput<'_>,
    placement: &BTreeMap<StateVar, NodeId>,
) -> (PlacementResult, OptimizeTimings) {
    timed(Duration::ZERO, || {
        heuristic_place_and_route(input, Some(placement))
    })
}

/// Run `solve`, timing it as the solving sub-phase.
fn timed(
    model_creation: Duration,
    solve: impl FnOnce() -> PlacementResult,
) -> (PlacementResult, OptimizeTimings) {
    let t = Instant::now();
    let result = solve();
    let solving = t.elapsed();
    (
        result,
        OptimizeTimings {
            model_creation,
            solving,
        },
    )
}

fn all_variables(input: &OptimizeInput<'_>) -> BTreeSet<StateVar> {
    let mut vars = input.deps.variables.clone();
    vars.extend(input.mapping.all_vars());
    vars
}

// ---------------------------------------------------------------------------
// Heuristic engine
// ---------------------------------------------------------------------------

/// How far apart two switches count when neither reaches the other.
const UNREACHABLE: usize = usize::MAX / 4;

/// One demand with positive volume between two ports the topology attaches.
struct Demand {
    u: PortId,
    v: PortId,
    volume: f64,
    src: NodeId,
    dst: NodeId,
    /// The flow's cell in the packet-state map, if the map has one.
    cell: Option<usize>,
}

/// The traffic matrix's demands the placer and the router act on, ascending
/// in `(u, v)`.
fn demands(input: &OptimizeInput<'_>) -> Vec<Demand> {
    let topo = input.topology;
    let mut demands = Vec::new();
    for (u, v, volume) in input.traffic.iter() {
        if volume <= 0.0 {
            continue;
        }
        let (Some(src), Some(dst)) = (topo.port_switch(u), topo.port_switch(v)) else {
            continue;
        };
        let cell = input.mapping.cell_of(u, v);
        demands.push(Demand {
            u,
            v,
            volume,
            src,
            dst,
            cell,
        });
    }
    demands
}

fn heuristic_place_and_route(
    input: &OptimizeInput<'_>,
    fixed: Option<&BTreeMap<StateVar, NodeId>>,
) -> PlacementResult {
    let topo = input.topology;
    let hops = HopMatrix::new(topo);
    let order = input.deps.var_order();
    let demands = demands(input);
    let map_vars = input.mapping.var_table();
    let (placement, switches) = match fixed {
        Some(placement) => {
            let switches = map_vars.iter().map(|var| placement.get(var).copied());
            (placement.clone(), switches.collect())
        }
        None => place(input, &order, &hops, &demands),
    };
    let stops = Stops::new(map_vars, &order, &switches);
    let mut waypoints = Vec::new();
    let mut routed = Vec::with_capacity(demands.len());
    for demand in &demands {
        stops.fill(input.mapping, demand.cell, &mut waypoints);
        if let Some(path) = hops.path_through(demand.src, &waypoints, demand.dst) {
            routed.push((demand, path));
        }
    }
    let loads = routed.iter().map(|(d, path)| (path.as_slice(), d.volume));
    let (total, max) = utilization(topo, loads);
    PlacementResult {
        placement,
        paths: routed
            .into_iter()
            .map(|(d, path)| ((d.u, d.v), path))
            .collect(),
        total_utilization: total,
        max_utilization: max,
        method: "heuristic".to_string(),
    }
}

/// The placed variables of the packet-state map in dependency order, each
/// with its bit and its switch: a flow's waypoints are its cell's bits
/// walked in this order.
struct Stops(Vec<(usize, NodeId)>);

impl Stops {
    /// `switches[i]` holds `map_vars[i]`, if it is placed.
    fn new(map_vars: &[StateVar], order: &VarOrder, switches: &[Option<NodeId>]) -> Stops {
        let stops = by_rank(map_vars, order).into_iter();
        Stops(stops.filter_map(|i| Some((i, switches[i]?))).collect())
    }

    /// The switches holding the variables of `cell`, in the order the flow
    /// must visit them, consecutive repeats merged.
    fn fill(&self, map: &PacketStateMap, cell: Option<usize>, waypoints: &mut Vec<NodeId>) {
        waypoints.clear();
        let Some(cell) = cell else {
            return;
        };
        let bits = map.cell_bits(cell);
        for &(bit, node) in &self.0 {
            if has_bit(bits, bit) && waypoints.last() != Some(&node) {
                waypoints.push(node);
            }
        }
    }
}

/// The indices of `vars` (ascending by name) in dependency order: the sort
/// is stable, so ties break by name, as they do in the order.
fn by_rank<V: Borrow<StateVar>>(vars: &[V], order: &VarOrder) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (0..vars.len()).collect();
    by_rank.sort_by_key(|&i| order.rank(vars[i].borrow()));
    by_rank
}

/// Is bit `i` of `bits` set?
fn has_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// Place every variable: each co-location group goes to the switch
/// minimizing the demand-weighted detour of the flows that need any of its
/// variables. Returns the placement, and the switch of every variable of the
/// packet-state map's table (`None` for one that is not placed).
fn place(
    input: &OptimizeInput<'_>,
    order: &VarOrder,
    hops: &HopMatrix,
    demands: &[Demand],
) -> (BTreeMap<StateVar, NodeId>, Vec<Option<NodeId>>) {
    let (topo, map) = (input.topology, input.mapping);
    let map_vars = map.var_table();

    // The variables to place, ascending: the dependency analysis's and any
    // some flow of the map needs. `bit[i]` is `vars[i]`'s bit in the map.
    let used = map.any_cell_bits();
    let map_used = (0..map_vars.len()).filter(|&i| has_bit(&used, i));
    let mut vars: Vec<&StateVar> = input.deps.variables.iter().collect();
    vars.extend(map_used.map(|i| &map_vars[i]));
    vars.sort_unstable();
    vars.dedup();
    let bit: Vec<Option<usize>> = vars
        .iter()
        .map(|v| map_vars.binary_search(v).ok())
        .collect();

    let groups = colocation_groups(&vars, order, input.deps);

    // The flows that need any state, each with the offset of its source's
    // row in `from` (hop distances from the switch, as f64) and of its
    // destination's row in `to` (hop distances to the switch). Rows exist
    // for the switches that host a port only.
    let nodes = topo.num_nodes();
    let mut row_at = vec![None; nodes];
    let (mut from, mut to) = (Vec::new(), Vec::new());
    let mut row = |switch: NodeId| {
        *row_at[switch.0].get_or_insert_with(|| {
            let far = |d: Option<usize>| d.unwrap_or(UNREACHABLE) as f64;
            from.extend(topo.nodes().map(|n| far(hops.distance(switch, n))));
            to.extend(topo.nodes().map(|n| far(hops.distance(n, switch))));
            from.len() - nodes
        })
    };
    let flows: Vec<(&[u64], f64, usize, usize)> = demands
        .iter()
        .filter_map(|d| {
            let bits = map.cell_bits(d.cell?);
            let needs_state = bits.iter().any(|&w| w != 0);
            needs_state.then(|| (bits, d.volume, row(d.src), row(d.dst)))
        })
        .collect();

    let mut node_of = vec![NodeId(0); vars.len()];
    let mut mask = vec![0u64; used.len()];
    let mut cost = vec![0.0f64; nodes];
    let mut central = None;
    for group in groups {
        mask.fill(0);
        for b in group.iter().filter_map(|&i| bit[i]) {
            mask[b / 64] |= 1 << (b % 64);
        }
        // Each switch's cost, summed flow by flow in `(u, v)` order.
        cost.fill(0.0);
        let mut needed = false;
        for &(bits, volume, src, dst) in &flows {
            if bits.iter().zip(&mask).all(|(&w, &m)| w & m == 0) {
                continue;
            }
            needed = true;
            let (from, to) = (&from[src..src + nodes], &to[dst..dst + nodes]);
            for ((c, &d1), &d2) in cost.iter_mut().zip(from).zip(to) {
                *c += volume * (d1 + d2);
            }
        }
        let node = if needed {
            let mut best = (NodeId(0), f64::INFINITY);
            for (n, &c) in cost.iter().enumerate() {
                if c < best.1 {
                    best = (NodeId(n), c);
                }
            }
            best.0
        } else {
            // Nothing constrains the group; put it on the most central
            // switch.
            *central.get_or_insert_with(|| most_central(topo, hops))
        };
        group.iter().for_each(|&i| node_of[i] = node);
    }

    let mut switches = vec![None; map_vars.len()];
    for (i, &node) in node_of.iter().enumerate() {
        if let Some(b) = bit[i] {
            switches[b] = Some(node);
        }
    }
    let placement = vars.into_iter().cloned().zip(node_of).collect();
    (placement, switches)
}

/// Co-location groups, as indices into `vars` (ascending): connected
/// components of the `tied` relation, plus singletons for everything else,
/// ordered by variable order. A `tied` pair outside `vars` is ignored (the
/// dependency analysis ties variables of one strongly connected component
/// of its own `variables`).
fn colocation_groups(
    vars: &[&StateVar],
    order: &VarOrder,
    deps: &StateDependencies,
) -> Vec<Vec<usize>> {
    let mut tied = vec![Vec::new(); vars.len()];
    for (a, b) in &deps.tied {
        if let (Ok(a), Ok(b)) = (vars.binary_search(&a), vars.binary_search(&b)) {
            tied[a].push(b);
        }
    }
    let mut assigned = vec![false; vars.len()];
    let mut groups = Vec::new();
    for var in by_rank(vars, order) {
        if assigned[var] {
            continue;
        }
        // Grow the component of `var` under `tied`.
        assigned[var] = true;
        let mut group = vec![var];
        let mut frontier = vec![var];
        while let Some(cur) = frontier.pop() {
            for &next in &tied[cur] {
                if !assigned[next] {
                    assigned[next] = true;
                    group.push(next);
                    frontier.push(next);
                }
            }
        }
        groups.push(group);
    }
    groups
}

/// The switch with the least summed hop distance to every switch (an
/// unreachable one counting `usize::MAX / 2`).
fn most_central(topo: &Topology, hops: &HopMatrix) -> NodeId {
    topo.nodes()
        .min_by_key(|&n| {
            topo.nodes()
                .map(|m| hops.distance(n, m).unwrap_or(usize::MAX / 2))
                .sum::<usize>()
        })
        .unwrap_or(NodeId(0))
}

/// Link-utilization statistics for single-path routes, each with its
/// volume: the loads are summed per directed link in route order, and the
/// links in ascending `(from, to)` order.
fn utilization<'p>(
    topo: &Topology,
    routes: impl IntoIterator<Item = (&'p [NodeId], f64)>,
) -> (f64, f64) {
    let nodes = topo.num_nodes();
    let mut load = vec![0.0f64; nodes * nodes];
    for (path, volume) in routes {
        for hop in path.windows(2) {
            load[hop[0].0 * nodes + hop[1].0] += volume;
        }
    }
    let mut total = 0.0;
    let mut max = 0.0f64;
    // A link no route crosses has no load, and would add nothing.
    for (at, &l) in load.iter().enumerate().filter(|&(_, &l)| l != 0.0) {
        let cap = topo
            .link_capacity(NodeId(at / nodes), NodeId(at % nodes))
            .unwrap_or(f64::INFINITY);
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
// Exact engine (Table 2): the oracle
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

/// Build the Table 2 model.
fn build_model(input: &OptimizeInput<'_>) -> MilpInstance {
    let topo = input.topology;
    let links: Vec<(NodeId, NodeId, f64)> = topo
        .links()
        .iter()
        .map(|l| (l.from, l.to, l.capacity))
        .collect();
    let variables = all_variables(input);

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
        for (li, &(_, _, cap)) in links.iter().enumerate() {
            let r = model.add_var(0.0, f64::INFINITY);
            model.set_objective(r, demand / cap.max(1e-9));
            vars.routing.insert((di, li), r);
        }
    }

    // Placement variables (binary).
    for s in &variables {
        for n in topo.nodes() {
            vars.placement.insert((s.clone(), n), model.add_binary());
        }
    }

    // PS variables for (s, demand) pairs where the flow needs s.
    for (di, &(u, v, _, _, _)) in demands.iter().enumerate() {
        for s in input.mapping.vars_for(u, v).iter() {
            for li in 0..links.len() {
                let ps = model.add_var(0.0, f64::INFINITY);
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
        model.add_constraint(leave, Sense::Eq, 1.0);
        let mut arrive = LinExpr::new();
        for li in in_links(dst) {
            arrive.add(vars.routing[&(di, li)], 1.0);
        }
        model.add_constraint(arrive, Sense::Eq, 1.0);
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
            model.add_constraint(conserve, Sense::Eq, 0.0);
            model.add_constraint(incoming, Sense::Le, 1.0);
        }
    }
    // Capacity constraints.
    for (li, &(_, _, cap)) in links.iter().enumerate() {
        let mut c = LinExpr::new();
        for (di, &(_, _, demand, _, _)) in demands.iter().enumerate() {
            c.add(vars.routing[&(di, li)], demand);
        }
        model.add_constraint(c, Sense::Le, cap);
    }

    // State constraints: exactly one location each.
    for s in &variables {
        let mut one = LinExpr::new();
        for n in topo.nodes() {
            one.add(vars.placement[&(s.clone(), n)], 1.0);
        }
        model.add_constraint(one, Sense::Eq, 1.0);
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
            model.add_constraint(expr, Sense::Eq, 0.0);
        }
    }

    // Per-flow state traversal, "passed" flow conservation and ordering.
    for (di, &(u, v, _, src, dst)) in demands.iter().enumerate() {
        let needed = input.mapping.vars_for(u, v);
        for s in needed.iter() {
            let placed = |n: NodeId| vars.placement[&(s.clone(), n)];
            // The flow must pass the switch where s is placed.
            for n in topo.nodes() {
                if n == src || n == dst {
                    continue;
                }
                let mut expr = LinExpr::new();
                for li in in_links(n) {
                    expr.add(vars.routing[&(di, li)], 1.0);
                }
                expr.add(placed(n), -1.0);
                model.add_constraint(expr, Sense::Ge, 0.0);
            }
            // PS ≤ R.
            for li in 0..links.len() {
                let expr = LinExpr::new()
                    .with(vars.passed[&(s.clone(), di, li)], 1.0)
                    .with(vars.routing[&(di, li)], -1.0);
                model.add_constraint(expr, Sense::Le, 0.0);
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
                expr.add(placed(n), 1.0);
                model.add_constraint(expr, Sense::Eq, 0.0);
            }
            // By the destination, the flow has passed s.
            let mut at_dst = LinExpr::new();
            for li in in_links(dst) {
                at_dst.add(vars.passed[&(s.clone(), di, li)], 1.0);
            }
            at_dst.add(placed(dst), 1.0);
            model.add_constraint(at_dst, Sense::Eq, 1.0);
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
                expr.add(vars.placement[&(s.clone(), n)], 1.0);
                expr.add(vars.placement[&(t.clone(), n)], -1.0);
                model.add_constraint(expr, Sense::Ge, 0.0);
            }
        }
    }

    MilpInstance {
        model,
        vars,
        demands,
    }
}

/// Turn a solved model into a placement, concrete per-flow paths
/// (largest-fraction walk, with a waypoint fallback when decoding fails) and
/// utilization statistics.
fn finish_exact(
    input: &OptimizeInput<'_>,
    instance: &MilpInstance,
    solution: &Solution,
) -> PlacementResult {
    let topo = input.topology;
    let placement: BTreeMap<StateVar, NodeId> = instance
        .vars
        .placement
        .iter()
        .filter(|(_, &pv)| solution.is_set(pv))
        .map(|((s, n), _)| (s.clone(), *n))
        .collect();
    let hops = HopMatrix::new(topo);
    let links: Vec<(NodeId, NodeId)> = topo.links().iter().map(|l| (l.from, l.to)).collect();
    let map = input.mapping;
    let switches: Vec<Option<NodeId>> = map
        .var_table()
        .iter()
        .map(|var| placement.get(var).copied())
        .collect();
    let stops = Stops::new(map.var_table(), &input.deps.var_order(), &switches);
    let mut waypoints = Vec::new();
    let mut paths = Vec::with_capacity(instance.demands.len());
    for (di, &(u, v, volume, src, dst)) in instance.demands.iter().enumerate() {
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
                    .map(|&id| solution.value(id))
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
            // Fallback: the heuristic's waypoint path honouring the placement.
            stops.fill(map, map.cell_of(u, v), &mut waypoints);
            if let Some(p) = hops.path_through(src, &waypoints, dst) {
                path = p;
            }
        }
        paths.push(((u, v), path, volume));
    }
    let loads = paths
        .iter()
        .map(|(_, path, volume)| (path.as_slice(), *volume));
    let (total, max) = utilization(topo, loads);
    PlacementResult {
        placement,
        paths: paths.into_iter().map(|(uv, path, _)| (uv, path)).collect(),
        total_utilization: total,
        max_utilization: max,
        method: "milp".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PacketStateMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// Dependency analysis and packet-state mapping of `policy` over
    /// `topo`'s ports.
    fn analyze(policy: &Policy, topo: &Topology) -> (PacketStateMap, StateDependencies) {
        let deps = StateDependencies::analyze(policy);
        let d = snap_xfdd::compile(policy).unwrap();
        let ports: Vec<PortId> = topo.external_ports().map(|(p, _)| p).collect();
        (PacketStateMap::analyze(&d, &ports), deps)
    }

    fn setup(policy: &Policy) -> (Topology, TrafficMatrix, PacketStateMap, StateDependencies) {
        let topo = campus();
        let tm = TrafficMatrix::uniform(&topo, 10.0);
        let (psm, deps) = analyze(policy, &topo);
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
        let (result, _) = place_and_route(&input, SolverChoice::default());
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
        let (result, _) = place_and_route(&input, SolverChoice::default());
        let node = result.placement[&StateVar::new("dns-count")];
        assert_eq!(topo.node_name(node), "D4");
    }

    #[test]
    fn exact_milp_on_a_tiny_instance_matches_expectations() {
        // Line topology a - b - c with ports 1 (at a) and 2 (at c); a single
        // state variable needed by both directions must sit on the a-c path,
        // and with traffic in both directions the middle switch minimizes
        // nothing in particular but every choice on the path is feasible.
        let mut topo = Topology::new("line");
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
        let (psm, deps) = analyze(&policy, &topo);
        let mut tm = TrafficMatrix::new();
        tm.set(PortId(1), PortId(2), 5.0);
        tm.set(PortId(2), PortId(1), 5.0);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let (result, _) = place_and_route(&input, SolverChoice::Exact);
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
        let (psm, deps) = analyze(&policy, &topo);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let (exact, _) = place_and_route(&input, SolverChoice::Exact);
        for &(u, v) in &[(PortId(1), PortId(6)), (PortId(2), PortId(6))] {
            assert!(exact.path_respects_order(
                u,
                v,
                &[StateVar::new("first"), StateVar::new("second")]
            ));
        }
        // On the running example's campus the heuristic matches the optimum.
        let (heuristic, _) = place_and_route(&input, SolverChoice::default());
        assert_eq!(heuristic.placement, exact.placement);
        assert!(
            (heuristic.total_utilization - exact.total_utilization).abs() < 1e-9,
            "heuristic {} vs MILP {}",
            heuristic.total_utilization,
            exact.total_utilization
        );
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
        let (first, _) = place_and_route(&input, SolverChoice::default());
        // New traffic matrix (shifted volumes) but the same placement.
        let tm2 = TrafficMatrix::gravity(&topo, 500.0, 3);
        let input2 = OptimizeInput {
            topology: &topo,
            traffic: &tm2,
            mapping: &psm,
            deps: &deps,
        };
        let (rerouted, _) = reroute(&input2, &first.placement);
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

    /// A random small instance: 3–5 switches on a ring with an optional
    /// chord and unequal link capacities, 2–3 ports, 2–3 demands, and one of
    /// three policy shapes (one counter; a `dep` pair `first` → `second`; two
    /// counters split by `InPort`), all routing on the destination /24.
    fn random_instance(seed: u64) -> (Topology, TrafficMatrix, Policy) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = Topology::new("ring");
        let switches = rng.gen_range(3..6);
        let nodes: Vec<NodeId> = (0..switches)
            .map(|i| topo.add_node(format!("s{i}")))
            .collect();
        for i in 0..switches {
            let capacity = rng.gen_range(5.0..40.0);
            topo.add_bidi_link(nodes[i], nodes[(i + 1) % switches], capacity);
        }
        if switches > 3 && rng.gen_bool(0.5) {
            let capacity = rng.gen_range(5.0..40.0);
            topo.add_bidi_link(nodes[0], nodes[2], capacity);
        }
        let ports = rng.gen_range(2..4);
        for p in 1..=ports {
            topo.add_external_port(PortId(p), nodes[rng.gen_range(0..switches)]);
        }
        let mut tm = TrafficMatrix::new();
        for _ in 0..rng.gen_range(2..4) {
            let u = rng.gen_range(1..=ports);
            let v = 1 + (u + rng.gen_range(0..ports - 1)) % ports;
            tm.set(PortId(u), PortId(v), rng.gen_range(1.0..5.0));
        }
        let src = || vec![field(Field::SrcIp)];
        let state = match seed % 3 {
            0 => state_incr("count", src()),
            1 => ite(
                state_truthy("first", src()),
                state_set("second", src(), Value::Bool(true)),
                id(),
            ),
            _ => ite(
                test(Field::InPort, Value::Int(1)),
                state_incr("left", src()),
                state_incr("right", src()),
            ),
        };
        let mut egress = drop();
        for p in (1..=ports as u8).rev() {
            egress = ite(
                test_prefix(Field::DstIp, 10, 0, p, 0, 24),
                modify(Field::OutPort, Value::Int(i64::from(p))),
                egress,
            );
        }
        (topo, tm, state.seq(egress))
    }

    /// Shapes the random sweep never draws: a switch hosting two OBS ports;
    /// a port on a switch no other switch can reach (its flows' detours
    /// count the unreachable distance, and nothing routes to it); and
    /// variables no flow with demand needs (their groups go to the most
    /// central switch), beside a zero demand.
    fn edge_shapes() -> Vec<(Topology, TrafficMatrix, Policy)> {
        let egress = |ports: u8| {
            let mut egress = drop();
            for p in (1..=ports).rev() {
                egress = ite(
                    test_prefix(Field::DstIp, 10, 0, p, 0, 24),
                    modify(Field::OutPort, Value::Int(i64::from(p))),
                    egress,
                );
            }
            egress
        };
        let src = || vec![field(Field::SrcIp)];
        let mut shapes = Vec::new();

        // Two ports on `a` of the line a - b - c.
        let mut topo = Topology::new("shared-switch");
        let nodes: Vec<NodeId> = ["a", "b", "c"].map(|n| topo.add_node(n)).to_vec();
        topo.add_bidi_link(nodes[0], nodes[1], 20.0);
        topo.add_bidi_link(nodes[1], nodes[2], 10.0);
        topo.add_external_port(PortId(1), nodes[0]);
        topo.add_external_port(PortId(2), nodes[0]);
        topo.add_external_port(PortId(3), nodes[2]);
        let tm = TrafficMatrix::gravity(&topo, 12.0, 5);
        let policy = ite(
            state_truthy("first", src()),
            state_set("second", src(), Value::Bool(true)),
            state_incr("count", src()),
        );
        shapes.push((topo, tm, policy.seq(egress(3))));

        // `d` reaches the ring a - b - c over a one-way link; nothing
        // reaches `d`.
        let mut topo = Topology::new("one-way-stub");
        let nodes: Vec<NodeId> = ["a", "b", "c", "d"].map(|n| topo.add_node(n)).to_vec();
        for i in 0..3 {
            topo.add_bidi_link(nodes[i], nodes[(i + 1) % 3], 10.0 + i as f64);
        }
        topo.add_link(nodes[3], nodes[0], 8.0);
        for (p, &node) in nodes.iter().enumerate() {
            topo.add_external_port(PortId(p + 1), node);
        }
        let tm = TrafficMatrix::gravity(&topo, 20.0, 6);
        let policy = state_incr("count", src()).seq(ite(
            test(Field::InPort, Value::Int(4)),
            state_incr("stub", src()),
            id(),
        ));
        shapes.push((topo, tm, policy.seq(egress(4))));

        // `idle` is needed only by flows from port 3, which sends nothing;
        // `dropped` is written only on packets the program drops; the flow
        // 1 -> 2 has a demand of zero.
        let mut topo = Topology::new("idle-state");
        let nodes: Vec<NodeId> = ["a", "b", "c", "d"].map(|n| topo.add_node(n)).to_vec();
        for i in 0..4 {
            topo.add_bidi_link(nodes[i], nodes[(i + 1) % 4], 10.0);
        }
        topo.add_bidi_link(nodes[1], nodes[3], 5.0);
        for (p, &node) in nodes.iter().enumerate().skip(1) {
            topo.add_external_port(PortId(p), node);
        }
        let mut tm = TrafficMatrix::new();
        tm.set(PortId(1), PortId(2), 0.0);
        tm.set(PortId(1), PortId(3), 4.0);
        tm.set(PortId(2), PortId(1), 3.0);
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dropped", src()).seq(drop()),
            state_incr("count", src()),
        )
        .seq(ite(
            test(Field::InPort, Value::Int(3)),
            state_incr("idle", src()),
            id(),
        ));
        shapes.push((topo, tm, policy.seq(egress(3))));
        shapes
    }

    /// FNV-1a over everything a [`PlacementResult`] says.
    fn mix_result(hash: &mut u64, result: &PlacementResult) {
        let mut mix = |bytes: &[u8]| {
            for &byte in bytes {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(result.method.as_bytes());
        for (var, node) in &result.placement {
            mix(var.name().as_bytes());
            mix(&node.0.to_le_bytes());
        }
        for ((u, v), path) in &result.paths {
            for word in [u.0, v.0, path.len()] {
                mix(&word.to_le_bytes());
            }
            path.iter().for_each(|n| mix(&n.0.to_le_bytes()));
        }
        mix(&result.total_utilization.to_bits().to_le_bytes());
        mix(&result.max_utilization.to_bits().to_le_bytes());
    }

    /// Every answer of the placer — a fresh placement, and a re-route of it
    /// under a shifted gravity matrix — on the sweep's 48 instances and the
    /// edge shapes, and the MILP oracle's answers on the 48 instances, pinned
    /// bit for bit to the values recorded before the placer moved to index
    /// space.
    #[test]
    fn placer_answers_are_pinned() {
        let mut instances: Vec<_> = (0..48).map(random_instance).collect();
        instances.extend(edge_shapes());
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, (topo, tm, policy)) in instances.iter().enumerate() {
            let (psm, deps) = analyze(policy, topo);
            let input = OptimizeInput {
                topology: topo,
                traffic: tm,
                mapping: &psm,
                deps: &deps,
            };
            let (placed, _) = place_and_route(&input, SolverChoice::default());
            mix_result(&mut hash, &placed);
            if i < 48 {
                mix_result(&mut hash, &place_and_route(&input, SolverChoice::Exact).0);
            }
            let shifted = TrafficMatrix::gravity(topo, 30.0, 100 + i as u64);
            let input = OptimizeInput {
                traffic: &shifted,
                ..input
            };
            let (rerouted, _) = reroute(&input, &placed.placement);
            mix_result(&mut hash, &rerouted);
        }
        assert_eq!(hash, 460_440_424_933_313_230, "placer answers moved");
    }

    /// The worst `heuristic total_utilization / MILP optimum` the sweep
    /// measures over feasible heuristic answers, 2.70, plus 0.05 headroom.
    /// The heuristic routes by hop count, blind to capacity: where a thin
    /// direct link sits beside two fat ones, the optimum takes the detour and
    /// the heuristic does not.
    const WORST_GAP: f64 = 2.75;

    /// The oracle: on random small instances the MILP is solved to
    /// optimality, both engines' paths honour the dependency order, and
    /// wherever the heuristic's answer is feasible (simple paths within
    /// capacity) it never beats the optimum and stays within the measured
    /// gap of it. Infeasible heuristic answers are counted, not ranked.
    #[test]
    fn heuristic_stays_within_the_measured_gap_of_the_milp_optimum() {
        let (mut gaps, mut infeasible) = (Vec::new(), 0);
        for seed in 0..48 {
            let (topo, tm, policy) = random_instance(seed);
            let (psm, deps) = analyze(&policy, &topo);
            let input = OptimizeInput {
                topology: &topo,
                traffic: &tm,
                mapping: &psm,
                deps: &deps,
            };
            let (heuristic, _) = place_and_route(&input, SolverChoice::default());
            let instance = build_model(&input);
            let SolveResult::Optimal(solution) = solve_milp(&instance.model) else {
                panic!("seed {seed}: the MILP is not solved to optimality");
            };
            let exact = finish_exact(&input, &instance, &solution);

            let order = deps.var_order();
            for &(u, v, ..) in &instance.demands {
                let mut needed: Vec<StateVar> = psm.vars_for(u, v).iter().cloned().collect();
                needed.sort_by_key(|s| order.rank(s));
                for result in [&heuristic, &exact] {
                    assert!(
                        result.path_respects_order(u, v, &needed),
                        "seed {seed}: {} path {u:?}->{v:?} misses {needed:?}",
                        result.method
                    );
                }
            }

            let simple = heuristic
                .paths
                .values()
                .all(|p| p.iter().collect::<BTreeSet<_>>().len() == p.len());
            if solution.objective <= 1e-9 {
                continue;
            }
            if !simple || heuristic.max_utilization > 1.0 + 1e-9 {
                infeasible += 1;
                continue;
            }
            assert!(
                solution.objective <= heuristic.total_utilization + 1e-6,
                "seed {seed}: MILP optimum {} above the feasible heuristic's {}",
                solution.objective,
                heuristic.total_utilization
            );
            gaps.push(heuristic.total_utilization / solution.objective);
        }
        gaps.sort_by(f64::total_cmp);
        let matched = gaps.iter().filter(|&&g| (g - 1.0).abs() <= 1e-6).count();
        let summary = format!(
            "{} feasible instances with traffic ({infeasible} infeasible heuristic answers \
             left out), {matched} at the optimum, median gap {:.3}, worst {:.3}",
            gaps.len(),
            gaps[gaps.len() / 2],
            gaps[gaps.len() - 1]
        );
        println!("{summary}");
        assert!(gaps.len() >= 24, "{summary}");
        assert!(gaps[gaps.len() - 1] <= WORST_GAP, "{summary}");
    }
}
