//! The long-lived compiler session.

use crate::cache::TranslationCache;
use snap_core::{
    generate_rules, place_and_route, reroute, Compiled, OptimizeInput, OptimizeTimings,
    PacketStateMap, PhaseTimings, PlacementResult, SolverChoice,
};
use snap_lang::Policy;
use snap_telemetry::{Counter, Gauge, Histogram, Telemetry};
use snap_topology::{PortId, Topology, TrafficMatrix};
use snap_xfdd::{
    translate_with, CompileError, NodeId, Pool, StateDependencies, SubtreeMemo, VarOrder, Xfdd,
};
use std::sync::Arc;
use std::time::Instant;

/// Options controlling a [`CompilerSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionOptions {
    /// Pool size (in nodes) above which a compilation triggers an automatic
    /// [`CompilerSession::compact_now`]. Composition interns intermediates
    /// well beyond the final diagram size, so this should sit comfortably
    /// above one compilation's churn — compacting on every compile would
    /// clear the warm memo entries the session exists to keep.
    pub gc_threshold: usize,
    /// How many compile generations a cached subtree survives without being
    /// used before GC evicts it (minimum 1 = only subtrees of the current
    /// compilation are kept).
    pub cache_generations: u64,
    /// How many fully compiled policy versions to keep. Recompiling a
    /// version the session has already built — rollbacks, attack/calm
    /// toggles, A/B flips — is then answered from the version cache without
    /// re-running any phase. `0` disables the cache.
    pub version_cache: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            gc_threshold: 500_000,
            cache_generations: 2,
            version_cache: 8,
        }
    }
}

/// A point-in-time reading of the session's counters (the counters
/// themselves live on the session's `snap-telemetry` registry as the
/// `session.*` metrics; this is the value [`CompilerSession::stats`]
/// assembles from them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Policy compilations (initial compile + policy updates).
    pub compiles: u64,
    /// Traffic-matrix updates (reroutes).
    pub reroutes: u64,
    /// Policy subtrees answered from the fingerprint cache.
    pub subtree_hits: u64,
    /// Policy subtrees that had to be translated.
    pub subtree_misses: u64,
    /// Compilations that reused the previous placement because mapping and
    /// dependencies were unchanged.
    pub placement_reuses: u64,
    /// Compilations answered from the version cache (previously seen
    /// policy): whole under unchanged traffic, with placement and rules
    /// brought up to the current matrix after a traffic update.
    pub version_hits: u64,
    /// Automatic + explicit pool compactions.
    pub gc_runs: u64,
    /// Total nodes reclaimed by compaction.
    pub nodes_reclaimed: u64,
    /// Pool rebuilds forced by a changed state-variable order.
    pub order_resets: u64,
}

/// The registry-backed counters behind [`SessionStats`], pre-registered as
/// the `session.*` metrics so increments are handle writes, never name
/// lookups. [`CompilerSession::set_telemetry`] swaps the backing registry
/// and carries the accumulated counts over.
struct SessionCounters {
    telemetry: Telemetry,
    compiles: Counter,
    reroutes: Counter,
    subtree_hits: Counter,
    subtree_misses: Counter,
    placement_reuses: Counter,
    version_hits: Counter,
    gc_runs: Counter,
    nodes_reclaimed: Counter,
    order_resets: Counter,
    /// `pool.live_nodes` — nodes interned in the session pool, set after
    /// every compile and compaction so bounded-memory monitors read a live
    /// number instead of re-deriving it.
    pool_nodes: Gauge,
    /// `session.phase_us{<phase>}` — where each compile that ran phases
    /// (not a version-cache hit) spent its time, one histogram per entry of
    /// [`PHASES`].
    phase_us: [Histogram; PHASES.len()],
}

/// The phases of a session compile, as the labels of the
/// `session.phase_us{..}` histogram family: P1; P2 split into re-translation
/// through the fingerprint cache, the race check and the frozen extract; P3;
/// P4 + P5 (zero-length when the placement is reused); P6; and entering the
/// version cache, which frees what it evicts.
const PHASES: [&str; 8] = [
    "deps",
    "translate",
    "race_check",
    "extract",
    "mapping",
    "placement",
    "rulegen",
    "evict",
];

impl SessionCounters {
    fn new(telemetry: Telemetry) -> SessionCounters {
        let r = telemetry.registry();
        SessionCounters {
            compiles: r.counter("session.compiles"),
            reroutes: r.counter("session.reroutes"),
            subtree_hits: r.counter("session.subtree_hits"),
            subtree_misses: r.counter("session.subtree_misses"),
            placement_reuses: r.counter("session.placement_reuses"),
            version_hits: r.counter("session.version_hits"),
            gc_runs: r.counter("session.gc_runs"),
            nodes_reclaimed: r.counter("session.nodes_reclaimed"),
            order_resets: r.counter("session.order_resets"),
            pool_nodes: r.gauge("pool.live_nodes"),
            phase_us: PHASES.map(|phase| r.histogram(&format!("session.phase_us{{{phase}}}"))),
            telemetry,
        }
    }

    fn read(&self) -> SessionStats {
        SessionStats {
            compiles: self.compiles.get(),
            reroutes: self.reroutes.get(),
            subtree_hits: self.subtree_hits.get(),
            subtree_misses: self.subtree_misses.get(),
            placement_reuses: self.placement_reuses.get(),
            version_hits: self.version_hits.get(),
            gc_runs: self.gc_runs.get(),
            nodes_reclaimed: self.nodes_reclaimed.get(),
            order_resets: self.order_resets.get(),
        }
    }
}

/// What one pool compaction did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcReport {
    /// Pool size before compaction.
    pub nodes_before: usize,
    /// Pool size after compaction.
    pub nodes_after: usize,
    /// Stale cache entries evicted before marking.
    pub entries_evicted: usize,
}

impl GcReport {
    /// Nodes reclaimed by this compaction.
    pub fn reclaimed(&self) -> usize {
        self.nodes_before - self.nodes_after
    }
}

/// A long-lived compilation session: the controller-facing layer that owns a
/// persistent [`Pool`] across compilations.
///
/// Where [`snap_core::Compiler::compile`] builds a fresh arena per call and
/// throws its memo tables away, a session keeps them warm: recompiling after
/// an edit to one subtree of the policy re-translates only that subtree
/// (fingerprint cache), re-derives every untouched composition from the memo
/// tables, and — when the packet-state mapping and state dependencies are
/// unchanged — reuses the previous placement instead of re-optimizing.
pub struct CompilerSession {
    topology: Topology,
    traffic: TrafficMatrix,
    options: SessionOptions,
    pool: Pool,
    cache: TranslationCache,
    /// Fully compiled policy versions, newest-used last (a tiny LRU). The
    /// entries are self-contained (their diagrams live in extracted pools),
    /// so pool GC and order resets never invalidate them. A traffic change
    /// outdates only what depends on the matrix — placement, routing and
    /// rules — so entries are stamped with the traffic generation they were
    /// placed under and brought up to date when next hit.
    versions: Vec<VersionEntry>,
    /// Bumped by every traffic-matrix update.
    traffic_generation: u64,
    current: Option<Arc<Compiled>>,
    stats: SessionCounters,
}

struct VersionEntry {
    fingerprint: u64,
    compiled: Arc<Compiled>,
    /// The session's traffic generation when `compiled` was placed.
    traffic_generation: u64,
}

impl CompilerSession {
    /// A session for a topology and traffic matrix, with default options.
    pub fn new(topology: Topology, traffic: TrafficMatrix) -> Self {
        CompilerSession {
            topology,
            traffic,
            options: SessionOptions::default(),
            pool: Pool::new(VarOrder::empty()),
            cache: TranslationCache::default(),
            versions: Vec::new(),
            traffic_generation: 0,
            current: None,
            stats: SessionCounters::new(Telemetry::new()),
        }
    }

    /// Move the session's counters onto `telemetry`'s registry — a
    /// deployment shares one registry between session, controller and data
    /// plane this way. Counts accumulated so far carry over.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        let old = self.stats.read();
        let fresh = SessionCounters::new(telemetry);
        fresh.compiles.add(old.compiles);
        fresh.reroutes.add(old.reroutes);
        fresh.subtree_hits.add(old.subtree_hits);
        fresh.subtree_misses.add(old.subtree_misses);
        fresh.placement_reuses.add(old.placement_reuses);
        fresh.version_hits.add(old.version_hits);
        fresh.gc_runs.add(old.gc_runs);
        fresh.nodes_reclaimed.add(old.nodes_reclaimed);
        fresh.order_resets.add(old.order_resets);
        fresh.pool_nodes.set(self.pool.len() as i64);
        self.stats = fresh;
    }

    /// The telemetry instance the session's counters are registered on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.stats.telemetry
    }

    /// Use specific session options.
    pub fn with_options(mut self, options: SessionOptions) -> Self {
        self.options = options;
        self
    }

    /// A shim kept only because the benchmark's fleet leg builds against it:
    /// a session always places with the heuristic, so the one choice it
    /// accepts is the default. It goes when ROADMAP item 5 touches the
    /// benchmark.
    pub fn with_solver(self, solver: SolverChoice) -> Self {
        assert_eq!(
            solver,
            SolverChoice::default(),
            "a session places with the heuristic only"
        );
        self
    }

    /// The most recent compilation result, if any.
    pub fn current(&self) -> Option<&Compiled> {
        self.current.as_deref()
    }

    /// Number of nodes currently interned in the session pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// A point-in-time reading of the session counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.read()
    }

    /// The session's target topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    // -----------------------------------------------------------------------
    // Compilation
    // -----------------------------------------------------------------------

    /// Compile a policy, reusing everything the session has accumulated.
    /// The first call behaves like a cold [`snap_core::Compiler::compile`];
    /// subsequent calls — after a policy edit, a rollback, a flip — are
    /// incremental.
    ///
    /// Returns the handle the session itself keeps (as
    /// [`Self::current_shared`] and in its version cache), which is what a
    /// controller ships. A version-cache hit returns the cached
    /// compilation as it is, timings of the compile (or, after a traffic
    /// update, the re-placement) that produced it included; where *this*
    /// compile spent its time is the `session.phase_us{..}` histograms.
    pub fn compile(&mut self, policy: &Policy) -> Result<Arc<Compiled>, CompileError> {
        self.stats.compiles.inc();
        self.cache.bump_generation();

        // Version cache: a policy the session has already fully compiled
        // (rollback, attack/calm toggle, A/B flip) needs no analysis phase
        // to run at all.
        if let Some(cached) = self.version_lookup(policy) {
            self.stats.version_hits.inc();
            self.current = Some(Arc::clone(&cached));
            return Ok(cached);
        }

        // P1 — state dependency analysis (always: it is cheap and decides
        // whether the warm pool is still sound).
        let mut last = Instant::now();
        let mut lap = || {
            let now = Instant::now();
            now - std::mem::replace(&mut last, now)
        };
        let deps = StateDependencies::analyze(policy);
        let dependency_analysis = lap();
        let order = deps.var_order();
        if order != *self.pool.order() {
            // Every interned diagram was composed under the old test order;
            // reusing them would break the ordering invariant. Start over.
            // (Adopting the order on the very first compile is not counted:
            // there is nothing warm to lose yet.)
            if !self.cache.is_empty() {
                self.stats.order_resets.inc();
            }
            self.pool = Pool::new(order);
            self.cache.clear();
        }

        // P2 — translation through the fingerprint cache. Rejected policies
        // have interned nodes and cache entries by the time they fail, so
        // the GC threshold is enforced on the error paths too — a stream of
        // racy policies must not grow the pool without bound.
        lap();
        let mut memo = CountedCache {
            cache: &mut self.cache,
            hits: &self.stats.subtree_hits,
            misses: &self.stats.subtree_misses,
        };
        let root = match translate_with(policy, &mut self.pool, &mut memo) {
            Ok(root) => root,
            Err(e) => {
                self.maybe_gc();
                return Err(e);
            }
        };
        let translate = lap();
        if let Some(var) = self.pool.find_race(root) {
            self.maybe_gc();
            return Err(CompileError::StateRace { var });
        }
        let race_check = lap();
        // Publish a minimal frozen copy — O(diagram) handle copies, not
        // O(arena) — so the session's accumulated garbage never leaks into
        // configs.
        let (frozen, frozen_root) = self.pool.extract(root);
        let xfdd = Xfdd::new(frozen, frozen_root);
        let extract = lap();

        // P3 — packet-state mapping (depends on the diagram, so it reruns;
        // for a single-subtree edit it usually comes out *equal*, which is
        // what unlocks placement reuse below).
        let ports: Vec<PortId> = self.topology.external_ports().map(|(p, _)| p).collect();
        let mapping = PacketStateMap::analyze(&xfdd, &ports);
        let packet_state_mapping = lap();

        // P4 + P5 — placement and routing, skipped entirely when its inputs
        // (mapping, dependency relations, traffic) are unchanged.
        let (placement, opt_timings) = match self.running_placement_for(&mapping, &deps) {
            Some(placement) => {
                self.stats.placement_reuses.inc();
                (placement, OptimizeTimings::default())
            }
            None => {
                let input = OptimizeInput {
                    topology: &self.topology,
                    traffic: &self.traffic,
                    mapping: &mapping,
                    deps: &deps,
                };
                let (placement, timings) = place_and_route(&input, SolverChoice::default());
                (Arc::new(placement), timings)
            }
        };
        let placement_time = lap();

        // P6 — rule generation.
        let rules = generate_rules(&self.topology, &placement);
        let rule_generation = lap();

        let compiled = Arc::new(Compiled {
            policy: policy.clone(),
            deps,
            xfdd,
            mapping,
            placement,
            rules,
            timings: PhaseTimings {
                dependency_analysis,
                xfdd_generation: translate + race_check + extract,
                packet_state_mapping,
                milp_creation: opt_timings.model_creation,
                optimization: opt_timings.solving,
                rule_generation,
            },
        });
        self.current = Some(Arc::clone(&compiled));
        lap();
        self.version_insert(Arc::clone(&compiled));
        let evict = lap();
        let phases = [
            dependency_analysis,
            translate,
            race_check,
            extract,
            packet_state_mapping,
            placement_time,
            rule_generation,
            evict,
        ];
        for (histogram, phase) in self.stats.phase_us.iter().zip(phases) {
            histogram.record(phase.as_micros() as u64);
        }
        self.maybe_gc();
        Ok(compiled)
    }

    fn maybe_gc(&mut self) {
        if self.pool.len() > self.options.gc_threshold {
            self.run_gc();
        }
        self.stats.pool_nodes.set(self.pool.len() as i64);
    }

    /// The running compilation's placement, if it is a valid answer for a
    /// program with this mapping and these dependencies: placement and
    /// routing depend on nothing else but the traffic matrix, and the
    /// running compilation is always placed under the current one.
    fn running_placement_for(
        &self,
        mapping: &PacketStateMap,
        deps: &StateDependencies,
    ) -> Option<Arc<PlacementResult>> {
        let running = self.current.as_ref()?;
        (running.mapping == *mapping
            && running.deps.dep == deps.dep
            && running.deps.tied == deps.tied
            && running.deps.variables == deps.variables)
            .then(|| Arc::clone(&running.placement))
    }

    fn version_lookup(&mut self, policy: &Policy) -> Option<Arc<Compiled>> {
        let fp = crate::cache::fingerprint(policy);
        let at = self
            .versions
            .iter()
            .position(|v| v.fingerprint == fp && &v.compiled.policy == policy)?;
        // Move to the back: most recently used.
        let mut entry = self.versions.remove(at);
        if entry.traffic_generation != self.traffic_generation {
            let stale = &entry.compiled;
            let running = self.running_placement_for(&stale.mapping, &stale.deps);
            entry.compiled = self.retargeted(stale, running);
            entry.traffic_generation = self.traffic_generation;
        }
        let compiled = Arc::clone(&entry.compiled);
        self.versions.push(entry);
        Some(compiled)
    }

    /// `prev` brought to the current traffic matrix: policy, dependencies,
    /// diagram and mapping do not depend on it and are kept; the placement
    /// is the given one, else `prev`'s state placement with routing
    /// re-optimized (the paper's "TE" scenario); rules follow.
    fn retargeted(
        &self,
        prev: &Compiled,
        placement: Option<Arc<PlacementResult>>,
    ) -> Arc<Compiled> {
        let mut timings = PhaseTimings::default();
        let placement = placement.unwrap_or_else(|| {
            let input = OptimizeInput {
                topology: &self.topology,
                traffic: &self.traffic,
                mapping: &prev.mapping,
                deps: &prev.deps,
            };
            let (placement, optimize) = reroute(&input, &prev.placement.placement);
            timings.optimization = optimize.solving;
            Arc::new(placement)
        });
        let t = Instant::now();
        let rules = generate_rules(&self.topology, &placement);
        timings.rule_generation = t.elapsed();
        Arc::new(Compiled {
            policy: prev.policy.clone(),
            deps: prev.deps.clone(),
            xfdd: prev.xfdd.clone(),
            mapping: prev.mapping.clone(),
            placement,
            rules,
            timings,
        })
    }

    /// Remember `compiled` as the most recently used version, dropping an
    /// older compilation of the same policy and whatever exceeds the
    /// cache's capacity.
    fn version_insert(&mut self, compiled: Arc<Compiled>) {
        if self.options.version_cache == 0 {
            return;
        }
        let fingerprint = crate::cache::fingerprint(&compiled.policy);
        self.versions
            .retain(|v| !(v.fingerprint == fingerprint && v.compiled.policy == compiled.policy));
        self.versions.push(VersionEntry {
            fingerprint,
            compiled,
            traffic_generation: self.traffic_generation,
        });
        while self.versions.len() > self.options.version_cache {
            self.versions.remove(0);
        }
    }

    /// React to a traffic-matrix change: keep program, mapping and
    /// placement, re-optimize routing only and regenerate rules (the paper's
    /// "TE" scenario). Returns `None` when nothing has been compiled yet
    /// (the new matrix is still recorded for the next compile).
    pub fn update_traffic(&mut self, traffic: TrafficMatrix) -> Option<Arc<Compiled>> {
        self.traffic = traffic;
        // Cached versions embed placement/routing for the old matrix; each
        // is brought up to date when it is next hit.
        self.traffic_generation += 1;
        let prev = Arc::clone(self.current.as_ref()?);
        self.stats.reroutes.inc();
        let updated = self.retargeted(&prev, None);
        self.current = Some(Arc::clone(&updated));
        self.version_insert(Arc::clone(&updated));
        Some(updated)
    }

    // -----------------------------------------------------------------------
    // Publishing
    // -----------------------------------------------------------------------

    /// The most recent compilation result behind a shared handle (no deep
    /// clone) — what a distribution plane holds on to.
    pub fn current_shared(&self) -> Option<Arc<Compiled>> {
        self.current.clone()
    }

    // -----------------------------------------------------------------------
    // Garbage collection
    // -----------------------------------------------------------------------

    /// Compact the session pool now: evict stale cache entries, mark from
    /// the surviving cached diagrams, drop everything else and clear stale
    /// memo entries.
    pub fn compact_now(&mut self) -> GcReport {
        self.run_gc()
    }

    fn run_gc(&mut self) -> GcReport {
        let entries_evicted = self.cache.evict_stale(self.options.cache_generations);
        let roots = self.cache.roots();
        let nodes_before = self.pool.len();
        let remap = self.pool.compact(&roots);
        let dropped = self.cache.remap(&remap);
        debug_assert_eq!(dropped, 0, "a GC root was collected");
        let nodes_after = self.pool.len();
        self.stats.gc_runs.inc();
        self.stats
            .nodes_reclaimed
            .add((nodes_before - nodes_after) as u64);
        self.stats.pool_nodes.set(nodes_after as i64);
        GcReport {
            nodes_before,
            nodes_after,
            entries_evicted,
        }
    }
}

/// The session's subtree memo as the translator sees it: the fingerprint
/// cache, with every lookup counted as a hit or a miss.
struct CountedCache<'a> {
    cache: &'a mut TranslationCache,
    hits: &'a Counter,
    misses: &'a Counter,
}

impl SubtreeMemo for CountedCache<'_> {
    fn lookup(&mut self, policy: &Policy) -> Option<NodeId> {
        let hit = self.cache.lookup(policy);
        match hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    fn insert(&mut self, policy: &Policy, id: NodeId) {
        self.cache.insert(policy, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snap_apps as apps;
    use snap_core::Compiler;
    use snap_lang::builder::*;
    use snap_lang::{Field, Packet, Store, Value};
    use snap_topology::generators::campus;

    fn campus_session() -> CompilerSession {
        let topo = campus();
        let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
        CompilerSession::new(topo, tm)
    }

    fn campus_compiler() -> Compiler {
        let topo = campus();
        let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
        Compiler::new(topo, tm)
    }

    /// The running example with a tweakable threshold — a "single-subtree
    /// edit" away from itself.
    fn running_example(threshold: i64) -> Policy {
        apps::dns_tunnel_detect(threshold).seq(apps::assign_egress(6))
    }

    fn probe_packets() -> Vec<Packet> {
        // Fully populated headers so every application policy can evaluate.
        let base = |src: Value, dst: Value, sport: i64| {
            Packet::new()
                .with(Field::SrcIp, src)
                .with(Field::DstIp, dst)
                .with(Field::SrcPort, sport)
                .with(Field::DstPort, 443)
                .with(Field::Proto, 6)
                .with(Field::InPort, 1)
                .with(Field::TcpFlags, Value::sym("SYN"))
                .with(Field::DnsRdata, Value::ip(1, 2, 3, 4))
        };
        vec![
            base(Value::ip(8, 8, 8, 8), Value::ip(10, 0, 6, 9), 53),
            base(Value::ip(10, 0, 6, 9), Value::ip(8, 8, 8, 8), 4000),
            base(Value::ip(10, 0, 1, 1), Value::ip(10, 0, 2, 2), 80),
        ]
    }

    fn assert_equivalent(a: &Compiled, b: &Compiled) {
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.placement.placement, b.placement.placement);
        let store = Store::new();
        for pkt in probe_packets() {
            assert_eq!(
                a.xfdd.evaluate(&pkt, &store).unwrap(),
                b.xfdd.evaluate(&pkt, &store).unwrap(),
                "diagrams disagree on {pkt:?}"
            );
        }
    }

    #[test]
    fn incremental_recompile_matches_cold_compile() {
        let mut session = campus_session();
        let compiler = campus_compiler();
        session.compile(&running_example(3)).unwrap();
        // Edit one subtree (the detection threshold) and recompile.
        let incremental = session.compile(&running_example(5)).unwrap();
        let cold = compiler.compile(&running_example(5)).unwrap();
        assert_equivalent(&incremental, &cold);
        assert!(
            session.stats().subtree_hits > 0,
            "no warm subtrees were hit"
        );
        assert_eq!(session.stats().placement_reuses, 1);
    }

    // The memoised translation publishes what a cold one would: along an
    // edit sequence through one warm session (thresholds repeat, so some
    // steps are version hits; shapes differ in their variables, so some
    // reset the pool), every version's frozen diagram is node for node the
    // pool a cold `to_xfdd` of that version extracts to.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn edit_sequences_publish_the_cold_diagram_node_for_node(
            edits in proptest::collection::vec((0usize..3, 1i64..5), 2..=6),
        ) {
            let mut session = campus_session();
            for (shape, threshold) in edits {
                let policy = match shape {
                    0 => running_example(threshold),
                    1 => apps::dns_tunnel_detect(threshold)
                        .par(apps::port_monitoring())
                        .seq(apps::assign_egress(6)),
                    _ => apps::heavy_hitter_detection(threshold).seq(apps::assign_egress(6)),
                };
                let warm = session.compile(&policy).unwrap();
                let mut pool = Pool::new(StateDependencies::analyze(&policy).var_order());
                let root = snap_xfdd::to_xfdd(&policy, &mut pool).unwrap();
                let (cold, cold_root) = pool.extract(root);
                let published = warm.xfdd.pool();
                prop_assert_eq!(published.order(), cold.order());
                prop_assert_eq!((published.len(), warm.xfdd.root()), (cold.len(), cold_root));
                for i in 0..cold.len() as u32 {
                    prop_assert!(published.node(NodeId(i)) == cold.node(NodeId(i)), "node {}", i);
                }
            }
        }
    }

    #[test]
    fn recompiling_the_same_policy_adds_no_nodes() {
        let mut session = campus_session();
        session.compile(&running_example(3)).unwrap();
        let len = session.pool_len();
        session.compile(&running_example(3)).unwrap();
        assert_eq!(session.pool_len(), len, "identical recompile grew the pool");
        assert_eq!(session.stats().compiles, 2);
    }

    #[test]
    fn compact_shrinks_a_session_pool_after_repeated_updates() {
        let mut session = campus_session();
        // Many distinct policy versions: each leaves a superseded diagram
        // (plus composition intermediates) behind in the pool.
        for threshold in 1..=12 {
            session.compile(&running_example(threshold)).unwrap();
        }
        let before = session.pool_len();
        let report = session.compact_now();
        assert!(
            session.pool_len() < before,
            "compaction did not shrink the pool ({before} -> {})",
            session.pool_len()
        );
        assert_eq!(report.nodes_before, before);
        assert_eq!(report.nodes_after, session.pool_len());
        assert!(report.reclaimed() > 0);
        assert!(session.stats().nodes_reclaimed > 0);

        // The session stays fully functional after GC: warm recompile of the
        // surviving generation, fresh compile of a new version, both correct.
        let len = session.pool_len();
        session.compile(&running_example(12)).unwrap();
        assert_eq!(
            session.pool_len(),
            len,
            "post-GC warm recompile grew the pool"
        );
        let after_gc = session.compile(&running_example(99)).unwrap();
        let cold = campus_compiler().compile(&running_example(99)).unwrap();
        assert_equivalent(&after_gc, &cold);
    }

    #[test]
    fn auto_gc_triggers_above_the_threshold() {
        let mut session = campus_session().with_options(SessionOptions {
            gc_threshold: 200,
            cache_generations: 1,
            ..SessionOptions::default()
        });
        for threshold in 1..=8 {
            session.compile(&running_example(threshold)).unwrap();
        }
        assert!(session.stats().gc_runs > 0, "auto-GC never ran");
        assert!(session.stats().nodes_reclaimed > 0);
    }

    #[test]
    fn update_traffic_keeps_placement_and_becomes_current() {
        let mut session = campus_session();
        let first = session.compile(&running_example(3)).unwrap();
        let topo = session.topology().clone();
        let rerouted = session
            .update_traffic(TrafficMatrix::gravity(&topo, 900.0, 7))
            .unwrap();
        assert_eq!(rerouted.placement.placement, first.placement.placement);
        assert!(Arc::ptr_eq(&session.current_shared().unwrap(), &rerouted));
        assert_eq!(session.stats().reroutes, 1);
        assert!(!rerouted.placement.paths.is_empty());
    }

    #[test]
    fn changing_the_variable_order_resets_the_pool() {
        let mut session = campus_session();
        session.compile(&running_example(3)).unwrap();
        assert_eq!(session.stats().order_resets, 0);
        // A policy over different state variables derives a different order.
        let other = apps::stateful_firewall().seq(apps::assign_egress(6));
        let compiled = session.compile(&other).unwrap();
        assert_eq!(session.stats().order_resets, 1);
        let cold = campus_compiler().compile(&other).unwrap();
        assert_eq!(compiled.mapping, cold.mapping);
        assert_eq!(compiled.placement.placement, cold.placement.placement);
    }

    #[test]
    fn version_flip_is_served_from_the_version_cache() {
        let mut session = campus_session();
        session.compile(&running_example(3)).unwrap(); // calm
        session.compile(&running_example(8)).unwrap(); // attack
        let flip = session.compile(&running_example(3)).unwrap(); // calm again
        assert_eq!(session.stats().version_hits, 1);
        assert!(Arc::ptr_eq(&session.current_shared().unwrap(), &flip));
        let cold = campus_compiler().compile(&running_example(3)).unwrap();
        assert_equivalent(&flip, &cold);
    }

    #[test]
    fn version_cache_survives_a_traffic_update() {
        let mut session = campus_session();
        session.compile(&running_example(3)).unwrap(); // calm
        session.compile(&running_example(8)).unwrap(); // attack
        let topo = session.topology().clone();
        let shifted = TrafficMatrix::gravity(&topo, 900.0, 7);
        let rerouted = session.update_traffic(shifted.clone()).unwrap();

        // Only placement, routing and rules depend on the matrix: the flip
        // back to calm is still a version hit — no phase runs, the pool does
        // not grow — and comes out placed under the *new* matrix, exactly as
        // a session that never saw the old one compiles it.
        let (len, misses) = (session.pool_len(), session.stats().subtree_misses);
        let flip = session.compile(&running_example(3)).unwrap();
        let stats = session.stats();
        assert_eq!(stats.version_hits, 1);
        assert_eq!((session.pool_len(), stats.subtree_misses), (len, misses));
        // Same mapping as the running program: its placement, shared.
        assert!(Arc::ptr_eq(&flip.placement, &rerouted.placement));

        let mut fresh = CompilerSession::new(topo, shifted);
        let scratch = fresh.compile(&running_example(3)).unwrap();
        assert_eq!(flip.xfdd.root(), scratch.xfdd.root());
        assert_eq!(flip.xfdd.pool().len(), scratch.xfdd.pool().len());
        assert_eq!(flip.mapping, scratch.mapping);
        assert_eq!(flip.placement, scratch.placement);
        assert_eq!(flip.rules.forwarding(), &scratch.placement.paths);

        // Flipping again is an ordinary hit on the re-stamped entry: the
        // very same compilation.
        session.compile(&running_example(8)).unwrap();
        let again = session.compile(&running_example(3)).unwrap();
        assert_eq!(session.stats().version_hits, 3);
        assert!(Arc::ptr_eq(
            &again.placement,
            &session.current().unwrap().placement
        ));
        assert_eq!(again.placement, flip.placement);

        // A cached version whose mapping differs from the running program's
        // keeps its state placement and is re-routed, like the running
        // program was.
        let other = apps::port_monitoring().seq(apps::assign_egress(6));
        let mut session = campus_session();
        let first = session.compile(&other).unwrap();
        session.compile(&running_example(3)).unwrap();
        session
            .update_traffic(TrafficMatrix::gravity(session.topology(), 900.0, 7))
            .unwrap();
        let flip = session.compile(&other).unwrap();
        assert_eq!(session.stats().version_hits, 1);
        assert_eq!(flip.placement.placement, first.placement.placement);
        let compiler = Compiler::new(
            session.topology().clone(),
            TrafficMatrix::gravity(session.topology(), 900.0, 7),
        );
        let (rerouted, _) = compiler.reroute(&first, &compiler.traffic);
        assert_eq!(flip.placement, rerouted.placement);
    }

    #[test]
    fn version_cache_is_bounded_and_can_be_disabled() {
        let mut session = campus_session().with_options(SessionOptions {
            version_cache: 2,
            ..SessionOptions::default()
        });
        for t in 1..=4 {
            session.compile(&running_example(t)).unwrap();
        }
        // Capacity 2: version 1 was evicted, 3 and 4 are resident.
        session.compile(&running_example(1)).unwrap();
        assert_eq!(session.stats().version_hits, 0);
        session.compile(&running_example(4)).unwrap();
        assert_eq!(session.stats().version_hits, 1);

        let mut off = campus_session().with_options(SessionOptions {
            version_cache: 0,
            ..SessionOptions::default()
        });
        off.compile(&running_example(1)).unwrap();
        off.compile(&running_example(1)).unwrap();
        assert_eq!(off.stats().version_hits, 0);
    }

    #[test]
    fn racy_policy_is_rejected() {
        let mut session = campus_session();
        let racy = state_set("s", vec![int(0)], int(1)).par(state_set("s", vec![int(0)], int(2)));
        let err = session.compile(&racy).unwrap_err();
        assert!(matches!(err, CompileError::StateRace { .. }));
        // The session survives a failed compile.
        assert!(session.compile(&running_example(3)).is_ok());
    }
}
