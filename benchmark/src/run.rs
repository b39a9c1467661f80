//! One run of one workload: generate inputs, set up, run the compile,
//! traffic and edit legs, check the outputs, and turn what was measured
//! into the metrics of record.

use crate::fleet::{
    drive, oracle_pass, store_entries, Failures, Fleet, OpSample, Operator, Stop, TrafficLeg,
    WINDOW,
};
use crate::gen::{edit_schedule, EditKind, Ring, EDIT_BLOCK, FLIPS_PER_BLOCK};
use crate::layers;
use crate::scenario::{CompileRow, EditLoop, Workload, VARIANTS};
use crate::stats::{blocked_percentile, geometric_mean, median, percentile};
use crate::trace::{self_times, Tracer};
use snap_core::{Compiler, SolverChoice};
use snap_session::SessionStats;
use snap_telemetry::SnapshotDelta;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a run is parameterised by.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Draws the flows, the edit order, the novel-edit parameters and the
    /// TE matrices.
    pub seed: u64,
    /// Measured seconds, split between the legs by the workload.
    pub seconds: f64,
    /// Record spans and run the single-layer probes.
    pub trace: bool,
    /// A small ring, one set-up and a short oracle pass: exercises every
    /// code path of a full run in a few seconds.
    pub smoke: bool,
}

/// What a run produced.
pub struct RunResult {
    /// Operations attempted: compiles, edits, packets, final-state checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// Every metric computed, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// The recorded spans (empty unless traced).
    pub tracer: Tracer,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct flows the ring cycles over.
const FLOWS: usize = 65_536;
/// Ring batches of 64 (one pass = 262 144 packets, four cycles over the
/// flows, so tables reach steady size within the warm-up pass).
const RING_BATCHES: usize = 4096;
/// Ring batches the oracle pass replays (2048 packets: `snap_lang::eval`
/// clones the store at every step, so its cost grows with the state).
const ORACLE_BATCHES: usize = 32;
/// Slices the measured legs are cut into (see `run`).
const SLICES: usize = 4;
/// TE updates in the aftermath of the edit leg.
const AFTERMATH_TE: usize = 5;

#[derive(Default)]
struct RowResult {
    wall_ms: Vec<f64>,
    phases: [Vec<f64>; 5],
    nodes: usize,
}

/// The compile leg: rounds over the workload's rows, a fresh `Compiler` for
/// every compile (constructed outside the timed call).
struct CompileLeg<'a> {
    rows: &'a [CompileRow],
    results: Vec<RowResult>,
}

impl<'a> CompileLeg<'a> {
    fn new(rows: &'a [CompileRow]) -> CompileLeg<'a> {
        CompileLeg {
            rows,
            results: rows.iter().map(|_| RowResult::default()).collect(),
        }
    }

    fn run(&mut self, rounds: usize, tracer: &mut Tracer, failures: &mut Failures) {
        for round in 0..rounds {
            for (row, result) in self.rows.iter().zip(&mut self.results) {
                let compiler = Compiler::new(row.topology.clone(), row.traffic.clone())
                    .with_solver(SolverChoice::Heuristic);
                failures.attempted += 1;
                let t0 = Instant::now();
                let outcome = compiler.compile(&row.policy);
                let t1 = Instant::now();
                tracer.span("core.compile", t0, t1, None, round as u64);
                match outcome {
                    Ok(compiled) => {
                        result.wall_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        let t = &compiled.timings;
                        let phases = [
                            t.dependency_analysis,
                            t.xfdd_generation,
                            t.packet_state_mapping,
                            t.milp_creation + t.optimization,
                            t.rule_generation,
                        ];
                        for (samples, phase) in result.phases.iter_mut().zip(phases) {
                            samples.push(phase.as_secs_f64() * 1e3);
                        }
                        result.nodes = compiled.xfdd.size();
                    }
                    Err(e) => failures.fail(|| format!("compile of {} failed: {e:?}", row.name)),
                }
            }
        }
    }

    /// `cold_compile_ms` is the geometric mean over rows of each row's
    /// median; the phase metrics are sums over rows of each row's median
    /// phase time, so they add up to `core.compile.sum_ms`.
    fn report(&self, values: &mut BTreeMap<&'static str, f64>) {
        const PHASES: [&str; 5] = [
            "xfdd.deps.ms",
            "xfdd.translate.ms",
            "core.mapping.ms",
            "core.optimize.ms",
            "core.rulegen.ms",
        ];
        let medians: Vec<f64> = self.results.iter().map(|r| median(&r.wall_ms)).collect();
        for ((row, result), wall) in self.rows.iter().zip(&self.results).zip(&medians) {
            println!(
                "  compile {:<20} median {wall:>9.3} ms over {} rounds, {} xFDD nodes",
                row.name,
                result.wall_ms.len(),
                result.nodes
            );
        }
        values.insert("cold_compile_ms", geometric_mean(&medians));
        values.insert("core.compile.sum_ms", medians.iter().sum());
        for (i, name) in PHASES.into_iter().enumerate() {
            values.insert(
                name,
                self.results.iter().map(|r| median(&r.phases[i])).sum(),
            );
        }
        values.insert(
            "xfdd.translate.nodes",
            self.results.iter().map(|r| r.nodes as f64).sum(),
        );
    }
}

/// Peak resident set of this process, MB (`VmHWM`). Process-wide: when several
/// workloads run in one process, later ones report the peak so far.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Slice `k`'s share of `total` units cut into `slices` as evenly as whole
/// units allow.
fn share(total: usize, slices: usize, k: usize) -> usize {
    total / slices + usize::from(k < total % slices)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p50_of(samples: &[OpSample], kind: EditKind, f: impl Fn(&OpSample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().filter(|s| s.kind == kind).map(f).collect();
    median(&values)
}

/// Set up `setups` times; the last fleet is the one measured, the earlier
/// ones are checked and shut down. The oracle pass runs on the first fleet
/// between its two timed halves (it needs fresh state) and is not part of
/// `setup_s`.
fn set_up(
    workload: &Workload,
    ring: &Ring,
    (setups, oracle_batches): (usize, usize),
    tracer: &mut Tracer,
    failures: &mut Failures,
    values: &mut BTreeMap<&'static str, f64>,
) -> Fleet {
    let mut setup_s = Vec::new();
    let mut topology_ms = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for k in 0..setups {
        let t0 = Instant::now();
        let (mut built, topo_ms) = Fleet::build(workload, ring, tracer, failures);
        let build_s = t0.elapsed().as_secs_f64();
        if k == 0 {
            let oracle = oracle_pass(&mut built, ring, oracle_batches, failures);
            values.insert("lang.eval.ns_per_pkt", oracle.eval_ns_per_pkt);
            println!(
                "  oracle pass: {} packets replayed through fleet and snap_lang::eval, {} failures so far",
                oracle.packets, failures.failed
            );
        }
        let t1 = Instant::now();
        let mut warm = TrafficLeg::new(ring, &built.ports, 0);
        let stop = Stop::Batches(ring.batches.len());
        drive(
            &mut warm,
            built.network(),
            ring,
            built.family,
            &built.ports,
            stop,
            tracer,
            false,
            failures,
        );
        built.absorb(&warm);
        setup_s.push(build_s + t1.elapsed().as_secs_f64());
        topology_ms.push(topo_ms);
        if let Some(mut previous) = fleet.replace(built) {
            previous.check_totals(ring, failures);
            previous.shutdown();
        }
    }
    values.insert("setup_s", median(&setup_s));
    values.insert("topology.generate.ms", median(&topology_ms));
    println!("  set-up: {setup_s:.3?} s");
    fleet.expect("at least one set-up")
}

/// Run `workload` once.
pub fn run(workload: &Workload, opts: &Options) -> RunResult {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, opts.trace);
    let mut failures = Failures::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (setups, ring_batches, oracle_batches) = if opts.smoke {
        (1, 256, 4)
    } else {
        (SETUPS, RING_BATCHES, ORACLE_BATCHES)
    };

    // Inputs, all before any clock that counts.
    let topology = workload.topology();
    let ring = Ring::build(
        &workload.base_traffic(&topology),
        opts.seed,
        FLOWS.min(ring_batches * crate::gen::BATCH),
        ring_batches,
    );
    let rows = workload.compile_inputs();
    let edit_blocks = ((opts.seconds * workload.edit_blocks_per_s).round() as usize).max(1);
    let schedule = edit_schedule(opts.seed, edit_blocks, VARIANTS);
    println!(
        "{}: seed {}, {} s measured, ring {} packets over {} flows, {} compile row(s), {} edits ({:?}), {} load thread(s)",
        workload.name,
        opts.seed,
        opts.seconds,
        ring.packets(),
        FLOWS.min(ring.packets()),
        rows.len(),
        schedule.len(),
        workload.edit_loop,
        1
    );

    let mut fleet = set_up(
        workload,
        &ring,
        (setups, oracle_batches),
        &mut tracer,
        &mut failures,
        &mut values,
    );

    // The measured legs, in slices: each slice runs its share of the
    // compile rounds, of the traffic seconds and of the edit blocks, so that
    // every metric samples the whole length of the run. (The sandbox's clock
    // speed moves between levels ~20 % apart for seconds at a time; a leg
    // run in one piece reads whichever level it happened to meet.)
    let slices = if opts.smoke { 1 } else { SLICES };
    let min_rounds = if opts.smoke { 1 } else { 3 };
    let rounds = ((opts.seconds * workload.compile_rounds_per_s).round() as usize).max(min_rounds);
    // At least four windows in all, so that even a smoke run has a median
    // on either side of the traced/untraced alternation.
    let traffic = Duration::from_secs_f64(opts.seconds * workload.traffic_share).max(4 * WINDOW);
    let before_traffic = opts.trace.then(|| fleet.network().metrics_snapshot());
    let session_before = fleet.deployment.controller.session().stats();
    let (family, ports) = (fleet.family, fleet.ports.clone());
    let mut operator = Operator::new(&mut fleet, Tracer::new(origin, opts.trace));
    let network = operator.network();
    let mut compile = CompileLeg::new(&rows);
    let mut leg = TrafficLeg::new(&ring, &ports, 0);
    let mut samples: Vec<OpSample> = Vec::with_capacity(schedule.len());
    let mut edits = schedule.chunks(EDIT_BLOCK);
    for slice in 0..slices {
        compile.run(share(rounds, slices, slice), &mut tracer, &mut failures);
        let blocks = share(edit_blocks, slices, slice);
        let edits = edits.by_ref().take(blocks).flatten();
        match workload.edit_loop {
            EditLoop::Closed => {
                let stop = Stop::At(Instant::now() + traffic / slices as u32);
                drive(
                    &mut leg,
                    network,
                    &ring,
                    family,
                    &ports,
                    stop,
                    &mut tracer,
                    opts.trace,
                    &mut failures,
                );
                samples.extend(edits.map(|&e| operator.apply(e, None)));
            }
            EditLoop::Open { period_ms } => {
                let period = Duration::from_millis(period_ms);
                let stop = AtomicBool::new(false);
                let mut load_tracer = Tracer::new(origin, opts.trace);
                let mut load_failures = Failures::default();
                std::thread::scope(|scope| {
                    let load = scope.spawn(|| {
                        drive(
                            &mut leg,
                            network,
                            &ring,
                            family,
                            &ports,
                            Stop::Flag(&stop),
                            &mut load_tracer,
                            opts.trace,
                            &mut load_failures,
                        )
                    });
                    let start = Instant::now();
                    samples.extend(
                        edits
                            .enumerate()
                            .map(|(i, &e)| operator.apply(e, Some(start + period * i as u32))),
                    );
                    stop.store(true, Ordering::Relaxed);
                    load.join().expect("load thread panicked");
                });
                tracer.absorb(load_tracer);
                failures.absorb(load_failures);
            }
        }
    }
    compile.report(&mut values);
    let after_traffic = opts.trace.then(|| network.metrics_snapshot());
    let session_after = operator.controller().session().stats();
    let aftermath = operator.aftermath(opts.seed, AFTERMATH_TE);
    let outcome = operator.finish();
    tracer.absorb(outcome.tracer);
    failures.absorb(outcome.failures);
    fleet.absorb(&leg);
    fleet.probes_sent += outcome.probes_sent;
    fleet.delivered += outcome.probes_delivered;

    // End-to-end: traffic.
    values.insert("pkts_per_s", leg.window_rate(false));
    values.insert("batch_us_p50", percentile(&leg.batch_us, 0.5));
    println!(
        "  traffic: {} packets in {:.2} s over {} windows, {} policy drops, {} tail drops",
        leg.packets,
        leg.wall_ns as f64 / 1e9,
        leg.windows.len(),
        leg.policy_drops,
        leg.tail_drops
    );

    // End-to-end: edits. The gated percentiles are medians over the blocks
    // of 20; the plain percentiles over all edits are printed beside them.
    let update_ms: Vec<f64> = samples.iter().map(|s| s.update_ms).collect();
    let blocked = |q| blocked_percentile(&update_ms, EDIT_BLOCK, q);
    values.insert("update_ms_p50", blocked(0.5));
    values.insert("update_ms_p90", blocked(0.9));
    values.insert("update_ms_p99", percentile(&update_ms, 0.99));
    values.insert("update.samples", samples.len() as f64);
    println!(
        "  edits: n = {} in blocks of {EDIT_BLOCK} ({FLIPS_PER_BLOCK} flips), median block p50 {:.3} ms, p90 {:.3} ms; over all edits p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms (not gated)",
        samples.len(),
        values["update_ms_p50"],
        values["update_ms_p90"],
        percentile(&update_ms, 0.5),
        percentile(&update_ms, 0.9),
        values["update_ms_p99"],
    );

    if opts.trace {
        edit_layers(
            &mut values,
            &samples,
            &aftermath,
            &outcome.reports,
            outcome.aborts,
        );
        session_layers(&mut values, &session_before, &session_after);
        let interval = after_traffic
            .expect("snapshot taken when tracing")
            .delta(&before_traffic.expect("snapshot taken when tracing"));
        traffic_layers(&mut values, &leg, &interval);
        values.insert(
            "trace.overhead_share",
            1.0 - ratio(leg.window_rate(true), leg.window_rate(false)),
        );

        probe_layers(
            &mut values,
            workload,
            &mut fleet,
            &ring,
            opts,
            &mut tracer,
            &mut failures,
        );
    }

    fleet.check_totals(&ring, &mut failures);
    fleet.shutdown();
    values.insert("peak_rss_mb", peak_rss_mb());
    values.insert(
        "failed_share",
        ratio(failures.failed as f64, failures.attempted as f64),
    );
    if opts.trace {
        ledger_layers(&mut values, &tracer);
    }
    RunResult {
        attempted: failures.attempted,
        failed: failures.failed,
        first_failure: failures.first,
        values,
        tracer,
    }
}

/// The traced run's readings of the live fleet: the controller's gauges,
/// then the single-layer probes on the fleet's own committed program.
fn probe_layers(
    values: &mut BTreeMap<&'static str, f64>,
    workload: &Workload,
    fleet: &mut Fleet,
    ring: &Ring,
    opts: &Options,
    tracer: &mut Tracer,
    failures: &mut Failures,
) {
    let controller = &fleet.deployment.controller;
    values.insert(
        "session.pool.live_nodes",
        controller.session().pool_len() as f64,
    );
    values.insert("distrib.mux.stale", controller.mux_stats().stale as f64);
    values.insert(
        "distrib.mux.duplicates",
        controller.mux_stats().duplicates as f64,
    );
    values.insert(
        "distrib.pool.distribution_nodes",
        controller.dist_pool_len() as f64,
    );
    let compiled = controller
        .session()
        .current()
        .expect("a program is committed")
        .clone();
    let probe_leg = Duration::from_secs_f64(if opts.smoke { 0.05 } else { 0.25 });
    values.extend(layers::program_probes(&compiled, ring, tracer));
    values.extend(layers::compiler_probes(
        &workload.own_row(),
        opts.seed,
        tracer,
    ));
    values.extend(layers::plane_probes(fleet, ring, probe_leg, failures));
    let snapshot = fleet.network().metrics_snapshot();
    for (name, histogram) in [
        ("distrib.ack.prepare_us_p90", "commit.prepare_ack_us"),
        ("distrib.ack.commit_us_p90", "commit.commit_ack_us"),
    ] {
        let p90 = snapshot
            .histograms
            .get(histogram)
            .map_or(0.0, |h| h.percentile(0.9));
        values.insert(name, p90);
    }
    values.insert(
        "dataplane.state.entries",
        store_entries(&fleet.network().aggregate_store()) as f64,
    );
}

fn edit_layers(
    values: &mut BTreeMap<&'static str, f64>,
    samples: &[OpSample],
    aftermath: &[OpSample],
    reports: &[snap_distrib::CommitReport],
    aborts: u64,
) {
    use EditKind::{Flip, Novel, Traffic};
    values.insert("update.flip_ms_p50", p50_of(samples, Flip, |s| s.update_ms));
    values.insert(
        "update.novel_ms_p50",
        p50_of(samples, Novel, |s| s.update_ms),
    );
    values.insert(
        "update.te_ms_p50",
        p50_of(aftermath, Traffic, |s| s.update_ms),
    );
    values.insert(
        "update.flip_after_te_ms_p50",
        p50_of(aftermath, Flip, |s| s.update_ms),
    );
    values.insert(
        "session.compile.ms_p50.flip",
        p50_of(samples, Flip, OpSample::compile_ms),
    );
    values.insert(
        "session.compile.ms_p50.novel",
        p50_of(samples, Novel, OpSample::compile_ms),
    );
    values.insert(
        "session.compile.ms_p50.te",
        p50_of(aftermath, Traffic, OpSample::compile_ms),
    );
    let prepare: Vec<f64> = samples.iter().map(|s| s.prepare_ms).collect();
    let commit: Vec<f64> = samples.iter().map(|s| s.commit_ms).collect();
    let probe: Vec<f64> = samples.iter().map(|s| s.probe_us).collect();
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    values.insert("distrib.prepare.ms_p50", percentile(&prepare, 0.5));
    values.insert("distrib.prepare.ms_p90", percentile(&prepare, 0.9));
    values.insert("distrib.commit.ms_p50", percentile(&commit, 0.5));
    values.insert("distrib.commit.ms_p90", percentile(&commit, 0.9));
    values.insert("distrib.probe.us", percentile(&probe, 0.5));
    values.insert("loadgen.late_ms_p90", percentile(&late, 0.9));
    // Wire totals over the gated ops only (the aftermath's reports follow).
    let gated = &reports[..samples.len().min(reports.len())];
    let delta: f64 = gated.iter().map(|r| r.delta_bytes as f64).sum();
    let full: f64 = gated.iter().map(|r| r.full_bytes as f64).sum();
    values.insert(
        "distrib.wire.delta_bytes_per_update",
        ratio(delta, gated.len() as f64),
    );
    values.insert("distrib.wire.delta_ratio", ratio(delta, full));
    values.insert(
        "distrib.resyncs",
        gated.iter().map(|r| r.resyncs as f64).sum(),
    );
    values.insert("distrib.aborts", aborts as f64);
}

fn session_layers(
    values: &mut BTreeMap<&'static str, f64>,
    before: &SessionStats,
    after: &SessionStats,
) {
    let compiles = (after.compiles - before.compiles) as f64;
    let version_hits = (after.version_hits - before.version_hits) as f64;
    let hits = (after.subtree_hits - before.subtree_hits) as f64;
    let misses = (after.subtree_misses - before.subtree_misses) as f64;
    let reuses = (after.placement_reuses - before.placement_reuses) as f64;
    values.insert(
        "session.cache.version_hit_share",
        ratio(version_hits, compiles),
    );
    values.insert(
        "session.cache.subtree_hit_share",
        ratio(hits, hits + misses),
    );
    values.insert(
        "session.cache.placement_reuse_share",
        ratio(reuses, compiles - version_hits),
    );
}

fn traffic_layers(
    values: &mut BTreeMap<&'static str, f64>,
    leg: &TrafficLeg,
    interval: &SnapshotDelta,
) {
    let delta = |name: &str| interval.counter(name) as f64;
    let family = |name: &str| interval.family_total(name) as f64;
    let packets = delta("driver.packets");
    let hops = interval
        .histograms
        .get("packet.delivery_hops")
        .map_or(0.0, |h| h.sum as f64);
    let batches = leg.batch_us.len() as f64;
    values.insert(
        "dataplane.inject.ns_per_pkt",
        ratio(leg.inject_ns as f64, leg.packets as f64),
    );
    values.insert(
        "dataplane.inject.ns_per_hop",
        ratio(leg.inject_ns as f64, hops),
    );
    values.insert(
        "dataplane.hops_per_pkt",
        ratio(hops, delta("driver.deliveries")),
    );
    values.insert(
        "dataplane.inject.batch_us_p99",
        percentile(&leg.batch_us, 0.99),
    );
    values.insert(
        "dataplane.inject.batch_us_p999",
        percentile(&leg.batch_us, 0.999),
    );
    values.insert(
        "dataplane.wave_prefix.survivor_share",
        ratio(
            delta("driver.wave_prefix.survivors"),
            delta("driver.wave_prefix.packets"),
        ),
    );
    values.insert(
        "dataplane.policy_drop_share",
        ratio(delta("driver.policy_drops"), packets),
    );
    values.insert(
        "dataplane.state.writes_per_pkt",
        ratio(family("switch.state_writes"), packets),
    );
    let acquisitions = family("store.shard.acquisitions");
    values.insert(
        "dataplane.shards.acquisitions_per_pkt",
        ratio(acquisitions, packets),
    );
    values.insert(
        "dataplane.shards.contended_share",
        ratio(family("store.shard.contended"), acquisitions),
    );
    values.insert(
        "dataplane.shards.merge_flushes_per_batch",
        ratio(family("store.shard.merge_flushes"), batches),
    );
    values.insert(
        "dataplane.egress.drain_ns_per_pkt",
        ratio(leg.drain_ns as f64, leg.drained as f64),
    );
    values.insert("dataplane.egress.tail_drops", leg.tail_drops as f64);
    values.insert("dataplane.egress.depth_max", leg.depth_max as f64);
    values.insert(
        "dataplane.outcomes.free_ns_per_pkt",
        ratio(leg.free_ns as f64, leg.packets as f64),
    );
    let tiles = leg.inject_ns + leg.check_ns + leg.free_ns + leg.drain_ns;
    values.insert("loadgen.share", ratio(leg.check_ns as f64, tiles as f64));
}

/// The ledger property: the rows under an edit (compile, prepare, commit and
/// probe, plus queueing in the open loop) and under a traffic window (inject,
/// free, drain and the load generator's own check) must add up to the wall
/// time of the edit or window; what they leave uncovered is the
/// `unaccounted_share`.
fn ledger_layers(values: &mut BTreeMap<&'static str, f64>, tracer: &Tracer) {
    let spans = tracer.spans();
    let own = self_times(spans);
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    };
    let get = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let update = total("update");
    // `controller.update`'s self time is what its derived children leave
    // uncovered (rounding only); it and the root's are the unaccounted part.
    values.insert(
        "ledger.update.unaccounted_share",
        ratio(get("update") + get("controller.update"), update),
    );
    values.insert(
        "ledger.update.compile_share",
        ratio(get("session.compile"), update),
    );
    values.insert(
        "ledger.update.prepare_share",
        ratio(get("distrib.prepare"), update),
    );
    values.insert(
        "ledger.update.commit_share",
        ratio(get("distrib.commit"), update),
    );
    values.insert(
        "ledger.update.probe_share",
        ratio(get("distrib.probe"), update),
    );
    let window = total("traffic.window");
    values.insert(
        "ledger.traffic.unaccounted_share",
        ratio(get("traffic.window"), window),
    );
    values.insert(
        "ledger.traffic.inject_share",
        ratio(get("dataplane.inject_batch"), window),
    );
    values.insert("trace.spans", spans.len() as f64);
    println!("  ledger (self time per span name):");
    for (name, ns) in &own {
        println!("    {name:<28} {:>12.3} ms", *ns as f64 / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::share;

    #[test]
    fn shares_are_whole_even_and_add_up() {
        for (total, slices) in [(8, 4), (6, 4), (30, 4), (3, 4), (200, 4), (5, 1)] {
            let parts: Vec<usize> = (0..slices).map(|k| share(total, slices, k)).collect();
            assert_eq!(parts.iter().sum::<usize>(), total);
            assert!(parts.iter().max().unwrap() - parts.iter().min().unwrap() <= 1);
        }
        assert_eq!(
            (0..4).map(|k| share(6, 4, k)).collect::<Vec<_>>(),
            [2, 2, 1, 1]
        );
    }
}
