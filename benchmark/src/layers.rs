//! Single-layer probes of the traced run: each times calls into one
//! crate's public functions on the workload's own compiled program or
//! deployed fleet. None of this runs untraced, so it costs the end-to-end
//! numbers nothing.

use crate::fleet::{drive, Failures, Fleet, Stop, TrafficLeg};
use crate::gen::{Ring, SplitMix64};
use crate::scenario::{exact_row, CompileRow, VOLUME};
use crate::stats::median;
use crate::trace::Tracer;
use snap_core::{Compiled, Compiler, SolverChoice};
use snap_distrib::frame::{decode_to_agent, encode_to_agent};
use snap_distrib::{DistNetwork, PrepareMsg, SwitchMeta, ToAgent};
use snap_lang::Store;
use snap_topology::TrafficMatrix;
use snap_xfdd::{apply_delta, encode_delta, Pool, TableProgram};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of a millisecond-scale probe; the median is reported.
const REPEATS: usize = 5;

/// `(name, value)` rows a probe contributes to the per-layer metrics.
pub type Rows = Vec<(&'static str, f64)>;

fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    tracer.span(name, t0, t1, None, 0);
    (out, (t1 - t0).as_secs_f64())
}

/// The xFDD-side cost of shipping and installing the fleet's program:
/// flatten, table compile, wire encode, wire apply into a fresh mirror,
/// and the frame codec on one real `Prepare` carrying that payload.
pub fn program_probes(compiled: &Compiled, ring: &Ring, tracer: &mut Tracer) -> Rows {
    let xfdd = &compiled.xfdd;
    let mut flatten_us = Vec::new();
    let mut tables_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut apply_us = Vec::new();
    let fresh_len = Pool::new(xfdd.pool().order().clone()).len();
    let mut payload = Vec::new();
    for _ in 0..REPEATS {
        let (flat, s) = timed(tracer, "xfdd.flatten", || xfdd.flatten());
        flatten_us.push(s * 1e6);
        let (tables, s) = timed(tracer, "xfdd.tables.compile", || {
            TableProgram::compile(&flat)
        });
        tables_us.push(s * 1e6);
        black_box(tables);
        let (bytes, s) = timed(tracer, "xfdd.wire.encode", || {
            encode_delta(xfdd.pool(), fresh_len, xfdd.root())
        });
        encode_us.push(s * 1e6);
        let mut mirror = Pool::new(xfdd.pool().order().clone());
        let (root, s) = timed(tracer, "xfdd.wire.apply", || {
            apply_delta(&bytes, &mut mirror)
        });
        apply_us.push(s * 1e6);
        black_box(root.expect("a payload just encoded applies to a fresh mirror"));
        payload = bytes;
    }
    let full_bytes = payload.len() as f64;

    let message = ToAgent::Prepare(Box::new(PrepareMsg {
        epoch: 1,
        resync: true,
        delta: payload,
        meta: Some(SwitchMeta {
            local_vars: compiled.placement.placement.keys().cloned().collect(),
            ports: Default::default(),
        }),
        placement: Some(compiled.placement.placement.clone()),
    }));
    let mut frame_encode_us = Vec::new();
    let mut frame_decode_us = Vec::new();
    for _ in 0..REPEATS {
        let (frame, s) = timed(tracer, "distrib.frame.encode", || encode_to_agent(&message));
        frame_encode_us.push(s * 1e6);
        let (decoded, s) = timed(tracer, "distrib.frame.decode", || decode_to_agent(&frame));
        frame_decode_us.push(s * 1e6);
        black_box(decoded.expect("a frame just encoded decodes"));
    }

    // One-big-switch evaluation of the table program, no network around it:
    // the floor under `dataplane.inject.ns_per_pkt`. The store stays empty
    // (results are not threaded), so this is the stateless cost of a packet.
    let flat = xfdd.flatten();
    let tables = TableProgram::compile(&flat);
    let store = Store::new();
    let sample = ring.batches.iter().take(128);
    let t0 = Instant::now();
    let mut evaluated = 0u64;
    for batch in sample {
        for (_, packet) in batch {
            black_box(tables.evaluate(&flat, packet, &store).is_ok());
            evaluated += 1;
        }
    }
    let t1 = Instant::now();
    tracer.span("xfdd.tables.evaluate", t0, t1, None, 0);

    vec![
        ("xfdd.flatten.us", median(&flatten_us)),
        ("xfdd.tables.compile_us", median(&tables_us)),
        ("xfdd.wire.encode_us", median(&encode_us)),
        ("xfdd.wire.apply_us", median(&apply_us)),
        ("xfdd.wire.full_bytes", full_bytes),
        ("distrib.frame.encode_us_per_msg", median(&frame_encode_us)),
        ("distrib.frame.decode_us_per_msg", median(&frame_decode_us)),
        (
            "xfdd.tables.eval_ns_per_pkt",
            (t1 - t0).as_nanos() as f64 / evaluated.max(1) as f64,
        ),
    ]
}

/// `Compiler::reroute` of the workload's own row against fresh matrices
/// (the TE scenario's compile side), and the exact MILP on the campus
/// running example (the ninth row).
pub fn compiler_probes(row: &CompileRow, seed: u64, tracer: &mut Tracer) -> Rows {
    let compiler = Compiler::new(row.topology.clone(), row.traffic.clone())
        .with_solver(SolverChoice::Heuristic);
    let compiled = compiler
        .compile(&row.policy)
        .expect("the row compiled in the compile leg");
    let mut rng = SplitMix64::new(seed, 4);
    let reroute_ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let matrix = TrafficMatrix::gravity(&row.topology, VOLUME, rng.next_u64());
            let (out, s) = timed(tracer, "core.reroute", || {
                compiler.reroute(&compiled, &matrix)
            });
            black_box(out);
            s * 1e3
        })
        .collect();

    let exact = exact_row();
    let compiler = Compiler::new(exact.topology.clone(), exact.traffic.clone())
        .with_solver(SolverChoice::Exact);
    let (out, s) = timed(tracer, "milp.exact", || compiler.compile(&exact.policy));
    black_box(out.expect("the campus running example compiles under the exact solver"));
    vec![
        ("core.reroute.ms", median(&reroute_ms)),
        ("milp.exact.ms", s * 1e3),
    ]
}

/// Telemetry's price and the second core's worth, on the live fleet:
/// eight interleaved legs through the fleet's own plane and through a second
/// `DistNetwork` over the same agents with telemetry off; then one leg
/// with two load threads against one. Also times a metrics snapshot.
pub fn plane_probes(
    fleet: &mut Fleet,
    ring: &Ring,
    leg_len: Duration,
    failures: &mut Failures,
) -> Rows {
    let agents: BTreeMap<_, _> = fleet
        .network()
        .agents()
        .map(|a| (a.switch(), Arc::clone(a)))
        .collect();
    let bare = DistNetwork::new(fleet.topology.clone(), agents).without_telemetry();
    let mut off = Tracer::new(Instant::now(), false);
    let mut rates = [Vec::new(), Vec::new()];
    for round in 0..8 {
        // a b b a a b b a: neither side always runs first, and slow drift
        // (tables growing, the host's clock speed) falls on both equally.
        let side = usize::from(round % 4 == 1 || round % 4 == 2);
        let network = if side == 0 { fleet.network() } else { &bare };
        let mut leg = TrafficLeg::new(ring, &fleet.ports, round * 997);
        let stop = Stop::At(Instant::now() + leg_len);
        drive(
            &mut leg,
            network,
            ring,
            fleet.family,
            &fleet.ports,
            stop,
            &mut off,
            false,
            failures,
        );
        rates[side].push(leg.packets as f64 / (leg.wall_ns as f64 / 1e9));
        fleet.absorb(&leg);
    }
    let with = median(&rates[0]);
    let without = median(&rates[1]);

    let solo = with;
    let (network, family, ports) = (fleet.network(), fleet.family, &fleet.ports);
    let deadline = Instant::now() + leg_len * 4;
    let legs: Vec<(TrafficLeg, Failures)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|w| {
                scope.spawn(move || {
                    let mut off = Tracer::new(Instant::now(), false);
                    let mut failures = Failures::default();
                    let mut leg = TrafficLeg::new(ring, ports, w * ring.batches.len() / 2);
                    let stop = Stop::At(deadline);
                    drive(
                        &mut leg,
                        network,
                        ring,
                        family,
                        ports,
                        stop,
                        &mut off,
                        false,
                        &mut failures,
                    );
                    (leg, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut duo = 0.0;
    for (leg, thread_failures) in legs {
        duo += leg.packets as f64 / (leg.wall_ns as f64 / 1e9);
        fleet.absorb(&leg);
        failures.absorb(thread_failures);
    }

    let t0 = Instant::now();
    black_box(fleet.network().metrics_snapshot());
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    vec![
        ("telemetry.overhead_share", 1.0 - with / without),
        ("dataplane.scaling_w2", duo / solo),
        ("telemetry.snapshot.ms", snapshot_ms),
    ]
}
