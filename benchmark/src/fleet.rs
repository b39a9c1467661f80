//! The deployed fleet and the three things a run does to it: drive
//! traffic, apply operator edits, and check what came out.
//!
//! Every call into the program is bracketed by clock reads here, from the
//! outside; nothing under `crates/` is instrumented for the benchmark.

use crate::gen::{Edit, EditKind, Ring, RingPacket, SplitMix64, BATCH};
use crate::scenario::{Family, Workload, VARIANTS, VOLUME};
use crate::trace::Tracer;
use snap_core::SolverChoice;
use snap_distrib::{
    deploy_in_process_custom, CommitReport, Controller, DeployOptions, DistNetwork, DistribError,
    InProcessDeployment, InjectError, InjectOutcome,
};
use snap_lang::{Packet, Policy, StateVar, Store, Value};
use snap_session::CompilerSession;
use snap_topology::{PortId, Topology, TrafficMatrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-port egress queue capacity. Queues are drained every
/// [`DRAIN_EVERY`] batches (1024 packets), so a healthy run never fills
/// one and `dataplane.egress.tail_drops` reads 0.
const QUEUE_CAPACITY: usize = 8192;

/// Batches between two rounds of `drain_port` over every port.
const DRAIN_EVERY: usize = 16;

/// Length of one throughput window.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Operations attempted and failed, with the first offender kept for the
/// report. A packet fails on an inject error, a wrong egress port, an
/// epoch going backwards or an oracle mismatch; an edit fails on error,
/// abort or a probe on the wrong epoch; a compile fails on error.
#[derive(Default)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Description of the first failure.
    pub first: Option<String>,
}

impl Failures {
    /// Count one failed operation (the attempt is counted by the caller).
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first.is_none() {
            self.first = Some(what());
        }
    }

    /// Fold another thread's counts in.
    pub fn absorb(&mut self, other: Failures) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// The packet sent after every edit: an ordinary generated packet that no
/// policy of the family may drop, so it must come back on the new epoch.
pub struct Probe {
    ingress: PortId,
    packet: Packet,
    egress: PortId,
}

/// A deployed fleet: one agent thread per switch behind a controller, over
/// in-process channels (the agent threads are the program, not the load).
pub struct Fleet {
    /// Controller, traffic plane and agent threads.
    pub deployment: InProcessDeployment,
    /// The fleet's topology.
    pub topology: Topology,
    /// Every external port, for the drain rounds.
    pub ports: Vec<PortId>,
    /// The policy family deployed.
    pub family: Family,
    /// The pre-committed working set; variant 0 is running after set-up.
    pub variants: Vec<Policy>,
    /// The post-edit probe.
    pub probe: Probe,
    /// How often each ring batch was injected into this fleet.
    pub times_injected: Vec<u32>,
    /// Probe packets injected into this fleet.
    pub probes_sent: u64,
    /// Egress events drained from this fleet's queues.
    pub drained: u64,
    /// Deliveries tail-dropped by a full egress queue.
    pub tail_drops: u64,
    /// Deliveries the injections reported.
    pub delivered: u64,
}

impl Fleet {
    /// Topology, session, one agent per switch, the first (cold) commit of
    /// variant 0, then the rest of the working set and back to variant 0.
    /// Returns the fleet and the milliseconds topology generation took.
    pub fn build(
        workload: &Workload,
        ring: &Ring,
        tracer: &mut Tracer,
        failures: &mut Failures,
    ) -> (Fleet, f64) {
        let t0 = Instant::now();
        let topology = workload.topology();
        let t1 = Instant::now();
        tracer.span("topology.generate", t0, t1, None, 0);
        let traffic = workload.base_traffic(&topology);
        let ports: Vec<PortId> = topology.external_ports().map(|(p, _)| p).collect();
        let family = workload.family;
        let variants: Vec<Policy> = (0..VARIANTS)
            .map(|i| family.variant(ports.len(), i))
            .collect();
        let session =
            CompilerSession::new(topology.clone(), traffic).with_solver(SolverChoice::Heuristic);
        let t2 = Instant::now();
        let mut deployment =
            deploy_in_process_custom(session, QUEUE_CAPACITY, DeployOptions::default());
        tracer.span("distrib.deploy", t2, Instant::now(), None, 0);
        // Cold commit first, then the working set, ending on variant 0.
        for i in (0..VARIANTS).chain([0]) {
            failures.attempted += 1;
            let t = Instant::now();
            let outcome = deployment.controller.update_policy(&variants[i]);
            tracer.span("setup.update_policy", t, Instant::now(), None, i as u64);
            if let Err(e) = outcome {
                failures.fail(|| format!("set-up commit of variant {i} failed: {e}"));
            }
        }
        let (b, i) = (0..ring.batches.len())
            .flat_map(|b| (0..BATCH).map(move |i| (b, i)))
            .find(|&(b, i)| !family.may_drop(ring.facts[b][i].dst))
            .expect("the ring holds a packet the policy cannot drop");
        let probe = Probe {
            ingress: ring.facts[b][i].src,
            packet: ring.batches[b][i].1.clone(),
            egress: ring.facts[b][i].dst,
        };
        let fleet = Fleet {
            deployment,
            topology,
            ports,
            family,
            variants,
            probe,
            times_injected: vec![0; ring.batches.len()],
            probes_sent: 0,
            drained: 0,
            tail_drops: 0,
            delivered: 0,
        };
        (fleet, (t1 - t0).as_secs_f64() * 1e3)
    }

    /// The traffic plane.
    pub fn network(&self) -> &DistNetwork {
        &self.deployment.network
    }

    /// Fold a finished traffic leg into the fleet's injection ledger.
    pub fn absorb(&mut self, leg: &TrafficLeg) {
        for (mine, theirs) in self.times_injected.iter_mut().zip(&leg.times_injected) {
            *mine += theirs;
        }
        self.drained += leg.drained;
        self.tail_drops += leg.tail_drops;
        self.delivered += leg.delivered;
    }

    /// After all traffic: every delivery must have been drained or counted
    /// as a tail drop, and — where the policy counts packets per ingress
    /// port — `count[inport]` must equal the packets injected at each port.
    /// Each violated invariant is one failed operation.
    pub fn check_totals(&mut self, ring: &Ring, failures: &mut Failures) {
        for &port in &self.ports {
            self.drained += self.deployment.network.drain_port(port).len() as u64;
        }
        failures.attempted += 1;
        if self.drained + self.tail_drops != self.delivered {
            let (d, t, e) = (self.drained, self.tail_drops, self.delivered);
            failures.fail(|| {
                format!("egress lost packets: {d} drained + {t} tail-dropped of {e} delivered")
            });
        }
        if !self.family.counts_ingress() {
            return;
        }
        let mut expected = vec![0u64; port_slots(&self.ports)];
        for (facts, &times) in ring.facts.iter().zip(&self.times_injected) {
            if times > 0 {
                for fact in facts {
                    expected[fact.src.0] += u64::from(times);
                }
            }
        }
        expected[self.probe.ingress.0] += self.probes_sent;
        let store = self.deployment.network.aggregate_store();
        let count = StateVar::new("count");
        for &port in &self.ports {
            failures.attempted += 1;
            let got = store.get(&count, &[Value::Int(port.0 as i64)]);
            let want = Value::Int(expected[port.0] as i64);
            if got != want {
                failures.fail(|| format!("count[{}] = {got:?}, injected {want:?}", port.0));
            }
        }
    }

    /// Stop and join every agent thread.
    pub fn shutdown(self) {
        self.deployment.shutdown();
    }
}

/// Length of a table indexed by port number.
fn port_slots(ports: &[PortId]) -> usize {
    ports.iter().map(|p| p.0).max().unwrap_or(0) + 1
}

/// When a traffic leg ends.
pub enum Stop<'a> {
    /// After this many batches (the warm-up pass).
    Batches(usize),
    /// At a deadline (the closed-loop traffic leg).
    At(Instant),
    /// When the operator thread says so (the mixed leg).
    Flag(&'a AtomicBool),
}

/// What one traffic leg measured.
#[derive(Default)]
pub struct TrafficLeg {
    /// Packets completed without error.
    pub packets: u64,
    /// Of those, delivered at their destination's port.
    pub delivered: u64,
    /// Of those, dropped by the policy where it may drop.
    pub policy_drops: u64,
    /// Deliveries tail-dropped by a full egress queue.
    pub tail_drops: u64,
    /// Egress events drained.
    pub drained: u64,
    /// Deepest single queue seen at a drain.
    pub depth_max: usize,
    /// `inject_batch` call latency, µs, one per batch.
    pub batch_us: Vec<f64>,
    /// `(packets, seconds, traced)` per completed window.
    pub windows: Vec<(u64, f64, bool)>,
    /// Time inside `inject_batch`, ns.
    pub inject_ns: u64,
    /// Load-thread time checking outcomes against the generator's facts, ns.
    pub check_ns: u64,
    /// Time freeing the outcomes `inject_batch` returned (an owned clone of
    /// every delivered packet), ns: a cost of the API, not of the checking.
    pub free_ns: u64,
    /// Time inside the drain rounds, ns.
    pub drain_ns: u64,
    /// Wall time of the leg, ns.
    pub wall_ns: u64,
    /// How often each ring batch was injected.
    pub times_injected: Vec<u32>,
    last_epoch: Vec<u64>,
    /// The ring batch the next injection takes.
    cursor: usize,
}

impl TrafficLeg {
    /// An empty leg that will start at ring batch `cursor`. A leg can be
    /// driven in several slices; it accumulates across them.
    pub fn new(ring: &Ring, ports: &[PortId], cursor: usize) -> TrafficLeg {
        TrafficLeg {
            times_injected: vec![0; ring.batches.len()],
            last_epoch: vec![0; port_slots(ports)],
            cursor,
            ..TrafficLeg::default()
        }
    }

    /// Median rate over the windows recorded with tracing on (or off).
    pub fn window_rate(&self, traced: bool) -> f64 {
        let windows: Vec<(u64, f64)> = self
            .windows
            .iter()
            .filter(|w| w.2 == traced)
            .map(|w| (w.0, w.1))
            .collect();
        crate::stats::windowed_median_rate(&windows)
    }

    fn check(
        &mut self,
        results: &[Result<InjectOutcome, InjectError>],
        batch: &[(PortId, Packet)],
        facts: &[RingPacket],
        family: Family,
        failures: &mut Failures,
    ) {
        failures.attempted += results.len() as u64;
        for (i, result) in results.iter().enumerate() {
            let fact = &facts[i];
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    failures.fail(|| format!("inject of {:?} failed: {e}", batch[i].1));
                    continue;
                }
            };
            self.packets += 1;
            self.tail_drops += outcome.backpressure_drops as u64;
            // Epochs are stamped by the ingress agent, so they are only
            // ordered per ingress port (two agents may sit on either side
            // of a commit wave within one batch).
            let last = &mut self.last_epoch[fact.src.0];
            if outcome.epoch < *last {
                let (now, was) = (outcome.epoch, *last);
                failures
                    .fail(|| format!("epoch went back from {was} to {now} at port {}", fact.src.0));
            }
            *last = outcome.epoch;
            match outcome.delivered.as_slice() {
                [] if family.may_drop(fact.dst) => self.policy_drops += 1,
                [(port, _)] if *port == fact.dst => self.delivered += 1,
                other => {
                    // Count what was delivered so the egress ledger holds.
                    self.delivered += other.len() as u64;
                    let ports: Vec<usize> = other.iter().map(|(p, _)| p.0).collect();
                    failures.fail(|| {
                        format!(
                            "packet {:?} came out at ports {ports:?}, expected port {}",
                            batch[i].1, fact.dst.0
                        )
                    });
                }
            }
        }
    }
}

/// Drive ring traffic through `network` from one load thread, closed loop,
/// accumulating into `leg`: inject a batch of 64, check every outcome
/// against what the generator knows, drain every port every
/// [`DRAIN_EVERY`] batches. Consecutive clock reads tile the loop, so
/// inject + check + free + drain account for the whole leg by construction
/// and `loadgen.share` is the check tile's share.
///
/// With `alternate` set (the traced run), span recording is switched on
/// and off window by window, which prices the tracing itself.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    leg: &mut TrafficLeg,
    network: &DistNetwork,
    ring: &Ring,
    family: Family,
    ports: &[PortId],
    stop: Stop<'_>,
    tracer: &mut Tracer,
    alternate: bool,
    failures: &mut Failures,
) {
    let traced = tracer.enabled();
    let trace_window = |tracer: &mut Tracer, index: usize| {
        if alternate {
            tracer.set_enabled(traced && index.is_multiple_of(2));
        }
    };
    let start = Instant::now();
    let mut now = start;
    let mut batches = 0usize;
    let mut window = (now, 0u64);
    trace_window(tracer, leg.windows.len());
    let mut window_span = tracer.open("traffic.window", now, None, leg.windows.len() as u64);
    loop {
        let done = match stop {
            Stop::Batches(n) => batches >= n,
            Stop::At(deadline) => now >= deadline,
            Stop::Flag(flag) => flag.load(Ordering::Relaxed),
        };
        if done {
            break;
        }
        let op = leg.windows.len() as u64;
        let b = leg.cursor % ring.batches.len();
        leg.cursor += 1;
        let results = network.inject_batch(&ring.batches[b]);
        let injected = Instant::now();
        leg.check(&results, &ring.batches[b], &ring.facts[b], family, failures);
        leg.times_injected[b] += 1;
        let checked = Instant::now();
        drop(results);
        let freed = Instant::now();
        tracer.span("dataplane.inject_batch", now, injected, window_span, op);
        tracer.span("loadgen.check", injected, checked, window_span, op);
        tracer.span("dataplane.free_outcomes", checked, freed, window_span, op);
        let inject = (injected - now).as_nanos() as u64;
        leg.inject_ns += inject;
        leg.check_ns += (checked - injected).as_nanos() as u64;
        leg.free_ns += (freed - checked).as_nanos() as u64;
        leg.batch_us.push(inject as f64 / 1e3);
        window.1 += BATCH as u64;
        batches += 1;
        now = freed;
        if batches.is_multiple_of(DRAIN_EVERY) {
            for &port in ports {
                let events = network.drain_port(port);
                leg.depth_max = leg.depth_max.max(events.len());
                leg.drained += events.len() as u64;
            }
            now = Instant::now();
            tracer.span("dataplane.drain_port", freed, now, window_span, op);
            leg.drain_ns += (now - freed).as_nanos() as u64;
        }
        if now - window.0 >= WINDOW {
            leg.windows
                .push((window.1, (now - window.0).as_secs_f64(), tracer.enabled()));
            tracer.close(window_span, now);
            window = (now, 0);
            trace_window(tracer, leg.windows.len());
            window_span = tracer.open("traffic.window", now, None, leg.windows.len() as u64);
        }
    }
    // A slice rarely ends on a window boundary; a remainder of at least
    // half a window is still a fair rate sample.
    if now - window.0 >= WINDOW / 2 {
        leg.windows
            .push((window.1, (now - window.0).as_secs_f64(), tracer.enabled()));
    }
    tracer.close(window_span, now);
    tracer.set_enabled(traced);
    leg.wall_ns += (now - start).as_nanos() as u64;
}

/// One timed edit.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// The edit's class.
    pub kind: EditKind,
    /// The gated number: from the call (closed loop) or from when the edit
    /// was due (open loop) to the probe packet back on the new epoch, ms.
    pub update_ms: f64,
    /// `update_policy` / `update_traffic` wall time, ms.
    pub call_ms: f64,
    /// The prepare phase the `CommitReport` states, ms.
    pub prepare_ms: f64,
    /// The commit phase the `CommitReport` states, ms.
    pub commit_ms: f64,
    /// Probe inject wall time, µs.
    pub probe_us: f64,
    /// How far past its due time the edit was *issued* for reasons of the
    /// generator's own (sleep overshoot), ms; 0 in a closed loop.
    pub late_ms: f64,
}

impl OpSample {
    /// What the call spent outside the two distribution phases: session
    /// compile, import into the distribution pool and delta encoding.
    pub fn compile_ms(&self) -> f64 {
        (self.call_ms - self.prepare_ms - self.commit_ms).max(0.0)
    }
}

/// The operator: owns the controller for the length of an edit leg.
pub struct Operator<'a> {
    controller: &'a mut Controller,
    network: &'a DistNetwork,
    topology: &'a Topology,
    variants: &'a [Policy],
    family: Family,
    probe: &'a Probe,
    kept: OperatorOutcome,
    ops: u64,
}

/// What an edit leg leaves behind once the controller is handed back.
pub struct OperatorOutcome {
    /// The operator thread's spans.
    pub tracer: Tracer,
    /// Its failures.
    pub failures: Failures,
    /// Probes injected (they count towards `count[inport]`).
    pub probes_sent: u64,
    /// Probe deliveries (they count towards the egress ledger).
    pub probes_delivered: u64,
    /// Commit reports of the successful edits, in order.
    pub reports: Vec<CommitReport>,
    /// Edits the controller refused or aborted.
    pub aborts: u64,
}

impl<'a> Operator<'a> {
    /// Borrow the fleet's control side for an edit leg.
    pub fn new(fleet: &'a mut Fleet, tracer: Tracer) -> Operator<'a> {
        Operator {
            controller: &mut fleet.deployment.controller,
            network: &fleet.deployment.network,
            topology: &fleet.topology,
            variants: &fleet.variants,
            family: fleet.family,
            probe: &fleet.probe,
            kept: OperatorOutcome {
                tracer,
                failures: Failures::default(),
                probes_sent: 0,
                probes_delivered: 0,
                reports: Vec::new(),
                aborts: 0,
            },
            ops: 0,
        }
    }

    /// Hand the controller back and keep what the leg recorded.
    pub fn finish(self) -> OperatorOutcome {
        self.kept
    }

    /// The traffic plane (for the load thread of the mixed leg).
    pub fn network(&self) -> &'a DistNetwork {
        self.network
    }

    /// The controller, read-only (session statistics, mux counters).
    pub fn controller(&self) -> &Controller {
        self.controller
    }

    /// Apply one edit and send the probe. The edit's input (policy or
    /// matrix) is built before the clock starts: it is the operator's
    /// typing, not the program's work.
    pub fn apply(&mut self, edit: Edit, due: Option<Instant>) -> OpSample {
        enum Input {
            Policy(Policy),
            Traffic(TrafficMatrix),
        }
        let ports = self.topology.num_external_ports();
        let input = match edit.kind {
            EditKind::Flip => Input::Policy(self.variants[edit.param as usize].clone()),
            EditKind::Novel => Input::Policy(self.family.novel(ports, edit.param)),
            EditKind::Traffic => {
                Input::Traffic(TrafficMatrix::gravity(self.topology, VOLUME, edit.param))
            }
        };
        self.ops += 1;
        let op = self.ops;
        self.kept.failures.attempted += 1;
        let mut late_ms = 0.0;
        if let Some(due) = due {
            let ready = Instant::now();
            if ready < due {
                std::thread::sleep(due - ready);
                late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            }
        }
        let t0 = Instant::now();
        let outcome: Result<CommitReport, DistribError> = match input {
            Input::Policy(policy) => self.controller.update_policy(&policy),
            Input::Traffic(matrix) => self
                .controller
                .update_traffic(matrix)
                .map(|report| report.expect("a policy is committed before any traffic update")),
        };
        let t1 = Instant::now();
        let probed = self.network.inject(self.probe.ingress, &self.probe.packet);
        let t2 = Instant::now();
        self.kept.probes_sent += 1;

        let from = due.unwrap_or(t0);
        let root = self.kept.tracer.span("update", from, t2, None, op);
        if t0 > from {
            // Open loop: the edit waited behind its predecessor.
            self.kept.tracer.span("operator.queued", from, t0, root, op);
        }
        let call = self.kept.tracer.span("controller.update", t0, t1, root, op);
        self.kept.tracer.span("distrib.probe", t1, t2, root, op);
        let (mut prepare_ms, mut commit_ms) = (0.0, 0.0);
        match (outcome, probed) {
            (Ok(report), Ok(probe)) => {
                let prepare = report.prepare_time.as_nanos() as u64;
                let commit = report.commit_time.as_nanos() as u64;
                let call_ns = (t1 - t0).as_nanos() as u64;
                // The report gives the two phases' lengths; they are the
                // tail of the call, the compile what precedes them.
                let compile = call_ns.saturating_sub(prepare + commit);
                self.kept
                    .tracer
                    .derived_span("session.compile", t0, 0, compile, call, op);
                self.kept
                    .tracer
                    .derived_span("distrib.prepare", t0, compile, prepare, call, op);
                self.kept.tracer.derived_span(
                    "distrib.commit",
                    t0,
                    compile + prepare,
                    commit,
                    call,
                    op,
                );
                prepare_ms = prepare as f64 / 1e6;
                commit_ms = commit as f64 / 1e6;
                self.kept.probes_delivered += probe.delivered.len() as u64;
                let at_egress =
                    matches!(probe.delivered.as_slice(), [(p, _)] if *p == self.probe.egress);
                if probe.epoch != report.epoch || !at_egress {
                    let (got, want) = (probe.epoch, report.epoch);
                    self.kept.failures.fail(|| {
                        format!("op {op} ({:?}): probe on epoch {got}, committed {want}, delivered ok: {at_egress}", edit.kind)
                    });
                }
                self.kept.reports.push(report);
            }
            (Err(e), _) => {
                self.kept.aborts += 1;
                self.kept
                    .failures
                    .fail(|| format!("op {op} ({:?}) failed: {e}", edit.kind));
            }
            (_, Err(e)) => self
                .kept
                .failures
                .fail(|| format!("op {op} ({:?}): probe failed: {e}", edit.kind)),
        }
        OpSample {
            kind: edit.kind,
            update_ms: (t2 - from).as_secs_f64() * 1e3,
            call_ms: (t1 - t0).as_secs_f64() * 1e3,
            prepare_ms,
            commit_ms,
            probe_us: (t2 - t1).as_secs_f64() * 1e6,
            late_ms,
        }
    }

    /// After the gated ops: `n` traffic-matrix updates, then one flip to
    /// each working-set variant (the first flips after a TE update find
    /// the session's version cache cleared). Reported per layer only.
    pub fn aftermath(&mut self, seed: u64, n: usize) -> Vec<OpSample> {
        let mut rng = SplitMix64::new(seed, 3);
        let mut samples: Vec<OpSample> = (0..n)
            .map(|_| {
                let edit = Edit {
                    kind: EditKind::Traffic,
                    param: rng.next_u64(),
                };
                self.apply(edit, None)
            })
            .collect();
        for v in 0..self.variants.len() {
            let edit = Edit {
                kind: EditKind::Flip,
                param: v as u64,
            };
            samples.push(self.apply(edit, None));
        }
        samples
    }
}

/// What the oracle pass found.
pub struct OracleReport {
    /// Packets replayed.
    pub packets: usize,
    /// `snap_lang::eval` cost, ns per packet (informational).
    pub eval_ns_per_pkt: f64,
}

/// The untimed correctness pass: replay the first `batches` ring batches
/// one packet at a time through a freshly built `fleet` and through
/// `snap_lang::eval` on a fresh `Store`, and require identical deliveries
/// per packet and an identical final store. The oracle is the language
/// semantics, never the compiler under test. Mismatches are failed
/// operations; the first offending packet is kept.
pub fn oracle_pass(
    fleet: &mut Fleet,
    ring: &Ring,
    batches: usize,
    failures: &mut Failures,
) -> OracleReport {
    let policy = fleet.variants[0].clone();
    let mut store = Store::new();
    let mut eval_ns = 0u64;
    let mut packets = 0usize;
    for b in 0..batches.min(ring.batches.len()) {
        for (port, packet) in &ring.batches[b] {
            failures.attempted += 1;
            packets += 1;
            let t = Instant::now();
            let expected = snap_lang::eval(&policy, &store, packet);
            eval_ns += t.elapsed().as_nanos() as u64;
            let got = fleet.deployment.network.inject(*port, packet);
            match (expected, got) {
                (Ok(expected), Ok(got)) => {
                    fleet.delivered += got.delivered.len() as u64;
                    fleet.tail_drops += got.backpressure_drops as u64;
                    let mut delivered: Vec<&Packet> =
                        got.delivered.iter().map(|(_, p)| p).collect();
                    delivered.sort();
                    if !delivered.iter().copied().eq(expected.packets.iter()) {
                        failures.fail(|| {
                            format!(
                                "oracle mismatch on {packet:?}: fleet delivered {delivered:?}, eval says {:?}",
                                expected.packets
                            )
                        });
                    }
                    store = expected.store;
                }
                (expected, got) => failures.fail(|| {
                    format!(
                        "oracle pass: {packet:?} gave eval error {:?}, inject error {:?}",
                        expected.err(),
                        got.err()
                    )
                }),
            }
        }
        fleet.times_injected[b] += 1;
    }
    let aggregate = fleet.deployment.network.aggregate_store();
    for var in policy.state_vars() {
        failures.attempted += 1;
        if !aggregate.var_eq(&store, &var) {
            failures.fail(|| format!("oracle pass: final table of {var:?} differs from eval's"));
        }
    }
    OracleReport {
        packets,
        eval_ns_per_pkt: eval_ns as f64 / packets.max(1) as f64,
    }
}

/// Total entries across a store's tables.
pub fn store_entries(store: &Store) -> usize {
    store
        .variables()
        .filter_map(|v| store.table(v))
        .map(|t| t.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::Field;

    fn outcome(epoch: u64, ports: &[usize]) -> Result<InjectOutcome, InjectError> {
        Ok(InjectOutcome {
            epoch,
            delivered: ports.iter().map(|&p| (PortId(p), Packet::new())).collect(),
            backpressure_drops: 0,
        })
    }

    /// The checker itself: it must fail exactly the outcomes that are wrong.
    #[test]
    fn check_fails_wrong_port_unexpected_drop_stale_epoch_and_errors() {
        let packet = Packet::new().with(Field::InPort, 1);
        let batch: Vec<(PortId, Packet)> = (0..6).map(|_| (PortId(1), packet.clone())).collect();
        let fact = |dst| RingPacket {
            src: PortId(1),
            dst: PortId(dst),
        };
        let protected = crate::scenario::PROTECTED_PORT.0;
        let facts = [fact(2), fact(2), fact(protected), fact(2), fact(2), fact(2)];
        let results = [
            outcome(5, &[2]), // right port
            outcome(5, &[3]), // wrong port
            outcome(5, &[]),  // the firewall may drop this one
            outcome(5, &[]),  // nothing may drop this one
            outcome(4, &[2]), // epoch went backwards at port 1
            Err(InjectError::NoAgent(snap_topology::NodeId(0))),
        ];
        let mut leg = TrafficLeg {
            last_epoch: vec![0; 8],
            ..TrafficLeg::default()
        };
        let mut failures = Failures::default();
        leg.check(
            &results,
            &batch,
            &facts,
            Family::StatefulPipeline,
            &mut failures,
        );
        assert_eq!(failures.attempted, 6);
        assert_eq!(failures.failed, 4);
        assert!(failures
            .first
            .as_deref()
            .unwrap()
            .contains("expected port 2"));
        assert_eq!((leg.packets, leg.delivered, leg.policy_drops), (5, 3, 1));
        // A stateless policy may drop nothing, not even towards port 6.
        let mut failures = Failures::default();
        leg.check(
            &results[2..3],
            &batch,
            &facts[2..3],
            Family::StatelessAcl,
            &mut failures,
        );
        assert_eq!(failures.failed, 1);
    }
}
