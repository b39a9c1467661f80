//! # snap-soak
//!
//! The standing stress rig: an ISP-scale [`igen_topology`] network driven
//! by gravity-model traffic workers **concurrently** with continuous
//! policy churn (recompile through the `CompilerSession`, distribute as
//! two-phase epoch commits through the `Controller`), while a monitor
//! thread samples `Telemetry::snapshot()` on a fixed interval and turns
//! the stream into a rate time-series plus continuous invariant checks.
//! One run produces one [`SoakOutcome`] — the `BENCH_soak.json`
//! trajectory artifact — so a leak, a contention regression or an
//! epoch-purity violation that only appears 40 seconds into sustained
//! churn becomes a diff between two PRs' artifacts, not archaeology.
//!
//! ## The exactness caveat
//!
//! Hot-path metrics are **sharded, sum-only-on-read** (see the
//! `snap-telemetry` crate docs): a snapshot taken while traffic workers
//! are running includes every write that happened-before the read and may
//! miss in-flight ones. Interval rates and the epoch-purity / FIFO /
//! bounded-memory monitors are therefore evaluated against *live*
//! telemetry and tolerate that slack by construction (they check
//! structural properties, not totals). The **exact-state monitor is
//! different**: it compares aggregated state-store totals against an
//! independently folded ledger, and totals are exact **only at quiesce**.
//! The rig provides quiesce points — a pause gate all traffic workers and
//! the churn thread check between batches/commits — and the exact-state
//! monitor runs *only* there (every [`SoakConfig::quiesce_every`]-th
//! interval, and once more after all writers have joined at run end).
//! Any monitor added here that needs exact totals must do the same.
//!
//! ## What runs where
//!
//! * N **traffic workers** sample `(src, dst)` external-port pairs from
//!   the topology's gravity traffic matrix and inject batches through
//!   [`DistNetwork::inject_batch`], counting every processed packet into
//!   a per-port [`Ledger`].
//! * One **churn thread** owns the [`Controller`](snap_distrib::Controller)
//!   and cycles a small set
//!   of threshold-variant policies (detection-only, placement-stable —
//!   so churn exercises recompile + 2PC + delta shipping without
//!   migration windows or policy drops that would break the ledger
//!   fold).
//! * The **monitor** samples [`DistNetwork::metrics_snapshot`] every
//!   [`SoakConfig::interval`], computes `MetricsSnapshot::delta`, keeps
//!   the [`IntervalStats`] series, runs the invariant monitors, and is
//!   the sole drainer of the egress queues (which is what makes the
//!   per-port FIFO check sound).

#![warn(missing_docs)]

pub mod monitor;
pub mod report;

pub use monitor::{
    IntervalStats, Ledger, MemoryBounds, Monitors, Violation, MAX_RETAINED_VIOLATIONS,
};
pub use report::{RateSummary, SoakOutcome};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_apps as apps;
use snap_distrib::{
    deploy_in_process_custom, deploy_tcp, DeployOptions, DistNetwork, DistribOptions,
};
use snap_lang::{Field, Packet, Policy, Value};
use snap_session::CompilerSession;
use snap_topology::generators::igen_topology;
use snap_topology::{PortId, Topology, TrafficMatrix};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which controller↔agent transport the rig deploys over. Both run the
/// identical protocol; TCP adds real framing, socket buffering and reader
/// threads to the soak's failure surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// In-process bounded channels (the default; fastest, no sockets).
    InProcess,
    /// Length-prefixed TCP over loopback, one connection per agent.
    Tcp,
}

impl Transport {
    /// Read the `SNAP_SOAK_TRANSPORT` override: `tcp` selects
    /// [`Transport::Tcp`], anything else (or unset) the in-process
    /// channels. Presets call this so CI can sweep both backends without
    /// code changes.
    pub fn from_env() -> Transport {
        match std::env::var("SNAP_SOAK_TRANSPORT") {
            Ok(v) if v.eq_ignore_ascii_case("tcp") => Transport::Tcp,
            _ => Transport::InProcess,
        }
    }

    /// The artifact label (`"in-process"` / `"tcp"`).
    pub fn label(&self) -> &'static str {
        match self {
            Transport::InProcess => "in-process",
            Transport::Tcp => "tcp",
        }
    }
}

/// Everything one soak run is parameterized by. Start from
/// [`SoakConfig::isp`] (the acceptance-scale run) or [`SoakConfig::smoke`]
/// (the ~5 s CI variant) and override fields as needed.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Switches in the generated igen topology.
    pub switches: usize,
    /// Seed for topology generation, the gravity matrix and the workers'
    /// traffic sampling (workers offset it by their index).
    pub seed: u64,
    /// Concurrent traffic worker threads.
    pub workers: usize,
    /// Packets per injected batch.
    pub batch_size: usize,
    /// Traffic phase length.
    pub duration: Duration,
    /// Monitor sampling interval.
    pub interval: Duration,
    /// Time between policy-churn commits.
    pub churn_period: Duration,
    /// Run the exact-state monitor every Nth interval (0 = only at run
    /// end). Each check pauses all writers at the quiesce gate.
    pub quiesce_every: usize,
    /// Per-port egress queue capacity.
    pub queue_capacity: usize,
    /// Packet-trace sampling period (1-in-N per worker).
    pub trace_every: u64,
    /// Total gravity traffic volume (shapes the matrix, not the rate).
    pub traffic_volume: f64,
    /// How many external ports receive traffic / egress subnets the
    /// churned policies route (0 = all of the topology's, capped at 250
    /// so subnets fit an IPv4 octet). [`run`] writes the effective value
    /// back into the outcome's config.
    pub egress_ports: usize,
    /// Bounded-memory ceiling for the `pool.live_nodes` gauge.
    pub max_session_pool_nodes: i64,
    /// Bounded-memory ceiling for the `pool.distribution_nodes` gauge.
    pub max_distribution_nodes: i64,
    /// Minimum churn commits for a `pass` verdict.
    pub min_commits: u64,
    /// Minimum monitor intervals for a `pass` verdict.
    pub min_intervals: usize,
    /// Print one line per interval to stderr while running.
    pub progress: bool,
    /// Controller↔agent transport (presets honor `SNAP_SOAK_TRANSPORT`).
    pub transport: Transport,
}

impl SoakConfig {
    /// The acceptance-scale run: an igen ISP topology of 200 switches,
    /// ≥ 60 s of traffic from 4 workers, a commit every ~2.5 s.
    pub fn isp() -> SoakConfig {
        SoakConfig {
            switches: 200,
            seed: 7,
            workers: 4,
            batch_size: 64,
            duration: Duration::from_secs(66),
            interval: Duration::from_secs(4),
            churn_period: Duration::from_millis(1000),
            quiesce_every: 4,
            queue_capacity: 8192,
            trace_every: 512,
            traffic_volume: 10_000.0,
            egress_ports: 0,
            max_session_pool_nodes: 600_000,
            max_distribution_nodes: 2_000_000,
            min_commits: 20,
            min_intervals: 10,
            progress: false,
            transport: Transport::from_env(),
        }
    }

    /// The ~5 s smoke variant CI runs on every push: a small igen
    /// topology, the same code path end to end.
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            switches: 24,
            seed: 11,
            workers: 2,
            batch_size: 32,
            duration: Duration::from_secs(5),
            interval: Duration::from_millis(450),
            churn_period: Duration::from_millis(400),
            quiesce_every: 3,
            queue_capacity: 2048,
            trace_every: 128,
            traffic_volume: 2_000.0,
            egress_ports: 0,
            max_session_pool_nodes: 600_000,
            max_distribution_nodes: 2_000_000,
            min_commits: 5,
            min_intervals: 8,
            progress: false,
            transport: Transport::from_env(),
        }
    }
}

/// The churned policy set: the same detection-only pipeline at different
/// thresholds. Threshold edits keep the packet-state mapping and the
/// state-dependency relation unchanged, so the session reuses placement —
/// every commit is placement-stable (no migration windows) and no variant
/// drops packets (detection only + full egress coverage), which is what
/// lets the exact-state monitor fold `count[inport]` against a simple
/// injection ledger.
fn churn_variants(egress_ports: usize) -> Vec<Policy> {
    (0..5)
        .map(|i| {
            apps::port_monitoring()
                .seq(apps::dns_tunnel_detect(3 + i as i64))
                .seq(apps::heavy_hitter_detection(50 + 10 * i as i64))
                .seq(apps::assign_egress(egress_ports))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The quiesce gate
// ---------------------------------------------------------------------------

/// A pause barrier over `std::sync` (the workspace's parking_lot shim has
/// no `Condvar`). Writers (`present` of them) call [`Gate::checkpoint`]
/// between batches/commits: free when the gate is open, blocking at the
/// barrier while it is paused. The monitor calls [`Gate::pause`], which
/// returns once every present writer is blocked — the quiesce point the
/// exact-state monitor needs — and [`Gate::resume`] to release them.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    paused: bool,
    stopped: bool,
    /// Writers still participating (decremented by [`Gate::leave`]).
    present: usize,
    /// Writers currently blocked at the barrier.
    waiting: usize,
}

impl Gate {
    fn new(present: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                paused: false,
                stopped: false,
                present,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Writer-side: block here while the gate is paused.
    fn checkpoint(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        if !s.paused || s.stopped {
            return;
        }
        s.waiting += 1;
        self.cv.notify_all();
        while s.paused && !s.stopped {
            s = self.cv.wait(s).expect("gate poisoned");
        }
        s.waiting -= 1;
        self.cv.notify_all();
    }

    /// Writer-side: permanently stop participating (thread exit).
    fn leave(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.present -= 1;
        self.cv.notify_all();
    }

    /// Monitor-side: close the gate and wait until every present writer
    /// is blocked at the barrier. Returns `false` (gate left open) when
    /// the run stopped first or no writers remain.
    fn pause(&self) -> bool {
        let mut s = self.state.lock().expect("gate poisoned");
        if s.stopped || s.present == 0 {
            return false;
        }
        s.paused = true;
        while s.waiting < s.present && !s.stopped {
            s = self.cv.wait(s).expect("gate poisoned");
        }
        if s.stopped {
            s.paused = false;
            self.cv.notify_all();
            return false;
        }
        true
    }

    /// Monitor-side: reopen the gate.
    fn resume(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.paused = false;
        self.cv.notify_all();
    }

    /// End the run: every checkpoint returns immediately from now on.
    fn stop(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.stopped = true;
        self.cv.notify_all();
    }

    fn is_stopped(&self) -> bool {
        self.state.lock().expect("gate poisoned").stopped
    }
}

// ---------------------------------------------------------------------------
// Traffic sampling
// ---------------------------------------------------------------------------

/// Weighted `(src, dst)` sampling from the gravity matrix, restricted to
/// destinations the churned policies route.
struct TrafficSampler {
    pairs: Vec<(PortId, PortId)>,
    /// Cumulative demand, aligned with `pairs`.
    cumulative: Vec<f64>,
    total: f64,
}

impl TrafficSampler {
    fn build(matrix: &TrafficMatrix, max_dst: usize) -> TrafficSampler {
        let mut pairs = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (src, dst, demand) in matrix.iter() {
            if demand <= 0.0 || dst.0 > max_dst || dst.0 == 0 {
                continue;
            }
            total += demand;
            pairs.push((src, dst));
            cumulative.push(total);
        }
        assert!(
            !pairs.is_empty(),
            "gravity matrix produced no usable demand"
        );
        TrafficSampler {
            pairs,
            cumulative,
            total,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> (PortId, PortId) {
        let x = rng.gen::<f64>() * self.total;
        let at = self.cumulative.partition_point(|&c| c < x);
        self.pairs[at.min(self.pairs.len() - 1)]
    }
}

/// Build one fully populated packet for a sampled port pair, so every
/// field the churned policies test is present (a missing tested field is
/// an evaluation error). `k` varies the host octets so per-flow state
/// (heavy-hitter counters, DNS suspicion) sees many keys.
fn make_packet(src: PortId, dst: PortId, k: u64) -> Packet {
    let host = (k % 200) as u8;
    let dns = k.is_multiple_of(7);
    Packet::new()
        .with(Field::InPort, src.0 as i64)
        .with(Field::SrcIp, Value::ip(10, 0, src.0 as u8, host))
        .with(
            Field::DstIp,
            Value::ip(10, 0, dst.0 as u8, host.wrapping_add(1)),
        )
        .with(
            Field::SrcPort,
            if dns { 53 } else { 40_000 + (k % 1000) as i64 },
        )
        .with(Field::DstPort, 443)
        .with(Field::Proto, if dns { 17 } else { 6 })
        .with(
            Field::TcpFlags,
            Value::sym(if k.is_multiple_of(3) { "SYN" } else { "ACK" }),
        )
        .with(Field::DnsRdata, Value::ip(93, 184, 216, host))
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct WorkerTotals {
    packets: u64,
    deliveries: u64,
    errors: u64,
    samples: Vec<String>,
}

fn worker_loop(
    w: usize,
    config: &SoakConfig,
    network: &DistNetwork,
    sampler: &TrafficSampler,
    ledger: &Ledger,
    gate: &Gate,
    deadline: Instant,
) -> WorkerTotals {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (0x9e37_79b9 + w as u64));
    let mut totals = WorkerTotals {
        packets: 0,
        deliveries: 0,
        errors: 0,
        samples: Vec::new(),
    };
    let mut k = (w as u64) << 32;
    while !gate.is_stopped() && Instant::now() < deadline {
        gate.checkpoint();
        let batch: Vec<(PortId, Packet)> = (0..config.batch_size)
            .map(|_| {
                let (src, dst) = sampler.sample(&mut rng);
                k += 1;
                (src, make_packet(src, dst, k))
            })
            .collect();
        for ((port, _), result) in batch.iter().zip(network.inject_batch(&batch)) {
            match result {
                Ok(outcome) => {
                    totals.packets += 1;
                    totals.deliveries += outcome.delivered.len() as u64;
                    ledger.bump(*port);
                }
                Err(e) => {
                    totals.errors += 1;
                    if totals.samples.len() < 4 {
                        totals.samples.push(format!("worker {w}: {e}"));
                    }
                }
            }
        }
    }
    gate.leave();
    totals
}

struct ChurnTotals {
    commits: u64,
    aborts: u64,
    samples: Vec<String>,
}

fn churn_loop(
    controller: &mut snap_distrib::Controller,
    variants: &[Policy],
    gate: &Gate,
    period: Duration,
    deadline: Instant,
) -> ChurnTotals {
    let mut totals = ChurnTotals {
        commits: 0,
        aborts: 0,
        samples: Vec::new(),
    };
    let slice = Duration::from_millis(20).min(period);
    let mut since = Instant::now();
    // Every variant was pre-committed once (the last being `len - 1`), so
    // starting the cycle at 0 always flips to a different program.
    let mut next = 0usize;
    while !gate.is_stopped() && Instant::now() < deadline {
        std::thread::sleep(slice);
        gate.checkpoint();
        if since.elapsed() >= period {
            match controller.update_policy(&variants[next % variants.len()]) {
                Ok(_) => totals.commits += 1,
                Err(e) => {
                    totals.aborts += 1;
                    if totals.samples.len() < 4 {
                        totals.samples.push(format!("churn: {e}"));
                    }
                }
            }
            next += 1;
            since = Instant::now();
        }
    }
    gate.leave();
    totals
}

/// Sleep until `until` (or the gate stops), in small slices so stop stays
/// responsive.
fn sleep_until(until: Instant, gate: &Gate) {
    while !gate.is_stopped() {
        let now = Instant::now();
        if now >= until {
            return;
        }
        std::thread::sleep((until - now).min(Duration::from_millis(20)));
    }
}

/// Execute one soak run (see the crate docs for the architecture).
///
/// Builds the igen topology and its gravity matrix, deploys one agent
/// thread per switch behind a [`Controller`](snap_distrib::Controller),
/// commits the first policy variant, then runs traffic workers + policy
/// churn + the interval monitor concurrently for
/// [`SoakConfig::duration`]. Returns the full [`SoakOutcome`]; nothing in
/// here panics on an invariant violation — violations are data in the
/// outcome, and [`SoakOutcome::passed`] is the verdict.
pub fn run(mut config: SoakConfig) -> SoakOutcome {
    let topology: Topology = igen_topology(config.switches, config.seed);
    let nports = topology.external_ports().count();
    let cap = if config.egress_ports == 0 {
        nports.min(250)
    } else {
        config.egress_ports.min(nports).min(250)
    };
    config.egress_ports = cap;
    let matrix = TrafficMatrix::gravity(&topology, config.traffic_volume, config.seed);
    let session = CompilerSession::new(topology.clone(), matrix.clone());
    let deploy_options = DeployOptions {
        distrib: DistribOptions {
            // Keep the append-only distribution pool bounded across
            // unbounded churn: compact once it exceeds 8× the live
            // program (the bounded-memory monitor watches the gauge).
            compact_threshold: Some(8),
            ..DistribOptions::default()
        },
        ack_delay: None,
    };
    let mut deployment = match config.transport {
        Transport::InProcess => {
            deploy_in_process_custom(session, config.queue_capacity, deploy_options)
        }
        Transport::Tcp => deploy_tcp(session, config.queue_capacity, deploy_options)
            .expect("tcp deployment over loopback must bind and connect"),
    };
    if let Some(pt) = deployment.network.telemetry() {
        pt.telemetry().tracer().set_every(config.trace_every);
    }

    // Commit every variant once before traffic starts. This warms the
    // session's version cache (at ISP scale a fresh compile of the
    // composed pipeline takes seconds), so the measured churn cadence is
    // steady-state recompile + 2PC + delta shipping — the thing a soak is
    // about — rather than five first-compile stalls at the front.
    let variants = churn_variants(cap);
    for v in &variants {
        deployment
            .controller
            .update_policy(v)
            .expect("churn variants must compile and commit");
    }

    let sampler = TrafficSampler::build(&matrix, cap);
    let ledger = Ledger::new(nports);
    let gate = Gate::new(config.workers + 1); // workers + the churn thread
    let network = Arc::clone(&deployment.network);
    let mut monitors = Monitors::new(MemoryBounds {
        trace_capacity: snap_telemetry::DEFAULT_TRACE_CAPACITY,
        event_capacity: snap_telemetry::DEFAULT_EVENT_CAPACITY,
        queue_capacity: config.queue_capacity,
        max_session_pool_nodes: config.max_session_pool_nodes,
        max_distribution_nodes: config.max_distribution_nodes,
    });
    let mut intervals: Vec<IntervalStats> = Vec::new();

    let start = Instant::now();
    let deadline = start + config.duration;
    let controller = &mut deployment.controller;
    let (worker_totals, churn_totals) = std::thread::scope(|scope| {
        let churn_handle = {
            let gate = &gate;
            let variants = &variants;
            scope.spawn(move || {
                churn_loop(controller, variants, gate, config.churn_period, deadline)
            })
        };
        let worker_handles: Vec<_> = (0..config.workers)
            .map(|w| {
                let (config, network, sampler, ledger, gate) =
                    (&config, &*network, &sampler, &ledger, &gate);
                scope
                    .spawn(move || worker_loop(w, config, network, sampler, ledger, gate, deadline))
            })
            .collect();

        // The monitor runs on this thread.
        let mut prev = network.metrics_snapshot();
        let mut index = 0usize;
        loop {
            let tick = start + config.interval * (index as u32 + 1);
            if tick > deadline {
                break;
            }
            sleep_until(tick, &gate);
            let snap = network.metrics_snapshot();
            let delta = snap.delta(&prev);
            let stats =
                IntervalStats::from_delta(index, start.elapsed().as_secs_f64(), &delta, &snap);
            monitors.check_epoch_purity(index, &snap);
            monitors.check_fifo(index, &network, &snap);
            monitors.check_bounded_memory(index, &snap);
            if config.quiesce_every > 0
                && (index + 1).is_multiple_of(config.quiesce_every)
                && gate.pause()
            {
                monitors.check_exact_state(index, &network, &ledger, &snap);
                gate.resume();
            }
            if config.progress {
                eprintln!("{}", stats.render_line());
            }
            intervals.push(stats);
            prev = snap;
            index += 1;
        }
        gate.stop();

        let churn_totals = churn_handle.join().expect("churn thread panicked");
        let worker_totals: Vec<WorkerTotals> = worker_handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (worker_totals, churn_totals)
    });
    let elapsed = start.elapsed();

    // All writers joined: the final snapshot is exact, so every monitor —
    // including exact state — runs once more against it.
    let final_snapshot = network.metrics_snapshot();
    monitors.check_epoch_purity(usize::MAX, &final_snapshot);
    monitors.check_fifo(usize::MAX, &network, &final_snapshot);
    monitors.check_bounded_memory(usize::MAX, &final_snapshot);
    monitors.check_exact_state(usize::MAX, &network, &ledger, &final_snapshot);

    let mut packets = 0;
    let mut deliveries = 0;
    let mut worker_errors = 0;
    let mut error_samples: Vec<String> = Vec::new();
    for t in &worker_totals {
        packets += t.packets;
        deliveries += t.deliveries;
        worker_errors += t.errors;
        error_samples.extend(t.samples.iter().cloned());
    }
    error_samples.extend(churn_totals.samples.iter().cloned());

    deployment.shutdown();
    SoakOutcome {
        config,
        intervals,
        violations: std::mem::take(&mut monitors.violations),
        total_violations: monitors.total,
        commits: churn_totals.commits,
        aborts: churn_totals.aborts,
        worker_errors,
        error_samples,
        packets,
        deliveries,
        final_snapshot,
        elapsed,
    }
}
