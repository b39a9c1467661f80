//! The packet driver: the one dispatch loop of the workspace.
//!
//! SNAP's premise is a single program abstraction executed uniformly across
//! the network. The Emit/Dropped/NeedState/Fork dispatch, both
//! spin-in-place guards, the hop budget and the forwarding logic live here
//! and nowhere else: [`DistNetwork::inject_batch`] walks the agent fleet
//! directly.
//!
//! * A hop executes one agent's [`EpochView`]. The ingress agent's current
//!   view ([`current_view`](crate::SwitchAgent::current_view)) stamps the
//!   packet's epoch, and every later hop resolves *that* epoch's view
//!   ([`view_for`](crate::SwitchAgent::view_for)): a committed one from the
//!   agent's history ring, or the staged one mid-commit. A view arrives
//!   with its names already resolved — every variable slot of its program
//!   bound to a local table or an owning switch, its ports in a sorted
//!   slice — so the loop below indexes and never looks a variable up by
//!   name.
//! * State lives in the agent's store
//!   ([`store`](crate::SwitchAgent::store)), the one place each variable's
//!   value lives: a flight locks it at its first state access during a
//!   visit and releases it when the visit's step returns, so every state
//!   test and write of the visit runs under one hold. State is
//!   epoch-independent — it survives reconfiguration — so flights of
//!   different epochs share it.
//! * A delivered packet lands in the owning agent's bounded per-port FIFO
//!   queues ([`egress`](crate::SwitchAgent::egress)); a full queue
//!   tail-drops it and the drop is counted on the packet's
//!   [`InjectOutcome`].
//!
//! On top of the unified loop the driver executes **batched**: in-flight
//! packets are grouped by their current switch and each group is drained
//! together, against views pinned for the batch. The store lock is not held
//! across a group: a commit reads the store under it, and holding it for a
//! group made policy flips wait on traffic (EXPERIMENTS.md "One store
//! lock"). Per-packet injection is simply a batch of one.
//!
//! Views are **pinned per batch**: an agent is asked at most once per
//! (switch, epoch) for the whole batch — the ingress stamp of a switch
//! and every view a hop or a delivery needs are remembered in a table
//! indexed densely by switch (thread-local, reset by touched entries only,
//! so a batch of one pays for one switch, not for the network) and served
//! from there for the rest of the batch: one agent lock per switch per
//! batch instead of two per packet. Pinning cannot mix epochs: a pinned
//! view is the immutable view the agent would return again, merely kept
//! alive until the batch ends.
//!
//! Each group additionally runs in two phases. A lock-free **wave-prefix**
//! phase first advances the *stateless prefix* of every flight through the
//! view's program ([`snap_xfdd::FlatProgram::step_stateless`]): flights
//! parked at the same node step through the same per-field dispatch stage
//! together, one field column at a time, and park at their first state test
//! or leaf. Only the survivors that actually reach state then enter the
//! **locked** phase, one visit at a time — stateless drops and stateless
//! emits never contend for the store lock at all (counted per instance
//! by the `driver.wave_prefix.*` counters of [`PlaneTelemetry`]).
//!
//! The driver is also the telemetry plane's observation point: while the
//! network carries its [`PlaneTelemetry`] bundle
//! ([`DistNetwork::with_telemetry`]), the loop counts ingress admissions,
//! hop visits, state writes, deliveries and drops per instance (store-lock
//! contention is counted on each switch's store directly), and carries
//! the [`snap_telemetry::PacketTrace`] of a 1-in-N sampled packet across
//! its hops. Without a bundle ([`DistNetwork::without_telemetry`]) all of
//! it compiles down to a handful of `None` checks.
//!
//! Consistency note: within a batch, packets interleave at switch
//! granularity, so the *relative order* of state writes from different
//! packets of one batch is unspecified (exactly as it already was across
//! worker threads); each packet still executes exactly one configuration
//! end to end, and per-packet semantics are unchanged.

use crate::agent::EpochView;
use crate::pins::PinArena;
use crate::plane::{DistNetwork, InjectError, InjectOutcome};
use snap_dataplane::exec::{
    misplaced_state_error, missing_placement_error, process_at_switch, InFlight, Progress,
    SimError, SlotBinding, StepOutcome,
};
use snap_dataplane::PlaneTelemetry;
use snap_lang::{Packet, Value};
use snap_telemetry::{HopRecord, LocalHistogram, PacketTrace};
use snap_topology::{NodeId as SwitchId, PortId};
use snap_xfdd::FlatId;
use std::sync::Arc;

/// Per-packet results of one batch, in batch order: what each packet did,
/// or its error.
type Outcomes = Vec<Result<InjectOutcome, InjectError>>;

/// Default hop budget: the maximum number of hops a packet may take before
/// the driver reports [`SimError::HopBudgetExceeded`] instead of spinning on
/// a loopy configuration.
pub const DEFAULT_HOP_BUDGET: usize = 256;

/// An in-flight packet plus the driver's batch bookkeeping: which batch
/// packet it belongs to, the epoch it was stamped with at ingress and —
/// for the 1-in-N sampled packets — the trace being built. A fork moves
/// the trace to the first child, so a trace follows exactly one flight.
struct Tagged {
    flight: InFlight,
    origin: usize,
    epoch: u64,
    trace: Option<Box<PacketTrace>>,
}

impl Default for Tagged {
    /// An inert placeholder (empty packet, finished progress) left behind
    /// when the group loop takes a flight out of its slot.
    fn default() -> Tagged {
        Tagged {
            flight: InFlight {
                pkt: Packet::new(),
                inport: PortId(0),
                at: SwitchId(0),
                progress: Progress::Done,
                hops: 0,
            },
            origin: 0,
            epoch: 0,
            trace: None,
        }
    }
}

/// Plain per-batch accumulator for the hot-path metrics: the driver
/// tallies admissions, deliveries and drops with ordinary arithmetic while
/// a batch runs and flushes into the sharded registry once at the end, so
/// the per-packet cost of telemetry is a couple of integer adds instead of
/// sharded atomic RMWs. The per-switch counts sit in the batch's dense
/// switch table ([`SwitchSlot`]).
#[derive(Default)]
struct BatchTally {
    packets: u64,
    deliveries: u64,
    delivery_hops: LocalHistogram,
    policy_drops: u64,
    wave_prefix_packets: u64,
    wave_prefix_survivors: u64,
}

impl BatchTally {
    fn flush(&self, m: &PlaneTelemetry) {
        if self.packets > 0 {
            m.packets.add(self.packets);
        }
        if self.deliveries > 0 {
            m.deliveries.add(self.deliveries);
        }
        m.delivery_hops.merge(&self.delivery_hops);
        if self.policy_drops > 0 {
            m.policy_drops.add(self.policy_drops);
        }
        if self.wave_prefix_packets > 0 {
            m.wave_prefix_packets.add(self.wave_prefix_packets);
            m.wave_prefix_survivors.add(self.wave_prefix_survivors);
        }
    }
}

/// Set the outcome of a traced flight's current (last) hop record. The
/// closure only runs for sampled packets, so untraced packets never
/// format a string.
fn note_outcome(tagged: &mut Tagged, outcome: impl FnOnce() -> String) {
    if let Some(trace) = tagged.trace.as_deref_mut() {
        if let Some(hop) = trace.hops.last_mut() {
            hop.outcome = outcome();
        }
    }
}

/// The §4.5 packet tag of a flight, rendered for its hop record.
fn progress_tag(progress: &Progress) -> String {
    match progress {
        Progress::AtNode(id) => format!("{id:?}"),
        Progress::InLeaf { node, seq, .. } => format!("{node:?}.{seq}"),
        Progress::Done => "done".to_string(),
    }
}

/// Recycled buffers for the wave loop: the in-flight and forwarded lists,
/// the per-switch buckets, the wave-prefix cohort work-list, a pool of
/// emptied member lists and the batch's dense switch table. Kept in a thread-local and shared by every batch a
/// worker thread drives, so the wave machinery stops allocating once the
/// buffers have warmed up — not once per batch.
#[derive(Default)]
struct WaveScratch {
    pending: Vec<Tagged>,
    buckets: Vec<Vec<Tagged>>,
    next: Vec<Tagged>,
    cohort: CohortScratch,
    switches: SwitchTable,
}

/// The wave-prefix pass's slice of [`WaveScratch`], split out so the batch
/// loop can borrow it independently of the flight buffers.
#[derive(Default)]
struct CohortScratch {
    /// `(pinned view slot, node, members)`.
    cohorts: Vec<(usize, FlatId, Vec<usize>)>,
    spare: Vec<Vec<usize>>,
}

/// What one batch knows about one switch: the ingress stamp it took there,
/// the arena slot of every epoch's view it pinned there, and the switch's
/// share of the batch tally.
#[derive(Default)]
struct SwitchSlot {
    touched: bool,
    stamp: Option<(u64, FlatId)>,
    /// `(epoch, slot in the batch's pin arena)` — one entry outside a
    /// commit wave, so a scan.
    views: Vec<(u64, usize)>,
    ingress: u64,
    hops: u64,
    state_writes: u64,
}

/// The batch's switch table: [`SwitchSlot`]s indexed densely by switch, plus
/// the list of the ones this batch touched — resetting and flushing walk
/// that list, never the whole network.
#[derive(Default)]
struct SwitchTable {
    slots: Vec<SwitchSlot>,
    touched: Vec<usize>,
}

impl SwitchTable {
    /// Forget the previous batch and make room for `switches` switches.
    fn reset(&mut self, switches: usize) {
        for switch in self.touched.drain(..) {
            let slot = &mut self.slots[switch];
            slot.views.clear(); // keeps its capacity
            *slot = SwitchSlot {
                views: std::mem::take(&mut slot.views),
                ..SwitchSlot::default()
            };
        }
        if self.slots.len() < switches {
            self.slots.resize_with(switches, SwitchSlot::default);
        }
    }

    fn slot(&mut self, switch: SwitchId) -> &mut SwitchSlot {
        let slot = &mut self.slots[switch.0];
        if !slot.touched {
            slot.touched = true;
            self.touched.push(switch.0);
        }
        slot
    }

    fn flush_tally(&self, m: &PlaneTelemetry) {
        for &switch in &self.touched {
            let slot = &self.slots[switch];
            if slot.ingress > 0 {
                m.switch_packets.add(switch, slot.ingress);
            }
            if slot.hops > 0 {
                m.switch_hops.add(switch, slot.hops);
            }
            if slot.state_writes > 0 {
                m.switch_state_writes.add(switch, slot.state_writes);
            }
        }
    }
}

/// The views one batch has pinned: the switch table says which (switch,
/// epoch) pairs are pinned and where, the arena holds the views themselves
/// and lends them for the rest of the batch (`'b`).
struct Pins<'s, 'b> {
    network: &'b DistNetwork,
    table: &'s mut SwitchTable,
    arena: &'b PinArena<Arc<EpochView>>,
}

impl<'b> Pins<'_, 'b> {
    /// The stamp for packets entering at `switch`, taken from the agent's
    /// current view on the batch's first packet there (the view is pinned
    /// with it) and repeated for the rest.
    fn ingress(&mut self, switch: SwitchId) -> Result<(u64, FlatId), InjectError> {
        if let Some(stamp) = self.table.slot(switch).stamp {
            return Ok(stamp);
        }
        let view = self
            .network
            .agent(switch)
            .ok_or(InjectError::NoAgent(switch))?
            .current_view()
            .ok_or(InjectError::NotConfigured(switch))?;
        let stamp = (view.epoch, view.flat.root());
        let at = self.arena.push(view);
        let slot = self.table.slot(switch);
        slot.stamp = Some(stamp);
        slot.views.push((stamp.0, at));
        Ok(stamp)
    }

    /// The arena slot of `switch`'s view under `epoch`, resolved on first
    /// use. A failed resolution is not pinned: the next asker tries again.
    fn pin(&mut self, switch: SwitchId, epoch: u64) -> Result<usize, InjectError> {
        let slot = self.table.slot(switch);
        if let Some(&(_, at)) = slot.views.iter().find(|(e, _)| *e == epoch) {
            return Ok(at);
        }
        let view = self
            .network
            .agent(switch)
            .ok_or(InjectError::NoAgent(switch))?
            .view_for(epoch)
            .ok_or(InjectError::EpochUnavailable { switch, epoch })?;
        let at = self.arena.push(view);
        self.table.slot(switch).views.push((epoch, at));
        Ok(at)
    }

    /// The pinned view in `slot`.
    fn view(&self, slot: usize) -> &'b EpochView {
        self.arena.get(slot)
    }
}

thread_local! {
    static WAVE_SCRATCH: std::cell::RefCell<WaveScratch> =
        std::cell::RefCell::new(WaveScratch::default());
}

impl DistNetwork {
    /// Inject a batch of packets and drive it to completion — the single
    /// dispatch loop of the workspace. Results come back in batch order.
    ///
    /// Each packet is stamped at its own ingress agent — asked once per
    /// batch, so packets entering at one switch share an epoch, while
    /// epochs may differ between ingress switches as a commit wave passes.
    /// Execution is grouped by switch: all in-flight packets currently at
    /// the same switch are drained together (each visit holding the
    /// switch's store lock from its first state access until its step
    /// returns), against views pinned for the whole batch — an agent's
    /// `core` lock is taken once per (switch, epoch, batch), not per
    /// packet. A packet that fails loses its remaining in-flight copies,
    /// and never affects the rest of the batch; state side effects that
    /// already happened stay. Some of a failed packet's deliveries may
    /// already sit in egress queues, and nothing retracts them — an egress
    /// queue is a wire, not a buffer the driver owns.
    ///
    /// Batching widens the window between a packet's epoch stamp and the
    /// first lookup of that epoch's view at a later hop: a packet whose
    /// batch drains across more than [`crate::agent::EPOCH_HISTORY`] commits
    /// can find its epoch pruned from the ring and fail with
    /// [`InjectError::EpochUnavailable`], where a solo injection
    /// (stamp-to-resolve window of one flight) would have completed. Batch
    /// size therefore trades throughput against commit-rate tolerance;
    /// callers racing a fast controller should use smaller batches or retry
    /// pruned packets (re-injection re-stamps against the fresh epoch).
    ///
    /// Batch entries may be owned packets or references — a batch of one
    /// borrowed packet clones it exactly once, into its in-flight copy.
    pub fn inject_batch<P: std::borrow::Borrow<Packet>>(
        &self,
        batch: &[(PortId, P)],
    ) -> Vec<Result<InjectOutcome, InjectError>> {
        let start = self.metrics().map(|_| std::time::Instant::now());
        let mut tally = BatchTally::default();
        // One countdown reservation covers the whole batch: `samples` holds
        // the (ascending) admitted-packet offsets to trace, almost always
        // none. Offsets index *admitted* packets, so a rejected port never
        // shifts which packet a trace follows mid-batch.
        let samples = match self.metrics() {
            Some(m) => m.telemetry().tracer().sample_offsets(batch.len() as u64),
            None => Vec::new(),
        };
        let mut next_sample = samples.iter().copied().peekable();
        let mut results: Outcomes = Vec::with_capacity(batch.len());
        // Pinned views live here, for this batch only; the table that
        // indexes them is recycled through the scratch below.
        let arena = PinArena::new();
        // Wave scheduling: each wave distributes the in-flight packets into
        // per-switch buckets (a stable one-move-per-flight bucket sort —
        // arrival order within a switch is preserved, and nothing as large
        // as a `Tagged` is ever swapped around by a comparison sort) and
        // processes each non-empty bucket as one group. Flights forwarded
        // during a wave join the next one. All the flight buffers live in
        // the thread-local scratch and persist across batches, so a
        // warmed-up worker runs the whole wave loop without allocating.
        WAVE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let WaveScratch {
                pending,
                buckets,
                next,
                cohort,
                switches: table,
            } = scratch;
            pending.clear();
            next.clear();
            let switches = self.topology.num_nodes();
            if buckets.len() < switches {
                buckets.resize_with(switches, Vec::new);
            }
            table.reset(switches);
            let mut pins = Pins {
                network: self,
                table,
                arena: &arena,
            };
            for (origin, (port, packet)) in batch.iter().enumerate() {
                let Some(ingress) = self.topology.port_switch(*port) else {
                    results.push(Err(SimError::UnknownPort(*port).into()));
                    continue;
                };
                let (epoch, root) = match pins.ingress(ingress) {
                    Ok(stamp) => stamp,
                    Err(e) => {
                        results.push(Err(e));
                        continue;
                    }
                };
                results.push(Ok(InjectOutcome {
                    epoch,
                    delivered: Vec::new(),
                    backpressure_drops: 0,
                }));
                let trace = match self.metrics() {
                    Some(m) => {
                        let admitted = tally.packets;
                        tally.packets += 1;
                        pins.table.slot(ingress).ingress += 1;
                        if next_sample.next_if_eq(&admitted).is_some() {
                            Some(Box::new(m.telemetry().tracer().start(port.0, epoch)))
                        } else {
                            None
                        }
                    }
                    None => None,
                };
                pending.push(Tagged {
                    flight: InFlight::ingress(packet.borrow().clone(), *port, ingress, root),
                    origin,
                    epoch,
                    trace,
                });
            }
            while !pending.is_empty() {
                for tagged in pending.drain(..) {
                    buckets[tagged.flight.at.0].push(tagged);
                }
                for (switch, bucket) in buckets.iter_mut().enumerate().take(switches) {
                    if bucket.is_empty() {
                        continue;
                    }
                    let mut group = std::mem::take(bucket);
                    self.run_group(
                        &mut pins,
                        SwitchId(switch),
                        &mut group,
                        next,
                        &mut results,
                        cohort,
                        &mut tally,
                    );
                    *bucket = group; // keep the bucket's capacity warm
                }
                std::mem::swap(pending, next);
            }
            if let Some(m) = self.metrics() {
                pins.table.flush_tally(m);
            }
        });
        if let (Some(m), Some(t0)) = (self.metrics(), start) {
            m.batch_ns.record(t0.elapsed().as_nanos() as u64);
            tally.flush(m);
            let errors = results.iter().filter(|r| r.is_err()).count();
            if errors > 0 {
                m.errors.add(errors as u64);
            }
        }
        results
    }

    /// Drain one switch's group: every flight currently at `switch`, plus
    /// any copies forked while draining, executes one visit at a time
    /// against the batch's pinned views. Forwarded flights land in `next`
    /// (the following wave); failures land in `results`.
    #[allow(clippy::too_many_arguments)]
    fn run_group<'b>(
        &self,
        pins: &mut Pins<'_, 'b>,
        switch: SwitchId,
        group: &mut Vec<Tagged>,
        next: &mut Vec<Tagged>,
        results: &mut Outcomes,
        scratch: &mut CohortScratch,
        tally: &mut BatchTally,
    ) {
        let store = self.agent(switch).map(|a| a.store());
        // Phase one, lock-free: advance every flight's stateless prefix
        // through the view's program, a dispatch stage at a time across the
        // whole group. Only survivors still need the store below.
        self.wave_prefix(pins, switch, group, results, scratch, tally);
        // Phase two, locked: drain the group in place, a visit at a time.
        // Flights are taken out of their slot (an inert placeholder stays
        // behind) so forked copies can be appended while the walk is live.
        let (mut visits, mut writes) = (0u64, 0u64);
        let mut idx = 0;
        while idx < group.len() {
            let mut tagged = std::mem::take(&mut group[idx]);
            idx += 1;
            if results[tagged.origin].is_err() {
                continue; // a sibling copy already failed this packet
            }
            if tagged.flight.hops > self.hop_budget {
                results[tagged.origin] = Err(SimError::HopBudgetExceeded.into());
                continue;
            }
            visits += 1;
            let view = match pins.pin(switch, tagged.epoch) {
                Ok(slot) => pins.view(slot),
                Err(e) => {
                    results[tagged.origin] = Err(e);
                    continue;
                }
            };
            // A sampled packet opens a hop record for this visit; the step
            // below fills in the state variables it touches, and the
            // dispatch arms stamp the outcome.
            if let Some(trace) = tagged.trace.as_deref_mut() {
                trace.hops.push(HopRecord::begin(
                    switch.0,
                    self.topology.node_name(switch),
                    tagged.epoch,
                    progress_tag(&tagged.flight.progress),
                ));
            }
            let step = match process_at_switch(
                &view.bindings,
                &view.flat,
                store,
                &mut tagged.flight,
                tagged.trace.as_deref_mut().and_then(|t| t.hops.last_mut()),
                &mut writes,
            ) {
                Ok(step) => step,
                Err(e) => {
                    note_outcome(&mut tagged, || "error".to_string());
                    results[tagged.origin] = Err(e.into());
                    continue;
                }
            };
            match step {
                StepOutcome::Emit(outport) => {
                    note_outcome(&mut tagged, || format!("emit:port{}", outport.0));
                    let at = if view.serves_port(outport) {
                        Ok(switch)
                    } else {
                        // Pure forwarding from here to the delivery switch:
                        // resolve the delivery in place instead of paying
                        // another wave for a hop that can only emit.
                        self.forward_to_egress(pins, &mut tagged, outport)
                    };
                    match at {
                        Ok(at) => {
                            let result = &mut results[tagged.origin];
                            self.deliver(result, &mut tagged, at, outport, tally);
                        }
                        Err(e) => results[tagged.origin] = Err(e),
                    }
                }
                StepOutcome::Dropped => {
                    note_outcome(&mut tagged, || "drop".to_string());
                    if let Some(m) = self.metrics() {
                        tally.policy_drops += 1;
                        if let Some(mut trace) = tagged.trace.take() {
                            trace.dropped = true;
                            m.telemetry().tracer().finish(*trace);
                        }
                    }
                }
                StepOutcome::NeedState(slot) => {
                    // Off the fast path from here: the variable is named
                    // for a sampled trace and for errors only.
                    let var = view.flat.var_name(slot);
                    note_outcome(&mut tagged, || format!("need-state:{var}"));
                    let owner = match view.bindings[slot.index()] {
                        SlotBinding::Remote(owner) if owner != switch => owner,
                        // The view's placement names this switch while its
                        // ownership does not; forwarding "towards" the owner
                        // would spin in place forever.
                        SlotBinding::Remote(_) | SlotBinding::Local(_) => {
                            results[tagged.origin] = Err(misplaced_state_error(var).into());
                            continue;
                        }
                        SlotBinding::Unplaced => {
                            results[tagged.origin] = Err(missing_placement_error(var).into());
                            continue;
                        }
                    };
                    // The packet can only be forwarded until it reaches the
                    // owner, so jump there in one step (full hop count
                    // charged) instead of re-entering the wave loop per hop.
                    match self.next_hops.jump_towards(&mut tagged.flight, owner) {
                        Ok(()) => next.push(tagged),
                        Err(e) => results[tagged.origin] = Err(e.into()),
                    }
                }
                StepOutcome::Fork(children) => {
                    note_outcome(&mut tagged, || format!("fork:{}", children.len()));
                    // The trace follows the first forked copy only.
                    let mut trace = tagged.trace.take();
                    for flight in children {
                        group.push(Tagged {
                            flight,
                            origin: tagged.origin,
                            epoch: tagged.epoch,
                            trace: trace.take(),
                        });
                    }
                }
            }
        }
        group.clear();
        if self.metrics().is_some() {
            let slot = pins.table.slot(switch);
            slot.hops += visits;
            slot.state_writes += writes;
        }
    }

    /// Deliver a finished flight at `port` of switch `at`, with every field
    /// the policy left on it (as `snap_lang::eval` does): into the owning
    /// agent's egress queue — a full queue tail-drops it, counted on the
    /// packet's outcome — and onto that outcome. Then account the delivery:
    /// the batch tally, and — for a sampled packet — the finished trace. The
    /// flight ends here, so its packet is taken, not cloned.
    fn deliver(
        &self,
        result: &mut Result<InjectOutcome, InjectError>,
        tagged: &mut Tagged,
        at: SwitchId,
        port: PortId,
        tally: &mut BatchTally,
    ) {
        let pkt = std::mem::take(&mut tagged.flight.pkt);
        if let Ok(outcome) = result {
            if let Some(agent) = self.agent(at) {
                if !agent.egress().push(port, pkt.clone(), tagged.epoch) {
                    outcome.backpressure_drops += 1;
                }
            }
            outcome.delivered.push((port, pkt));
        }
        let Some(m) = self.metrics() else {
            return;
        };
        tally.deliveries += 1;
        tally.delivery_hops.record(tagged.flight.hops as u64);
        if let Some(mut trace) = tagged.trace.take() {
            trace.egress = Some((at.0, port.0));
            m.telemetry().tracer().finish(*trace);
        }
    }

    /// The wave-prefix pass of one group: before any store access, advance
    /// the *stateless prefix* of every resumable flight through the view's
    /// program, and park each flight at its first state test or at a leaf.
    ///
    /// Flights parked at the same node under the same view form a cohort,
    /// and cohorts step together: one dispatch stage (or stateless branch)
    /// is resolved against every member's field column before any member
    /// moves on — a table-dispatch loop per stage over the wave, keeping
    /// the stage's lookup structure hot instead of re-walking the diagram
    /// per packet. Successor nodes strictly decrease in the flat numbering,
    /// so the cohort work-list terminates.
    ///
    /// The pass is infallible per flight (field tests cannot error and no
    /// store is touched) and never passes a state test, so it is safe to
    /// run before any visit takes the store lock: packets whose stateless
    /// prefix ends in a drop or a stateless emit never contend for it at
    /// all. Survivor counts land on this instance's
    /// `driver.wave_prefix.*` counters ([`PlaneTelemetry`]).
    fn wave_prefix(
        &self,
        pins: &mut Pins<'_, '_>,
        switch: SwitchId,
        group: &mut [Tagged],
        results: &mut Outcomes,
        scratch: &mut CohortScratch,
        tally: &mut BatchTally,
    ) {
        // Seed cohorts, keyed by (pinned view, node): every member is about
        // to execute the same dispatch step. Member lists are recycled
        // through the scratch pool, so a warmed-up driver forms cohorts
        // without allocating.
        let cohorts = &mut scratch.cohorts;
        debug_assert!(cohorts.is_empty());
        let mut packets = 0u64;
        for (gi, tagged) in group.iter().enumerate() {
            if results[tagged.origin].is_err() || tagged.flight.hops > self.hop_budget {
                continue;
            }
            let Progress::AtNode(node) = tagged.flight.progress else {
                continue;
            };
            if node.is_leaf() {
                continue;
            }
            let view_idx = match pins.pin(switch, tagged.epoch) {
                Ok(slot) => slot,
                Err(e) => {
                    results[tagged.origin] = Err(e);
                    continue;
                }
            };
            packets += 1;
            match cohorts
                .iter_mut()
                .find(|(v, n, _)| *v == view_idx && *n == node)
            {
                Some((_, _, members)) => members.push(gi),
                None => {
                    let mut members = scratch.spare.pop().unwrap_or_default();
                    members.push(gi);
                    cohorts.push((view_idx, node, members));
                }
            }
        }
        let mut survivors = 0u64;
        while let Some((view_idx, node, mut members)) = cohorts.pop() {
            let flat = &pins.view(view_idx).flat;
            for gi in members.drain(..) {
                let flight = &mut group[gi].flight;
                match flat.step_stateless(node, &flight.pkt) {
                    None => {
                        // A state test: the stateless prefix ends here and
                        // the flight pays the locked phase.
                        flight.progress = Progress::AtNode(node);
                        survivors += 1;
                    }
                    Some(next) if next.is_leaf() => {
                        flight.progress = Progress::AtNode(next);
                        if flat.leaf(next).writes_state() {
                            survivors += 1;
                        }
                    }
                    Some(next) => {
                        flight.progress = Progress::AtNode(next);
                        match cohorts
                            .iter_mut()
                            .find(|(v, n, _)| *v == view_idx && *n == next)
                        {
                            Some((_, _, members)) => members.push(gi),
                            None => {
                                let mut fresh = scratch.spare.pop().unwrap_or_default();
                                fresh.push(gi);
                                cohorts.push((view_idx, next, fresh));
                            }
                        }
                    }
                }
            }
            scratch.spare.push(members);
        }
        if packets > 0 && self.metrics().is_some() {
            tally.wave_prefix_packets += packets;
            tally.wave_prefix_survivors += survivors;
        }
    }

    /// Carry an emitted flight whose egress port lives on another switch to
    /// that switch: jump the pure-forwarding remainder of its path in one
    /// step and return the switch to deliver at, after the same checks the
    /// packet would have met had it re-entered the wave loop there (hop
    /// budget after the jump, a view that actually serves the port) —
    /// collapsed into its emitting wave.
    fn forward_to_egress(
        &self,
        pins: &mut Pins<'_, '_>,
        tagged: &mut Tagged,
        port: PortId,
    ) -> Result<SwitchId, InjectError> {
        let bad_port = || SimError::BadOutPort(Value::Int(port.0 as i64));
        let target = self.topology.port_switch(port).ok_or_else(bad_port)?;
        if target == tagged.flight.at {
            // The port is attached right here, yet this switch's view does
            // not serve it (misconfiguration): forwarding "towards" it
            // would spin in place forever.
            return Err(bad_port().into());
        }
        self.next_hops.jump_towards(&mut tagged.flight, target)?;
        if tagged.flight.hops > self.hop_budget {
            return Err(SimError::HopBudgetExceeded.into());
        }
        let slot = pins.pin(target, tagged.epoch)?;
        if !pins.view(slot).serves_port(port) {
            return Err(bad_port().into());
        }
        Ok(target)
    }

    /// This network's telemetry bundle, if it records.
    #[inline]
    fn metrics(&self) -> Option<&PlaneTelemetry> {
        self.telemetry.as_deref()
    }
}
