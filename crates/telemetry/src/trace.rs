//! Sampled end-to-end packet traces.
//!
//! Tracing every packet would dwarf the traffic being measured, so the
//! driver asks the [`TraceSampler`] at ingress whether *this* packet should
//! be traced — a 1-in-N decision made with a per-thread countdown (no
//! shared cacheline on the fast path; each worker samples its own 1-in-N
//! slice, and its very first packet, so short runs still produce a trace).
//! A sampled packet carries a [`PacketTrace`] through the driver, which
//! appends one [`HopRecord`] per switch visit (the §4.5 packet tag it
//! resumed at, the state variables tested and written, and how the visit
//! ended) and hands the finished trace back to the sampler's bounded ring,
//! oldest evicted first.

use crate::json;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One switch visit of a sampled packet.
#[derive(Clone, Debug)]
pub struct HopRecord {
    /// The switch (topology node index) the visit happened on.
    pub switch: usize,
    /// Its human name in the topology.
    pub switch_name: String,
    /// The configuration epoch the visit executed under.
    pub epoch: u64,
    /// The flat-program node the packet resumed at — the §4.5 packet
    /// tag, rendered (`b12` for a branch, `l3` for a leaf, `-` before the
    /// first program node).
    pub entry_node: String,
    /// State variables whose tests were evaluated at this switch.
    pub state_tests: Vec<String>,
    /// State variables written at this switch.
    pub state_writes: Vec<String>,
    /// How the visit ended: `emit:<port>`, `drop`, `need-state:<var>`,
    /// `fork:<n>`, `forward` or `error`.
    pub outcome: String,
}

impl HopRecord {
    /// A fresh record for a visit starting at `entry_node`.
    pub fn begin(switch: usize, switch_name: &str, epoch: u64, entry_node: String) -> HopRecord {
        HopRecord {
            switch,
            switch_name: switch_name.to_string(),
            epoch,
            entry_node,
            state_tests: Vec::new(),
            state_writes: Vec::new(),
            outcome: String::new(),
        }
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"switch\": ");
        let _ = write!(out, "{}", self.switch);
        out.push_str(", \"name\": ");
        json::write_str(out, &self.switch_name);
        let _ = write!(out, ", \"epoch\": {}, \"entry_node\": ", self.epoch);
        json::write_str(out, &self.entry_node);
        out.push_str(", \"state_tests\": ");
        json::write_str_array(out, &self.state_tests);
        out.push_str(", \"state_writes\": ");
        json::write_str_array(out, &self.state_writes);
        out.push_str(", \"outcome\": ");
        json::write_str(out, &self.outcome);
        out.push('}');
    }
}

/// A full end-to-end trace of one sampled packet.
#[derive(Clone, Debug)]
pub struct PacketTrace {
    /// The OBS external port the packet entered at.
    pub inport: usize,
    /// The configuration epoch stamped at ingress.
    pub ingress_epoch: u64,
    /// One record per switch visit, in visit order. A forked packet's trace
    /// follows its first copy only.
    pub hops: Vec<HopRecord>,
    /// Where the packet left the network, as `(switch, port)` — `None` for
    /// a drop or an error.
    pub egress: Option<(usize, usize)>,
    /// Was the packet dropped by the policy?
    pub dropped: bool,
}

impl PacketTrace {
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"inport\": {}, \"ingress_epoch\": {}, \"dropped\": {}, \"egress\": ",
            self.inport, self.ingress_epoch, self.dropped
        );
        match self.egress {
            Some((sw, port)) => {
                let _ = write!(out, "[{sw}, {port}]");
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"hops\": [");
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            h.write_json(out);
        }
        out.push_str("]}");
    }

    /// A human-readable multi-line rendering of the trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "  packet in@port{} epoch {}:",
            self.inport, self.ingress_epoch
        );
        for h in &self.hops {
            let _ = write!(out, "\n    {} [{}]", h.switch_name, h.entry_node);
            if !h.state_tests.is_empty() {
                let _ = write!(out, " tests={}", h.state_tests.join(","));
            }
            if !h.state_writes.is_empty() {
                let _ = write!(out, " writes={}", h.state_writes.join(","));
            }
            let _ = write!(out, " -> {}", h.outcome);
        }
        match self.egress {
            Some((_, port)) => {
                let _ = write!(out, "\n    delivered at port{port}");
            }
            None if self.dropped => {
                let _ = write!(out, "\n    dropped by policy");
            }
            None => {
                let _ = write!(out, "\n    no egress");
            }
        }
        out
    }
}

/// The 1-in-N packet-trace sampler and its bounded trace ring.
pub struct TraceSampler {
    /// Process-unique sampler id, so the per-thread countdowns of two
    /// samplers (two planes in one test process, say) never
    /// contaminate each other.
    id: u64,
    /// Sample every Nth packet per worker thread; 0 disables sampling.
    every: AtomicU64,
    ring: Mutex<VecDeque<PacketTrace>>,
    capacity: usize,
    sampled: AtomicU64,
    dropped: AtomicU64,
}

/// Default sampling period: 1 trace per 1024 packets per worker.
pub const DEFAULT_TRACE_EVERY: u64 = 1024;

/// Default trace-ring capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 32;

impl TraceSampler {
    /// A sampler tracing one in `every` packets (0 disables) into a ring of
    /// at most `capacity` finished traces.
    pub fn new(every: u64, capacity: usize) -> TraceSampler {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        TraceSampler {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            every: AtomicU64::new(every),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            sampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Change the sampling period (0 disables). Takes effect as worker
    /// threads' countdowns next reload.
    pub fn set_every(&self, every: u64) {
        self.every.store(every, Ordering::Relaxed);
    }

    /// The current sampling period.
    pub fn every(&self) -> u64 {
        self.every.load(Ordering::Relaxed)
    }

    /// Decide whether the packet entering at `inport` under `epoch` should
    /// be traced, and if so start its trace. The decision costs one
    /// thread-local countdown on the fast path; each worker thread samples
    /// its first packet and then one in every N.
    #[inline]
    pub fn maybe_start(&self, inport: usize, epoch: u64) -> Option<PacketTrace> {
        if self.sample_offsets(1).is_empty() {
            return None;
        }
        Some(self.start(inport, epoch))
    }

    /// Make the sampling decisions for a whole window of `n` packets with a
    /// single thread-local countdown access: the returned (ascending,
    /// zero-based) offsets within the window are the packets to trace —
    /// usually none, so batched callers pay one countdown per *batch*
    /// instead of per packet. Start the chosen packets' traces with
    /// [`TraceSampler::start`].
    pub fn sample_offsets(&self, window: u64) -> Vec<u64> {
        let every = self.every.load(Ordering::Relaxed);
        if every == 0 || window == 0 {
            return Vec::new();
        }
        thread_local! {
            // Per (thread, sampler) countdowns; the handful of live
            // samplers keeps the scan a few entries long.
            static COUNTDOWNS: std::cell::RefCell<Vec<(u64, u64)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        COUNTDOWNS.with(|cell| {
            let counts = &mut *cell.borrow_mut();
            let entry = match counts.iter_mut().find(|(id, _)| *id == self.id) {
                Some(entry) => entry,
                None => {
                    counts.push((self.id, 0));
                    counts.last_mut().expect("just pushed")
                }
            };
            if entry.1 >= window {
                entry.1 -= window;
                return Vec::new();
            }
            let mut out = Vec::new();
            let mut offset = entry.1;
            while offset < window {
                out.push(offset);
                offset += every;
            }
            entry.1 = offset - window;
            out
        })
    }

    /// Start a trace for a packet already chosen by [`sample_offsets`].
    ///
    /// [`sample_offsets`]: TraceSampler::sample_offsets
    pub fn start(&self, inport: usize, epoch: u64) -> PacketTrace {
        PacketTrace {
            inport,
            ingress_epoch: epoch,
            hops: Vec::new(),
            egress: None,
            dropped: false,
        }
    }

    /// Hand a finished trace back to the ring (oldest evicted when full).
    pub fn finish(&self, trace: PacketTrace) {
        self.sampled.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
    }

    /// Total traces ever finished (including those evicted from the ring).
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Traces evicted from the ring to make room for newer ones —
    /// `sampled() - dropped()` is the number currently retained (until the
    /// next eviction).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The ring's capacity: [`TraceSampler::traces`] never returns more
    /// than this many.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The traces currently in the ring, oldest first.
    pub fn traces(&self) -> Vec<PacketTrace> {
        self.ring.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_takes_first_then_every_nth() {
        let s = TraceSampler::new(4, 8);
        let taken: Vec<bool> = (0..9).map(|i| s.maybe_start(i, 0).is_some()).collect();
        assert_eq!(
            taken,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn zero_disables_and_ring_is_bounded() {
        let s = TraceSampler::new(0, 2);
        assert!(s.maybe_start(1, 0).is_none());
        s.set_every(1);
        for i in 0..5 {
            let t = s.maybe_start(i, 0).unwrap();
            s.finish(t);
        }
        assert_eq!(s.sampled(), 5);
        let traces = s.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].inport, 3); // oldest two evicted
        assert_eq!(traces[1].inport, 4);
    }
}
