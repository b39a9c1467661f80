//! The metric primitives and the per-instance registry.
//!
//! Every primitive here follows the same **per-worker-shard aggregation
//! contract** (see the crate docs): writes go to a shard owned (in the
//! common case exclusively) by the writing thread with one relaxed atomic
//! RMW and no locks, and the shards are only summed when somebody *reads*
//! the metric — `get()`, a family total, or a [`Registry::snapshot`].
//! Reads are therefore linear in the shard count and may race with
//! concurrent writers: a snapshot is a consistent-enough sum (every write
//! that happened-before the read is included; in-flight writes may or may
//! not be), and once writers quiesce the sum is exact.

use crate::json::{self, JsonMap};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of write shards per sharded metric. Threads are assigned shards
/// round-robin on first use; with at most this many concurrently writing
/// threads every writer owns its shard exclusively, and beyond that the
/// contention degrades gracefully instead of failing.
pub const SHARDS: usize = 16;

/// Round-robin assignment of write shards to threads: a thread picks its
/// shard on its first metric write and keeps it for its lifetime, so every
/// subsequent write is a relaxed RMW on a line no other (recent) thread
/// touches.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|cell| {
        let mut s = cell.get();
        if s == usize::MAX {
            s = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            cell.set(s);
        }
        s
    })
}

/// One cache-line-sized counter shard, padded so two shards never share a
/// line (the whole point of sharding).
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// A monotone, sharded counter. Cloning clones the handle, not the value:
/// every clone writes into the same shards.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[Shard; SHARDS]>,
}

impl Counter {
    /// A fresh counter at zero, unregistered. Registered counters come from
    /// [`Registry::counter`].
    pub fn new() -> Counter {
        Counter {
            shards: Arc::new(std::array::from_fn(|_| Shard::default())),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to the calling thread's shard — one relaxed RMW, no locks.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum the shards. Exact once writers quiesce; during concurrent writes
    /// the sum includes every write that happened-before the read.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A point-in-time value (queue depth, epoch, program size). Gauges are
/// written rarely and read rarely, so a single atomic cell is enough — no
/// shards.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by a delta.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets per histogram: bucket 0 holds exact zeros and
/// bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`, so the full `u64` range
/// is covered.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// One histogram shard: the bucket counts plus the running sum and max,
/// padded to its own cache lines like a counter shard.
#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistShard {
    fn default() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The log₂ bucket a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A sharded log-scale (log₂-bucketed) histogram for latency and occupancy
/// style measurements. Recording is three relaxed RMWs on the calling
/// thread's shard; reading merges the shards into a
/// [`HistogramSnapshot`].
#[derive(Clone)]
pub struct Histogram {
    shards: Arc<[HistShard; SHARDS]>,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            shards: Arc::new(std::array::from_fn(|_| HistShard::default())),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Flush a locally accumulated buffer into the calling thread's shard:
    /// one relaxed RMW per non-empty bucket plus sum and max, however many
    /// observations the buffer holds. See [`LocalHistogram`].
    pub fn merge(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        let shard = &self.shards[shard_index()];
        for (b, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                shard.buckets[b].fetch_add(c, Ordering::Relaxed);
            }
        }
        shard.sum.fetch_add(local.sum, Ordering::Relaxed);
        shard.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// Merge the shards into a readable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            for (b, cell) in shard.buckets.iter().enumerate() {
                buckets[b] += cell.load(Ordering::Relaxed);
            }
            sum += shard.sum.load(Ordering::Relaxed);
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        let buckets = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let lower = if b == 0 { 0 } else { 1u64 << (b - 1) };
                (lower, c)
            })
            .collect();
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A plain, single-owner accumulation buffer for a [`Histogram`]. Hot
/// loops record into it with ordinary arithmetic (no atomics, no
/// thread-local lookup) and flush once per batch via [`Histogram::merge`],
/// paying the sharded RMWs per *batch* instead of per observation. The
/// aggregation contract is unchanged: the flush lands in the flushing
/// thread's shard, and reads sum the shards as always.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
    max: u64,
    count: u64,
}

impl LocalHistogram {
    /// A fresh, empty buffer.
    pub fn new() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
            count: 0,
        }
    }

    /// Record one observation — three plain integer ops.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
    }

    /// Number of buffered observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded since the last [`clear`].
    ///
    /// [`clear`]: LocalHistogram::clear
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Reset the buffer for reuse after a merge.
    pub fn clear(&mut self) {
        *self = LocalHistogram::new();
    }
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

/// A merged, read-side view of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (wrapping is the caller's problem at
    /// `u64` scale).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty log₂ buckets as `(lower_bound, count)`: bucket 0 is the
    /// exact-zero bucket, bucket with lower bound `2^k` counts values in
    /// `[2^k, 2^(k+1))`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the log₂ bucket holding the target rank. The estimate is
    /// bounded by the bucket's range — at most a factor of 2 off — and is
    /// clamped to the observed `max`, so the tail quantiles of a
    /// single-bucket distribution stay honest. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation (1-based, clamped into range).
        let rank = (q * self.count as f64).max(1.0).min(self.count as f64);
        let mut below = 0u64;
        for &(lower, count) in &self.buckets {
            let upto = below + count;
            if (upto as f64) >= rank {
                if lower == 0 {
                    return 0.0;
                }
                // Interpolate within [lower, 2*lower), assuming observations
                // spread uniformly across the bucket.
                let into = (rank - below as f64) / count as f64;
                let est = lower as f64 * (1.0 + into);
                return est.min(self.max as f64);
            }
            below = upto;
        }
        self.max as f64
    }

    /// The (p50, p90, p99) percentile estimates — what
    /// [`MetricsSnapshot::to_json`] exports per histogram.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
        )
    }

    /// The interval histogram between `prev` (an earlier snapshot of the
    /// same histogram) and `self`: bucket-wise saturating difference of
    /// counts and sum. `max` cannot be diffed from log₂ buckets, so the
    /// delta keeps the running (lifetime) max — an over-estimate for the
    /// interval, documented rather than hidden.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let prev_by_lower: BTreeMap<u64, u64> = prev.buckets.iter().copied().collect();
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .map(|&(lower, count)| {
                (
                    lower,
                    count.saturating_sub(prev_by_lower.get(&lower).copied().unwrap_or(0)),
                )
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, c)| c).sum(),
            sum: self.sum.saturating_sub(prev.sum),
            max: self.max,
            buckets,
        }
    }
}

/// A dense family of counters sharing one name, indexed by a small integer
/// (switch id, port id) with a human label per index. The per-index
/// counters are sharded exactly like [`Counter`]; use it when the hot path
/// already has a dense index and a `BTreeMap` lookup per packet would be
/// absurd.
#[derive(Clone)]
pub struct CounterFamily {
    inner: Arc<FamilyInner>,
}

struct FamilyInner {
    labels: Vec<String>,
    /// `SHARDS` rows of `labels.len()` cells each. Rows of different shards
    /// are separate allocations, so two threads on different shards never
    /// share a line even for neighbouring indices.
    rows: Vec<Box<[AtomicU64]>>,
}

impl CounterFamily {
    /// A family with one counter per label, all zero.
    pub fn new(labels: Vec<String>) -> CounterFamily {
        let len = labels.len();
        let rows = (0..SHARDS)
            .map(|_| (0..len).map(|_| AtomicU64::new(0)).collect())
            .collect();
        CounterFamily {
            inner: Arc::new(FamilyInner { labels, rows }),
        }
    }

    /// Number of indexed counters.
    pub fn len(&self) -> usize {
        self.inner.labels.len()
    }

    /// Is the family empty?
    pub fn is_empty(&self) -> bool {
        self.inner.labels.is_empty()
    }

    /// The label of index `idx`.
    pub fn label(&self, idx: usize) -> &str {
        &self.inner.labels[idx]
    }

    /// Add one at `idx`.
    #[inline]
    pub fn inc(&self, idx: usize) {
        self.add(idx, 1);
    }

    /// Add `n` at `idx` — one relaxed RMW on the calling thread's shard
    /// row. Out-of-range indices are ignored (a family sized off a topology
    /// can never be behind, but defensive beats a hot-path panic).
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        if let Some(cell) = self.inner.rows[shard_index()].get(idx) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum the shards of index `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.inner
            .rows
            .iter()
            .map(|row| row.get(idx).map_or(0, |c| c.load(Ordering::Relaxed)))
            .sum()
    }

    /// Every `(label, value)` pair, in index order.
    pub fn values(&self) -> Vec<(String, u64)> {
        (0..self.len())
            .map(|i| (self.inner.labels[i].clone(), self.get(i)))
            .collect()
    }

    /// Sum over all indices.
    pub fn total(&self) -> u64 {
        (0..self.len()).map(|i| self.get(i)).sum()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    families: Mutex<BTreeMap<String, CounterFamily>>,
}

/// A per-instance registry of named metrics.
///
/// Registration (`counter("driver.packets")`) is get-or-create under a
/// short lock and returns a cheap cloneable handle; hot paths register
/// once at construction time and then write through the handle without
/// ever touching the registry again. Cloning the registry clones the
/// handle — two clones see the same metrics.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .counters
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the counter family named `name`. If the family already
    /// exists it is returned as-is (its labels win); otherwise it is
    /// created with `labels`.
    pub fn counter_family(&self, name: &str, labels: &[String]) -> CounterFamily {
        self.inner
            .families
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| CounterFamily::new(labels.to_vec()))
            .clone()
    }

    /// Read every registered metric into a [`MetricsSnapshot`] (with empty
    /// trace and event sections — [`crate::Telemetry::snapshot`] fills
    /// those).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            families: self
                .inner
                .families
                .lock()
                .iter()
                .map(|(k, f)| (k.clone(), f.values()))
                .collect(),
            traces: Vec::new(),
            events: Vec::new(),
            taken_at: Some(std::time::Instant::now()),
        }
    }
}

/// A point-in-time, owned view of everything a [`crate::Telemetry`]
/// instance knows: metric values, sampled packet traces and the commit
/// event log. Plane-level helpers may append computed entries (egress
/// queue stats, program shape gauges) before export — the fields are
/// public precisely so a snapshot can be *enriched* after the registry
/// read.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Counter families by name, each a `(label, value)` list in index
    /// order.
    pub families: BTreeMap<String, Vec<(String, u64)>>,
    /// Sampled packet traces, oldest first.
    pub traces: Vec<crate::PacketTrace>,
    /// Distribution-plane commit events, in record order.
    pub events: Vec<crate::EventRecord>,
    /// When the registry was read, so [`MetricsSnapshot::delta`] can derive
    /// per-second rates. `None` for hand-built snapshots.
    pub taken_at: Option<std::time::Instant>,
}

impl MetricsSnapshot {
    /// Write the snapshot as a self-contained JSON document (the
    /// machine-readable `BENCH_*`-style telemetry file).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let mut top = JsonMap::new(&mut out, 1);
        top.key("counters");
        json::write_u64_map(top.out(), &self.counters, 2);
        top.key("gauges");
        json::write_i64_map(top.out(), &self.gauges, 2);
        top.key("histograms");
        {
            let out = top.out();
            out.push_str("{\n");
            let mut map = JsonMap::new(out, 2);
            for (name, h) in &self.histograms {
                map.key(name);
                let out = map.out();
                let (p50, p90, p99) = h.percentiles();
                let _ = write!(
                    out,
                    "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"buckets\": [",
                    h.count,
                    h.sum,
                    h.max,
                    h.mean(),
                    p50,
                    p90,
                    p99
                );
                for (i, (lower, count)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{lower}, {count}]");
                }
                out.push_str("]}");
            }
            map.finish("}");
        }
        top.key("families");
        {
            let out = top.out();
            out.push_str("{\n");
            let mut map = JsonMap::new(out, 2);
            for (name, entries) in &self.families {
                map.key(name);
                json::write_u64_pairs(map.out(), entries, 3);
            }
            map.finish("}");
        }
        top.key("traces");
        {
            let out = top.out();
            out.push('[');
            for (i, t) in self.traces.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                t.write_json(out);
            }
            if !self.traces.is_empty() {
                out.push_str("\n  ");
            }
            out.push(']');
        }
        top.key("events");
        {
            let out = top.out();
            out.push('[');
            for (i, e) in self.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                e.write_json(out);
            }
            if !self.events.is_empty() {
                out.push_str("\n  ");
            }
            out.push(']');
        }
        top.finish("}");
        out.push('\n');
        out
    }

    /// A human-readable multi-line rendering (what `telemetry_tour`
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== counters ==");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<40} {v}");
        }
        let _ = writeln!(out, "== gauges ==");
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<40} {v}");
        }
        let _ = writeln!(out, "== histograms ==");
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<40} count={} mean={:.1} p50={:.0} p90={:.0} p99={:.0} max={}",
                h.count,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max
            );
        }
        let _ = writeln!(out, "== families ==");
        for (name, entries) in &self.families {
            let _ = writeln!(out, "  {name}:");
            for (label, v) in entries {
                if *v > 0 {
                    let _ = writeln!(out, "    {label:<38} {v}");
                }
            }
        }
        let _ = writeln!(
            out,
            "== traces == ({} sampled, showing ring)",
            self.traces.len()
        );
        for t in &self.traces {
            let _ = writeln!(out, "{}", t.render());
        }
        let _ = writeln!(out, "== events == ({} recorded)", self.events.len());
        for e in &self.events {
            let _ = writeln!(out, "  {}", e.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads_exactly() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.max, 1024);
        // 0 → zero bucket; 1 → [1,2); 2,3 → [2,4); 1024 → [1024,2048).
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    fn families_index_and_total() {
        let f = CounterFamily::new(vec!["a".into(), "b".into()]);
        f.add(0, 3);
        f.inc(1);
        f.add(7, 100); // out of range: ignored
        assert_eq!(f.get(0), 3);
        assert_eq!(f.get(1), 1);
        assert_eq!(f.total(), 4);
        assert_eq!(f.values(), vec![("a".into(), 3), ("b".into(), 1)]);
    }

    #[test]
    fn registry_handles_are_shared_and_snapshot_reads_them() {
        let r = Registry::new();
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.inc();
        c2.inc();
        r.gauge("g").set(-5);
        r.histogram("h").record(7);
        let snap = r.snapshot();
        assert_eq!(snap.counters["x"], 2);
        assert_eq!(snap.gauges["g"], -5);
        assert_eq!(snap.histograms["h"].count, 1);
        // Two registry clones are the same registry.
        let r2 = r.clone();
        r2.counter("x").inc();
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let r = Registry::new();
        r.counter("a\"b").add(1);
        r.counter_family("fam", &["s\\1".into()]).inc(0);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"s\\\\1\": 1"));
        assert!(json.trim_end().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
