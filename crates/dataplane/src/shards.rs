//! Key-range sharded state for one switch: `K` independently-locked
//! partitions ([`Shard`]) plus per-shard contention counters.
//!
//! One `Arc<Mutex<Store>>` per switch serializes every stateful packet from
//! every worker on one lock — on the campus workload all DNS-tunnel state
//! lands on one switch, so adding workers *loses* throughput. A
//! [`StateShards`] splits that switch's tables by index hash across `K`
//! shards: workers contend only when they hit the same key range, and the
//! per-shard counters (acquisitions / contended acquisitions) make the
//! remaining contention observable independent of the host's core count.
//!
//! ## Tables by id
//!
//! The packet path reaches a variable's table without its name. Each switch
//! keeps an append-only registry name → [`TableId`]
//! ([`StateShards::table_id`]); a plane asks it once per installed program,
//! when it binds the program's variable slots (`snap_xfdd::VarSlot`) to this
//! switch, and from then on a state access is `(table id, key)`: one
//! deterministic word-at-a-time hash of the key picks the shard
//! ([`StateShards::shard_of`] — the name is not hashed again), the shard
//! holds its tables in a `Vec` indexed by table id, and each table is a hash
//! table keyed by the evaluated index — one seeded hash, no tree walk, no
//! string compare. Keys are packet-derived, so the tables keep std's
//! randomly seeded hasher; only shard *routing* is a fixed function, because
//! every worker (and every run: the contention counters must repeat) has to
//! route a key alike, and it only ever chooses among `K` locks. An id is
//! never reused or retired: yielding a variable empties its tables and keeps
//! the id, so a view of an older epoch that still binds it stays meaningful,
//! and a later re-install lands under the same id.
//!
//! Ids are private to one switch's `StateShards` — two switches number the
//! same variable differently. [`snap_lang::Store`] / [`StateTable`] remain
//! the specification's store and the exchange format: everything that
//! crosses a switch boundary (`aggregate_store`, migration, `InstallTable`,
//! commit yields) goes through the by-name operations below, which convert
//! at the boundary.
//!
//! ## Exactness contract
//!
//! A variable's table is the *disjoint union* of its per-shard partials:
//! every key routes to exactly one shard ([`StateShards::shard_of`] is a
//! deterministic hash), so unioning the partials reconstructs the table
//! bit-identically — `aggregate_store` and the agents' table yield at
//! commit both go through [`StateShards::collect_table`] /
//! [`StateShards::remove_var`] and see exactly what a single authoritative
//! table would hold. Installing a table ([`StateShards::insert_table`])
//! writes the table *skeleton* (no entries, the table's default) into
//! **every** shard so a read of an absent key returns the correct default no
//! matter which shard the key routes to. A variable nothing installed reads
//! `0` everywhere and gets a `0`-default partial in the shard of its first
//! write — the behaviour of [`snap_lang::Store`], kept entry for entry.
//!
//! Counted locking ([`StateShards::lock_shard_counted`]) is for the packet
//! path only; control-plane operations use plain uncounted locks so the
//! contention counters measure dataplane behaviour.

use parking_lot::{Mutex, MutexGuard};
use snap_lang::{StateTable, StateVar, Value};
use snap_xfdd::FxHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default shard count per switch. Eight shards keep the per-switch
/// footprint trivial while splitting a hot table's keys finely enough that
/// same-key collisions, not the lock itself, are the remaining contention.
pub const DEFAULT_STATE_SHARDS: usize = 8;

/// What an unwritten key of a variable nothing installed reads as — the
/// default of [`snap_lang::Store`].
static ZERO: Value = Value::Int(0);

/// One switch's handle on a state variable (see "Tables by id" in the module
/// docs): dense, append-only, meaningful only to the [`StateShards`] that
/// issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(u32);

impl TableId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The routing hash of `table[index]`: deterministic across workers, runs
/// and processes, a word per step.
fn key_hash(table: TableId, index: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(table.0);
    index.hash(&mut h);
    h.finish()
}

/// One variable's partial in one shard.
#[derive(Debug)]
struct ShardTable {
    entries: HashMap<Box<[Value]>, Value>,
    default: Value,
}

impl ShardTable {
    fn with_default(default: Value) -> ShardTable {
        ShardTable {
            entries: HashMap::new(),
            default,
        }
    }

    /// The partial as the exchange format.
    fn into_state_table(self) -> StateTable {
        let mut table = StateTable::with_default(self.default);
        for (index, value) in self.entries {
            table.set(index.into_vec(), value);
        }
        table
    }
}

/// One of a switch's key-range partitions: every variable's partial for the
/// keys routed here, indexed by [`TableId`]. Reached through a shard lock
/// ([`StateShards::lock_shard_counted`] on the packet path).
#[derive(Debug, Default)]
pub struct Shard {
    tables: Vec<Option<ShardTable>>,
}

impl Shard {
    fn table(&self, table: TableId) -> Option<&ShardTable> {
        self.tables.get(table.index())?.as_ref()
    }

    /// Where the partial of `table` goes (`None`: this shard has none).
    fn slot_mut(&mut self, table: TableId) -> &mut Option<ShardTable> {
        if self.tables.len() <= table.index() {
            self.tables.resize_with(table.index() + 1, || None);
        }
        &mut self.tables[table.index()]
    }

    /// The partial of `table`, created empty with default `0` on first
    /// touch.
    fn table_mut(&mut self, table: TableId) -> &mut ShardTable {
        self.slot_mut(table)
            .get_or_insert_with(|| ShardTable::with_default(ZERO.clone()))
    }

    /// Read `table[index]` by reference: the stored value, else the table's
    /// default, else `0`.
    #[inline]
    pub fn get(&self, table: TableId, index: &[Value]) -> &Value {
        match self.table(table) {
            Some(t) => t.entries.get(index).unwrap_or(&t.default),
            None => &ZERO,
        }
    }

    /// Write `table[index] ← value`. The index is cloned only when the
    /// entry does not exist yet, so overwrites (the steady state of a busy
    /// flag) never allocate.
    pub fn set_at(&mut self, table: TableId, index: &[Value], value: Value) {
        let entries = &mut self.table_mut(table).entries;
        match entries.get_mut(index) {
            Some(held) => *held = value,
            None => {
                entries.insert(index.into(), value);
            }
        }
    }

    /// Read-modify-write `table[index]`: `update` sees the current value
    /// (the default if never written) and produces the new one. An `Err`
    /// leaves the entry untouched. The index is cloned only on first write.
    pub fn update<E>(
        &mut self,
        table: TableId,
        index: &[Value],
        update: impl FnOnce(&Value) -> Result<Value, E>,
    ) -> Result<(), E> {
        let ShardTable { entries, default } = self.table_mut(table);
        match entries.get_mut(index) {
            Some(held) => *held = update(held)?,
            None => {
                entries.insert(index.into(), update(default)?);
            }
        }
        Ok(())
    }
}

/// The append-only name → [`TableId`] registry of one switch.
#[derive(Debug, Default)]
struct Registry {
    ids: BTreeMap<StateVar, TableId>,
    /// `names[id]`.
    names: Vec<StateVar>,
}

/// The sharded state of one switch (see the module docs).
#[derive(Debug)]
pub struct StateShards {
    /// Locked alone or before a shard, never while holding one; the packet
    /// path never takes it.
    registry: Mutex<Registry>,
    shards: Vec<Mutex<Shard>>,
    /// Packet-path lock acquisitions per shard (counted in
    /// [`StateShards::lock_shard_counted`], relaxed — summed on read).
    acquisitions: Vec<AtomicU64>,
    /// The subset of acquisitions that found the shard already locked.
    contended: Vec<AtomicU64>,
}

impl StateShards {
    /// `k` independently-locked, initially empty shards (`k` is clamped to
    /// at least 1).
    pub fn new(k: usize) -> StateShards {
        let k = k.max(1);
        StateShards {
            registry: Mutex::new(Registry::default()),
            shards: (0..k).map(|_| Mutex::new(Shard::default())).collect(),
            acquisitions: (0..k).map(|_| AtomicU64::new(0)).collect(),
            contended: (0..k).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// This switch's id for `var`, issued on first request and never
    /// changed. Planes call it when they bind a program's slots, not per
    /// packet.
    pub fn table_id(&self, var: &StateVar) -> TableId {
        let mut registry = self.registry.lock();
        if let Some(&id) = registry.ids.get(var) {
            return id;
        }
        let id = TableId(u32::try_from(registry.names.len()).expect("table ids fit u32"));
        registry.ids.insert(var.clone(), id);
        registry.names.push(var.clone());
        id
    }

    /// The id of `var` if one was ever issued (a variable without one has
    /// no table in any shard).
    fn known_id(&self, var: &StateVar) -> Option<TableId> {
        self.registry.lock().ids.get(var).copied()
    }

    /// The shard holding `table[index]`: a deterministic hash of the table
    /// id and the index values, so every worker routes a key identically.
    #[inline]
    pub fn shard_of(&self, table: TableId, index: &[Value]) -> usize {
        (key_hash(table, index) % self.shards.len() as u64) as usize
    }

    /// Packet-path lock: counts the acquisition, and whether it had to wait
    /// for another worker, into the shard's contention counters.
    pub fn lock_shard_counted(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.acquisitions[i].fetch_add(1, Ordering::Relaxed);
        match self.shards[i].try_lock() {
            Some(g) => g,
            None => {
                self.contended[i].fetch_add(1, Ordering::Relaxed);
                self.shards[i].lock()
            }
        }
    }

    /// Control-plane lock: uncounted, so aggregation/migration/tests don't
    /// pollute the dataplane contention counters.
    pub fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock()
    }

    /// Per-shard `(acquisitions, contended)` readings.
    pub fn shard_stats(&self, i: usize) -> (u64, u64) {
        (
            self.acquisitions[i].load(Ordering::Relaxed),
            self.contended[i].load(Ordering::Relaxed),
        )
    }

    /// Total packet-path lock acquisitions across all shards.
    pub fn total_acquisitions(&self) -> u64 {
        self.acquisitions
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Total contended packet-path acquisitions across all shards.
    pub fn total_contended(&self) -> u64 {
        self.contended
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Read `var[index]` (routes to the owning shard; the table skeleton in
    /// every shard makes absent-key reads return the right default).
    pub fn get(&self, var: &StateVar, index: &[Value]) -> Value {
        match self.known_id(var) {
            Some(id) => {
                let shard = self.lock_shard(self.shard_of(id, index));
                shard.get(id, index).clone()
            }
            None => ZERO.clone(),
        }
    }

    /// Write `var[index] ← value` on the owning shard.
    pub fn set(&self, var: &StateVar, index: Vec<Value>, value: Value) {
        let id = self.table_id(var);
        self.lock_shard(self.shard_of(id, &index))
            .set_at(id, &index, value);
    }

    /// Every variable with a table in any shard.
    pub fn variables(&self) -> BTreeSet<StateVar> {
        self.table_entries()
            .into_iter()
            .map(|(var, _)| var)
            .collect()
    }

    /// Every variable with a table in any shard and its number of written
    /// entries, summed over the shards — the `store.table.entries` gauge.
    /// Shards are locked one at a time, so under traffic the sum is a
    /// reading, not a cut.
    pub fn table_entries(&self) -> Vec<(StateVar, u64)> {
        let names = self.registry.lock().names.clone();
        let mut sizes: Vec<Option<u64>> = vec![None; names.len()];
        for shard in &self.shards {
            let shard = shard.lock();
            // A table can only sit under an id issued before `names` was
            // read or since; the zip skips the latter until the next reading.
            for (size, table) in sizes.iter_mut().zip(&shard.tables) {
                if let Some(table) = table {
                    *size.get_or_insert(0) += table.entries.len() as u64;
                }
            }
        }
        let sized = names.into_iter().zip(sizes);
        sized.filter_map(|(var, size)| Some((var, size?))).collect()
    }

    /// Non-destructive union of `var`'s per-shard partials: the exact table
    /// a single authoritative store would hold, or `None` if no shard has
    /// one. Locks shards one at a time (never nested).
    pub fn collect_table(&self, var: &StateVar) -> Option<StateTable> {
        let id = self.known_id(var)?;
        let mut out: Option<StateTable> = None;
        for shard in &self.shards {
            let shard = shard.lock();
            let Some(part) = shard.table(id) else {
                continue;
            };
            let acc = out.get_or_insert_with(|| StateTable::with_default(part.default.clone()));
            for (index, value) in &part.entries {
                acc.set(index.to_vec(), value.clone());
            }
        }
        out
    }

    /// Remove `var` from every shard and return the union of the partials
    /// (used when migrating a variable to another switch). The variable
    /// keeps its [`TableId`].
    pub fn remove_var(&self, var: &StateVar) -> Option<StateTable> {
        let id = self.known_id(var)?;
        let mut out: Option<StateTable> = None;
        for shard in &self.shards {
            let part = shard
                .lock()
                .tables
                .get_mut(id.index())
                .and_then(Option::take);
            if let Some(part) = part {
                let part = part.into_state_table();
                match &mut out {
                    None => out = Some(part),
                    Some(acc) => acc.absorb(part),
                }
            }
        }
        out
    }

    /// Install a whole table for `var`, redistributing its entries to their
    /// owning shards. Every shard gets the table skeleton (the correct
    /// default) so absent-key reads behave identically to the unsharded
    /// store; entries land only where their key routes. The entries are
    /// split by shard first, so each shard is locked once, for one swap —
    /// an install contends with the packet path per shard, not per entry.
    pub fn insert_table(&self, var: StateVar, table: StateTable) {
        let id = self.table_id(&var);
        let mut parts: Vec<ShardTable> = (0..self.shards.len())
            .map(|_| ShardTable::with_default(table.default_value().clone()))
            .collect();
        for (index, value) in table.iter() {
            let part = &mut parts[self.shard_of(id, index)];
            part.entries.insert(index.as_slice().into(), value.clone());
        }
        for (shard, part) in self.shards.iter().zip(parts) {
            *shard.lock().slot_mut(id) = Some(part);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let shards = StateShards::new(8);
        let x = shards.table_id(&sv("x"));
        assert_eq!(shards.table_id(&sv("x")), x, "an id is issued once");
        assert_ne!(shards.table_id(&sv("y")), x);
        for i in 0..100i64 {
            let idx = [Value::Int(i)];
            let a = shards.shard_of(x, &idx);
            let b = shards.shard_of(x, &idx);
            assert_eq!(a, b);
            assert!(a < 8);
        }
        // Distinct keys actually spread over every shard.
        let used: BTreeSet<usize> = (0..100i64)
            .map(|i| shards.shard_of(x, &[Value::Int(i)]))
            .collect();
        assert_eq!(used.len(), 8, "keys missed a shard: {used:?}");
    }

    #[test]
    fn set_get_roundtrip_across_shards() {
        let shards = StateShards::new(4);
        for i in 0..32i64 {
            shards.set(&sv("c"), vec![Value::Int(i)], Value::Int(i * 10));
        }
        for i in 0..32i64 {
            assert_eq!(
                shards.get(&sv("c"), &[Value::Int(i)]),
                Value::Int(i * 10),
                "key {i}"
            );
        }
        // Unwritten keys still read the default.
        assert_eq!(shards.get(&sv("c"), &[Value::Int(999)]), Value::Int(0));
    }

    #[test]
    fn insert_collect_remove_are_bit_identical() {
        let shards = StateShards::new(8);
        let mut table = StateTable::with_default(Value::Bool(false));
        for i in 0..40i64 {
            table.set(vec![Value::Int(i)], Value::Bool(i % 2 == 0));
        }
        shards.insert_table(sv("flags"), table.clone());
        // The skeleton keeps default reads correct in every shard.
        assert_eq!(
            shards.get(&sv("flags"), &[Value::Int(12345)]),
            Value::Bool(false)
        );
        assert_eq!(shards.collect_table(&sv("flags")), Some(table.clone()));
        assert_eq!(shards.remove_var(&sv("flags")), Some(table));
        assert_eq!(shards.collect_table(&sv("flags")), None);
        assert!(shards.variables().is_empty());
    }

    #[test]
    fn counted_locks_feed_stats() {
        let shards = StateShards::new(2);
        drop(shards.lock_shard_counted(0));
        drop(shards.lock_shard_counted(0));
        drop(shards.lock_shard_counted(1));
        assert_eq!(shards.shard_stats(0).0, 2);
        assert_eq!(shards.shard_stats(1).0, 1);
        assert_eq!(shards.total_acquisitions(), 3);
        assert_eq!(shards.total_contended(), 0);
        // Control-plane locks are uncounted.
        drop(shards.lock_shard(0));
        assert_eq!(shards.total_acquisitions(), 3);
    }

    #[test]
    fn contended_acquisition_is_counted() {
        let shards = std::sync::Arc::new(StateShards::new(1));
        let g = shards.lock_shard_counted(0);
        let s2 = shards.clone();
        let t = std::thread::spawn(move || {
            drop(s2.lock_shard_counted(0));
        });
        // Give the thread time to hit the held lock.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        t.join().unwrap();
        assert_eq!(shards.total_acquisitions(), 2);
        assert_eq!(shards.total_contended(), 1);
    }
}
