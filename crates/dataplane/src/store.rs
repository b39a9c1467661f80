//! One switch's state: every variable the switch owns, as one table set
//! behind one lock, plus that lock's contention counters.
//!
//! In SNAP each state variable lives on exactly one switch, and every read
//! and write of it happens there (§4.3–4.4). A [`SwitchStore`] is that
//! switch's copy of the truth. The packet path locks it at a flight's first
//! state access during a visit and releases it when the visit's step
//! returns (`exec::process_at_switch`), so every test-then-act and every
//! read-modify-write of one visit is atomic by construction. The lock is a
//! leaf lock: nothing else is locked while it is held, so there is no lock
//! order to reason about. Multi-core scaling is meant to come from flow
//! ownership, not from splitting this lock (ROADMAP, flow-affine item).
//!
//! ## Tables by id
//!
//! The packet path reaches a variable's table without its name. Each switch
//! keeps an append-only registry name → [`TableId`]
//! ([`SwitchStore::table_id`]); a plane asks it once per installed program,
//! when it binds the program's variable slots (`snap_xfdd::VarSlot`) to this
//! switch, and from then on a state access is `(table id, key)`: the table
//! set holds its tables in a `Vec` indexed by table id, and each table is a
//! hash table keyed by the evaluated index — one seeded hash, no tree walk,
//! no string compare. An id is never reused or retired: yielding a variable
//! empties its table and keeps the id, so a view of an older epoch that
//! still binds it stays meaningful, and a later re-install lands under the
//! same id.
//!
//! Ids are private to one switch's `SwitchStore` — two switches number the
//! same variable differently. [`snap_lang::Store`] / [`StateTable`] remain
//! the specification's store and the exchange format: everything that
//! crosses a switch boundary (`aggregate_store`, migration, `InstallTable`,
//! commit yields) goes through the by-name operations below, which convert
//! at the boundary. A variable nothing installed reads `0` everywhere and
//! gets a `0`-default table on its first write — the behaviour of
//! [`snap_lang::Store`], kept entry for entry.
//!
//! Counted locking is for the packet path only; control-plane operations
//! lock uncounted, so the contention counters measure dataplane behaviour.

use parking_lot::{Mutex, MutexGuard};
use snap_lang::{StateTable, StateVar, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// What an unwritten key of a variable nothing installed reads as — the
/// default of [`snap_lang::Store`].
static ZERO: Value = Value::Int(0);

/// One switch's handle on a state variable (see "Tables by id" in the module
/// docs): dense, append-only, meaningful only to the [`SwitchStore`] that
/// issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(u32);

impl TableId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One variable's table.
#[derive(Clone, Debug)]
struct Table {
    entries: HashMap<Box<[Value]>, Value>,
    default: Value,
}

impl Table {
    fn with_default(default: Value) -> Table {
        Table {
            entries: HashMap::new(),
            default,
        }
    }

    /// The table as the exchange format.
    fn into_state_table(self) -> StateTable {
        let mut table = StateTable::with_default(self.default);
        for (index, value) in self.entries {
            table.set(index.into_vec(), value);
        }
        table
    }
}

impl From<StateTable> for Table {
    fn from(table: StateTable) -> Table {
        let mut out = Table::with_default(table.default_value().clone());
        for (index, value) in table.iter() {
            out.entries.insert(index.as_slice().into(), value.clone());
        }
        out
    }
}

/// A switch's tables, indexed by [`TableId`]: what the store lock guards.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    tables: Vec<Option<Table>>,
}

impl Tables {
    fn table(&self, table: TableId) -> Option<&Table> {
        self.tables.get(table.index())?.as_ref()
    }

    /// Where the table of `table` goes (`None`: the switch has none).
    fn slot_mut(&mut self, table: TableId) -> &mut Option<Table> {
        if self.tables.len() <= table.index() {
            self.tables.resize_with(table.index() + 1, || None);
        }
        &mut self.tables[table.index()]
    }

    /// The table of `table`, created empty with default `0` on first touch.
    fn table_mut(&mut self, table: TableId) -> &mut Table {
        self.slot_mut(table)
            .get_or_insert_with(|| Table::with_default(ZERO.clone()))
    }

    /// Read `table[index]` by reference: the stored value, else the table's
    /// default, else `0`.
    #[inline]
    pub(crate) fn get(&self, table: TableId, index: &[Value]) -> &Value {
        match self.table(table) {
            Some(t) => t.entries.get(index).unwrap_or(&t.default),
            None => &ZERO,
        }
    }

    /// Write `table[index] ← value`. The index is cloned only when the
    /// entry does not exist yet, so overwrites (the steady state of a busy
    /// flag) never allocate.
    pub(crate) fn set_at(&mut self, table: TableId, index: &[Value], value: Value) {
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
    pub(crate) fn update<E>(
        &mut self,
        table: TableId,
        index: &[Value],
        update: impl FnOnce(&Value) -> Result<Value, E>,
    ) -> Result<(), E> {
        let Table { entries, default } = self.table_mut(table);
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

/// The state of one switch (see the module docs).
#[derive(Debug, Default)]
pub struct SwitchStore {
    /// Never locked together with `tables`; the packet path never takes it.
    registry: Mutex<Registry>,
    tables: Mutex<Tables>,
    /// Packet-path lock acquisitions ([`SwitchStore::lock_counted`],
    /// relaxed).
    acquisitions: AtomicU64,
    /// The subset of acquisitions that found the lock already held.
    contended: AtomicU64,
}

impl SwitchStore {
    /// An empty store.
    pub fn new() -> SwitchStore {
        SwitchStore::default()
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
    /// no table).
    fn known_id(&self, var: &StateVar) -> Option<TableId> {
        self.registry.lock().ids.get(var).copied()
    }

    /// Packet-path lock: counts the acquisition, and whether it had to wait
    /// for another thread, into the contention counters.
    pub(crate) fn lock_counted(&self) -> MutexGuard<'_, Tables> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.tables.try_lock() {
            Some(g) => g,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.tables.lock()
            }
        }
    }

    /// Packet-path lock acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Packet-path acquisitions that had to wait for the lock.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Read `var[index]`.
    pub fn get(&self, var: &StateVar, index: &[Value]) -> Value {
        match self.known_id(var) {
            Some(id) => self.tables.lock().get(id, index).clone(),
            None => ZERO.clone(),
        }
    }

    /// Write `var[index] ← value`.
    pub fn set(&self, var: &StateVar, index: Vec<Value>, value: Value) {
        let id = self.table_id(var);
        self.tables.lock().set_at(id, &index, value);
    }

    /// Every variable with a table.
    pub fn variables(&self) -> BTreeSet<StateVar> {
        self.table_entries()
            .into_iter()
            .map(|(var, _)| var)
            .collect()
    }

    /// Every variable with a table and its number of written entries — the
    /// `store.table.entries` gauge.
    pub fn table_entries(&self) -> Vec<(StateVar, u64)> {
        let names = self.registry.lock().names.clone();
        let tables = self.tables.lock();
        // A table can only sit under an id issued before `names` was read or
        // since; the zip skips the latter until the next reading.
        let held = names.into_iter().zip(&tables.tables);
        held.filter_map(|(var, table)| Some((var, table.as_ref()?.entries.len() as u64)))
            .collect()
    }

    /// A copy of `var`'s table, or `None` if the switch has none.
    pub fn collect_table(&self, var: &StateVar) -> Option<StateTable> {
        let id = self.known_id(var)?;
        let table = self.tables.lock().table(id)?.clone();
        Some(table.into_state_table())
    }

    /// Take `var`'s table out of the store (used when migrating a variable
    /// to another switch). The variable keeps its [`TableId`].
    pub fn remove_var(&self, var: &StateVar) -> Option<StateTable> {
        let id = self.known_id(var)?;
        let table = self.tables.lock().tables.get_mut(id.index())?.take();
        table.map(Table::into_state_table)
    }

    /// Install a whole table for `var`, replacing any it had.
    pub fn insert_table(&self, var: StateVar, table: StateTable) {
        let id = self.table_id(&var);
        let table = Table::from(table);
        *self.tables.lock().slot_mut(id) = Some(table);
    }

    /// Install a migrated table for `var` under one hold of the lock,
    /// merged with whatever the switch already holds: entries already
    /// present were written by packets of the new epoch, which arrived
    /// before the table did, so they are newer and win; the migrated table
    /// fills in the rest and brings its default.
    pub fn merge_table(&self, var: StateVar, table: StateTable) {
        let id = self.table_id(&var);
        let mut merged = Table::from(table);
        let mut tables = self.tables.lock();
        let slot = tables.slot_mut(id);
        if let Some(present) = slot.take() {
            merged.entries.extend(present.entries);
        }
        *slot = Some(merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn set_get_roundtrip() {
        let store = SwitchStore::new();
        let x = store.table_id(&sv("c"));
        assert_eq!(store.table_id(&sv("c")), x, "an id is issued once");
        assert_ne!(store.table_id(&sv("d")), x);
        for i in 0..32i64 {
            store.set(&sv("c"), vec![Value::Int(i)], Value::Int(i * 10));
        }
        for i in 0..32i64 {
            assert_eq!(
                store.get(&sv("c"), &[Value::Int(i)]),
                Value::Int(i * 10),
                "key {i}"
            );
        }
        // Unwritten keys still read the default.
        assert_eq!(store.get(&sv("c"), &[Value::Int(999)]), Value::Int(0));
    }

    #[test]
    fn insert_collect_remove_are_bit_identical() {
        let store = SwitchStore::new();
        let mut table = StateTable::with_default(Value::Bool(false));
        for i in 0..40i64 {
            table.set(vec![Value::Int(i)], Value::Bool(i % 2 == 0));
        }
        store.insert_table(sv("flags"), table.clone());
        // An absent key reads the installed table's default.
        assert_eq!(
            store.get(&sv("flags"), &[Value::Int(12345)]),
            Value::Bool(false)
        );
        assert_eq!(store.collect_table(&sv("flags")), Some(table.clone()));
        assert_eq!(store.remove_var(&sv("flags")), Some(table));
        assert_eq!(store.collect_table(&sv("flags")), None);
        assert!(store.variables().is_empty());
    }

    #[test]
    fn a_merge_keeps_the_entries_already_present() {
        let store = SwitchStore::new();
        store.set(&sv("m"), vec![Value::Int(1)], Value::Int(10));
        let mut migrated = StateTable::with_default(Value::Int(7));
        migrated.set(vec![Value::Int(1)], Value::Int(1));
        migrated.set(vec![Value::Int(2)], Value::Int(2));
        store.merge_table(sv("m"), migrated);
        assert_eq!(store.get(&sv("m"), &[Value::Int(1)]), Value::Int(10));
        assert_eq!(store.get(&sv("m"), &[Value::Int(2)]), Value::Int(2));
        assert_eq!(store.get(&sv("m"), &[Value::Int(3)]), Value::Int(7));
    }

    #[test]
    fn counted_locks_feed_stats() {
        let store = SwitchStore::new();
        drop(store.lock_counted());
        drop(store.lock_counted());
        assert_eq!(store.acquisitions(), 2);
        assert_eq!(store.contended(), 0);
        // Control-plane operations are uncounted.
        store.set(&sv("c"), vec![Value::Int(0)], Value::Int(1));
        assert_eq!(store.acquisitions(), 2);
    }

    #[test]
    fn contended_acquisition_is_counted() {
        let store = std::sync::Arc::new(SwitchStore::new());
        let g = store.lock_counted();
        let s2 = store.clone();
        let t = std::thread::spawn(move || {
            drop(s2.lock_counted());
        });
        // Give the thread time to hit the held lock.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        t.join().unwrap();
        assert_eq!(store.acquisitions(), 2);
        assert_eq!(store.contended(), 1);
    }
}
