//! The global network state: a dictionary from state variables to key/value
//! mappings (paper §3: "We express the program state as a dictionary that
//! maps state variables to their contents. The contents of each state
//! variable is itself a mapping from values to values").

use crate::ast::StateVar;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// The contents of one state variable: a mapping from index vectors to values.
///
/// Indices are vectors of values because SNAP arrays may be indexed by
/// several fields at once (e.g. `orphan[dstip][dns.rdata]`). Entries that were
/// never written read back as the variable's default value.
#[derive(Clone, PartialEq, Eq)]
pub struct StateTable {
    entries: BTreeMap<Vec<Value>, Value>,
    default: Value,
}

impl StateTable {
    /// A fresh table whose unwritten entries read back as `default`.
    pub fn with_default(default: Value) -> Self {
        StateTable {
            entries: BTreeMap::new(),
            default,
        }
    }

    /// Read the value at `index` (the default if never written).
    pub fn get(&self, index: &[Value]) -> Value {
        self.entries
            .get(index)
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }

    /// Write `value` at `index`.
    pub fn set(&mut self, index: Vec<Value>, value: Value) {
        self.entries.insert(index, value);
    }

    /// Write `value` at a borrowed `index`: the index is only cloned when
    /// the entry does not exist yet, so overwrites (the steady state of a
    /// busy counter) never allocate a key.
    pub fn set_at(&mut self, index: &[Value], value: Value) {
        if let Some(slot) = self.entries.get_mut(index) {
            *slot = value;
        } else {
            self.entries.insert(index.to_vec(), value);
        }
    }

    /// Read-modify-write at `index` in one tree walk: `update` sees the
    /// current value (the default if never written) and produces the new
    /// one. An `Err` from `update` leaves the table untouched. Like
    /// [`StateTable::set_at`], the index is cloned only on first write.
    pub fn update<E>(
        &mut self,
        index: &[Value],
        update: impl FnOnce(&Value) -> Result<Value, E>,
    ) -> Result<(), E> {
        if let Some(slot) = self.entries.get_mut(index) {
            *slot = update(slot)?;
        } else {
            let value = update(&self.default)?;
            self.entries.insert(index.to_vec(), value);
        }
        Ok(())
    }

    /// The default value of this table.
    pub fn default_value(&self) -> &Value {
        &self.default
    }

    /// Number of explicitly-written entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Has nothing been written yet?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over explicitly-written entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Value)> {
        self.entries.iter()
    }
}

impl Default for StateTable {
    fn default() -> Self {
        StateTable::with_default(Value::Int(0))
    }
}

impl fmt::Debug for StateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries.iter()).finish()
    }
}

/// The whole network state: one table per state variable.
///
/// Unknown variables behave as empty tables with default `0`, matching the
/// paper's treatment of state as total mappings.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Store {
    tables: BTreeMap<StateVar, StateTable>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Declare a variable with an explicit default value (e.g. `Bool(false)`
    /// for flag arrays, `Int(0)` for counters). Idempotent.
    pub fn declare(&mut self, var: StateVar, default: Value) {
        self.tables
            .entry(var)
            .or_insert_with(|| StateTable::with_default(default));
    }

    /// Read `var[index]`.
    pub fn get(&self, var: &StateVar, index: &[Value]) -> Value {
        match self.tables.get(var) {
            Some(t) => t.get(index),
            None => Value::Int(0),
        }
    }

    /// Write `var[index] ← value`.
    pub fn set(&mut self, var: &StateVar, index: Vec<Value>, value: Value) {
        self.with_table(var, |table| table.set(index, value));
    }

    /// Write `var[index] ← value` with a borrowed index — see
    /// [`StateTable::set_at`].
    pub fn set_at(&mut self, var: &StateVar, index: &[Value], value: Value) {
        self.with_table(var, |table| table.set_at(index, value));
    }

    /// Read-modify-write `var[index]` in one table walk — see
    /// [`StateTable::update`].
    pub fn update<E>(
        &mut self,
        var: &StateVar,
        index: &[Value],
        update: impl FnOnce(&Value) -> Result<Value, E>,
    ) -> Result<(), E> {
        self.with_table(var, |table| table.update(index, update))
    }

    /// Run `write` on the table backing `var`, created empty on first touch
    /// — in one walk of the variable map for an existing table (the lookup)
    /// and two on first touch (the failed lookup, then the insert, which is
    /// also the only time the name is cloned). A closure rather than a
    /// returned `&mut`: handing out the looked-up table *or* a freshly
    /// inserted one from a single borrow is what the borrow checker cannot
    /// express without a second lookup.
    fn with_table<R>(&mut self, var: &StateVar, write: impl FnOnce(&mut StateTable) -> R) -> R {
        match self.tables.get_mut(var) {
            Some(table) => write(table),
            None => {
                let mut table = StateTable::default();
                let out = write(&mut table);
                self.tables.insert(var.clone(), table);
                out
            }
        }
    }

    /// The table backing `var`, if any entry was ever written or declared.
    pub fn table(&self, var: &StateVar) -> Option<&StateTable> {
        self.tables.get(var)
    }

    /// Variables with a table in this store.
    pub fn variables(&self) -> impl Iterator<Item = &StateVar> {
        self.tables.keys()
    }

    /// Replace the whole table for `var` (used when merging distributed state
    /// back into a single OBS view).
    pub fn insert_table(&mut self, var: StateVar, table: StateTable) {
        self.tables.insert(var, table);
    }

    /// Take the whole table for `var` out of the store (used when migrating
    /// a variable to a different switch during a configuration swap).
    pub fn remove_table(&mut self, var: &StateVar) -> Option<StateTable> {
        self.tables.remove(var)
    }

    /// Do two stores agree on variable `var`?
    pub fn var_eq(&self, other: &Store, var: &StateVar) -> bool {
        let empty = StateTable::default();
        let a = self.tables.get(var).unwrap_or(&empty);
        let b = other.tables.get(var).unwrap_or(&empty);
        a == b
    }

    /// Merge per the paper's `merge(m, m1, m2)`: for every variable, if `m1`
    /// left it unchanged relative to base `m`, take `m2`'s version, otherwise
    /// take `m1`'s. Extended to any number of updated stores by folding.
    pub fn merge(base: &Store, updated: &[Store]) -> Store {
        match updated {
            [] => base.clone(),
            [only] => only.clone(),
            [first, rest @ ..] => {
                let m2 = Store::merge(base, rest);
                let mut out = Store::new();
                let mut vars: Vec<StateVar> = Vec::new();
                vars.extend(base.tables.keys().cloned());
                vars.extend(first.tables.keys().cloned());
                vars.extend(m2.tables.keys().cloned());
                vars.sort();
                vars.dedup();
                for var in vars {
                    let table = if first.var_eq(base, &var) {
                        m2.tables.get(&var).cloned()
                    } else {
                        first.tables.get(&var).cloned()
                    };
                    if let Some(t) = table {
                        out.tables.insert(var, t);
                    }
                }
                out
            }
        }
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.tables.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn default_reads() {
        let store = Store::new();
        assert_eq!(store.get(&sv("counter"), &[Value::Int(1)]), Value::Int(0));
        let mut store = Store::new();
        store.declare(sv("flag"), Value::Bool(false));
        assert_eq!(store.get(&sv("flag"), &[Value::Int(1)]), Value::Bool(false));
    }

    #[test]
    fn set_then_get() {
        let mut store = Store::new();
        store.set(
            &sv("s"),
            vec![Value::Int(1), Value::Int(2)],
            Value::Bool(true),
        );
        assert_eq!(
            store.get(&sv("s"), &[Value::Int(1), Value::Int(2)]),
            Value::Bool(true)
        );
        assert_eq!(
            store.get(&sv("s"), &[Value::Int(1), Value::Int(3)]),
            Value::Int(0)
        );
    }

    #[test]
    fn merge_takes_changed_table() {
        let base = Store::new();
        let mut m1 = Store::new();
        m1.set(&sv("a"), vec![Value::Int(0)], Value::Int(1));
        let mut m2 = Store::new();
        m2.set(&sv("b"), vec![Value::Int(0)], Value::Int(2));
        let merged = Store::merge(&base, &[m1.clone(), m2.clone()]);
        assert_eq!(merged.get(&sv("a"), &[Value::Int(0)]), Value::Int(1));
        assert_eq!(merged.get(&sv("b"), &[Value::Int(0)]), Value::Int(2));
    }

    #[test]
    fn merge_prefers_first_writer_when_both_changed() {
        // Mirrors the definition in appendix A: if m1 changed s, take m1's s.
        let base = Store::new();
        let mut m1 = Store::new();
        m1.set(&sv("s"), vec![], Value::Int(1));
        let mut m2 = Store::new();
        m2.set(&sv("s"), vec![], Value::Int(2));
        let merged = Store::merge(&base, &[m1, m2]);
        assert_eq!(merged.get(&sv("s"), &[]), Value::Int(1));
    }

    #[test]
    fn merge_of_empty_list_is_base() {
        let mut base = Store::new();
        base.set(&sv("s"), vec![], Value::Int(9));
        let merged = Store::merge(&base, &[]);
        assert_eq!(merged, base);
    }

    #[test]
    fn var_eq_handles_missing_tables() {
        let a = Store::new();
        let mut b = Store::new();
        assert!(a.var_eq(&b, &sv("x")));
        b.set(&sv("x"), vec![], Value::Int(1));
        assert!(!a.var_eq(&b, &sv("x")));
    }

    #[test]
    fn table_iteration() {
        let mut t = StateTable::with_default(Value::Bool(false));
        t.set(vec![Value::Int(1)], Value::Bool(true));
        t.set(vec![Value::Int(2)], Value::Bool(true));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.default_value(), &Value::Bool(false));
    }
}
