//! Shared, hash-once payloads: the [`Leaf`](crate::Leaf)s and
//! [`Test`](crate::Test)s a pool's nodes carry.
//!
//! A payload is a deep value — action sequences over expression trees — and
//! a compilation meets it at every pool boundary: the session pool publishes
//! a frozen copy, the controller's distribution pool imports that, flat
//! programs are lowered from it. A [`Shared`] payload is built once, hashed
//! once, and from then on *referenced*: copying it anywhere is a
//! reference-count bump, interning it is a probe keyed on the stored
//! 64-bit hash, and comparing two handles of the same allocation never
//! looks at the content.
//!
//! The hash is keyed once per process, so it means the same in every pool
//! of the process (a payload keeps its hash when it moves between pools)
//! while staying unpredictable to whoever writes the policy. It never
//! leaves the process: the wire format carries content, and a decoder
//! hashes what it decodes.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable payload behind a shared handle that carries its content
/// hash (see the module docs). Dereferences, twice, to the payload.
pub type Shared<T> = Arc<Hashed<T>>;

/// A value together with its content hash: what a [`Shared`] handle points
/// at, and — before a handle exists — what an interner is probed with. It
/// hashes as the stored hash and compares by it first.
pub struct Hashed<T> {
    hash: u64,
    value: T,
}

impl<T: Hash> Hashed<T> {
    /// Hash `value` (the one time its content is hashed).
    pub fn new(value: T) -> Hashed<T> {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        let hash = KEYS.get_or_init(RandomState::new).hash_one(&value);
        Hashed { hash, value }
    }
}

impl<T> Hashed<T> {
    /// The content hash stored with the payload.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

impl<T> Deref for Hashed<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Hash for Hashed<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl<T: PartialEq> PartialEq for Hashed<T> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || (self.hash == other.hash && self.value == other.value)
    }
}

impl<T: Eq> Eq for Hashed<T> {}

impl<T: fmt::Debug> fmt::Debug for Hashed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}
