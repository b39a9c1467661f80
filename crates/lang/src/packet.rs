//! Packets as partial maps from header fields to values.
//!
//! A SNAP program is "a function that takes in a packet plus the current
//! state of the network and produces a set of transformed packets as well as
//! updated state" (§2.1). Packets here are symbolic header records; payload
//! bytes are represented by the `content` field when a policy needs them.

use crate::value::{Field, Value};
use std::fmt;

/// A packet: an ordered map from fields to values.
///
/// The map is ordered so that packets have a canonical form, can be placed in
/// sets (the output of `eval` is a set of packets) and compared structurally.
///
/// Internally the map is a vector of `(field, value)` pairs kept sorted by
/// field, 32 bytes a pair: packets carry a dozen headers at most, and at
/// that size a sorted vector beats a node-based tree on every data-plane hot
/// operation — lookups are a binary search over contiguous memory, and
/// ordering/equality are element-wise scans. A clone copies the pairs into
/// a buffer recycled from an earlier drop and *shares* any text they hold
/// ([`Value::Str`], [`Value::Symbol`], [`Field::Custom`] are reference
/// counted), so on a warmed-up thread neither cloning nor dropping a packet
/// reaches the allocator. The derived `Ord`/`Eq`/`Hash` over the sorted
/// pairs coincide with the old `BTreeMap`'s (both compare the same
/// key-sorted sequence).
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Packet {
    fields: Vec<(Field, Value)>,
}

/// Cap on the per-thread pool of recycled field buffers. Callers routinely
/// hold a whole run's egress or a flow table (tens of thousands of packets)
/// before dropping it in one burst, and the pool has to absorb that burst:
/// for the next run's clones to stay allocation-free, and because what
/// overflows goes back to the allocator as that many equal-sized holes
/// which it cannot merge — a dropped packet's text lives on in its clones,
/// so small live blocks keep the holes apart — and then serves, oldest
/// first and cache-cold, to every later request of that size (measured: a
/// 0.8 ms compile next to 28 000 such holes ran 15–25 % slower). The cap
/// only bounds memory afterwards (about 20 MB per thread at the standard
/// 320-byte buffer).
const BUF_POOL_CAP: usize = 64 * 1024;

thread_local! {
    /// Recycled field buffers: the data plane clones one packet per
    /// injection and drops one per delivery, so in steady state every clone
    /// can reuse the allocation of an earlier drop instead of paying the
    /// allocator per packet.
    static BUF_POOL: std::cell::RefCell<Vec<Vec<(Field, Value)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Every field buffer has room for at least this many pairs, whatever its
/// packet holds. Buffers that all come in one size circulate through the
/// pool without ever being regrown — a recycled buffer always fits the next
/// packet — and a packet built field by field does not shed a trail of
/// outgrown buffers (the same unmergeable holes as above). Eight headers
/// plus the slack `clone` leaves covers the data plane's packets; the
/// standard buffer is 10 pairs, 320 bytes.
const MIN_BUF_PAIRS: usize = 10;

/// An empty field buffer from the thread's recycle pool (or freshly
/// reserved), with room for at least `capacity` pairs.
fn pooled_buf(capacity: usize) -> Vec<(Field, Value)> {
    let mut buf = BUF_POOL
        .try_with(|pool| pool.borrow_mut().pop().unwrap_or_default())
        .unwrap_or_default();
    buf.reserve(capacity.max(MIN_BUF_PAIRS));
    buf
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        // Leave a little slack: the data plane's dominant pattern is
        // "clone, then set one or two fields the original didn't carry"
        // (the OBS outport, a pushed header), and cloning at exact
        // capacity would force a reallocation on that first insert.
        let mut fields = pooled_buf(self.fields.len() + 2);
        fields.extend(self.fields.iter().cloned());
        Packet { fields }
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        if self.fields.capacity() == 0 {
            return; // nothing to recycle (empty placeholder packets)
        }
        let mut buf = std::mem::take(&mut self.fields);
        // Drop the values, keep the allocation.
        buf.clear();
        // `try_with`: during thread teardown the pool may already be gone —
        // fall through to a plain deallocation.
        let _ = BUF_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < BUF_POOL_CAP {
                pool.push(buf);
            }
        });
    }
}

impl Packet {
    /// An empty packet with no fields set.
    pub fn new() -> Self {
        Packet::default()
    }

    /// Position of `field`, or where it would be inserted.
    #[inline]
    fn find(&self, field: &Field) -> Result<usize, usize> {
        self.fields.binary_search_by(|(f, _)| f.cmp(field))
    }

    /// Builder-style field assignment.
    pub fn with(mut self, field: Field, value: impl Into<Value>) -> Self {
        self.set(field, value);
        self
    }

    /// Read a field.
    #[inline]
    pub fn get(&self, field: &Field) -> Option<&Value> {
        match self.find(field) {
            Ok(i) => Some(&self.fields[i].1),
            Err(_) => None,
        }
    }

    /// Write a field in place.
    pub fn set(&mut self, field: Field, value: impl Into<Value>) {
        let value = value.into();
        match self.find(&field) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => {
                if self.fields.capacity() == 0 {
                    self.fields = pooled_buf(1);
                }
                self.fields.insert(i, (field, value));
            }
        }
    }

    /// Remove a field.
    pub fn remove(&mut self, field: &Field) -> Option<Value> {
        match self.find(field) {
            Ok(i) => Some(self.fields.remove(i).1),
            Err(_) => None,
        }
    }

    /// Does the packet carry this field?
    pub fn has(&self, field: &Field) -> bool {
        self.find(field).is_ok()
    }

    /// Iterate over `(field, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Field, &Value)> {
        self.fields.iter().map(|(f, v)| (f, v))
    }

    /// Number of populated fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Is the packet empty (no fields)?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Functional update: a copy of the packet with `field` set to `value`
    /// (the paper's `pkt[f ↦ v]`).
    pub fn updated(&self, field: Field, value: impl Into<Value>) -> Self {
        let mut p = self.clone();
        p.set(field, value);
        p
    }

    /// A convenience constructor for a typical TCP/UDP 5-tuple packet.
    pub fn five_tuple(
        srcip: impl Into<Value>,
        dstip: impl Into<Value>,
        srcport: i64,
        dstport: i64,
        proto: i64,
    ) -> Self {
        Packet::new()
            .with(Field::SrcIp, srcip)
            .with(Field::DstIp, dstip)
            .with(Field::SrcPort, srcport)
            .with(Field::DstPort, dstport)
            .with(Field::Proto, proto)
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (field, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}={value}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Field, Value)> for Packet {
    fn from_iter<T: IntoIterator<Item = (Field, Value)>>(iter: T) -> Self {
        let mut fields = pooled_buf(0);
        fields.extend(iter);
        // Map semantics: last write to a field wins. The sort is stable, so
        // within one field the insertion order survives; the swap in
        // `dedup_by` then moves each run's final value into the kept slot.
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(&mut later.1, &mut kept.1);
                true
            } else {
                false
            }
        });
        Packet { fields }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Ipv4;

    #[test]
    fn build_and_read() {
        let p = Packet::new()
            .with(Field::SrcIp, Value::ip(10, 0, 1, 1))
            .with(Field::DstPort, 53);
        assert_eq!(p.get(&Field::DstPort), Some(&Value::Int(53)));
        assert_eq!(
            p.get(&Field::SrcIp),
            Some(&Value::Ip(Ipv4::new(10, 0, 1, 1)))
        );
        assert_eq!(p.get(&Field::DstIp), None);
        assert!(p.has(&Field::SrcIp));
        assert!(!p.has(&Field::DstIp));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn functional_update_leaves_original_alone() {
        let p = Packet::new().with(Field::OutPort, 1);
        let q = p.updated(Field::OutPort, 6);
        assert_eq!(p.get(&Field::OutPort), Some(&Value::Int(1)));
        assert_eq!(q.get(&Field::OutPort), Some(&Value::Int(6)));
        assert_ne!(p, q);
    }

    #[test]
    fn packets_are_canonical_and_comparable() {
        let a = Packet::new()
            .with(Field::SrcPort, 1)
            .with(Field::DstPort, 2);
        let b = Packet::new()
            .with(Field::DstPort, 2)
            .with(Field::SrcPort, 1);
        assert_eq!(a, b);
        let mut set = std::collections::BTreeSet::new();
        set.insert(a);
        set.insert(b);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn five_tuple_constructor() {
        let p = Packet::five_tuple(Value::ip(1, 1, 1, 1), Value::ip(2, 2, 2, 2), 1000, 80, 6);
        assert_eq!(p.len(), 5);
        assert_eq!(p.get(&Field::Proto), Some(&Value::Int(6)));
    }

    #[test]
    fn remove_field() {
        let mut p = Packet::new().with(Field::Content, "payload");
        assert_eq!(p.remove(&Field::Content), Some(Value::str("payload")));
        assert!(p.is_empty());
        assert_eq!(p.remove(&Field::Content), None);
    }
}
