//! The wire framing for the socket transport.
//!
//! Every message travels as one frame: a little-endian `u32` length followed
//! by that many payload bytes, capped at [`MAX_FRAME_BYTES`]. The payload is
//! a hand-rolled tag-prefixed encoding of [`ToAgent`] / [`FromAgent`] in the
//! same spirit as `snap_xfdd::wire` (the workspace's serde is an offline
//! shim, so nothing here derives its serialization): fixed-width
//! little-endian integers, length-prefixed strings and sequences, one tag
//! byte per enum variant.
//!
//! The decoder is written for hostile input: every length is checked against
//! the bytes actually remaining (so a corrupt length can never trigger a
//! huge allocation), value nesting is depth-limited, and every error path
//! returns [`FrameError`] — malformed frames *fail*, they never panic. The
//! fuzz suite in `tests/frame_fuzz.rs` pounds truncations and bit flips the
//! same way `wire_fuzz.rs` pounds the program payloads.

use crate::transport::{FromAgent, PrepareMsg, SwitchMeta, ToAgent};
use snap_lang::{Ipv4, Prefix, StateTable, StateVar, Value};
use snap_topology::{NodeId as SwitchId, PortId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{Read, Write};

/// Hard ceiling on one frame's payload, applied before any allocation. Full
/// resync payloads for ISP-scale programs are a few MiB; 64 MiB leaves an
/// order of magnitude of slack while keeping a corrupt length harmless.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Nesting ceiling for [`Value::Tuple`]: real indices are a handful of
/// fields deep, and the bound keeps a crafted payload from recursing the
/// decoder off the stack.
const MAX_VALUE_DEPTH: u32 = 32;

/// A malformed or oversized frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the structure did.
    Truncated,
    /// An unknown enum tag.
    BadTag(u8),
    /// A length field that contradicts the bytes present, or exceeds
    /// [`MAX_FRAME_BYTES`].
    BadLength,
    /// A string that is not UTF-8.
    BadUtf8,
    /// Value nesting beyond the decoder's depth ceiling.
    TooDeep,
    /// A field whose value is out of its domain (e.g. a prefix length > 32).
    BadValue,
    /// Bytes left over after the structure ended.
    TrailingBytes,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::BadLength => write!(f, "frame length out of bounds"),
            FrameError::BadUtf8 => write!(f, "frame string is not utf-8"),
            FrameError::TooDeep => write!(f, "frame value nesting too deep"),
            FrameError::BadValue => write!(f, "frame field out of domain"),
            FrameError::TrailingBytes => write!(f, "frame has trailing bytes"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Value::Bool(b) => {
                self.u8(1);
                self.u8(u8::from(*b));
            }
            Value::Ip(ip) => {
                self.u8(2);
                self.u32(ip.0);
            }
            Value::Prefix(p) => {
                self.u8(3);
                self.u32(p.addr.0);
                self.u8(p.len);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Symbol(s) => {
                self.u8(5);
                self.str(s);
            }
            Value::Tuple(vs) => {
                self.u8(6);
                self.u32(vs.len() as u32);
                for v in vs {
                    self.value(v);
                }
            }
        }
    }

    fn table(&mut self, t: &StateTable) {
        self.value(t.default_value());
        self.u32(t.len() as u32);
        for (index, value) in t.iter() {
            self.u32(index.len() as u32);
            for v in index {
                self.value(v);
            }
            self.value(value);
        }
    }

    fn meta(&mut self, m: &SwitchMeta) {
        self.u32(m.local_vars.len() as u32);
        for var in &m.local_vars {
            self.str(&var.0);
        }
        self.u32(m.ports.len() as u32);
        for port in &m.ports {
            self.u64(port.0 as u64);
        }
    }

    fn placement(&mut self, p: &BTreeMap<StateVar, SwitchId>) {
        self.u32(p.len() as u32);
        for (var, owner) in p {
            self.str(&var.0);
            self.u64(owner.0 as u64);
        }
    }
}

/// Encode a controller→agent message payload (no length prefix).
pub fn encode_to_agent(msg: &ToAgent) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        ToAgent::Prepare(p) => {
            e.u8(0);
            e.u64(p.epoch);
            e.u8(u8::from(p.resync));
            e.bytes(&p.delta);
            match &p.meta {
                None => e.u8(0),
                Some(m) => {
                    e.u8(1);
                    e.meta(m);
                }
            }
            match &p.placement {
                None => e.u8(0),
                Some(pl) => {
                    e.u8(1);
                    e.placement(pl);
                }
            }
        }
        ToAgent::Commit { epoch } => {
            e.u8(1);
            e.u64(*epoch);
        }
        ToAgent::Abort { epoch } => {
            e.u8(2);
            e.u64(*epoch);
        }
        ToAgent::InstallTable { epoch, var, table } => {
            e.u8(3);
            e.u64(*epoch);
            e.str(&var.0);
            e.table(table);
        }
        ToAgent::Shutdown => e.u8(4),
    }
    e.buf
}

/// Encode an agent→controller message payload (no length prefix).
pub fn encode_from_agent(msg: &FromAgent) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        FromAgent::Prepared {
            switch,
            epoch,
            new_nodes,
        } => {
            e.u8(0);
            e.u64(switch.0 as u64);
            e.u64(*epoch);
            e.u64(*new_nodes);
        }
        FromAgent::PrepareFailed {
            switch,
            epoch,
            reason,
        } => {
            e.u8(1);
            e.u64(switch.0 as u64);
            e.u64(*epoch);
            e.str(reason);
        }
        FromAgent::Committed {
            switch,
            epoch,
            yields,
        } => {
            e.u8(2);
            e.u64(switch.0 as u64);
            e.u64(*epoch);
            e.u32(yields.len() as u32);
            for (var, table) in yields {
                e.str(&var.0);
                e.table(table);
            }
        }
        FromAgent::Installed { switch, epoch, var } => {
            e.u8(3);
            e.u64(switch.0 as u64);
            e.u64(*epoch);
            e.str(&var.0);
        }
    }
    e.buf
}

/// Encode the agent's one-shot handshake: which switch this connection is.
pub fn encode_hello(switch: SwitchId) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(0xa5);
    e.u64(switch.0 as u64);
    e.buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A length field for elements at least `min_elem_bytes` wide each:
    /// rejected outright when the remaining bytes cannot possibly hold that
    /// many, so lengths never drive allocation beyond the frame itself.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(FrameError::BadLength);
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// A length-prefixed string, borrowed from the frame: each caller
    /// copies it once, straight into the form it stores.
    fn str(&mut self) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| FrameError::BadUtf8)
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadValue),
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, FrameError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(FrameError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Bool(self.bool()?)),
            2 => Ok(Value::Ip(Ipv4(self.u32()?))),
            3 => {
                let addr = Ipv4(self.u32()?);
                let len = self.u8()?;
                if len > 32 {
                    return Err(FrameError::BadValue);
                }
                Ok(Value::Prefix(Prefix::new(addr, len)))
            }
            4 => Ok(Value::Str(self.str()?.into())),
            5 => Ok(Value::Symbol(self.str()?.into())),
            6 => {
                let n = self.seq_len(1)?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(self.value(depth + 1)?);
                }
                Ok(Value::Tuple(vs))
            }
            t => Err(FrameError::BadTag(t)),
        }
    }

    fn table(&mut self) -> Result<StateTable, FrameError> {
        let default = self.value(0)?;
        let mut table = StateTable::with_default(default);
        let entries = self.seq_len(2)?;
        for _ in 0..entries {
            let arity = self.seq_len(1)?;
            let mut index = Vec::with_capacity(arity);
            for _ in 0..arity {
                index.push(self.value(0)?);
            }
            let value = self.value(0)?;
            table.set(index, value);
        }
        Ok(table)
    }

    fn meta(&mut self) -> Result<SwitchMeta, FrameError> {
        let vars = self.seq_len(4)?;
        let mut local_vars = BTreeSet::new();
        for _ in 0..vars {
            local_vars.insert(StateVar(self.str()?.into()));
        }
        let ports = self.seq_len(8)?;
        let mut port_set = BTreeSet::new();
        for _ in 0..ports {
            port_set.insert(PortId(self.u64()? as usize));
        }
        Ok(SwitchMeta {
            local_vars,
            ports: port_set,
        })
    }

    fn placement(&mut self) -> Result<BTreeMap<StateVar, SwitchId>, FrameError> {
        let n = self.seq_len(12)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let var = StateVar(self.str()?.into());
            let owner = SwitchId(self.u64()? as usize);
            map.insert(var, owner);
        }
        Ok(map)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

/// Decode a controller→agent payload.
pub fn decode_to_agent(buf: &[u8]) -> Result<ToAgent, FrameError> {
    let mut d = Dec::new(buf);
    let msg = match d.u8()? {
        0 => {
            let epoch = d.u64()?;
            let resync = d.bool()?;
            let delta = d.bytes()?.to_vec();
            let meta = match d.u8()? {
                0 => None,
                1 => Some(d.meta()?),
                _ => return Err(FrameError::BadValue),
            };
            let placement = match d.u8()? {
                0 => None,
                1 => Some(d.placement()?),
                _ => return Err(FrameError::BadValue),
            };
            ToAgent::Prepare(Box::new(PrepareMsg {
                epoch,
                resync,
                delta,
                meta,
                placement,
            }))
        }
        1 => ToAgent::Commit { epoch: d.u64()? },
        2 => ToAgent::Abort { epoch: d.u64()? },
        3 => ToAgent::InstallTable {
            epoch: d.u64()?,
            var: StateVar(d.str()?.into()),
            table: d.table()?,
        },
        4 => ToAgent::Shutdown,
        t => return Err(FrameError::BadTag(t)),
    };
    d.finish()?;
    Ok(msg)
}

/// Decode an agent→controller payload.
pub fn decode_from_agent(buf: &[u8]) -> Result<FromAgent, FrameError> {
    let mut d = Dec::new(buf);
    let msg = match d.u8()? {
        0 => FromAgent::Prepared {
            switch: SwitchId(d.u64()? as usize),
            epoch: d.u64()?,
            new_nodes: d.u64()?,
        },
        1 => FromAgent::PrepareFailed {
            switch: SwitchId(d.u64()? as usize),
            epoch: d.u64()?,
            reason: d.str()?.into(),
        },
        2 => {
            let switch = SwitchId(d.u64()? as usize);
            let epoch = d.u64()?;
            let n = d.seq_len(2)?;
            let mut yields = Vec::with_capacity(n);
            for _ in 0..n {
                let var = StateVar(d.str()?.into());
                let table = d.table()?;
                yields.push((var, table));
            }
            FromAgent::Committed {
                switch,
                epoch,
                yields,
            }
        }
        3 => FromAgent::Installed {
            switch: SwitchId(d.u64()? as usize),
            epoch: d.u64()?,
            var: StateVar(d.str()?.into()),
        },
        t => return Err(FrameError::BadTag(t)),
    };
    d.finish()?;
    Ok(msg)
}

/// Decode the agent's handshake frame.
pub fn decode_hello(buf: &[u8]) -> Result<SwitchId, FrameError> {
    let mut d = Dec::new(buf);
    if d.u8()? != 0xa5 {
        return Err(FrameError::BadValue);
    }
    let switch = SwitchId(d.u64()? as usize);
    d.finish()?;
    Ok(switch)
}

// ---------------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------------

/// Write one frame: little-endian `u32` length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame's payload, enforcing [`MAX_FRAME_BYTES`] before
/// allocating. An oversized length is reported as `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds size cap",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> StateTable {
        let mut t = StateTable::with_default(Value::Int(0));
        t.set(
            vec![Value::Ip(Ipv4::new(10, 0, 0, 1)), Value::str("a.example")],
            Value::Int(7),
        );
        t.set(
            vec![Value::Tuple(vec![Value::Bool(true), Value::sym("SYN")])],
            Value::Prefix(Prefix::new(Ipv4::new(10, 0, 6, 0), 24)),
        );
        t
    }

    #[test]
    fn to_agent_round_trips() {
        let msgs = vec![
            ToAgent::Prepare(Box::new(PrepareMsg {
                epoch: 9,
                resync: true,
                delta: vec![1, 2, 3, 250],
                meta: Some(SwitchMeta {
                    local_vars: [StateVar("seen".into())].into_iter().collect(),
                    ports: [PortId(3), PortId(90)].into_iter().collect(),
                }),
                placement: Some(
                    [(StateVar("seen".into()), SwitchId(4))]
                        .into_iter()
                        .collect(),
                ),
            })),
            ToAgent::Commit { epoch: 1 },
            ToAgent::Abort { epoch: u64::MAX },
            ToAgent::InstallTable {
                epoch: 3,
                var: StateVar("orphan".into()),
                table: sample_table(),
            },
            ToAgent::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_to_agent(&msg);
            let back = decode_to_agent(&bytes).expect("round trip");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn from_agent_round_trips() {
        let msgs = vec![
            FromAgent::Prepared {
                switch: SwitchId(7),
                epoch: 2,
                new_nodes: 61,
            },
            FromAgent::PrepareFailed {
                switch: SwitchId(0),
                epoch: 3,
                reason: "diverged mirror: \"quoted\"".into(),
            },
            FromAgent::Committed {
                switch: SwitchId(12),
                epoch: 4,
                yields: vec![(StateVar("seen".into()), sample_table())],
            },
            FromAgent::Installed {
                switch: SwitchId(5),
                epoch: 4,
                var: StateVar("seen".into()),
            },
        ];
        for msg in msgs {
            let bytes = encode_from_agent(&msg);
            let back = decode_from_agent(&bytes).expect("round trip");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    /// Frames are what separately built controller and agent processes
    /// exchange; how a value keeps its text in memory must not show in
    /// them. The expected bytes are spelled out from the format, not taken
    /// from the encoder under test.
    #[test]
    fn text_values_encode_to_the_documented_bytes() {
        let mut table = StateTable::with_default(Value::sym("NEW"));
        table.set(vec![Value::str("a.example")], Value::sym("SYN"));
        let msg = ToAgent::InstallTable {
            epoch: 3,
            var: StateVar("orphan".into()),
            table,
        };
        let mut want = vec![3u8]; // InstallTable
        want.extend_from_slice(&3u64.to_le_bytes());
        let text = |want: &mut Vec<u8>, s: &str| {
            want.extend_from_slice(&(s.len() as u32).to_le_bytes());
            want.extend_from_slice(s.as_bytes());
        };
        text(&mut want, "orphan");
        want.push(5); // default: Symbol
        text(&mut want, "NEW");
        want.extend_from_slice(&1u32.to_le_bytes()); // one entry
        want.extend_from_slice(&1u32.to_le_bytes()); // of arity one
        want.push(4); // Str
        text(&mut want, "a.example");
        want.push(5); // Symbol
        text(&mut want, "SYN");
        let bytes = encode_to_agent(&msg);
        assert_eq!(bytes, want);
        let back = decode_to_agent(&bytes).expect("round trip");
        assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    }

    #[test]
    fn hello_round_trips() {
        let bytes = encode_hello(SwitchId(901));
        assert_eq!(decode_hello(&bytes), Ok(SwitchId(901)));
        assert!(decode_hello(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn bad_lengths_are_rejected_without_allocating() {
        // A Committed frame claiming 4 billion yields must fail fast.
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_from_agent(&bytes),
            Err(FrameError::BadLength)
        ));
    }

    #[test]
    fn deep_tuples_are_rejected() {
        let mut e = Enc::new();
        e.u8(3); // InstallTable
        e.u64(1);
        e.str("v");
        for _ in 0..200 {
            e.u8(6); // Tuple
            e.u32(1);
        }
        e.u8(0);
        e.i64(0);
        assert!(matches!(
            decode_to_agent(&e.buf),
            Err(FrameError::TooDeep) | Err(FrameError::Truncated) | Err(FrameError::BadLength)
        ));
    }
}
