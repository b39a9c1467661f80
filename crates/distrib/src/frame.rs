//! The wire framing for the socket transport.
//!
//! Every message travels as one frame: a little-endian `u32` length followed
//! by that many payload bytes, capped at [`MAX_FRAME_BYTES`]. The payload is
//! a hand-rolled tag-prefixed encoding of [`ToAgent`] / [`FromAgent`],
//! written and read through the same codec as `snap_xfdd::wire`'s program
//! payloads ([`snap_lang::codec`]; nothing in the workspace derives its
//! serialization): fixed-width little-endian
//! integers, length-prefixed strings and sequences, one tag byte per enum
//! variant.
//!
//! The decoder is written for hostile input — the codec checks every length
//! against the bytes actually remaining (so a corrupt length can never
//! trigger a huge allocation) and caps value nesting, and every error path
//! returns [`FrameError`]: malformed frames *fail*, they never panic. The
//! fuzz suite in `tests/frame_fuzz.rs` pounds truncations and bit flips the
//! same way `wire_fuzz.rs` pounds the program payloads.

use crate::transport::{FromAgent, PrepareMsg, SwitchMeta, ToAgent};
use snap_lang::codec::{Reader, Writer};
use snap_lang::{StateTable, StateVar};
use snap_topology::{NodeId as SwitchId, PortId};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// A malformed frame. A frame has no way to fail beyond its bytes', so this
/// is the codec's error.
pub use snap_lang::codec::CodecError as FrameError;

/// Hard ceiling on one frame's payload, applied before any allocation. Full
/// resync payloads for ISP-scale programs are a few MiB; 64 MiB leaves an
/// order of magnitude of slack while keeping a corrupt length harmless.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_var(w: &mut Writer, var: &StateVar) {
    w.str(&var.0);
}

fn put_switch(w: &mut Writer, switch: SwitchId) {
    w.u64(switch.0 as u64);
}

fn put_table(w: &mut Writer, t: &StateTable) {
    w.value(t.default_value());
    w.seq_len(t.len());
    for (index, value) in t.iter() {
        w.seq_len(index.len());
        for v in index {
            w.value(v);
        }
        w.value(value);
    }
}

fn put_meta(w: &mut Writer, m: &SwitchMeta) {
    w.seq_len(m.local_vars.len());
    for var in &m.local_vars {
        put_var(w, var);
    }
    w.seq_len(m.ports.len());
    for port in &m.ports {
        w.u64(port.0 as u64);
    }
}

fn put_placement(w: &mut Writer, p: &BTreeMap<StateVar, SwitchId>) {
    w.seq_len(p.len());
    for (var, owner) in p {
        put_var(w, var);
        put_switch(w, *owner);
    }
}

/// Encode a controller→agent message payload (no length prefix).
pub fn encode_to_agent(msg: &ToAgent) -> Vec<u8> {
    let mut w = Writer::new();
    match msg {
        ToAgent::Prepare(p) => {
            w.u8(0);
            w.u64(p.epoch);
            w.bool(p.resync);
            w.bytes(&p.delta);
            w.bool(p.meta.is_some());
            if let Some(m) = &p.meta {
                put_meta(&mut w, m);
            }
            w.bool(p.placement.is_some());
            if let Some(pl) = &p.placement {
                put_placement(&mut w, pl);
            }
        }
        ToAgent::Commit { epoch } => {
            w.u8(1);
            w.u64(*epoch);
        }
        ToAgent::Abort { epoch } => {
            w.u8(2);
            w.u64(*epoch);
        }
        ToAgent::InstallTable { epoch, var, table } => {
            w.u8(3);
            w.u64(*epoch);
            put_var(&mut w, var);
            put_table(&mut w, table);
        }
        ToAgent::Shutdown => w.u8(4),
    }
    w.into_bytes()
}

/// Encode an agent→controller message payload (no length prefix).
pub fn encode_from_agent(msg: &FromAgent) -> Vec<u8> {
    let mut w = Writer::new();
    match msg {
        FromAgent::Prepared {
            switch,
            epoch,
            new_nodes,
        } => {
            w.u8(0);
            put_switch(&mut w, *switch);
            w.u64(*epoch);
            w.u64(*new_nodes);
        }
        FromAgent::PrepareFailed {
            switch,
            epoch,
            reason,
        } => {
            w.u8(1);
            put_switch(&mut w, *switch);
            w.u64(*epoch);
            w.str(reason);
        }
        FromAgent::Committed {
            switch,
            epoch,
            yields,
        } => {
            w.u8(2);
            put_switch(&mut w, *switch);
            w.u64(*epoch);
            w.seq_len(yields.len());
            for (var, table) in yields {
                put_var(&mut w, var);
                put_table(&mut w, table);
            }
        }
        FromAgent::Installed { switch, epoch, var } => {
            w.u8(3);
            put_switch(&mut w, *switch);
            w.u64(*epoch);
            put_var(&mut w, var);
        }
    }
    w.into_bytes()
}

/// The first byte of the handshake frame.
const HELLO: u8 = 0xa5;

/// Encode the agent's one-shot handshake: which switch this connection is.
pub fn encode_hello(switch: SwitchId) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(HELLO);
    put_switch(&mut w, switch);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn get_var(r: &mut Reader<'_>) -> Result<StateVar, FrameError> {
    Ok(StateVar(r.str()?.into()))
}

fn get_switch(r: &mut Reader<'_>) -> Result<SwitchId, FrameError> {
    Ok(SwitchId(r.u64()? as usize))
}

fn get_table(r: &mut Reader<'_>) -> Result<StateTable, FrameError> {
    let mut table = StateTable::with_default(r.value()?);
    for _ in 0..r.seq_len(2)? {
        let index = r.seq(1, Reader::value)?;
        table.set(index, r.value()?);
    }
    Ok(table)
}

fn get_meta(r: &mut Reader<'_>) -> Result<SwitchMeta, FrameError> {
    let local_vars = r.seq(4, get_var)?.into_iter().collect();
    let ports = r.seq(8, Reader::u64)?.into_iter();
    let ports = ports.map(|port| PortId(port as usize)).collect();
    Ok(SwitchMeta { local_vars, ports })
}

fn get_placement(r: &mut Reader<'_>) -> Result<BTreeMap<StateVar, SwitchId>, FrameError> {
    let pairs = r.seq(12, |r| Ok::<_, FrameError>((get_var(r)?, get_switch(r)?)))?;
    Ok(pairs.into_iter().collect())
}

/// Decode a controller→agent payload.
pub fn decode_to_agent(buf: &[u8]) -> Result<ToAgent, FrameError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        0 => ToAgent::Prepare(Box::new(PrepareMsg {
            epoch: r.u64()?,
            resync: r.bool()?,
            delta: r.bytes()?.to_vec(),
            meta: r.bool()?.then(|| get_meta(&mut r)).transpose()?,
            placement: r.bool()?.then(|| get_placement(&mut r)).transpose()?,
        })),
        1 => ToAgent::Commit { epoch: r.u64()? },
        2 => ToAgent::Abort { epoch: r.u64()? },
        3 => ToAgent::InstallTable {
            epoch: r.u64()?,
            var: get_var(&mut r)?,
            table: get_table(&mut r)?,
        },
        4 => ToAgent::Shutdown,
        t => return Err(FrameError::BadTag("message", t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decode an agent→controller payload.
pub fn decode_from_agent(buf: &[u8]) -> Result<FromAgent, FrameError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        0 => FromAgent::Prepared {
            switch: get_switch(&mut r)?,
            epoch: r.u64()?,
            new_nodes: r.u64()?,
        },
        1 => FromAgent::PrepareFailed {
            switch: get_switch(&mut r)?,
            epoch: r.u64()?,
            reason: r.str()?.into(),
        },
        2 => FromAgent::Committed {
            switch: get_switch(&mut r)?,
            epoch: r.u64()?,
            yields: r.seq(2, |r| Ok::<_, FrameError>((get_var(r)?, get_table(r)?)))?,
        },
        3 => FromAgent::Installed {
            switch: get_switch(&mut r)?,
            epoch: r.u64()?,
            var: get_var(&mut r)?,
        },
        t => return Err(FrameError::BadTag("message", t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decode the agent's handshake frame.
pub fn decode_hello(buf: &[u8]) -> Result<SwitchId, FrameError> {
    let mut r = Reader::new(buf);
    if r.u8()? != HELLO {
        return Err(FrameError::BadValue);
    }
    let switch = get_switch(&mut r)?;
    r.finish()?;
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
    use snap_lang::{Ipv4, Prefix, Value};

    fn sample_table() -> StateTable {
        let mut t = StateTable::with_default(Value::Int(0));
        t.set(
            vec![Value::Ip(Ipv4::new(10, 0, 0, 1)), Value::str("a.example")],
            Value::Int(7),
        );
        t.set(
            vec![Value::tuple(vec![Value::Bool(true), Value::sym("SYN")])],
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
        let mut w = Writer::new();
        w.u8(3); // InstallTable
        w.u64(1);
        w.str("v");
        for _ in 0..200 {
            w.u8(6); // Tuple
            w.u32(1);
        }
        w.u8(0);
        w.i64(0);
        assert!(matches!(
            decode_to_agent(&w.into_bytes()),
            Err(FrameError::TooDeep) | Err(FrameError::Truncated) | Err(FrameError::BadLength)
        ));
    }
}
