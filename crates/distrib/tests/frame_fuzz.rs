//! Robustness of the transport frame codec against malformed input,
//! mirroring `snap-xfdd`'s `wire_fuzz.rs`: for valid encodings of
//! representative controller↔agent messages, every truncation must decode
//! to an error (never a panic), and arbitrary corruption must either error
//! or decode to a message the types themselves accept — the decoder is fed
//! network bytes and must never take the controller or a switch down.

use proptest::prelude::*;
use snap_distrib::frame::{decode_from_agent, decode_to_agent, encode_from_agent, encode_to_agent};
use snap_distrib::{FromAgent, PrepareMsg, SwitchMeta, ToAgent};
use snap_lang::{Ipv4, Prefix, StateTable, StateVar, Value};
use snap_topology::{NodeId as SwitchId, PortId};

/// A state table exercising every value shape the codec handles.
fn rich_table() -> StateTable {
    let mut t = StateTable::with_default(Value::Bool(false));
    t.set(
        vec![Value::Ip(Ipv4::new(10, 0, 0, 1)), Value::str("a.example")],
        Value::Prefix(Prefix::new(Ipv4::new(10, 0, 6, 0), 24)),
    );
    t.set(
        vec![Value::tuple(vec![Value::Int(-3), Value::sym("SYN")])],
        Value::Int(i64::MIN),
    );
    t
}

/// Representative frames covering every `ToAgent` variant.
fn to_agent_encodings() -> Vec<Vec<u8>> {
    let meta = SwitchMeta {
        local_vars: [StateVar("susp".into()), StateVar("seen".into())]
            .into_iter()
            .collect(),
        ports: [PortId(1), PortId(600)].into_iter().collect(),
    };
    let msgs = [
        ToAgent::Prepare(Box::new(PrepareMsg {
            epoch: 41,
            resync: true,
            delta: (0u16..300).map(|b| (b % 251) as u8).collect(),
            meta: Some(meta),
            placement: Some(
                [(StateVar("susp".into()), SwitchId(9))]
                    .into_iter()
                    .collect(),
            ),
        })),
        ToAgent::Prepare(Box::new(PrepareMsg {
            epoch: 42,
            resync: false,
            delta: vec![7; 16],
            meta: None,
            placement: None,
        })),
        ToAgent::Commit { epoch: 42 },
        ToAgent::Abort { epoch: 42 },
        ToAgent::InstallTable {
            epoch: 42,
            var: StateVar("susp".into()),
            table: rich_table(),
        },
        ToAgent::Shutdown,
    ];
    msgs.iter().map(encode_to_agent).collect()
}

/// Representative frames covering every `FromAgent` variant.
fn from_agent_encodings() -> Vec<Vec<u8>> {
    let msgs = [
        FromAgent::Prepared {
            switch: SwitchId(3),
            epoch: 41,
            new_nodes: 977,
        },
        FromAgent::PrepareFailed {
            switch: SwitchId(0),
            epoch: 41,
            reason: "delta rejected: \"bad suffix\"".into(),
        },
        FromAgent::Committed {
            switch: SwitchId(3),
            epoch: 41,
            yields: vec![
                (StateVar("susp".into()), rich_table()),
                (
                    StateVar("seen".into()),
                    StateTable::with_default(Value::Int(0)),
                ),
            ],
        },
        FromAgent::Installed {
            switch: SwitchId(9),
            epoch: 41,
            var: StateVar("susp".into()),
        },
    ];
    msgs.iter().map(encode_from_agent).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Any strict prefix is a decode error: no variant's encoding is a
    // prefix of itself plus garbage, and the mandatory trailing check
    // rejects frames that end early.
    #[test]
    fn truncated_to_agent_frames_error_and_never_panic(
        which in 0usize..6,
        cut in 0usize..100_000,
    ) {
        let bytes = &to_agent_encodings()[which];
        let cut = cut % bytes.len();
        prop_assert!(decode_to_agent(&bytes[..cut]).is_err());
    }

    #[test]
    fn truncated_from_agent_frames_error_and_never_panic(
        which in 0usize..4,
        cut in 0usize..100_000,
    ) {
        let bytes = &from_agent_encodings()[which];
        let cut = cut % bytes.len();
        prop_assert!(decode_from_agent(&bytes[..cut]).is_err());
    }

    // Arbitrary single-bit corruption must never panic (and in particular
    // must never drive an allocation off a corrupt length field): it either
    // errors or yields a structurally valid message.
    #[test]
    fn bit_flipped_to_agent_frames_never_panic(
        which in 0usize..6,
        pos in 0usize..100_000,
        bit in 0u32..8,
    ) {
        let mut bytes = to_agent_encodings()[which].clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = decode_to_agent(&bytes);
    }

    #[test]
    fn bit_flipped_from_agent_frames_never_panic(
        which in 0usize..4,
        pos in 0usize..100_000,
        bit in 0u32..8,
    ) {
        let mut bytes = from_agent_encodings()[which].clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(msg) = decode_from_agent(&bytes) {
            // Whatever decoded is a well-formed message the mux can route.
            let _ = (msg.switch(), msg.epoch());
        }
    }

    #[test]
    fn multi_byte_corruption_never_panics(
        which in 0usize..6,
        a in 0usize..100_000,
        b in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let mut bytes = to_agent_encodings()[which].clone();
        let len = bytes.len();
        bytes[a % len] = byte;
        bytes[b % len] = byte.wrapping_mul(31).wrapping_add(7);
        let _ = decode_to_agent(&bytes);
    }
}
