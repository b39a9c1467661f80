//! # snap-lang
//!
//! The SNAP stateful network programming language, after
//! *"SNAP: Stateful Network-Wide Abstractions for Packet Processing"*
//! (SIGCOMM 2016).
//!
//! SNAP programs are written against **one big switch** (OBS): they read and
//! write packet header fields and global, persistent, array-valued state
//! variables, and compose in parallel (`p + q`) and sequence (`p ; q`).
//! This crate provides:
//!
//! * the abstract syntax ([`Policy`], [`Pred`], [`Expr`], [`StateVar`]),
//! * packets and values ([`Packet`], [`Value`], [`Field`]),
//! * the network state ([`Store`]),
//! * the formal evaluation semantics of the paper's appendix A
//!   ([`eval::eval`]), including detection of ambiguous (conflicting)
//!   compositions,
//! * a parser for the paper's surface syntax ([`parser::parse_policy`]) and a
//!   matching pretty printer ([`pretty::policy_to_string`]),
//! * an ergonomic builder DSL ([`builder`]),
//! * the bounds-checked byte codec ([`codec`]) that program payloads and
//!   controller↔agent frames serialise [`Value`]s through.
//!
//! The compiler that maps these programs onto a physical topology lives in
//! the `snap-core` crate; this crate is purely the language.
//!
//! ## Example
//!
//! ```
//! use snap_lang::prelude::*;
//!
//! // Count packets per ingress port and forward everything to port 6.
//! let program = state_incr("count", vec![field(Field::InPort)])
//!     .seq(modify(Field::OutPort, Value::Int(6)));
//!
//! let pkt = Packet::new().with(Field::InPort, 3);
//! let result = eval(&program, &Store::new(), &pkt).unwrap();
//! assert_eq!(result.packets.len(), 1);
//! assert_eq!(
//!     result.store.get(&StateVar::new("count"), &[Value::Int(3)]),
//!     Value::Int(1)
//! );
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod codec;
pub mod error;
pub mod eval;
pub mod packet;
pub mod parser;
pub mod pretty;
pub mod state;
pub mod value;

pub use ast::{Expr, Policy, Pred, StateVar};
pub use error::{EvalError, ParseError};
pub use eval::{
    eval, eval_expr, eval_index, eval_index_into, eval_pred, eval_trace, EvalResult, Log,
};
pub use packet::Packet;
pub use parser::{parse_policy, parse_pred};
pub use state::{StateTable, Store};
pub use value::{Field, Ipv4, Prefix, Text, Value};

/// A convenient glob-import for users of the language API.
pub mod prelude {
    pub use crate::ast::{Expr, Policy, Pred, StateVar};
    pub use crate::builder::*;
    pub use crate::error::{EvalError, ParseError};
    pub use crate::eval::{eval, eval_trace, EvalResult, Log};
    pub use crate::packet::Packet;
    pub use crate::parser::{parse_policy, parse_pred};
    pub use crate::pretty::{policy_to_pretty_lines, policy_to_string};
    pub use crate::state::{StateTable, Store};
    pub use crate::value::{Field, Ipv4, Prefix, Value};
}
