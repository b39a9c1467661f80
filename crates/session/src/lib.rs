//! # snap-session
//!
//! Long-lived incremental compilation sessions for the SNAP compiler — the
//! controller-facing layer of the paper's operational story (§6): a
//! controller recompiles the network program whenever the policy or the
//! traffic matrix changes, and almost everything between two consecutive
//! compilations is identical.
//!
//! A [`CompilerSession`] owns a persistent hash-consed [`snap_xfdd::Pool`]
//! across compilations and exploits that persistence four ways:
//!
//! * **Fingerprinted subtree reuse** — every translated policy subtree is
//!   cached under a structural fingerprint, so an edit to one branch of
//!   `p + q` re-translates only that branch while the compositions above it
//!   hit the pool's warm memo tables (~ns instead of ~hundreds of µs). The
//!   recursion itself is `snap_xfdd::translate_with`, the same one a cold
//!   compile runs; the session only supplies the memo.
//! * **Placement reuse** — when the packet-state mapping and the dependency
//!   relations come out unchanged, the previous placement/routing solution
//!   is provably still optimal for the same traffic, and P4/P5 are skipped.
//! * **Version cache** — a small LRU of fully compiled policy versions, so
//!   recompiling anything the session has built before (rollbacks,
//!   attack/calm toggles, A/B flips) runs no phase at all; traffic changes
//!   invalidate it, since placement was optimized for the old matrix.
//! * **Pool GC** — long-lived pools accumulate dead intermediate nodes;
//!   sessions bound memory with a mark-from-roots compactor
//!   ([`CompilerSession::compact_now`], automatic above
//!   [`SessionOptions::gc_threshold`]) that keeps recently used cached
//!   subtrees alive and rewrites their ids through the remap table.
//!
//! A session compiles; it does not run packets. Results leave through
//! [`CompilerSession::take_update`] — the compilation plus what changed per
//! switch since the previous one — which `snap-distrib`'s controller turns
//! into a wire delta and a two-phase epoch commit across the switch agents.
//!
//! ```
//! use snap_session::CompilerSession;
//! use snap_lang::prelude::*;
//! use snap_topology::{generators, TrafficMatrix};
//!
//! let topo = generators::campus();
//! let tm = TrafficMatrix::uniform(&topo, 10.0);
//! let mut session = CompilerSession::new(topo, tm);
//!
//! let count = |limit: i64| {
//!     ite(
//!         state_test("count", vec![field(Field::InPort)], int(limit)),
//!         drop(),
//!         state_incr("count", vec![field(Field::InPort)]),
//!     )
//!     .seq(modify(Field::OutPort, Value::Int(6)))
//! };
//! session.compile(&count(10)).unwrap();
//! let cold_pool = session.pool_len();
//!
//! // A policy edit recompiles incrementally: same mapping, placement reused.
//! let updated = session.compile(&count(20)).unwrap();
//! assert!(session.stats().subtree_hits > 0);
//! assert_eq!(session.stats().placement_reuses, 1);
//! assert!(session.pool_len() >= cold_pool);
//! assert_eq!(session.epoch(), 2);
//!
//! // What a distribution plane ships: everything the first time, then only
//! // the switches whose metadata moved.
//! let update = session.take_update().unwrap();
//! assert!(update.changes.first);
//! assert_eq!(update.session_epoch, 2);
//! # let _ = updated;
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod session;

pub use cache::{fingerprint, TranslationCache};
pub use session::{
    CompilerSession, GcReport, SessionOptions, SessionStats, SessionUpdate, SwitchChanges,
};
