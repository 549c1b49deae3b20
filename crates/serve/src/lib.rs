//! `smart-serve` — the resident advisory daemon over the SMART flow.
//!
//! The CLI pays the full startup cost — model library, macro database,
//! and an empty sizing cache — on every invocation, and its memoization
//! dies with the process. Interactive datapath work is the opposite
//! shape: a designer (or a sweep driver) issues hundreds of small
//! size/explore requests against the *same* database, where most GP
//! solves repeat earlier ones. This crate keeps that state resident:
//!
//! * **Wire protocol** — newline-delimited JSON over TCP or a Unix
//!   socket, one request line → one response line, through the
//!   workspace's one byte-stable JSON codec ([`json`], from
//!   `smart-trace`). Ops: `ping`, `size`, `explore`, `batch`, `stats`,
//!   `snapshot`, `restore`, `cancel`, `shutdown`.
//! * **Shared sizing cache** — one sharded [`smart_core::SizingCache`]
//!   (per-shard locks, LRU eviction under a configurable entry budget)
//!   serves every client and request; `snapshot`/`restore` persist it
//!   with a byte-stable float-bit-pattern encoding so a warm restart
//!   replays byte-identically.
//! * **Admission control** — bounded in-flight work plus per-request
//!   [`smart_core::FlowBudget`]s (wall clock, GP iterations, candidate
//!   caps) so one runaway request degrades to a typed `budget` row, not
//!   a wedged daemon; `cancel` fences stop in-flight or future requests
//!   by id.
//! * **Batch endpoints** — `batch` fans its items across the existing
//!   deterministic worker pool ([`smart_core::run_indexed`]); response
//!   rows come back in item order, byte-identical at any worker count.
//! * **Script mode** — [`run_script`] replays a request file in-process;
//!   the CI smoke byte-compares cold vs warm and serial vs parallel
//!   response streams with it.
//!
//! See DESIGN.md §16 for the architecture and the determinism contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod cli;
mod server;

/// The wire codec: the workspace's one JSON parser and writer.
pub use smart_trace::json;

pub use advisor::{Advisor, Control, Reply, ServeOptions, FENCE_CAP, MEMO_CAP};
pub use cli::run_cli;
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{run_script, serve_tcp, MAX_CONNECTIONS};
