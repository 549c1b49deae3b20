//! SMART — Smart Macro Design Advisor: a full reproduction of
//! *"Macro-Driven Circuit Design Methodology for High-Performance
//! Datapaths"* (Nemani & Tiwari, DAC 2000).
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`netlist`] — labeled transistor/component circuit IR.
//! * [`posy`] / [`gp`] — posynomial algebra and the geometric-program
//!   solver behind the sizer.
//! * [`models`] — posynomial delay/slope/capacitance model library.
//! * [`sta`] — static timing (the flow's PathMill role).
//! * [`sim`] — four-value functional simulator (design-database signoff).
//! * [`lint`] — the smart-lint electrical-rule engine (monotonicity
//!   dataflow, sneak-path/contention/charge-share checks) that gates
//!   exploration.
//! * [`audit`] — smart-audit, the pre-solve static analyzer of sizing
//!   GPs: interval bound propagation, infeasibility certificates,
//!   dominance pruning (DESIGN.md §15).
//! * [`power`] — switching power estimation (the PowerMill role).
//! * [`macros`] — the design database: mux/incrementor/zero-detect/
//!   decoder/encoder/comparator/adder/register-file generators.
//! * [`core`] — the SMART flow: path compaction, constraint generation,
//!   GP sizing loop, topology exploration, hand-design baseline.
//! * [`trace`] — smart-trace, the zero-dependency structured tracing /
//!   metrics layer over the explore → size → GP → STA flow. The library
//!   reads no environment: the `smart` binary turns tracing on with
//!   `SMART_TRACE=1` and sets the worker count with `SMART_WORKERS`; the
//!   examples and the bench bins read `SMART_WORKERS` themselves.
//! * [`chaos`] — smart-chaos, the deterministic fault-injection plan,
//!   virtual clock and candidate-scope plumbing behind the robustness
//!   harness (`examples/chaos.rs`, DESIGN.md §13).
//! * [`serve`] — smart-serve, the resident advisory daemon: newline-
//!   delimited JSON protocol over TCP/Unix sockets, cross-request sharded
//!   sizing cache with snapshot/warm-restart, batch endpoints over the
//!   worker pool (DESIGN.md §16).
//! * [`blocks`] — synthetic functional blocks for the §6.4/Table 2
//!   experiments.
//! * [`mod@bench`] — one function per paper table/figure.
//!
//! See `examples/quickstart.rs` for the canonical five-line flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smart_audit as audit;
pub use smart_bench as bench;
pub use smart_blocks as blocks;
pub use smart_chaos as chaos;
pub use smart_core as core;
pub use smart_gp as gp;
pub use smart_lint as lint;
pub use smart_macros as macros;
pub use smart_models as models;
pub use smart_netlist as netlist;
pub use smart_posy as posy;
pub use smart_power as power;
pub use smart_serve as serve;
pub use smart_sim as sim;
pub use smart_sta as sta;
pub use smart_trace as trace;
