//! Transistor/component-level netlist IR for the SMART datapath flow.
//!
//! Reproduces the representation the SMART design database (Nemani &
//! Tiwari, DAC 2000, §4) is built on: *unsized* schematics whose device
//! groups carry **size labels** (`P1`, `N2`, ...). Shared labels encode the
//! layout regularity that the sizer later exploits to collapse the
//! optimization problem.
//!
//! * [`Circuit`] — flat component graph with hierarchy-bearing instance
//!   paths, nets (signal / clock / dynamic), ports and a [`LabelPool`].
//! * [`ComponentKind`] — the primitive catalogue across logic families
//!   (static CMOS, pass, tri-state, domino D1/D2), each with its pin
//!   interface, device expansion and pin-load model.
//! * [`Network`] — series/parallel NMOS pull-down composition of dynamic
//!   gates.
//! * [`Sizing`] — a width per label; [`Circuit::total_width`] and
//!   [`Circuit::clock_load`] compute the paper's quality metrics.
//! * [`spice::to_spice`] — SPICE-deck export of a sized circuit.
//! * [`Circuit::instantiate`] — hierarchical composition of macros into
//!   blocks (nets/components/labels namespaced per instance).
//! * [`text`] — a line-oriented structural netlist format with a full
//!   parser (round-trips every representable circuit).
//!
//! # Example
//!
//! ```
//! use smart_netlist::{Circuit, ComponentKind, DeviceRole, Sizing, Skew};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new("buf2");
//! let a = c.add_net("a")?;
//! let m = c.add_net("m")?;
//! let y = c.add_net("y")?;
//! let p1 = c.label("P1");
//! let n1 = c.label("N1");
//! for (i, (from, to)) in [(a, m), (m, y)].into_iter().enumerate() {
//!     c.add(
//!         format!("inv{i}"),
//!         ComponentKind::Inverter { skew: Skew::Balanced },
//!         &[from, to],
//!         &[(DeviceRole::PullUp, p1), (DeviceRole::PullDown, n1)],
//!     )?;
//! }
//! c.expose_input("a", a);
//! c.expose_output("y", y);
//!
//! let sizing = Sizing::uniform(c.labels(), 2.0);
//! assert_eq!(c.total_width(&sizing), 8.0); // 4 devices × width 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod compose;
mod component;
mod error;
mod hash;
mod kind;
mod label;
mod net;
mod network;
pub mod spice;
pub mod text;

pub use circuit::{Circuit, LintIssue};
pub use component::{CompId, Component};
pub use error::NetlistError;
pub use hash::StableHasher;
pub use kind::{ComponentKind, DeviceRole, LoadKind, LogicFamily, Mos, PinLoad, RoleSpec, Skew};
pub use label::{LabelId, LabelPool, Sizing};
pub use net::{Net, NetId, NetKind, Port, PortDir};
pub use network::{Network, PinIdx};
