//! The circuit container: nets + components + labels + ports, with
//! incremental connectivity indices, width/clock-load accounting and lint.

use std::collections::HashMap;

use crate::{
    CompId, Component, ComponentKind, DeviceRole, LabelId, LabelPool, LoadKind, Net, NetId,
    NetKind, NetlistError, Port, PortDir, Sizing,
};

/// A flat, labeled, component-level circuit — one entry of the SMART design
/// database once a generator has elaborated it.
///
/// ```
/// use smart_netlist::{Circuit, ComponentKind, DeviceRole, Skew};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new("buf");
/// let a = c.add_net("a")?;
/// let y = c.add_net("y")?;
/// let p = c.label("P1");
/// let n = c.label("N1");
/// c.add(
///     "u_inv",
///     ComponentKind::Inverter { skew: Skew::Balanced },
///     &[a, y],
///     &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
/// )?;
/// c.expose_input("a", a);
/// c.expose_output("y", y);
/// assert_eq!(c.device_count(), 2);
/// assert!(c.lint().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    nets: Vec<Net>,
    net_by_name: HashMap<String, NetId>,
    components: Vec<Component>,
    comp_by_path: HashMap<String, CompId>,
    labels: LabelPool,
    ports: Vec<Port>,
    drivers: Vec<Vec<CompId>>,
    loads: Vec<Vec<(CompId, usize)>>,
}

/// Whole-circuit consistency findings from [`Circuit::lint`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LintIssue {
    /// A net with loads but no driver and no input port.
    FloatingNet {
        /// The undriven net.
        net: NetId,
        /// Its name.
        name: String,
    },
    /// A net driven by more than one component where not all drivers can
    /// release the net (only pass gates / tri-states may share).
    DriverConflict {
        /// The contested net.
        net: NetId,
        /// Its name.
        name: String,
        /// Number of drivers.
        drivers: usize,
    },
    /// A label that no component binds (usually a generator bug).
    UnusedLabel {
        /// The orphaned label.
        label: LabelId,
        /// Its name.
        name: String,
    },
    /// An output port on a net that nothing drives.
    UndrivenOutput {
        /// The port name.
        port: String,
    },
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            nets: Vec::new(),
            net_by_name: HashMap::new(),
            components: Vec::new(),
            comp_by_path: HashMap::new(),
            labels: LabelPool::new(),
            ports: Vec::new(),
            drivers: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Nets
    // ------------------------------------------------------------------

    /// Adds a signal net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        self.add_net_kind(name, NetKind::Signal)
    }

    /// Adds a net of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_net_kind(
        &mut self,
        name: impl Into<String>,
        kind: NetKind,
    ) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.net_by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let id = NetId(self.nets.len() as u32);
        self.net_by_name.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            kind,
            wire_cap: 0.0,
        });
        self.drivers.push(Vec::new());
        self.loads.push(Vec::new());
        Ok(id)
    }

    /// Sets the fixed wire capacitance of `net` (width-equivalent units).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative or not finite.
    pub fn set_wire_cap(&mut self, net: NetId, cap: f64) {
        assert!(cap.is_finite() && cap >= 0.0, "wire cap must be >= 0");
        self.nets[net.index()].wire_cap = cap;
    }

    /// The net record for `id`.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// All nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_by_name.get(name).copied()
    }

    // ------------------------------------------------------------------
    // Labels
    // ------------------------------------------------------------------

    /// Returns (or creates) the size label `name`.
    pub fn label(&mut self, name: &str) -> LabelId {
        self.labels.label(name)
    }

    /// The label pool.
    pub fn labels(&self) -> &LabelPool {
        &self.labels
    }

    // ------------------------------------------------------------------
    // Components
    // ------------------------------------------------------------------

    /// Instantiates a component.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateName`] — instance path already used.
    /// * [`NetlistError::PinCountMismatch`] — `conns` length wrong for kind.
    /// * [`NetlistError::UnknownNet`] / [`NetlistError::UnknownLabel`] —
    ///   dangling reference.
    /// * [`NetlistError::UnboundRole`] — a label role of the kind has no
    ///   binding in `bindings`.
    pub fn add(
        &mut self,
        path: impl Into<String>,
        kind: ComponentKind,
        conns: &[NetId],
        bindings: &[(DeviceRole, LabelId)],
    ) -> Result<CompId, NetlistError> {
        let path = path.into();
        if self.comp_by_path.contains_key(&path) {
            return Err(NetlistError::DuplicateName { name: path });
        }
        if conns.len() != kind.pin_count() {
            return Err(NetlistError::PinCountMismatch {
                path,
                expected: kind.pin_count(),
                got: conns.len(),
            });
        }
        for &n in conns {
            if n.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet {
                    path,
                    index: n.index(),
                });
            }
        }
        for &(_, l) in bindings {
            if l.index() >= self.labels.len() {
                return Err(NetlistError::UnknownLabel {
                    path,
                    index: l.index(),
                });
            }
        }
        for role in kind.label_roles() {
            if !bindings.iter().any(|&(r, _)| r == role) {
                return Err(NetlistError::UnboundRole {
                    path,
                    role: format!("{role:?}"),
                });
            }
        }
        let id = CompId(self.components.len() as u32);
        let out_pin = kind.output_pin();
        for (pin, &n) in conns.iter().enumerate() {
            if pin == out_pin {
                self.drivers[n.index()].push(id);
            } else {
                self.loads[n.index()].push((id, pin));
            }
        }
        self.comp_by_path.insert(path.clone(), id);
        self.components
            .push(Component::new(path, kind, conns.to_vec(), bindings.to_vec()));
        Ok(id)
    }

    /// The component record for `id`.
    pub fn comp(&self, id: CompId) -> &Component {
        &self.components[id.index()]
    }

    /// All components with their ids.
    pub fn components(&self) -> impl Iterator<Item = (CompId, &Component)> {
        self.components
            .iter()
            .enumerate()
            .map(|(i, c)| (CompId(i as u32), c))
    }

    /// Number of component instances.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Finds a component by instance path.
    pub fn find_comp(&self, path: &str) -> Option<CompId> {
        self.comp_by_path.get(path).copied()
    }

    // ------------------------------------------------------------------
    // Ports
    // ------------------------------------------------------------------

    /// Exposes `net` as an input port.
    pub fn expose_input(&mut self, name: impl Into<String>, net: NetId) {
        self.ports.push(Port {
            name: name.into(),
            net,
            dir: PortDir::Input,
        });
    }

    /// Exposes `net` as an output port.
    pub fn expose_output(&mut self, name: impl Into<String>, net: NetId) {
        self.ports.push(Port {
            name: name.into(),
            net,
            dir: PortDir::Output,
        });
    }

    /// All ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Input ports only.
    pub fn input_ports(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Output ports only.
    pub fn output_ports(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }

    // ------------------------------------------------------------------
    // Connectivity
    // ------------------------------------------------------------------

    /// Components whose output pin drives `net`.
    pub fn drivers_of(&self, net: NetId) -> &[CompId] {
        &self.drivers[net.index()]
    }

    /// `(component, pin)` pairs whose input pin hangs on `net`.
    pub fn loads_of(&self, net: NetId) -> &[(CompId, usize)] {
        &self.loads[net.index()]
    }

    // ------------------------------------------------------------------
    // Accounting — the paper's quality metrics
    // ------------------------------------------------------------------

    /// Total number of transistors after device expansion.
    pub fn device_count(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.kind.roles().iter().map(|r| r.mult).sum::<usize>())
            .sum()
    }

    /// Total transistor width under `sizing` — the paper's area/power proxy
    /// (Figs. 5-6, Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `sizing` does not cover every label.
    pub fn total_width(&self, sizing: &Sizing) -> f64 {
        self.components
            .iter()
            .map(|c| {
                c.kind
                    .roles()
                    .iter()
                    .map(|r| {
                        sizing.width(c.label_of(r.role)) * r.width_factor * r.mult as f64
                    })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Total gate width hanging on clock nets — the paper's "clock load"
    /// metric (Table 1, Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if `sizing` does not cover every label.
    pub fn clock_load(&self, sizing: &Sizing) -> f64 {
        let mut total = 0.0;
        for (id, net) in self.nets() {
            if net.kind != NetKind::Clock {
                continue;
            }
            for &(comp, pin) in self.loads_of(id) {
                let c = self.comp(comp);
                for load in c.kind.input_load(pin) {
                    if load.kind == LoadKind::Gate {
                        total += sizing.width(c.label_of(load.role)) * load.factor;
                    }
                }
            }
        }
        total
    }

    /// Capacitive load on `net` in width-equivalent units: receiver gate
    /// cap + driver self (junction) cap × `diff_factor` + wire cap.
    ///
    /// `diff_factor` is the junction-to-gate capacitance ratio of the
    /// process (the model library supplies it; ~0.5 for the reference
    /// process).
    ///
    /// # Panics
    ///
    /// Panics if `sizing` does not cover every label.
    pub fn net_cap(&self, net: NetId, sizing: &Sizing, diff_factor: f64) -> f64 {
        let mut cap = self.net(net).wire_cap;
        for &(comp, pin) in self.loads_of(net) {
            let c = self.comp(comp);
            for load in c.kind.input_load(pin) {
                let w = sizing.width(c.label_of(load.role)) * load.factor;
                cap += match load.kind {
                    LoadKind::Gate => w,
                    LoadKind::Diffusion => w * diff_factor,
                };
            }
        }
        for &comp in self.drivers_of(net) {
            let c = self.comp(comp);
            for load in c.kind.output_self_load() {
                cap += sizing.width(c.label_of(load.role)) * load.factor * diff_factor;
            }
        }
        cap
    }

    /// Adds routing parasitics to every net: `wire_cap += k0 + k1·pins`
    /// where `pins` counts connected component pins (drivers + loads).
    /// Elaborated macros call this so sized results reflect layout
    /// loading; without it, gate-dominated circuits are scale-invariant
    /// and sizing degenerates.
    pub fn add_route_parasitics(&mut self, k0: f64, k1: f64) {
        assert!(k0 >= 0.0 && k1 >= 0.0, "parasitic coefficients must be >= 0");
        for i in 0..self.nets.len() {
            let pins = self.drivers[i].len() + self.loads[i].len();
            if pins == 0 {
                continue;
            }
            self.nets[i].wire_cap += k0 + k1 * pins as f64;
        }
    }

    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /// A stable 64-bit fingerprint of the circuit's full structure: nets
    /// (name, kind, wire cap), labels, components (path, kind with all
    /// parameters, pin connections, label bindings) and ports.
    ///
    /// Two circuits built by the same deterministic generator always agree;
    /// any structural difference — a rewired pin, a swapped label binding,
    /// a changed wire cap — changes the hash. The sizing memoization cache
    /// keys on this, so the encoding length-prefixes every variable-length
    /// field (no concatenation-boundary collisions) and hashes exact `f64`
    /// bit patterns.
    ///
    /// The hash is order-sensitive: it fingerprints the elaborated netlist
    /// as built, not a graph-isomorphism class. That is the right identity
    /// for memoization because generators are deterministic — equal specs
    /// produce byte-equal build sequences.
    pub fn structural_hash(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = crate::StableHasher::new();
        // One scratch buffer carries every `Debug` form below, so the
        // byte stream (and hence every persisted cache key) is the one a
        // per-item `format!` would produce, without an allocation each.
        let mut buf = String::with_capacity(64);
        let mut write_debug = |h: &mut crate::StableHasher, v: &dyn std::fmt::Debug| {
            buf.clear();
            let _ = write!(buf, "{v:?}");
            h.write_str(&buf);
        };
        h.write_str(&self.name);
        h.write_usize(self.nets.len());
        for net in &self.nets {
            h.write_str(&net.name);
            write_debug(&mut h, &net.kind);
            h.write_f64_bits(net.wire_cap);
        }
        h.write_usize(self.labels.len());
        for (_, name) in self.labels.iter() {
            h.write_str(name);
        }
        h.write_usize(self.components.len());
        for c in &self.components {
            h.write_str(&c.path);
            // The Debug form of a kind covers every parameter (skew,
            // fan-in, network shape, ...) unambiguously.
            write_debug(&mut h, &c.kind);
            h.write_usize(c.conns.len());
            for n in &c.conns {
                h.write_u32(n.0);
            }
            let bindings = c.label_bindings();
            h.write_usize(bindings.len());
            for (role, label) in bindings {
                write_debug(&mut h, role);
                h.write_u32(label.0);
            }
        }
        h.write_usize(self.ports.len());
        for p in &self.ports {
            h.write_str(&p.name);
            h.write_u32(p.net.0);
            h.write_bool(p.dir == PortDir::Output);
        }
        h.finish()
    }

    // ------------------------------------------------------------------
    // Lint
    // ------------------------------------------------------------------

    /// Whole-circuit consistency checks; an empty result means clean.
    pub fn lint(&self) -> Vec<LintIssue> {
        let mut issues = Vec::new();
        let input_nets: Vec<bool> = {
            let mut v = vec![false; self.nets.len()];
            for p in self.input_ports() {
                v[p.net.index()] = true;
            }
            v
        };
        for (id, net) in self.nets() {
            let drivers = self.drivers_of(id);
            let has_loads = !self.loads_of(id).is_empty();
            if drivers.is_empty() && has_loads && !input_nets[id.index()] {
                issues.push(LintIssue::FloatingNet {
                    net: id,
                    name: net.name.clone(),
                });
            }
            if drivers.len() > 1 {
                let all_shared = drivers
                    .iter()
                    .all(|&d| self.comp(d).kind.is_shared_driver());
                if !all_shared {
                    issues.push(LintIssue::DriverConflict {
                        net: id,
                        name: net.name.clone(),
                        drivers: drivers.len(),
                    });
                }
            }
        }
        let mut used = vec![false; self.labels.len()];
        for c in &self.components {
            for &(_, l) in c.label_bindings() {
                used[l.index()] = true;
            }
        }
        for (label, name) in self.labels.iter() {
            if !used[label.index()] {
                issues.push(LintIssue::UnusedLabel {
                    label,
                    name: name.to_owned(),
                });
            }
        }
        for p in self.output_ports() {
            if self.drivers_of(p.net).is_empty() && !input_nets[p.net.index()] {
                issues.push(LintIssue::UndrivenOutput {
                    port: p.name.clone(),
                });
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, Skew};

    fn inverter_labels(c: &mut Circuit) -> Vec<(DeviceRole, LabelId)> {
        vec![
            (DeviceRole::PullUp, c.label("P1")),
            (DeviceRole::PullDown, c.label("N1")),
        ]
    }

    #[test]
    fn build_and_account_inverter_chain() {
        let mut c = Circuit::new("chain");
        let a = c.add_net("a").unwrap();
        let m = c.add_net("m").unwrap();
        let y = c.add_net("y").unwrap();
        let labels = inverter_labels(&mut c);
        c.add(
            "u1",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, m],
            &labels,
        )
        .unwrap();
        c.add(
            "u2",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[m, y],
            &labels,
        )
        .unwrap();
        c.expose_input("a", a);
        c.expose_output("y", y);

        assert_eq!(c.device_count(), 4);
        let mut sizing = Sizing::uniform(c.labels(), 1.0);
        sizing.set_width(c.labels().lookup("P1").unwrap(), 2.0);
        assert_eq!(c.total_width(&sizing), 2.0 * (2.0 + 1.0));
        assert!(c.lint().is_empty(), "{:?}", c.lint());
        assert_eq!(c.drivers_of(m).len(), 1);
        assert_eq!(c.loads_of(m).len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Circuit::new("t");
        c.add_net("a").unwrap();
        assert!(matches!(
            c.add_net("a"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn pin_count_validated() {
        let mut c = Circuit::new("t");
        let a = c.add_net("a").unwrap();
        let labels = inverter_labels(&mut c);
        let err = c
            .add(
                "u1",
                ComponentKind::Inverter { skew: Skew::Balanced },
                &[a],
                &labels,
            )
            .unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
    }

    #[test]
    fn unbound_role_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_net("a").unwrap();
        let y = c.add_net("y").unwrap();
        let p = c.label("P1");
        let err = c
            .add(
                "u1",
                ComponentKind::Inverter { skew: Skew::Balanced },
                &[a, y],
                &[(DeviceRole::PullUp, p)],
            )
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnboundRole { .. }));
    }

    #[test]
    fn clock_load_counts_only_clock_nets() {
        let mut c = Circuit::new("dom");
        let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
        let d = c.add_net("d").unwrap();
        let dyn_n = c.add_net_kind("dyn", NetKind::Dynamic).unwrap();
        let pre = c.label("P1");
        let data = c.label("N1");
        let foot = c.label("N2");
        c.add(
            "u_dom",
            ComponentKind::Domino {
                network: Network::Input(0),
                clocked_eval: true,
            },
            &[clk, d, dyn_n],
            &[
                (DeviceRole::Precharge, pre),
                (DeviceRole::DataN, data),
                (DeviceRole::Evaluate, foot),
            ],
        )
        .unwrap();
        c.expose_input("clk", clk);
        c.expose_input("d", d);
        c.expose_output("dyn", dyn_n);

        let mut sizing = Sizing::uniform(c.labels(), 1.0);
        sizing.set_width(pre, 3.0);
        sizing.set_width(foot, 5.0);
        // Clock load = precharge gate (3.0) + evaluate gate (5.0).
        assert!((c.clock_load(&sizing) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn lint_flags_floating_and_conflicts() {
        let mut c = Circuit::new("bad");
        let a = c.add_net("a").unwrap();
        let y = c.add_net("y").unwrap();
        let labels = inverter_labels(&mut c);
        // Two static inverters fighting over y; a floats (no input port).
        c.add(
            "u1",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &labels,
        )
        .unwrap();
        c.add(
            "u2",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &labels,
        )
        .unwrap();
        let issues = c.lint();
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::FloatingNet { .. })));
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::DriverConflict { .. })));
    }

    #[test]
    fn shared_drivers_allowed_for_pass_gates() {
        let mut c = Circuit::new("mux");
        let d0 = c.add_net("d0").unwrap();
        let d1 = c.add_net("d1").unwrap();
        let s0 = c.add_net("s0").unwrap();
        let s1 = c.add_net("s1").unwrap();
        let y = c.add_net("y").unwrap();
        let n2 = c.label("N2");
        let bind = vec![
            (DeviceRole::PassN, n2),
            (DeviceRole::PassP, n2),
            (DeviceRole::PassInv, n2),
        ];
        c.add("pg0", ComponentKind::PassGate, &[d0, s0, y], &bind)
            .unwrap();
        c.add("pg1", ComponentKind::PassGate, &[d1, s1, y], &bind)
            .unwrap();
        for (name, net) in [("d0", d0), ("d1", d1), ("s0", s0), ("s1", s1)] {
            c.expose_input(name, net);
        }
        c.expose_output("y", y);
        assert!(c
            .lint()
            .iter()
            .all(|i| !matches!(i, LintIssue::DriverConflict { .. })));
    }

    #[test]
    fn net_cap_sums_gate_diffusion_and_wire() {
        let mut c = Circuit::new("t");
        let a = c.add_net("a").unwrap();
        let y = c.add_net("y").unwrap();
        let z = c.add_net("z").unwrap();
        let labels = inverter_labels(&mut c);
        c.add(
            "u1",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &labels,
        )
        .unwrap();
        c.add(
            "u2",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[y, z],
            &labels,
        )
        .unwrap();
        c.set_wire_cap(y, 1.5);
        let sizing = Sizing::uniform(c.labels(), 2.0);
        // Gate cap of u2: 2+2 = 4; self cap of u1: (2+2)*0.5 = 2; wire 1.5.
        let cap = c.net_cap(y, &sizing, 0.5);
        assert!((cap - 7.5).abs() < 1e-12, "cap {cap}");
    }
}
