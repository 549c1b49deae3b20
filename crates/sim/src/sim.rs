//! Event-driven evaluation of a component netlist.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use smart_netlist::{Circuit, CompId, ComponentKind, NetId, Network, PortDir};

use crate::Logic;

/// Errors raised during simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A named port does not exist.
    UnknownPort {
        /// The missing name.
        name: String,
    },
    /// The port exists but is not an input.
    NotAnInput {
        /// The port name.
        name: String,
    },
    /// The event loop did not reach a fixpoint (combinational loop without
    /// a stable solution).
    NoConvergence,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownPort { name } => write!(f, "no port named '{name}'"),
            SimError::NotAnInput { name } => write!(f, "port '{name}' is not an input"),
            SimError::NoConvergence => write!(f, "simulation did not converge to a fixpoint"),
        }
    }
}

impl Error for SimError {}

/// Event-driven four-value simulator over a [`Circuit`].
///
/// Models the switch-level behaviours the SMART macro families rely on:
/// pass gates and tri-states releasing a shared net (`Z` + wired
/// resolution), dynamic nodes holding charge, domino precharge/evaluate
/// with contention detection on unfooted (D2) stages.
///
/// ```
/// use smart_netlist::{Circuit, ComponentKind, DeviceRole, Skew};
/// use smart_sim::{Logic, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new("inv");
/// let a = c.add_net("a")?;
/// let y = c.add_net("y")?;
/// let p = c.label("P");
/// let n = c.label("N");
/// c.add("u", ComponentKind::Inverter { skew: Skew::Balanced }, &[a, y],
///       &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)])?;
/// c.expose_input("a", a);
/// c.expose_output("y", y);
///
/// let mut sim = Simulator::new(&c);
/// sim.set("a", Logic::One)?;
/// sim.settle()?;
/// assert_eq!(sim.get("y")?, Logic::Zero);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    circuit: &'a Circuit,
    /// Resolved value per net.
    values: Vec<Logic>,
    /// Externally forced value per net (input ports).
    forced: Vec<Option<Logic>>,
    /// Contribution of each component to its output net.
    contribution: Vec<Logic>,
    queue: VecDeque<CompId>,
    queued: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with every net at `X` (`Z` for nets that only
    /// shared drivers touch).
    pub fn new(circuit: &'a Circuit) -> Self {
        let n = circuit.net_count();
        let m = circuit.component_count();
        Simulator {
            circuit,
            values: vec![Logic::X; n],
            forced: vec![None; n],
            contribution: vec![Logic::Z; m],
            queue: VecDeque::new(),
            queued: vec![false; m],
        }
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Forces input port `name` to `value`; takes effect at the next
    /// [`Simulator::settle`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] / [`SimError::NotAnInput`].
    pub fn set(&mut self, name: &str, value: Logic) -> Result<(), SimError> {
        let port = self
            .circuit
            .ports()
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| SimError::UnknownPort { name: name.into() })?;
        if port.dir != PortDir::Input {
            return Err(SimError::NotAnInput { name: name.into() });
        }
        let net = port.net;
        self.forced[net.index()] = Some(value);
        if self.values[net.index()] != value {
            self.values[net.index()] = value;
            self.schedule_loads(net);
        }
        Ok(())
    }

    /// Reads the value of port or net `name`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPort`] if neither a port nor a net has that name.
    pub fn get(&self, name: &str) -> Result<Logic, SimError> {
        if let Some(p) = self.circuit.ports().iter().find(|p| p.name == name) {
            return Ok(self.values[p.net.index()]);
        }
        self.circuit
            .find_net(name)
            .map(|n| self.values[n.index()])
            .ok_or_else(|| SimError::UnknownPort { name: name.into() })
    }

    /// Reads a net by id.
    pub fn net_value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Propagates until a fixpoint.
    ///
    /// # Errors
    ///
    /// [`SimError::NoConvergence`] if the event budget is exhausted (an
    /// unstable combinational loop).
    pub fn settle(&mut self) -> Result<(), SimError> {
        // First call: evaluate everything once.
        if self.queue.is_empty() {
            for (id, _) in self.circuit.components() {
                self.enqueue(id);
            }
        }
        let budget = 64 * (self.circuit.component_count() + 1) * (self.circuit.net_count() + 1);
        let mut events = 0usize;
        while let Some(id) = self.queue.pop_front() {
            self.queued[id.index()] = false;
            events += 1;
            if events > budget {
                return Err(SimError::NoConvergence);
            }
            let out = self.circuit.comp(id).output_net();
            let contrib = self.evaluate(id);
            if contrib != self.contribution[id.index()] {
                self.contribution[id.index()] = contrib;
            }
            let resolved = self.resolve_net(out);
            if resolved != self.values[out.index()] {
                self.values[out.index()] = resolved;
                self.schedule_loads(out);
                // Re-resolve other drivers that share this net next round.
                for &d in self.circuit.drivers_of(out) {
                    if d != id {
                        self.enqueue(d);
                    }
                }
            }
        }
        Ok(())
    }

    fn enqueue(&mut self, id: CompId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.queue.push_back(id);
        }
    }

    fn schedule_loads(&mut self, net: NetId) {
        let loads: Vec<CompId> = self.circuit.loads_of(net).iter().map(|&(c, _)| c).collect();
        for c in loads {
            self.enqueue(c);
        }
    }

    /// Resolved value of a net from forced value + driver contributions,
    /// with charge retention when everything releases the net.
    fn resolve_net(&self, net: NetId) -> Logic {
        if let Some(v) = self.forced[net.index()] {
            return v;
        }
        let mut acc = Logic::Z;
        for &d in self.circuit.drivers_of(net) {
            acc = acc.resolve(self.contribution[d.index()]);
        }
        if acc == Logic::Z {
            // Floating: the node keeps its charge (dynamic nodes and pass
            // gate outputs). An never-driven node stays X from init.
            let prev = self.values[net.index()];
            if prev.is_strong() {
                return prev;
            }
            return prev; // X stays X, Z stays... normalized below
        }
        acc
    }

    fn input(&self, id: CompId, pin: usize) -> Logic {
        self.values[self.circuit.comp(id).conns[pin].index()]
    }

    /// Computes the output contribution of one component from current net
    /// values.
    fn evaluate(&self, id: CompId) -> Logic {
        let comp = self.circuit.comp(id);
        match &comp.kind {
            ComponentKind::Inverter { .. } => self.input(id, 0).not(),
            ComponentKind::Nand { inputs } => {
                let mut acc = Logic::One;
                for i in 0..*inputs as usize {
                    acc = acc.and(self.input(id, i));
                }
                acc.not()
            }
            ComponentKind::Nor { inputs } => {
                let mut acc = Logic::Zero;
                for i in 0..*inputs as usize {
                    acc = acc.or(self.input(id, i));
                }
                acc.not()
            }
            ComponentKind::Xor2 => self.input(id, 0).xor(self.input(id, 1)),
            ComponentKind::Xnor2 => self.input(id, 0).xor(self.input(id, 1)).not(),
            ComponentKind::Aoi21 => {
                let ab = self.input(id, 0).and(self.input(id, 1));
                ab.or(self.input(id, 2)).not()
            }
            ComponentKind::PassGate => match self.input(id, 1) {
                Logic::One => self.input(id, 0),
                Logic::Zero => Logic::Z,
                _ => Logic::X,
            },
            ComponentKind::Tristate => match self.input(id, 1) {
                Logic::One => self.input(id, 0).not(),
                Logic::Zero => Logic::Z,
                _ => Logic::X,
            },
            ComponentKind::Domino {
                network,
                clocked_eval,
            } => {
                let clk = self.input(id, 0);
                let conducts = self.network_state(id, network);
                match clk {
                    Logic::Zero => {
                        if !clocked_eval && conducts == Logic::One {
                            // Unfooted (D2) stage with a conducting pull-down
                            // during precharge: contention.
                            Logic::X
                        } else {
                            Logic::One
                        }
                    }
                    Logic::One => match conducts {
                        Logic::One => Logic::Zero,
                        Logic::Zero => Logic::Z, // holds precharged value
                        _ => Logic::X,
                    },
                    _ => Logic::X,
                }
            }
        }
    }

    /// Three-valued conduction state of a domino pull-down network.
    fn network_state(&self, id: CompId, network: &Network) -> Logic {
        match network {
            Network::Input(p) => match self.input(id, p + 1) {
                Logic::One => Logic::One,
                Logic::Zero => Logic::Zero,
                _ => Logic::X,
            },
            Network::Series(xs) => {
                let mut acc = Logic::One;
                for x in xs {
                    acc = acc.and(self.network_state(id, x));
                }
                acc
            }
            Network::Parallel(xs) => {
                let mut acc = Logic::Zero;
                for x in xs {
                    acc = acc.or(self.network_state(id, x));
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_netlist::{DeviceRole, NetKind, Skew};

    fn inv_bindings(c: &mut Circuit) -> Vec<(DeviceRole, smart_netlist::LabelId)> {
        vec![
            (DeviceRole::PullUp, c.label("P")),
            (DeviceRole::PullDown, c.label("N")),
        ]
    }

    #[test]
    fn nand_truth_table() {
        let mut c = Circuit::new("nand");
        let a = c.add_net("a").unwrap();
        let b = c.add_net("b").unwrap();
        let y = c.add_net("y").unwrap();
        let bind = inv_bindings(&mut c);
        c.add("u", ComponentKind::Nand { inputs: 2 }, &[a, b, y], &bind)
            .unwrap();
        c.expose_input("a", a);
        c.expose_input("b", b);
        c.expose_output("y", y);
        let mut sim = Simulator::new(&c);
        for (va, vb, exp) in [
            (false, false, true),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            sim.set("a", Logic::from_bool(va)).unwrap();
            sim.set("b", Logic::from_bool(vb)).unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.get("y").unwrap(), Logic::from_bool(exp), "{va},{vb}");
        }
    }

    #[test]
    fn pass_gate_mux_selects_and_holds() {
        let mut c = Circuit::new("mux2");
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
        for (n, id) in [("d0", d0), ("d1", d1), ("s0", s0), ("s1", s1)] {
            c.expose_input(n, id);
        }
        c.expose_output("y", y);
        let mut sim = Simulator::new(&c);
        sim.set("d0", Logic::Zero).unwrap();
        sim.set("d1", Logic::One).unwrap();
        sim.set("s0", Logic::Zero).unwrap();
        sim.set("s1", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::One);
        // Flip selection.
        sim.set("s0", Logic::One).unwrap();
        sim.set("s1", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::Zero);
        // All selects off: output floats and holds its last value.
        sim.set("s0", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::Zero, "charge retention");
        // Bus fight: both selects on with opposite data.
        sim.set("s0", Logic::One).unwrap();
        sim.set("s1", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::X, "conflict is X");
    }

    #[test]
    fn domino_precharge_evaluate() {
        let mut c = Circuit::new("dom_or2");
        let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
        let a = c.add_net("a").unwrap();
        let b = c.add_net("b").unwrap();
        let dyn_n = c.add_net_kind("dyn", NetKind::Dynamic).unwrap();
        let y = c.add_net("y").unwrap();
        let bind = vec![
            (DeviceRole::Precharge, c.label("P1")),
            (DeviceRole::DataN, c.label("N1")),
            (DeviceRole::Evaluate, c.label("N2")),
        ];
        c.add(
            "dom",
            ComponentKind::Domino {
                network: Network::parallel_of([0, 1]),
                clocked_eval: true,
            },
            &[clk, a, b, dyn_n],
            &bind,
        )
        .unwrap();
        let bind2 = inv_bindings(&mut c);
        c.add(
            "outinv",
            ComponentKind::Inverter { skew: Skew::High },
            &[dyn_n, y],
            &bind2,
        )
        .unwrap();
        c.expose_input("clk", clk);
        c.expose_input("a", a);
        c.expose_input("b", b);
        c.expose_output("y", y);

        let mut sim = Simulator::new(&c);
        // Precharge: dyn = 1, y = 0 regardless of inputs.
        sim.set("clk", Logic::Zero).unwrap();
        sim.set("a", Logic::One).unwrap();
        sim.set("b", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("dyn").unwrap(), Logic::One);
        assert_eq!(sim.get("y").unwrap(), Logic::Zero);
        // Evaluate with a=1: discharges, y = 1 (domino OR).
        sim.set("clk", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::One);
        // New cycle with both low: node holds precharge, y stays 0.
        sim.set("clk", Logic::Zero).unwrap();
        sim.set("a", Logic::Zero).unwrap();
        sim.settle().unwrap();
        sim.set("clk", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::Zero, "holds precharged high");
    }

    #[test]
    fn unfooted_domino_flags_precharge_contention() {
        let mut c = Circuit::new("d2");
        let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
        let a = c.add_net("a").unwrap();
        let dyn_n = c.add_net_kind("dyn", NetKind::Dynamic).unwrap();
        let bind = vec![
            (DeviceRole::Precharge, c.label("P1")),
            (DeviceRole::DataN, c.label("N1")),
        ];
        c.add(
            "dom",
            ComponentKind::Domino {
                network: Network::Input(0),
                clocked_eval: false,
            },
            &[clk, a, dyn_n],
            &bind,
        )
        .unwrap();
        c.expose_input("clk", clk);
        c.expose_input("a", a);
        c.expose_output("dyn", dyn_n);
        let mut sim = Simulator::new(&c);
        sim.set("clk", Logic::Zero).unwrap();
        sim.set("a", Logic::One).unwrap(); // input high during precharge!
        sim.settle().unwrap();
        assert_eq!(sim.get("dyn").unwrap(), Logic::X, "contention detected");
        // Proper discipline: input low during precharge.
        sim.set("a", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("dyn").unwrap(), Logic::One);
    }

    #[test]
    fn tristate_shared_bus() {
        let mut c = Circuit::new("bus");
        let d0 = c.add_net("d0").unwrap();
        let d1 = c.add_net("d1").unwrap();
        let e0 = c.add_net("e0").unwrap();
        let e1 = c.add_net("e1").unwrap();
        let y = c.add_net("y").unwrap();
        let bind = vec![
            (DeviceRole::TriP, c.label("P1")),
            (DeviceRole::TriN, c.label("N1")),
            (DeviceRole::TriInv, c.label("N1")),
        ];
        c.add("t0", ComponentKind::Tristate, &[d0, e0, y], &bind)
            .unwrap();
        c.add("t1", ComponentKind::Tristate, &[d1, e1, y], &bind)
            .unwrap();
        for (n, id) in [("d0", d0), ("d1", d1), ("e0", e0), ("e1", e1)] {
            c.expose_input(n, id);
        }
        c.expose_output("y", y);
        let mut sim = Simulator::new(&c);
        sim.set("d0", Logic::One).unwrap();
        sim.set("d1", Logic::Zero).unwrap();
        sim.set("e0", Logic::One).unwrap();
        sim.set("e1", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::Zero, "t0 inverts d0=1");
        sim.set("e0", Logic::Zero).unwrap();
        sim.set("e1", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get("y").unwrap(), Logic::One, "t1 inverts d1=0");
    }

    #[test]
    fn unknown_port_errors() {
        let c = Circuit::new("empty");
        let mut sim = Simulator::new(&c);
        assert!(matches!(
            sim.set("nope", Logic::One),
            Err(SimError::UnknownPort { .. })
        ));
        assert!(sim.get("nope").is_err());
    }
}
