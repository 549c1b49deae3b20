//! Vector-level test harness: bus helpers and the two-phase domino
//! evaluation protocol, so macro tests can check `adder(a, b) == a + b`
//! without hand-driving individual nets.

use std::collections::BTreeMap;

use smart_netlist::Circuit;

use crate::{Logic, SimError, Simulator};

/// Drives the bit ports `"{prefix}{i}"` for `i in 0..width` from the low
/// `width` bits of `value`.
///
/// # Errors
///
/// Propagates [`SimError::UnknownPort`] if a bit port is missing.
pub fn set_bus(
    sim: &mut Simulator<'_>,
    prefix: &str,
    width: usize,
    value: u64,
) -> Result<(), SimError> {
    for i in 0..width {
        sim.set(
            &format!("{prefix}{i}"),
            Logic::from_bool((value >> i) & 1 == 1),
        )?;
    }
    Ok(())
}

/// Reads the bit ports `"{prefix}{i}"` for `i in 0..width` as an integer.
///
/// Returns `None` if any bit is `X`/`Z`.
///
/// # Errors
///
/// Propagates [`SimError::UnknownPort`] if a bit port is missing.
pub fn read_bus(sim: &Simulator<'_>, prefix: &str, width: usize) -> Result<Option<u64>, SimError> {
    let mut out = 0u64;
    for i in 0..width {
        match sim.get(&format!("{prefix}{i}"))?.to_bool() {
            Some(true) => out |= 1 << i,
            Some(false) => {}
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// Evaluates a circuit on one input vector, applying the domino two-phase
/// protocol when the circuit has a `clk` input port.
///
/// For clocked circuits: drive `clk = 0` with all data inputs **low**
/// (domino input discipline — inputs must be low during precharge), settle;
/// apply the vector, settle; raise `clk`, settle; read. For static
/// circuits: apply and settle.
///
/// Returns the value of every output port.
///
/// # Errors
///
/// Propagates simulator errors (unknown ports, non-convergence).
pub fn evaluate(
    circuit: &Circuit,
    inputs: &BTreeMap<String, bool>,
) -> Result<BTreeMap<String, Logic>, SimError> {
    let mut sim = Simulator::new(circuit);
    let has_clk = circuit
        .ports()
        .iter()
        .any(|p| p.name == "clk" && p.dir == smart_netlist::PortDir::Input);
    if has_clk {
        sim.set("clk", Logic::Zero)?;
        for name in inputs.keys() {
            sim.set(name, Logic::Zero)?;
        }
        sim.settle()?;
        for (name, &v) in inputs {
            sim.set(name, Logic::from_bool(v))?;
        }
        sim.settle()?;
        sim.set("clk", Logic::One)?;
        sim.settle()?;
    } else {
        for (name, &v) in inputs {
            sim.set(name, Logic::from_bool(v))?;
        }
        sim.settle()?;
    }
    let mut out = BTreeMap::new();
    for p in circuit.output_ports() {
        out.insert(p.name.clone(), sim.net_value(p.net));
    }
    Ok(out)
}

/// Like [`evaluate`] but with integer buses: inputs are `(prefix, width,
/// value)` triples, and every output port is returned by name.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluate_buses(
    circuit: &Circuit,
    buses: &[(&str, usize, u64)],
    scalars: &[(&str, bool)],
) -> Result<BTreeMap<String, Logic>, SimError> {
    let mut inputs = BTreeMap::new();
    for &(prefix, width, value) in buses {
        for i in 0..width {
            inputs.insert(format!("{prefix}{i}"), (value >> i) & 1 == 1);
        }
    }
    for &(name, v) in scalars {
        inputs.insert(name.to_owned(), v);
    }
    evaluate(circuit, &inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_netlist::{ComponentKind, DeviceRole, Skew};

    /// 2-bit inverter bank: y_i = !a_i.
    fn bank() -> Circuit {
        let mut c = Circuit::new("bank");
        for i in 0..2 {
            let a = c.add_net(format!("a{i}")).unwrap();
            let y = c.add_net(format!("y{i}")).unwrap();
            let p = c.label("P");
            let n = c.label("N");
            c.add(
                format!("u{i}"),
                ComponentKind::Inverter {
                    skew: Skew::Balanced,
                },
                &[a, y],
                &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
            )
            .unwrap();
            c.expose_input(format!("a{i}"), a);
            c.expose_output(format!("y{i}"), y);
        }
        c
    }

    #[test]
    fn bus_roundtrip() {
        let c = bank();
        let mut sim = Simulator::new(&c);
        set_bus(&mut sim, "a", 2, 0b10).unwrap();
        sim.settle().unwrap();
        assert_eq!(read_bus(&sim, "y", 2).unwrap(), Some(0b01));
    }

    #[test]
    fn evaluate_static_circuit() {
        let c = bank();
        let out = evaluate_buses(&c, &[("a", 2, 0b01)], &[]).unwrap();
        assert_eq!(out["y0"], Logic::Zero);
        assert_eq!(out["y1"], Logic::One);
    }

    #[test]
    fn read_bus_returns_none_on_x() {
        let c = bank();
        let sim = Simulator::new(&c); // nothing driven: outputs X
        assert_eq!(read_bus(&sim, "y", 2).unwrap(), None);
    }
}
