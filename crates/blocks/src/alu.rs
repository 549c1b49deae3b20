//! A real composed datapath block: an ALU slice assembled from database
//! macros via [`Circuit::instantiate`]. Unlike the share-based synthetic
//! blocks of the §6.4/Table 2 experiments, this is one flat netlist that
//! every analysis (simulation, STA, sizing, power) runs on directly.

// Like the `smart-macros` generators, this module builds a netlist whose
// structure is correct by construction: builder errors are contract
// panics (the documented `# Panics` surface), not recoverable states,
// and the exploration runtime contains them per-candidate with
// catch_unwind. The unwrap/expect deny gate is relaxed for exactly this
// module, not the crate.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use smart_macros::helpers::{inverter, pass_gate};
use smart_macros::{barrel_shifter, cla_adder, zero_detect, ShiftKind, ZeroDetectStyle};
use smart_netlist::{Circuit, NetId, NetKind, Skew};

/// Builds a `bits`-wide ALU slice:
///
/// ```text
///   a, b ──► domino CLA adder ──► sum ─┐
///   a, sh ─► barrel rotator   ──► rot ─┼─► per-bit 2:1 pass mux ──► r
///                                      │            ▲ op
///                                      └─► zero-detect(r) ──► zd_z
/// ```
///
/// Ports: `clk`, `a0..`, `b0..`, `sh0..` (log2 bits), `op` (0 = add,
/// 1 = rotate-left), `cin`; outputs `r0..` and `zd_z` (result == 0).
/// Route parasitics are applied.
///
/// # Panics
///
/// Panics unless `bits` is a power of two in `2..=64` (the rotator's
/// constraint).
pub fn alu_slice(bits: usize) -> Circuit {
    let abits = bits.trailing_zeros() as usize;
    let mut alu = Circuit::new(format!("alu{bits}"));

    let clk = alu.add_net_kind("clk", NetKind::Clock).unwrap();
    alu.expose_input("clk", clk);
    let bus = |alu: &mut Circuit, prefix: &str, n: usize| -> Vec<NetId> {
        (0..n)
            .map(|i| {
                let net = alu.add_net(format!("{prefix}{i}")).unwrap();
                alu.expose_input(format!("{prefix}{i}"), net);
                net
            })
            .collect()
    };
    let a = bus(&mut alu, "a", bits);
    let b = bus(&mut alu, "b", bits);
    let sh = bus(&mut alu, "sh", abits);
    let op = alu.add_net("op").unwrap();
    alu.expose_input("op", op);
    let cin = alu.add_net("cin").unwrap();
    alu.expose_input("cin", cin);

    // Adder instance.
    let adder = cla_adder(bits);
    let mut map: HashMap<String, NetId> = HashMap::new();
    map.insert("clk".into(), clk);
    map.insert("cin0".into(), cin);
    for i in 0..bits {
        map.insert(format!("a{i}"), a[i]);
        map.insert(format!("b{i}"), b[i]);
    }
    let map = alu.auto_port_map("add", &adder, map).unwrap();
    alu.instantiate("add", &adder, &map).unwrap();
    let sum: Vec<NetId> = (0..bits)
        .map(|i| alu.find_net(&format!("add_s{i}")).unwrap())
        .collect();

    // Rotator instance.
    let rot = barrel_shifter(bits, ShiftKind::RotateLeft);
    let mut map: HashMap<String, NetId> = HashMap::new();
    for (i, &net) in a.iter().enumerate() {
        map.insert(format!("a{i}"), net);
    }
    for (i, &net) in sh.iter().enumerate() {
        map.insert(format!("s{i}"), net);
    }
    let map = alu.auto_port_map("rot", &rot, map).unwrap();
    alu.instantiate("rot", &rot, &map).unwrap();
    let rotated: Vec<NetId> = (0..bits)
        .map(|i| alu.find_net(&format!("rot_y{i}")).unwrap())
        .collect();

    // Glue: per-bit 2:1 encoded-select pass mux with shared labels.
    let p1 = alu.label("G_P1");
    let n1 = alu.label("G_N1");
    let n2 = alu.label("G_N2");
    let p3 = alu.label("G_P3");
    let n3 = alu.label("G_N3");
    let p4 = alu.label("G_P4");
    let n4 = alu.label("G_N4");
    let opb = alu.add_net("opb").unwrap();
    inverter(&mut alu, "op_inv", op, opb, p4, n4, Skew::Balanced);
    let mut result = Vec::with_capacity(bits);
    for i in 0..bits {
        let s_in = alu.add_net(format!("sumb{i}")).unwrap();
        inverter(
            &mut alu,
            format!("sdrv{i}"),
            sum[i],
            s_in,
            p1,
            n1,
            Skew::Balanced,
        );
        let r_in = alu.add_net(format!("rotb{i}")).unwrap();
        inverter(
            &mut alu,
            format!("rdrv{i}"),
            rotated[i],
            r_in,
            p1,
            n1,
            Skew::Balanced,
        );
        let node = alu.add_net(format!("node{i}")).unwrap();
        pass_gate(&mut alu, format!("pg_s{i}"), s_in, opb, node, n2);
        pass_gate(&mut alu, format!("pg_r{i}"), r_in, op, node, n2);
        let r = alu.add_net(format!("r{i}")).unwrap();
        inverter(
            &mut alu,
            format!("outdrv{i}"),
            node,
            r,
            p3,
            n3,
            Skew::Balanced,
        );
        alu.expose_output(format!("r{i}"), r);
        result.push(r);
    }

    // Zero detect on the result.
    let zd = zero_detect(bits, ZeroDetectStyle::Static);
    let mut map: HashMap<String, NetId> = HashMap::new();
    for (i, &r) in result.iter().enumerate() {
        map.insert(format!("a{i}"), r);
    }
    let map = alu.auto_port_map("zd", &zd, map).unwrap();
    alu.instantiate("zd", &zd, &map).unwrap();

    alu.add_route_parasitics(0.5, 0.8);
    alu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_lints_clean_and_scales() {
        let a4 = alu_slice(4);
        assert!(a4.lint().is_empty(), "{:?}", a4.lint());
        let a8 = alu_slice(8);
        assert!(a8.device_count() > a4.device_count());
        // Port shape.
        assert_eq!(
            a8.input_ports().count(),
            1 + 8 + 8 + 3 + 1 + 1,
            "clk + a + b + sh + op + cin"
        );
        // r bus + zero flag, plus the macro outputs auto_port_map keeps
        // observable (adder sum/cout, rotator bus): 9 + 9 + 8.
        assert_eq!(a8.output_ports().count(), 26);
    }

    #[test]
    fn instance_labels_are_namespaced() {
        let alu = alu_slice(4);
        assert!(alu.labels().lookup("add/G1N").is_some());
        assert!(alu.labels().lookup("rot/N20").is_some());
        assert!(alu.labels().lookup("zd/TP0").is_some());
        assert!(alu.labels().lookup("G_N2").is_some());
    }
}
