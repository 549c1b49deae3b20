//! Randomized test: on seeded random static gate DAGs, the event-driven
//! simulator agrees with a direct recursive boolean evaluation.
//! Deterministic (fixed seeds via `smart-prng`).

use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetId, Skew};
use smart_prng::Prng;
use smart_sim::{Logic, Simulator};

const CASES: usize = 48;

/// A recipe for one random static circuit: gate kinds + input wiring.
#[derive(Debug, Clone)]
struct GateRecipe {
    kind: u8,
    srcs: Vec<usize>,
}

fn recipe(r: &mut Prng, inputs: usize, gates: usize) -> Vec<GateRecipe> {
    (0..gates)
        .map(|i| GateRecipe {
            kind: r.u64_below(5) as u8,
            // Each gate may read primary inputs or earlier gates only
            // (indices taken modulo the nets available so far).
            srcs: (0..3).map(|_| r.usize_in(0, 1000) % (inputs + i)).collect(),
        })
        .collect()
}

fn stimulus(r: &mut Prng, n: usize) -> Vec<bool> {
    (0..n).map(|_| r.bool()).collect()
}

/// Builds the circuit; returns it plus the recipe's net list (inputs then
/// gate outputs).
fn build(inputs: usize, recipe: &[GateRecipe]) -> (Circuit, Vec<NetId>) {
    let mut c = Circuit::new("random");
    let p = c.label("P");
    let n = c.label("N");
    let bind = [(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)];
    let mut nets: Vec<NetId> = (0..inputs)
        .map(|i| {
            let net = c.add_net(format!("in{i}")).unwrap();
            c.expose_input(format!("in{i}"), net);
            net
        })
        .collect();
    for (g, r) in recipe.iter().enumerate() {
        let out = c.add_net(format!("g{g}")).unwrap();
        let (kind, used) = match r.kind {
            0 => (
                ComponentKind::Inverter {
                    skew: Skew::Balanced,
                },
                1,
            ),
            1 => (ComponentKind::Nand { inputs: 2 }, 2),
            2 => (ComponentKind::Nor { inputs: 2 }, 2),
            3 => (ComponentKind::Xor2, 2),
            _ => (ComponentKind::Aoi21, 3),
        };
        let mut conns: Vec<NetId> = r.srcs[..used].iter().map(|&s| nets[s]).collect();
        conns.push(out);
        c.add(format!("u{g}"), kind, &conns, &bind).unwrap();
        nets.push(out);
    }
    // Expose the last gate as output (plus everything is observable via
    // net names anyway).
    if let Some(&last) = nets.last() {
        c.expose_output("out", last);
    }
    (c, nets)
}

/// Direct reference evaluation of the recipe.
fn reference(inputs: &[bool], recipe: &[GateRecipe]) -> Vec<bool> {
    let mut vals: Vec<bool> = inputs.to_vec();
    for r in recipe {
        let v = |k: usize| vals[r.srcs[k]];
        let out = match r.kind {
            0 => !v(0),
            1 => !(v(0) && v(1)),
            2 => !(v(0) || v(1)),
            3 => v(0) ^ v(1),
            _ => !((v(0) && v(1)) || v(2)),
        };
        vals.push(out);
    }
    vals
}

#[test]
fn simulator_matches_reference_on_random_dags() {
    let mut r = Prng::new(0xF1);
    for _ in 0..CASES {
        let rec = recipe(&mut r, 4, 12);
        let stim = stimulus(&mut r, 4);
        let (circuit, nets) = build(4, &rec);
        let mut sim = Simulator::new(&circuit);
        for (i, &b) in stim.iter().enumerate() {
            sim.set(&format!("in{i}"), Logic::from_bool(b)).unwrap();
        }
        sim.settle().unwrap();
        let expect = reference(&stim, &rec);
        for (idx, &net) in nets.iter().enumerate() {
            assert_eq!(
                sim.net_value(net),
                Logic::from_bool(expect[idx]),
                "net {idx} of {rec:?}"
            );
        }
    }
}

#[test]
fn incremental_updates_match_fresh_evaluation() {
    let mut r = Prng::new(0xF2);
    for _ in 0..CASES {
        let rec = recipe(&mut r, 4, 10);
        let first = stimulus(&mut r, 4);
        let second = stimulus(&mut r, 4);
        let (circuit, nets) = build(4, &rec);
        // Incremental: settle on `first`, then change to `second`.
        let mut sim = Simulator::new(&circuit);
        for (i, &b) in first.iter().enumerate() {
            sim.set(&format!("in{i}"), Logic::from_bool(b)).unwrap();
        }
        sim.settle().unwrap();
        for (i, &b) in second.iter().enumerate() {
            sim.set(&format!("in{i}"), Logic::from_bool(b)).unwrap();
        }
        sim.settle().unwrap();
        // Fresh: evaluate `second` from scratch.
        let mut fresh = Simulator::new(&circuit);
        for (i, &b) in second.iter().enumerate() {
            fresh.set(&format!("in{i}"), Logic::from_bool(b)).unwrap();
        }
        fresh.settle().unwrap();
        for &net in &nets {
            assert_eq!(sim.net_value(net), fresh.net_value(net));
        }
    }
}

#[test]
fn unknown_inputs_never_produce_strong_garbage() {
    let mut r = Prng::new(0xF3);
    for _ in 0..CASES {
        // With one input left at X, any net that *does* resolve strongly
        // must match the reference for BOTH values of the hidden input.
        let rec = recipe(&mut r, 3, 8);
        let known = stimulus(&mut r, 3);
        let hide = r.usize_in(0, 3);
        let (circuit, nets) = build(3, &rec);
        let mut sim = Simulator::new(&circuit);
        for (i, &b) in known.iter().enumerate() {
            if i != hide {
                sim.set(&format!("in{i}"), Logic::from_bool(b)).unwrap();
            }
        }
        sim.settle().unwrap();
        let mut lo = known.clone();
        lo[hide] = false;
        let mut hi = known.clone();
        hi[hide] = true;
        let ref_lo = reference(&lo, &rec);
        let ref_hi = reference(&hi, &rec);
        for (idx, &net) in nets.iter().enumerate() {
            if let Some(b) = sim.net_value(net).to_bool() {
                assert_eq!(b, ref_lo[idx], "net {idx} under hidden=0");
                assert_eq!(b, ref_hi[idx], "net {idx} under hidden=1");
            }
        }
    }
}
