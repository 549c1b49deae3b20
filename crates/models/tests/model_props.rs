//! Randomized tests: the posynomial and numeric model paths agree exactly
//! for every component kind, at seeded random sizings — the invariant that
//! makes the GP's constraint view and the STA's measurement view
//! consistent. Deterministic (fixed seeds via `smart-prng`).

use smart_models::arcs::{arcs, drive, Edge};
use smart_models::{label_vars, ModelLibrary};
use smart_netlist::{Circuit, ComponentKind, DeviceRole, Network, Sizing, Skew};
use smart_posy::{TermId, TermSum, TermTable};
use smart_prng::Prng;

const CASES: usize = 32;

/// Builds a one-component circuit of the given kind, fully port-wrapped.
fn single(kind: ComponentKind) -> Circuit {
    let mut c = Circuit::new("single");
    let mut conns = Vec::new();
    for i in 0..kind.pin_count() - 1 {
        let n = c.add_net(format!("p{i}")).unwrap();
        c.expose_input(format!("p{i}"), n);
        conns.push(n);
    }
    let out = c.add_net("y").unwrap();
    conns.push(out);
    let bindings: Vec<(DeviceRole, _)> = kind
        .label_roles()
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, c.label(&format!("L{i}"))))
        .collect();
    c.add("u", kind, &conns, &bindings).unwrap();
    c.expose_output("y", out);
    // A receiver so the output net has gate load.
    let sink = c.add_net("sink").unwrap();
    let p = c.label("SP");
    let n = c.label("SN");
    c.add(
        "load",
        ComponentKind::Inverter { skew: Skew::Balanced },
        &[out, sink],
        &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
    )
    .unwrap();
    c
}

fn all_kinds() -> Vec<ComponentKind> {
    vec![
        ComponentKind::Inverter { skew: Skew::Balanced },
        ComponentKind::Inverter { skew: Skew::High },
        ComponentKind::Nand { inputs: 2 },
        ComponentKind::Nand { inputs: 4 },
        ComponentKind::Nor { inputs: 3 },
        ComponentKind::Xor2,
        ComponentKind::Xnor2,
        ComponentKind::Aoi21,
        ComponentKind::PassGate,
        ComponentKind::Tristate,
        ComponentKind::Domino {
            network: Network::parallel_of([0, 1, 2]),
            clocked_eval: true,
        },
        ComponentKind::Domino {
            network: Network::Series(vec![
                Network::Input(0),
                Network::Parallel(vec![Network::Input(1), Network::Input(2)]),
            ]),
            clocked_eval: false,
        },
    ]
}

#[test]
fn posynomial_equals_numeric_for_every_kind() {
    let mut r = Prng::new(0x101);
    for case in 0..CASES {
        let widths = r.f64_vec(0.6, 40.0, 16);
        let kind_idx = case % 12;
        let slope_in = r.f64_in(5.0, 80.0);
        let kind = all_kinds()[kind_idx].clone();
        let circuit = single(kind);
        let lib = ModelLibrary::reference();
        let n = circuit.labels().len();
        let sizing = Sizing::from_widths(widths[..n].to_vec());
        let (_, vars) = label_vars(&circuit);
        let comp_id = circuit.find_comp("u").unwrap();
        let comp = circuit.comp(comp_id);
        let out = comp.output_net();
        let mut table = TermTable::new();
        let [mut cap, mut r, mut rc, mut posy] = std::array::from_fn(|_| TermSum::new());
        for edge in [Edge::Rise, Edge::Fall] {
            let cap_num = lib.net_cap(&circuit, out, &sizing);
            lib.net_cap_terms(&mut table, &circuit, out, &vars, 0.0, &mut cap);
            let at = |table: &TermTable, sum: &TermSum| table.view(sum.terms()).eval(sizing.as_slice());
            assert!((at(&table, &cap) - cap_num).abs() < 1e-9);

            let numeric = lib.stage_timing(comp, edge, cap_num, slope_in, &sizing);
            lib.drive_terms(&mut table, comp, edge, &vars, &mut r);
            rc.clear();
            rc.add_product(&mut table, r.terms(), cap.terms());
            lib.stage_delay_from_rc(comp, rc.terms(), &[(TermId::ONE, slope_in)], &mut posy);
            assert!(
                (at(&table, &posy) - numeric.delay).abs() < 1e-9,
                "{:?} {:?}",
                comp.kind,
                edge
            );
            lib.stage_slope_from_rc(rc.terms(), &mut posy);
            assert!((at(&table, &posy) - numeric.slope).abs() < 1e-9);
        }
    }
}

#[test]
fn delay_decreases_when_drive_grows() {
    let mut r = Prng::new(0x102);
    for case in 0..CASES {
        let kind_idx = case % 12;
        let scale = r.f64_in(1.5, 6.0);
        let kind = all_kinds()[kind_idx].clone();
        let circuit = single(kind);
        let lib = ModelLibrary::reference();
        let comp_id = circuit.find_comp("u").unwrap();
        let comp = circuit.comp(comp_id);
        // Fixed external cap: only the drive changes.
        let cap = 30.0;
        let small = Sizing::uniform(circuit.labels(), 2.0);
        let big = Sizing::uniform(circuit.labels(), 2.0 * scale);
        for edge in [Edge::Rise, Edge::Fall] {
            let d_small = lib.stage_timing(comp, edge, cap, 10.0, &small).delay;
            let d_big = lib.stage_timing(comp, edge, cap, 10.0, &big).delay;
            assert!(d_big < d_small, "{:?} {:?}", comp.kind, edge);
        }
    }
}

#[test]
fn every_kind_has_coherent_arcs_and_drives() {
    for kind in all_kinds() {
        let specs = arcs(&kind);
        assert!(!specs.is_empty());
        for spec in &specs {
            assert!(spec.from_pin < kind.output_pin());
        }
        for edge in [Edge::Rise, Edge::Fall] {
            let terms = drive(&kind, edge, 0.5, 0.7);
            assert!(!terms.is_empty(), "{kind:?} {edge:?} must have drive");
            for t in &terms {
                assert!(t.factor > 0.0);
                // Every drive role must be a label role of the kind.
                assert!(
                    kind.label_roles().contains(&t.role),
                    "{kind:?}: drive role {:?} unbound",
                    t.role
                );
            }
        }
    }
}
