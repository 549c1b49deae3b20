//! Golden-function verification of every macro generator: each circuit is
//! simulated (with the two-phase domino protocol where clocked) and its
//! outputs compared against the arithmetic/logic function it claims to
//! implement — the guarantee a design database must ship with.

use smart_macros::{
    cla_adder, comparator, decoder, decrementor, incrementor, onehot_encoder,
    priority_encoder, regfile_read, zero_detect, ComparatorVariant, MuxTopology,
    ZeroDetectStyle,
};
use smart_netlist::Circuit;
use smart_sim::harness::evaluate;
use smart_prng::Prng;
use smart_sim::Logic;
use std::collections::BTreeMap;

fn rng() -> Prng {
    Prng::new(0x5AA7_2001)
}

/// Runs `circuit` on named boolean inputs; returns output map.
fn run(circuit: &Circuit, inputs: &[(String, bool)]) -> BTreeMap<String, Logic> {
    let map: BTreeMap<String, bool> = inputs.iter().cloned().collect();
    evaluate(circuit, &map).expect("simulation converges")
}

fn bus(prefix: &str, width: usize, value: u64) -> Vec<(String, bool)> {
    (0..width)
        .map(|i| (format!("{prefix}{i}"), (value >> i) & 1 == 1))
        .collect()
}

fn read_bus_out(out: &BTreeMap<String, Logic>, prefix: &str, width: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..width {
        match out[&format!("{prefix}{i}")] {
            Logic::One => v |= 1 << i,
            Logic::Zero => {}
            other => panic!("{prefix}{i} is {other}"),
        }
    }
    v
}

// ---------------------------------------------------------------------
// Muxes
// ---------------------------------------------------------------------

#[test]
fn mux_topologies_select_correctly() {
    for topo in MuxTopology::all() {
        let width = if topo == MuxTopology::EncodedSelectPass { 2 } else { 4 };
        let c = smart_macros::mux::generate(topo, width);
        for data in [0b0000u64, 0b1010, 0b0111, 0b1111, 0b0001] {
            for sel in 0..width {
                let mut inputs = bus("d", width, data);
                match topo {
                    MuxTopology::EncodedSelectPass => {
                        inputs.push(("s0".into(), sel == 1));
                    }
                    MuxTopology::WeaklyMutexedPass => {
                        // n-1 selects; last input selected when all low.
                        for i in 0..width - 1 {
                            inputs.push((format!("s{i}"), i == sel));
                        }
                    }
                    _ => {
                        for i in 0..width {
                            inputs.push((format!("s{i}"), i == sel));
                        }
                    }
                }
                let out = run(&c, &inputs);
                let expected = Logic::from_bool((data >> sel) & 1 == 1);
                assert_eq!(
                    out["y"], expected,
                    "{} width {width}: data {data:#b} sel {sel}",
                    topo.name()
                );
            }
        }
    }
}

#[test]
fn wide_domino_muxes() {
    for topo in [MuxTopology::UnsplitDomino, MuxTopology::PartitionedDomino] {
        let width = 8;
        let c = smart_macros::mux::generate(topo, width);
        let mut r = rng();
        for _ in 0..20 {
            let data: u64 = r.u64_below(256);
            let sel = r.usize_in(0, width);
            let mut inputs = bus("d", width, data);
            for i in 0..width {
                inputs.push((format!("s{i}"), i == sel));
            }
            let out = run(&c, &inputs);
            assert_eq!(
                out["y"],
                Logic::from_bool((data >> sel) & 1 == 1),
                "{}: data {data:#b} sel {sel}",
                topo.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Incrementor / decrementor
// ---------------------------------------------------------------------

#[test]
fn incrementor_adds_one_exhaustive_small() {
    for width in [1, 3, 5] {
        let c = incrementor(width);
        for a in 0..(1u64 << width) {
            let out = run(&c, &bus("a", width, a));
            let got = read_bus_out(&out, "y", width);
            let mask = (1u64 << width) - 1;
            assert_eq!(got, (a + 1) & mask, "inc{width}({a})");
            let cout = out["cout"] == Logic::One;
            assert_eq!(cout, a == mask, "inc{width}({a}) carry");
        }
    }
}

#[test]
fn incrementor_random_wide() {
    let width = 48;
    let c = incrementor(width);
    let mut r = rng();
    let mask = (1u64 << width) - 1;
    for _ in 0..16 {
        let a = r.next_u64() & mask;
        let out = run(&c, &bus("a", width, a));
        assert_eq!(read_bus_out(&out, "y", width), (a + 1) & mask, "inc48({a:#x})");
    }
    // Boundary values.
    for a in [0, 1, mask - 1, mask] {
        let out = run(&c, &bus("a", width, a));
        assert_eq!(read_bus_out(&out, "y", width), a.wrapping_add(1) & mask);
    }
}

#[test]
fn decrementor_subtracts_one() {
    for width in [1, 3, 6] {
        let c = decrementor(width);
        let mask = (1u64 << width) - 1;
        for a in 0..(1u64 << width) {
            let out = run(&c, &bus("a", width, a));
            let got = read_bus_out(&out, "y", width);
            assert_eq!(got, a.wrapping_sub(1) & mask, "dec{width}({a})");
            let bout = out["bout"] == Logic::One;
            assert_eq!(bout, a == 0, "dec{width}({a}) borrow");
        }
    }
}

// ---------------------------------------------------------------------
// Zero detect
// ---------------------------------------------------------------------

#[test]
fn zero_detect_both_styles() {
    for style in [ZeroDetectStyle::Static, ZeroDetectStyle::Domino] {
        for width in [3, 8, 16, 22] {
            let c = zero_detect(width, style);
            let mut r = rng();
            // Zero, all-ones, single-bit patterns, random.
            let mut cases = vec![0u64, (1 << width) - 1];
            for i in 0..width.min(8) {
                cases.push(1 << i);
            }
            for _ in 0..8 {
                cases.push(r.u64_below(1u64 << width));
            }
            for a in cases {
                let out = run(&c, &bus("a", width, a));
                assert_eq!(
                    out["z"],
                    Logic::from_bool(a == 0),
                    "{style:?} zd{width}({a:#b})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoder / encoders
// ---------------------------------------------------------------------

#[test]
fn decoder_is_one_hot_exhaustive() {
    for bits in [1, 2, 3, 4] {
        let c = decoder(bits);
        let outs = 1usize << bits;
        for a in 0..outs as u64 {
            let out = run(&c, &bus("a", bits, a));
            for k in 0..outs {
                assert_eq!(
                    out[&format!("y{k}")],
                    Logic::from_bool(k as u64 == a),
                    "dec{bits} a={a} k={k}"
                );
            }
        }
    }
}

#[test]
fn priority_encoder_picks_highest() {
    for bits in [2, 3] {
        let c = priority_encoder(bits);
        let m = 1usize << bits;
        for d in 1..(1u64 << m) {
            let out = run(&c, &bus("d", m, d));
            let expected = 63 - d.leading_zeros() as u64; // highest set bit
            assert_eq!(
                read_bus_out(&out, "y", bits),
                expected,
                "penc{bits} d={d:#b}"
            );
            assert_eq!(out["valid"], Logic::One);
        }
        // Nothing asserted: valid low.
        let out = run(&c, &bus("d", m, 0));
        assert_eq!(out["valid"], Logic::Zero);
    }
}

#[test]
fn onehot_encoder_maps_index() {
    let bits = 3;
    let c = onehot_encoder(bits);
    let m = 1usize << bits;
    for i in 0..m {
        let out = run(&c, &bus("d", m, 1 << i));
        assert_eq!(read_bus_out(&out, "y", bits), i as u64, "enc d=onehot({i})");
    }
}

// ---------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------

#[test]
fn comparator_variants_detect_equality() {
    let mut r = rng();
    for variant in ComparatorVariant::exploration_set() {
        let c = comparator(32, variant);
        for _ in 0..12 {
            let a: u64 = r.u64_below(1u64 << 32);
            // Equal case.
            let mut inputs = bus("a", 32, a);
            inputs.extend(bus("b", 32, a));
            let out = run(&c, &inputs);
            assert_eq!(out["eq"], Logic::One, "{} a==b={a:#x}", variant.name());
            // Single-bit difference (hardest case).
            let flip = 1u64 << r.u64_below(32);
            let mut inputs = bus("a", 32, a);
            inputs.extend(bus("b", 32, a ^ flip));
            let out = run(&c, &inputs);
            assert_eq!(
                out["eq"],
                Logic::Zero,
                "{} a={a:#x} flip={flip:#x}",
                variant.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Adder
// ---------------------------------------------------------------------

#[test]
fn adder_exhaustive_small() {
    for width in [1, 2, 4] {
        let c = cla_adder(width);
        let mask = (1u64 << width) - 1;
        for a in 0..=mask {
            for b in 0..=mask {
                for cin in [0u64, 1] {
                    let mut inputs = bus("a", width, a);
                    inputs.extend(bus("b", width, b));
                    inputs.push(("cin0".into(), cin == 1));
                    let out = run(&c, &inputs);
                    let total = a + b + cin;
                    assert_eq!(
                        read_bus_out(&out, "s", width),
                        total & mask,
                        "cla{width}: {a}+{b}+{cin}"
                    );
                    assert_eq!(
                        out["cout"] == Logic::One,
                        total > mask,
                        "cla{width} cout: {a}+{b}+{cin}"
                    );
                }
            }
        }
    }
}

#[test]
fn adder_random_64_bit() {
    let c = cla_adder(64);
    let mut r = rng();
    for _ in 0..10 {
        let a: u64 = r.next_u64();
        let b: u64 = r.next_u64();
        let cin = r.bool();
        let mut inputs = bus("a", 64, a);
        inputs.extend(bus("b", 64, b));
        inputs.push(("cin0".into(), cin));
        let out = run(&c, &inputs);
        let (sum, ovf1) = a.overflowing_add(b);
        let (sum, ovf2) = sum.overflowing_add(cin as u64);
        assert_eq!(read_bus_out(&out, "s", 64), sum, "{a:#x}+{b:#x}+{cin}");
        assert_eq!(out["cout"] == Logic::One, ovf1 || ovf2);
    }
    // Carry-chain stress: all-ones plus one ripples through every bit.
    let mut inputs = bus("a", 64, u64::MAX);
    inputs.extend(bus("b", 64, 0));
    inputs.push(("cin0".into(), true));
    let out = run(&c, &inputs);
    assert_eq!(read_bus_out(&out, "s", 64), 0);
    assert_eq!(out["cout"], Logic::One);
}

// ---------------------------------------------------------------------
// Register file read path
// ---------------------------------------------------------------------

#[test]
fn regfile_reads_addressed_word() {
    let (words, bits) = (8usize, 4usize);
    let c = regfile_read(words, bits);
    let mut r = rng();
    let contents: Vec<u64> = (0..words).map(|_| r.u64_below(16)).collect();
    for addr in 0..words {
        let mut inputs = bus("a", 3, addr as u64);
        for (w, &val) in contents.iter().enumerate() {
            for j in 0..bits {
                inputs.push((format!("w{w}_{j}"), (val >> j) & 1 == 1));
            }
        }
        let out = run(&c, &inputs);
        assert_eq!(
            read_bus_out(&out, "q", bits),
            contents[addr],
            "rf read addr {addr}"
        );
    }
}

// ---------------------------------------------------------------------
// Barrel shifter
// ---------------------------------------------------------------------

#[test]
fn barrel_shifter_matches_shift_semantics() {
    use smart_macros::{barrel_shifter, ShiftKind};
    let mut r = rng();
    for kind in [ShiftKind::LogicalLeft, ShiftKind::LogicalRight, ShiftKind::RotateLeft] {
        let width = 8usize;
        let c = barrel_shifter(width, kind);
        let mask = (1u64 << width) - 1;
        for _ in 0..12 {
            let a = r.u64_below(mask + 1);
            for sh in 0..width as u64 {
                let mut inputs = bus("a", width, a);
                inputs.extend(bus("s", 3, sh));
                if kind != ShiftKind::RotateLeft {
                    inputs.push(("zero0".into(), false));
                }
                let out = run(&c, &inputs);
                let expect = match kind {
                    ShiftKind::LogicalLeft => (a << sh) & mask,
                    ShiftKind::LogicalRight => a >> sh,
                    ShiftKind::RotateLeft => ((a << sh) | (a >> (width as u64 - sh).min(63))) & mask,
                };
                assert_eq!(
                    read_bus_out(&out, "y", width),
                    expect,
                    "{} a={a:#010b} sh={sh}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn barrel_shifter_exhaustive_4bit() {
    use smart_macros::{barrel_shifter, ShiftKind};
    let c = barrel_shifter(4, ShiftKind::RotateLeft);
    for a in 0..16u64 {
        for sh in 0..4u64 {
            let mut inputs = bus("a", 4, a);
            inputs.extend(bus("s", 2, sh));
            let out = run(&c, &inputs);
            let expect = ((a << sh) | (a >> (4 - sh).min(63))) & 0xF;
            assert_eq!(read_bus_out(&out, "y", 4), expect, "rol {a:#06b} by {sh}");
        }
    }
}

#[test]
fn cla_incrementor_matches_ripple() {
    use smart_macros::incrementor_cla;
    for width in [1usize, 3, 8, 13] {
        let c = incrementor_cla(width);
        assert!(c.lint().is_empty(), "inc{width}_cla: {:?}", c.lint());
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let mut cases: Vec<u64> = vec![0, mask, mask >> 1];
        let mut r = rng();
        for _ in 0..10 {
            cases.push(r.u64_below(mask.wrapping_add(1).max(1)));
        }
        for a in cases {
            let out = run(&c, &bus("a", width, a));
            assert_eq!(
                read_bus_out(&out, "y", width),
                a.wrapping_add(1) & mask,
                "inc{width}_cla({a})"
            );
            assert_eq!(out["cout"] == Logic::One, a == mask);
        }
    }
}

/// The methodology DRC is lint rules SL001–SL004; every spec here must
/// carry no Error-severity finding from the full rule set.
#[test]
fn database_macros_pass_methodology_drc() {
    use smart_macros::MacroSpec;
    let specs = [
        MacroSpec::Mux { topology: MuxTopology::StronglyMutexedPass, width: 8 },
        MacroSpec::Mux { topology: MuxTopology::WeaklyMutexedPass, width: 4 },
        MacroSpec::Mux { topology: MuxTopology::EncodedSelectPass, width: 2 },
        MacroSpec::Mux { topology: MuxTopology::Tristate, width: 8 },
        MacroSpec::Mux { topology: MuxTopology::UnsplitDomino, width: 8 },
        MacroSpec::Mux { topology: MuxTopology::PartitionedDomino, width: 8 },
        MacroSpec::Incrementor { width: 13 },
        MacroSpec::IncrementorCla { width: 13 },
        MacroSpec::Decrementor { width: 8 },
        MacroSpec::ZeroDetect { width: 22, style: ZeroDetectStyle::Static },
        MacroSpec::ZeroDetect { width: 22, style: ZeroDetectStyle::Domino },
        MacroSpec::Decoder { in_bits: 4 },
        MacroSpec::PriorityEncoder { out_bits: 3 },
        MacroSpec::Comparator { width: 32, variant: ComparatorVariant::merced() },
        MacroSpec::ClaAdder { width: 16 },
        MacroSpec::RegFileRead { words: 8, bits: 4 },
        MacroSpec::BarrelShifter { width: 16, kind: smart_macros::ShiftKind::RotateLeft },
    ];
    for spec in specs {
        let c = spec.generate();
        let report = smart_lint::lint_circuit(&c);
        assert!(!report.has_errors(), "{spec}: {:?}", report.findings);
    }
}
