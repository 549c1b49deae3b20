//! Bit-exact golden values of `size_circuit` over the representative
//! database. Each entry is sized at 12 fF on every output and about 1.3×
//! its minimum achievable delay, once at the single corner and (except
//! `cla64`) once at slow/typical/fast. The pinned value is a
//! [`StableHasher`] over the total width and every width's bit pattern, so
//! a change that moves any width by one ulp fails here. The tolerance
//! goldens (`golden_regression.rs`, `sparse_dense_parity.rs`) would let
//! such a drift pass unseen.
//!
//! The hashes were recorded under flow epoch [`GOLDEN_EPOCH`]. A change
//! that moves them must raise [`FLOW_EPOCH`] (so snapshots of the old
//! flow stop restoring) and re-record both; the test fails if the hashes
//! move while the epoch stays, or the epoch moves while the hashes stay.
//!
//! Two entries, the weakly-mutexed `mux8` and `cmp64`, have no spec they
//! meet at slow/typical/fast: an internal slope bound at the slow corner
//! is certified infeasible before any solve. Their stf rows pin the
//! error text instead, so the audit's verdict cannot move unseen either.

use smart_core::{size_circuit, DelaySpec, SizingOptions, FLOW_EPOCH};
use smart_macros::representative_database;
use smart_models::{CornerSet, ModelLibrary};
use smart_netlist::StableHasher;
use smart_sta::Boundary;

/// The [`FLOW_EPOCH`] the hashes below were recorded under.
const GOLDEN_EPOCH: u32 = 1;

/// `(spec, single-corner delay ps, its hash, slow/typical/fast delay ps,
/// its hash)` in database order; `cla64` has no stf row (`0.0`, `0`).
const GOLDEN: &[(&str, f64, u64, f64, u64)] = &[
    ("mux8 (strongly-mutexed-passgate)", 321.0, 0xcbffaf22f5bfe9b9, 437.0, 0xaa067ae79d3b3aa8),
    ("mux8 (weakly-mutexed-passgate)", 566.0, 0x5d8fe8c0eaf986fe, 772.0, 0x2461420bcee89d2b),
    ("mux2 (2-input-passgate-encoded)", 178.0, 0xa6a89eb519077234, 238.0, 0xf557bcfb7f9952f7),
    ("mux8 (tristate)", 506.0, 0x7179f7abc4aeb8a8, 712.0, 0x7d36db80c221c39f),
    ("mux8 (unsplit-domino)", 265.0, 0x921a56f6502fe08d, 359.0, 0xc43a71d61396f2bf),
    ("mux8 (partitioned-domino)", 210.0, 0xf7c00740950d9b1e, 285.0, 0x948703dcb810825b),
    ("mux4 (strongly-mutexed-passgate)", 216.0, 0x12ec9b6d08a702a8, 293.0, 0x9b4cbb51294637a9),
    ("inc8", 1680.0, 0x7999a0d8ef88719d, 2226.0, 0x174d73dec914fb55),
    ("inc32", 7073.0, 0x0bc50e80018c93d7, 9368.0, 0x33e30121704069d4),
    ("inc8-cla", 832.0, 0xe3a876e1ed81908c, 1103.0, 0x64d7693e72fe5eb4),
    ("inc32-cla", 1498.0, 0x8a8c8a8935c1c5e3, 1976.0, 0xf47d478f24717594),
    ("dec8", 1781.0, 0xc84032a7b58885d1, 2358.0, 0xa8b98b063cda54dd),
    ("zd16 (Static)", 379.0, 0xebcffe81e0fec283, 516.0, 0x70a4662db1cf9770),
    ("zd64 (Static)", 697.0, 0x9bc92d76626b83e0, 941.0, 0x9e1e946b14fd26b3),
    ("zd16 (Domino)", 340.0, 0xd678bce04646a41b, 453.0, 0x5c76b8993a4d6a83),
    ("zd64 (Domino)", 395.0, 0xa9b7c471667e46f8, 529.0, 0x3664b25809b7dfc9),
    ("dec3to8", 256.0, 0xa94fb1cffadedf9a, 344.0, 0xb3287e40cd980318),
    ("dec5to32", 396.0, 0x99965fca9cf1f221, 531.0, 0x05355106846de1e2),
    ("penc8to3", 1914.0, 0xda0b311e96dfcfee, 2539.0, 0xc2de11a10b4399df),
    ("enc8to3", 353.0, 0xa9f7056ed482141a, 476.0, 0x19fdbd12c27ff75a),
    ("cmp32 (xorsum2-nor4)", 485.0, 0x666841514373150f, 653.0, 0xb6e7e88bbbaf1495),
    ("cmp32 (xorsum1-nor8)", 481.0, 0xfdc70fe091f9238a, 649.0, 0x69274af080d578be),
    ("cmp32 (xorsum4-nor4)", 505.0, 0x3a8cbb8ae08936e8, 679.0, 0xe096b1ee7b45b309),
    ("cmp64 (xorsum2-nor4)", 604.0, 0xc85a6dc3bc86dd93, 820.0, 0x927b7ecbdc2b2edc),
    ("cla8", 920.0, 0x27ccdd87b29bebfd, 1211.0, 0x3b9faef252aa06d9),
    ("cla64", 1469.0, 0x82e2a9d5326904d3, 0.0, 0),
    ("rf16x8", 1554.0, 0x4aa0fd9a2babefbb, 2134.0, 0x11620d771b9c5258),
    ("shift8 (sll)", 641.0, 0x3eac03a104315c48, 855.0, 0x74f1e53d79453b82),
    ("shift8 (srl)", 641.0, 0xb5aeb5586de4ceb7, 855.0, 0xed42fbb7c8f17b4c),
    ("shift8 (rol)", 641.0, 0x6a1e724a3465f1cf, 855.0, 0x369efe589bb9cda5),
    ("shift32 (rol)", 1150.0, 0x089f9423bf556c48, 1534.0, 0x9cbb19d931a96f0a),
];

/// Output load (fF) on every output port.
const LOAD_FF: f64 = 12.0;

/// Sizes `spec` at `delay` ps and hashes the total width and every width,
/// or the error text if the sizing fails.
fn sizing_hash(spec: &smart_macros::MacroSpec, delay: f64, opts: &SizingOptions) -> u64 {
    let circuit = spec.generate();
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    for port in circuit.output_ports() {
        boundary.output_loads.insert(port.name.clone(), LOAD_FF);
    }
    let mut h = StableHasher::new();
    let out = match size_circuit(&circuit, &lib, &boundary, &DelaySpec::uniform(delay), opts) {
        Ok(out) => out,
        Err(e) => {
            h.write_str(&e.to_string());
            return h.finish();
        }
    };
    h.write_f64_bits(out.total_width);
    let widths = out.sizing.as_slice();
    h.write_usize(widths.len());
    for &w in widths {
        h.write_f64_bits(w);
    }
    h.finish()
}

#[test]
fn representative_database_sizings_are_bit_exact() {
    let specs = representative_database();
    assert_eq!(specs.len(), GOLDEN.len(), "database size changed");
    let single = SizingOptions::default();
    let stf = SizingOptions {
        corners: Some(CornerSet::slow_typical_fast(
            ModelLibrary::reference().process(),
        )),
        ..SizingOptions::default()
    };
    let mut moved = Vec::new();
    for (spec, &(name, delay, want, stf_delay, stf_want)) in specs.iter().zip(GOLDEN) {
        assert_eq!(spec.to_string(), name, "database order changed");
        let got = sizing_hash(spec, delay, &single);
        if got != want {
            moved.push(format!("{name} single: {got:#018x} (golden {want:#018x})"));
        }
        if stf_delay > 0.0 {
            let got = sizing_hash(spec, stf_delay, &stf);
            if got != stf_want {
                moved.push(format!("{name} stf: {got:#018x} (golden {stf_want:#018x})"));
            }
        }
    }
    let same_epoch = FLOW_EPOCH == GOLDEN_EPOCH;
    assert!(
        same_epoch || !moved.is_empty(),
        "FLOW_EPOCH moved from {GOLDEN_EPOCH} to {FLOW_EPOCH} but no sizing bit did; \
         a bit-exact change keeps the epoch"
    );
    assert!(
        same_epoch && moved.is_empty(),
        "sizing bits moved (flow epoch {FLOW_EPOCH}, golden epoch {GOLDEN_EPOCH}); a change \
         that moves them raises FLOW_EPOCH and re-records GOLDEN and GOLDEN_EPOCH:\n{}",
        moved.join("\n")
    );
}
