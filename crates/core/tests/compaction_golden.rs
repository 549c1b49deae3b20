//! Bit-exact golden values of path compaction (§5.2) over the
//! representative database plus `inc128`.
//!
//! Each entry is compacted at 12 fF on every output, once in the sound
//! (pointwise-dominance) mode and once in the paper's heuristic mode. The
//! pinned value is a [`StableHasher`] over the raw path count, the class
//! count after the regularity merge, and every surviving class in order:
//! its arc list, source, endpoint and precharge flag. A change to which
//! representative path a class keeps, or to the class order, fails here
//! before it could move a constraint.

use smart_core::{compaction_stats, Compaction, SizingOptions};
use smart_macros::{representative_database, MacroSpec};
use smart_models::ModelLibrary;
use smart_netlist::StableHasher;
use smart_sta::Boundary;

/// `(spec, sound-mode hash, heuristic-mode hash)` in database order, then
/// `inc128`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("mux8 (strongly-mutexed-passgate)", 0x3ac2d4bc05c91321, 0x3ac2d4bc05c91321),
    ("mux8 (weakly-mutexed-passgate)", 0x92e4943538ce0015, 0x92e4943538ce0015),
    ("mux2 (2-input-passgate-encoded)", 0xd1870caff40ae5a9, 0xd1870caff40ae5a9),
    ("mux8 (tristate)", 0xedb56d232fc76ee7, 0xedb56d232fc76ee7),
    ("mux8 (unsplit-domino)", 0xc0af1b2cb9206c99, 0xc0af1b2cb9206c99),
    ("mux8 (partitioned-domino)", 0xdb5ee9deab7b5ec5, 0xdb5ee9deab7b5ec5),
    ("mux4 (strongly-mutexed-passgate)", 0xe05ae811a5fec4d9, 0xe05ae811a5fec4d9),
    ("inc8", 0xe6c58732434c0470, 0xe6c58732434c0470),
    ("inc32", 0xc4f81f550736a61c, 0xc4f81f550736a61c),
    ("inc8-cla", 0x5c43d9abdf2325a6, 0x94c3477c31b355de),
    ("inc32-cla", 0x830d396a143f4e22, 0xca4dde0eb75c621a),
    ("dec8", 0x3d0198b0de69b329, 0x3d0198b0de69b329),
    ("zd16 (Static)", 0xcdc6a0af60ba0f04, 0xcdc6a0af60ba0f04),
    ("zd64 (Static)", 0xe673757bef12dae2, 0xe673757bef12dae2),
    ("zd16 (Domino)", 0xa6a6342d05e02680, 0xa6a6342d05e02680),
    ("zd64 (Domino)", 0x091932d6a9d1fa24, 0x091932d6a9d1fa24),
    ("dec3to8", 0x7bea6fb6344d6316, 0x7bea6fb6344d6316),
    ("dec5to32", 0x13713847fc833775, 0x13713847fc833775),
    ("penc8to3", 0xfaf225c6436b4d91, 0xfaf225c6436b4d91),
    ("enc8to3", 0x921e80b7064fc654, 0x921e80b7064fc654),
    ("cmp32 (xorsum2-nor4)", 0x839359db5657057a, 0x839359db5657057a),
    ("cmp32 (xorsum1-nor8)", 0x87e2d366b2eabcb5, 0x87e2d366b2eabcb5),
    ("cmp32 (xorsum4-nor4)", 0xffda8cc765f43830, 0xffda8cc765f43830),
    ("cmp64 (xorsum2-nor4)", 0xa110e0cc0c0dab77, 0xa110e0cc0c0dab77),
    ("cla8", 0x9dc434d168d88e8e, 0x8f4d9bc45640cabe),
    ("cla64", 0xdcfaa45a58fe21ee, 0x7aeb50d088ac3a74),
    ("rf16x8", 0xef75b3b5ed454124, 0xef75b3b5ed454124),
    ("shift8 (sll)", 0xae041413bb15b359, 0xae041413bb15b359),
    ("shift8 (srl)", 0x5a2efb97f34eb2a7, 0x5a2efb97f34eb2a7),
    ("shift8 (rol)", 0x4cc733115c1f5d81, 0x4cc733115c1f5d81),
    ("shift32 (rol)", 0x5c0c44445f0661b6, 0x5c0c44445f0661b6),
    ("inc128", 0xfeee8636244f22a3, 0xfeee8636244f22a3),
];

/// Output load (fF) on every output port.
const LOAD_FF: f64 = 12.0;

fn compaction_hash(c: &Compaction) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(c.raw_paths as u64);
    h.write_u64((c.raw_paths >> 64) as u64);
    h.write_usize(c.after_regularity);
    h.write_usize(c.classes.len());
    for class in &c.classes {
        h.write_usize(class.arcs.len());
        for &a in &class.arcs {
            h.write_usize(a);
        }
        h.write_usize(class.source.index());
        h.write_usize(class.endpoint.index());
        h.write_bool(class.is_precharge);
    }
    h.finish()
}

#[test]
fn compaction_classes_are_bit_exact() {
    let lib = ModelLibrary::reference();
    let mut specs = representative_database();
    specs.push(MacroSpec::Incrementor { width: 128 });
    let mut moved = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let circuit = spec.generate();
        let mut boundary = Boundary::default();
        for port in circuit.output_ports() {
            boundary.output_loads.insert(port.name.clone(), LOAD_FF);
        }
        let mut got = [0u64; 2];
        for (k, heuristic_dominance) in [false, true].into_iter().enumerate() {
            let opts = SizingOptions {
                heuristic_dominance,
                ..SizingOptions::default()
            };
            let c = compaction_stats(&circuit, &lib, &boundary, &opts).expect("compaction succeeds");
            got[k] = compaction_hash(&c);
        }
        let name = spec.to_string();
        match GOLDEN.get(i) {
            Some(&(n, sound, heuristic)) if n == name && got == [sound, heuristic] => {}
            _ => moved.push(format!("    (\"{name}\", {:#018x}, {:#018x}),", got[0], got[1])),
        }
    }
    assert_eq!(specs.len(), GOLDEN.len(), "entry count changed:\n{}", moved.join("\n"));
    assert!(moved.is_empty(), "compaction classes moved; now:\n{}", moved.join("\n"));
}
