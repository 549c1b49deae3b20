//! Bit-exact golden values of the assembled sizing GPs over the
//! representative database, plus the retarget contract.
//!
//! Each entry is built at 12 fF on every output and a uniform 1500 ps
//! spec, once at the single corner and once at slow/typical/fast. The
//! pinned value is a [`StableHasher`] over the objective and every
//! constraint in order: its label, then each term's coefficient bits and
//! exponent row as `(variable index, exponent bits)`. A change to how the
//! constraint generator merges, multiplies or orders terms — even one
//! that moves a single coefficient by one ulp — fails here, before any
//! solve could hide it inside a tolerance.

use smart_core::constraints::{boundary_extra_loads, build_min_delay_gp, build_sizing_gp, SizingGp};
use smart_core::{compact, Compaction, DelaySpec, SizingOptions};
use smart_gp::GpProblem;
use smart_macros::{representative_database, MacroSpec};
use smart_models::{CornerSet, ModelLibrary};
use smart_netlist::{Circuit, StableHasher};
use smart_posy::PosyView;
use smart_sta::Boundary;

/// `(spec, single-corner hash, slow/typical/fast hash)` in database order.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("mux8 (strongly-mutexed-passgate)", 0x063fc209bb31602e, 0x5aa9239c02558da1),
    ("mux8 (weakly-mutexed-passgate)", 0x6df746b03efc4b29, 0x5fe5faca5fc3333e),
    ("mux2 (2-input-passgate-encoded)", 0x76a7cd97d5859f54, 0x158266e5a2a67f06),
    ("mux8 (tristate)", 0x3c166697cf846b75, 0x0371ed7f79a9712d),
    ("mux8 (unsplit-domino)", 0xe2e0d6884e5d2dba, 0x5c92abf5e3d15859),
    ("mux8 (partitioned-domino)", 0x3acd2c190b0afcf4, 0x73b356230be5d2e6),
    ("mux4 (strongly-mutexed-passgate)", 0x4c4e1478b7cade18, 0x235157e9e20c877a),
    ("inc8", 0x9190be844bd2ef69, 0x997a7f807ab865b3),
    ("inc32", 0x3037e58f2b7abf7e, 0xae9d18aa68dd2104),
    ("inc8-cla", 0x268b2865de8894e9, 0x370f87177c23b209),
    ("inc32-cla", 0x87a9e5a0d5c6c278, 0x6afab5c4ad08e2ef),
    ("dec8", 0x67fea0ce896a9ca4, 0x839ca77c3d3b340a),
    ("zd16 (Static)", 0xd0e56fcc1f292507, 0x278aa4228f9d58d2),
    ("zd64 (Static)", 0x23f1ba8f2c2478a7, 0x4aed73d30e62a880),
    ("zd16 (Domino)", 0x13fbd03d0d3844ba, 0x3a654700bb86142c),
    ("zd64 (Domino)", 0x2e90e116da8bd2d6, 0x3e90aac611016fb6),
    ("dec3to8", 0x2c3a5ffe0c34fad5, 0x3aba7440d1df2d28),
    ("dec5to32", 0x7957000f44533e02, 0x21d6084dccad1d79),
    ("penc8to3", 0x306e0514178ba1db, 0x946aef742bf6c930),
    ("enc8to3", 0x1b011b3e7046748d, 0xae25bb4d4808d4d0),
    ("cmp32 (xorsum2-nor4)", 0x69aee5bc426c2f55, 0x703582ddee9f1a37),
    ("cmp32 (xorsum1-nor8)", 0x8381cbfa05846715, 0xc9ab99d72908d4b7),
    ("cmp32 (xorsum4-nor4)", 0xeb7cf9b0ad966efd, 0xad7b057871d0145d),
    ("cmp64 (xorsum2-nor4)", 0x49d7188281b6fbe1, 0x40b2433dc404ae02),
    ("cla8", 0x313f05e289d76082, 0x9d8a002e3d96a7b2),
    ("cla64", 0x8a5e16ede325fb4f, 0x56cbc134a4cecf00),
    ("rf16x8", 0x11fcfd62443bc4ce, 0x8af17a39dcb1693f),
    ("shift8 (sll)", 0x58de3f465cdc5038, 0xa980ea13cde3b464),
    ("shift8 (srl)", 0x92428aecde53d464, 0x363c4d9001f1f090),
    ("shift8 (rol)", 0x0fa8a881a1f69b07, 0x1aff81e8ad439ac1),
    ("shift32 (rol)", 0xda2888ce27f553e4, 0xd5ddfe1305c2fd32),
];

/// `(database index, single-corner hash, slow/typical/fast hash)` of the
/// delay-minimization GP.
const MIN_DELAY_GOLDEN: &[(usize, u64, u64)] = &[
    (0, 0xa21cf4549f380d69, 0xb499d751e6734d42),
    (4, 0x6cad7181efc79208, 0xc556aad774ecdf84),
    (7, 0x7275efa797c3d11c, 0xb3c6b96bd85fedf7),
    (12, 0x41b6d04c0b90fa0a, 0x1deef0e5c5bdd56c),
    (24, 0x39ea77062b298eb8, 0xc8b06b31e7bbdba0),
];

/// Output load (fF) on every output port.
const LOAD_FF: f64 = 12.0;

/// The spec every golden GP is built at.
const SPEC_PS: f64 = 1500.0;

fn options(stf: bool) -> SizingOptions {
    SizingOptions {
        corners: stf.then(|| CornerSet::slow_typical_fast(ModelLibrary::reference().process())),
        ..SizingOptions::default()
    }
}

/// Everything `build_sizing_gp` reads, prepared as `size_circuit` does.
struct Inputs {
    circuit: Circuit,
    lib: ModelLibrary,
    boundary: Boundary,
    compaction: Compaction,
}

impl Inputs {
    fn new(spec: &MacroSpec, opts: &SizingOptions) -> Self {
        let circuit = spec.generate();
        let lib = ModelLibrary::reference();
        let mut boundary = Boundary::default();
        for port in circuit.output_ports() {
            boundary.output_loads.insert(port.name.clone(), LOAD_FF);
        }
        let (_, vars) = smart_models::label_vars(&circuit);
        let extra = boundary_extra_loads(&circuit, &boundary);
        let compaction = compact(&circuit, &lib, &vars, &extra, opts).expect("compaction succeeds");
        Inputs {
            circuit,
            lib,
            boundary,
            compaction,
        }
    }

    fn sizing_gp(&self, spec: &DelaySpec, opts: &SizingOptions) -> SizingGp {
        let extra = boundary_extra_loads(&self.circuit, &self.boundary);
        build_sizing_gp(
            &self.circuit,
            &self.lib,
            &self.compaction,
            &self.boundary,
            &extra,
            spec,
            opts,
        )
        .expect("sizing GP builds")
    }
}

fn hash_posynomial(h: &mut StableHasher, p: PosyView<'_>) {
    h.write_usize(p.terms().len());
    for &(id, c) in p.terms() {
        h.write_f64_bits(c);
        let row = p.row(id);
        h.write_usize(row.len());
        for &(v, e) in row {
            h.write_usize(v.index());
            h.write_f64_bits(e);
        }
    }
}

fn gp_hash(gp: &GpProblem) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(gp.dim());
    hash_posynomial(&mut h, gp.objective());
    h.write_usize(gp.constraints().len());
    for c in gp.constraints() {
        h.write_str(&c.label);
        hash_posynomial(&mut h, gp.body(c));
    }
    h.finish()
}

#[test]
fn sizing_gp_builds_are_bit_exact() {
    let specs = representative_database();
    let mut moved = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut got = [0u64; 2];
        for (k, stf) in [false, true].into_iter().enumerate() {
            let opts = options(stf);
            let inputs = Inputs::new(spec, &opts);
            got[k] = gp_hash(&inputs.sizing_gp(&DelaySpec::uniform(SPEC_PS), &opts).gp);
        }
        let name = spec.to_string();
        match GOLDEN.get(i) {
            Some(&(n, single, stf)) if n == name && got == [single, stf] => {}
            _ => moved.push(format!("    (\"{name}\", {:#018x}, {:#018x}),", got[0], got[1])),
        }
    }
    assert_eq!(specs.len(), GOLDEN.len(), "database size changed:\n{}", moved.join("\n"));
    assert!(moved.is_empty(), "GP bits moved; now:\n{}", moved.join("\n"));
}

#[test]
fn min_delay_gp_builds_are_bit_exact() {
    let specs = representative_database();
    let mut moved = Vec::new();
    for &i in &[0usize, 4, 7, 12, 24] {
        let mut got = [0u64; 2];
        for (k, stf) in [false, true].into_iter().enumerate() {
            let opts = options(stf);
            let inputs = Inputs::new(&specs[i], &opts);
            let extra = boundary_extra_loads(&inputs.circuit, &inputs.boundary);
            let (built, _) = build_min_delay_gp(
                &inputs.circuit,
                &inputs.lib,
                &inputs.compaction,
                &inputs.boundary,
                &extra,
                &opts,
            )
            .expect("min-delay GP builds");
            got[k] = gp_hash(&built.gp);
        }
        if !MIN_DELAY_GOLDEN.contains(&(i, got[0], got[1])) {
            moved.push(format!("    ({i}, {:#018x}, {:#018x}),", got[0], got[1]));
        }
    }
    assert!(moved.is_empty(), "min-delay GP bits moved; now:\n{}", moved.join("\n"));
}

/// `retarget` promises the problem a fresh build at the new spec would
/// assemble, bit for bit: check it, with distinct data and precharge
/// budgets so both divisors move, and check that retargeting back
/// restores the original bits.
#[test]
fn retarget_equals_a_fresh_build() {
    let first = DelaySpec::uniform(SPEC_PS);
    let second = DelaySpec {
        data: 1234.5,
        precharge: Some(987.25),
    };
    for spec in representative_database() {
        for stf in [false, true] {
            let opts = options(stf);
            let inputs = Inputs::new(&spec, &opts);
            let mut built = inputs.sizing_gp(&first, &opts);
            let original = gp_hash(&built.gp);
            built.retarget(&second).expect("retarget succeeds");
            let fresh = inputs.sizing_gp(&second, &opts);
            assert_eq!(
                gp_hash(&built.gp),
                gp_hash(&fresh.gp),
                "{spec} (stf: {stf}): retargeted GP differs from a fresh build"
            );
            built.retarget(&first).expect("retarget succeeds");
            assert_eq!(gp_hash(&built.gp), original, "{spec} (stf: {stf}): retarget back");
        }
    }
}
