//! Workload inputs: the committed reference delays and every seeded draw.
//!
//! The program under test only ever receives what this module generates
//! from `--seed`. The reference delays are constants measured once with
//! `--calibrate` and committed here, so a timed run never asks the program
//! to produce its own inputs.

use smart_core::{minimize_delay, DelaySpec, SizingOptions};
use smart_macros::{representative_database, MacroSpec};
use smart_models::{CornerSet, ModelLibrary};
use smart_netlist::Circuit;
use smart_prng::Prng;
use smart_sta::Boundary;
use smart_trace::Trace;

/// The seed whose output digests are committed in `baseline.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Output load (fF) the reference delays are calibrated at.
const CAL_LOAD_FF: f64 = 12.0;

/// `(macro, single-corner T_REF, slow/typical/fast T_REF)` in ps: the
/// minimum achievable delay `minimize_delay` finds at a 12 fF load on every
/// output, printed by `--calibrate`.
pub const T_REF: &[(&str, f64, f64)] = &[
    ("mux8 (strongly-mutexed-passgate)", 247.058, 336.470),
    ("mux8 (weakly-mutexed-passgate)", 435.008, 594.099),
    ("mux2 (2-input-passgate-encoded)", 136.600, 182.881),
    ("mux8 (tristate)", 389.189, 547.346),
    ("mux8 (unsplit-domino)", 203.747, 276.532),
    ("mux8 (partitioned-domino)", 161.501, 219.447),
    ("mux4 (strongly-mutexed-passgate)", 166.373, 225.540),
    ("inc8", 1292.466, 1712.368),
    ("inc32", 5440.680, 7205.930),
    ("inc8-cla", 639.855, 848.514),
    ("inc32-cla", 1152.105, 1519.675),
    ("dec8", 1369.779, 1813.826),
    ("zd16 (Static)", 291.880, 397.173),
    ("zd64 (Static)", 535.844, 724.182),
    ("zd16 (Domino)", 261.269, 348.353),
    ("zd64 (Domino)", 303.718, 406.882),
    ("dec3to8", 197.144, 264.860),
    ("dec5to32", 304.841, 408.262),
    ("penc8to3", 1472.418, 1952.994),
    ("enc8to3", 271.625, 366.013),
    ("cmp32 (xorsum2-nor4)", 372.865, 502.243),
    ("cmp32 (xorsum1-nor8)", 370.199, 499.011),
    ("cmp32 (xorsum4-nor4)", 388.595, 522.055),
    ("cmp64 (xorsum2-nor4)", 464.444, 631.055),
    ("cla8", 707.799, 931.913),
    ("cla64", 1130.014, 1589.325),
    ("rf16x8", 1195.514, 1641.661),
    ("shift8 (sll)", 493.084, 657.446),
    ("shift8 (srl)", 493.084, 657.446),
    ("shift8 (rol)", 493.084, 657.446),
    ("shift32 (rol)", 884.509, 1179.790),
];

/// The four workloads, in the order the all-workloads run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepDb,
    SweepStf,
    Adder64,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepDb,
        Workload::SweepStf,
        Workload::Adder64,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepDb => "sweep-db",
            Workload::SweepStf => "sweep-stf",
            Workload::Adder64 => "adder64",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The reference delay of `spec`'s own topology (single corner or stf).
///
/// # Panics
///
/// Panics if `spec` has no committed entry; the table test pins that every
/// workload macro has exactly one.
pub fn t_ref(spec: &MacroSpec, stf: bool) -> f64 {
    let name = spec.to_string();
    match T_REF.iter().find(|(n, _, _)| *n == name) {
        Some(&(_, single, corners)) => {
            if stf {
                corners
            } else {
                single
            }
        }
        None => panic!("no committed T_REF for {name}; rerun --calibrate"),
    }
}

/// The flow options every workload sizes under: product defaults with
/// tracing forced off (the environment must not turn it on), optionally at
/// the slow/typical/fast corners.
pub fn sizing_options(lib: &ModelLibrary, stf: bool) -> SizingOptions {
    SizingOptions {
        corners: stf.then(|| CornerSet::slow_typical_fast(lib.process())),
        trace: Trace::disabled(),
        ..SizingOptions::default()
    }
}

/// `load` fF on every output port of `circuit`.
pub fn boundary_for(circuit: &Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for port in circuit.output_ports() {
        b.output_loads.insert(port.name.clone(), load);
    }
    b
}

/// The database swept by `sweep-db` and `sweep-stf`: every representative
/// entry except `cla64`, which `adder64` covers on its own.
pub fn sweep_entries() -> Vec<MacroSpec> {
    representative_database()
        .into_iter()
        .filter(|s| *s != MacroSpec::ClaAdder { width: 64 })
        .collect()
}

/// One exploration request: the requested topology (its alternatives are
/// sized too), the boundary and the delay target.
#[derive(Debug, Clone)]
pub struct ExploreOp {
    pub request: MacroSpec,
    pub boundary: Boundary,
    pub spec: DelaySpec,
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(&mut p, rng);
    p
}

/// Fisher–Yates with the workspace PRNG.
fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_in(0, i + 1));
    }
}

/// A draw from `[lo, hi)` restricted to stratum `k` of `n` equal strata.
fn stratified(lo: f64, hi: f64, k: usize, n: usize, rng: &mut Prng) -> f64 {
    lo + (hi - lo) * (k as f64 + rng.f64()) / n as f64
}

/// The sweep pass: `sets` draws over the sweep database. Each entry gets a
/// load in U(8, 24) fF and a spec of `T_REF` × U(1.1, 1.6), drawn as a
/// Latin hypercube over the sets: across its `sets` draws, an entry's load
/// and factor each fall once into every stratum of their range, in seeded
/// order. The draws stay uniform, and a pass's mix of loose, tight and
/// infeasible targets (which sets its cost) barely moves with the seed.
/// Both sweeps consume the same stream, so `sweep-stf` sees exactly the
/// draws of `sweep-db` against the stf reference delays.
pub fn sweep_ops(seed: u64, stf: bool, sets: usize) -> Vec<ExploreOp> {
    let entries = sweep_entries();
    let mut rng = Prng::new(seed);
    let strata: Vec<(Vec<usize>, Vec<usize>)> = entries
        .iter()
        .map(|_| (permutation(sets, &mut rng), permutation(sets, &mut rng)))
        .collect();
    let mut ops = Vec::with_capacity(entries.len() * sets);
    for k in 0..sets {
        for (request, (loads, factors)) in entries.iter().zip(&strata) {
            let load = stratified(8.0, 24.0, loads[k], sets, &mut rng);
            let factor = stratified(1.1, 1.6, factors[k], sets, &mut rng);
            ops.push(ExploreOp {
                boundary: boundary_for(&request.generate(), load),
                spec: DelaySpec::uniform(t_ref(request, stf) * factor),
                request: request.clone(),
            });
        }
    }
    ops
}

/// Fig. 6 normalized delays of the `adder64` curve.
const FIG6_POINTS: [f64; 4] = [1.0, 1.074, 1.1716, 1.2707];

/// The `adder64` cycle: the `width`-bit CLA adder (64 outside smoke runs)
/// at t0·{1.0, 1.074, 1.1716, 1.2707} with t0 = 1.22·`T_REF`, at 12 and
/// 20 fF. The seed only picks the order the eight points are visited in.
pub fn adder_ops(seed: u64, width: usize) -> Vec<ExploreOp> {
    let adder = MacroSpec::ClaAdder { width };
    let t0 = 1.22 * t_ref(&adder, false);
    let mut ops: Vec<ExploreOp> = [12.0, 20.0]
        .into_iter()
        .flat_map(|load| FIG6_POINTS.map(|nd| (load, nd)))
        .map(|(load, nd)| ExploreOp {
            request: adder.clone(),
            boundary: boundary_for(&adder.generate(), load),
            spec: DelaySpec::uniform(t0 * nd),
        })
        .collect();
    shuffle(&mut ops, &mut Prng::new(seed ^ 0xadde_7264));
    ops
}

/// Wire names (the `MacroSpec::parse` grammar) of the sweep entries the
/// serve protocol can address; the rest have no wire spelling.
pub const SERVE_MACROS: [&str; 25] = [
    "mux8",
    "mux8:weak",
    "mux2:enc",
    "mux8:tri",
    "mux8:dom",
    "mux8:split",
    "mux4",
    "inc8",
    "inc32",
    "dec8",
    "zd16",
    "zd64",
    "zd16:domino",
    "zd64:domino",
    "decoder3",
    "decoder5",
    "penc3",
    "cmp32",
    "cmp64",
    "cla8",
    "rf16x8",
    "shift8:sll",
    "shift8:srl",
    "shift8:rol",
    "shift32:rol",
];

/// Macros the hot set explores (each has several topology alternatives).
const SERVE_EXPLORES: [&str; 5] = ["mux8", "zd16", "zd64", "inc8", "cmp32"];

/// Hot-set size of `serve-mix`.
pub const HOT_SET: usize = 64;

/// Share of `serve-mix` requests drawn from the hot set.
const HOT_SHARE: f64 = 0.8;

/// Strata of a fresh request's spec factor, per macro.
const FRESH_STRATA: usize = 8;

/// One `serve-mix` request line and where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub line: String,
    /// Index into the hot set, or `None` for a fresh request.
    pub hot: Option<usize>,
}

fn request_line(op: &str, name: &str, load: f64, delay: f64) -> String {
    format!("{{\"op\":\"{op}\",\"macro\":\"{name}\",\"load\":{load},\"delay\":{delay}}}")
}

fn parse_wire(name: &str) -> MacroSpec {
    MacroSpec::parse(name).unwrap_or_else(|| panic!("bad wire name {name}"))
}

/// The hot set: five explores, then `size` requests cycling through
/// [`SERVE_MACROS`] (so which macros it holds does not depend on the
/// seed). Loads are U(8, 24) fF and delays `T_REF` × U(1.2, 1.6) — for an
/// explore, of its slowest alternative — so every hot answer is a sizing
/// and cacheable: a hot entry the cache cannot keep would be recomputed on
/// every replay and set the run's throughput by itself.
pub fn hot_set(seed: u64) -> Vec<String> {
    let mut rng = Prng::new(seed ^ 0x05e7_e407);
    let mut draw = |op, name: &str, t_ref: f64| {
        let load = rng.f64_in(8.0, 24.0);
        request_line(op, name, load, t_ref * rng.f64_in(1.2, 1.6))
    };
    let mut set: Vec<String> = SERVE_EXPLORES
        .iter()
        .map(|name| {
            let slowest = parse_wire(name)
                .alternatives()
                .iter()
                .map(|alt| t_ref(alt, false))
                .fold(0.0, f64::max);
            draw("explore", name, slowest)
        })
        .collect();
    for name in SERVE_MACROS
        .iter()
        .cycle()
        .take(HOT_SET - SERVE_EXPLORES.len())
    {
        set.push(draw("size", name, t_ref(&parse_wire(name), false)));
    }
    set
}

/// One client's closed-loop request stream: 80% hot-set replays, 20%
/// fresh `size` requests that miss the cache. Fresh requests cycle through
/// [`SERVE_MACROS`] in a seeded order at a load in U(8, 24) fF and a delay
/// of `T_REF` × U(0.95, 1.6), so some answers are infeasible; each macro's
/// factor walks its eight strata in seeded order, which keeps the share of
/// (slow, uncached) infeasible answers the same from seed to seed.
/// Deterministic in `(seed, client)`; a run consumes as much of it as time
/// allows.
pub struct RequestStream {
    rng: Prng,
    hot: Vec<String>,
    order: Vec<&'static str>,
    strata: Vec<Vec<usize>>,
    fresh: usize,
}

impl RequestStream {
    pub fn new(seed: u64, client: u64) -> Self {
        let mut rng = Prng::new(seed ^ 0xc11e_0000 ^ client.wrapping_mul(0x9e37_79b9));
        let mut order = SERVE_MACROS.to_vec();
        shuffle(&mut order, &mut rng);
        let strata = order
            .iter()
            .map(|_| permutation(FRESH_STRATA, &mut rng))
            .collect();
        RequestStream {
            rng,
            hot: hot_set(seed),
            order,
            strata,
            fresh: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.rng.f64() < HOT_SHARE {
            let idx = self.rng.usize_in(0, self.hot.len());
            return Some(Request {
                line: self.hot[idx].clone(),
                hot: Some(idx),
            });
        }
        let (m, round) = (self.fresh % self.order.len(), self.fresh / self.order.len());
        self.fresh += 1;
        let name = self.order[m];
        let load = self.rng.f64_in(8.0, 24.0);
        let stratum = self.strata[m][round % FRESH_STRATA];
        let factor = stratified(0.95, 1.6, stratum, FRESH_STRATA, &mut self.rng);
        Some(Request {
            line: request_line("size", name, load, t_ref(&parse_wire(name), false) * factor),
            hot: None,
        })
    }
}

/// `--calibrate`: measures the reference delay table with
/// `minimize_delay` and prints it as the Rust source of [`T_REF`].
pub fn calibrate() -> Result<(), String> {
    let lib = ModelLibrary::reference();
    println!("pub const T_REF: &[(&str, f64, f64)] = &[");
    for spec in representative_database() {
        let circuit = spec.generate();
        let boundary = boundary_for(&circuit, CAL_LOAD_FF);
        let mut row = Vec::new();
        for stf in [false, true] {
            let opts = sizing_options(&lib, stf);
            let (t, _) = minimize_delay(&circuit, &lib, &boundary, &opts)
                .map_err(|e| format!("{spec}: {e}"))?;
            row.push(t);
        }
        println!("    (\"{spec}\", {:.3}, {:.3}),", row[0], row[1]);
    }
    println!("];");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every macro a workload sizes has exactly one reference entry, and
    /// the table holds nothing else.
    #[test]
    fn t_ref_has_one_entry_per_workload_macro() {
        let mut wanted: Vec<String> = sweep_entries().iter().map(ToString::to_string).collect();
        wanted.push(MacroSpec::ClaAdder { width: 64 }.to_string());
        let explored = SERVE_EXPLORES
            .iter()
            .flat_map(|name| parse_wire(name).alternatives());
        for spec in SERVE_MACROS
            .iter()
            .map(|name| parse_wire(name))
            .chain(explored)
        {
            assert!(
                wanted.contains(&spec.to_string()),
                "{spec} is not a sweep entry"
            );
        }
        for name in &wanted {
            let n = T_REF.iter().filter(|(m, _, _)| m == name).count();
            assert_eq!(n, 1, "{name} has {n} T_REF entries");
        }
        assert_eq!(
            T_REF.len(),
            wanted.len(),
            "T_REF has entries no workload uses"
        );
        for (name, single, stf) in T_REF {
            assert!(*single > 0.0 && stf >= single, "{name}: {single} / {stf}");
        }
    }

    fn digest_of(ops: &[ExploreOp]) -> Vec<(String, u64, u64)> {
        ops.iter()
            .map(|o| {
                let load: f64 = o.boundary.output_loads.values().sum();
                (o.request.to_string(), load.to_bits(), o.spec.data.to_bits())
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            digest_of(&sweep_ops(7, false, 2)),
            digest_of(&sweep_ops(7, false, 2))
        );
        assert_ne!(
            digest_of(&sweep_ops(7, false, 1)),
            digest_of(&sweep_ops(8, false, 1))
        );
        assert_eq!(digest_of(&adder_ops(7, 64)), digest_of(&adder_ops(7, 64)));
        assert_ne!(digest_of(&adder_ops(7, 64)), digest_of(&adder_ops(8, 64)));
        let take = |seed, client| {
            RequestStream::new(seed, client)
                .take(50)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
        assert_eq!(hot_set(7), hot_set(7));
        assert_ne!(hot_set(7), hot_set(8));
    }

    /// Both sweeps draw the same loads and factors; only the reference
    /// delay table differs.
    #[test]
    fn sweeps_share_their_draws() {
        let db = sweep_ops(3, false, 1);
        let stf = sweep_ops(3, true, 1);
        assert_eq!(db.len(), 30);
        for (a, b) in db.iter().zip(&stf) {
            assert_eq!(a.boundary.output_loads, b.boundary.output_loads);
            let fa = a.spec.data / t_ref(&a.request, false);
            let fb = b.spec.data / t_ref(&b.request, true);
            assert!((fa - fb).abs() < 1e-12);
        }
    }
}
