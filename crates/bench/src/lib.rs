//! Experiment harness: one function per table/figure of the paper's
//! evaluation section, shared by the `fig*`/`table*` binaries and the
//! timing benches. Every function is deterministic: randomized inputs
//! come from the re-exported [`Prng`], never from ambient entropy, so the
//! whole harness builds and runs offline.
//!
//! | paper result | function | binary |
//! |---|---|---|
//! | Fig. 5(a) incrementors | [`fig5a`] | `fig5a` |
//! | Fig. 5(b) zero detects | [`fig5b`] | `fig5b` |
//! | Fig. 5(c) decoders | [`fig5c`] | `fig5c` |
//! | Table 1 mux topologies | [`table1`] | `table1` |
//! | Fig. 6 adder area-delay | [`fig6`] | `fig6` |
//! | Fig. 7 comparator exploration | [`fig7`] | `fig7` |
//! | Table 2 block power | [`table2`] | `table2` |
//! | §5.2 path compaction | [`paths52`] | `paths52` |
//! | §6.4 full block | [`block64`] | `block64` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smart_prng::Prng;

use smart_blocks::{evaluate_block, section64_block, table2_blocks, BlockReport};
use smart_core::{
    baseline_sizing, compaction_stats, measure_phase_delays, minimize_delay, size_circuit,
    BaselineMargins, DelaySpec, FlowError, SizingOptions,
};
use smart_macros::{ComparatorVariant, MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::ModelLibrary;
use smart_sta::{max_delay, Boundary};

/// One row of a Fig.-5-style comparison: baseline ("original") vs SMART
/// total transistor width at identical measured delay.
#[derive(Debug, Clone)]
pub struct SavingsRow {
    /// Circuit label as the paper prints it (e.g. `"13bitinc"`).
    pub circuit: String,
    /// Baseline (hand-design model) total width.
    pub original_width: f64,
    /// SMART width at the same delay.
    pub smart_width: f64,
    /// Matched delay (ps).
    pub delay: f64,
    /// Baseline clock load (0 for static macros).
    pub original_clock: f64,
    /// SMART clock load.
    pub smart_clock: f64,
}

impl SavingsRow {
    /// SMART width normalized to the original (the Fig. 5 bar height).
    pub fn normalized(&self) -> f64 {
        self.smart_width / self.original_width
    }

    /// Width savings fraction.
    pub fn width_savings(&self) -> f64 {
        1.0 - self.normalized()
    }

    /// Clock-load savings fraction (`None` for unclocked macros).
    pub fn clock_savings(&self) -> Option<f64> {
        if self.original_clock > 0.0 {
            Some(1.0 - self.smart_clock / self.original_clock)
        } else {
            None
        }
    }
}

/// Runs the §6.1 protocol on one macro: baseline-size, measure with STA,
/// re-size with SMART to the same delay, report both widths.
///
/// # Errors
///
/// Propagates flow errors (an infeasible re-size is a harness bug: the
/// baseline point itself is feasible).
pub fn protocol_61(
    label: &str,
    spec: &MacroSpec,
    output_load: f64,
    lib: &ModelLibrary,
    opts: &SizingOptions,
) -> Result<SavingsRow, FlowError> {
    let circuit = spec.generate();
    let mut boundary = Boundary::default();
    for port in circuit.output_ports() {
        boundary.output_loads.insert(port.name.clone(), output_load);
    }
    let base = baseline_sizing(&circuit, lib, &boundary, &BaselineMargins::default());
    let delay = max_delay(&circuit, lib, &base, &boundary)?;
    let outcome = size_circuit(&circuit, lib, &boundary, &DelaySpec::uniform(delay), opts)?;
    Ok(SavingsRow {
        circuit: label.to_owned(),
        original_width: circuit.total_width(&base),
        smart_width: outcome.total_width,
        delay,
        original_clock: circuit.clock_load(&base),
        smart_clock: circuit.clock_load(&outcome.sizing),
    })
}

fn rows(
    cases: &[(&str, MacroSpec, f64)],
    lib: &ModelLibrary,
    opts: &SizingOptions,
) -> Vec<SavingsRow> {
    cases
        .iter()
        .map(|(label, spec, load)| {
            protocol_61(label, spec, *load, lib, opts).unwrap_or_else(|e| panic!("{label}: {e}"))
        })
        .collect()
}

/// Fig. 5(a): incrementors/decrementors of the paper's widths, two loads
/// for the repeated instances.
pub fn fig5a(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<SavingsRow> {
    let inc = |w| MacroSpec::Incrementor { width: w };
    let dec = |w| MacroSpec::Decrementor { width: w };
    rows(
        &[
            ("3bitinc", inc(3), 10.0),
            ("3bitdec", dec(3), 10.0),
            ("13bitinc", inc(13), 12.0),
            ("13bitinc-b", inc(13), 24.0),
            ("27bitinc", inc(27), 14.0),
            ("39bitinc", inc(39), 14.0),
            ("47bitinc", inc(47), 16.0),
            ("48bitinc", inc(48), 16.0),
            ("64bitdec", dec(64), 18.0),
        ],
        lib,
        opts,
    )
}

/// Fig. 5(b): zero-detects of the paper's widths (repeated widths use the
/// two implementation styles, as different design instances would).
pub fn fig5b(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<SavingsRow> {
    let zd = |w, style| MacroSpec::ZeroDetect { width: w, style };
    use ZeroDetectStyle::{Domino, Static};
    rows(
        &[
            ("6bit", zd(6, Static), 10.0),
            ("8bit", zd(8, Static), 10.0),
            ("8bit-dom", zd(8, Domino), 12.0),
            ("16bit", zd(16, Static), 12.0),
            ("16bit-dom", zd(16, Domino), 14.0),
            ("22bit", zd(22, Domino), 14.0),
            ("32bit", zd(32, Domino), 16.0),
            ("63bit", zd(63, Domino), 18.0),
        ],
        lib,
        opts,
    )
}

/// Fig. 5(c): decoders of the paper's sizes.
pub fn fig5c(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<SavingsRow> {
    let d = |bits| MacroSpec::Decoder { in_bits: bits };
    rows(
        &[
            ("3to8", d(3), 8.0),
            ("3to8-b", d(3), 16.0),
            ("4to16", d(4), 8.0),
            ("4to16-b", d(4), 14.0),
            ("4to16-c", d(4), 22.0),
            ("6to64", d(6), 10.0),
            ("6to64-b", d(6), 18.0),
            ("7to128", d(7), 12.0),
        ],
        lib,
        opts,
    )
}

/// One Table-1 row: average width/clock savings across several instances
/// of a mux topology.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Topology name.
    pub topology: String,
    /// Average width savings fraction.
    pub width_savings: f64,
    /// Average clock-load savings fraction (`None` for unclocked).
    pub clock_savings: Option<f64>,
    /// Instances averaged.
    pub instances: usize,
}

/// Table 1: width/clock savings per mux topology, averaged over several
/// instances (widths and loads varied, as in the paper).
pub fn table1(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<Table1Row> {
    // Pass/tri-state topologies appear on narrow muxes; domino topologies
    // are what designers reach for on wide ones (paper §4: partitioned
    // domino "is used when the size of the mux is large"), so their
    // instance populations differ.
    let narrow_set: &[(usize, f64)] = &[(4, 12.0), (8, 18.0), (4, 30.0), (8, 40.0)];
    let wide_set: &[(usize, f64)] = &[(8, 14.0), (12, 20.0), (16, 26.0), (12, 36.0)];
    let enc_set: &[(usize, f64)] = &[(2, 10.0), (2, 20.0), (2, 35.0)];
    let mut out = Vec::new();
    for topo in MuxTopology::all() {
        let set = if topo == MuxTopology::EncodedSelectPass {
            enc_set
        } else if topo.is_domino() {
            wide_set
        } else {
            narrow_set
        };
        let mut w_sav = Vec::new();
        let mut c_sav = Vec::new();
        for &(width, load) in set {
            if !topo.supports_width(width) {
                continue;
            }
            let spec = MacroSpec::Mux {
                topology: topo,
                width,
            };
            let row = protocol_61(topo.name(), &spec, load, lib, opts)
                .unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
            w_sav.push(row.width_savings());
            if let Some(cs) = row.clock_savings() {
                c_sav.push(cs);
            }
        }
        let n = w_sav.len();
        out.push(Table1Row {
            topology: topo.name().to_owned(),
            width_savings: w_sav.iter().sum::<f64>() / n as f64,
            clock_savings: if c_sav.is_empty() {
                None
            } else {
                Some(c_sav.iter().sum::<f64>() / c_sav.len() as f64)
            },
            instances: n,
        });
    }
    out
}

/// One point of the Fig.-6 area-delay curve.
#[derive(Debug, Clone, Copy)]
pub struct AreaDelayPoint {
    /// Delay spec normalized to the fastest achievable point.
    pub norm_delay: f64,
    /// Total width normalized to the width at the relaxed end.
    pub norm_area: f64,
    /// Absolute delay (ps).
    pub delay_ps: f64,
    /// Absolute width.
    pub width: f64,
}

/// Fig. 6: the area-delay tradeoff of the dynamic CLA adder. The paper's
/// x-axis points are 1.0, 1.074, 1.1716, 1.2707 (normalized delay); area
/// is normalized so the most relaxed point is lowest.
///
/// `width` lets callers shrink the adder for quick runs (the paper uses
/// 64 bits).
pub fn fig6(lib: &ModelLibrary, opts: &SizingOptions, width: usize) -> Vec<AreaDelayPoint> {
    let circuit = MacroSpec::ClaAdder { width }.generate();
    let mut boundary = Boundary::default();
    for port in circuit.output_ports() {
        boundary.output_loads.insert(port.name.clone(), 12.0);
    }
    let (t_star, _) = minimize_delay(&circuit, lib, &boundary, opts)
        .unwrap_or_else(|e| panic!("adder delay minimization: {e}"));
    // Anchor the sweep's "1.0" a practical margin above the absolute
    // achievable minimum: real designs do not sit on the vertical wall of
    // the tradeoff curve, and the paper's normalized-delay-1.0 point is a
    // shipping design point, not the theoretical minimum.
    let t0 = t_star * 1.22;
    let sweep = [1.0, 1.074, 1.1716, 1.2707];
    let mut pts = Vec::new();
    for &nd in &sweep {
        let spec = DelaySpec::uniform(t0 * nd);
        let outcome = size_circuit(&circuit, lib, &boundary, &spec, opts)
            .unwrap_or_else(|e| panic!("adder at {nd}: {e}"));
        pts.push((nd, spec.data, outcome.total_width));
    }
    let Some(&(_, _, w_ref)) = pts.last() else {
        unreachable!("the Fig. 6 sweep is non-empty by construction")
    };
    pts.into_iter()
        .map(|(nd, d, w)| AreaDelayPoint {
            norm_delay: nd,
            norm_area: w / w_ref,
            delay_ps: d,
            width: w,
        })
        .collect()
}

/// One Fig.-7 exploration entry for the 32-bit comparator.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Candidate description.
    pub name: String,
    /// Area (total width) normalized to the original hand design.
    pub norm_area: f64,
    /// Clock load normalized to the original hand design.
    pub norm_clock: f64,
    /// Evaluate delay normalized to the original (≈ 1.0: equal speed).
    pub norm_eval: f64,
    /// Precharge delay normalized to the original.
    pub norm_pre: f64,
}

/// Fig. 7: 32-bit comparator topology exploration. The original
/// (hand-sized Xorsum2/Nor4) is the reference; SMART re-sizes the same
/// topology and explores the two alternatives at the original's measured
/// delays.
pub fn fig7(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<Fig7Row> {
    let load = 20.0;
    let original = ComparatorVariant::merced();
    let circuit = MacroSpec::Comparator {
        width: 32,
        variant: original,
    }
    .generate();
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("eq".into(), load);
    let base = baseline_sizing(&circuit, lib, &boundary, &BaselineMargins::default());
    let (base_eval, base_pre) = measure_phase_delays(&circuit, lib, &base, &boundary, opts)
        .unwrap_or_else(|e| panic!("original comparator phases: {e}"));
    let base_width = circuit.total_width(&base);
    let base_clock = circuit.clock_load(&base);
    let spec = DelaySpec {
        data: base_eval,
        precharge: Some(base_pre.max(1.0)),
    };

    let mut out = vec![Fig7Row {
        name: format!("original ({})", original.name()),
        norm_area: 1.0,
        norm_clock: 1.0,
        norm_eval: 1.0,
        norm_pre: 1.0,
    }];
    for variant in ComparatorVariant::exploration_set() {
        let cand = MacroSpec::Comparator { width: 32, variant }.generate();
        let mut b = Boundary::default();
        b.output_loads.insert("eq".into(), load);
        match size_circuit(&cand, lib, &b, &spec, opts) {
            Ok(outcome) => {
                let (eval, pre) = measure_phase_delays(&cand, lib, &outcome.sizing, &b, opts)
                    .unwrap_or_else(|e| panic!("{}: phases: {e}", variant.name()));
                let tag = if variant == original {
                    format!("SMART resize ({})", variant.name())
                } else {
                    format!("SMART explore ({})", variant.name())
                };
                out.push(Fig7Row {
                    name: tag,
                    norm_area: cand.total_width(&outcome.sizing) / base_width,
                    norm_clock: cand.clock_load(&outcome.sizing) / base_clock,
                    norm_eval: eval / base_eval,
                    norm_pre: if base_pre > 0.0 { pre / base_pre } else { 1.0 },
                });
            }
            Err(e) => {
                out.push(Fig7Row {
                    name: format!("{} (infeasible: {e})", variant.name()),
                    norm_area: f64::NAN,
                    norm_clock: f64::NAN,
                    norm_eval: f64::NAN,
                    norm_pre: f64::NAN,
                });
            }
        }
    }
    out
}

/// Table 2: post-layout power savings on the four synthetic functional
/// blocks.
pub fn table2(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<BlockReport> {
    table2_blocks()
        .iter()
        .map(|b| evaluate_block(b, lib, opts).unwrap_or_else(|e| panic!("{}: {e}", b.name)))
        .collect()
}

/// §6.4: the 13.8k-transistor block with 22% macro width / 36% macro
/// power.
pub fn block64(lib: &ModelLibrary, opts: &SizingOptions) -> BlockReport {
    evaluate_block(&section64_block(), lib, opts)
        .unwrap_or_else(|e| panic!("section 6.4 block: {e}"))
}

/// §5.2 path-compaction statistics of the dynamic CLA adder.
#[derive(Debug, Clone, Copy)]
pub struct PathStats {
    /// Adder width used.
    pub width: usize,
    /// Exhaustive topological path count.
    pub raw: u128,
    /// Constraint paths after compaction.
    pub compacted: usize,
    /// Reduction factor.
    pub ratio: f64,
}

/// §5.2: exhaustive vs compacted path counts on the dynamic adder.
pub fn paths52(lib: &ModelLibrary, opts: &SizingOptions, width: usize) -> PathStats {
    let circuit = MacroSpec::ClaAdder { width }.generate();
    let stats = compaction_stats(&circuit, lib, &Boundary::default(), opts)
        .unwrap_or_else(|e| panic!("adder compaction: {e}"));
    PathStats {
        width,
        raw: stats.raw_paths,
        compacted: stats.classes.len(),
        ratio: stats.ratio(),
    }
}
