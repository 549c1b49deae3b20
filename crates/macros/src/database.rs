//! The SMART design database: a registry of macro specifications, their
//! generators, and the per-family topology alternatives that the
//! exploration flow (paper Fig. 1) sizes and compares.
//!
//! The database is *expandable* (paper §3(i)): designer-provided circuits
//! can be registered next to the built-in generators and participate in
//! exploration on equal terms.

use std::collections::BTreeMap;
use std::fmt;

use smart_netlist::Circuit;

use crate::comparator::{comparator, ComparatorVariant};
use crate::decoder::decoder;
use crate::encoder::{onehot_encoder, priority_encoder};
use crate::incrementor::{decrementor, incrementor, incrementor_cla};
use crate::mux::{generate as mux_generate, MuxTopology};
use crate::regfile::regfile_read;
use crate::shifter::{barrel_shifter, ShiftKind};
use crate::zero_detect::{zero_detect, ZeroDetectStyle};
use crate::adder::cla_adder;

/// Largest bit width [`MacroSpec::supported`] accepts for muxes,
/// incrementors, decrementors, zero-detects, comparators and
/// register-file words.
const MAX_WIDTH: usize = 1024;

/// A fully parameterized macro request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MacroSpec {
    /// N-input mux in one of the Fig. 2 topologies.
    Mux {
        /// The Fig. 2 topology.
        topology: MuxTopology,
        /// Number of data inputs.
        width: usize,
    },
    /// Ripple incrementor (`y = a + 1`).
    Incrementor {
        /// Bit width.
        width: usize,
    },
    /// Carry-lookahead incrementor (`y = a + 1`, log-depth carry tree).
    IncrementorCla {
        /// Bit width.
        width: usize,
    },
    /// Ripple decrementor (`y = a - 1`).
    Decrementor {
        /// Bit width.
        width: usize,
    },
    /// Zero-detect (`z = (a == 0)`).
    ZeroDetect {
        /// Bit width.
        width: usize,
        /// Static tree or domino.
        style: ZeroDetectStyle,
    },
    /// `n`-to-`2^n` decoder.
    Decoder {
        /// Address bits.
        in_bits: usize,
    },
    /// Priority encoder (`2^out_bits` → `out_bits` + valid).
    PriorityEncoder {
        /// Output index bits.
        out_bits: usize,
    },
    /// One-hot encoder.
    OnehotEncoder {
        /// Output index bits.
        out_bits: usize,
    },
    /// Two-stage D1-D2 equality comparator.
    Comparator {
        /// Bit width.
        width: usize,
        /// Fig. 7 topology variant.
        variant: ComparatorVariant,
    },
    /// Dynamic Kogge-Stone CLA adder.
    ClaAdder {
        /// Bit width.
        width: usize,
    },
    /// Register-file read port.
    RegFileRead {
        /// Number of words (power of two).
        words: usize,
        /// Bits per word.
        bits: usize,
    },
    /// Pass-gate barrel shifter.
    BarrelShifter {
        /// Bit width (power of two).
        width: usize,
        /// Shift behaviour.
        kind: ShiftKind,
    },
}

impl MacroSpec {
    /// Elaborates the spec into a labeled unsized circuit.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are outside the generator's supported
    /// range (each generator documents its own limits).
    pub fn generate(&self) -> Circuit {
        let mut c = self.generate_unrouted();
        // Standard route-parasitic model of the reference process: every
        // connected net carries layout capacitance in addition to device
        // loading. This anchors absolute scale during sizing.
        c.add_route_parasitics(0.5, 0.8);
        c
    }

    /// Elaborates without routing parasitics (unit tests on pure device
    /// structure use this).
    pub fn generate_unrouted(&self) -> Circuit {
        match self {
            MacroSpec::Mux { topology, width } => mux_generate(*topology, *width),
            MacroSpec::Incrementor { width } => incrementor(*width),
            MacroSpec::IncrementorCla { width } => incrementor_cla(*width),
            MacroSpec::Decrementor { width } => decrementor(*width),
            MacroSpec::ZeroDetect { width, style } => zero_detect(*width, *style),
            MacroSpec::Decoder { in_bits } => decoder(*in_bits),
            MacroSpec::PriorityEncoder { out_bits } => priority_encoder(*out_bits),
            MacroSpec::OnehotEncoder { out_bits } => onehot_encoder(*out_bits),
            MacroSpec::Comparator { width, variant } => comparator(*width, *variant),
            MacroSpec::ClaAdder { width } => cla_adder(*width),
            MacroSpec::RegFileRead { words, bits } => regfile_read(*words, *bits),
            MacroSpec::BarrelShifter { width, kind } => barrel_shifter(*width, *kind),
        }
    }

    /// Parses the compact macro-name grammar shared by the CLI and the
    /// serve wire protocol:
    ///
    /// ```text
    /// mux<N>[:pass|weak|enc|tri|dom|split]   inc<N>   dec<N>
    /// zd<N>[:domino]   decoder<N>   penc<N>   cmp<N>   cla<N>
    /// rf<W>x<B>   shift<N>[:sll|srl|rol]
    /// ```
    ///
    /// `None` for anything outside the grammar **or** outside the
    /// generator's supported parameter range ([`MacroSpec::supported`])
    /// — malformed names are a caller-facing "invalid request", never a
    /// panic.
    pub fn parse(name: &str) -> Option<MacroSpec> {
        Self::parse_unchecked(name).filter(MacroSpec::supported)
    }

    /// Whether [`MacroSpec::generate`] accepts this spec's parameters —
    /// the union of every generator's documented panic conditions, so
    /// callers holding untrusted parameters (the serve wire protocol,
    /// the CLI) can turn an out-of-range request into a typed error
    /// instead of a panic.
    ///
    /// Bit widths, mux input counts and register-file word widths are
    /// capped at 1024 (`MAX_WIDTH`): elaboration and path compaction grow
    /// with width, and an untrusted request must not be able to ask for
    /// unbounded work.
    pub fn supported(&self) -> bool {
        let width_ok = |w: &usize| (1..=MAX_WIDTH).contains(w);
        match self {
            MacroSpec::Mux { topology, width } => {
                topology.supports_width(*width) && width_ok(width)
            }
            MacroSpec::Incrementor { width }
            | MacroSpec::IncrementorCla { width }
            | MacroSpec::Decrementor { width } => width_ok(width),
            MacroSpec::ZeroDetect { width, .. } => width_ok(width),
            MacroSpec::Decoder { in_bits } => (1..=8).contains(in_bits),
            MacroSpec::PriorityEncoder { out_bits } | MacroSpec::OnehotEncoder { out_bits } => {
                (1..=6).contains(out_bits)
            }
            MacroSpec::Comparator { width, variant } => {
                width_ok(width) && width.is_multiple_of(variant.xorsum)
            }
            MacroSpec::ClaAdder { width } => (1..=64).contains(width),
            MacroSpec::RegFileRead { words, bits } => {
                words.is_power_of_two() && (2..=64).contains(words) && width_ok(bits)
            }
            MacroSpec::BarrelShifter { width, .. } => {
                width.is_power_of_two() && (2..=64).contains(width)
            }
        }
    }

    fn parse_unchecked(name: &str) -> Option<MacroSpec> {
        let (base, variant) = match name.split_once(':') {
            Some((b, v)) => (b, Some(v)),
            None => (name, None),
        };
        let num = |prefix: &str| -> Option<usize> { base.strip_prefix(prefix)?.parse().ok() };
        if let Some(w) = num("mux") {
            let topology = match variant.unwrap_or("pass") {
                "pass" => MuxTopology::StronglyMutexedPass,
                "weak" => MuxTopology::WeaklyMutexedPass,
                "enc" => MuxTopology::EncodedSelectPass,
                "tri" => MuxTopology::Tristate,
                "dom" => MuxTopology::UnsplitDomino,
                "split" => MuxTopology::PartitionedDomino,
                _ => return None,
            };
            return Some(MacroSpec::Mux { topology, width: w });
        }
        if let Some(w) = num("inc") {
            return Some(MacroSpec::Incrementor { width: w });
        }
        // `decoder` before `dec`: both are prefixes of "decoder4".
        if let Some(w) = num("decoder") {
            return Some(MacroSpec::Decoder { in_bits: w });
        }
        if let Some(w) = num("dec") {
            return Some(MacroSpec::Decrementor { width: w });
        }
        if let Some(w) = num("zd") {
            let style = match variant {
                Some("domino") => ZeroDetectStyle::Domino,
                _ => ZeroDetectStyle::Static,
            };
            return Some(MacroSpec::ZeroDetect { width: w, style });
        }
        if let Some(w) = num("penc") {
            return Some(MacroSpec::PriorityEncoder { out_bits: w });
        }
        if let Some(w) = num("cmp") {
            return Some(MacroSpec::Comparator {
                width: w,
                variant: ComparatorVariant::merced(),
            });
        }
        if let Some(w) = num("cla") {
            return Some(MacroSpec::ClaAdder { width: w });
        }
        if let Some(w) = num("shift") {
            let kind = match variant.unwrap_or("rol") {
                "sll" => ShiftKind::LogicalLeft,
                "srl" => ShiftKind::LogicalRight,
                "rol" => ShiftKind::RotateLeft,
                _ => return None,
            };
            return Some(MacroSpec::BarrelShifter { width: w, kind });
        }
        if let Some(rest) = base.strip_prefix("rf") {
            let (w, b) = rest.split_once('x')?;
            return Some(MacroSpec::RegFileRead {
                words: w.parse().ok()?,
                bits: b.parse().ok()?,
            });
        }
        None
    }

    /// The macro family, for database grouping.
    pub fn family(&self) -> MacroFamily {
        match self {
            MacroSpec::Mux { .. } => MacroFamily::Mux,
            MacroSpec::Incrementor { .. }
            | MacroSpec::IncrementorCla { .. }
            | MacroSpec::Decrementor { .. } => MacroFamily::Incrementor,
            MacroSpec::ZeroDetect { .. } => MacroFamily::ZeroDetect,
            MacroSpec::Decoder { .. } => MacroFamily::Decoder,
            MacroSpec::PriorityEncoder { .. } | MacroSpec::OnehotEncoder { .. } => {
                MacroFamily::Encoder
            }
            MacroSpec::Comparator { .. } => MacroFamily::Comparator,
            MacroSpec::ClaAdder { .. } => MacroFamily::Adder,
            MacroSpec::RegFileRead { .. } => MacroFamily::RegFile,
            MacroSpec::BarrelShifter { .. } => MacroFamily::Shifter,
        }
    }

    /// Alternative topologies for the *same function* — the candidate set
    /// the exploration flow sizes and compares (paper Fig. 1 "topology
    /// choices"). Includes `self`.
    pub fn alternatives(&self) -> Vec<MacroSpec> {
        match self {
            MacroSpec::Mux { width, .. } => MuxTopology::all()
                .into_iter()
                .filter(|t| t.supports_width(*width))
                .map(|topology| MacroSpec::Mux {
                    topology,
                    width: *width,
                })
                .collect(),
            MacroSpec::ZeroDetect { width, .. } => [
                ZeroDetectStyle::Static,
                ZeroDetectStyle::Domino,
            ]
            .into_iter()
            .map(|style| MacroSpec::ZeroDetect {
                width: *width,
                style,
            })
            .collect(),
            MacroSpec::Incrementor { width } | MacroSpec::IncrementorCla { width } => vec![
                MacroSpec::Incrementor { width: *width },
                MacroSpec::IncrementorCla { width: *width },
            ],
            MacroSpec::Comparator { width, .. } => ComparatorVariant::exploration_set()
                .into_iter()
                .filter(|v| width % v.xorsum == 0)
                .map(|variant| MacroSpec::Comparator {
                    width: *width,
                    variant,
                })
                .collect(),
            other => vec![other.clone()],
        }
    }
}

/// Representative specs covering every macro family × topology at
/// characteristic widths — the sweep the lint CI gate and the
/// database-wide analysis tests run over. Small enough to elaborate
/// in seconds, broad enough that every generator code path (every
/// mux topology, both zero-detect styles, all shifter kinds, every
/// comparator exploration variant) appears at least once.
pub fn representative_database() -> Vec<MacroSpec> {
    let mut specs = Vec::new();
    for topology in MuxTopology::all() {
        let width = if topology.supports_width(8) { 8 } else { 2 };
        specs.push(MacroSpec::Mux { topology, width });
    }
    specs.push(MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    });
    specs.push(MacroSpec::Incrementor { width: 8 });
    specs.push(MacroSpec::Incrementor { width: 32 });
    specs.push(MacroSpec::IncrementorCla { width: 8 });
    specs.push(MacroSpec::IncrementorCla { width: 32 });
    specs.push(MacroSpec::Decrementor { width: 8 });
    for style in [ZeroDetectStyle::Static, ZeroDetectStyle::Domino] {
        specs.push(MacroSpec::ZeroDetect { width: 16, style });
        specs.push(MacroSpec::ZeroDetect { width: 64, style });
    }
    specs.push(MacroSpec::Decoder { in_bits: 3 });
    specs.push(MacroSpec::Decoder { in_bits: 5 });
    specs.push(MacroSpec::PriorityEncoder { out_bits: 3 });
    specs.push(MacroSpec::OnehotEncoder { out_bits: 3 });
    for variant in ComparatorVariant::exploration_set() {
        specs.push(MacroSpec::Comparator { width: 32, variant });
    }
    specs.push(MacroSpec::Comparator {
        width: 64,
        variant: ComparatorVariant::merced(),
    });
    specs.push(MacroSpec::ClaAdder { width: 8 });
    specs.push(MacroSpec::ClaAdder { width: 64 });
    specs.push(MacroSpec::RegFileRead { words: 16, bits: 8 });
    for kind in [
        ShiftKind::LogicalLeft,
        ShiftKind::LogicalRight,
        ShiftKind::RotateLeft,
    ] {
        specs.push(MacroSpec::BarrelShifter { width: 8, kind });
    }
    specs.push(MacroSpec::BarrelShifter {
        width: 32,
        kind: ShiftKind::RotateLeft,
    });
    specs
}

impl fmt::Display for MacroSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroSpec::Mux { topology, width } => {
                write!(f, "mux{width} ({})", topology.name())
            }
            MacroSpec::Incrementor { width } => write!(f, "inc{width}"),
            MacroSpec::IncrementorCla { width } => write!(f, "inc{width}-cla"),
            MacroSpec::Decrementor { width } => write!(f, "dec{width}"),
            MacroSpec::ZeroDetect { width, style } => write!(f, "zd{width} ({style:?})"),
            MacroSpec::Decoder { in_bits } => write!(f, "dec{}to{}", in_bits, 1 << in_bits),
            MacroSpec::PriorityEncoder { out_bits } => {
                write!(f, "penc{}to{}", 1usize << out_bits, out_bits)
            }
            MacroSpec::OnehotEncoder { out_bits } => {
                write!(f, "enc{}to{}", 1usize << out_bits, out_bits)
            }
            MacroSpec::Comparator { width, variant } => {
                write!(f, "cmp{width} ({})", variant.name())
            }
            MacroSpec::ClaAdder { width } => write!(f, "cla{width}"),
            MacroSpec::RegFileRead { words, bits } => write!(f, "rf{words}x{bits}"),
            MacroSpec::BarrelShifter { width, kind } => {
                write!(f, "shift{width} ({})", kind.name())
            }
        }
    }
}

/// Macro family, the database's top-level grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MacroFamily {
    /// Multiplexors.
    Mux,
    /// Incrementors / decrementors.
    Incrementor,
    /// Zero detects.
    ZeroDetect,
    /// Decoders.
    Decoder,
    /// Encoders.
    Encoder,
    /// Comparators.
    Comparator,
    /// Adders.
    Adder,
    /// Register files.
    RegFile,
    /// Shifters.
    Shifter,
}

/// The expandable design database: built-in generator entries plus
/// designer-registered custom circuits (paper §3: "Whenever a designer
/// comes up with an implementation not available in the database, it can
/// be incorporated").
#[derive(Debug, Default)]
pub struct Database {
    custom: BTreeMap<String, Circuit>,
}

impl Database {
    /// An empty database (built-in generators are always available).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a designer-provided implementation under `name`.
    ///
    /// Returns the previous circuit under that name, if any.
    pub fn register(&mut self, name: impl Into<String>, circuit: Circuit) -> Option<Circuit> {
        self.custom.insert(name.into(), circuit)
    }

    /// Fetches a custom entry.
    pub fn custom(&self, name: &str) -> Option<&Circuit> {
        self.custom.get(name)
    }

    /// Names of all custom entries.
    pub fn custom_names(&self) -> impl Iterator<Item = &str> {
        self.custom.keys().map(String::as_str)
    }

    /// Elaborates a spec (convenience passthrough kept on the database so
    /// call sites read `db.generate(spec)`).
    pub fn generate(&self, spec: &MacroSpec) -> Circuit {
        spec.generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_generates_and_lints() {
        let specs = [
            MacroSpec::Mux {
                topology: MuxTopology::UnsplitDomino,
                width: 4,
            },
            MacroSpec::Incrementor { width: 8 },
            MacroSpec::Decrementor { width: 8 },
            MacroSpec::ZeroDetect {
                width: 16,
                style: ZeroDetectStyle::Static,
            },
            MacroSpec::Decoder { in_bits: 4 },
            MacroSpec::PriorityEncoder { out_bits: 3 },
            MacroSpec::OnehotEncoder { out_bits: 3 },
            MacroSpec::Comparator {
                width: 32,
                variant: ComparatorVariant::merced(),
            },
            MacroSpec::ClaAdder { width: 8 },
            MacroSpec::RegFileRead { words: 8, bits: 4 },
        ];
        for spec in &specs {
            let c = spec.generate();
            assert!(c.lint().is_empty(), "{spec}: {:?}", c.lint());
            assert!(c.device_count() > 0);
        }
    }

    #[test]
    fn mux_alternatives_exclude_unsupported_widths() {
        let spec = MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 8,
        };
        let alts = spec.alternatives();
        assert!(alts.len() >= 4);
        assert!(!alts.iter().any(|s| matches!(
            s,
            MacroSpec::Mux {
                topology: MuxTopology::EncodedSelectPass,
                ..
            }
        )));
    }

    #[test]
    fn comparator_alternatives_are_the_fig7_set() {
        let spec = MacroSpec::Comparator {
            width: 32,
            variant: ComparatorVariant::merced(),
        };
        assert_eq!(spec.alternatives().len(), 3);
    }

    #[test]
    fn parse_covers_the_grammar() {
        let cases: &[(&str, MacroSpec)] = &[
            (
                "mux8:dom",
                MacroSpec::Mux {
                    topology: MuxTopology::UnsplitDomino,
                    width: 8,
                },
            ),
            (
                "mux4",
                MacroSpec::Mux {
                    topology: MuxTopology::StronglyMutexedPass,
                    width: 4,
                },
            ),
            ("inc8", MacroSpec::Incrementor { width: 8 }),
            ("dec8", MacroSpec::Decrementor { width: 8 }),
            ("decoder4", MacroSpec::Decoder { in_bits: 4 }),
            (
                "zd16:domino",
                MacroSpec::ZeroDetect {
                    width: 16,
                    style: ZeroDetectStyle::Domino,
                },
            ),
            ("penc4", MacroSpec::PriorityEncoder { out_bits: 4 }),
            (
                "cmp32",
                MacroSpec::Comparator {
                    width: 32,
                    variant: ComparatorVariant::merced(),
                },
            ),
            ("cla64", MacroSpec::ClaAdder { width: 64 }),
            (
                "shift32:sll",
                MacroSpec::BarrelShifter {
                    width: 32,
                    kind: ShiftKind::LogicalLeft,
                },
            ),
            ("rf32x64", MacroSpec::RegFileRead { words: 32, bits: 64 }),
        ];
        for (name, want) in cases {
            assert_eq!(MacroSpec::parse(name).as_ref(), Some(want), "{name}");
        }
    }

    /// Every parsed name must be generatable: `parse` rejects parameters
    /// the generators would panic on, so untrusted input (CLI argument,
    /// serve wire request) can never elaborate its way into an assert.
    #[test]
    fn parse_rejects_out_of_range_parameters_not_just_bad_grammar() {
        for name in [
            "mux8:enc",    // encoded-select pass is a 2-input topology
            "mux0",        // no zero-width macros anywhere
            "inc0",
            "zd0",
            "decoder9",    // decoder supports 1..=8 address bits
            "penc16",      // encoders support 1..=6 *output* bits
            "cmp3",        // merced xorsum-2 needs an even width
            "cla65",       // adder tops out at 64 bits
            "shift24",     // barrel shifter needs a power of two
            "rf3x8",       // regfile words must be a power of two
            "rf8x0",
        ] {
            assert_eq!(MacroSpec::parse(name), None, "{name} must be rejected");
        }
        // The rejected names above are out of *range*; the grammar
        // itself still accepts their families.
        for name in ["mux2:enc", "inc1", "decoder8", "penc6", "cmp4", "shift16"] {
            let spec = MacroSpec::parse(name).expect(name);
            assert!(spec.supported(), "{name}");
            assert!(spec.generate().device_count() > 0, "{name}");
        }
    }

    /// Widths are bounded, so no wire request can ask for unbounded
    /// elaboration and compaction work.
    #[test]
    fn parse_bounds_widths_at_1024() {
        for name in [
            "inc4096",
            "dec2048",
            "zd1025",
            "cmp2048",
            "rf16x4096",
            "mux1025",
            "mux1025:dom",
            "mux100000000",
        ] {
            assert_eq!(MacroSpec::parse(name), None, "{name} must be rejected");
        }
        for name in ["inc1024", "dec1024", "zd1024", "cmp1024", "rf16x1024", "mux1024"] {
            assert!(MacroSpec::parse(name).is_some(), "{name} must be accepted");
        }
    }

    #[test]
    fn custom_registration_roundtrip() {
        let mut db = Database::new();
        let c = Circuit::new("designer_special");
        assert!(db.register("special", c).is_none());
        assert!(db.custom("special").is_some());
        assert_eq!(db.custom_names().collect::<Vec<_>>(), vec!["special"]);
    }
}
