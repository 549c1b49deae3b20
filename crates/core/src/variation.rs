//! Statistical variation sweeps — yield-style robustness of one sizing.
//!
//! Corner analysis covers the *systematic* process axes; this module
//! covers the *random* ones: per-device width and threshold variation
//! around a finished sizing. Each sample perturbs every label width by a
//! bounded multiplicative factor (the threshold component is folded into
//! the same factor — a threshold shift is a drive-strength shift, which
//! the width-linear models express as effective width) and re-measures
//! the perturbed circuit through STA **at every corner of the run's
//! corner set**. No GP re-solve: the question is whether the sizing the
//! solver shipped still meets spec when silicon wobbles, not whether a
//! different sizing would.
//!
//! Determinism contract: sample `i`'s perturbation stream is a pure
//! function of `(seed, i)` ([`smart_prng::Prng`] seeded per sample), and
//! samples fan across the worker pool with index-ordered reassembly — so
//! the report is byte-identical for a fixed seed at any `SMART_WORKERS`
//! setting. The differential suite pins this.
//!
//! Cache isolation: a variation sweep measures, it never sizes, so it
//! performs **zero** sizing-cache lookups and inserts — re-measures must
//! not pollute [`crate::Exploration`]'s per-sweep cache statistics or
//! the entries a snapshot persists. The implementation touches neither
//! by construction (it calls the STA layer directly), and the
//! cache-correctness suite asserts the zero-traffic property.

use smart_models::ModelLibrary;
use smart_netlist::{Circuit, Sizing};
use smart_prng::Prng;
use smart_sta::Boundary;

use crate::pool::{run_indexed, ParallelOptions};
use crate::sizing::measure;
use crate::{DelaySpec, FlowError, SizingOptions};

/// Knobs of one variation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationOptions {
    /// Master seed; sample `i` derives its own generator from
    /// `(seed, i)`, so two sweeps with equal seeds are byte-identical.
    pub seed: u64,
    /// Monte-Carlo samples to draw.
    pub samples: usize,
    /// Relative 3σ-style bound of the per-device *width* variation
    /// (`0.05` ⇒ each width scaled by `exp(u)`, `u ∈ [-0.05, 0.05]`).
    pub width_spread: f64,
    /// Relative bound of the *threshold* variation, expressed as its
    /// drive-strength (effective-width) equivalent and combined with the
    /// width term per device.
    pub threshold_spread: f64,
}

impl Default for VariationOptions {
    fn default() -> Self {
        VariationOptions {
            seed: 0x5EED_CAFE_D00D_0001,
            samples: 64,
            width_spread: 0.05,
            threshold_spread: 0.03,
        }
    }
}

/// One sample's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationSample {
    /// Sample index (the seed derivation key).
    pub index: usize,
    /// Worst data delay over the corner set (ps).
    pub data: f64,
    /// Worst precharge completion over the corner set (ps).
    pub precharge: f64,
    /// Whether every corner met the spec within the run's tolerance.
    pub pass: bool,
}

/// Aggregate result of a variation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationReport {
    /// Every sample in index order.
    pub samples: Vec<VariationSample>,
    /// Samples that met spec at every corner.
    pub passes: usize,
    /// Worst data delay seen across all samples and corners (ps).
    pub worst_data: f64,
    /// Worst precharge completion seen across all samples and corners.
    pub worst_precharge: f64,
}

impl VariationReport {
    /// Pass fraction in `[0, 1]` — the yield-style figure of merit.
    pub fn yield_rate(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.passes as f64 / self.samples.len() as f64
        }
    }
}

/// The per-sample width multipliers: a pure function of
/// `(opts.seed, index)`. Each label draws one width factor and one
/// threshold-equivalent factor, multiplied into a single effective-width
/// scale and clamped to the process size box.
fn sample_widths(
    base: &Sizing,
    vopts: &VariationOptions,
    index: usize,
    w_min: f64,
    w_max: f64,
) -> Sizing {
    // Golden-ratio stride decorrelates per-sample streams while keeping
    // the derivation pure — no shared generator state across samples, so
    // worker scheduling cannot reorder draws.
    let mut rng = Prng::new(
        vopts
            .seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let widths = base
        .as_slice()
        .iter()
        .map(|&w| {
            let u_w = rng.f64_in(-vopts.width_spread, vopts.width_spread);
            let u_t = rng.f64_in(-vopts.threshold_spread, vopts.threshold_spread);
            (w * (u_w + u_t).exp()).clamp(w_min, w_max)
        })
        .collect();
    Sizing::from_widths(widths)
}

/// Runs a variation sweep over `sizing` (typically a
/// [`crate::SizingOutcome::sizing`] fresh from the solver): `samples`
/// perturbed copies, each re-measured through STA at every corner of
/// `opts.corners` (or the single passed library when `None`), pass =
/// every corner within `opts.timing_tolerance` of `spec`.
///
/// Deterministic for a fixed `vopts.seed` at any worker count; performs
/// no sizing-cache traffic.
///
/// # Errors
///
/// Propagates compaction/STA errors from the unperturbed preparation or
/// any sample measurement (a perturbed width stays inside the process
/// box, so measurement failures indicate a genuinely broken circuit, not
/// a bad draw).
#[allow(clippy::too_many_arguments)]
pub fn variation_sweep(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    sizing: &Sizing,
    opts: &SizingOptions,
    vopts: &VariationOptions,
    par: &ParallelOptions,
) -> Result<VariationReport, FlowError> {
    let compaction = crate::compaction_stats(circuit, lib, boundary, opts)?;
    let corner_libs = crate::spec::resolve_corner_libs(lib, opts);
    let (w_min, w_max) = (lib.process().w_min, lib.process().w_max);
    let data_limit = spec.data * (1.0 + opts.timing_tolerance);
    let pre_limit = spec.precharge_budget() * (1.0 + opts.timing_tolerance);
    smart_trace::emit_with("variation/sweep", || {
        vec![
            ("samples", vopts.samples.into()),
            ("corners", corner_libs.len().into()),
        ]
    });
    let slots = run_indexed(vopts.samples, par, |i| -> Result<VariationSample, FlowError> {
        let perturbed = sample_widths(sizing, vopts, i, w_min, w_max);
        let mut worst_data = 0.0f64;
        let mut worst_pre = 0.0f64;
        for (_, clib) in &corner_libs {
            let (d, p) = measure(circuit, clib, &perturbed, boundary, &compaction)?;
            worst_data = worst_data.max(d);
            worst_pre = worst_pre.max(p);
        }
        Ok(VariationSample {
            index: i,
            data: worst_data,
            precharge: worst_pre,
            pass: worst_data <= data_limit && worst_pre <= pre_limit,
        })
    });
    let mut samples = Vec::with_capacity(vopts.samples);
    for slot in slots {
        // A lost pool worker would leave a `None` slot; variation sweeps
        // have no per-sample salvage story (the report is an aggregate),
        // so surface it as the internal error it is.
        let sample = slot.ok_or(FlowError::NoEndpoints).and_then(|r| r)?;
        samples.push(sample);
    }
    let passes = samples.iter().filter(|s| s.pass).count();
    let worst_data = samples.iter().map(|s| s.data).fold(0.0f64, f64::max);
    let worst_precharge = samples.iter().map(|s| s.precharge).fold(0.0f64, f64::max);
    Ok(VariationReport {
        samples,
        passes,
        worst_data,
        worst_precharge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{size_circuit, ParallelOptions};
    use smart_macros::{MacroSpec, MuxTopology};

    fn setup() -> (Circuit, ModelLibrary, Boundary, DelaySpec, SizingOptions) {
        let circuit = MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 4,
        }
        .generate();
        let lib = ModelLibrary::reference();
        let mut boundary = Boundary::default();
        boundary.output_loads.insert("y".into(), 15.0);
        (circuit, lib, boundary, DelaySpec::uniform(320.0), SizingOptions::default())
    }

    #[test]
    fn fixed_seed_is_deterministic_across_worker_counts() {
        let (circuit, lib, boundary, spec, opts) = setup();
        let out = size_circuit(&circuit, &lib, &boundary, &spec, &opts).unwrap();
        let vopts = VariationOptions {
            samples: 12,
            ..VariationOptions::default()
        };
        let serial = variation_sweep(
            &circuit, &lib, &boundary, &spec, &out.sizing, &opts, &vopts,
            &ParallelOptions::serial(),
        )
        .unwrap();
        let parallel = variation_sweep(
            &circuit, &lib, &boundary, &spec, &out.sizing, &opts, &vopts,
            &ParallelOptions::with_workers(4),
        )
        .unwrap();
        assert_eq!(serial, parallel);
        for (a, b) in serial.samples.iter().zip(&parallel.samples) {
            assert_eq!(a.data.to_bits(), b.data.to_bits());
        }
        // And a different seed actually changes the draw.
        let reseeded = variation_sweep(
            &circuit, &lib, &boundary, &spec, &out.sizing, &opts,
            &VariationOptions { seed: 99, samples: 12, ..VariationOptions::default() },
            &ParallelOptions::serial(),
        )
        .unwrap();
        assert_ne!(serial, reseeded);
    }

    #[test]
    fn zero_spread_passes_everywhere_and_reproduces_the_measurement() {
        let (circuit, lib, boundary, spec, opts) = setup();
        let out = size_circuit(&circuit, &lib, &boundary, &spec, &opts).unwrap();
        let vopts = VariationOptions {
            samples: 4,
            width_spread: 0.0,
            threshold_spread: 0.0,
            ..VariationOptions::default()
        };
        let report = variation_sweep(
            &circuit, &lib, &boundary, &spec, &out.sizing, &opts, &vopts,
            &ParallelOptions::serial(),
        )
        .unwrap();
        assert_eq!(report.passes, 4);
        assert!((report.yield_rate() - 1.0).abs() < 1e-12);
        // exp(0) = 1 exactly: the unperturbed sample re-measures the
        // solver's own verification bit for bit.
        assert_eq!(report.worst_data.to_bits(), out.measured_delay.to_bits());
    }

    #[test]
    fn huge_spread_fails_samples() {
        let (circuit, lib, boundary, _spec, opts) = setup();
        // Size against a spec tight enough to leave little margin.
        let (min_t, _) = crate::minimize_delay(&circuit, &lib, &boundary, &opts).unwrap();
        let tight = DelaySpec::uniform(min_t * 1.02);
        let out = size_circuit(&circuit, &lib, &boundary, &tight, &opts).unwrap();
        let vopts = VariationOptions {
            samples: 24,
            width_spread: 0.6,
            threshold_spread: 0.4,
            ..VariationOptions::default()
        };
        let report = variation_sweep(
            &circuit, &lib, &boundary, &tight, &out.sizing, &opts, &vopts,
            &ParallelOptions::serial(),
        )
        .unwrap();
        assert!(
            report.passes < report.samples.len(),
            "60% width wobble on a margin-free sizing must fail samples \
             (yield {})",
            report.yield_rate()
        );
    }
}
