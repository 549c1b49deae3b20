//! The topology optimizer — SMART's third component (paper §3(iii):
//! "automatically tune a topology for a specific macro instance starting
//! from a general topology"; listed as under development in the paper,
//! implemented here as structural parameter tuning).
//!
//! Given a parameterized general topology, the tuner sweeps its
//! structural knobs (partition point of a split domino mux, Xorsum group
//! size of a comparator), sizes every candidate under the instance
//! constraints with the ordinary flow, and returns the sweep with the
//! winner — the same size-then-compare discipline as Fig. 1, applied
//! *within* one topology family.
//!
//! Like every other flow entry point, the tuner never panics on bad
//! input: a request outside the knob domain is a typed
//! [`FlowError::InvalidRequest`], an all-infeasible sweep surfaces as
//! [`FlowError::NoFeasibleCandidate`] from the winner accessors — both
//! plain taxonomy rows a caller (CLI, serve daemon) can render.

use std::collections::BTreeMap;

use smart_models::ModelLibrary;
use smart_netlist::Circuit;
use smart_sta::Boundary;

use smart_macros::{comparator, mux, ComparatorVariant};

use crate::explore::{size_and_measure, CandidateMetrics};
use crate::{DelaySpec, FlowError, SizingOptions};

/// One structural candidate of a tuning sweep.
#[derive(Debug)]
pub struct TuneCandidate {
    /// Human-readable knob setting (e.g. `"split m=3"`).
    pub setting: String,
    /// The elaborated circuit.
    pub circuit: Circuit,
    /// Sized metrics or the failure that disqualified the setting.
    pub result: Result<CandidateMetrics, FlowError>,
}

/// A completed tuning sweep.
#[derive(Debug)]
pub struct TuneSweep {
    /// All candidates in knob order.
    pub candidates: Vec<TuneCandidate>,
}

impl TuneSweep {
    /// The feasible setting with the least total width. NaN-tolerant: a
    /// rogue non-finite metric ranks last instead of panicking the sweep.
    /// `None` when every setting failed; use [`TuneSweep::winner_by_width`]
    /// for the typed-error form.
    pub fn best_by_width(&self) -> Option<&TuneCandidate> {
        self.best_by(|m| m.outcome.total_width)
    }

    /// The feasible setting with the least clock load. `None` when every
    /// setting failed; use [`TuneSweep::winner_by_clock`] for the
    /// typed-error form.
    pub fn best_by_clock(&self) -> Option<&TuneCandidate> {
        self.best_by(|m| m.clock_load)
    }

    /// [`TuneSweep::best_by_width`] as a typed result: an all-infeasible
    /// sweep is a [`FlowError::NoFeasibleCandidate`] row carrying the
    /// failure-taxonomy histogram, never a panic or a bare `None`.
    pub fn winner_by_width(&self) -> Result<&TuneCandidate, FlowError> {
        self.best_by_width().ok_or_else(|| self.no_feasible())
    }

    /// [`TuneSweep::best_by_clock`] as a typed result.
    pub fn winner_by_clock(&self) -> Result<&TuneCandidate, FlowError> {
        self.best_by_clock().ok_or_else(|| self.no_feasible())
    }

    fn no_feasible(&self) -> FlowError {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for c in &self.candidates {
            if let Err(e) = &c.result {
                *counts.entry(e.taxonomy()).or_insert(0) += 1;
            }
        }
        FlowError::NoFeasibleCandidate {
            total: self.candidates.len(),
            taxonomy: counts.into_iter().collect(),
        }
    }

    fn best_by(&self, key: impl Fn(&CandidateMetrics) -> f64) -> Option<&TuneCandidate> {
        self.candidates
            .iter()
            .filter_map(|c| c.result.as_ref().ok().map(|m| (c, key(m))))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(c, _)| c)
    }

    /// Number of feasible settings.
    pub fn feasible_count(&self) -> usize {
        self.candidates.iter().filter(|c| c.result.is_ok()).count()
    }
}

fn run_sweep(
    candidates: Vec<(String, Circuit)>,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> TuneSweep {
    TuneSweep {
        candidates: candidates
            .into_iter()
            .map(|(setting, mut circuit)| {
                circuit.add_route_parasitics(0.5, 0.8);
                let result = size_and_measure(&circuit, lib, boundary, spec, opts, None);
                TuneCandidate {
                    setting,
                    circuit,
                    result,
                }
            })
            .collect(),
    }
}

/// Tunes the partition point `m` of an `width`-input partitioned domino
/// mux (paper §4 Fig. 2(f): "A good choice of m is m = floor(n/2)") —
/// the tuner checks that advice against the instance's actual
/// constraints.
///
/// # Errors
///
/// [`FlowError::InvalidRequest`] when `width < 3`: a partitioned mux
/// needs at least one input on each side of the split, so narrower
/// requests have no knob domain to sweep.
pub fn tune_partition_point(
    width: usize,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> Result<TuneSweep, FlowError> {
    if width < 3 {
        return Err(FlowError::InvalidRequest {
            what: "tune-partition",
            detail: format!("partitioned mux needs at least 3 inputs, got {width}"),
        });
    }
    let candidates = (1..width)
        .map(|m| {
            (
                format!("split m={m}"),
                mux::partitioned_domino(width, m),
            )
        })
        .collect();
    Ok(run_sweep(candidates, lib, boundary, spec, opts))
}

/// Tunes the Xorsum group size of a `width`-bit D1-D2 comparator over all
/// divisors of `width` up to 8 bits per gate.
///
/// # Errors
///
/// [`FlowError::InvalidRequest`] when the knob domain is empty (`width`
/// of 0 has no divisors) or `d2_fanin` is 0 (a D2 stage must merge at
/// least one group).
pub fn tune_comparator_grouping(
    width: usize,
    d2_fanin: usize,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> Result<TuneSweep, FlowError> {
    if d2_fanin == 0 {
        return Err(FlowError::InvalidRequest {
            what: "tune-comparator",
            detail: "d2_fanin must be at least 1".to_owned(),
        });
    }
    // 0 is a multiple of every k, so the divisor filter alone would let a
    // zero-width request through to the elaborator (which asserts).
    if width == 0 {
        return Err(FlowError::InvalidRequest {
            what: "tune-comparator",
            detail: "comparator width must be at least 1".to_owned(),
        });
    }
    let candidates: Vec<(String, Circuit)> = (1..=8usize)
        .filter(|k| width.is_multiple_of(*k))
        .map(|k| {
            (
                format!("xorsum k={k}"),
                comparator(width, ComparatorVariant { xorsum: k, d2_fanin }),
            )
        })
        .collect();
    if candidates.is_empty() {
        return Err(FlowError::InvalidRequest {
            what: "tune-comparator",
            detail: format!("width {width} admits no xorsum grouping in 1..=8"),
        });
    }
    Ok(run_sweep(candidates, lib, boundary, spec, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boundary() -> Boundary {
        let mut b = Boundary::default();
        b.output_loads.insert("y".into(), 20.0);
        b
    }

    #[test]
    fn partition_sweep_covers_all_splits_and_picks_a_winner() {
        let lib = ModelLibrary::reference();
        let sweep = match tune_partition_point(
            6,
            &lib,
            &boundary(),
            &DelaySpec::uniform(380.0),
            &SizingOptions::default(),
        ) {
            Ok(s) => s,
            Err(e) => panic!("width 6 is in the knob domain: {e}"),
        };
        assert_eq!(sweep.candidates.len(), 5, "m in 1..6");
        assert!(sweep.feasible_count() >= 3);
        let best_w = match sweep.winner_by_width().map(|c| &c.result) {
            Ok(Ok(m)) => m.outcome.total_width,
            other => panic!("feasible sweep must have a winner, got {other:?}"),
        };
        for c in &sweep.candidates {
            if let Ok(m) = &c.result {
                assert!(m.outcome.total_width + 1e-9 >= best_w);
            }
        }
    }

    #[test]
    fn balanced_split_is_near_optimal() {
        // The paper's rule of thumb: m = floor(n/2) is a good choice. The
        // tuner's winner should be within 15% of the balanced split.
        let lib = ModelLibrary::reference();
        let Ok(sweep) = tune_partition_point(
            8,
            &lib,
            &boundary(),
            &DelaySpec::uniform(380.0),
            &SizingOptions::default(),
        ) else {
            panic!("width 8 is in the knob domain");
        };
        let balanced = match sweep
            .candidates
            .iter()
            .find(|c| c.setting == "split m=4")
            .map(|c| &c.result)
        {
            Some(Ok(m)) => m.outcome.total_width,
            other => panic!("balanced split must be present and feasible, got {other:?}"),
        };
        let best = match sweep.winner_by_width().map(|c| &c.result) {
            Ok(Ok(m)) => m.outcome.total_width,
            other => panic!("sweep with feasible rows must have a winner, got {other:?}"),
        };
        assert!(
            balanced <= best * 1.15,
            "balanced {balanced} vs best {best}"
        );
    }

    #[test]
    fn comparator_grouping_sweep_runs() {
        let lib = ModelLibrary::reference();
        let mut b = Boundary::default();
        b.output_loads.insert("eq".into(), 15.0);
        let Ok(sweep) = tune_comparator_grouping(
            16,
            4,
            &lib,
            &b,
            &DelaySpec::uniform(420.0),
            &SizingOptions::default(),
        ) else {
            panic!("width 16 admits groupings 1/2/4/8");
        };
        // Divisors of 16 up to 8: 1, 2, 4, 8.
        assert_eq!(sweep.candidates.len(), 4);
        assert!(sweep.feasible_count() >= 2);
        assert!(sweep.winner_by_clock().is_ok());
    }

    /// Regression (PR 9): a too-narrow partition request used to die on an
    /// `assert!` inside the tuner; it must instead return the typed
    /// `invalid-request` taxonomy row every other flow surface uses.
    #[test]
    fn too_narrow_partition_is_a_typed_error_not_a_panic() {
        let lib = ModelLibrary::reference();
        for width in [0, 1, 2] {
            let err = match tune_partition_point(
                width,
                &lib,
                &boundary(),
                &DelaySpec::uniform(380.0),
                &SizingOptions::default(),
            ) {
                Err(e) => e,
                Ok(_) => panic!("width {width} must be rejected"),
            };
            assert_eq!(err.taxonomy(), "invalid-request");
            assert!(err.to_string().contains("at least 3 inputs"), "{err}");
        }
    }

    /// Regression (PR 9): an empty comparator knob domain must also be a
    /// typed error (width 0 divides nothing; a zero D2 fanin is not a
    /// comparator).
    #[test]
    fn empty_comparator_domain_is_a_typed_error() {
        let lib = ModelLibrary::reference();
        let b = boundary();
        let spec = DelaySpec::uniform(420.0);
        let opts = SizingOptions::default();
        for (w, f) in [(0, 4), (16, 0)] {
            let err = match tune_comparator_grouping(w, f, &lib, &b, &spec, &opts) {
                Err(e) => e,
                Ok(_) => panic!("({w},{f}) must be rejected"),
            };
            assert_eq!(err.taxonomy(), "invalid-request");
        }
    }

    /// Regression (PR 9): an all-infeasible sweep used to panic callers
    /// via `.expect("winner")`; the typed winner accessor now reports
    /// `no-feasible` with the sweep's taxonomy histogram instead.
    #[test]
    fn infeasible_sweep_reports_no_feasible_winner() {
        let lib = ModelLibrary::reference();
        // 1 ps is physically unmeetable: every split fails to size.
        let Ok(sweep) = tune_partition_point(
            4,
            &lib,
            &boundary(),
            &DelaySpec::uniform(1.0),
            &SizingOptions::default(),
        ) else {
            panic!("width 4 is in the knob domain");
        };
        assert_eq!(sweep.feasible_count(), 0);
        let err = match sweep.winner_by_width() {
            Err(e) => e,
            Ok(c) => panic!("no winner can exist, got {}", c.setting),
        };
        assert_eq!(err.taxonomy(), "no-feasible");
        match err {
            FlowError::NoFeasibleCandidate { total, taxonomy } => {
                assert_eq!(total, 3, "m in 1..4");
                let counted: usize = taxonomy.iter().map(|(_, n)| n).sum();
                assert_eq!(counted, 3, "every failed row must be classified");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
