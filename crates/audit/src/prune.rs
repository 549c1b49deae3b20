//! Dominance/redundancy pruning: constraints term-wise dominated by
//! another active constraint.
//!
//! # Soundness
//!
//! Two normalized constraints `Σₖ cₖ·mₖ(x) ≤ 1` and `Σₖ dₖ·mₖ(x) ≤ 1`
//! over the *same* monomial set `{mₖ}` (exact exponent-row match) satisfy
//! a pointwise ordering whenever their coefficient vectors do: if
//! `cₖ ≥ dₖ` for every `k`, then for every `x > 0`
//!
//! ```text
//! Σ dₖ·mₖ(x) ≤ Σ cₖ·mₖ(x) ≤ 1
//! ```
//!
//! because every monomial is strictly positive. The dominated constraint
//! is implied by the dominating one at *every* point — not just the
//! optimum — so dropping it leaves the feasible set unchanged and the
//! pruned problem has the same optimizer set as the original. (The
//! barrier trajectory may differ, which is why the parity suite compares
//! optima within a pinned tolerance rather than step-for-step.)
//!
//! This is exactly the multi-corner duplicate case: under identity or
//! near-identity derates, two corners emit the same monomial structure
//! with coefficients scaled by the derate, and the slower corner's
//! constraint dominates.
//!
//! # Determinism
//!
//! Matching is by exact exponent bit patterns (a row's id in the
//! problem's term table), grouping sorts constraints by their id lists,
//! and the keep/drop tie-break on *equal* coefficient vectors is the
//! constraint label — so the pruned set is a function of the constraint
//! multiset, not of its order.

use smart_gp::GpProblem;
use smart_posy::TermId;

/// One pruning decision: `dropped` is term-wise dominated by `kept`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominance {
    /// Index of the surviving (dominating) constraint.
    pub kept: usize,
    /// Index of the redundant (dominated) constraint.
    pub dropped: usize,
}

/// Finds every term-wise dominated constraint. Within a family of
/// constraints sharing the same exponent rows, constraint `B` is dropped
/// iff some other member `A` has `coeff_A ≥ coeff_B` componentwise with
/// either a strict inequality somewhere or, on exact coefficient ties
/// (true duplicates), the lexicographically smaller label. Each drop
/// records the kept witness; results are sorted by dropped index.
pub fn find_dominated(gp: &GpProblem) -> Vec<Dominance> {
    // Every body's terms sorted by row id, back to back. The problem's
    // table names each exact exponent row by one id, so two constraints
    // have the same rows iff their sorted id lists are equal, and then
    // their coefficients pair up position by position.
    let mut terms: Vec<(TermId, f64)> = Vec::new();
    let mut spans = Vec::with_capacity(gp.constraints().len());
    for c in gp.constraints() {
        let start = terms.len();
        terms.extend_from_slice(gp.body(c).terms());
        terms[start..].sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        spans.push(start..terms.len());
    }
    let ids = |ci: usize| terms[spans[ci].clone()].iter().map(|t| t.0);
    let coeffs = |ci: usize| terms[spans[ci].clone()].iter().map(|t| t.1);

    // Families: constraints ordered by id list (stably, so each family
    // lists its members in index order), equal neighbours grouped.
    let mut order: Vec<usize> = (0..gp.constraints().len()).collect();
    order.sort_by(|&a, &b| ids(a).cmp(ids(b)));
    let label = |i: usize| &gp.constraints()[i].label;
    let mut out = Vec::new();
    for members in order.chunk_by(|&a, &b| ids(a).eq(ids(b))) {
        if members.len() < 2 {
            continue;
        }
        for &b in members {
            // The best dominating witness for `b`, by (label) — stable
            // under constraint reorder.
            let mut witness: Option<usize> = None;
            for &a in members {
                if a == b {
                    continue;
                }
                let ge = coeffs(a).zip(coeffs(b)).all(|(x, y)| x >= y);
                if !ge {
                    continue;
                }
                let strict = coeffs(a).zip(coeffs(b)).any(|(x, y)| x > y);
                // On exact duplicates keep the label-smaller constraint,
                // so exactly one side of each duplicate pair survives.
                if strict || label(a) < label(b) {
                    let better = witness.is_none_or(|w| label(a) < label(w));
                    if better {
                        witness = Some(a);
                    }
                }
            }
            if let Some(kept) = witness {
                out.push(Dominance { kept, dropped: b });
            }
        }
    }
    out.sort_by_key(|d| d.dropped);
    out
}
