//! Interval bound propagation over the log-domain posynomial system, and
//! the machine-checkable infeasibility certificates it emits.
//!
//! # The relaxation
//!
//! A normalized GP constraint is `Σₖ cₖ·∏ⱼ xⱼ^aₖⱼ ≤ 1` with every term
//! positive. In log variables `y = ln x` each *term* is `exp(aₖ·y + ln cₖ)`,
//! and because the terms are positive, each one is individually bounded by
//! the whole body:
//!
//! ```text
//! aₖ·y ≤ ln(1 − Σ const terms) − ln cₖ        (one affine row per term)
//! ```
//!
//! Every row is an exact implication of its constraint — no approximation
//! is introduced — so any bound derived by propagating rows is sound, and
//! any derived *contradiction* (a variable's lower bound above its upper
//! bound, or a constraint whose interval image lies strictly above 1) is a
//! proof of infeasibility.
//!
//! # Order-independence
//!
//! Propagation is Jacobi-style: every round scans all rows against the
//! *previous* round's box and applies, per variable bound, the single
//! strongest proposal (ties broken by constraint label). The fixpoint and
//! every intermediate round are therefore independent of constraint
//! order — the property the 32-shuffle reorder-invariance suite pins.
//!
//! # Certificates
//!
//! Each derived bound carries its *provenance*: the set of constraint
//! indices whose rows participated in the derivation chain, captured
//! transitively at derivation time. A contradiction's certificate is the
//! union of the provenances involved, so re-running this same propagation
//! restricted to the certificate subset re-derives the contradiction —
//! that is [`Certificate::verify`], the machine check.

use std::collections::BTreeSet;

use smart_gp::GpProblem;
use smart_posy::TermId;

use crate::interval::Interval;

/// Margin (log-domain, absolute) a contradiction must clear before the
/// audit certifies infeasibility. The rows are exact implications, so a
/// feasible problem can only produce sub-margin crossings through float
/// rounding; anything past the margin is a real proof. Kept far below
/// every structural gap in the generated GPs (the tightest is the pin
/// slack, `ln(1+1e-6)² ≈ 2e-6`) and far above accumulated `ln`/divide
/// rounding noise.
pub(crate) const FEAS_MARGIN: f64 = 1e-9;

/// Smallest improvement worth recording — guards the fixpoint detector
/// against asymptotic chains that tighten by float dust forever.
const TIGHTEN_EPS: f64 = 1e-12;

/// Derived bounds are clamped to ±`BIG` so contradiction cascades (rows
/// with zero slack propose `−∞` bounds) stay in ordinary float
/// arithmetic. `e^±10¹²` is unrepresentable anyway; the clamp loses no
/// information a solver could use.
const BIG: f64 = 1e12;

/// Cap on interval-propagation fixpoint rounds. Each round applies every
/// derivable tightening once (Jacobi-style, so the fixpoint is
/// independent of constraint order); the cap bounds pathological chains
/// without affecting soundness (bounds are valid after any prefix of
/// rounds).
const MAX_ROUNDS: usize = 32;

/// Why a problem is infeasible — the shape of the contradiction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateKind {
    /// One constraint's variable-free terms already sum past 1: no
    /// assignment can help (e.g. a fixed input arrival beyond the budget).
    ConstantTerms {
        /// Label of the violated constraint.
        label: String,
    },
    /// A variable's derived log-domain lower bound exceeds its derived
    /// upper bound.
    CrossedBounds {
        /// Name of the crossed variable.
        var: String,
    },
    /// A constraint's interval image over the propagated box lies
    /// strictly above 1 — every term fits individually, their sum cannot.
    EmptyImage {
        /// Label of the violated constraint.
        label: String,
    },
}

/// A machine-checkable proof that a GP is infeasible: a subset of its
/// constraints whose interval images cannot intersect. Produced by
/// [`crate::audit_problem`] before any Newton work; checked by
/// [`Certificate::verify`], which re-runs interval propagation restricted
/// to the subset and confirms the contradiction re-derives.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The contradiction's shape.
    pub kind: CertificateKind,
    /// Indices (into the audited problem's constraint list) of the
    /// certifying subset, in label order.
    pub constraints: Vec<usize>,
    /// Labels of those constraints, in the same (sorted) order.
    pub labels: Vec<String>,
    /// Human-readable contradiction summary.
    pub detail: String,
}

impl Certificate {
    /// Re-verifies the certificate against `gp` by interval evaluation:
    /// propagation restricted to the certificate's constraint subset must
    /// re-derive a contradiction on its own. `gp` must be the audited
    /// problem (the indices address its constraint list).
    pub fn verify(&self, gp: &GpProblem) -> bool {
        let keep: BTreeSet<usize> = self.constraints.iter().copied().collect();
        if keep.iter().any(|&i| i >= gp.constraints().len()) {
            return false;
        }
        propagate(gp, Some(&keep)).certificate.is_some()
    }
}

/// One affine row `Σⱼ aⱼ·yⱼ ≤ rhs`, the log-domain relaxation of one
/// posynomial term of one constraint.
struct Row {
    constraint: usize,
    /// The term's exponent row in the problem's table: the `aⱼ`, in
    /// variable order, exponents nonzero.
    id: TermId,
    rhs: f64,
}

/// The provenance of one derived bound: every constraint index in the
/// derivation chain, transitively.
type Prov = BTreeSet<usize>;

/// Result of one interval bound propagation run ([`crate::propagate`]).
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Final per-variable log-domain box.
    pub bounds: Vec<Interval>,
    /// Accepted tightenings across all rounds.
    pub tightened: usize,
    /// Rounds executed before fixpoint (or the round cap).
    pub rounds: usize,
    /// The contradiction, if one was derived.
    pub certificate: Option<Certificate>,
    /// Every constraint whose constant terms alone exceed 1 (for
    /// findings; the certificate picks the label-smallest one).
    pub const_violations: Vec<usize>,
    /// Every constraint whose image over the final box lies above 1.
    pub image_violations: Vec<usize>,
}

fn labels_of(gp: &GpProblem, set: &Prov) -> (Vec<usize>, Vec<String>) {
    let mut pairs: Vec<(String, usize)> = set
        .iter()
        .map(|&i| (gp.constraints()[i].label.clone(), i))
        .collect();
    // Canonicalize by label: constraint *indices* are an artifact of
    // insertion order, labels are not — sorting here keeps certificates
    // (and the findings built from them) byte-stable under reorder.
    pairs.sort();
    let indices = pairs.iter().map(|p| p.1).collect();
    let labels = pairs.into_iter().map(|p| p.0).collect();
    (indices, labels)
}

/// Builds the affine rows of every (kept) constraint, and reports the
/// per-constraint constant-term sums alongside.
fn build_rows(gp: &GpProblem, filter: Option<&BTreeSet<usize>>) -> (Vec<Row>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut const_sums = vec![0.0f64; gp.constraints().len()];
    let mut order: Vec<usize> = (0..gp.constraints().len())
        .filter(|i| filter.is_none_or(|keep| keep.contains(i)))
        .collect();
    // Scan constraints in label order so every downstream first-wins
    // tie-break is a function of labels, not of insertion order.
    order.sort_by(|&a, &b| gp.constraints()[a].label.cmp(&gp.constraints()[b].label));
    for &ci in &order {
        let body = gp.body(&gp.constraints()[ci]);
        let mut const_sum = 0.0;
        for &(id, c) in body.terms() {
            if id == TermId::ONE {
                const_sum += c;
            }
        }
        const_sums[ci] = const_sum;
        // Remaining slack for the variable terms once the constant terms
        // are paid. `ln(0) = −∞` is deliberate: a constraint whose
        // constants exhaust the budget forces every variable term to 0,
        // and the resulting ±∞ proposals (clamped to ±BIG) derive the
        // contradiction with full provenance.
        let slack_log = if const_sum > 0.0 {
            (1.0 - const_sum).max(0.0).ln()
        } else {
            0.0
        };
        for &(id, c) in body.terms() {
            if id != TermId::ONE {
                rows.push(Row {
                    constraint: ci,
                    id,
                    rhs: slack_log - c.ln(),
                });
            }
        }
    }
    (rows, const_sums)
}

/// The minimum of `a·y` over `y`'s current interval, and which end it
/// uses (`0` = lo, `1` = hi). `−∞` when the needed end is unbounded.
fn min_contrib(a: f64, b: &Interval) -> (f64, usize) {
    if a >= 0.0 {
        (a * b.lo, 0)
    } else {
        (a * b.hi, 1)
    }
}

/// Runs Jacobi interval propagation over the (optionally filtered)
/// constraint set of `gp` and performs the three infeasibility checks —
/// constant-term overflow, crossed bounds, empty constraint image — in
/// that priority order.
pub(crate) fn propagate(gp: &GpProblem, filter: Option<&BTreeSet<usize>>) -> Propagation {
    let dim = gp.dim();
    let table = gp.table();
    let (rows, const_sums) = build_rows(gp, filter);
    let mut bounds = vec![Interval::top(); dim];
    let mut prov: Vec<[Prov; 2]> = vec![[Prov::new(), Prov::new()]; dim];
    let mut tightened = 0usize;
    let mut rounds = 0usize;

    // Check 1: constant terms alone exceed 1. No propagation needed; the
    // certificate is the violated constraint by itself.
    let const_violations: Vec<usize> = (0..const_sums.len())
        .filter(|&i| {
            filter.is_none_or(|keep| keep.contains(&i)) && const_sums[i] > 1.0 + FEAS_MARGIN
        })
        .collect();
    if let Some(&worst) = const_violations
        .iter()
        .min_by_key(|&&i| &gp.constraints()[i].label)
    {
        let label = gp.constraints()[worst].label.clone();
        let certificate = Some(Certificate {
            kind: CertificateKind::ConstantTerms {
                label: label.clone(),
            },
            constraints: vec![worst],
            labels: vec![label.clone()],
            detail: format!(
                "constant terms of '{label}' sum to {:.6} > 1 before any sizing choice",
                const_sums[worst]
            ),
        });
        return Propagation {
            bounds,
            tightened,
            rounds,
            certificate,
            const_violations,
            image_violations: Vec::new(),
        };
    }

    // A winning proposal for one bound of one variable.
    struct Proposal {
        value: f64,
        row: usize,
    }
    let better = |side: usize, a: f64, b: f64| if side == 0 { a > b } else { a < b };

    let mut certificate = None;
    'rounds: for _ in 0..MAX_ROUNDS {
        // Collect the strongest proposal per (var, side) against the
        // current snapshot. `[lo, hi]` per variable.
        let mut best: Vec<[Option<Proposal>; 2]> = Vec::with_capacity(dim);
        best.resize_with(dim, || [None, None]);
        for (ri, row) in rows.iter().enumerate() {
            // Sum of minimum contributions; at most one may be −∞ for a
            // bound on that term's variable to be derivable.
            let mut finite_sum = 0.0f64;
            let mut inf_count = 0usize;
            for &(v, a) in table.row(row.id) {
                let (c, _) = min_contrib(a, &bounds[v.index()]);
                if c == f64::NEG_INFINITY {
                    inf_count += 1;
                } else {
                    finite_sum += c;
                }
            }
            for &(v, a) in table.row(row.id) {
                let v = v.index();
                let (c, _) = min_contrib(a, &bounds[v]);
                let rest = if inf_count == 0 {
                    finite_sum - c
                } else if inf_count == 1 && c == f64::NEG_INFINITY {
                    finite_sum
                } else {
                    continue;
                };
                // a·y_v ≤ rhs − rest ⇒ bound on y_v, side by sign of a.
                let raw = (row.rhs - rest) / a;
                let side = if a > 0.0 { 1 } else { 0 };
                let value = if raw.is_nan() {
                    continue;
                } else {
                    raw.clamp(-BIG, BIG)
                };
                let current = if side == 0 {
                    bounds[v].lo
                } else {
                    bounds[v].hi
                };
                let improves = if side == 0 {
                    value > current + TIGHTEN_EPS
                } else {
                    value < current - TIGHTEN_EPS
                };
                if !improves {
                    continue;
                }
                let stronger = match &best[v][side] {
                    None => true,
                    // Rows are scanned in label order, so on an exact
                    // value tie the first (label-smallest) proposer wins
                    // regardless of constraint insertion order.
                    Some(p) => better(side, value, p.value),
                };
                if stronger {
                    best[v][side] = Some(Proposal { value, row: ri });
                }
            }
        }

        // Apply every winning proposal. Provenance is captured from the
        // snapshot (before any of this round's updates), so each recorded
        // chain re-derives with exactly the bound values it used.
        let mut applied = 0usize;
        let mut updates: Vec<(usize, usize, f64, Prov)> = Vec::new();
        for (v, sides) in best.iter().enumerate() {
            for (side, slot) in sides.iter().enumerate() {
                let Some(p) = slot else { continue };
                let row = &rows[p.row];
                let mut set = Prov::new();
                set.insert(row.constraint);
                for &(u, a) in table.row(row.id) {
                    let u = u.index();
                    if u == v {
                        continue;
                    }
                    let (c, used_side) = min_contrib(a, &bounds[u]);
                    if c.is_finite() {
                        set.extend(prov[u][used_side].iter().copied());
                    }
                }
                updates.push((v, side, p.value, set));
            }
        }
        for (v, side, value, set) in updates {
            if side == 0 {
                bounds[v].lo = value;
            } else {
                bounds[v].hi = value;
            }
            prov[v][side] = set;
            applied += 1;
        }
        if applied == 0 {
            break;
        }
        rounds += 1;
        tightened += applied;

        // Check 2: crossed bounds. Variable index order is insertion
        // order in the pool — unaffected by constraint shuffles.
        for (v, b) in bounds.iter().enumerate() {
            if b.lo > b.hi + FEAS_MARGIN {
                let mut set = prov[v][0].clone();
                set.extend(prov[v][1].iter().copied());
                let (constraints, labels) = labels_of(gp, &set);
                let name = gp.pool().name(smart_posy::VarId::from_index(v)).to_owned();
                certificate = Some(Certificate {
                    kind: CertificateKind::CrossedBounds { var: name.clone() },
                    constraints,
                    labels,
                    detail: format!(
                        "derived log-bounds on '{name}' cross: lower {:.6} > upper {:.6}",
                        b.lo, b.hi
                    ),
                });
                break 'rounds;
            }
        }
    }

    // Check 3: empty constraint image over the final box. Each term's
    // minimum fits under 1 (that is what propagation enforced), but the
    // *sum* of minima may not.
    let mut image_violations = Vec::new();
    if certificate.is_none() {
        let mut candidates: Vec<(usize, f64, Prov)> = Vec::new();
        for (ci, constraint) in gp.constraints().iter().enumerate() {
            if filter.is_some_and(|keep| !keep.contains(&ci)) {
                continue;
            }
            let body = gp.body(constraint);
            let mut img = const_sums[ci];
            let mut support = Prov::new();
            support.insert(ci);
            for &(id, c) in body.terms() {
                if id == TermId::ONE {
                    continue;
                }
                let mut aff = c.ln();
                for &(vid, a) in body.row(id) {
                    let v = vid.index();
                    let (c, used_side) = min_contrib(a, &bounds[v]);
                    aff += c;
                    if c.is_finite() {
                        support.extend(prov[v][used_side].iter().copied());
                    }
                }
                // exp(−∞) = 0: a term free to vanish contributes nothing
                // to the image's lower end.
                img += aff.exp();
            }
            if img > 1.0 + FEAS_MARGIN {
                image_violations.push(ci);
                candidates.push((ci, img, support));
            }
        }
        if let Some((ci, img, support)) = candidates.into_iter().min_by(|a, b| {
            gp.constraints()[a.0]
                .label
                .cmp(&gp.constraints()[b.0].label)
        }) {
            let label = gp.constraints()[ci].label.clone();
            let (constraints, labels) = labels_of(gp, &support);
            certificate = Some(Certificate {
                kind: CertificateKind::EmptyImage { label: label.clone() },
                constraints,
                labels,
                detail: format!(
                    "interval image of '{label}' lies above 1: minimum {img:.6} over the propagated box"
                ),
            });
        }
    }

    Propagation {
        bounds,
        tightened,
        rounds,
        certificate,
        const_violations,
        image_violations,
    }
}
