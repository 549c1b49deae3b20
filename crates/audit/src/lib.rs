//! `smart-audit` — pre-solve static analysis of sizing geometric programs.
//!
//! PR 3's `smart-lint` front-loads knowledge at the component-graph level:
//! Error-severity topologies never reach the sizer. This crate applies the
//! same discipline one layer down, to the *generated GP itself*: a
//! zero-dependency static pass that runs over a constructed
//! [`GpProblem`] before Newton ever starts. Three cooperating analyses
//! over the log-domain posynomial system:
//!
//! * **Interval bound propagation** ([`propagate`]): a Jacobi-style
//!   forward/backward fixpoint over the monomial-term relaxation that
//!   tightens per-variable log-bounds and emits a machine-checkable
//!   [`Certificate`] of infeasibility — the constraint subset whose
//!   interval images cannot intersect — when the spec cannot be met by
//!   any sizing. The flow surfaces this as a typed error with zero Newton
//!   work, zero retry-ladder burn, and zero cache pollution.
//! * **Dominance pruning** ([`find_dominated`]): constraints term-wise dominated
//!   by another active constraint (exact exponent-row match with
//!   coefficient ordering — the multi-corner duplicate case) are proven
//!   redundant and can be dropped from the solved system.
//! * **Structural diagnostics**: unbounded-below variables, dead
//!   variables, exponent-spread conditioning hazards.
//!
//! Findings flow through the same report shape as `smart-lint` (rule
//! range `SA001`–`SA005`, same severities and waivers, byte-stable JSON),
//! and every analysis is constraint-order invariant: shuffling the
//! constraint list changes neither the certificate labels, the pruned
//! set, nor a byte of the report.

#![warn(missing_docs)]

mod analysis;
mod interval;
mod prune;
mod report;

pub use analysis::{Certificate, CertificateKind, Propagation};
pub use interval::Interval;
pub use prune::{find_dominated, Dominance};
pub use report::{rule_info, AuditConfig, AuditReport, Finding, RuleInfo, Severity, Waiver, RULES};

use smart_gp::GpProblem;

/// `SA005`: largest `|exponent|` a constraint may carry before it is
/// flagged as a conditioning hazard for the log-domain Newton kernel.
const SPREAD_LIMIT: f64 = 12.0;

/// Everything one audit run produces.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Canonical-order findings (the lint-shaped report).
    pub report: AuditReport,
    /// The infeasibility proof, when the problem admits no solution.
    pub certificate: Option<Certificate>,
    /// Final per-variable log-domain bounds, indexed by variable.
    pub bounds: Vec<Interval>,
    /// Indices of constraints proven redundant by dominance (sorted
    /// ascending) — safe to drop via `GpProblem::without_constraints`.
    pub prunable: Vec<usize>,
    /// The individual dominance witnesses behind [`Self::prunable`].
    pub dominance: Vec<Dominance>,
    /// Bound tightenings accepted across all propagation rounds.
    pub tightened: usize,
    /// Propagation rounds executed before fixpoint (or the round cap).
    pub rounds: usize,
}

/// The interval bound propagation of [`audit_problem`] alone: the same
/// certificate, bounds and counters, without the report or the dominance
/// analysis. A caller that reads only whether the problem is certified
/// infeasible needs no more.
pub fn propagate(gp: &GpProblem) -> Propagation {
    analysis::propagate(gp, None)
}

/// Audits `gp` under `cfg`. `problem` names the report (typically the
/// macro instance being sized). Pure and deterministic: same problem
/// (up to constraint order) in, byte-identical report out.
pub fn audit_problem(gp: &GpProblem, problem: &str, cfg: &AuditConfig) -> AuditOutcome {
    let prop = propagate(gp);
    let dominance = find_dominated(gp);
    let mut findings = Vec::new();

    // SA001 — the certificate, plus every individual violated constraint.
    if let Some(cert) = &prop.certificate {
        let anchor = match &cert.kind {
            CertificateKind::ConstantTerms { label } | CertificateKind::EmptyImage { label } => {
                label.clone()
            }
            CertificateKind::CrossedBounds { var } => var.clone(),
        };
        findings.push(Finding {
            rule: "SA001",
            severity: Severity::Error,
            path: anchor,
            nets: cert.labels.clone(),
            message: cert.detail.clone(),
        });
    }
    for &ci in prop.const_violations.iter().chain(&prop.image_violations) {
        let label = &gp.constraints()[ci].label;
        findings.push(Finding {
            rule: "SA001",
            severity: Severity::Error,
            path: label.clone(),
            nets: vec![label.clone()],
            message: "constraint is violated over the entire propagated box".into(),
        });
    }

    // SA002 — dominated constraints.
    for d in &dominance {
        findings.push(Finding {
            rule: "SA002",
            severity: Severity::Warning,
            path: gp.constraints()[d.dropped].label.clone(),
            nets: vec![gp.constraints()[d.kept].label.clone()],
            message: "term-wise dominated by another active constraint; redundant".into(),
        });
    }

    // Variable support: which variables any constraint or objective term
    // touches, and the objective exponent signs per variable.
    let dim = gp.dim();
    let mut in_constraint = vec![false; dim];
    for c in gp.constraints() {
        let body = gp.body(c);
        for &(id, _) in body.terms() {
            for (v, _) in body.row(id) {
                in_constraint[v.index()] = true;
            }
        }
    }
    let mut obj_pos = vec![false; dim]; // has a positive objective exponent
    let mut obj_any = vec![false; dim];
    let objective = gp.objective();
    for &(id, _) in objective.terms() {
        for &(v, e) in objective.row(id) {
            obj_any[v.index()] = true;
            if e > 0.0 {
                obj_pos[v.index()] = true;
            }
        }
    }

    for v in 0..dim {
        let name = gp.pool().name(smart_posy::VarId::from_index(v));
        // SA004 — dead variable: nothing mentions it.
        if !in_constraint[v] && !obj_any[v] {
            findings.push(Finding {
                rule: "SA004",
                severity: Severity::Warning,
                path: name.to_owned(),
                nets: Vec::new(),
                message: "variable appears in no constraint and no objective term".into(),
            });
            continue;
        }
        // SA003 — cost-bearing variable with no derivable log-domain lower
        // bound: the objective only rewards shrinking it (every objective
        // exponent positive), and propagation found nothing stopping the
        // descent.
        if obj_any[v] && obj_pos[v] && prop.bounds[v].lo == f64::NEG_INFINITY {
            findings.push(Finding {
                rule: "SA003",
                severity: Severity::Warning,
                path: name.to_owned(),
                nets: Vec::new(),
                message: "cost-bearing variable has no derivable lower bound (unbounded descent direction)".into(),
            });
        }
    }

    // SA005 — exponent spread per constraint.
    for c in gp.constraints() {
        let body = gp.body(c);
        let spread = body
            .terms()
            .iter()
            .flat_map(|&(id, _)| body.row(id).iter().map(|(_, e)| e.abs()))
            .fold(0.0f64, f64::max);
        if spread > SPREAD_LIMIT {
            findings.push(Finding {
                rule: "SA005",
                severity: Severity::Warning,
                path: c.label.clone(),
                nets: Vec::new(),
                message: format!(
                    "largest |exponent| {spread:.3} exceeds the conditioning limit {SPREAD_LIMIT:.3}"
                ),
            });
        }
    }

    let report = report::finalize(problem, findings, cfg);
    let prunable: Vec<usize> = dominance.iter().map(|d| d.dropped).collect();
    AuditOutcome {
        report,
        certificate: prop.certificate,
        bounds: prop.bounds,
        prunable,
        dominance,
        tightened: prop.tightened,
        rounds: prop.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_posy::{Monomial, Posynomial, VarPool};

    fn pool2() -> (VarPool, smart_posy::VarId, smart_posy::VarId) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        (pool, a, b)
    }

    #[test]
    fn crossed_bounds_yield_a_verifying_certificate() {
        let (pool, a, _) = pool2();
        let mut gp = GpProblem::new(pool);
        gp.set_objective(Posynomial::var(a));
        gp.add_lower_bound(a, 4.0);
        gp.add_upper_bound(a, 2.0);
        let out = audit_problem(&gp, "toy", &AuditConfig::default());
        let cert = out.certificate.expect("a >= 4 with a <= 2 is infeasible");
        assert!(matches!(&cert.kind, CertificateKind::CrossedBounds { var } if var == "a"));
        let mut labels = cert.labels.clone();
        labels.sort();
        assert_eq!(labels, vec!["a <= 2".to_string(), "a >= 4".to_string()]);
        assert!(
            cert.verify(&gp),
            "certificate must re-derive on its own subset"
        );
        assert!(out.report.has_errors());
    }

    #[test]
    fn constant_terms_past_one_certify_immediately() {
        let (pool, a, _) = pool2();
        let mut gp = GpProblem::new(pool);
        gp.set_objective(Posynomial::var(a));
        // 1.5 + a/10 <= 1: the constant alone exhausts the budget.
        let mut body = Posynomial::constant(1.5);
        body.push(Monomial::new(0.1).pow(a, 1.0));
        gp.add_le("arrival", body, Monomial::one()).unwrap();
        let out = audit_problem(&gp, "toy", &AuditConfig::default());
        let cert = out.certificate.expect("constant terms exceed 1");
        assert!(
            matches!(&cert.kind, CertificateKind::ConstantTerms { label } if label == "arrival")
        );
        assert_eq!(cert.constraints, vec![0]);
        assert!(cert.verify(&gp));
    }

    #[test]
    fn empty_image_catches_sum_level_infeasibility() {
        let (pool, a, b) = pool2();
        let mut gp = GpProblem::new(pool);
        gp.set_objective(Posynomial::var(a));
        // Each term alone fits under 1, the sum cannot: a >= 2, b >= 2,
        // and 0.4·a/2 + 0.4·b/2 <= 1 needs a + b <= 5 while a,b >= 2
        // forces each term >= 0.4, sum >= 0.8 — feasible; tighten to make
        // it impossible: coefficients 0.6 give sum >= 1.2.
        gp.add_lower_bound(a, 2.0);
        gp.add_lower_bound(b, 2.0);
        let mut body = Posynomial::from(Monomial::new(0.3).pow(a, 1.0));
        body.push(Monomial::new(0.3).pow(b, 1.0));
        gp.add_le("sum", body, Monomial::one()).unwrap();
        let out = audit_problem(&gp, "toy", &AuditConfig::default());
        let cert = out.certificate.expect("sum of term minima is 1.2 > 1");
        assert!(matches!(&cert.kind, CertificateKind::EmptyImage { label } if label == "sum"));
        assert!(
            cert.constraints.len() >= 3,
            "needs the sum row and both lower bounds"
        );
        assert!(cert.verify(&gp));
    }

    #[test]
    fn feasible_problems_carry_no_certificate_and_tight_bounds() {
        let (pool, a, b) = pool2();
        let mut gp = GpProblem::new(pool);
        gp.set_objective(Posynomial::var(a));
        gp.add_lower_bound(a, 0.5);
        gp.add_upper_bound(a, 8.0);
        // b <= 4/a: couples b's upper bound to a's range.
        gp.add_le(
            "couple",
            Posynomial::from(Monomial::new(0.25).pow(a, 1.0).pow(b, 1.0)),
            Monomial::one(),
        )
        .unwrap();
        let out = audit_problem(&gp, "toy", &AuditConfig::default());
        assert!(out.certificate.is_none());
        let (la, lb) = (out.bounds[0], out.bounds[1]);
        assert!((la.lo - 0.5f64.ln()).abs() < 1e-12 && (la.hi - 8.0f64.ln()).abs() < 1e-12);
        // From a >= 0.5: b <= 4/0.5 = 8.
        assert!((lb.hi - 8.0f64.ln()).abs() < 1e-9, "hi = {}", lb.hi);
        assert!(out.tightened >= 3);
    }

    #[test]
    fn dominated_duplicates_are_pruned_with_label_tiebreak() {
        let (pool, a, b) = pool2();
        let mut gp = GpProblem::new(pool);
        gp.set_objective(Posynomial::var(a));
        gp.add_lower_bound(a, 1.0);
        gp.add_lower_bound(b, 1.0);
        let body = |c: f64| {
            let mut p = Posynomial::from(Monomial::new(c).pow(a, 1.0));
            p.push(Monomial::new(c).pow(b, 1.0));
            p
        };
        gp.add_le("path@fast", body(0.2), Monomial::one()).unwrap();
        gp.add_le("path@slow", body(0.3), Monomial::one()).unwrap();
        gp.add_le("path@typ", body(0.3), Monomial::one()).unwrap();
        let out = audit_problem(&gp, "toy", &AuditConfig::default());
        assert!(out.certificate.is_none());
        // fast (0.2) dominated by slow (0.3); typ == slow is an exact
        // duplicate and the label-smaller "path@slow" survives.
        let dropped: Vec<&str> = out
            .prunable
            .iter()
            .map(|&i| gp.constraints()[i].label.as_str())
            .collect();
        assert_eq!(dropped, vec!["path@fast", "path@typ"]);
        assert_eq!(
            out.report
                .findings
                .iter()
                .filter(|f| f.rule == "SA002")
                .count(),
            2
        );
        // Different exponent rows never compare.
        assert!(!out.prunable.contains(&0) && !out.prunable.contains(&1));
    }

    #[test]
    fn structural_diagnostics_fire_on_degenerate_problems() {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let dead = pool.var("dead");
        let _ = dead;
        let mut gp = GpProblem::new(pool);
        // Objective rewards shrinking `a` and nothing bounds it below.
        gp.set_objective(Posynomial::var(a));
        gp.add_le(
            "steep",
            Posynomial::from(Monomial::new(0.5).pow(a, 14.0)),
            Monomial::one(),
        )
        .unwrap();
        let out = audit_problem(&gp, "toy", &AuditConfig::default());
        assert!(out.certificate.is_none());
        let rules: Vec<&str> = out.report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"SA003"), "unbounded-below: {rules:?}");
        assert!(rules.contains(&"SA004"), "dead variable: {rules:?}");
        assert!(rules.contains(&"SA005"), "exponent spread: {rules:?}");
    }

    #[test]
    fn report_is_invariant_under_constraint_reorder() {
        use smart_prng::Prng;
        let build = |order: &[usize]| {
            let (pool, a, b) = pool2();
            let mut gp = GpProblem::new(pool);
            gp.set_objective(Posynomial::var(a));
            let add: Vec<Box<dyn Fn(&mut GpProblem)>> = vec![
                Box::new(move |g: &mut GpProblem| g.add_lower_bound(a, 4.0)),
                Box::new(move |g: &mut GpProblem| g.add_upper_bound(a, 2.0)),
                Box::new(move |g: &mut GpProblem| g.add_lower_bound(b, 1.0)),
                Box::new(move |g: &mut GpProblem| {
                    g.add_le(
                        "couple",
                        Posynomial::from(Monomial::new(0.25).pow(a, 1.0).pow(b, 1.0)),
                        Monomial::one(),
                    )
                    .unwrap();
                }),
            ];
            for &i in order {
                add[i](&mut gp);
            }
            gp
        };
        let base = build(&[0, 1, 2, 3]);
        let ref_out = audit_problem(&base, "toy", &AuditConfig::default());
        let ref_json = ref_out.report.to_json();
        let ref_cert_labels = {
            let mut l = ref_out.certificate.as_ref().unwrap().labels.clone();
            l.sort();
            l
        };
        let mut prng = Prng::new(0xA0D17);
        let mut order = vec![0usize, 1, 2, 3];
        for _ in 0..32 {
            // Fisher–Yates driven by the repo PRNG.
            for i in (1..order.len()).rev() {
                let j = prng.u64_below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let gp = build(&order);
            let out = audit_problem(&gp, "toy", &AuditConfig::default());
            assert_eq!(out.report.to_json(), ref_json, "order {order:?}");
            let mut labels = out.certificate.as_ref().unwrap().labels.clone();
            labels.sort();
            assert_eq!(labels, ref_cert_labels, "order {order:?}");
            assert!(out.certificate.as_ref().unwrap().verify(&gp));
        }
    }
}
