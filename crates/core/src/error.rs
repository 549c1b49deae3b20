//! Error type of the SMART flow.

use std::error::Error;
use std::fmt;

use smart_gp::GpError;
use smart_sta::StaError;

/// Errors raised by the sizing/exploration flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The geometric program failed (infeasible spec, unbounded, or
    /// numerical trouble); carries the solver's diagnosis.
    Gp(GpError),
    /// Timing analysis failed (combinational loop, bad boundary).
    Sta(StaError),
    /// Path compaction still produced more classes than
    /// [`crate::compact::PATH_LIMIT`] at one timing node — the macro's
    /// labeling defeats regularity-based reduction — or more suffixes
    /// than its `u32` arena ids can name.
    TooManyPaths {
        /// Compacted class count.
        classes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The Fig.-4 loop ran out of outer iterations without converging to
    /// the specified delay.
    NoConvergence {
        /// Last measured worst delay (ps).
        measured: f64,
        /// The specification it chased (ps).
        spec: f64,
    },
    /// The circuit has no timing endpoints (no output ports reachable).
    NoEndpoints,
    /// A pinned label name does not exist in the circuit.
    UnknownPin {
        /// The missing label name.
        name: String,
    },
    /// A candidate's generator or sizing pipeline panicked; the panic was
    /// contained at the exploration boundary so the sweep could continue.
    /// One pathological topology becomes one failed table row, never a
    /// dead sweep.
    Internal {
        /// Display form of the candidate that panicked.
        candidate: String,
        /// The captured panic payload, when it was a string.
        panic_msg: String,
    },
    /// The candidate violated `Error`-severity electrical rules and the
    /// exploration lint gate ([`crate::LintGate::Errors`]) rejected it
    /// before any sizing work was spent on it.
    Lint {
        /// Display form of the rejected candidate.
        candidate: String,
        /// Number of `Error`-severity findings.
        errors: usize,
        /// Rendered `Error`-severity findings, in the lint report's
        /// canonical order.
        findings: Vec<String>,
    },
    /// The pre-solve static audit ([`crate::AuditGate`]) proved the
    /// constructed GP infeasible before any Newton work: a constraint
    /// subset whose interval images cannot intersect. Carries the
    /// machine-checkable certificate's constraint labels so the designer
    /// sees *which* requirements conflict, not just that the solver gave
    /// up.
    InfeasibleCertificate {
        /// Labels of the certifying constraint subset, in the
        /// certificate's canonical (label-sorted) order.
        constraints: Vec<String>,
        /// Human-readable contradiction summary from the analyzer.
        detail: String,
    },
    /// A flow budget ([`crate::FlowBudget`]) expired: the wall clock ran
    /// out, the GP burned its Newton-step allowance, or the exploration hit
    /// its candidate cap.
    BudgetExceeded {
        /// Which budget fired (`"wall-clock"`, `"newton-steps"`,
        /// `"candidates"`).
        what: &'static str,
        /// Human-readable detail (stage, counts).
        detail: String,
    },
    /// The request itself was malformed — parameters outside the domain
    /// the flow is defined on (a partitioned mux narrower than 3 inputs,
    /// a comparator width with no legal grouping, an unparseable serve
    /// request). Reported as a typed row so tools and the serve protocol
    /// render it like any other taxonomy entry, never as a panic.
    InvalidRequest {
        /// What was requested (`"tune-partition"`, `"serve-request"`, …).
        what: &'static str,
        /// Human-readable explanation of the domain violation.
        detail: String,
    },
    /// Every candidate of a sweep failed, so there is no winner to
    /// return. Carries the sweep's failure-taxonomy histogram so the
    /// caller sees *why* the sweep came up empty, not just that it did.
    NoFeasibleCandidate {
        /// Candidates evaluated.
        total: usize,
        /// `(taxonomy tag, count)` of the failed rows, sorted by tag.
        taxonomy: Vec<(&'static str, usize)>,
    },
}

impl FlowError {
    /// Short stable failure-taxonomy tag for reports and sweep tables
    /// (`infeasible`, `unbounded`, `numerical`, `non-finite`, `budget`,
    /// `panic`, `lint`, `sta`, `paths`, `no-convergence`, `no-endpoints`,
    /// `pin`, `invalid-request`, `no-feasible`).
    pub fn taxonomy(&self) -> &'static str {
        match self {
            FlowError::Gp(GpError::Infeasible { .. }) => "infeasible",
            FlowError::Gp(GpError::Unbounded) => "unbounded",
            FlowError::Gp(GpError::NonFinite { .. }) => "non-finite",
            FlowError::Gp(GpError::BudgetExceeded { .. }) => "budget",
            FlowError::Gp(_) => "numerical",
            FlowError::Sta(_) => "sta",
            FlowError::TooManyPaths { .. } => "paths",
            FlowError::NoConvergence { .. } => "no-convergence",
            FlowError::NoEndpoints => "no-endpoints",
            FlowError::UnknownPin { .. } => "pin",
            FlowError::Internal { .. } => "panic",
            FlowError::Lint { .. } => "lint",
            FlowError::InfeasibleCertificate { .. } => "infeasible",
            FlowError::BudgetExceeded { .. } => "budget",
            FlowError::InvalidRequest { .. } => "invalid-request",
            FlowError::NoFeasibleCandidate { .. } => "no-feasible",
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Gp(e) => write!(f, "sizing optimization failed: {e}"),
            FlowError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            FlowError::TooManyPaths { classes, limit } => write!(
                f,
                "path compaction left {classes} constraint paths (limit {limit})"
            ),
            FlowError::NoConvergence { measured, spec } => write!(
                f,
                "sizing loop did not converge: measured {measured:.1} ps vs spec {spec:.1} ps"
            ),
            FlowError::NoEndpoints => write!(f, "circuit has no reachable timing endpoints"),
            FlowError::UnknownPin { name } => {
                write!(f, "pinned label '{name}' does not exist in this circuit")
            }
            FlowError::Internal {
                candidate,
                panic_msg,
            } => write!(
                f,
                "candidate '{candidate}' panicked (contained): {panic_msg}"
            ),
            FlowError::Lint {
                candidate,
                errors,
                findings,
            } => {
                write!(
                    f,
                    "candidate '{candidate}' rejected by lint: {errors} error finding(s)"
                )?;
                if let Some(first) = findings.first() {
                    write!(f, " ({first}")?;
                    if findings.len() > 1 {
                        write!(f, "; +{} more", findings.len() - 1)?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            FlowError::InfeasibleCertificate {
                constraints,
                detail,
            } => {
                write!(f, "spec certified infeasible before solving: {detail}")?;
                if !constraints.is_empty() {
                    write!(f, " [certificate: {}]", constraints.join(", "))?;
                }
                Ok(())
            }
            FlowError::BudgetExceeded { what, detail } => {
                write!(f, "{what} budget exceeded: {detail}")
            }
            FlowError::InvalidRequest { what, detail } => {
                write!(f, "invalid {what} request: {detail}")
            }
            FlowError::NoFeasibleCandidate { total, taxonomy } => {
                write!(f, "no feasible candidate among {total}")?;
                if !taxonomy.is_empty() {
                    write!(f, " (")?;
                    for (i, (tag, n)) in taxonomy.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{tag}\u{d7}{n}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Gp(e) => Some(e),
            FlowError::Sta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GpError> for FlowError {
    fn from(e: GpError) -> Self {
        FlowError::Gp(e)
    }
}

impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        match e {
            // An unmeasurable macro (no reachable output arrival) is a
            // property of the candidate, not an STA machinery failure —
            // keep it on its own taxonomy row so sweep tables separate
            // "broken topology" from "timing analysis broke".
            StaError::NoEndpoints => FlowError::NoEndpoints,
            other => FlowError::Sta(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = FlowError::from(GpError::Unbounded);
        assert!(e.to_string().contains("unbounded"));
        assert!(e.source().is_some());
        let e = FlowError::TooManyPaths {
            classes: 50_000,
            limit: 20_000,
        };
        assert!(e.to_string().contains("50000"));
    }
}
