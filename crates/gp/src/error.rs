//! Error type for GP construction and solving.

use std::error::Error;
use std::fmt;

/// Errors raised by [`crate::GpProblem`] construction or solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// A constraint was added with a zero (empty) posynomial body.
    EmptyConstraint {
        /// Label the caller supplied for the constraint.
        label: String,
    },
    /// Phase I finished without finding a strictly feasible point: the
    /// constraint set is (numerically) infeasible. For the sizing flow this
    /// means the delay target cannot be met at any device size — the signal
    /// for SMART to report "constraints unachievable" to the designer.
    Infeasible {
        /// Worst constraint body value `fᵢ(x)` achieved (≥ 1 means violated).
        worst_violation: f64,
    },
    /// Iterates escaped the sanity box: no positive minimizer (e.g. the
    /// objective keeps improving as a size goes to 0 or ∞ because a bound is
    /// missing).
    Unbounded,
    /// Newton/barrier machinery failed to make progress.
    Numerical {
        /// Stage that failed (`"phase1"`, `"phase2"`, `"setup"`).
        stage: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A non-finite value entered or left the solver: a NaN/Inf coefficient
    /// or exponent in the problem data, a bad warm-start point, or a
    /// non-finite iterate that slipped past the step-size safeguards. The
    /// flow treats this as a per-candidate failure, never a panic.
    NonFinite {
        /// Stage that detected the value (`"spec"`, `"setup"`,
        /// `"phase1"`, `"phase2"`, `"solution"`).
        stage: &'static str,
        /// Human-readable detail naming the offending quantity.
        detail: String,
    },
    /// A cooperative budget (wall-clock deadline or Newton-step cap from
    /// [`crate::SolverOptions`]) expired mid-solve. The partial iterate is
    /// discarded; the caller decides whether to retry with a larger budget.
    BudgetExceeded {
        /// Stage that was running when the budget expired.
        stage: &'static str,
        /// Which budget expired (`"wall-clock"` or `"newton-steps"`).
        budget: &'static str,
        /// Newton steps spent before the budget fired.
        spent_newton: usize,
    },
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::EmptyConstraint { label } => {
                write!(f, "constraint '{label}' has an empty posynomial body")
            }
            GpError::Infeasible { worst_violation } => write!(
                f,
                "geometric program is infeasible (worst constraint body {worst_violation:.4}, needs <= 1)"
            ),
            GpError::Unbounded => {
                write!(f, "geometric program is unbounded; a size bound is missing")
            }
            GpError::Numerical { stage, detail } => {
                write!(f, "numerical failure in {stage}: {detail}")
            }
            GpError::NonFinite { stage, detail } => {
                write!(f, "non-finite value in {stage}: {detail}")
            }
            GpError::BudgetExceeded {
                stage,
                budget,
                spent_newton,
            } => write!(
                f,
                "{budget} budget exceeded in {stage} after {spent_newton} Newton steps"
            ),
        }
    }
}

impl Error for GpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        let e = GpError::Infeasible {
            worst_violation: 2.5,
        };
        assert!(e.to_string().contains("2.5"));
        let e = GpError::EmptyConstraint { label: "t1".into() };
        assert!(e.to_string().contains("t1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GpError>();
    }
}
