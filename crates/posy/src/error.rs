//! Error type for posynomial construction.

use std::error::Error;
use std::fmt;

/// Error raised when an operation would leave the posynomial cone.
///
/// Posynomials require strictly positive coefficients; the SMART delay/slope
/// models rely on this to stay solvable as a geometric program, so violations
/// are surfaced eagerly instead of producing a silently non-convex model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PosyError {
    /// A coefficient was zero, negative, NaN or infinite.
    BadCoefficient {
        /// The offending value.
        value: f64,
    },
    /// An exponent was NaN or infinite.
    BadExponent {
        /// The offending value.
        value: f64,
    },
    /// An evaluation point contained a non-positive coordinate.
    NonPositivePoint {
        /// Dense index of the offending coordinate.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An evaluation point was shorter than the highest variable index used.
    PointTooShort {
        /// Length required (max variable index + 1).
        needed: usize,
        /// Length provided.
        got: usize,
    },
}

impl fmt::Display for PosyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosyError::BadCoefficient { value } => {
                write!(
                    f,
                    "monomial coefficient must be finite and > 0, got {value}"
                )
            }
            PosyError::BadExponent { value } => {
                write!(f, "monomial exponent must be finite, got {value}")
            }
            PosyError::NonPositivePoint { index, value } => write!(
                f,
                "evaluation point must be strictly positive, coordinate {index} is {value}"
            ),
            PosyError::PointTooShort { needed, got } => write!(
                f,
                "evaluation point has {got} coordinates but {needed} are required"
            ),
        }
    }
}

impl Error for PosyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = PosyError::BadCoefficient { value: -1.0 };
        let msg = e.to_string();
        assert!(msg.contains("-1"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PosyError>();
    }
}
