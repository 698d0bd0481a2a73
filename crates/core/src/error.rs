//! The common error type shared across all crowdkit crates.

use std::fmt;

/// Convenience result alias used throughout crowdkit.
pub type Result<T> = std::result::Result<T, CrowdError>;

/// Errors produced by crowdkit components.
#[derive(Debug, Clone, PartialEq)]
pub enum CrowdError {
    /// The budget has been exhausted; no more crowd questions can be asked.
    BudgetExhausted {
        /// Cost of the operation that was attempted.
        requested: f64,
        /// Budget remaining when the operation was attempted.
        remaining: f64,
    },
    /// No worker was available to take the task (empty pool, all busy, or
    /// all excluded for this task).
    NoWorkerAvailable,
    /// An answer had a value type incompatible with the task kind, e.g. a
    /// numeric answer for a single-choice task.
    AnswerTypeMismatch {
        /// Human-readable description of what was expected.
        expected: &'static str,
        /// Human-readable description of what was found.
        found: &'static str,
    },
    /// A label index was outside the task's label space.
    LabelOutOfRange {
        /// The offending label index.
        label: u32,
        /// Number of labels in the space.
        space: u32,
    },
    /// An algorithm received an empty input it cannot work with.
    EmptyInput(&'static str),
    /// An algorithm was given inconsistent dimensions (e.g. a response
    /// matrix whose label count differs from the task's label space).
    DimensionMismatch(String),
    /// Failure parsing a declarative program (SQL or Datalog).
    Parse {
        /// Line number (1-based) where the error was detected.
        line: usize,
        /// Column number (1-based) where the error was detected.
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// A declarative program was well-formed but semantically invalid
    /// (unknown relation, unbound variable, unstratifiable negation, …).
    Semantic(String),
    /// Name/type resolution against the catalog failed (unknown column or
    /// table, ambiguous reference, predicate type mismatch). Carries the
    /// source position of the offending token so tools can point at it.
    Bind {
        /// Line number (1-based) of the offending reference.
        line: usize,
        /// Column number (1-based) of the offending reference.
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// Query/plan execution failed.
    Execution(String),
    /// The operation is not supported by this component.
    Unsupported(&'static str),
}

impl fmt::Display for CrowdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrowdError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "budget exhausted: requested {requested:.4} units but only {remaining:.4} remain"
            ),
            CrowdError::NoWorkerAvailable => write!(f, "no worker available for the task"),
            CrowdError::AnswerTypeMismatch { expected, found } => {
                write!(
                    f,
                    "answer type mismatch: expected {expected}, found {found}"
                )
            }
            CrowdError::LabelOutOfRange { label, space } => {
                write!(
                    f,
                    "label {label} out of range for label space of size {space}"
                )
            }
            CrowdError::EmptyInput(what) => write!(f, "empty input: {what}"),
            CrowdError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            CrowdError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            CrowdError::Semantic(msg) => write!(f, "semantic error: {msg}"),
            CrowdError::Bind {
                line,
                column,
                message,
            } => write!(f, "bind error at {line}:{column}: {message}"),
            CrowdError::Execution(msg) => write!(f, "execution error: {msg}"),
            CrowdError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for CrowdError {}

impl CrowdError {
    /// Constructs a parse error.
    pub fn parse(line: usize, column: usize, message: impl Into<String>) -> Self {
        CrowdError::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    /// Constructs a bind (name/type resolution) error.
    pub fn bind(line: usize, column: usize, message: impl Into<String>) -> Self {
        CrowdError::Bind {
            line,
            column,
            message: message.into(),
        }
    }

    /// True when the error means "stop asking the crowd" (budget exhausted
    /// or no workers) rather than a programming/logic error.
    pub fn is_resource_exhaustion(&self) -> bool {
        matches!(
            self,
            CrowdError::BudgetExhausted { .. } | CrowdError::NoWorkerAvailable
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = CrowdError::BudgetExhausted {
            requested: 1.0,
            remaining: 0.25,
        };
        let s = e.to_string();
        assert!(s.contains("budget exhausted"));
        assert!(s.contains("1.0000"));
        assert!(s.contains("0.2500"));

        let p = CrowdError::parse(3, 14, "unexpected token `FROM`");
        assert_eq!(
            p.to_string(),
            "parse error at 3:14: unexpected token `FROM`"
        );

        let b = CrowdError::bind(2, 8, "unknown column `price`");
        assert_eq!(b.to_string(), "bind error at 2:8: unknown column `price`");
        assert!(!b.is_resource_exhaustion());
    }

    #[test]
    fn resource_exhaustion_classification() {
        assert!(CrowdError::NoWorkerAvailable.is_resource_exhaustion());
        assert!(CrowdError::BudgetExhausted {
            requested: 1.0,
            remaining: 0.0
        }
        .is_resource_exhaustion());
        assert!(!CrowdError::EmptyInput("answers").is_resource_exhaustion());
        assert!(!CrowdError::Semantic("bad".into()).is_resource_exhaustion());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CrowdError::NoWorkerAvailable);
    }
}
