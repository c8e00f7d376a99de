//! Errors produced by the DIVA pipeline.

use diva_constraints::ConstraintError;

/// Why DIVA could not produce a diverse anonymized relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivaError {
    /// A constraint failed validation or binding.
    Constraint(ConstraintError),
    /// `DiverseClustering` found no diverse clustering: the search's
    /// capped candidates, with repair, admit no consistent colouring
    /// (the paper's Algorithm 1, line 2). That proves nothing about
    /// clusterings outside the candidates: the brute-force oracle
    /// (`tests/oracle.rs`) finds feasible instances on which the
    /// search fails this way.
    NoDiverseClustering {
        /// Label of a constraint the failing search covered (one
        /// connected component of the constraint graph, or all of
        /// it): its first constraint with no candidate at all if
        /// there is one, else its lowest-index constraint. An
        /// exhausted search has undone every assignment, so this is
        /// not the constraint the search last failed on; the true
        /// culprit may be an interaction.
        constraint: String,
    },
    /// The residual tuples (fewer than `k` of them remained outside
    /// the diverse clustering) could not be anonymized without either
    /// breaking `k`-anonymity or violating `Σ`.
    ResidualTooSmall {
        /// How many tuples remained.
        remaining: usize,
    },
    /// Integrate could not repair an upper-bound violation: the
    /// violating occurrences are pinned inside `R_Σ`.
    IntegrateFailed {
        /// Label of the violated constraint.
        constraint: String,
        /// Occurrences counted in the integrated relation.
        count: usize,
        /// The violated upper bound.
        upper: usize,
    },
    /// `k` was zero.
    InvalidK,
    /// A portfolio was requested with zero members
    /// (`seeds_per_strategy == 0`).
    EmptyPortfolio,
    /// The run was cancelled by a portfolio token before reaching a
    /// verdict (another member won the race).
    Cancelled,
    /// The requested privacy extension (ℓ-diversity) cannot be met —
    /// e.g. the residual tuples carry fewer distinct sensitive values
    /// than `ℓ`.
    PrivacyInfeasible {
        /// Human-readable reason.
        reason: String,
    },
    /// A [`DivaConfig`][crate::DivaConfig] field is out of range —
    /// e.g. `threads == Some(0)`.
    InvalidConfig {
        /// Which field, and why it was rejected.
        reason: String,
    },
    /// A portfolio worker thread panicked mid-search (a genuine bug, or
    /// a panicking member runner, caught by the portfolio's panic
    /// containment).
    /// Surfaced per member; the portfolio itself degrades instead of
    /// propagating this when every member is lost.
    WorkerPanicked {
        /// The panic message, best-effort stringified.
        detail: String,
    },
    /// A debug-build phase validator found a kernel structure in an
    /// inconsistent state, or an internal worker failed.
    InvariantViolated {
        /// Pipeline phase (or structure) the check ran at.
        phase: String,
        /// The violated invariant, named precisely.
        detail: String,
    },
}

impl std::fmt::Display for DivaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivaError::Constraint(e) => write!(f, "invalid constraint: {e}"),
            DivaError::NoDiverseClustering { constraint } => {
                write!(
                    f,
                    "no diverse clustering found: the search's candidate clusterings, with \
                     repair, admit no consistent colouring (failed on {constraint})"
                )
            }
            DivaError::ResidualTooSmall { remaining } => {
                write!(
                    f,
                    "{remaining} residual tuple(s) cannot form a k-anonymous group or \
                     join one without violating the constraints"
                )
            }
            DivaError::IntegrateFailed { constraint, count, upper } => {
                write!(
                    f,
                    "integration cannot repair {constraint}: {count} occurrences exceed \
                     the upper bound {upper} and are pinned inside R_Sigma"
                )
            }
            DivaError::InvalidK => write!(f, "k must be positive"),
            DivaError::EmptyPortfolio => {
                write!(f, "portfolio needs at least one seed per strategy")
            }
            DivaError::Cancelled => write!(f, "search cancelled (another portfolio member won)"),
            DivaError::PrivacyInfeasible { reason } => {
                write!(f, "privacy extension infeasible: {reason}")
            }
            DivaError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            DivaError::WorkerPanicked { detail } => {
                write!(f, "portfolio worker panicked: {detail}")
            }
            DivaError::InvariantViolated { phase, detail } => {
                write!(f, "invariant violated at {phase}: {detail}")
            }
        }
    }
}

impl std::error::Error for DivaError {}

impl From<ConstraintError> for DivaError {
    fn from(e: ConstraintError) -> Self {
        DivaError::Constraint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = DivaError::NoDiverseClustering { constraint: "ETH[Asian]".into() };
        assert!(e.to_string().contains("ETH[Asian]"));
        let e = DivaError::IntegrateFailed { constraint: "X".into(), count: 9, upper: 5 };
        assert!(e.to_string().contains('9'));
        assert!(DivaError::InvalidK.to_string().contains("positive"));
        assert!(DivaError::ResidualTooSmall { remaining: 2 }.to_string().contains('2'));
        assert!(DivaError::EmptyPortfolio.to_string().contains("seed"));
        assert!(DivaError::Cancelled.to_string().contains("cancelled"));
        let e = DivaError::InvalidConfig { reason: "threads must be positive".into() };
        assert!(e.to_string().contains("threads"));
        let e = DivaError::WorkerPanicked { detail: "injected fault".into() };
        assert!(e.to_string().contains("injected fault"));
        let e = DivaError::InvariantViolated {
            phase: "DiverseClustering".into(),
            detail: "row 3 owned by dead cluster".into(),
        };
        assert!(e.to_string().contains("DiverseClustering"));
        assert!(e.to_string().contains("dead cluster"));
    }

    #[test]
    fn from_constraint_error() {
        let ce = ConstraintError::NoTargets;
        let e: DivaError = ce.clone().into();
        assert_eq!(e, DivaError::Constraint(ce));
    }
}
