//! Diversity constraints over relations (Definition 2.3 of the paper).
//!
//! A diversity constraint `σ = (X[t], λl, λr)` demands that the
//! published relation retain between `λl` and `λr` tuples whose values
//! on the attribute set `X` equal the target tuple `t`. This crate
//! provides:
//!
//! * [`Constraint`] — the declarative, schema-level form;
//! * [`BoundConstraint`] — a constraint resolved against a concrete
//!   [`Relation`][diva_relation::Relation] (column ids, dictionary
//!   codes, and the target-tuple set `I_σ`);
//! * [`ConstraintSet`] — validation and satisfaction checking for a
//!   set `Σ`;
//! * [`conflict`] — the conflict-rate measure `cf(Σ)` used by Fig. 4c;
//! * [`generators`] — the paper's three constraint classes
//!   (minimum-frequency, average, proportional) plus a
//!   conflict-rate-targeted generator;
//! * [`spec`] — a small text format for reading and writing constraint
//!   sets.
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod conflict;
pub mod constraint;
pub mod generators;
pub mod set;
pub mod spec;

pub use conflict::{conflict_rate, pairwise_conflict};
pub use constraint::{BoundConstraint, Constraint, ConstraintError};
pub use set::ConstraintSet;
