//! Relational substrate for the DIVA reproduction.
//!
//! This crate implements the data model that every algorithm in the
//! workspace runs over:
//!
//! * [`Schema`] — named attributes, each tagged with an [`AttrRole`]
//!   (quasi-identifier, sensitive, or insensitive);
//! * [`Relation`] — a dictionary-encoded columnar table with a reserved
//!   code for the suppression symbol `★`;
//! * [`groups`] — QI-group computation and `k`-anonymity checking
//!   (Definition 2.1 of the paper);
//! * [`suppress`] — value suppression and the `R ⊑ R′` refinement
//!   relation (Section 2 of the paper);
//! * [`csv`] — minimal, dependency-free CSV reading and writing.
//!
//! The representation follows the Rust Performance Book's advice on
//! compact data: cell values are `u32` dictionary codes, so row
//! comparisons and hashing touch only machine words, and string data is
//! stored once per distinct value.
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod builder;
pub mod csv;
pub mod dict;
pub mod fixtures;
pub mod groups;
pub mod relation;
pub mod rowset;
pub mod schema;
pub mod suppress;
pub mod value;

pub use builder::RelationBuilder;
pub use dict::Dict;
pub use groups::{is_k_anonymous, qi_groups, QiGroups};
pub use relation::Relation;
pub use rowset::RowSet;
pub use schema::{AttrRole, Attribute, Schema};
pub use value::{Value, STAR_CODE};

/// A row index into a [`Relation`].
pub type RowId = usize;

/// A column (attribute) index into a [`Schema`].
pub type ColId = usize;
