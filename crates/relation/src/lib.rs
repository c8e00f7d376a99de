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

/// Row-at-a-time relation construction.
pub mod builder;
/// Dependency-free CSV reading and writing (RFC-4180 quoting).
pub mod csv;
/// Per-column string dictionaries.
pub mod dict;
/// Shared fixtures: the paper's running example (Table 1).
pub mod fixtures;
/// QI-groups and `k`-anonymity (Definition 2.1).
pub mod groups;
/// The columnar relation type.
pub mod relation;
/// A fixed-capacity bitset over row ids.
pub mod rowset;
/// Relation schemas: attribute names and privacy roles.
pub mod schema;
/// Cluster-driven value suppression (Algorithm 2) and refinement.
pub mod suppress;
/// Cell values: dictionary codes plus the suppression symbol.
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
