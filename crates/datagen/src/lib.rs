//! Seedable synthetic dataset generators.
//!
//! The paper evaluates on three real datasets (Pantheon, US Census,
//! German Credit) and one synthetic dataset (Pop-Syn, generated with
//! Synner.io). None of the real CSVs are redistributable here, so this
//! crate generates *characteristic-matched* synthetic stand-ins: each
//! generator reproduces the row count, attribute count, and — most
//! importantly for DIVA's behaviour — the **distinct QI-projection
//! cardinality** `|Π_QI(R)|` from Table 4 of the paper, plus skewed
//! value marginals where the real data is skewed.
//!
//! The generators achieve an exact `|Π_QI(R)|` by first materializing
//! that many distinct *QI profiles* and then assigning every row to a
//! profile: the first `n_profiles` rows cover each profile once and the
//! remainder draw profiles from a configurable distribution. Row order
//! is then shuffled (seeded) so algorithms cannot exploit generation
//! order.
//!
//! Everything is deterministic given `(spec, n_rows, seed)`.
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod dist;
pub mod spec;

mod engine;

pub use dist::{Dist, Sampler};
pub use engine::generate;
pub use spec::{ColumnSpec, DatasetSpec, Domain};

use diva_relation::Relation;

/// Pantheon stand-in (Table 4: 11,341 × 17, |Π_QI| = 5,636).
pub fn pantheon(seed: u64) -> Relation {
    generate(&spec::pantheon_spec(), 11_341, seed)
}

/// Census stand-in (Table 4: 299,285 × 40, |Π_QI| = 12,405).
///
/// `n_rows` lets the |R| sweeps of Figs. 5c/5d generate smaller
/// instances directly; pass `299_285` for the full Table 4 shape.
pub fn census(n_rows: usize, seed: u64) -> Relation {
    generate(&spec::census_spec(), n_rows, seed)
}

/// German Credit stand-in (Table 4: 1,000 × 20, |Π_QI| = 60).
pub fn credit(seed: u64) -> Relation {
    generate(&spec::credit_spec(), 1_000, seed)
}

/// Pop-Syn stand-in (Table 4: 100,000 × 7, |Π_QI| = 24,630) with every
/// attribute's values drawn from `dist` — the knob swept by Fig. 4d.
pub fn popsyn(n_rows: usize, dist: Dist, seed: u64) -> Relation {
    generate(&spec::popsyn_spec(dist), n_rows, seed)
}

/// A small, human-readable medical dataset in the style of the paper's
/// running example (Table 1), for examples and documentation.
pub fn medical(n_rows: usize, seed: u64) -> Relation {
    generate(&spec::medical_spec(), n_rows, seed)
}
