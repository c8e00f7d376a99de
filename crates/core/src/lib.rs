//! # DIVA — diversity-preserving k-anonymization
//!
//! A from-scratch Rust implementation of the DIVA algorithm from
//! *Preserving Diversity in Anonymized Data* (Milani, Huang, Chiang —
//! EDBT 2021). DIVA solves the **(k, Σ)-anonymization problem**
//! (Definition 2.4): given a relation `R`, a privacy parameter `k`,
//! and a set of diversity constraints `Σ`, publish `R′` such that
//!
//! 1. `R ⊑ R′` — `R′` is obtained from `R` by suppressing QI values;
//! 2. `R′` is `k`-anonymous;
//! 3. `R′ |= Σ` — every diversity constraint holds;
//! 4. suppression (the number of `★`s) is minimal.
//!
//! The pipeline (Figure 1 of the paper) is
//! **DiverseClustering** ([`coloring`], [`candidates`], [`graph`]) →
//! **Suppress** ([`diva_relation::suppress`]) → **Anonymize**
//! ([`diva_anonymize`]) → **Integrate** ([`integrate`]).
//!
//! ## Quick start
//!
//! ```
//! use diva_core::{Diva, DivaConfig, Strategy};
//! use diva_constraints::Constraint;
//! use diva_relation::fixtures::paper_table1;
//!
//! // Table 1 of the paper and Σ = {σ1, σ2, σ3} from Example 3.1.
//! let r = paper_table1();
//! let sigma = vec![
//!     Constraint::single("ETH", "Asian", 2, 5),
//!     Constraint::single("ETH", "African", 1, 3),
//!     Constraint::single("CTY", "Vancouver", 2, 4),
//! ];
//! let out = Diva::new(DivaConfig::with_k(2).strategy(Strategy::MaxFanOut))
//!     .run(&r, &sigma)
//!     .unwrap();
//! assert!(diva_relation::is_k_anonymous(&out.relation, 2));
//! ```
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod budget;
pub mod candidates;
pub mod coloring;
pub mod config;
pub mod decompose;
pub mod diva;
pub mod error;
pub mod graph;
pub mod integrate;
pub mod parallel;
pub mod pool;
mod provenance;
pub mod state;

pub use budget::{Budget, BudgetSpec, BudgetUsage, Controls, DegradeReason, Outcome};
pub use candidates::CandidateSet;
pub use coloring::{Coloring, ColoringOutcome, ColoringStats};
pub use config::{DivaConfig, Strategy};
pub use decompose::{components, Component};
pub use diva::{Diva, DivaResult, PhaseAlloc, RunStats};
pub use diva_obs as obs;
pub use error::DivaError;
pub use graph::ConstraintGraph;
pub use parallel::{run_portfolio, run_portfolio_with};
