//! Suppression-based `k`-anonymization baselines.
//!
//! The paper's `Anonymize` step "is amenable to any anonymization
//! algorithm" and its evaluation (§4.2) compares DIVA against three
//! published baselines, all reimplemented here from their original
//! descriptions:
//!
//! * [`KMember`] — greedy clustering (Byun, Kamra, Bertino, Li,
//!   DASFAA 2007), the algorithm DIVA itself uses for its `Anonymize`
//!   step;
//! * [`Oka`] — one-pass k-means for anonymization (Lin & Wei,
//!   PAIS 2008);
//! * [`Mondrian`] — multidimensional median partitioning (LeFevre,
//!   DeWitt, Ramakrishnan, ICDE 2006), adapted to categorical domains
//!   with suppression as the recoding model.
//!
//! Every algorithm implements the [`Anonymizer`] trait: it produces a
//! *clustering* of the requested rows, and the shared
//! [`suppress_clustering`][diva_relation::suppress::suppress_clustering]
//! routine turns a clustering into a `k`-anonymous relation, so
//! information loss is directly comparable across algorithms and with
//! DIVA.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod common;
pub mod kmember;
pub mod ldiv;
pub mod mondrian;
pub mod oka;

pub use common::{cluster_observed_interruptible, Anonymizer, QiMatrix};
pub use kmember::KMember;
pub use ldiv::{enforce_diversity, DiversityModel};
pub use mondrian::Mondrian;
pub use oka::Oka;
