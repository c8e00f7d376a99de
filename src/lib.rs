//! Workspace umbrella crate: hosts the repository-level examples
//! (`examples/`) and integration tests (`tests/`) that exercise the
//! public APIs of every `diva-*` crate together. See the individual
//! crates for the library surface:
//!
//! * [`diva_relation`] — relational substrate;
//! * [`diva_datagen`] — synthetic dataset generators;
//! * [`diva_constraints`] — diversity constraints;
//! * [`diva_metrics`] — information-loss metrics;
//! * [`diva_anonymize`] — k-anonymization baselines;
//! * [`diva_core`] — the DIVA algorithm.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub use diva_anonymize;
pub use diva_constraints;
pub use diva_core;
pub use diva_datagen;
pub use diva_metrics;
pub use diva_relation;
