//! Golden test of the stats endpoint's two documents: `/metrics`
//! (Prometheus text) and `/stats.json` (summary-JSON schema) rendered
//! for a fixed live state, compared byte for byte with committed
//! strings. Scrapers depend on these bytes, so a change to the
//! rendering code must leave them untouched.

use diva_obs::live::{LiveSnapshot, Phase, Sample};
use diva_obs::serve::{prometheus_text, stats_json};

/// Every cell populated, including the watchdog flag, the live heap,
/// and a label that needs Prometheus escaping.
fn populated() -> LiveSnapshot {
    LiveSnapshot {
        phase: Phase::Anonymize,
        nodes: 1234,
        repairs: 7,
        satisfied: 40,
        voided: 2,
        constraints_total: 50,
        components_done: 2,
        components_total: 12,
        node_limit: 10_000,
        deadline_ms: 10_000,
        live_alloc_bytes: 4096,
        stalled: true,
        elapsed_ms: 250,
        constraint_stars: vec![
            ("ETH[Asian]".to_string(), 6),
            ("CTY[Vancouver]".to_string(), 2),
            ("JOB[\"Nurse\"]".to_string(), 0),
        ],
    }
}

/// A sampler tick with fractional and integral rates and both
/// budget projections.
fn latest(snap: &LiveSnapshot) -> Sample {
    Sample {
        live: snap.clone(),
        nodes_per_sec: 512.5,
        repairs_per_sec: 3.0,
        eta_ms: Some(750),
        deadline_remaining_ms: Some(9000),
        idle_periods: 0,
    }
}

/// A fresh run: no sampler tick yet and no star attribution.
fn bare() -> LiveSnapshot {
    LiveSnapshot { constraint_stars: Vec::new(), stalled: false, ..populated() }
}

const POPULATED_METRICS: &str = "\
# HELP diva_phase Current pipeline phase (code; label carries the name).
# TYPE diva_phase gauge
diva_phase{phase=\"anonymize\"} 3
# HELP diva_nodes_expanded_total Search nodes expanded (poll-stride granularity).
# TYPE diva_nodes_expanded_total gauge
diva_nodes_expanded_total 1234
# HELP diva_repairs_total Repair attempts.
# TYPE diva_repairs_total gauge
diva_repairs_total 7
# HELP diva_constraints_satisfied Constraints satisfied by formed clusters.
# TYPE diva_constraints_satisfied gauge
diva_constraints_satisfied 40
# HELP diva_constraints_voided Constraints voided on the degradation path.
# TYPE diva_constraints_voided gauge
diva_constraints_voided 2
# HELP diva_constraints_total Size of the bound constraint set.
# TYPE diva_constraints_total gauge
diva_constraints_total 50
# HELP diva_components_done Components solved.
# TYPE diva_components_done gauge
diva_components_done 2
# HELP diva_components_total Components in the decomposition.
# TYPE diva_components_total gauge
diva_components_total 12
# HELP diva_budget_node_limit Armed node budget (0 = unlimited).
# TYPE diva_budget_node_limit gauge
diva_budget_node_limit 10000
# HELP diva_deadline_ms Armed deadline in milliseconds (0 = none).
# TYPE diva_deadline_ms gauge
diva_deadline_ms 10000
# HELP diva_live_alloc_bytes Live heap bytes under the counting allocator.
# TYPE diva_live_alloc_bytes gauge
diva_live_alloc_bytes 4096
# HELP diva_stalled 1 while the stall watchdog considers the run stalled.
# TYPE diva_stalled gauge
diva_stalled 1
# HELP diva_elapsed_ms Milliseconds since the board was created.
# TYPE diva_elapsed_ms gauge
diva_elapsed_ms 250
# HELP diva_nodes_per_sec Node-expansion rate over the last sampling window.
# TYPE diva_nodes_per_sec gauge
diva_nodes_per_sec 512.5
# HELP diva_repairs_per_sec Repair rate over the last sampling window.
# TYPE diva_repairs_per_sec gauge
diva_repairs_per_sec 3
# HELP diva_eta_ms Projected ms to node-budget exhaustion at the current rate.
# TYPE diva_eta_ms gauge
diva_eta_ms 750
# HELP diva_deadline_remaining_ms Ms left before the deadline.
# TYPE diva_deadline_remaining_ms gauge
diva_deadline_remaining_ms 9000
# HELP diva_constraint_stars Stars attributed to each sigma constraint by the provenance recorder.
# TYPE diva_constraint_stars gauge
diva_constraint_stars{constraint=\"ETH[Asian]\"} 6
diva_constraint_stars{constraint=\"CTY[Vancouver]\"} 2
diva_constraint_stars{constraint=\"JOB[\\\"Nurse\\\"]\"} 0
";

const POPULATED_STATS: &str = "\
{
  \"spans\": {},
  \"counters\": {
    \"live.constraints_satisfied\": 40,
    \"live.constraints_voided\": 2,
    \"live.nodes_expanded\": 1234,
    \"live.repairs\": 7
  },
  \"gauges\": {
    \"live.alloc_bytes\": 4096,
    \"live.components_done\": 2,
    \"live.components_total\": 12,
    \"live.constraint_stars.CTY[Vancouver]\": 2,
    \"live.constraint_stars.ETH[Asian]\": 6,
    \"live.constraint_stars.JOB[\\\"Nurse\\\"]\": 0,
    \"live.constraints_total\": 50,
    \"live.deadline_ms\": 10000,
    \"live.deadline_remaining_ms\": 9000,
    \"live.elapsed_ms\": 250,
    \"live.eta_ms\": 750,
    \"live.node_limit\": 10000,
    \"live.nodes_per_sec\": 512,
    \"live.phase_code\": 3,
    \"live.repairs_per_sec\": 3,
    \"live.stalled\": 1
  },
  \"histograms\": {}
}
";

const BARE_METRICS: &str = "\
# HELP diva_phase Current pipeline phase (code; label carries the name).
# TYPE diva_phase gauge
diva_phase{phase=\"anonymize\"} 3
# HELP diva_nodes_expanded_total Search nodes expanded (poll-stride granularity).
# TYPE diva_nodes_expanded_total gauge
diva_nodes_expanded_total 1234
# HELP diva_repairs_total Repair attempts.
# TYPE diva_repairs_total gauge
diva_repairs_total 7
# HELP diva_constraints_satisfied Constraints satisfied by formed clusters.
# TYPE diva_constraints_satisfied gauge
diva_constraints_satisfied 40
# HELP diva_constraints_voided Constraints voided on the degradation path.
# TYPE diva_constraints_voided gauge
diva_constraints_voided 2
# HELP diva_constraints_total Size of the bound constraint set.
# TYPE diva_constraints_total gauge
diva_constraints_total 50
# HELP diva_components_done Components solved.
# TYPE diva_components_done gauge
diva_components_done 2
# HELP diva_components_total Components in the decomposition.
# TYPE diva_components_total gauge
diva_components_total 12
# HELP diva_budget_node_limit Armed node budget (0 = unlimited).
# TYPE diva_budget_node_limit gauge
diva_budget_node_limit 10000
# HELP diva_deadline_ms Armed deadline in milliseconds (0 = none).
# TYPE diva_deadline_ms gauge
diva_deadline_ms 10000
# HELP diva_live_alloc_bytes Live heap bytes under the counting allocator.
# TYPE diva_live_alloc_bytes gauge
diva_live_alloc_bytes 4096
# HELP diva_stalled 1 while the stall watchdog considers the run stalled.
# TYPE diva_stalled gauge
diva_stalled 0
# HELP diva_elapsed_ms Milliseconds since the board was created.
# TYPE diva_elapsed_ms gauge
diva_elapsed_ms 250
";

const BARE_STATS: &str = "\
{
  \"spans\": {},
  \"counters\": {
    \"live.constraints_satisfied\": 40,
    \"live.constraints_voided\": 2,
    \"live.nodes_expanded\": 1234,
    \"live.repairs\": 7
  },
  \"gauges\": {
    \"live.alloc_bytes\": 4096,
    \"live.components_done\": 2,
    \"live.components_total\": 12,
    \"live.constraints_total\": 50,
    \"live.deadline_ms\": 10000,
    \"live.elapsed_ms\": 250,
    \"live.node_limit\": 10000,
    \"live.phase_code\": 3,
    \"live.stalled\": 0
  },
  \"histograms\": {}
}
";

#[test]
fn populated_state_renders_the_committed_documents() {
    let snap = populated();
    let sample = latest(&snap);
    assert_eq!(prometheus_text(&snap, Some(&sample)), POPULATED_METRICS);
    assert_eq!(stats_json(&snap, Some(&sample)), POPULATED_STATS);
}

#[test]
fn bare_state_renders_the_committed_documents() {
    let snap = bare();
    assert_eq!(prometheus_text(&snap, None), BARE_METRICS);
    assert_eq!(stats_json(&snap, None), BARE_STATS);
}
