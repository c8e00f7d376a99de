//! Workspace-level live-telemetry tests: a real pipeline run scraped
//! mid-flight over TCP (the `--stats-addr` wiring minus the CLI), and
//! schema checks on both exposition routes against the finished run.

use diva_constraints::Constraint;
use diva_core::{Diva, DivaConfig, Strategy};
use diva_obs::live::{Phase, Sampler, SamplerConfig};
use diva_obs::serve::{http_get, parse_prometheus, StatsServer};
use diva_obs::{json, Obs};
use diva_relation::Relation;
use std::time::Duration;

/// A workload whose colouring search is long enough (~10^5 nodes in
/// debug builds) that mid-run snapshots are observable, yet completes
/// in seconds.
fn sustained_workload() -> (Relation, Vec<Constraint>) {
    let rel = diva_datagen::medical(2000, 7);
    let sigma = diva_constraints::generators::proportional(&rel, 10, 0.7, 20);
    (rel, sigma)
}

fn prom_value(samples: &[diva_obs::serve::PromSample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

/// Runs the pipeline on one thread while scraping `/metrics` over real
/// TCP from another: at least one scrape must observe the node counter
/// strictly between zero and the finished search's total — the
/// in-flight evidence the CLI's `stats_endpoint_serves_the_search_in_flight`
/// test demands of a `--stats-addr` run.
#[test]
fn mid_run_scrape_sees_the_search_in_flight() {
    let (rel, sigma) = sustained_workload();
    let obs = Obs::enabled();
    let sampler = Sampler::spawn(
        &obs,
        SamplerConfig { interval: Duration::from_millis(5), ..SamplerConfig::default() },
        None,
    );
    let server = StatsServer::bind("127.0.0.1:0", obs.clone(), sampler.log()).expect("bind port 0");
    let addr = server.local_addr();
    let config = DivaConfig { k: 5, strategy: Strategy::MaxFanOut, obs, ..DivaConfig::default() };
    let mut observed: Vec<u64> = Vec::new();
    let result = std::thread::scope(|s| {
        let run = s.spawn(|| Diva::new(config).run(&rel, &sigma));
        while !run.is_finished() {
            if let Ok((status, body)) = http_get(&addr, "/metrics", Duration::from_millis(500)) {
                assert!(status.contains("200"), "mid-run scrape failed: {status}");
                let samples = parse_prometheus(&body).expect("exposition parses");
                let nodes = prom_value(&samples, "diva_nodes_expanded_total")
                    .expect("node family present") as u64;
                observed.push(nodes);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        run.join().expect("run thread panicked")
    })
    .expect("workload solves");
    let final_nodes = result.stats.coloring.assignments_tried;
    assert!(final_nodes > 1_000, "workload too small to scrape meaningfully: {final_nodes}");
    assert!(
        observed.iter().any(|&n| n > 0 && n < final_nodes),
        "no scrape caught the search in flight (final {final_nodes}, observed {observed:?})"
    );
    assert!(
        observed.windows(2).all(|w| w[0] <= w[1]),
        "scraped node counts must be monotone: {observed:?}"
    );

    // After the run both routes still serve the final state: the
    // Prometheus text and the summary-JSON document must agree with
    // the search's own statistics.
    let (status, body) = http_get(&addr, "/metrics", Duration::from_millis(500)).expect("GET");
    assert!(status.contains("200"));
    let samples = parse_prometheus(&body).expect("exposition parses");
    assert_eq!(prom_value(&samples, "diva_nodes_expanded_total"), Some(final_nodes as f64));
    let phase = samples
        .iter()
        .find(|s| s.name == "diva_phase")
        .and_then(|s| s.label("phase"))
        .expect("phase label");
    assert_eq!(phase, Phase::Done.as_str());

    let (status, body) = http_get(&addr, "/stats.json", Duration::from_millis(500)).expect("GET");
    assert!(status.contains("200"));
    let v = json::parse(&body).expect("summary document parses");
    for section in ["spans", "counters", "gauges", "histograms"] {
        assert!(v.get(section).is_some(), "missing {section} section");
    }
    let live_nodes = v
        .get("counters")
        .and_then(|c| c.get("live.nodes_expanded"))
        .and_then(json::Value::as_num)
        .expect("live.nodes_expanded counter");
    assert_eq!(live_nodes as u64, final_nodes);
    server.shutdown();
    sampler.stop();
}
