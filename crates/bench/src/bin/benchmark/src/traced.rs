//! The traced per-layer run.
//!
//! One repetition calls each layer's public functions in process on
//! every instance of the workload, each call inside a `bench.<layer>`
//! span of one `diva_obs::Obs` handle, and sums the layer times and
//! work counters over the instances. Phase times and allocation of the
//! whole pipeline come from the `RunStats` that `Diva::run` returns.
//! Spans are recorded here, around the calls, not inside the program.

use std::collections::BTreeMap;
use std::path::Path;

use diva_anonymize::{Anonymizer, KMember};
use diva_constraints::{spec, ConstraintSet};
use diva_core::integrate::integrate;
use diva_core::{components, CandidateSet, Coloring, ConstraintGraph, Diva, DivaConfig, Strategy};
use diva_metrics::{audit, AuditSpec};
use diva_obs::provenance::{parse_log, validate_log, Provenance};
use diva_obs::{Obs, SpanClose};
use diva_relation::csv::write_relation_file;
use diva_relation::suppress::suppress_clustering;

use crate::stats;
use crate::verify::read_table;
use crate::workload::{Op, Spec, K, THREADS};

/// The work counters of one repetition; they must repeat exactly.
pub const COUNTERS: [&str; 15] = [
    "graph.edges",
    "graph.components",
    "graph.largest_component_nodes",
    "candidates.generated",
    "candidates.used_ratio",
    "coloring.assignments_tried",
    "coloring.backtracks",
    "coloring.waste_ratio",
    "budget.nodes_explored",
    "budget.degraded_runs",
    "anonymize.residual_rows",
    "integrate.repairs",
    "audit.classes",
    "provenance.bytes",
    "diva.stars",
];

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Per-layer values, by metric name: seconds, bytes, counters.
    pub values: BTreeMap<&'static str, f64>,
    /// In-process time of the calls one CLI op makes.
    pub op_s: f64,
    /// Published stars, per instance.
    pub stars: Vec<usize>,
    /// Whether each instance's run degraded.
    pub degraded: Vec<bool>,
}

impl Rep {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.values.entry(name).or_insert(0.0);
        *slot = slot.max(v);
    }
}

/// Runs `f` inside span `bench.<layer>` (attribute `call`).
fn traced<T>(obs: &Obs, layer: &str, call: &str, f: impl FnOnce() -> T) -> (T, SpanClose) {
    let span = obs.span(&format!("bench.{layer}")).attr("call", call);
    let out = f();
    (out, span.end_profiled())
}

fn secs(close: &SpanClose) -> f64 {
    close.dur.as_secs_f64()
}

/// Bytes the span's thread allocated inside it.
fn alloc_bytes(close: &SpanClose) -> Result<f64, String> {
    close.alloc.map(|a| a.bytes as f64).ok_or("the counting allocator is not installed".into())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traced repetition over every instance of `w` under `dir`.
pub fn rep(w: &Spec, dir: &Path, obs: &Obs) -> Result<Rep, String> {
    let mut r = Rep::default();
    // Candidates the search assigned (one per coloured node), and the
    // clustering time of single-threaded runs.
    let (mut assigned, mut clustering_1t) = (0.0, 0.0);
    let publishing = w.op == Op::Publish;
    // A recorder exactly when the CLI op records provenance.
    let op_recorder = || if w.provenance { Provenance::enabled() } else { Provenance::disabled() };
    for i in 0..w.instances {
        let inst = w.instance(dir, i);
        let (raw, t) = traced(obs, "relation", "read_relation", || read_table(&inst.input));
        let raw = raw?;
        if publishing {
            r.add("relation.read_s", secs(&t));
            r.op_s += secs(&t);
        }

        let text = std::fs::read_to_string(&inst.sigma)
            .map_err(|e| format!("{}: {e}", inst.sigma.display()))?;
        let (bound, t) = traced(obs, "constraints", "parse+bind", || {
            let sigma = spec::parse(&text).map_err(|e| e.to_string())?;
            let set = ConstraintSet::bind(&sigma, &raw).map_err(|e| e.to_string())?;
            Ok::<_, String>((sigma, set))
        });
        let (sigma, set) = bound?;
        r.add("constraints.bind_s", secs(&t));

        let ((graph, comps), t) = traced(obs, "graph", "build+components", || {
            let graph = ConstraintGraph::build(&set);
            let comps = components(&graph);
            (graph, comps)
        });
        r.add("graph.build_s", secs(&t));
        r.add("graph.edges", graph.n_edges() as f64);
        r.add("graph.components", comps.len() as f64);
        let largest = comps.iter().map(|c| c.nodes.len()).max().unwrap_or(0);
        r.max("graph.largest_component_nodes", largest as f64);

        let config = w.config(THREADS);
        let shuffle = (config.strategy == Strategy::Basic).then_some(config.seed);
        let (cands, t) = traced(obs, "candidates", "enumerate", || {
            set.constraints()
                .iter()
                .map(|c| CandidateSet::enumerate(&raw, c, K, config.max_candidates, shuffle))
                .collect::<Vec<_>>()
        });
        r.add("candidates.enumerate_s", secs(&t));
        r.add("candidates.generated", cands.iter().map(CandidateSet::len).sum::<usize>() as f64);

        let uppers: Vec<usize> = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let (solved, t) = traced(obs, "coloring", "solve", || {
            let mut search = Coloring::new(&graph, &cands, uppers, &labels, &config);
            if let Some(budget) = config.budget.arm() {
                search = search.with_budget(budget);
            }
            search.solve()
        });
        let solved = solved.map_err(|e| format!("{}: colouring: {e}", inst.input.display()))?;
        r.add("coloring.solve_s", secs(&t));
        r.add("coloring.alloc_bytes", alloc_bytes(&t)?);
        assigned += solved.assignment.len() as f64;

        // Suppress, Anonymize and Integrate, called one by one on the
        // colouring's clusters: a degraded `Diva::run` skips them.
        let mut covered = vec![false; raw.n_rows()];
        for &row in solved.clusters.iter().flatten() {
            covered[row] = true;
        }
        let rest: Vec<usize> = (0..raw.n_rows()).filter(|&row| !covered[row]).collect();
        let (r_sigma, t) = traced(obs, "relation", "suppress_clustering", || {
            suppress_clustering(&raw, &solved.clusters)
        });
        r.add("relation.suppress_s", secs(&t));
        let kmember = KMember { seed: config.seed, ..KMember::default() };
        let (clusters, t) =
            traced(obs, "anonymize", "kmember_cluster", || kmember.cluster(&raw, &rest, K));
        r.add("anonymize.cluster_s", secs(&t));
        r.add("anonymize.alloc_bytes", alloc_bytes(&t)?);
        r.add("anonymize.residual_rows", rest.len() as f64);
        let (r_k, t) =
            traced(obs, "relation", "suppress_clustering", || suppress_clustering(&raw, &clusters));
        r.add("relation.suppress_s", secs(&t));
        let (merged, t) =
            traced(obs, "integrate", "integrate", || integrate(&r_sigma, Some(&r_k), &set));
        let merged = merged.map_err(|e| format!("{}: integrate: {e}", inst.input.display()))?;
        r.add("integrate.s", secs(&t));
        r.add("integrate.repairs", merged.repairs as f64);

        // The whole pipeline, configured as the CLI op configures it.
        let recorder = op_recorder();
        let run_config = DivaConfig { provenance: recorder.clone(), ..w.config(THREADS) };
        let (out, t) = traced(obs, "diva", "run", || Diva::new(run_config).run(&raw, &sigma));
        let out = out.map_err(|e| format!("{}: {e}", inst.input.display()))?;
        if publishing {
            r.op_s += secs(&t);
        }
        let s = &out.stats;
        r.add("diva.run_s", s.t_total.as_secs_f64());
        r.add("coloring.clustering_s", s.t_clustering.as_secs_f64());
        r.add("coloring.assignments_tried", s.coloring.assignments_tried as f64);
        r.add("coloring.backtracks", s.coloring.backtracks as f64);
        r.add("budget.nodes_explored", s.budget.as_ref().map_or(0, |b| b.nodes_explored) as f64);
        r.add("budget.degraded_runs", f64::from(u8::from(!out.outcome.is_exact())));
        let alloc = s.alloc.ok_or("the counting allocator is not installed")?;
        r.add("diva.alloc_bytes", alloc.total.bytes as f64);
        r.add("diva.stars", out.relation.star_count() as f64);
        r.stars.push(out.relation.star_count());
        r.degraded.push(!out.outcome.is_exact());

        let one_config = DivaConfig { provenance: op_recorder(), ..w.config(1) };
        let (one_thread, _) =
            traced(obs, "diva", "run_1_thread", || Diva::new(one_config).run(&raw, &sigma));
        let one_thread = one_thread.map_err(|e| format!("{}: {e}", inst.input.display()))?;
        clustering_1t += one_thread.stats.t_clustering.as_secs_f64();

        let written = dir.join(format!("i{i}.traced.csv"));
        let (res, t) = traced(obs, "relation", "write_relation", || {
            write_relation_file(&out.relation, &written)
        });
        res.map_err(|e| format!("{}: {e}", written.display()))?;
        r.add("relation.write_s", secs(&t));
        if publishing {
            r.op_s += secs(&t);
        }

        // The provenance layer needs a recorded run: the op's own when
        // it records one, else a recorded re-run.
        let recorder = if w.provenance {
            recorder
        } else {
            let recorder = Provenance::enabled();
            let config = DivaConfig { provenance: recorder.clone(), ..w.config(THREADS) };
            let (run, _) =
                traced(obs, "diva", "run_recorded", || Diva::new(config).run(&raw, &sigma));
            run.map_err(|e| format!("{}: {e}", inst.input.display()))?;
            recorder
        };
        let (log, t) = traced(obs, "provenance", "render", || recorder.render());
        let log = log.ok_or("the provenance recorder is off")?;
        r.add("provenance.render_s", secs(&t));
        r.add("provenance.bytes", log.len() as f64);
        if publishing && w.provenance {
            r.op_s += secs(&t);
        }
        let (checked, t) = traced(obs, "provenance", "parse+validate", || {
            parse_log(&log).and_then(|(parsed, _)| validate_log(&parsed))
        });
        checked?;
        r.add("provenance.parse_s", secs(&t));
        if !publishing {
            r.op_s += secs(&t);
        }

        // A re-audit reads the table the CLI published; a publisher's
        // audit re-scores the table it just published in memory.
        let audited = if publishing {
            out.relation
        } else {
            let (published, t) =
                traced(obs, "relation", "read_relation", || read_table(&inst.output));
            r.add("relation.read_s", secs(&t));
            r.op_s += secs(&t);
            published?
        };
        let gates = AuditSpec { k: Some(K), distinct_l: Some(1), ..AuditSpec::default() };
        let (suite, t) = traced(obs, "audit", "audit", || audit(&audited, &gates));
        r.add("audit.s", secs(&t));
        r.add("audit.classes", suite.n_classes as f64);
        if !publishing {
            r.op_s += secs(&t);
        }
    }
    let generated = r.values["candidates.generated"];
    r.values.insert("candidates.used_ratio", ratio(assigned, generated));
    let waste = ratio(r.values["coloring.backtracks"], r.values["coloring.assignments_tried"]);
    r.values.insert("coloring.waste_ratio", waste);
    let speedup = ratio(clustering_1t, r.values["coloring.clustering_s"]);
    r.values.insert("decompose.speedup_2t", speedup);
    Ok(r)
}

/// Combines repetitions: each measured value is its median over the
/// repetitions, each counter its (exactly repeated) value. Returns the
/// values and one message per counter that did not repeat.
pub fn summarize(reps: &[Rep]) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let mut out = BTreeMap::new();
    let mut unstable = Vec::new();
    let Some(first) = reps.first() else {
        return (out, unstable);
    };
    for (&name, &v) in &first.values {
        let all: Vec<f64> =
            reps.iter().map(|r| r.values.get(name).copied().unwrap_or(f64::NAN)).collect();
        if COUNTERS.contains(&name) {
            if all.iter().any(|x| x.to_bits() != v.to_bits()) {
                unstable.push(format!("counter {name} differs between repetitions: {all:?}"));
            }
            out.insert(name, v);
        } else {
            out.insert(name, stats::median(&all));
        }
    }
    (out, unstable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{sample, WORKLOADS};
    use diva_constraints::generators;
    use diva_relation::csv::write_relation;

    /// `w` at a sixteenth of its rows (and node budget), with inputs
    /// made in process where setup would run the CLI.
    fn smoke_inputs(w: &Spec, dir: &Path) -> Spec {
        let w = Spec {
            pool_rows: w.pool_rows / 16,
            rows: w.rows / 16,
            node_budget: w.node_budget.map(|n| n / 16),
            ..w.clone()
        };
        let pool = write_relation(&diva_datagen::medical(w.pool_rows, w.pool_seed));
        for i in 0..w.instances {
            let inst = w.instance(dir, i);
            std::fs::write(&inst.input, sample(&pool, w.rows, i as u64).expect("rows"))
                .expect("write input");
            let rel = read_table(&inst.input).expect("read input");
            let g = w.sigma;
            let sigma = if g.islands {
                generators::islands(&rel, g.count, g.per_group, g.slack, g.min_freq)
            } else {
                generators::proportional(&rel, g.count, g.slack, g.min_freq)
            };
            std::fs::write(&inst.sigma, spec::write(&sigma)).expect("write sigma");
            if w.op == Op::Reaudit {
                let recorder = Provenance::enabled();
                let config = DivaConfig { provenance: recorder.clone(), ..w.config(THREADS) };
                let out = Diva::new(config).run(&rel, &sigma).expect("publishes");
                write_relation_file(&out.relation, &inst.output).expect("write table");
                std::fs::write(&inst.provenance, recorder.render().expect("recorded"))
                    .expect("write provenance");
            }
        }
        w
    }

    #[test]
    fn smoke_run_measures_every_layer_and_repeats_its_counters() {
        let catalogue = stats::catalogue().expect("BENCHMARK.json parses");
        for w in &WORKLOADS {
            let dir = std::env::temp_dir().join(format!(
                "diva-benchmark-smoke-{}-{}",
                std::process::id(),
                w.name
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let w = smoke_inputs(w, &dir);
            let obs = Obs::enabled();
            let reps = [rep(&w, &dir, &obs).expect("first"), rep(&w, &dir, &obs).expect("second")];
            let (values, unstable) = summarize(&reps);
            assert!(unstable.is_empty(), "{}: {unstable:?}", w.name);
            assert_eq!(reps[0].stars, reps[1].stars, "{}", w.name);
            assert_eq!(reps[0].degraded, reps[1].degraded, "{}", w.name);
            assert!(reps[0].op_s > 0.0);
            // Everything but `cli.overhead_s`, which needs the CLI.
            let mut names: Vec<&str> = catalogue
                .per_layer
                .iter()
                .map(|m| m.name.as_str())
                .filter(|&n| n != "cli.overhead_s")
                .collect();
            names.sort_unstable();
            let measured: Vec<&str> = values.keys().copied().collect();
            assert_eq!(measured, names, "{}", w.name);
            let spans = obs.snapshot().spans;
            for layer in ["relation", "constraints", "graph", "candidates", "coloring", "diva"] {
                let name = format!("bench.{layer}");
                assert!(spans.iter().any(|s| s.name == name), "{}: no {name} span", w.name);
            }
            std::fs::remove_dir_all(&dir).expect("clean up");
        }
    }
}
