//! The workloads: the inputs each one makes from `--seed`, and the
//! `diva` invocations of one op.
//!
//! Every instance is a row sample of a fixed *population* — a medical
//! table from `diva generate` with a seed fixed per workload. `--seed`
//! draws which rows, and in which order. A fresh generator seed would
//! also redraw the generator's 600 latent profiles, the table's shape;
//! a sample keeps the shape, and with it the cost of an op, and still
//! gives every seed new inputs.

use std::path::{Path, PathBuf};

use diva_core::{BudgetSpec, DivaConfig, Strategy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::child;

/// Column roles of the medical table: five QIs and the diagnosis.
pub const ROLES: &str = "qi,qi,qi,qi,qi,s";
/// The privacy parameter of every workload.
pub const K: usize = 5;
/// Worker threads of every `diva` child and of the traced run (the
/// reference host has two cores).
pub const THREADS: usize = 2;

/// What one op of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `diva anonymize` on every instance.
    Publish,
    /// `diva audit` and `diva explain` on a table published in setup.
    Reaudit,
}

/// `diva sigma-gen` parameters.
#[derive(Debug, Clone, Copy)]
pub struct SigmaGen {
    /// `--class islands` instead of `--class proportional`.
    pub islands: bool,
    /// `--count`.
    pub count: usize,
    /// `--per-group` (islands only).
    pub per_group: usize,
    /// `--slack`.
    pub slack: f64,
    /// `--min-freq`.
    pub min_freq: usize,
}

impl SigmaGen {
    fn args(&self) -> Vec<String> {
        let mut args = vec![
            "--class".to_string(),
            if self.islands { "islands" } else { "proportional" }.to_string(),
            "--count".to_string(),
            self.count.to_string(),
            "--slack".to_string(),
            self.slack.to_string(),
            "--min-freq".to_string(),
            self.min_freq.to_string(),
        ];
        if self.islands {
            args.extend(["--per-group".to_string(), self.per_group.to_string()]);
        }
        args
    }
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one op runs.
    pub op: Op,
    /// Rows of the population the instances are sampled from.
    pub pool_rows: usize,
    /// `diva generate --seed` of the population.
    pub pool_seed: u64,
    /// Rows per instance.
    pub rows: usize,
    /// Instances per op.
    pub instances: usize,
    /// How Σ is generated for each instance.
    pub sigma: SigmaGen,
    /// Colouring strategy.
    pub strategy: Strategy,
    /// `--node-budget`, if any.
    pub node_budget: Option<u64>,
    /// Whether publishing records a provenance log.
    pub provenance: bool,
}

const PROPORTIONAL: SigmaGen =
    SigmaGen { islands: false, count: 5, per_group: 0, slack: 0.7, min_freq: 20 };

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "publish-64k",
        op: Op::Publish,
        pool_rows: 128_000,
        pool_seed: 7,
        rows: 64_000,
        instances: 1,
        sigma: PROPORTIONAL,
        strategy: Strategy::MaxFanOut,
        node_budget: None,
        provenance: false,
    },
    Spec {
        name: "islands-24k",
        op: Op::Publish,
        pool_rows: 48_000,
        pool_seed: 17,
        rows: 24_000,
        instances: 1,
        // Slack 0.8, not 0.7: at 0.7 one sample in 52 tried had no
        // solution, and the search work of the others varied tenfold.
        sigma: SigmaGen { islands: true, count: 12, per_group: 4, slack: 0.8, min_freq: 30 },
        strategy: Strategy::MinChoice,
        node_budget: None,
        provenance: true,
    },
    // Every sample of this population runs Basic into the node budget,
    // so each instance does the same search work; 24 of them average
    // out how much one search node costs on a given sample.
    Spec {
        name: "search-2k",
        op: Op::Publish,
        pool_rows: 16_000,
        pool_seed: 1,
        rows: 2_000,
        instances: 24,
        sigma: PROPORTIONAL,
        strategy: Strategy::Basic,
        node_budget: Some(25_000),
        provenance: false,
    },
    // Eight 8k-row samples of the publish-64k population, published in
    // setup. One 64k-row table would not do: k-member publishes either
    // about 28k or about 47k stars on such a sample, which moves the
    // cost of `explain` by 30% between seeds; 8k-row samples
    // publish within a few percent of each other.
    Spec {
        name: "reaudit-64k",
        op: Op::Reaudit,
        pool_rows: 128_000,
        pool_seed: 7,
        rows: 8_000,
        instances: 8,
        sigma: PROPORTIONAL,
        strategy: Strategy::MaxFanOut,
        node_budget: None,
        provenance: true,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The files of one instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The sampled input table.
    pub input: PathBuf,
    /// Its constraint set Σ.
    pub sigma: PathBuf,
    /// The published table.
    pub output: PathBuf,
    /// The provenance log of the publication.
    pub provenance: PathBuf,
}

/// One `diva` child of an op, with where its output streams go.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Arguments after the program name.
    pub args: Vec<String>,
    /// File receiving the child's stdout.
    pub stdout: PathBuf,
    /// File receiving the child's stderr.
    pub stderr: PathBuf,
}

/// The sample seed of instance `i` under `--seed seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64
}

/// Draws `rows` data lines of the CSV text `pool` without replacement,
/// in random order, under the header line. The medical table has no
/// quoted fields, so a line is a record.
pub fn sample(pool: &str, rows: usize, seed: u64) -> Result<String, String> {
    let mut lines = pool.lines();
    let header = lines.next().ok_or("empty population table")?;
    let body: Vec<&str> = lines.collect();
    if body.len() < rows {
        return Err(format!("population has {} rows, {rows} requested", body.len()));
    }
    let mut order: Vec<usize> = (0..body.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut out = String::with_capacity(pool.len());
    out.push_str(header);
    out.push('\n');
    for &i in &order[..rows] {
        out.push_str(body[i]);
        out.push('\n');
    }
    Ok(out)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

impl Spec {
    /// Input rows of one op.
    pub fn rows_per_op(&self) -> usize {
        self.rows * self.instances
    }

    /// The files of instance `i` under `dir`.
    pub fn instance(&self, dir: &Path, i: usize) -> Instance {
        let file = |ext: &str| dir.join(format!("i{i}.{ext}"));
        Instance {
            input: file("csv"),
            sigma: file("sigma"),
            output: file("out.csv"),
            provenance: file("prov.jsonl"),
        }
    }

    /// The configuration the CLI builds from this workload's flags.
    pub fn config(&self, threads: usize) -> DivaConfig {
        DivaConfig {
            k: K,
            strategy: self.strategy,
            threads: Some(threads),
            budget: BudgetSpec { node_budget: self.node_budget, ..BudgetSpec::default() },
            ..DivaConfig::default()
        }
    }

    fn anonymize_args(&self, inst: &Instance, provenance: bool) -> Vec<String> {
        let strategy = match self.strategy {
            Strategy::Basic => "basic",
            Strategy::MinChoice => "minchoice",
            Strategy::MaxFanOut => "maxfanout",
        };
        let mut args = strings(&["anonymize", "--input"]);
        args.push(inst.input.display().to_string());
        args.extend(strings(&["--roles", ROLES, "--constraints"]));
        args.push(inst.sigma.display().to_string());
        args.extend(strings(&["-k", &K.to_string(), "--strategy", strategy]));
        args.extend(strings(&["--threads", &THREADS.to_string(), "--output"]));
        args.push(inst.output.display().to_string());
        if let Some(n) = self.node_budget {
            args.extend(strings(&["--node-budget", &n.to_string()]));
        }
        if provenance {
            args.push("--provenance".to_string());
            args.push(inst.provenance.display().to_string());
        }
        args
    }

    /// The children of one op, in order: per instance, `anonymize` for
    /// a publishing workload, `audit` then `explain` for a re-audit.
    pub fn op_invocations(&self, dir: &Path) -> Vec<Invocation> {
        let child = |i: usize, step: &str, args: Vec<String>| Invocation {
            args,
            stdout: dir.join(format!("i{i}.{step}.out")),
            stderr: dir.join(format!("i{i}.{step}.err")),
        };
        (0..self.instances)
            .flat_map(|i| {
                let inst = self.instance(dir, i);
                match self.op {
                    Op::Publish => {
                        vec![child(i, "anonymize", self.anonymize_args(&inst, self.provenance))]
                    }
                    Op::Reaudit => {
                        let mut audit = strings(&["audit", "--input"]);
                        audit.push(inst.output.display().to_string());
                        audit.extend(strings(&["--roles", ROLES, "--k", &K.to_string()]));
                        audit.extend(strings(&["--l", "1", "--emit", "json"]));
                        let mut explain = strings(&["explain", "--provenance"]);
                        explain.push(inst.provenance.display().to_string());
                        explain.extend(strings(&["--top-costly", "--emit", "json"]));
                        vec![child(i, "audit", audit), child(i, "explain", explain)]
                    }
                }
            })
            .collect()
    }

    /// The files setup writes, which a repeated setup must reproduce
    /// byte for byte.
    pub fn inputs(&self, dir: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for i in 0..self.instances {
            let inst = self.instance(dir, i);
            files.extend([inst.input, inst.sigma]);
            if self.op == Op::Reaudit {
                files.extend([inst.output, inst.provenance]);
            }
        }
        files
    }

    /// Makes every input of the workload under `dir` from `seed`: the
    /// population, the instance samples, their Σ, and (for a
    /// re-audit) the published table and its provenance log.
    pub fn setup(&self, diva: &Path, dir: &Path, seed: u64) -> Result<(), String> {
        let pool = dir.join("pool.csv");
        let mut generate = strings(&["generate", "--dataset", "medical", "--rows"]);
        generate.extend([self.pool_rows.to_string(), "--seed".into(), self.pool_seed.to_string()]);
        generate.extend(["--output".into(), pool.display().to_string()]);
        setup_child(diva, dir, &generate)?;
        let text =
            std::fs::read_to_string(&pool).map_err(|e| format!("{}: {e}", pool.display()))?;
        for i in 0..self.instances {
            let inst = self.instance(dir, i);
            let rows = sample(&text, self.rows, instance_seed(seed, i))?;
            std::fs::write(&inst.input, rows)
                .map_err(|e| format!("{}: {e}", inst.input.display()))?;
            let mut sigma_gen = strings(&["sigma-gen", "--input"]);
            sigma_gen.push(inst.input.display().to_string());
            sigma_gen.extend(strings(&["--roles", ROLES]));
            sigma_gen.extend(self.sigma.args());
            sigma_gen.extend(["--output".into(), inst.sigma.display().to_string()]);
            setup_child(diva, dir, &sigma_gen)?;
            if self.op == Op::Reaudit {
                setup_child(diva, dir, &self.anonymize_args(&inst, true))?;
            }
        }
        Ok(())
    }
}

/// Runs one setup step, which must succeed.
fn setup_child(diva: &Path, dir: &Path, args: &[String]) -> Result<(), String> {
    let stderr = dir.join("setup.stderr");
    let (status, _) = child::run(diva, args, &dir.join("setup.stdout"), &stderr)
        .map_err(|e| format!("{}: {e}", diva.display()))?;
    if status.success() {
        return Ok(());
    }
    let why = std::fs::read_to_string(&stderr).unwrap_or_default();
    Err(format!("setup step `diva {}` failed ({status}): {}", args.join(" "), why.trim()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_seeded_draws_without_replacement() {
        let pool: String = std::iter::once("h".to_string())
            .chain((0..100).map(|i| format!("r{i}")))
            .collect::<Vec<_>>()
            .join("\n");
        let a = sample(&pool, 40, 1).expect("enough rows");
        assert_eq!(a, sample(&pool, 40, 1).expect("enough rows"), "same seed, same sample");
        assert_ne!(a, sample(&pool, 40, 2).expect("enough rows"), "another seed draws anew");
        let mut rows: Vec<&str> = a.lines().collect();
        assert_eq!(rows.remove(0), "h");
        assert_eq!(rows.len(), 40);
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), 40, "no row drawn twice");
        assert!(sample(&pool, 101, 1).is_err());
    }

    #[test]
    fn workloads_match_the_catalogue() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let catalogue = crate::stats::catalogue().expect("BENCHMARK.json parses");
        assert_eq!(names, catalogue.workloads);
        assert!(WORKLOADS.iter().all(|w| w.pool_rows >= w.rows));
    }
}
