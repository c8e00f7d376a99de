//! `benchmark` — the repository benchmark. See `README.md` beside
//! this package for the workloads, the metrics and how to read them.
//!
//! ```text
//! bash crates/bench/src/bin/benchmark/run.sh \
//!     --workload publish-64k --seed 0 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it drives the real `diva` CLI as a closed loop —
//! one client, one op in flight — on one workload for `--seconds`, and
//! prints the end-to-end metrics. With `--trace 1` it alternates CLI
//! ops with traced in-process repetitions and prints the per-layer
//! metrics. The last line of stdout is the JSON result.

mod child;
mod probe;
mod stats;
mod traced;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use diva_obs::{Obs, Stopwatch};

use crate::workload::{Invocation, Op, Spec};

/// The traced run attributes allocation to layers.
#[global_allocator]
static GLOBAL_ALLOC: diva_obs::alloc::CountingAlloc = diva_obs::alloc::CountingAlloc::new();

/// Share of the measured window spent re-running setup for the
/// `setup_s` samples.
const SETUP_SHARE: f64 = 0.2;
/// Least number of timed ops, setup samples and traced repetitions.
const MIN_SAMPLES: usize = 3;

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds N --trace 0|1 \
                     [--diva PATH (default target/release/diva)]";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    diva: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("expected a flag, found {flag:?}"))?;
        if !["workload", "seed", "seconds", "trace", "diva"].contains(&key) {
            return Err(format!("unknown flag --{key}\n{USAGE}"));
        }
        let value = it.next().ok_or(format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |key: &str| flags.get(key).copied().ok_or(format!("missing --{key}\n{USAGE}"));
    let name = get("workload")?;
    let spec = workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|_| "--seed must be a non-negative integer")?;
    let seconds = match get("seconds")?.parse::<u32>() {
        Ok(s) if s > 0 => f64::from(s),
        _ => return Err("--seconds must be a positive integer".to_string()),
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let diva = PathBuf::from(flags.get("diva").copied().unwrap_or("target/release/diva"));
    Ok(Args { spec, seed, seconds, trace, diva })
}

/// What one op cost: its wall time, each child's wall and CPU time,
/// and the largest child's peak RSS.
#[derive(Debug, Default)]
struct OpCost {
    wall_s: f64,
    child_wall_s: Vec<f64>,
    child_cpu_s: Vec<f64>,
    maxrss_mib: f64,
}

/// The lower-decile cost of one op: the p10 of each child over all
/// timed ops, summed over the op's children. On a shared host, slow
/// stretches then have to cover every run of a child to move it, not
/// just the one op that caught a whole stretch.
fn lower_decile(ops: &[OpCost], of: impl Fn(&OpCost) -> &[f64]) -> f64 {
    let children = ops.first().map_or(0, |op| of(op).len());
    (0..children)
        .map(|c| stats::percentile(&ops.iter().map(|op| of(op)[c]).collect::<Vec<_>>(), 10.0))
        .sum()
}

/// The state of one benchmark run.
struct Bench {
    spec: &'static Spec,
    diva: PathBuf,
    dir: PathBuf,
    seed: u64,
    invocations: Vec<Invocation>,
    attempted: u64,
    failed: u64,
    /// Correctness problems that are not a failed op.
    problems: Vec<String>,
    input_hash: Option<u64>,
    output_hash: Option<u64>,
    /// Stars and degraded flags per instance, from the first op.
    stars: Vec<usize>,
    degraded: Vec<bool>,
    ops: Vec<OpCost>,
    setup_s: Vec<f64>,
}

impl Bench {
    /// Makes the workload's inputs, checks they repeat byte for byte,
    /// and returns how long that took.
    fn setup(&mut self) -> Result<f64, String> {
        let clock = Stopwatch::start();
        self.spec.setup(&self.diva, &self.dir, self.seed)?;
        let secs = clock.elapsed().as_secs_f64();
        let hash = verify::hash_files(&self.spec.inputs(&self.dir))?;
        match self.input_hash {
            None => self.input_hash = Some(hash),
            Some(first) if first != hash => {
                self.problems.push("a repeated setup made different inputs".to_string());
            }
            Some(_) => {}
        }
        Ok(secs)
    }

    /// The files an op produces, which every op must reproduce.
    fn outputs(&self) -> Vec<PathBuf> {
        match self.spec.op {
            Op::Publish => (0..self.spec.instances)
                .flat_map(|i| {
                    let inst = self.spec.instance(&self.dir, i);
                    let mut files = vec![inst.output];
                    if self.spec.provenance {
                        files.push(inst.provenance);
                    }
                    files
                })
                .collect(),
            Op::Reaudit => self.invocations.iter().map(|inv| inv.stdout.clone()).collect(),
        }
    }

    /// Checks the outputs of an op whose children all succeeded: the
    /// first such op in full, every later one against its bytes.
    fn check_outputs(&mut self) -> Result<(), String> {
        let hash = verify::hash_files(&self.outputs())?;
        if let Some(first) = self.output_hash {
            return if hash == first {
                Ok(())
            } else {
                Err("outputs differ from the first op's".to_string())
            };
        }
        let (mut stars, mut degraded) = (Vec::new(), Vec::new());
        match self.spec.op {
            Op::Publish => {
                for (i, inv) in self.invocations.iter().enumerate() {
                    let d = verify::degraded(&inv.stdout)?;
                    stars.push(verify::check_published(&self.spec.instance(&self.dir, i), d)?);
                    degraded.push(d);
                }
            }
            Op::Reaudit => {
                for (i, pair) in self.invocations.chunks(2).enumerate() {
                    let [audit, explain] = pair else {
                        return Err("a re-audit runs audit, then explain".to_string());
                    };
                    let table = verify::read_table(&self.spec.instance(&self.dir, i).output)?;
                    verify::check_reaudit(&audit.stdout, &explain.stdout, table.star_count())?;
                    stars.push(table.star_count());
                    degraded.push(false);
                }
            }
        }
        (self.stars, self.degraded, self.output_hash) = (stars, degraded, Some(hash));
        Ok(())
    }

    /// Runs one op and records its cost. A failed op is counted, not
    /// returned as an error; an error means the harness itself broke.
    fn op(&mut self) -> Result<(), String> {
        self.attempted += 1;
        let clock = Stopwatch::start();
        let mut cost = OpCost::default();
        let mut ok = true;
        for inv in &self.invocations {
            let (status, usage) = child::run(&self.diva, &inv.args, &inv.stdout, &inv.stderr)
                .map_err(|e| format!("{}: {e}", self.diva.display()))?;
            cost.child_wall_s.push(usage.wall.as_secs_f64());
            cost.child_cpu_s.push(usage.cpu.as_secs_f64());
            cost.maxrss_mib = cost.maxrss_mib.max(usage.maxrss_kib as f64 / 1024.0);
            if !status.success() {
                ok = false;
                let why = std::fs::read_to_string(&inv.stderr).unwrap_or_default();
                eprintln!("op failed: diva {} ({status}): {}", inv.args.join(" "), why.trim());
            }
        }
        cost.wall_s = clock.elapsed().as_secs_f64();
        if ok {
            if let Err(e) = self.check_outputs() {
                eprintln!("op failed: {e}");
                ok = false;
            }
        }
        self.failed += u64::from(!ok);
        self.ops.push(cost);
        Ok(())
    }
}

/// Prints one metric per line for a human reader.
fn print_metrics(wanted: &[stats::Metric], values: &BTreeMap<&'static str, f64>) {
    for m in wanted {
        let value = values.get(m.name.as_str()).map_or("-".to_string(), |v| format!("{v:.6}"));
        let better = if m.higher_is_better { "higher" } else { "lower" };
        let bound = m.bound.map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        println!("  {:<32} {value:>16} {:<8} ({better} is better{bound})", m.name, m.unit);
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let args = parse_args(args)?;
    let catalogue = stats::catalogue()?;
    let spec = args.spec;
    if !catalogue.workloads.iter().any(|w| w == spec.name) {
        return Err(format!("BENCHMARK.json does not list workload {}", spec.name));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let dir = target.join("benchmark").join(spec.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut b = Bench {
        spec,
        diva: args.diva,
        invocations: spec.op_invocations(&dir),
        dir,
        seed: args.seed,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        input_hash: None,
        output_hash: None,
        stars: Vec::new(),
        degraded: Vec::new(),
        ops: Vec::new(),
        setup_s: Vec::new(),
    };
    // Cold setup and two warm-up ops (the first is checked in full)
    // stay outside the measured window.
    b.setup()?;
    b.op()?;
    b.op()?;
    b.ops.clear();

    let clock = Stopwatch::start();
    let mut reps = Vec::new();
    let obs = Obs::enabled();
    let mut setup_total = 0.0;
    let mut probes = Vec::new();
    loop {
        let elapsed = clock.elapsed().as_secs_f64();
        let enough = b.ops.len() >= MIN_SAMPLES
            && if args.trace { reps.len() >= MIN_SAMPLES } else { b.setup_s.len() >= MIN_SAMPLES };
        if enough && elapsed >= args.seconds {
            break;
        }
        b.op()?;
        if args.trace {
            reps.push(traced::rep(spec, &b.dir, &obs)?);
            continue;
        }
        if b.setup_s.len() < MIN_SAMPLES || setup_total < SETUP_SHARE * elapsed {
            let secs = b.setup()?;
            setup_total += secs;
            b.setup_s.push(secs);
        }
        probes.extend([probe::sample(), probe::sample()]);
    }

    let walls: Vec<f64> = b.ops.iter().map(|o| o.wall_s).collect();
    let wall_p10 = lower_decile(&b.ops, |op| &op.child_wall_s);
    println!(
        "{} --seed {}: {} ops ({} warm-up), {} failed, {} rows per op",
        spec.name,
        args.seed,
        b.attempted,
        b.attempted as usize - b.ops.len(),
        b.failed,
        spec.rows_per_op()
    );
    let tail = stats::tail(&walls).map_or(String::new(), |(p, v)| format!(", p{p:.0} {v:.4}"));
    println!(
        "  op wall_s over {} timed ops: p10 {:.4}, p50 {:.4}{tail}; per-child p10 sum {wall_p10:.4}",
        walls.len(),
        stats::percentile(&walls, 10.0),
        stats::median(&walls)
    );

    let (wanted, values) = if args.trace {
        let trace = b.dir.with_extension("trace.jsonl");
        std::fs::write(&trace, obs.snapshot().trace_jsonl())
            .map_err(|e| format!("{}: {e}", trace.display()))?;
        println!("  trace: {} ({} traced repetitions)", trace.display(), reps.len());
        for rep in &reps {
            if rep.stars != b.stars || rep.degraded != b.degraded {
                b.problems.push(format!(
                    "traced run published {:?} stars (degraded {:?}), the CLI {:?} ({:?})",
                    rep.stars, rep.degraded, b.stars, b.degraded
                ));
            }
        }
        let (mut values, unstable) = traced::summarize(&reps);
        b.problems.extend(unstable);
        let op_s: Vec<f64> = reps.iter().map(|r| r.op_s).collect();
        values.insert("cli.overhead_s", wall_p10 - stats::percentile(&op_s, 10.0));
        (catalogue.per_layer, values)
    } else {
        let rss: Vec<f64> = b.ops.iter().map(|o| o.maxrss_mib).collect();
        let scale = probe::scale(&probes);
        let cpu = lower_decile(&b.ops, |op| &op.child_cpu_s);
        let setup = stats::median(&b.setup_s);
        println!(
            "  measured, before scaling by {scale:.4} to reference seconds: rows_per_s {} \
             cpu_s {cpu} setup_s {setup} (median of {} setups)",
            spec.rows_per_op() as f64 / wall_p10,
            b.setup_s.len()
        );
        let values = BTreeMap::from([
            ("rows_per_s", spec.rows_per_op() as f64 / (wall_p10 * scale)),
            ("cpu_s", cpu * scale),
            ("peak_rss_mb", stats::median(&rss)),
            ("setup_s", setup * scale),
        ]);
        (catalogue.end_to_end, values)
    };
    print_metrics(&wanted, &values);
    for p in &b.problems {
        eprintln!("incorrect: {p}");
    }
    let correct = b.failed == 0 && b.problems.is_empty();
    stats::result_line(correct, b.attempted, b.failed, &wanted, &values)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
