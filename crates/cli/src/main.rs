//! `diva` — diversity-preserving k-anonymization of CSV files.
//!
//! ```text
//! diva anonymize --input patients.csv --roles qi,qi,qi,qi,qi,sensitive \
//!      --constraints sigma.txt -k 10 --strategy maxfanout --output out.csv
//! diva check     --input out.csv --roles ... --constraints sigma.txt -k 10
//! diva stats     --input out.csv --roles ... -k 10
//! diva generate  --dataset medical --rows 5000 --seed 7 --output data.csv
//! ```
//!
//! Roles are a comma-separated list matching the CSV columns:
//! `qi`, `sensitive` (or `s`), `plain` (or `i` / `insensitive`).
//! Constraint files use the `ATTR[value]: lower..upper` format of
//! `diva_constraints::spec`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use diva_anonymize::{Anonymizer, KMember, Mondrian, Oka};
use diva_constraints::{spec, Constraint, ConstraintSet};
use diva_core::{run_portfolio, BudgetSpec, Diva, DivaConfig, LVariant, Outcome, Strategy};
use diva_obs::{Obs, Stopwatch};
use diva_relation::csv::{read_relation_file, write_relation_file};
use diva_relation::{is_k_anonymous, AttrRole, Relation};

/// The CLI installs the counting allocator (feature `alloc-profile`,
/// on by default) so exports carry per-span memory attribution; build
/// with `--no-default-features` for an un-instrumented binary whose
/// exports are byte-identical minus the alloc fields.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static GLOBAL_ALLOC: diva_obs::alloc::CountingAlloc = diva_obs::alloc::CountingAlloc::new();

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 6] =
    ["quiet", "profile", "no-decompose", "watch", "stall-escalate", "top-costly"];

/// Flags that ask for an obs export or the `--profile` report.
const EXPORT_FLAGS: [&str; 4] = ["trace", "metrics", "flame", "profile"];

/// Flags that ask for live telemetry: the sampler, and with
/// `--stats-addr` the stats endpoint.
const LIVE_FLAGS: [&str; 5] =
    ["stats-addr", "watch", "sample-ms", "stall-periods", "stall-escalate"];

type Opts = HashMap<String, String>;

/// Every command: its entry point and the flags it reads besides the
/// global `--quiet`. Any other flag is an error.
struct Command {
    name: &'static str,
    run: fn(&Opts) -> Result<(), String>,
    /// Space-separated flag names.
    flags: &'static str,
}

const COMMANDS: [Command; 8] = [
    Command {
        name: "anonymize",
        run: anonymize,
        flags: "input roles constraints k strategy algo l l-variant l-c portfolio threads \
                no-decompose component-portfolio provenance trace metrics flame profile \
                deadline-ms node-budget repair-budget stats-addr watch sample-ms stall-periods \
                stall-escalate seed output",
    },
    Command {
        name: "audit",
        run: audit_cmd,
        flags: "input roles emit output k l entropy-l recursive-c recursive-l alpha beta \
                enhanced-beta delta t trace metrics flame profile",
    },
    Command {
        name: "explain",
        run: explain,
        flags: "provenance input roles constraints k seed row constraint top-costly emit output",
    },
    Command { name: "check", run: check, flags: "input roles constraints k" },
    Command { name: "stats", run: stats, flags: "input roles k" },
    Command { name: "generate", run: generate, flags: "dataset rows dist seed output" },
    Command {
        name: "sigma-gen",
        run: sigma_gen,
        flags: "input roles class count slack min-freq per-group output",
    },
    Command { name: "compare", run: compare, flags: "input roles constraints k seed" },
];

impl Command {
    /// Whether this command reads `--flag`.
    fn reads(&self, flag: &str) -> bool {
        flag == "quiet" || self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// Routes the human-readable report lines. `--quiet` drops them so
/// the process's observable outputs are exactly its files (output CSV,
/// `--trace`, `--metrics`) and its exit code — trace capture composes
/// with scripting without stdout noise.
struct Reporter {
    quiet: bool,
}

impl Reporter {
    fn new(opts: &Opts) -> Self {
        Self { quiet: opts.contains_key("quiet") }
    }

    /// Prints one report line unless `--quiet` was given.
    fn line(&self, msg: std::fmt::Arguments<'_>) {
        if !self.quiet {
            println!("{msg}");
        }
    }
}

/// `reporter.line(format_args!(...))` with `println!` ergonomics.
macro_rules! report {
    ($r:expr, $($arg:tt)*) => { $r.line(format_args!($($arg)*)) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown command {name:?}\n{}", usage()));
    };
    (command.run)(&parse_flags(command, &args[1..])?)
}

fn usage() -> String {
    "usage: diva <anonymize|audit|explain|check|stats|generate|sigma-gen|compare> [flags]\n\
     \n\
     anonymize  --input FILE --roles LIST --constraints FILE -k N \\\n\
     \u{20}          [--strategy basic|minchoice|maxfanout] [--algo kmember|oka|mondrian]\n\
     \u{20}          [--l N  l-diversity requirement, default 1 = off]\n\
     \u{20}          [--l-variant distinct|entropy|recursive  how --l is enforced,\n\
     \u{20}           default distinct; recursive reads its c from --l-c (default 1.0)]\n\
     \u{20}          [--l-c F  the c of recursive (c,l)-diversity]\n\
     \u{20}          [--portfolio N  race all strategies × N seeds, first win returns]\n\
     \u{20}          [--threads N  worker cap for --portfolio and the component pool]\n\
     \u{20}          [--no-decompose  force the monolithic solve (no component parallelism)]\n\
     \u{20}          [--component-portfolio N  race all strategies on components of ≥ N nodes]\n\
     \u{20}          [--provenance FILE  write the decision-provenance log (json-lines):\n\
     \u{20}           one record per published group and per starred cell, plus the\n\
     \u{20}           per-constraint star attribution]\n\
     \u{20}          [--trace FILE  write a JSON-lines span trace of the run]\n\
     \u{20}          [--metrics FILE  write the aggregated metrics summary JSON]\n\
     \u{20}          [--flame FILE  write collapsed stacks (self-time weighted) for flamegraphs]\n\
     \u{20}          [--profile  print self-time / critical-path / allocation report lines]\n\
     \u{20}          [--deadline-ms N  wall-clock budget; exceeding it degrades gracefully]\n\
     \u{20}          [--node-budget N  cap on explored search nodes before degrading]\n\
     \u{20}          [--repair-budget N  cap on repair attempts before degrading]\n\
     \u{20}          [--stats-addr HOST:PORT  serve live progress over HTTP (/metrics\n\
     \u{20}           Prometheus text, /stats.json summary schema); port 0 picks a free\n\
     \u{20}           port, announced on stderr]\n\
     \u{20}          [--watch  print one live progress line per sample to stderr]\n\
     \u{20}          [--sample-ms N  live sampling interval, default 100]\n\
     \u{20}          [--stall-periods N  idle samples before the stall watchdog trips,\n\
     \u{20}           default 5]\n\
     \u{20}          [--stall-escalate  a detected stall degrades the run gracefully]\n\
     \u{20}          [--seed N] --output FILE\n\
     audit      --input FILE --roles LIST [--emit json|table] [--output FILE] \\\n\
     \u{20}          [--k N] [--l N  distinct] [--entropy-l F] \\\n\
     \u{20}          [--recursive-c F] [--recursive-l N  tail index, default 2] \\\n\
     \u{20}          [--alpha F] [--beta F] [--enhanced-beta F] [--delta F] [--t F] \\\n\
     \u{20}          [--trace FILE] [--metrics FILE] [--flame FILE] [--profile]\n\
     \u{20}          scores the table on all nine privacy models; each given\n\
     \u{20}          parameter becomes a pass/fail gate (non-zero exit on failure)\n\
     explain    (--provenance FILE | --input FILE --roles LIST --constraints FILE -k N \\\n\
     \u{20}           [--seed N]) (--row N | --constraint ID-or-LABEL | --top-costly) \\\n\
     \u{20}          [--emit json|table] [--output FILE]\n\
     \u{20}          answers provenance queries — which decision starred a row's cells,\n\
     \u{20}          what one constraint cost, the costliest constraints — against a\n\
     \u{20}          saved --provenance file or a fresh run\n\
     check      --input FILE --roles LIST --constraints FILE -k N\n\
     stats      --input FILE --roles LIST -k N\n\
     generate   --dataset medical|pantheon|census|credit|popsyn --rows N \\\n\
     \u{20}          [--dist uniform|zipf|gaussian] [--seed N] --output FILE\n\
     sigma-gen  --input FILE --roles LIST --class proportional|minfreq|average|islands \\\n\
     \u{20}          --count N [--slack F] [--min-freq N] \\\n\
     \u{20}          [--per-group N  islands: constraints per family, default 3] --output FILE\n\
     compare    --input FILE --roles LIST --constraints FILE -k N [--seed N]\n\
     \n\
     global:    --quiet  suppress the human-readable report lines; any flag a\n\
     \u{20}          command does not read is an error"
        .to_string()
}

/// Parses `command`'s flags, rejecting any it does not read.
fn parse_flags(command: &Command, args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .or_else(|| args[i].strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, found {:?}", args[i]))?;
        if !command.reads(key) {
            return Err(format!("{} does not read --{key}; see `diva help`", command.name));
        }
        if BOOLEAN_FLAGS.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("flag --{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

/// Builds the one obs handle of a command: enabled iff an export or
/// the `--profile` report ([`EXPORT_FLAGS`]) or live telemetry
/// ([`LIVE_FLAGS`]) is asked for. A disabled handle records nothing
/// and keeps output byte-identical.
fn obs_for(opts: &Opts) -> Obs {
    if EXPORT_FLAGS.iter().chain(&LIVE_FLAGS).any(|f| opts.contains_key(*f)) {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Writes the requested `--trace` (JSON-lines spans), `--metrics`
/// (aggregated summary), and `--flame` (collapsed stacks) exports
/// from `obs`.
fn write_exports(opts: &Opts, obs: &Obs) -> Result<(), String> {
    if !obs.is_enabled() {
        return Ok(());
    }
    let snap = obs.snapshot();
    if let Some(path) = opts.get("trace") {
        std::fs::write(path, snap.trace_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = opts.get("metrics") {
        std::fs::write(path, snap.summary_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = opts.get("flame") {
        std::fs::write(path, snap.folded_stacks()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Human-readable byte count for the `--profile` report.
fn fmt_bytes(b: u64) -> String {
    if b >= 1_048_576 {
        format!("{:.1} MiB", b as f64 / 1_048_576.0)
    } else if b >= 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Prints the `--profile` analysis over a finished run's snapshot:
/// top spans by self-time, the critical path, and allocation totals
/// (the last only when the counting allocator attributed memory —
/// i.e. the default `alloc-profile` build).
fn profile_report(reporter: &Reporter, obs: &Obs) {
    let snap = obs.snapshot();
    let mut summaries = snap.span_summaries();
    summaries.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    let top: Vec<String> = summaries
        .iter()
        .filter(|s| s.self_us > 0)
        .take(5)
        .map(|s| format!("{} {:.3}s", s.name, s.self_us as f64 / 1e6))
        .collect();
    report!(reporter, "profile: self-time top: {}", top.join(", "));
    let path = snap.critical_path();
    let hops: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
    report!(reporter, "profile: critical path: {}", hops.join(" -> "));
    if let Some(total) = summaries.iter().find(|s| s.name == "diva.run").and_then(|s| s.alloc_bytes)
    {
        let phases: Vec<String> = summaries
            .iter()
            .filter(|s| s.name.starts_with("diva.") && s.name != "diva.run")
            .filter_map(|s| s.alloc_bytes.map(|b| format!("{} {}", s.name, fmt_bytes(b))))
            .collect();
        report!(reporter, "profile: alloc: diva.run {} ({})", fmt_bytes(total), phases.join(", "));
    }
}

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn parse_roles(list: &str) -> Result<Vec<AttrRole>, String> {
    list.split(',')
        .map(|r| match r.trim().to_ascii_lowercase().as_str() {
            "qi" | "q" => Ok(AttrRole::Quasi),
            "sensitive" | "s" => Ok(AttrRole::Sensitive),
            "plain" | "i" | "insensitive" => Ok(AttrRole::Insensitive),
            other => Err(format!("unknown role {other:?} (use qi/sensitive/plain)")),
        })
        .collect()
}

fn load_input(opts: &Opts) -> Result<Relation, String> {
    let input = req(opts, "input")?;
    let roles = parse_roles(req(opts, "roles")?)?;
    read_relation_file(Path::new(input), &roles).map_err(|e| format!("{input}: {e}"))
}

fn load_constraints(opts: &Opts) -> Result<Vec<Constraint>, String> {
    let path = req(opts, "constraints")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    spec::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_k(opts: &Opts) -> Result<usize, String> {
    req(opts, "k")?.parse().map_err(|_| "k must be a positive integer".to_string())
}

/// `--key` parsed as a `T`, if given; `what` names the accepted values
/// in the error.
fn opt<T: std::str::FromStr>(opts: &Opts, key: &str, what: &str) -> Result<Option<T>, String> {
    opts.get(key).map(|v| v.parse().map_err(|_| format!("--{key} must be {what}"))).transpose()
}

/// A positive integer `--key`, if given.
fn opt_positive<T: std::str::FromStr + Default + PartialEq>(
    opts: &Opts,
    key: &str,
) -> Result<Option<T>, String> {
    match opt(opts, key, "a positive integer")? {
        Some(n) if n == T::default() => Err(format!("--{key} must be a positive integer")),
        n => Ok(n),
    }
}

/// A finite-number `--key`, if given.
fn opt_f64(opts: &Opts, key: &str) -> Result<Option<f64>, String> {
    match opt::<f64>(opts, key, "a finite number")? {
        Some(x) if !x.is_finite() => Err(format!("--{key} must be a finite number")),
        x => Ok(x),
    }
}

/// `--seed`, defaulting to [`DivaConfig`]'s seed.
fn parse_seed(opts: &Opts) -> Result<u64, String> {
    Ok(opt(opts, "seed", "a non-negative integer")?.unwrap_or(DivaConfig::default().seed))
}

/// Assembles the resource budget from `--deadline-ms`, `--node-budget`
/// and `--repair-budget`. All three default to unlimited, preserving
/// the exact-search behaviour when none are given.
fn parse_budget(opts: &Opts) -> Result<BudgetSpec, String> {
    let count = |key| opt(opts, key, "a non-negative integer");
    Ok(BudgetSpec {
        deadline: count("deadline-ms")?.map(std::time::Duration::from_millis),
        node_budget: count("node-budget")?,
        repair_budget: count("repair-budget")?,
    })
}

/// Running live-telemetry machinery for one `anonymize` invocation:
/// the sampler thread plus, when `--stats-addr` was given, the TCP
/// stats endpoint. [`LiveTelemetry::stop`] joins both.
struct LiveTelemetry {
    sampler: diva_obs::live::Sampler,
    server: Option<diva_obs::serve::StatsServer>,
}

impl LiveTelemetry {
    /// Shuts the endpoint first (so no scrape observes a dead
    /// sampler), then stops the sampler thread.
    fn stop(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.sampler.stop();
    }
}

/// Parses the live-telemetry flags, spawns the sampler (with a
/// `--watch` stderr callback when asked), and binds the
/// `--stats-addr` endpoint. The resolved listen address goes to
/// stderr — even under `--quiet` — so scripts can bind port 0 and
/// discover the real port without racing for one themselves.
fn start_live_telemetry(opts: &Opts, obs: &Obs) -> Result<LiveTelemetry, String> {
    let config = diva_obs::live::SamplerConfig {
        interval: std::time::Duration::from_millis(opt_positive(opts, "sample-ms")?.unwrap_or(100)),
        stall_periods: opt_positive(opts, "stall-periods")?.unwrap_or(5),
        escalate: opts.contains_key("stall-escalate"),
        ..diva_obs::live::SamplerConfig::default()
    };
    let on_sample: Option<diva_obs::live::OnSample> = if opts.contains_key("watch") {
        Some(Box::new(|sample| eprintln!("{}", sample.watch_line())))
    } else {
        None
    };
    let sampler = diva_obs::live::Sampler::spawn(obs, config, on_sample);
    let server = opts
        .get("stats-addr")
        .map(|addr| {
            diva_obs::serve::StatsServer::bind(addr, obs.clone(), sampler.log())
                .map_err(|e| format!("--stats-addr {addr}: {e}"))
        })
        .transpose()?;
    if let Some(server) = &server {
        eprintln!("stats endpoint listening on {}", server.local_addr());
    }
    Ok(LiveTelemetry { sampler, server })
}

fn anonymize(opts: &Opts) -> Result<(), String> {
    let reporter = Reporter::new(opts);
    let rel = load_input(opts)?;
    let sigma = load_constraints(opts)?;
    let k = parse_k(opts)?;
    let output = PathBuf::from(req(opts, "output")?);
    let strategy = match opts.get("strategy").map(String::as_str) {
        None | Some("maxfanout") => Strategy::MaxFanOut,
        Some("minchoice") => Strategy::MinChoice,
        Some("basic") => Strategy::Basic,
        Some(other) => return Err(format!("unknown strategy {other:?}")),
    };
    let seed = parse_seed(opts)?;
    let l_diversity = opt(opts, "l", "a positive integer")?.unwrap_or(1);
    let l_variant = match opts.get("l-variant").map(String::as_str) {
        None | Some("distinct") => LVariant::Distinct,
        Some("entropy") => LVariant::Entropy,
        Some("recursive") => LVariant::Recursive { c: opt_f64(opts, "l-c")?.unwrap_or(1.0) },
        Some(other) => {
            return Err(format!("unknown --l-variant {other:?} (use distinct|entropy|recursive)"))
        }
    };
    if opts.contains_key("l-c") && !matches!(l_variant, LVariant::Recursive { .. }) {
        return Err("--l-c only applies with --l-variant recursive".to_string());
    }
    let threads = opt_positive(opts, "threads")?;
    let budget = parse_budget(opts)?;
    let component_portfolio = opt_positive(opts, "component-portfolio")?;
    let obs = obs_for(opts);
    let provenance = if opts.contains_key("provenance") {
        diva_obs::Provenance::enabled()
    } else {
        diva_obs::Provenance::disabled()
    };
    let live = if LIVE_FLAGS.iter().any(|f| opts.contains_key(*f)) {
        Some(start_live_telemetry(opts, &obs)?)
    } else {
        None
    };
    let config = DivaConfig {
        k,
        strategy,
        seed,
        l_diversity,
        l_variant,
        threads,
        budget,
        decompose: !opts.contains_key("no-decompose"),
        component_portfolio,
        obs: obs.clone(),
        provenance: provenance.clone(),
        ..DivaConfig::default()
    };
    let portfolio = opt(opts, "portfolio", "a positive integer")?;
    let result = if let Some(seeds_per_strategy) = portfolio {
        if opts.contains_key("algo") {
            return Err("--portfolio races the default anonymizer; drop --algo".to_string());
        }
        run_portfolio(&rel, &sigma, &config, seeds_per_strategy)
    } else {
        let anonymizer: Box<dyn Anonymizer + Send + Sync> =
            match opts.get("algo").map(String::as_str) {
                None | Some("kmember") => Box::new(KMember { seed, ..KMember::default() }),
                Some("oka") => Box::new(Oka { seed, ..Oka::default() }),
                Some("mondrian") => Box::new(Mondrian),
                Some(other) => return Err(format!("unknown algorithm {other:?}")),
            };
        Diva::with_anonymizer(config, anonymizer).run(&rel, &sigma)
    };
    // Publish the star attribution before the endpoint goes down, so
    // a final scrape (and the --metrics file) carries
    // `diva_constraint_stars` / `provenance.constraint_stars.*`.
    obs.publish_attribution(&provenance);
    // Tear down the endpoint and sampler before reporting so the last
    // watch line lands above the summary and no scrape can observe a
    // half-written export.
    if let Some(live) = live {
        live.stop();
    }
    // Exports are written even on failure: the partial trace is
    // exactly what explains an aborted or infeasible search.
    write_exports(opts, &obs)?;
    if let (Some(path), Some(text)) = (opts.get("provenance"), provenance.render()) {
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.contains_key("profile") {
        profile_report(&reporter, &obs);
    }
    let out = result.map_err(|e| e.to_string())?;
    write_relation_file(&out.relation, &output).map_err(|e| e.to_string())?;
    if let Outcome::Degraded { reason } = &out.outcome {
        report!(reporter, "degraded: {reason}");
    }
    report!(
        reporter,
        "wrote {} ({} rows, {} ★, accuracy {:.3}, {} groups, {:?})",
        output.display(),
        out.relation.n_rows(),
        out.relation.star_count(),
        diva_metrics::star_accuracy(&out.relation),
        out.groups.len(),
        out.stats.t_total,
    );
    for (path, what) in [
        ("trace", "span trace (json-lines)"),
        ("metrics", "metrics summary (json)"),
        ("flame", "collapsed flamegraph stacks (folded)"),
        ("provenance", "decision provenance (json-lines)"),
    ] {
        if let Some(p) = opts.get(path) {
            report!(reporter, "wrote {p} ({what})");
        }
    }
    Ok(())
}

/// `diva audit` — scores an arbitrary CSV against the privacy-model
/// zoo. All nine checkers always run; each parameter flag that was
/// given additionally becomes a pass/fail gate, and any violation
/// makes the command exit non-zero (after emitting the full report,
/// which is the diagnostic).
fn audit_cmd(opts: &Opts) -> Result<(), String> {
    let rel = load_input(opts)?;
    let spec = diva_metrics::AuditSpec {
        k: opt(opts, "k", "a positive integer")?,
        distinct_l: opt(opts, "l", "a positive integer")?,
        entropy_l: opt_f64(opts, "entropy-l")?,
        recursive_c: opt_f64(opts, "recursive-c")?,
        recursive_l: opt(opts, "recursive-l", "a positive integer")?.unwrap_or(2),
        alpha: opt_f64(opts, "alpha")?,
        basic_beta: opt_f64(opts, "beta")?,
        enhanced_beta: opt_f64(opts, "enhanced-beta")?,
        delta: opt_f64(opts, "delta")?,
        t: opt_f64(opts, "t")?,
    };
    let obs = obs_for(opts);
    let suite = diva_metrics::audit_with_obs(&rel, &spec, &obs);
    let emission = match opts.get("emit").map(String::as_str) {
        None | Some("table") => suite.render_table(),
        Some("json") => suite.to_json(),
        Some(other) => return Err(format!("unknown --emit format {other:?} (use json|table)")),
    };
    match opts.get("output") {
        Some(path) => std::fs::write(path, &emission).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{emission}"),
    }
    write_exports(opts, &obs)?;
    if suite.satisfied() {
        Ok(())
    } else {
        Err("published table fails the requested privacy guarantees".to_string())
    }
}

/// `diva explain` — answers decision-provenance queries: which
/// decision starred a row's cells (`--row`), what one constraint cost
/// (`--constraint`), and the costliest constraints (`--top-costly`).
/// The log comes from a saved `--provenance` file (validated on load)
/// or from a fresh recorded run over `--input`/`--constraints`/`-k`.
fn explain(opts: &Opts) -> Result<(), String> {
    let log = explain_log(opts)?;
    let n_queries = usize::from(opts.contains_key("row"))
        + usize::from(opts.contains_key("constraint"))
        + usize::from(opts.contains_key("top-costly"));
    if n_queries != 1 {
        return Err("explain needs exactly one query: --row N, --constraint ID, or --top-costly"
            .to_string());
    }
    let json = match opts.get("emit").map(String::as_str) {
        None | Some("table") => false,
        Some("json") => true,
        Some(other) => return Err(format!("unknown --emit format {other:?} (use json|table)")),
    };
    let emission = if let Some(row) = opts.get("row") {
        let row: u64 =
            row.parse().map_err(|_| "--row must be a non-negative row id".to_string())?;
        explain_row(&log, row, json)?
    } else if let Some(id) = opts.get("constraint") {
        explain_constraint(&log, resolve_constraint(&log, id)?, json)
    } else {
        explain_top_costly(&log, json)
    };
    match opts.get("output") {
        Some(path) => std::fs::write(path, &emission).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{emission}"),
    }
    Ok(())
}

/// Loads the provenance log for `explain`: a saved `--provenance` file
/// when given (parsed and integrity-checked), else a fresh recorded run.
fn explain_log(opts: &Opts) -> Result<diva_obs::provenance::Log, String> {
    if let Some(path) = opts.get("provenance") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (log, _) =
            diva_obs::provenance::parse_log(&text).map_err(|e| format!("{path}: {e}"))?;
        diva_obs::provenance::validate_log(&log).map_err(|e| format!("{path}: {e}"))?;
        Ok(log)
    } else {
        let rel = load_input(opts)?;
        let sigma = load_constraints(opts)?;
        let provenance = diva_obs::Provenance::enabled();
        let config = DivaConfig {
            k: parse_k(opts)?,
            seed: parse_seed(opts)?,
            provenance: provenance.clone(),
            ..DivaConfig::default()
        };
        Diva::new(config).run(&rel, &sigma).map_err(|e| e.to_string())?;
        provenance.snapshot().ok_or_else(|| "recorder produced no log".to_string())
    }
}

/// Resolves `--constraint` as a numeric id or an exact label.
fn resolve_constraint(log: &diva_obs::provenance::Log, id: &str) -> Result<usize, String> {
    if let Ok(i) = id.parse::<usize>() {
        return if i < log.labels.len() {
            Ok(i)
        } else {
            Err(format!("constraint {i} out of range (log has {})", log.labels.len()))
        };
    }
    log.labels
        .iter()
        .position(|l| l == id)
        .ok_or_else(|| format!("no constraint labeled {id:?} in the provenance log"))
}

/// Human rendering of one [`Cause`], naming the cited constraint.
fn cause_text(cause: &diva_obs::provenance::Cause, labels: &[String]) -> String {
    use diva_obs::provenance::Cause;
    let label = |c: u32| labels.get(c as usize).map(String::as_str).unwrap_or("?");
    match cause {
        Cause::Sigma { constraint } => {
            format!("sigma constraint {constraint} ({})", label(*constraint))
        }
        Cause::KAnonymity => "k-anonymity (no owning constraint)".to_string(),
        Cause::Repair { constraint, round } => format!(
            "integrate repair round {round} of constraint {constraint} ({})",
            label(*constraint)
        ),
        Cause::Voided { constraint } => {
            format!("constraint {constraint} voided under budget ({})", label(*constraint))
        }
        Cause::DegradeMerge { reason } => format!("degrade merge ({reason})"),
    }
}

/// The cause-specific JSON fields of one cell, in the fixed key order
/// `constraint`, `round`, `reason`, `label` (only those that apply).
fn cause_json_fields(cause: &diva_obs::provenance::Cause, labels: &[String]) -> String {
    use diva_obs::provenance::Cause;
    let label =
        |c: u32| diva_obs::json::escape(labels.get(c as usize).map(String::as_str).unwrap_or("?"));
    match cause {
        Cause::Sigma { constraint } | Cause::Voided { constraint } => {
            format!(",\"constraint\":{constraint},\"label\":\"{}\"", label(*constraint))
        }
        Cause::Repair { constraint, round } => format!(
            ",\"constraint\":{constraint},\"round\":{round},\"label\":\"{}\"",
            label(*constraint)
        ),
        Cause::DegradeMerge { reason } => {
            format!(",\"reason\":\"{}\"", diva_obs::json::escape(reason))
        }
        Cause::KAnonymity => String::new(),
    }
}

/// `--row N`: every starred cell of source row `N` with its causal chain.
fn explain_row(log: &diva_obs::provenance::Log, row: u64, json: bool) -> Result<String, String> {
    if row >= log.n_rows {
        return Err(format!("row {row} out of range (log covers {} rows)", log.n_rows));
    }
    let cells: Vec<_> = log.cells.iter().filter(|c| c.row == row).collect();
    if json {
        let mut out = format!("{{\"query\":\"row\",\"row\":{row},\"cells\":[");
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let origin = log.groups.get(c.group as usize).map(|g| g.origin.name()).unwrap_or("?");
            out.push_str(&format!(
                "{{\"col\":{},\"group\":{},\"origin\":\"{origin}\",\"cause\":\"{}\"{}}}",
                c.col,
                c.group,
                c.cause.kind(),
                cause_json_fields(&c.cause, &log.labels)
            ));
        }
        out.push_str("]}\n");
        return Ok(out);
    }
    let mut out = format!(
        "row {row}: {} starred cell{}\n",
        cells.len(),
        if cells.len() == 1 { "" } else { "s" }
    );
    for c in &cells {
        let group = log.groups.get(c.group as usize);
        let origin = group.map(|g| g.origin.name()).unwrap_or("?");
        let size = group.map(|g| g.rows.len()).unwrap_or(0);
        out.push_str(&format!(
            "  col {:<3} group {:<4} ({origin}, {size} rows)  {}\n",
            c.col,
            c.group,
            cause_text(&c.cause, &log.labels)
        ));
    }
    Ok(out)
}

/// `--constraint ID`: the utility one constraint cost — stars charged,
/// causes, owned groups, distinct rows touched.
fn explain_constraint(log: &diva_obs::provenance::Log, ci: usize, json: bool) -> String {
    use diva_obs::provenance::Cause;
    let cid = ci as u32;
    let (mut sigma, mut repair, mut voided) = (0u64, 0u64, 0u64);
    let mut rows: Vec<u64> = Vec::new();
    for c in &log.cells {
        match &c.cause {
            Cause::Sigma { constraint } if *constraint == cid => sigma += 1,
            Cause::Repair { constraint, .. } if *constraint == cid => repair += 1,
            Cause::Voided { constraint } if *constraint == cid => voided += 1,
            _ => continue,
        }
        rows.push(c.row);
    }
    rows.sort_unstable();
    rows.dedup();
    let owned: Vec<u64> =
        log.groups.iter().filter(|g| g.owners.contains(&cid)).map(|g| g.id).collect();
    let stars = sigma + repair + voided;
    let label = log.labels.get(ci).map(String::as_str).unwrap_or("?");
    if json {
        let ids = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        return format!(
            "{{\"query\":\"constraint\",\"constraint\":{ci},\"label\":\"{}\",\"stars\":{stars},\
             \"by_cause\":{{\"sigma\":{sigma},\"repair\":{repair},\"voided\":{voided}}},\
             \"owned_groups\":[{}],\"rows_touched\":{}}}\n",
            diva_obs::json::escape(label),
            ids(&owned),
            rows.len()
        );
    }
    let mut out = format!("constraint {ci} ({label}): {stars} stars attributed\n");
    out.push_str(&format!("  by cause: sigma {sigma}, repair {repair}, voided {voided}\n"));
    out.push_str(&format!(
        "  owned groups: {} ({})\n",
        owned.len(),
        owned.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
    ));
    out.push_str(&format!("  rows touched: {}\n", rows.len()));
    out
}

/// `--top-costly`: every constraint ranked by attributed stars
/// (descending, ties by id), plus the k-anonymity/degrade buckets.
fn explain_top_costly(log: &diva_obs::provenance::Log, json: bool) -> String {
    let attr = diva_obs::StarAttribution::from_log(log);
    let mut ranked: Vec<(usize, u64)> = attr.per_constraint.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total = attr.total();
    if json {
        let mut out = format!("{{\"query\":\"top_costly\",\"total\":{total},\"constraints\":[");
        for (i, (ci, stars)) in ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let label = log.labels.get(*ci).map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "{{\"constraint\":{ci},\"label\":\"{}\",\"stars\":{stars}}}",
                diva_obs::json::escape(label)
            ));
        }
        out.push_str(&format!(
            "],\"k_anonymity\":{},\"degrade\":{}}}\n",
            attr.k_anonymity, attr.degrade
        ));
        return out;
    }
    let mut out =
        format!("star attribution: {total} stars over {} constraints\n", log.labels.len());
    out.push_str(&format!(
        "{:<6} {:<12} {:>7}  {:>6}  label\n",
        "rank", "constraint", "stars", "share"
    ));
    for (rank, (ci, stars)) in ranked.iter().enumerate() {
        let share = if total > 0 { *stars as f64 * 100.0 / total as f64 } else { 0.0 };
        let label = log.labels.get(*ci).map(String::as_str).unwrap_or("?");
        out.push_str(&format!("{:<6} {ci:<12} {stars:>7}  {share:>5.1}%  {label}\n", rank + 1));
    }
    out.push_str(&format!("k-anonymity: {} stars\n", attr.k_anonymity));
    out.push_str(&format!("degrade:     {} stars\n", attr.degrade));
    out
}

fn check(opts: &Opts) -> Result<(), String> {
    let reporter = Reporter::new(opts);
    let rel = load_input(opts)?;
    let sigma = load_constraints(opts)?;
    let k = parse_k(opts)?;
    let set = ConstraintSet::bind(&sigma, &rel).map_err(|e| e.to_string())?;
    let anon = is_k_anonymous(&rel, k);
    report!(reporter, "k-anonymous (k={k}): {}", if anon { "yes" } else { "NO" });
    let violations = set.violations(&rel);
    if violations.is_empty() {
        report!(reporter, "diversity constraints: all {} satisfied", set.len());
    } else {
        for &i in &violations {
            let c = &set.constraints()[i];
            report!(
                reporter,
                "VIOLATED {} — {} occurrences outside [{}, {}]",
                c.label(),
                c.count_in(&rel),
                c.lower,
                c.upper
            );
        }
    }
    if anon && violations.is_empty() {
        Ok(())
    } else {
        Err("input fails the requested guarantees".to_string())
    }
}

fn stats(opts: &Opts) -> Result<(), String> {
    let reporter = Reporter::new(opts);
    let rel = load_input(opts)?;
    let k = parse_k(opts)?;
    let s = diva_metrics::GroupStats::of(&rel);
    report!(reporter, "{s}");
    report!(reporter, "star accuracy:        {:.4}", diva_metrics::star_accuracy(&rel));
    report!(reporter, "discernibility:       {}", diva_metrics::discernibility(&rel, k));
    report!(reporter, "disc accuracy (ratio): {:.4}", diva_metrics::disc_accuracy_ratio(&rel, k));
    report!(reporter, "distinct QI projections: {}", rel.distinct_qi_projections());
    Ok(())
}

/// Runs every algorithm on the input and prints a comparison table:
/// the two guided DIVA strategies and the three plain baselines.
fn compare(opts: &Opts) -> Result<(), String> {
    use diva_core::Strategy;
    let reporter = Reporter::new(opts);
    let rel = load_input(opts)?;
    let sigma = load_constraints(opts)?;
    let k = parse_k(opts)?;
    let seed = parse_seed(opts)?;
    report!(
        reporter,
        "{:<16} {:>9} {:>9} {:>8} {:>8} {:>7}",
        "algorithm",
        "time(s)",
        "stars",
        "acc",
        "disc",
        "sigma"
    );
    let row = |name: &str, t: f64, rel_out: Option<&diva_relation::Relation>| match rel_out {
        Some(r) => {
            let sat = ConstraintSet::bind(&sigma, r).map(|s| s.satisfied_by(r)).unwrap_or(false);
            report!(
                reporter,
                "{:<16} {:>9.3} {:>9} {:>8.3} {:>8.3} {:>7}",
                name,
                t,
                r.star_count(),
                diva_metrics::star_accuracy(r),
                diva_metrics::disc_accuracy_ratio(r, k),
                if sat { "yes" } else { "NO" }
            );
        }
        None => {
            report!(reporter, "{name:<16} {t:>9.3} {:>9} {:>8} {:>8} {:>7}", "-", "-", "-", "-");
        }
    };
    for strategy in [Strategy::MinChoice, Strategy::MaxFanOut] {
        let config = DivaConfig { k, strategy, seed, ..DivaConfig::default() };
        let sw = Stopwatch::start();
        let res = Diva::new(config).run(&rel, &sigma);
        let secs = sw.elapsed().as_secs_f64();
        row(&format!("DIVA-{}", strategy.name()), secs, res.as_ref().ok().map(|o| &o.relation));
    }
    let baselines: Vec<Box<dyn Anonymizer>> = vec![
        Box::new(KMember { seed, ..KMember::default() }),
        Box::new(Oka { seed, ..Oka::default() }),
        Box::new(Mondrian),
    ];
    for algo in baselines {
        let sw = Stopwatch::start();
        let out = algo.anonymize(&rel, k);
        row(algo.name(), sw.elapsed().as_secs_f64(), Some(&out.relation));
    }
    Ok(())
}

fn sigma_gen(opts: &Opts) -> Result<(), String> {
    let rel = load_input(opts)?;
    let count: usize =
        req(opts, "count")?.parse().map_err(|_| "count must be a positive integer".to_string())?;
    let slack = opt(opts, "slack", "a number")?.unwrap_or(0.5);
    let min_freq = opt(opts, "min-freq", "an integer")?.unwrap_or(20);
    let output = PathBuf::from(req(opts, "output")?);
    let sigma = match req(opts, "class")? {
        "proportional" => diva_constraints::generators::proportional(&rel, count, slack, min_freq),
        "minfreq" => diva_constraints::generators::min_frequency(&rel, count, slack, min_freq),
        "average" => diva_constraints::generators::average(&rel, count, slack, min_freq),
        "islands" => {
            let per_group = opt(opts, "per-group", "an integer")?.unwrap_or(3);
            diva_constraints::generators::islands(&rel, count, per_group, slack, min_freq)
        }
        other => return Err(format!("unknown constraint class {other:?}")),
    };
    std::fs::write(&output, spec::write(&sigma)).map_err(|e| e.to_string())?;
    let reporter = Reporter::new(opts);
    report!(reporter, "wrote {} ({} constraints)", output.display(), sigma.len());
    Ok(())
}

fn generate(opts: &Opts) -> Result<(), String> {
    let dataset = req(opts, "dataset")?;
    let rows: usize =
        req(opts, "rows")?.parse().map_err(|_| "rows must be a positive integer".to_string())?;
    let seed = parse_seed(opts)?;
    let output = PathBuf::from(req(opts, "output")?);
    let dist = match opts.get("dist").map(String::as_str) {
        None => diva_datagen::Dist::zipf_default(),
        Some(name) => diva_datagen::Dist::parse(name)
            .ok_or_else(|| format!("unknown distribution {name:?}"))?,
    };
    let rel = match dataset {
        "medical" => diva_datagen::medical(rows, seed),
        "pantheon" => diva_datagen::pantheon(seed),
        "census" => diva_datagen::census(rows, seed),
        "credit" => diva_datagen::credit(seed),
        "popsyn" => diva_datagen::popsyn(rows, dist, seed),
        other => return Err(format!("unknown dataset {other:?}")),
    };
    write_relation_file(&rel, &output).map_err(|e| e.to_string())?;
    let reporter = Reporter::new(opts);
    report!(
        reporter,
        "wrote {} ({} rows × {} attributes)",
        output.display(),
        rel.n_rows(),
        rel.schema().arity()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `usage()` lists exactly the flags each command reads.
    #[test]
    fn usage_lists_the_flags_each_command_reads() {
        let mut listed: HashMap<String, Vec<String>> = HashMap::new();
        let mut command = String::new();
        for line in usage().lines() {
            if !line.starts_with(' ') {
                command = line.split_whitespace().next().unwrap_or("").to_string();
            }
            for word in line.split_whitespace() {
                let word = word.trim_start_matches(['[', '(']);
                let Some(flag) = word.strip_prefix("--").or_else(|| word.strip_prefix('-')) else {
                    continue;
                };
                let flag: String =
                    flag.chars().take_while(|c| c.is_alphanumeric() || *c == '-').collect();
                listed.entry(command.clone()).or_default().push(flag);
            }
        }
        for c in &COMMANDS {
            let mut shown = listed.remove(c.name).unwrap_or_default();
            shown.sort();
            shown.dedup();
            let mut reads: Vec<&str> = c.flags.split_whitespace().collect();
            reads.sort_unstable();
            assert_eq!(shown, reads, "usage of {} vs the flags it reads", c.name);
        }
    }
}
