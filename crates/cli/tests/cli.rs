//! End-to-end tests of the `diva` command-line tool: generate →
//! anonymize → check → stats, plus the error paths.

use std::path::PathBuf;
use std::process::{Command, Output};

fn diva(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diva")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("diva_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The medical generator's roles: 5 QI + 1 sensitive.
const MEDICAL_ROLES: &str = "qi,qi,qi,qi,qi,sensitive";

#[test]
fn generate_anonymize_check_round_trip() {
    let data = tmp("medical.csv");
    let out = tmp("medical_anon.csv");
    let sigma = tmp("sigma.txt");

    let g = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "400",
        "--seed",
        "7",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(g.status.success(), "{}", String::from_utf8_lossy(&g.stderr));

    // A modest constraint over the generated data (ETH is Zipf-skewed,
    // Caucasian is the head value).
    std::fs::write(&sigma, "ETH[Caucasian]: 10..400\n").unwrap();

    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--strategy",
        "maxfanout",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("accuracy"), "{stdout}");

    let c = diva(&[
        "check",
        "--input",
        out.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
    ]);
    assert!(c.status.success(), "{}", String::from_utf8_lossy(&c.stdout));
    let stdout = String::from_utf8_lossy(&c.stdout);
    assert!(stdout.contains("k-anonymous (k=5): yes"), "{stdout}");
    assert!(stdout.contains("all 1 satisfied"), "{stdout}");

    let s =
        diva(&["stats", "--input", out.to_str().unwrap(), "--roles", MEDICAL_ROLES, "--k", "5"]);
    assert!(s.status.success());
    let stdout = String::from_utf8_lossy(&s.stdout);
    assert!(stdout.contains("star accuracy"), "{stdout}");
}

#[test]
fn check_rejects_raw_data() {
    let data = tmp("raw.csv");
    let sigma = tmp("sigma_raw.txt");
    let g = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "300",
        "--seed",
        "9",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(g.status.success());
    std::fs::write(&sigma, "ETH[Caucasian]: 0..10000\n").unwrap();
    // Raw generated data is not k-anonymous for k = 5.
    let c = diva(&[
        "check",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
    ]);
    assert!(!c.status.success());
    assert!(String::from_utf8_lossy(&c.stdout).contains("k-anonymous (k=5): NO"));
}

#[test]
fn unsatisfiable_constraints_fail_cleanly() {
    let data = tmp("unsat.csv");
    let sigma = tmp("sigma_unsat.txt");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "100",
        "--seed",
        "3",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 5000..6000\n").unwrap();
    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--output",
        tmp("never.csv").to_str().unwrap(),
    ]);
    assert!(!a.status.success());
    assert!(String::from_utf8_lossy(&a.stderr).contains("no diverse"));
}

#[test]
fn sigma_gen_produces_parseable_spec() {
    let data = tmp("sg.csv");
    let spec_path = tmp("sg_sigma.txt");
    let g = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "500",
        "--seed",
        "5",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(g.status.success());
    let o = diva(&[
        "sigma-gen",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--class",
        "proportional",
        "--count",
        "4",
        "--slack",
        "0.6",
        "--output",
        spec_path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = std::fs::read_to_string(&spec_path).unwrap();
    let parsed = diva_constraints::spec::parse(&text).unwrap();
    assert_eq!(parsed.len(), 4);

    // The generated spec drives an anonymize run end to end.
    let out = tmp("sg_anon.csv");
    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        spec_path.to_str().unwrap(),
        "--k",
        "5",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));

    // Unknown class errors.
    let o = diva(&[
        "sigma-gen",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--class",
        "quantum",
        "--count",
        "4",
        "--output",
        spec_path.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
}

#[test]
fn anonymize_with_l_diversity_flag() {
    let data = tmp("ld.csv");
    let sigma = tmp("ld_sigma.txt");
    let out = tmp("ld_anon.csv");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "400",
        "--seed",
        "8",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 10..400\n").unwrap();
    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--l",
        "2",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
}

#[test]
fn audit_scores_pipeline_output_and_gates_on_parameters() {
    let data = tmp("audit.csv");
    let sigma = tmp("audit_sigma.txt");
    let out = tmp("audit_anon.csv");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "400",
        "--seed",
        "9",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 10..400\n").unwrap();
    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--l",
        "2",
        "--l-variant",
        "entropy",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));

    // The enforcer's claims must audit clean: k ≥ 5, distinct-l ≥ 2,
    // entropy-l ≥ 2 (the configured variant).
    let ok = diva(&[
        "audit",
        "--input",
        out.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--k",
        "5",
        "--l",
        "2",
        "--entropy-l",
        "2",
    ]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let table = String::from_utf8_lossy(&ok.stdout);
    assert!(table.contains("k_anonymity"), "{table}");
    assert!(table.contains("ok"), "{table}");
    assert!(!table.contains("VIOLATED"), "{table}");

    // JSON emission is parseable-looking and deterministic.
    let j1 = diva(&[
        "audit",
        "--input",
        out.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--emit",
        "json",
    ]);
    let j2 = diva(&[
        "audit",
        "--input",
        out.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--emit",
        "json",
    ]);
    assert!(j1.status.success());
    assert_eq!(j1.stdout, j2.stdout, "audit JSON must be byte-stable");
    let json = String::from_utf8_lossy(&j1.stdout);
    for model in ["k_anonymity", "entropy_l", "t_closeness", "delta_disclosure"] {
        assert!(json.contains(&format!("\"model\": \"{model}\"")), "{json}");
    }

    // An unmeetable parameter exits non-zero but still emits the report.
    let bad =
        diva(&["audit", "--input", out.to_str().unwrap(), "--roles", MEDICAL_ROLES, "--k", "4000"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stdout).contains("VIOLATED"));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("fails the requested privacy"));

    // Raw microdata fails any honest k gate.
    let raw =
        diva(&["audit", "--input", data.to_str().unwrap(), "--roles", MEDICAL_ROLES, "--k", "5"]);
    assert!(!raw.status.success());
}

#[test]
fn audit_flag_validation() {
    let data = tmp("audit_flags.csv");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "50",
        "--seed",
        "3",
        "--output",
        data.to_str().unwrap(),
    ]);
    let o = diva(&[
        "audit",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--emit",
        "yaml",
    ]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown --emit"));
    let o =
        diva(&["audit", "--input", data.to_str().unwrap(), "--roles", MEDICAL_ROLES, "--t", "NaN"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("finite"));
    // --l-c without recursive variant is rejected by anonymize.
    let sigma = tmp("audit_flags_sigma.txt");
    std::fs::write(&sigma, "ETH[Caucasian]: 1..50\n").unwrap();
    let out = tmp("audit_flags_out.csv");
    let (data, sigma, out) =
        (data.to_str().unwrap(), sigma.to_str().unwrap(), out.to_str().unwrap());
    let anonymize = [
        "anonymize",
        "--input",
        data,
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma,
        "--k",
        "2",
        "--output",
        out,
    ];
    let o = diva(&[&anonymize[..], &["--l-c", "2.0"]].concat());
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("--l-variant recursive"));
    // Zero is rejected wherever a positive integer is asked for. Every
    // case runs, so a failure lists each flag that let 0 through.
    let audit = ["audit", "--input", data, "--roles", MEDICAL_ROLES];
    let cases: [(&[&str], &str); 5] = [
        (&anonymize, "l"),
        (&anonymize, "portfolio"),
        (&audit, "k"),
        (&audit, "l"),
        (&audit, "recursive-l"),
    ];
    let accepted: Vec<String> = cases
        .into_iter()
        .filter_map(|(base, flag)| {
            let flag = format!("--{flag}");
            let o = diva(&[base, &[flag.as_str(), "0"]].concat());
            let err = String::from_utf8_lossy(&o.stderr);
            let rejected =
                !o.status.success() && err.contains(&format!("{flag} must be a positive integer"));
            (!rejected).then(|| format!("{} {flag} 0", base[0]))
        })
        .collect();
    assert!(accepted.is_empty(), "zero accepted: {accepted:?}");
}

#[test]
fn compare_prints_all_algorithms() {
    let data = tmp("cmp.csv");
    let sigma = tmp("cmp_sigma.txt");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "300",
        "--seed",
        "4",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 10..300\n").unwrap();
    let o = diva(&[
        "compare",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = String::from_utf8_lossy(&o.stdout);
    for name in ["DIVA-MinChoice", "DIVA-MaxFanOut", "k-member", "OKA", "Mondrian"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn bad_flags_are_reported() {
    let o = diva(&["anonymize", "--input"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("needs a value"));

    let o = diva(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));

    let o = diva(&[]);
    assert!(!o.status.success());

    let o = diva(&["help"]);
    assert!(o.status.success());
    assert!(String::from_utf8_lossy(&o.stdout).contains("usage"));

    // A malformed --seed is an error, like every other integer flag,
    // not a silent fallback to the default seed.
    let out = tmp("bad_seed.csv");
    let _ = std::fs::remove_file(&out);
    let path = out.to_str().unwrap();
    let o = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "10",
        "--seed",
        "7x",
        "--output",
        path,
    ]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("seed must be"));
    assert!(!out.exists(), "nothing is written on a bad seed");
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let out = tmp("unknown_flag.csv");
    let path = out.to_str().unwrap();
    let o = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "10",
        "--output",
        path,
        "--node-budgte",
        "5",
    ]);
    assert!(!o.status.success());
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("generate does not read --node-budgte"), "{err}");
    // A flag another command reads is still unknown here.
    let o = diva(&["check", "--input", "x.csv", "--roles", "qi", "-k", "2", "--seed", "3"]);
    assert!(String::from_utf8_lossy(&o.stderr).contains("check does not read --seed"));
    for command in
        ["anonymize", "audit", "explain", "check", "stats", "generate", "sigma-gen", "compare"]
    {
        let o = diva(&[command, "--quiet", "--bogus", "1"]);
        assert!(!o.status.success(), "{command} accepted --bogus");
        assert!(String::from_utf8_lossy(&o.stderr).contains("--bogus"), "{command}");
    }
}

#[test]
fn bad_roles_and_missing_files() {
    let o = diva(&["stats", "--input", "/nonexistent.csv", "--roles", "qi", "--k", "3"]);
    assert!(!o.status.success());

    let data = tmp("roles.csv");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "50",
        "--seed",
        "1",
        "--output",
        data.to_str().unwrap(),
    ]);
    let o = diva(&["stats", "--input", data.to_str().unwrap(), "--roles", "qi,wizard", "--k", "3"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown role"));
}

#[test]
fn trace_metrics_and_quiet_flags() {
    let data = tmp("obs_medical.csv");
    let out = tmp("obs_medical_anon.csv");
    let sigma = tmp("obs_sigma.txt");
    let trace = tmp("obs_trace.jsonl");
    let metrics = tmp("obs_metrics.json");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "300",
        "--seed",
        "11",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 10..300\n").unwrap();

    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--quiet",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    // --quiet: no report lines at all.
    assert!(a.stdout.is_empty(), "quiet run printed: {}", String::from_utf8_lossy(&a.stdout));

    // The trace is JSON-lines of spans covering every pipeline phase.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    for phase in
        ["diva.run", "diva.clustering", "diva.suppress", "diva.anonymize", "diva.integrate"]
    {
        assert!(trace_text.contains(&format!("\"name\":\"{phase}\"")), "missing {phase}");
    }
    for line in trace_text.lines() {
        diva_obs::json::parse(line).expect("every trace line parses");
    }
    // The summary parses and carries per-strategy colouring counters.
    let summary = diva_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = summary.get("counters").expect("counters section");
    assert!(
        counters.get("coloring.MaxFanOut.node_selections").is_some(),
        "per-strategy counters missing"
    );
    assert!(summary.get("spans").and_then(|s| s.get("diva.run")).is_some());
}

#[test]
fn deadline_budget_degrades_instead_of_failing() {
    let data = tmp("budget_medical.csv");
    let out = tmp("budget_anon.csv");
    let sigma = tmp("budget_sigma.txt");
    let g = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "2000",
        "--seed",
        "21",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(g.status.success(), "{}", String::from_utf8_lossy(&g.stderr));
    std::fs::write(&sigma, "ETH[Caucasian]: 10..2000\n").unwrap();

    // A zero deadline is already expired when the run starts, so the
    // pipeline must take the degraded path — and still exit 0 with a
    // k-anonymous output file.
    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--deadline-ms",
        "0",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("degraded"), "no degraded report line in:\n{stdout}");

    // The degraded output still passes `check`'s k-anonymity gate
    // (constraints may be voided to count 0, which check accepts only
    // when the lower bound is 0 — this sigma's lower bound is 10, so
    // only assert the stats path here).
    let s =
        diva(&["stats", "--input", out.to_str().unwrap(), "--roles", MEDICAL_ROLES, "--k", "5"]);
    assert!(s.status.success(), "{}", String::from_utf8_lossy(&s.stderr));

    // An effectively unlimited budget must stay exact: no degraded line.
    let b = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--node-budget",
        "1000000000",
        "--output",
        tmp("budget_anon_big.csv").to_str().unwrap(),
    ]);
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    let stdout = String::from_utf8_lossy(&b.stdout);
    assert!(!stdout.contains("degraded"), "unlimited budget degraded:\n{stdout}");

    // Malformed budget flags are rejected with a clear message.
    let bad = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "5",
        "--deadline-ms",
        "soon",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("deadline-ms"));
}

#[test]
fn byte_identical_output_with_and_without_trace() {
    let data = tmp("det_medical.csv");
    let sigma = tmp("det_sigma.txt");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "200",
        "--seed",
        "3",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 10..200\n").unwrap();
    let run = |out: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "anonymize",
            "--input",
            data.to_str().unwrap(),
            "--roles",
            MEDICAL_ROLES,
            "--constraints",
            sigma.to_str().unwrap(),
            "--k",
            "4",
            "--output",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let o = diva(&args);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        std::fs::read(out).unwrap()
    };
    let plain = run(&tmp("det_plain.csv"), &[]);
    let trace = tmp("det_trace.jsonl");
    let traced = run(&tmp("det_traced.csv"), &["--trace", trace.to_str().unwrap()]);
    assert_eq!(plain, traced, "enabling obs changed the published relation");
}

#[test]
fn flame_and_profile_report_cover_the_run() {
    let data = tmp("prof_medical.csv");
    let sigma = tmp("prof_sigma.txt");
    diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "200",
        "--seed",
        "5",
        "--output",
        data.to_str().unwrap(),
    ]);
    std::fs::write(&sigma, "ETH[Caucasian]: 10..200\n").unwrap();
    let flame = tmp("prof.folded");
    let trace = tmp("prof_trace.jsonl");
    let a = diva(&[
        "anonymize",
        "--input",
        data.to_str().unwrap(),
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma.to_str().unwrap(),
        "--k",
        "4",
        "--output",
        tmp("prof_anon.csv").to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--flame",
        flame.to_str().unwrap(),
        "--profile",
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("profile: self-time top:"), "{stdout}");
    assert!(stdout.contains("profile: critical path: diva.run"), "{stdout}");
    if cfg!(feature = "alloc-profile") {
        assert!(stdout.contains("profile: alloc: diva.run"), "{stdout}");
    } else {
        assert!(!stdout.contains("profile: alloc:"), "{stdout}");
    }
    assert!(stdout.contains(&format!("wrote {}", flame.display())), "{stdout}");

    // Every folded line is `diva.run[;child]* weight`, and the weights
    // telescope back to the root span's duration (within one
    // microsecond of rounding per span).
    let folded = std::fs::read_to_string(&flame).unwrap();
    assert!(!folded.is_empty(), "empty flame export");
    let mut total = 0u64;
    let mut n_lines = 0u64;
    for line in folded.lines() {
        let (stack, w) = line.rsplit_once(' ').expect("weight separator");
        assert!(
            stack == "diva.run" || stack.starts_with("diva.run;"),
            "stack not rooted at diva.run: {line}"
        );
        total += w.parse::<u64>().expect("numeric weight");
        n_lines += 1;
    }
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let run_line = trace_text
        .lines()
        .find(|l| l.contains("\"name\":\"diva.run\""))
        .expect("diva.run span in trace");
    let dur_us: u64 = run_line
        .split("\"dur_us\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|n| n.parse().ok())
        .expect("dur_us on diva.run");
    let n_spans = trace_text.lines().count() as u64;
    assert!(
        total <= dur_us + n_spans && total + n_spans * n_lines >= dur_us,
        "folded weights {total} do not telescope to diva.run {dur_us} (±{n_spans} rounding)"
    );

    // Trace alloc fields are all-or-none with the counting allocator.
    let has_alloc = trace_text.contains("\"alloc_bytes\":");
    assert_eq!(
        has_alloc,
        cfg!(feature = "alloc-profile"),
        "trace alloc fields do not match the alloc-profile feature"
    );
    if has_alloc {
        assert!(
            run_line.contains("\"alloc_bytes\":"),
            "diva.run span missing alloc attribution: {run_line}"
        );
    }
}
