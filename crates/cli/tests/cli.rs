//! End-to-end tests of the `diva` command-line tool: generate →
//! anonymize → check → stats, plus the error paths.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use diva_obs::json::{self, Value};

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

    // Zero is rejected wherever a positive integer is asked for. Each
    // case is otherwise valid, so the number is what fails, and every
    // case runs, so a failure lists each flag that let 0 through.
    let data = tmp("zero_flags.csv");
    let sigma = tmp("zero_flags_sigma.txt");
    let (data, sigma) = (data.to_str().unwrap(), sigma.to_str().unwrap());
    let g = diva(&["generate", "--dataset", "medical", "--rows", "50", "--output", data]);
    assert!(g.status.success(), "{}", String::from_utf8_lossy(&g.stderr));
    std::fs::write(sigma, "ETH[Caucasian]: 1..50\n").unwrap();
    let input = |command| vec![command, "--input", data, "--roles", MEDICAL_ROLES];
    let bound = |command| [input(command), vec!["--constraints", sigma]].concat();
    let anonymize = [bound("anonymize"), vec!["--output", path]].concat();
    let with_k = [anonymize.clone(), vec!["-k", "2"]].concat();
    let cases = [
        (with_k.clone(), "l"),
        (with_k, "portfolio"),
        (anonymize, "k"),
        (input("audit"), "k"),
        (input("audit"), "l"),
        (input("audit"), "recursive-l"),
        (bound("check"), "k"),
        (input("stats"), "k"),
        ([bound("explain"), vec!["--top-costly"]].concat(), "k"),
        (bound("compare"), "k"),
        (vec!["generate", "--dataset", "medical", "--output", path], "rows"),
        ([input("sigma-gen"), vec!["--class", "proportional", "--output", path]].concat(), "count"),
    ];
    let accepted: Vec<String> = cases
        .into_iter()
        .filter_map(|(args, flag)| {
            let _ = std::fs::remove_file(&out);
            let flag = format!("--{flag}");
            let o = diva(&[&args[..], &[flag.as_str(), "0"]].concat());
            let err = String::from_utf8_lossy(&o.stderr);
            let rejected = !o.status.success()
                && err.contains(&format!("{flag} must be a positive integer"))
                && !out.exists();
            (!rejected).then(|| format!("{} {flag} 0", args[0]))
        })
        .collect();
    assert!(accepted.is_empty(), "zero accepted: {accepted:?}");
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

/// A flag the command reads but its chosen mode does not is an error
/// naming the flag and the mode it needs, raised before anything is
/// written.
#[test]
fn flags_the_chosen_mode_does_not_read_are_rejected_by_name() {
    let (data, sigma, prov, anon, out) = (
        tmp("mode_flags.csv"),
        tmp("mode_flags_sigma.txt"),
        tmp("mode_flags_prov.jsonl"),
        tmp("mode_flags_anon.csv"),
        tmp("mode_flags_out"),
    );
    let [data, sigma, prov, anon, path] =
        [&data, &sigma, &prov, &anon, &out].map(|p| p.to_str().unwrap());
    let g = diva(&["generate", "--dataset", "medical", "--rows", "60", "--output", data]);
    assert!(g.status.success(), "{}", String::from_utf8_lossy(&g.stderr));
    std::fs::write(sigma, "ETH[Caucasian]: 1..60\n").unwrap();
    let a = diva(&[
        "anonymize",
        "--input",
        data,
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma,
        "-k",
        "2",
        "--quiet",
        "--provenance",
        prov,
        "--output",
        anon,
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let saved = ["explain", "--provenance", prov, "--top-costly", "--output", path];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["generate", "--dataset", "credit", "--rows", "5", "--output", path], "--rows"),
        (vec!["generate", "--dataset", "pantheon", "--rows", "5", "--output", path], "--rows"),
        (
            vec![
                "generate",
                "--dataset",
                "medical",
                "--rows",
                "5",
                "--dist",
                "zipf",
                "--output",
                path,
            ],
            "--dist",
        ),
        (
            vec![
                "sigma-gen",
                "--input",
                data,
                "--roles",
                MEDICAL_ROLES,
                "--class",
                "proportional",
                "--count",
                "2",
                "--per-group",
                "2",
                "--output",
                path,
            ],
            "--per-group",
        ),
        ([&saved[..], &["--input", "/nonexistent.csv"]].concat(), "--input"),
        ([&saved[..], &["--roles", MEDICAL_ROLES]].concat(), "--roles"),
        ([&saved[..], &["--constraints", sigma]].concat(), "--constraints"),
        ([&saved[..], &["-k", "99"]].concat(), "--k"),
        ([&saved[..], &["--seed", "3"]].concat(), "--seed"),
    ];
    for (args, flag) in cases {
        let _ = std::fs::remove_file(&out);
        let o = diva(&args);
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(!o.status.success(), "accepted: {}", args.join(" "));
        assert!(err.contains(&format!("{flag} only applies")), "{}: {err}", args.join(" "));
        assert!(!out.exists(), "wrote output: {}", args.join(" "));
    }
    // The mode each flag needs still reads it.
    for args in [
        &["generate", "--dataset", "popsyn", "--rows", "5", "--dist", "zipf", "--output", path][..],
        &saved[..],
    ] {
        let o = diva(args);
        assert!(o.status.success(), "{}: {}", args.join(" "), String::from_utf8_lossy(&o.stderr));
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

/// A malformed input CSV exits 1 with one line naming the file and the
/// physical line of the offending record, not a panic.
#[test]
fn malformed_csv_is_a_one_line_error() {
    let cases = [
        ("dup_header.csv", "A,A\nx,y\n", "line 1: the header names column \"A\" twice"),
        ("ragged.csv", "A,B\nx,\"two\nlines\"\ny\n", "line 4: expected 2 fields, found 1"),
        ("open_quote.csv", "A,B\nx,\"unterminated\n", "line 2: unterminated quoted field"),
    ];
    for (name, text, message) in cases {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        let o = diva(&["audit", "--input", path.to_str().unwrap(), "--roles", "qi,s"]);
        assert_eq!(o.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(stderr, format!("error: {}: {message}\n", path.display()), "{name}");
    }
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
    let phases =
        ["diva.run", "diva.clustering", "diva.suppress", "diva.anonymize", "diva.integrate"];
    for phase in phases {
        assert!(trace_text.contains(&format!("\"name\":\"{phase}\"")), "missing {phase}");
    }
    // Every line is a complete span record: its six fields, a unique
    // id, a parent that resolves, and the three memory-attribution
    // fields all together or not at all.
    let mut ids = std::collections::HashSet::new();
    let mut parents = Vec::new();
    for line in trace_text.lines() {
        let v = json::parse(line).expect("every trace line parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("span"), "{line}");
        assert!(v.get("name").and_then(Value::as_str).is_some(), "no name: {line}");
        for key in ["thread", "start_us", "dur_us"] {
            assert!(v.get(key).and_then(Value::as_num).is_some(), "no {key}: {line}");
        }
        let id = v.get("id").and_then(Value::as_num).unwrap_or_else(|| panic!("no id: {line}"));
        assert!(ids.insert(id as u64), "duplicate id: {line}");
        if let Some(parent) = v.get("parent").and_then(Value::as_num) {
            parents.push(parent as u64);
        }
        let alloc = ["alloc_bytes", "alloc_count", "peak_live_delta"]
            .map(|f| v.get(f).and_then(Value::as_num).is_some());
        assert!(alloc.iter().all(|&a| a == alloc[0]), "partial alloc fields: {line}");
    }
    assert!(parents.iter().all(|p| ids.contains(p)), "a parent id does not resolve");
    // The summary parses, covers every phase, gives every span its five
    // timing fields, and carries per-strategy colouring counters.
    let summary = json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let Some(Value::Obj(spans)) = summary.get("spans") else { panic!("no spans section") };
    for phase in phases {
        assert!(spans.iter().any(|(name, _)| name == phase), "summary lacks {phase}");
    }
    for (name, span) in spans {
        for key in ["count", "total_us", "self_us", "min_us", "max_us"] {
            assert!(span.get(key).and_then(Value::as_num).is_some(), "{name} has no {key}");
        }
    }
    let counters = summary.get("counters").expect("counters section");
    assert!(
        counters.get("coloring.MaxFanOut.node_selections").is_some(),
        "per-strategy counters missing"
    );
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
    assert!(stdout.contains("profile: alloc: diva.run"), "{stdout}");
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

    // The binary installs the counting allocator, so spans carry
    // memory attribution.
    assert!(
        run_line.contains("\"alloc_bytes\":"),
        "diva.run span missing alloc attribution: {run_line}"
    );
}

/// `explain --provenance` validates the whole file it loads, the
/// attribution line included: moving stars between the line's buckets
/// keeps its total but no longer matches the cell records.
#[test]
fn explain_rejects_a_log_whose_attribution_disagrees_with_its_records() {
    let (data, sigma, prov, tampered, out) = (
        tmp("prov_medical.csv"),
        tmp("prov_sigma.txt"),
        tmp("prov.jsonl"),
        tmp("prov_tampered.jsonl"),
        tmp("prov_anon.csv"),
    );
    let [data, sigma, prov, tampered, out] =
        [&data, &sigma, &prov, &tampered, &out].map(|p| p.to_str().unwrap());
    let g = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "300",
        "--seed",
        "4",
        "--output",
        data,
    ]);
    assert!(g.status.success(), "{}", String::from_utf8_lossy(&g.stderr));
    std::fs::write(sigma, "ETH[Caucasian]: 10..300\n").unwrap();
    let a = diva(&[
        "anonymize",
        "--input",
        data,
        "--roles",
        MEDICAL_ROLES,
        "--constraints",
        sigma,
        "-k",
        "5",
        "--quiet",
        "--provenance",
        prov,
        "--output",
        out,
    ]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let explain = |path| diva(&["explain", "--provenance", path, "--top-costly"]);
    let o = explain(prov);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    // Charge the one constraint's stars to k-anonymity instead.
    let text = std::fs::read_to_string(prov).unwrap();
    let (records, line) = text.trim_end().rsplit_once('\n').expect("records, then attribution");
    let v = json::parse(line).expect("attribution line parses");
    let num = |key| v.get(key).and_then(Value::as_num).map(|n| n as u64);
    let Some(Value::Arr(per_constraint)) = v.get("per_constraint") else { panic!("{line}") };
    let moved = per_constraint.first().and_then(Value::as_num).unwrap_or(0.0) as u64;
    assert!(moved > 0, "the constraint starred nothing: {line}");
    let (k_anonymity, degrade, total) = (num("k_anonymity"), num("degrade"), num("total"));
    let forged = format!(
        "{{\"type\":\"attribution\",\"per_constraint\":[0],\"k_anonymity\":{},\
         \"degrade\":{},\"total\":{}}}",
        k_anonymity.expect("k_anonymity") + moved,
        degrade.expect("degrade"),
        total.expect("total"),
    );
    std::fs::write(tampered, format!("{records}\n{forged}\n")).unwrap();
    let o = explain(tampered);
    assert!(!o.status.success(), "explain accepted a forged attribution line");
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("attribution line disagrees with records"), "{err}");
}

/// A provenance file whose second line nests 200,000 arrays is a
/// one-line error naming that line, not a stack overflow.
#[test]
fn explain_rejects_a_log_nested_past_the_json_cap() {
    let path = tmp("prov_nested.jsonl");
    let meta = r#"{"type":"meta","k":2,"n_rows":4,"constraints":1,"labels":["A[x]"]}"#;
    let depth = 200_000;
    let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    std::fs::write(&path, format!("{meta}\n{nested}\n")).unwrap();
    let o = diva(&["explain", "--provenance", path.to_str().unwrap(), "--top-costly"]);
    assert_eq!(o.status.code(), Some(1), "{}", String::from_utf8_lossy(&o.stderr));
    let err = String::from_utf8_lossy(&o.stderr);
    let cap = diva_obs::json::MAX_DEPTH;
    assert!(err.contains(&format!("line 2: nesting deeper than {cap} at offset {cap}")), "{err}");
}

/// `--stats-addr` serves the run while it is in flight. The CLI binds
/// port 0 and announces the address on stderr; every poll finds each
/// always-present live cell on both routes, and one poll catches the
/// search with `0 < nodes < final`, `final` read from the run's
/// `--metrics` file.
#[test]
fn stats_endpoint_serves_the_search_in_flight() {
    use diva_obs::serve::{http_get, parse_prometheus, LIVE_CELLS};
    use std::io::{BufRead, BufReader, Read};

    let (data, sigma, metrics, out) = (
        tmp("live_medical.csv"),
        tmp("live_sigma.txt"),
        tmp("live_metrics.json"),
        tmp("live_anon.csv"),
    );
    let [data, sigma, metrics, out] = [&data, &sigma, &metrics, &out].map(|p| p.to_str().unwrap());
    // medical-2000 under ten proportional constraints: a search of about
    // 10^5 nodes, seconds long in a debug build.
    let g = diva(&[
        "generate",
        "--dataset",
        "medical",
        "--rows",
        "2000",
        "--seed",
        "7",
        "--output",
        data,
    ]);
    assert!(g.status.success(), "{}", String::from_utf8_lossy(&g.stderr));
    let s = diva(&[
        "sigma-gen",
        "--input",
        data,
        "--roles",
        MEDICAL_ROLES,
        "--class",
        "proportional",
        "--count",
        "10",
        "--slack",
        "0.7",
        "--min-freq",
        "20",
        "--output",
        sigma,
    ]);
    assert!(s.status.success(), "{}", String::from_utf8_lossy(&s.stderr));
    let mut run = Command::new(env!("CARGO_BIN_EXE_diva"))
        .args(["anonymize", "--input", data, "--roles", MEDICAL_ROLES, "--constraints", sigma])
        .args(["-k", "5", "--quiet", "--metrics", metrics, "--output", out])
        .args(["--stats-addr", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stderr = BufReader::new(run.stderr.take().expect("stderr is piped"));
    let mut announcement = String::new();
    stderr.read_line(&mut announcement).expect("stderr reads");
    let addr: std::net::SocketAddr = announcement
        .trim()
        .strip_prefix("stats endpoint listening on ")
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address announced: {announcement:?}"));

    let timeout = Duration::from_millis(500);
    let mut mid = 0;
    while mid == 0 && run.try_wait().expect("run status").is_none() {
        std::thread::sleep(Duration::from_millis(2));
        // The run may end, and the endpoint with it, between polls.
        let (Ok((prom_status, prom)), Ok((json_status, stats))) =
            (http_get(&addr, "/metrics", timeout), http_get(&addr, "/stats.json", timeout))
        else {
            continue;
        };
        assert!(prom_status.contains("200") && json_status.contains("200"), "{prom_status}");
        let prom = parse_prometheus(&prom).expect("/metrics parses");
        let stats = json::parse(&stats).expect("/stats.json parses");
        for cell in LIVE_CELLS.iter().filter(|cell| cell.always_present()) {
            assert!(prom.iter().any(|s| s.name == cell.family), "/metrics lacks {}", cell.family);
            let value = stats.get(cell.kind.section()).and_then(|s| s.get(cell.key));
            assert!(value.and_then(Value::as_num).is_some(), "/stats.json lacks {}", cell.key);
        }
        let nodes = prom.iter().find(|s| s.name == "diva_nodes_expanded_total");
        mid = nodes.map_or(0, |s| s.value as u64);
    }
    let status = run.wait().expect("run finishes");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("stderr reads");
    assert!(status.success(), "{rest}");
    let summary = json::parse(&std::fs::read_to_string(metrics).unwrap()).unwrap();
    let counters = summary.get("counters").expect("counters section");
    let total = counters.get("coloring.MaxFanOut.assignments_tried").and_then(Value::as_num);
    let total = total.expect("node counter in --metrics") as u64;
    assert!(0 < mid && mid < total, "no poll caught the search in flight: {mid} of {total}");
}
