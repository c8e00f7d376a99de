//! Golden provenance logs: the decision-provenance wire format and the
//! `diva explain --top-costly --emit json` answer, pinned byte for byte
//! on four small instances under `tests/fixtures/provenance/`.
//!
//! Each committed `NAME.jsonl` is what `diva anonymize … --provenance`
//! writes for the instance below, and `NAME.top_costly.json` is what
//! `diva explain --provenance NAME.jsonl --top-costly --emit json`
//! prints for it. Every run uses roles `qi,qi,qi,qi,qi,sensitive`,
//! `--threads 1` and the default seed. Between them the instances reach
//! every group origin and every cause the pipeline emits, except a
//! `degrade_merge` with reason `block_size`: it needs a degraded prefix
//! that leaves between 1 and k − 1 rows for the star block, and no
//! small instance found one.
//!
//! | name | input, Σ | flags | reaches |
//! |---|---|---|---|
//! | `repair` | `medical80_s2.csv`, `medical80_s2.sigma` | `-k 3 --strategy maxfanout` | Σ groups with 2+ owners, `k_member` groups, two Integrate repair rounds of the two-attribute constraint |
//! | `diversity_merge` | same | `-k 3 --strategy minchoice --l 2` | a `diversity_merge` group, a repair round, Σ groups with 2+ owners |
//! | `fold` | `../audit/paper_table1_raw.csv`, `paper_table1.sigma` | `-k 3 --strategy basic` | a `fold` host |
//! | `star_block` | `medical80_s6.csv`, `medical80_s6.sigma` | `-k 3 --strategy minchoice --node-budget 8` | a degraded run: kept Σ groups with 2+ owners, a `star_block` with `voided` and `residual` rows |

use std::path::{Path, PathBuf};

use diva_anonymize::DiversityModel;
use diva_constraints::spec;
use diva_core::{BudgetSpec, Diva, DivaConfig, Strategy};
use diva_obs::provenance::{validate_text, Cause, GroupOrigin, Log};
use diva_obs::Provenance;
use diva_relation::csv::read_relation_file;
use diva_relation::AttrRole;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/provenance").join(name)
}

fn read(name: &str) -> String {
    let path = fixture(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One golden instance: the CLI flags its fixture was written with.
struct Instance {
    name: &'static str,
    input: &'static str,
    sigma: &'static str,
    strategy: Strategy,
    l: usize,
    node_budget: Option<u64>,
}

const INSTANCES: [Instance; 4] = [
    Instance {
        name: "repair",
        input: "medical80_s2.csv",
        sigma: "medical80_s2.sigma",
        strategy: Strategy::MaxFanOut,
        l: 1,
        node_budget: None,
    },
    Instance {
        name: "diversity_merge",
        input: "medical80_s2.csv",
        sigma: "medical80_s2.sigma",
        strategy: Strategy::MinChoice,
        l: 2,
        node_budget: None,
    },
    Instance {
        name: "fold",
        input: "../audit/paper_table1_raw.csv",
        sigma: "paper_table1.sigma",
        strategy: Strategy::Basic,
        l: 1,
        node_budget: None,
    },
    Instance {
        name: "star_block",
        input: "medical80_s6.csv",
        sigma: "medical80_s6.sigma",
        strategy: Strategy::MinChoice,
        l: 1,
        node_budget: Some(8),
    },
];

/// Runs `inst` as `diva anonymize` configures it and renders its log.
fn rendered_log(inst: &Instance) -> String {
    let roles = [[AttrRole::Quasi; 5].as_slice(), &[AttrRole::Sensitive]].concat();
    let rel = read_relation_file(&fixture(inst.input), &roles).expect("fixture CSV parses");
    let sigma = spec::parse(&read(inst.sigma)).expect("fixture Σ parses");
    let provenance = Provenance::enabled();
    let config = DivaConfig {
        k: 3,
        strategy: inst.strategy,
        diversity: Some(DiversityModel::Distinct { l: inst.l }),
        threads: Some(1),
        budget: BudgetSpec { node_budget: inst.node_budget, ..BudgetSpec::default() },
        provenance: provenance.clone(),
        ..DivaConfig::default()
    };
    Diva::new(config).run(&rel, &sigma).unwrap_or_else(|e| panic!("{}: {e}", inst.name));
    provenance.render().expect("enabled recorder renders")
}

#[test]
fn pipeline_writes_the_golden_logs() {
    for inst in &INSTANCES {
        let want = read(&format!("{}.jsonl", inst.name));
        assert!(rendered_log(inst) == want, "{}: the provenance log drifted", inst.name);
    }
}

#[test]
fn explain_top_costly_answers_the_golden_json() {
    for inst in &INSTANCES {
        let log = validate_text(&read(&format!("{}.jsonl", inst.name)))
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        let want = read(&format!("{}.top_costly.json", inst.name));
        assert_eq!(diva_cli::explain_top_costly(&log, true), want, "{}", inst.name);
    }
}

/// The fixtures keep covering what the module doc says they cover.
#[test]
fn golden_logs_reach_every_origin_and_cause() {
    let logs: Vec<(&str, Log)> = INSTANCES
        .iter()
        .map(|inst| (inst.name, validate_text(&read(&format!("{}.jsonl", inst.name))).unwrap()))
        .collect();
    let log = |name: &str| &logs.iter().find(|(n, _)| *n == name).unwrap().1;
    let has_group = |name: &str, origin: GroupOrigin| {
        log(name)
            .groups
            .iter()
            .any(|g| g.origin == origin && (origin != GroupOrigin::Sigma || g.owners.len() >= 2))
    };
    let has_cell =
        |name: &str, hit: &dyn Fn(&Cause) -> bool| log(name).cells.iter().any(|c| hit(&c.cause));
    for name in ["repair", "diversity_merge", "star_block"] {
        assert!(has_group(name, GroupOrigin::Sigma), "{name}: no Σ group with 2+ owners");
    }
    assert!(has_group("repair", GroupOrigin::KMember));
    assert!(has_cell("repair", &|c| matches!(c, Cause::KAnonymity)));
    let rounds: Vec<u32> = log("repair")
        .cells
        .iter()
        .filter_map(|c| match c.cause {
            Cause::Repair { round, .. } => Some(round),
            _ => None,
        })
        .collect();
    assert_eq!((rounds.first(), rounds.last()), (Some(&1), Some(&2)), "two repair rounds");
    assert!(has_group("diversity_merge", GroupOrigin::DiversityMerge));
    assert!(has_cell("diversity_merge", &|c| matches!(c, Cause::Repair { .. })));
    assert!(has_group("fold", GroupOrigin::Fold));
    assert!(has_group("star_block", GroupOrigin::StarBlock));
    assert!(has_cell("star_block", &|c| matches!(c, Cause::Voided { .. })));
    assert!(has_cell("star_block", &|c| *c == Cause::DegradeMerge { reason: "residual" }));
}
