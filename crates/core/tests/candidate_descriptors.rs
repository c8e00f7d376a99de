//! Property test of candidate enumeration: every candidate, window
//! descriptor or listed clustering, yields slices whose canonical form
//! is its canonical clustering, a valid one; the search's availability
//! check on the slices agrees with an oracle over the canonical form;
//! the search state gives the slices and the canonical form the same
//! verdict and the same live clusters, and accepts only what that check
//! admits; and repair yields nothing when its node has fewer free
//! target rows than the candidate's total, and otherwise only valid
//! clusterings of free target rows that differ from the candidate.

use diva_constraints::generators::{islands, proportional};
use diva_constraints::{BoundConstraint, ConstraintSet};
use diva_core::candidates::Repaired;
use diva_core::state::SearchState;
use diva_core::{CandidateSet, ConstraintGraph, DivaConfig, Strategy};
use diva_relation::{AttrRole, Relation, RowId};
use proptest::prelude::*;

/// The canonical form of `clusters`: each ascending, the clusters in
/// lexicographic order.
fn canonical<'r>(clusters: impl Iterator<Item = &'r [RowId]>) -> Vec<Vec<RowId>> {
    let mut canonical: Vec<Vec<RowId>> = clusters.map(<[RowId]>::to_vec).collect();
    for cluster in &mut canonical {
        cluster.sort_unstable();
    }
    canonical.sort();
    canonical
}

/// Checks every candidate of `cs`, enumerated for `c` at `k` with
/// ℓ = `l`: slices whose canonical form is [`CandidateSet::clustering`],
/// disjoint clusters of at least `k` rows (and `l`
/// distinct sensitive values when `l > 1`), a total in
/// `[max(λl, k), λr]` over rows of `I_σ`, no two consecutive
/// candidates equal, and, unshuffled, totals that never decrease.
fn check_candidates(
    rel: &Relation,
    c: &BoundConstraint,
    cs: &CandidateSet,
    k: usize,
    l: usize,
    shuffled: bool,
) -> Result<(), TestCaseError> {
    let sens: Vec<usize> = (0..rel.schema().arity())
        .filter(|&col| rel.schema().attribute(col).role() == AttrRole::Sensitive)
        .collect();
    let mut is_target = vec![false; rel.n_rows()];
    for &r in &c.target_rows {
        is_target[r] = true;
    }
    let mut prev_total = 0;
    for i in 0..cs.len() {
        let cl = cs.clustering(i);
        prop_assert_eq!(&canonical(cs.clusters(i)), &cl, "candidate {} slices", i);
        let mut rows: Vec<RowId> = cl.iter().flatten().copied().collect();
        let total = rows.len();
        rows.sort_unstable();
        rows.dedup();
        prop_assert_eq!(rows.len(), total, "candidate {} has overlapping clusters", i);
        prop_assert!(rows.iter().all(|&r| is_target[r]), "candidate {} leaves I_σ", i);
        prop_assert!(
            (c.lower.max(k)..=c.upper).contains(&total),
            "candidate {i} totals {total} outside [max({}, {k}), {}]",
            c.lower,
            c.upper
        );
        for cluster in &cl {
            prop_assert!(cluster.len() >= k, "candidate {i} has a cluster below k");
            if l > 1 {
                let mut values: Vec<Vec<u32>> = cluster
                    .iter()
                    .map(|&r| sens.iter().map(|&col| rel.code(r, col)).collect())
                    .collect();
                values.sort_unstable();
                values.dedup();
                prop_assert!(values.len() >= l, "candidate {i} has a cluster below ℓ = {l}");
            }
        }
        if i > 0 {
            prop_assert_ne!(&cs.clustering(i - 1), &cl, "candidates {} and {} are equal", i - 1, i);
        }
        if !shuffled {
            prop_assert!(total >= prev_total, "candidate {i}: total {total} after {prev_total}");
        }
        prev_total = total;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn candidates_build_valid_and_availability_matches_the_built_form(
        rows in 200usize..3_001,
        seed in any::<u64>(),
        use_islands in any::<bool>(),
        k_pick in 0usize..3,
        l in 1usize..3,
        picks in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
    ) {
        let k = [2, 5, 10][k_pick];
        let rel = diva_datagen::medical(rows, seed);
        let sigma = if use_islands {
            islands(&rel, 4, 3, 0.8, 30)
        } else {
            proportional(&rel, 5, 0.7, 20)
        };
        let set = ConstraintSet::bind(&sigma, &rel).unwrap();
        let graph = ConstraintGraph::build(&set);
        let cap = DivaConfig::default().max_candidates;
        for strategy in Strategy::all() {
            let shuffle = (strategy == Strategy::Basic).then_some(seed);
            let candidates: Vec<CandidateSet> = set
                .constraints()
                .iter()
                .map(|c| {
                    CandidateSet::enumerate_interruptible(&rel, c, k, cap, shuffle, l, &|| false)
                })
                .collect();
            for (c, cs) in set.constraints().iter().zip(&candidates) {
                check_candidates(&rel, c, cs, k, l, shuffle.is_some())?;
            }
            if candidates.is_empty() {
                continue;
            }

            // Commit a random sequence of candidates; most collide.
            let uppers = set.constraints().iter().map(|c| c.upper).collect();
            let sizes = set.constraints().iter().map(|c| c.target_rows.len()).collect();
            let mut state = SearchState::new(uppers, sizes, graph.n_rows());
            for &(node, ci) in &picks {
                let cs = &candidates[node % candidates.len()];
                if !cs.is_empty() {
                    let _ = state.try_assign(cs.clusters(ci % cs.len()), &graph);
                }
            }
            let live = state.live_clusters();
            let mut repaired = Repaired::default();
            for (node, (c, cs)) in set.constraints().iter().zip(&candidates).enumerate() {
                let free = state.free_targets(node);
                let mut is_target = vec![false; rel.n_rows()];
                for &r in &c.target_rows {
                    is_target[r] = true;
                }
                for i in 0..cs.len() {
                    let total = cs.total(i);
                    prop_assert_eq!(total, cs.clustering(i).iter().map(Vec::len).sum::<usize>());
                    let is_free = |r: RowId| state.row_is_free(r);
                    let yielded = cs.repair(i, is_free, &mut repaired);
                    // The search skips repair on this count alone.
                    if free < total {
                        prop_assert!(!yielded, "{strategy} node {node} candidate {i}: {free} free");
                    }
                    if !yielded {
                        continue;
                    }
                    let clusters = canonical(repaired.clusters());
                    prop_assert_ne!(&clusters, &cs.clustering(i), "repair {} changed nothing", i);
                    prop_assert_eq!(clusters.iter().map(Vec::len).sum::<usize>(), total);
                    prop_assert!(clusters.iter().all(|cluster| cluster.len() >= k));
                    let mut rows: Vec<RowId> = clusters.concat();
                    rows.sort_unstable();
                    rows.dedup();
                    prop_assert_eq!(rows.len(), total, "{} node {} repair {}", strategy, node, i);
                    prop_assert!(
                        rows.iter().all(|&r| state.row_is_free(r) && is_target[r]),
                        "{strategy} node {node} repair {i} takes a row that is not a free target"
                    );
                }
            }
            for (node, cs) in candidates.iter().enumerate() {
                for i in 0..cs.len() {
                    let available = cs.available(i, &state);
                    let built = cs.clustering(i);
                    let oracle = built.iter().all(|cluster| {
                        live.contains(cluster) || cluster.iter().all(|&r| state.row_is_free(r))
                    });
                    prop_assert_eq!(available, oracle, "{} node {} candidate {}", strategy, node, i);
                    // The slices the search tries and the canonical form
                    // get one verdict and leave the same live clusters.
                    let by_slices = state.try_assign(cs.clusters(i), &graph);
                    let accepted = by_slices.is_some();
                    let live_after = state.live_clusters();
                    if let Some(token) = by_slices {
                        state.unassign(token, &graph);
                    }
                    let by_built = state.try_assign(&built, &graph);
                    prop_assert_eq!(
                        by_built.is_some(), accepted, "{} node {} candidate {}", strategy, node, i
                    );
                    prop_assert_eq!(&state.live_clusters(), &live_after);
                    // What the search commits, the pre-check admits; and
                    // undoing the commit restores the live clusters.
                    if let Some(token) = by_built {
                        prop_assert!(available, "{strategy} node {node} candidate {i} unavailable");
                        state.unassign(token, &graph);
                    }
                    prop_assert_eq!(&state.live_clusters(), &live);
                }
            }
        }
    }
}
