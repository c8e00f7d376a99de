//! Constraint-set generators.
//!
//! The paper implements "three notions of diversity via three classes
//! of diversity constraints, namely, minimum frequency, average, and
//! proportional representation from the attribute domain" (§4) and
//! runs its experiments with proportion constraints. The authors'
//! concrete constraint sets are not published, so these generators
//! synthesize sets of each class from a relation's own value
//! frequencies, plus a conflict-rate-targeted generator for the
//! Fig. 4c sweep. All generators are deterministic in their seed.

use diva_relation::Relation;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::constraint::Constraint;

/// Frequency of each distinct retained value in column `col`, sorted
/// by descending count (ties broken by code for determinism).
fn value_frequencies(rel: &Relation, col: usize) -> Vec<(u32, usize)> {
    let dict_len = rel.dict(col).len();
    let mut counts = vec![0usize; dict_len];
    for &code in rel.column(col) {
        if (code as usize) < dict_len {
            counts[code as usize] += 1;
        }
    }
    let mut freq: Vec<(u32, usize)> = counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(code, c)| (code as u32, c))
        .collect();
    freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    freq
}

/// The QI columns of `rel`, in schema order.
fn qi_cols(rel: &Relation) -> Vec<usize> {
    rel.schema().qi_cols().to_vec()
}

fn attr_name(rel: &Relation, col: usize) -> String {
    rel.schema().attribute(col).name().to_string()
}

fn decode(rel: &Relation, col: usize, code: u32) -> String {
    // Frequency tables only contain real codes; fall back defensively.
    rel.dict(col).decode(code).unwrap_or("<unknown>").to_string()
}

/// Candidate `(col, code, freq)` triples: the most frequent values of
/// each QI column interleaved round-robin, skipping values rarer than
/// `min_freq`.
fn frequent_values(rel: &Relation, min_freq: usize) -> Vec<(usize, u32, usize)> {
    let cols = qi_cols(rel);
    let per_col: Vec<Vec<(u32, usize)>> = cols
        .iter()
        .map(|&c| value_frequencies(rel, c).into_iter().filter(|&(_, f)| f >= min_freq).collect())
        .collect();
    let max_len = per_col.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for rank in 0..max_len {
        for (ci, &c) in cols.iter().enumerate() {
            if let Some(&(code, f)) = per_col[ci].get(rank) {
                out.push((c, code, f));
            }
        }
    }
    out
}

/// **Proportional representation**: for each selected value with input
/// frequency `f`, require the anonymized instance to retain between
/// `⌈(1 − slack)·f⌉` and `⌈(1 + slack)·f⌉` occurrences (the upper bound
/// is capped by nothing — suppression can only lower counts, so the
/// binding side is the lower bound plus the capped upper bound
/// `⌈(1 − slack/2)·f⌉ .. ⌈f⌉` would be degenerate; we keep the
/// symmetric window, which mirrors "capture the relative distribution
/// … with less sensitivity than average" from §4).
///
/// `count` values are chosen round-robin over the QI attributes by
/// descending frequency; values with frequency `< min_freq` are
/// skipped so every constraint admits a size-≥k clustering.
pub fn proportional(rel: &Relation, count: usize, slack: f64, min_freq: usize) -> Vec<Constraint> {
    frequent_values(rel, min_freq)
        .into_iter()
        .take(count)
        .map(|(col, code, f)| {
            let lower = ((1.0 - slack) * f as f64).ceil().max(0.0) as usize;
            let upper = ((1.0 + slack) * f as f64).ceil() as usize;
            Constraint::single(attr_name(rel, col), decode(rel, col, code), lower, upper.max(lower))
        })
        .collect()
}

/// **Minimum frequency**: each selected value must retain at least
/// `⌈alpha·f⌉` occurrences; no upper bound beyond `|R|`.
pub fn min_frequency(rel: &Relation, count: usize, alpha: f64, min_freq: usize) -> Vec<Constraint> {
    let n = rel.n_rows();
    frequent_values(rel, min_freq)
        .into_iter()
        .take(count)
        .map(|(col, code, f)| {
            let lower = (alpha * f as f64).ceil().max(1.0) as usize;
            Constraint::single(attr_name(rel, col), decode(rel, col, code), lower, n)
        })
        .collect()
}

/// **Average representation**: bounds are a window around the *mean*
/// value frequency of the value's attribute, so over-represented
/// values get binding upper bounds and under-represented values get
/// binding lower bounds. The window is widened to stay satisfiable:
/// the lower bound is capped at the value's own frequency.
pub fn average(rel: &Relation, count: usize, slack: f64, min_freq: usize) -> Vec<Constraint> {
    let cols = qi_cols(rel);
    let mean_of: std::collections::HashMap<usize, f64> = cols
        .iter()
        .map(|&c| {
            let freqs = value_frequencies(rel, c);
            let mean = if freqs.is_empty() {
                0.0
            } else {
                freqs.iter().map(|&(_, f)| f as f64).sum::<f64>() / freqs.len() as f64
            };
            (c, mean)
        })
        .collect();
    frequent_values(rel, min_freq)
        .into_iter()
        .take(count)
        .map(|(col, code, f)| {
            let mean = mean_of[&col];
            let lower = ((1.0 - slack) * mean).floor().max(0.0) as usize;
            let upper = ((1.0 + slack) * mean).ceil() as usize;
            // Satisfiability: can never retain more than f occurrences.
            let lower = lower.min(f);
            Constraint::single(attr_name(rel, col), decode(rel, col, code), lower, upper.max(lower))
        })
        .collect()
}

/// Conflict-rate-targeted generator for the Fig. 4c sweep.
///
/// Produces `count` constraints whose measured [`conflict
/// rate`](crate::conflict_rate) grows monotonically with the requested
/// `cf ∈ [0, 1]`:
///
/// * a `⌈cf · count⌉`-sized **conflicting family** built around the
///   most frequent value of the first QI attribute (the *hub*):
///   alternating duplicates of the hub target (identical `I_σ`,
///   pairwise conflict 1) and nested multi-attribute refinements of it
///   (contained `I_σ`, high conflict);
/// * the remaining constraints target **distinct values of a single
///   attribute**, which are pairwise disjoint (conflict 0).
///
/// Bounds are chosen generously (`[min(k, |I|) .. ⌈0.9·|I_hub|⌉]`) so
/// the set stays satisfiable and the sweep measures the *cost* of
/// conflict (extra suppression and backtracking), not a cliff into
/// infeasibility — matching the gradual decline in the paper's
/// Fig. 4c. The exact requested `cf` is a knob, not the measured
/// value; experiments report the measured conflict rate alongside.
pub fn with_conflict_rate(
    rel: &Relation,
    count: usize,
    cf: f64,
    k: usize,
    seed: u64,
) -> Vec<Constraint> {
    assert!((0.0..=1.0).contains(&cf), "cf must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let cols = qi_cols(rel);
    assert!(cols.len() >= 2, "need at least two QI attributes");
    let n_family = ((cf * count as f64).round() as usize).min(count);

    let mut out = Vec::with_capacity(count);

    // --- Conflicting family around the hub value. ---
    let hub_col = cols[0];
    let hub_freqs = value_frequencies(rel, hub_col);
    let Some(&(hub_code, hub_freq)) = hub_freqs.first() else {
        return out; // empty relation: no values to build a family around
    };
    let hub_attr = attr_name(rel, hub_col);
    let hub_val = decode(rel, hub_col, hub_code);
    let hub_rows: Vec<usize> =
        (0..rel.n_rows()).filter(|&r| rel.code(r, hub_col) == hub_code).collect();

    let upper = ((0.9 * hub_freq as f64).ceil() as usize).max(k);
    // Family members carry real retention demands so that conflict has
    // a measurable cost: hub duplicates jointly demand about half the
    // hub's occurrences, refinements a third of theirs.
    let dup_lower = (hub_freq / (2 * n_family.max(1))).max(k).min(hub_freq);
    let mut refine_rank = 0usize;
    for i in 0..n_family {
        if i % 2 == 0 {
            // Duplicate hub target with a slightly varied window.
            out.push(Constraint::single(&hub_attr, &hub_val, dup_lower, upper + i));
        } else {
            // Nested refinement: (hub, B)[hub_val, b] where b is a
            // frequent value of another QI attribute *within* the hub
            // rows.
            let b_col = cols[1 + (refine_rank % (cols.len() - 1))];
            let depth = refine_rank / (cols.len() - 1); // rank of b within the column
            refine_rank += 1;
            let mut counts: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for &r in &hub_rows {
                *counts.entry(rel.code(r, b_col)).or_default() += 1;
            }
            let mut freqs: Vec<(u32, usize)> = counts.into_iter().collect();
            freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let Some(&(b_code, b_freq)) = freqs.get(depth.min(freqs.len().saturating_sub(1)))
            else {
                continue;
            };
            if b_freq < k {
                // A refinement whose target cannot host even one
                // k-cluster would make the whole set unsatisfiable.
                continue;
            }
            let lower = (b_freq / 3).max(k).min(b_freq);
            let upper = ((0.9 * b_freq as f64).ceil() as usize).max(lower);
            out.push(Constraint::multi(
                vec![
                    (hub_attr.clone(), hub_val.clone()),
                    (attr_name(rel, b_col), decode(rel, b_col, b_code)),
                ],
                lower,
                upper,
            ));
        }
    }

    // --- Disjoint remainder: distinct values of one other attribute. ---
    let dis_col = *cols.iter().skip(1).max_by_key(|&&c| rel.dict(c).len()).unwrap_or(&cols[1]);
    let mut dis_values: Vec<(u32, usize)> =
        value_frequencies(rel, dis_col).into_iter().filter(|&(_, f)| f >= k.max(1)).collect();
    dis_values.shuffle(&mut rng);
    for &(code, f) in dis_values.iter().take(count - out.len()) {
        // A real retention demand (25% of the value's frequency) so
        // that growing |Σ| increases the clustering work, but bounded
        // by the attribute's total frequency mass so the set stays
        // satisfiable.
        let lower = k.min(f).max(f / 4);
        let upper = ((0.9 * f as f64).ceil() as usize).max(lower);
        out.push(Constraint::single(
            attr_name(rel, dis_col),
            decode(rel, dis_col, code),
            lower,
            upper,
        ));
    }

    // If the disjoint attribute ran out of frequent values, pad with
    // values from any remaining QI column.
    if out.len() < count {
        for (col, code, f) in frequent_values(rel, k.max(1)) {
            if out.len() >= count {
                break;
            }
            let cand = Constraint::single(attr_name(rel, col), decode(rel, col, code), k.min(f), f);
            if !out.iter().any(|c| c.targets == cand.targets) {
                out.push(cand);
            }
        }
    }
    out
}

/// **Island generator**: `groups` mutually independent constraint
/// families, one per frequent value of the widest QI attribute.
///
/// Each family is a hub constraint on `A = v` plus up to
/// `per_group - 1` conjunctive refinements `(A = v, B = b)` over the
/// most frequent co-occurring values of the other QI attributes. Every
/// family's targets live inside the `A = v` rows, and distinct values
/// of `A` partition the relation — so families are pairwise disjoint
/// and the constraint graph decomposes into exactly one connected
/// component per family. Built for exercising component-parallel
/// solving (Fig. 4-style workloads are a single component; real
/// constraint sets over regional or categorical partitions look like
/// this instead).
///
/// All windows are proportional-style `(1 ± slack)` around the
/// observed frequency, so the input itself satisfies the set.
/// Refinement values rarer than `min_freq` are skipped so every
/// constraint admits a size-≥k clustering.
pub fn islands(
    rel: &Relation,
    groups: usize,
    per_group: usize,
    slack: f64,
    min_freq: usize,
) -> Vec<Constraint> {
    let cols = qi_cols(rel);
    let Some(&first_col) = cols.first() else {
        return Vec::new();
    };
    let part_col = *cols.iter().max_by_key(|&&c| rel.dict(c).len()).unwrap_or(&first_col);
    let window = |f: usize| {
        let lower = ((1.0 - slack) * f as f64).ceil().max(0.0) as usize;
        let upper = (((1.0 + slack) * f as f64).ceil() as usize).max(lower);
        (lower, upper)
    };
    let attr = attr_name(rel, part_col);
    let others: Vec<usize> = cols.iter().copied().filter(|&c| c != part_col).collect();
    let mut out = Vec::new();
    let hubs: Vec<(u32, usize)> = value_frequencies(rel, part_col)
        .into_iter()
        .filter(|&(_, f)| f >= min_freq)
        .take(groups)
        .collect();
    for (v_code, v_freq) in hubs {
        let value = decode(rel, part_col, v_code);
        let (lo, hi) = window(v_freq);
        out.push(Constraint::single(&attr, &value, lo, hi));
        if per_group <= 1 {
            continue;
        }
        let rows: Vec<usize> =
            (0..rel.n_rows()).filter(|&r| rel.code(r, part_col) == v_code).collect();
        // Most frequent values of the other attributes *within* this
        // island's rows, interleaved round-robin as in
        // [`frequent_values`].
        let per_col: Vec<Vec<(u32, usize)>> = others
            .iter()
            .map(|&c| {
                let dict_len = rel.dict(c).len();
                let mut counts = vec![0usize; dict_len];
                for &r in &rows {
                    let code = rel.code(r, c) as usize;
                    if code < dict_len {
                        counts[code] += 1;
                    }
                }
                let mut freqs: Vec<(u32, usize)> = counts
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, f)| f >= min_freq)
                    .map(|(code, f)| (code as u32, f))
                    .collect();
                freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                freqs
            })
            .collect();
        let max_len = per_col.iter().map(Vec::len).max().unwrap_or(0);
        let mut picked = 1; // the hub
        'family: for rank in 0..max_len {
            for (oi, &b_col) in others.iter().enumerate() {
                if picked >= per_group {
                    break 'family;
                }
                if let Some(&(b_code, b_freq)) = per_col[oi].get(rank) {
                    let (lo, hi) = window(b_freq);
                    out.push(Constraint::multi(
                        vec![
                            (attr.clone(), value.clone()),
                            (attr_name(rel, b_col), decode(rel, b_col, b_code)),
                        ],
                        lo,
                        hi,
                    ));
                    picked += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conflict_rate, ConstraintSet};
    use diva_datagen::{medical, popsyn, Dist};
    use diva_relation::fixtures::paper_table1;

    #[test]
    fn proportional_is_satisfied_by_input() {
        let r = medical(2_000, 1);
        let sigma = proportional(&r, 8, 0.2, 10);
        assert_eq!(sigma.len(), 8);
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        // The input itself satisfies proportional constraints (count = f
        // lies in the window).
        assert!(set.satisfied_by(&r));
    }

    #[test]
    fn min_frequency_lower_bounds_hold_on_input() {
        let r = medical(2_000, 2);
        let sigma = min_frequency(&r, 6, 0.5, 10);
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        assert!(set.satisfied_by(&r));
        for c in &sigma {
            assert_eq!(c.upper, r.n_rows());
            assert!(c.lower >= 1);
        }
    }

    #[test]
    fn average_constraints_bind() {
        let r = medical(2_000, 3);
        let sigma = average(&r, 6, 0.5, 10);
        assert_eq!(sigma.len(), 6);
        // Average constraints need not hold on the input (that is the
        // point), but they must bind and have sane ranges.
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        for c in set.constraints() {
            assert!(c.lower <= c.upper);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let r = medical(1_000, 4);
        assert_eq!(proportional(&r, 5, 0.2, 5), proportional(&r, 5, 0.2, 5));
        assert_eq!(with_conflict_rate(&r, 8, 0.5, 5, 9), with_conflict_rate(&r, 8, 0.5, 5, 9));
        assert_eq!(islands(&r, 4, 3, 0.5, 10), islands(&r, 4, 3, 0.5, 10));
    }

    #[test]
    fn island_families_are_disjoint_and_satisfied_by_input() {
        let r = medical(2_000, 7);
        let sigma = islands(&r, 4, 3, 0.5, 10);
        assert_eq!(sigma.len(), 12, "4 families x 3 constraints");
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        assert!(set.satisfied_by(&r), "input must satisfy its own windows");
        // Every constraint's first target names the partition value; two
        // constraints from different families must target disjoint rows.
        let bound = set.constraints();
        for i in 0..bound.len() {
            let rows_i: std::collections::HashSet<usize> =
                bound[i].target_rows.iter().copied().collect();
            for j in i + 1..bound.len() {
                if sigma[i].targets[0].1 != sigma[j].targets[0].1 {
                    assert!(
                        bound[j].target_rows.iter().all(|r| !rows_i.contains(r)),
                        "families {i}/{j} share rows"
                    );
                }
            }
        }
    }

    #[test]
    fn conflict_rate_grows_with_cf_knob() {
        let r = popsyn(20_000, Dist::zipf_default(), 5);
        let mut last = -1.0;
        for cf in [0.0, 0.5, 1.0] {
            let sigma = with_conflict_rate(&r, 10, cf, 10, 7);
            assert_eq!(sigma.len(), 10, "cf={cf}");
            let set = ConstraintSet::bind(&sigma, &r).unwrap();
            let measured = conflict_rate(&set);
            assert!(measured >= last - 1e-9, "measured cf not monotone: {measured} after {last}");
            last = measured;
        }
        assert!(last > 0.3, "cf=1 should be strongly conflicting, got {last}");
    }

    #[test]
    fn cf_zero_is_conflict_free() {
        let r = popsyn(20_000, Dist::Uniform, 5);
        let sigma = with_conflict_rate(&r, 8, 0.0, 10, 7);
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        assert_eq!(conflict_rate(&set), 0.0);
    }

    #[test]
    fn frequent_values_skip_rare() {
        let r = paper_table1();
        // min_freq 3: GEN Female/Male (5,5), ETH Caucasian (5), Asian (3),
        // CTY Vancouver (4), PRV BC (4), MB(3), AB(3)... ages all freq 1.
        let vals = frequent_values(&r, 3);
        assert!(vals.iter().all(|&(_, _, f)| f >= 3));
        assert!(!vals.is_empty());
    }
}
