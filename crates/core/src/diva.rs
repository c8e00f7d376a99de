//! The DIVA pipeline (Algorithm 1): DiverseClustering → Suppress →
//! Anonymize → Integrate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use diva_anonymize::{
    cluster_observed_interruptible, enforce_diversity_traced, Anonymizer, KMember,
};
use diva_constraints::{Constraint, ConstraintSet};
use diva_relation::suppress::{suppress_clustering, Suppressed};
use diva_relation::{is_k_anonymous, Relation, RowId, STAR_CODE};

use diva_obs::live::Phase;
use diva_obs::provenance::{Cause, GroupOrigin, Provenance};
use diva_obs::{AllocDelta, Obs, SpanClose};

use crate::budget::{Budget, BudgetUsage, Controls, DegradeReason, Outcome};
use crate::candidates::CandidateSet;
use crate::coloring::ColoringStats;
use crate::config::{DivaConfig, Strategy};
use crate::error::DivaError;
use crate::graph::ConstraintGraph;
use crate::integrate::integrate_traced;
use crate::pool;

/// Counters and timings of a DIVA run.
///
/// The timings are a view over the obs trace: each `t_*` field is the
/// duration returned by ending the corresponding pipeline span
/// (`diva.clustering`, `diva.suppress`, `diva.anonymize`,
/// `diva.integrate`, `diva.run`), so `RunStats` agrees with an
/// exported trace to the microsecond and stays populated even when
/// the handle is disabled (spans always measure; they only *record*
/// when enabled).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// `|Σ|`.
    pub n_constraints: usize,
    /// Rows covered by the diverse clustering `S_Σ`.
    pub sigma_rows: usize,
    /// Candidate clusterings generated across all constraints.
    pub candidates_generated: usize,
    /// Colouring-search counters.
    pub coloring: ColoringStats,
    /// Upper-bound repairs applied by Integrate.
    pub integrate_repairs: usize,
    /// Constraints a degraded run voided (published with no
    /// occurrence left); zero for exact runs. The other
    /// `n_constraints - constraints_voided` are satisfied.
    pub constraints_voided: usize,
    /// Time in DiverseClustering (graph + candidates + colouring).
    pub t_clustering: Duration,
    /// Time in the Suppress step applied to `S_Σ` (zero when the run
    /// folds a too-small residual instead of suppressing directly).
    pub t_suppress: Duration,
    /// Time in the off-the-shelf Anonymize step.
    pub t_anonymize: Duration,
    /// Time in Integrate.
    pub t_integrate: Duration,
    /// End-to-end time.
    pub t_total: Duration,
    /// Budget consumption at the end of the run; `None` when no budget
    /// was configured. Under a portfolio the budget is shared, so the
    /// snapshot reports portfolio-wide totals.
    pub budget: Option<BudgetUsage>,
    /// Per-phase memory attribution, mirroring the `t_*` fields the
    /// same way: each delta is what the running thread allocated
    /// inside the corresponding span. `None` unless the counting
    /// allocator is live in this process (`diva-obs`'s
    /// `alloc-profile` feature plus an installed
    /// `#[global_allocator]` — see `diva_obs::alloc`).
    pub alloc: Option<PhaseAlloc>,
    /// Per-constraint star attribution from the decision-provenance
    /// recorder: how many published stars each Σ-constraint caused
    /// (plus the k-anonymity and degrade buckets; the buckets
    /// partition the starred cells, so the total equals the published
    /// star count). `None` unless [`DivaConfig::provenance`] is
    /// enabled.
    pub attribution: Option<diva_obs::StarAttribution>,
}

/// Per-phase allocation deltas for one run; the memory-side mirror of
/// the `t_*` timing fields on [`RunStats`]. Phases the run never
/// entered keep zeroed deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAlloc {
    /// DiverseClustering (`diva.clustering`).
    pub clustering: AllocDelta,
    /// Suppress (`diva.suppress`).
    pub suppress: AllocDelta,
    /// Anonymize (`diva.anonymize`).
    pub anonymize: AllocDelta,
    /// Integrate (`diva.integrate`).
    pub integrate: AllocDelta,
    /// Degraded-mode materialization (`diva.degrade`).
    pub degrade: AllocDelta,
    /// The whole run (`diva.run`), including phase-external work.
    pub total: AllocDelta,
}

/// Mirrors a profiled span close into `stats.alloc` — a no-op when
/// profiling is inactive, so un-instrumented runs keep `alloc: None`
/// and their output byte-identical.
fn note_alloc(
    stats: &mut RunStats,
    close: &SpanClose,
    pick: impl FnOnce(&mut PhaseAlloc) -> &mut AllocDelta,
) {
    if let Some(delta) = close.alloc {
        *pick(stats.alloc.get_or_insert_with(PhaseAlloc::default)) = delta;
    }
}

/// The output of a DIVA run: a `k`-anonymous relation satisfying `Σ`
/// exactly, or — when a resource budget tripped — the degraded-mode
/// fallback tagged by [`DivaResult::outcome`].
#[derive(Debug)]
pub struct DivaResult {
    /// The published relation `R′`.
    pub relation: Relation,
    /// QI-groups of `R′` as output-row indices (`S_Σ` clusters first,
    /// then the `Anonymize` groups; in degraded mode the kept prefix
    /// clusters followed by one fully-suppressed block).
    pub groups: Vec<Vec<RowId>>,
    /// Maps output rows to rows of the input relation (witnesses
    /// `R ⊑ R′`).
    pub source_rows: Vec<RowId>,
    /// Run counters and timings.
    pub stats: RunStats,
    /// Whether this is the exact answer or a budget-degraded fallback
    /// (see `DESIGN.md` §10 for the degraded-mode contract).
    pub outcome: Outcome,
}

impl DivaResult {
    /// Publishes this result as the end of its run on `obs`'s live
    /// cells: the constraint verdicts, then phase `Done`. Called once
    /// per returned result — by [`Diva::run`], and by the portfolio
    /// after it picks the winner — so members racing on one handle
    /// never add up their verdicts.
    pub(crate) fn publish_done(&self, obs: &Obs) {
        let voided = self.stats.constraints_voided as u64;
        obs.run_finished(self.stats.n_constraints as u64 - voided, voided);
    }
}

/// The DIVA algorithm.
///
/// ```
/// use diva_core::{Diva, DivaConfig, Strategy};
/// use diva_constraints::Constraint;
/// use diva_relation::fixtures::paper_table1;
///
/// let r = paper_table1();
/// let sigma = vec![
///     Constraint::single("ETH", "Asian", 2, 5),
///     Constraint::single("ETH", "African", 1, 3),
///     Constraint::single("CTY", "Vancouver", 2, 4),
/// ];
/// let diva = Diva::new(DivaConfig::with_k(2));
/// let out = diva.run(&r, &sigma).expect("the paper's example is satisfiable");
/// assert!(diva_relation::is_k_anonymous(&out.relation, 2));
/// ```
pub struct Diva {
    config: DivaConfig,
    anonymizer: Box<dyn Anonymizer + Send + Sync>,
}

impl Diva {
    /// DIVA with the paper's default `Anonymize` step (k-member [6]).
    pub fn new(config: DivaConfig) -> Self {
        let anonymizer = Box::new(KMember { seed: config.seed, ..KMember::default() });
        Self { config, anonymizer }
    }

    /// DIVA with a custom anonymization algorithm — "amenable to any
    /// anonymization alg." (Figure 1).
    pub fn with_anonymizer(
        config: DivaConfig,
        anonymizer: Box<dyn Anonymizer + Send + Sync>,
    ) -> Self {
        Self { config, anonymizer }
    }

    /// The configuration.
    pub fn config(&self) -> &DivaConfig {
        &self.config
    }

    /// Solves the (k, Σ)-anonymization problem for `rel`. With a
    /// configured [`DivaConfig::budget`], exhaustion returns the
    /// degraded-mode result ([`Outcome::Degraded`]) instead of an
    /// error.
    pub fn run(&self, rel: &Relation, sigma: &[Constraint]) -> Result<DivaResult, DivaError> {
        let result = self.run_inner(rel, sigma, None, self.config.budget.arm());
        if let Ok(out) = &result {
            out.publish_done(&self.config.obs);
        }
        result
    }

    /// [`Diva::run`] under shared [`Controls`]: the portfolio entry
    /// point, where the cancellation token and the (already-armed,
    /// globally shared) budget both come from the caller. It leaves
    /// the live verdicts and the final phase to the caller, which
    /// publishes them once for the result it returns.
    pub fn run_controlled(
        &self,
        rel: &Relation,
        sigma: &[Constraint],
        controls: &Controls,
    ) -> Result<DivaResult, DivaError> {
        let budget = controls.budget().cloned().or_else(|| self.config.budget.arm());
        self.run_inner(rel, sigma, Some(controls.cancel_flag()), budget)
    }

    fn run_inner(
        &self,
        rel: &Relation,
        sigma: &[Constraint],
        cancel: Option<&Arc<AtomicBool>>,
        budget: Option<Arc<Budget>>,
    ) -> Result<DivaResult, DivaError> {
        let obs = &self.config.obs;
        let run_span = obs
            .span("diva.run")
            .attr("rows", rel.n_rows())
            .attr("k", self.config.k)
            .attr("strategy", self.config.strategy.name())
            .attr("constraints", sigma.len());
        if self.config.k == 0 {
            return Err(DivaError::InvalidK);
        }
        self.config.validate()?;
        let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        if cancelled() {
            return Err(DivaError::Cancelled);
        }
        let set = ConstraintSet::bind(sigma, rel)?;
        obs.set_constraints_total(set.len() as u64);
        let prov = &self.config.provenance;
        if prov.is_enabled() {
            prov.begin_run(
                self.config.k as u64,
                rel.n_rows() as u64,
                set.constraints().iter().map(|c| c.label()).collect(),
            );
        }
        if let Some(b) = &budget {
            obs.set_budget_limits(b.spec().node_budget, b.spec().deadline);
        }
        let mut stats = RunStats { n_constraints: set.len(), ..RunStats::default() };
        // Phase-boundary deadline checks are cheap (one clock read);
        // the finer-grained node/repair charging happens inside the
        // search's poll points.
        let deadline_hit = |b: &Option<Arc<Budget>>| b.as_ref().and_then(|b| b.check_deadline());
        if let Some(reason) = deadline_hit(&budget) {
            return self.degraded_result(rel, &set, Vec::new(), reason, stats, run_span, &budget);
        }

        // --- DiverseClustering (Algorithm 3). ---
        let mut clustering_span = obs.phase(Phase::Clustering);
        let graph_span = obs.span("graph.build");
        let graph = ConstraintGraph::build(&set);
        graph_span.end();
        graph.record_to(obs);
        #[cfg(feature = "strict-invariants")]
        graph.validate().map_err(|detail| inv("BuildGraph", detail))?;
        let shuffle = (self.config.strategy == Strategy::Basic).then_some(self.config.seed);
        // Candidate enumeration is independent per constraint — the
        // natural "satisfy constraints in parallel" decomposition the
        // paper's future-work section sketches — so fan it out over the
        // worker pool, one worker per constraint, for multi-constraint
        // inputs. Enumeration is the longest uninterruptible stretch on
        // large inputs, so the budget's deadline (and the cancellation
        // token) reach inside it via the stop probe; the search's entry
        // poll then converts the fired probe into a degradation or
        // cancellation.
        let stop = || deadline_hit(&budget).is_some() || cancelled();
        let enumerate_one = |c: &diva_constraints::BoundConstraint| {
            CandidateSet::enumerate_interruptible(
                rel,
                c,
                self.config.k,
                self.config.max_candidates,
                shuffle,
                // Every diversity variant implies ≥ l distinct
                // sensitive values per class, so the model's l is a
                // sound enumeration-time filter for all of them.
                self.config.diversity_model().map_or(1, |m| m.l()),
                &stop,
            )
        };
        let candidates: Vec<CandidateSet> = if set.len() > 1 {
            let no_stop = AtomicBool::new(false);
            pool::run_tasks(
                set.constraints(),
                set.len(),
                &no_stop,
                |_| false,
                |_, c| Ok(enumerate_one(c)),
            )
            .into_iter()
            .map(|slot| {
                slot.and_then(Result::ok).ok_or_else(|| DivaError::InvariantViolated {
                    phase: "CandidateEnumeration".into(),
                    detail: "enumeration worker panicked".into(),
                })
            })
            .collect::<Result<_, _>>()?
        } else {
            set.constraints().iter().map(enumerate_one).collect()
        };
        stats.candidates_generated = candidates.iter().map(CandidateSet::len).sum();
        for cs in &candidates {
            cs.record_to(obs);
        }
        let uppers: Vec<usize> = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        // Decomposition layer: connected components of the constraint
        // graph are independent sub-problems, solved concurrently as
        // compact local instances and merged back (byte-identical to
        // the monolithic search for exact outcomes — DESIGN.md §12).
        let outcome = crate::decompose::solve_clustering(
            &graph,
            &candidates,
            &uppers,
            &labels,
            &self.config,
            cancel,
            budget.as_ref(),
        )?;
        stats.coloring = outcome.stats.clone();
        let search_degraded = outcome.degraded;
        let mut s_sigma: Vec<Vec<RowId>> = outcome.clusters;
        // Per-cluster owning constraints, parallel to `s_sigma`;
        // populated by the search only when provenance is recording.
        let sigma_owners = outcome.owners;
        #[cfg(feature = "strict-invariants")]
        check_partition("DiverseClustering", &s_sigma, rel.n_rows(), false)?;
        stats.sigma_rows = s_sigma.iter().map(Vec::len).sum();
        let cluster_sizes = obs.histogram("cluster.size");
        for c in &s_sigma {
            cluster_sizes.record_len(c.len());
        }
        clustering_span.set_attr("candidates", stats.candidates_generated);
        clustering_span.set_attr("clusters", s_sigma.len());
        clustering_span.set_attr("sigma_rows", stats.sigma_rows);
        let close = clustering_span.end_profiled();
        stats.t_clustering = close.dur;
        note_alloc(&mut stats, &close, |p| &mut p.clustering);
        if let Some(reason) = search_degraded {
            return self.degraded_result(rel, &set, s_sigma, reason, stats, run_span, &budget);
        }

        // Rows not covered by S_Σ (Algorithm 1, line 4: R := R \ C_i).
        let mut covered = vec![false; rel.n_rows()];
        for c in &s_sigma {
            for &r in c {
                covered[r] = true;
            }
        }
        let rest: Vec<RowId> = (0..rel.n_rows()).filter(|&r| !covered[r]).collect();
        #[cfg(feature = "fault-inject")]
        self.config.faults.at_phase("clustering", cancel);
        if cancelled() {
            return Err(DivaError::Cancelled);
        }
        if let Some(reason) = deadline_hit(&budget) {
            return self.degraded_result(rel, &set, s_sigma, reason, stats, run_span, &budget);
        }

        // --- Anonymize (or fold a too-small residual), then Integrate. ---
        // On the fold path there is no `R_k`, so no `R_k` provenance
        // group ids either.
        let (r_sigma, r_k, k_gids) = if !rest.is_empty() && rest.len() < self.config.k {
            // Fewer residual tuples than k: no k-anonymous R_k exists.
            // Fold them into an existing S_Σ cluster if some choice
            // keeps Σ satisfied (checked exhaustively), else fail.
            let anon_span = obs
                .phase(Phase::Anonymize)
                .attr("fold_residual", true)
                .attr("residual_rows", rest.len());
            let (folded, fold_host) = self.fold_residual(rel, &set, &mut s_sigma, &rest)?;
            #[cfg(feature = "strict-invariants")]
            check_partition("Suppress", &folded.groups, folded.relation.n_rows(), true)?;
            let close = anon_span.end_profiled();
            stats.t_anonymize = close.dur;
            note_alloc(&mut stats, &close, |p| &mut p.anonymize);
            stats.sigma_rows = s_sigma.iter().map(Vec::len).sum();
            if prov.is_enabled() {
                // Folding can change any cluster's ownership (the host
                // absorbed non-target rows), so recompute owners from
                // the constraint set rather than reuse the search's.
                record_suppressed_groups(
                    prov,
                    &folded,
                    &s_sigma,
                    |ci| {
                        set.constraints()
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| s_sigma[ci].iter().all(|&r| c.is_target(r)))
                            .map(|(i, _)| i as u32)
                            .collect()
                    },
                    |ci| if ci == fold_host { GroupOrigin::Fold } else { GroupOrigin::Sigma },
                );
            }
            (folded, None, Vec::new())
        } else {
            let suppress_span = obs.phase(Phase::Suppress).attr("clusters", s_sigma.len());
            let r_sigma = suppress_clustering(rel, &s_sigma);
            #[cfg(feature = "strict-invariants")]
            check_partition("Suppress", &r_sigma.groups, r_sigma.relation.n_rows(), true)?;
            let close = suppress_span.end_profiled();
            stats.t_suppress = close.dur;
            note_alloc(&mut stats, &close, |p| &mut p.suppress);
            if cancelled() {
                return Err(DivaError::Cancelled);
            }
            if let Some(reason) = deadline_hit(&budget) {
                return self.degraded_result(rel, &set, s_sigma, reason, stats, run_span, &budget);
            }
            let mut anon_span = obs.phase(Phase::Anonymize).attr("residual_rows", rest.len());
            // Kept alongside `r_k` for provenance: the input clusters the
            // suppressed groups came from, and which of them absorbed a
            // sibling during ℓ-diversity enforcement.
            let mut rk_clusters: Vec<Vec<RowId>> = Vec::new();
            let mut ldiv_merged: Vec<bool> = Vec::new();
            let r_k: Option<Suppressed> = if rest.is_empty() {
                None
            } else {
                // The anonymizer's clustering is the pipeline's other long
                // uninterruptible stretch (k-member is O(n·cap) over the
                // residual); the stop probe reaches inside it, and an
                // abandoned clustering degrades with the clustered prefix.
                let Some(mut clusters) = cluster_observed_interruptible(
                    self.anonymizer.as_ref(),
                    rel,
                    &rest,
                    self.config.k,
                    obs,
                    &stop,
                ) else {
                    let close = anon_span.end_profiled();
                    stats.t_anonymize = close.dur;
                    note_alloc(&mut stats, &close, |p| &mut p.anonymize);
                    if cancelled() {
                        return Err(DivaError::Cancelled);
                    }
                    let Some(reason) = deadline_hit(&budget) else {
                        // The probe only fires on cancellation or deadline;
                        // both are sticky, so this is unreachable.
                        return Err(DivaError::Cancelled);
                    };
                    return self
                        .degraded_result(rel, &set, s_sigma, reason, stats, run_span, &budget);
                };
                if let Some(model) = self.config.diversity_model() {
                    let (merged, flags) = enforce_diversity_traced(rel, &clusters, &model)
                        .ok_or_else(|| DivaError::PrivacyInfeasible {
                            reason: format!(
                                "residual tuples cannot satisfy {model}: even a single merged \
                                 class fails the check"
                            ),
                        })?;
                    clusters = merged;
                    ldiv_merged = flags;
                }
                #[cfg(feature = "strict-invariants")]
                {
                    check_partition("Anonymize", &clusters, rel.n_rows(), false)?;
                    let total: usize = clusters.iter().map(Vec::len).sum();
                    if total != rest.len() {
                        return Err(inv(
                            "Anonymize",
                            format!("clusters cover {total} rows, residual has {}", rest.len()),
                        ));
                    }
                }
                let rk = suppress_clustering(rel, &clusters);
                rk_clusters = clusters;
                Some(rk)
            };
            anon_span.set_attr("groups", r_k.as_ref().map_or(0, |rk| rk.groups.len()));
            let close = anon_span.end_profiled();
            stats.t_anonymize = close.dur;
            note_alloc(&mut stats, &close, |p| &mut p.anonymize);
            if cancelled() {
                return Err(DivaError::Cancelled);
            }
            if let Some(reason) = deadline_hit(&budget) {
                return self.degraded_result(rel, &set, s_sigma, reason, stats, run_span, &budget);
            }

            // Past the last degrade checkpoint: the run is committed to the
            // exact path, so the published groups and their stars can be
            // recorded (recording earlier would leave stale records behind
            // a later degrade).
            let mut k_gids: Vec<u64> = Vec::new();
            if prov.is_enabled() {
                record_suppressed_groups(
                    prov,
                    &r_sigma,
                    &s_sigma,
                    |ci| sigma_owners.get(ci).cloned().unwrap_or_default(),
                    |_| GroupOrigin::Sigma,
                );
                if let Some(rk) = &r_k {
                    k_gids = record_suppressed_groups(
                        prov,
                        rk,
                        &rk_clusters,
                        |_| Vec::new(),
                        |ci| {
                            if ldiv_merged.get(ci).copied().unwrap_or(false) {
                                GroupOrigin::DiversityMerge
                            } else {
                                GroupOrigin::KMember
                            }
                        },
                    );
                }
            }
            (r_sigma, r_k, k_gids)
        };
        let int_span = obs.phase(Phase::Integrate);
        let out = integrate_traced(&r_sigma, r_k.as_ref(), &set, prov, &k_gids)?;
        #[cfg(feature = "strict-invariants")]
        check_partition("Integrate", &out.groups, out.relation.n_rows(), true)?;
        stats.integrate_repairs = out.repairs;
        obs.counter("integrate.repairs").add(out.repairs as u64);
        let close = int_span.end_profiled();
        stats.t_integrate = close.dur;
        note_alloc(&mut stats, &close, |p| &mut p.integrate);

        debug_assert!(is_k_anonymous(&out.relation, self.config.k));
        debug_assert!(set.satisfied_by(&out.relation));
        debug_assert!(
            self.config.diversity_model().is_none_or(|m| m.holds(&out.relation)),
            "enforced diversity model must audit clean on the published table"
        );
        Ok(self.publish(
            run_span,
            &budget,
            DivaResult {
                relation: out.relation,
                groups: out.groups,
                source_rows: out.source_rows,
                stats,
                outcome: Outcome::Exact,
            },
        ))
    }

    /// The publish tail every returned table shares: records the
    /// verdict on the run span, snapshots budget usage and provenance
    /// attribution into the stats, and closes the run span (`t_total`).
    fn publish(
        &self,
        mut run_span: diva_obs::Span,
        budget: &Option<Arc<Budget>>,
        mut result: DivaResult,
    ) -> DivaResult {
        run_span.set_attr("stars", result.relation.star_count());
        match &result.outcome {
            Outcome::Exact => run_span.set_attr("outcome", "exact"),
            Outcome::Degraded { reason } => {
                run_span.set_attr("outcome", "degraded");
                run_span.set_attr("degrade_reason", reason.kind());
            }
        }
        let stats = &mut result.stats;
        stats.budget = budget.as_ref().map(|b| b.usage());
        stats.attribution = self.config.provenance.attribution();
        let close = run_span.end_profiled();
        stats.t_total = close.dur;
        note_alloc(stats, &close, |p| &mut p.total);
        result
    }

    /// Attempts to fold `rest` (fewer than `k` rows) into one of the
    /// `S_Σ` clusters such that the suppressed result still satisfies
    /// `Σ` and is `k`-anonymous. On success also returns the index of
    /// the host cluster that absorbed the residual (for provenance).
    fn fold_residual(
        &self,
        rel: &Relation,
        set: &ConstraintSet,
        s_sigma: &mut Vec<Vec<RowId>>,
        rest: &[RowId],
    ) -> Result<(Suppressed, usize), DivaError> {
        if s_sigma.is_empty() {
            return Err(DivaError::ResidualTooSmall { remaining: rest.len() });
        }
        for i in 0..s_sigma.len() {
            let mut trial = s_sigma.clone();
            trial[i].extend_from_slice(rest);
            trial[i].sort_unstable();
            let sup = suppress_clustering(rel, &trial);
            // Lower bounds must survive the fold (the host cluster may
            // stop retaining its target value); upper bounds are
            // checked too since folding can only lower counts.
            let ok = set.constraints().iter().all(|c| c.count_in(&sup.relation) >= c.lower)
                && is_k_anonymous(&sup.relation, self.config.k)
                && self.config.diversity_model().is_none_or(|m| m.holds(&sup.relation));
            if ok {
                *s_sigma = trial;
                return Ok((sup, i));
            }
        }
        Err(DivaError::ResidualTooSmall { remaining: rest.len() })
    }

    /// Last-resort degraded output with an *empty* prefix: every row
    /// is published with all QI values suppressed (one maximal
    /// QI-group, every constraint voided). Used by the portfolio when
    /// every member was lost to worker panics, so callers still get a
    /// well-formed k-anonymous relation instead of an error.
    pub(crate) fn degraded_fallback(
        &self,
        rel: &Relation,
        sigma: &[Constraint],
        reason: DegradeReason,
    ) -> Result<DivaResult, DivaError> {
        let obs = &self.config.obs;
        let run_span = obs
            .span("diva.run")
            .attr("rows", rel.n_rows())
            .attr("k", self.config.k)
            .attr("fallback", true);
        let set = ConstraintSet::bind(sigma, rel)?;
        let prov = &self.config.provenance;
        if prov.is_enabled() {
            prov.begin_run(
                self.config.k as u64,
                rel.n_rows() as u64,
                set.constraints().iter().map(|c| c.label()).collect(),
            );
        }
        let stats = RunStats { n_constraints: set.len(), ..RunStats::default() };
        self.degraded_result(rel, &set, Vec::new(), reason, stats, run_span, &None)
    }

    /// Builds the degraded-mode output (`DESIGN.md` §10) from the
    /// clustered-so-far prefix `partial`:
    ///
    /// 1. Non-voided prefix clusters are suppressed normally (uniform
    ///    QI values retained).
    /// 2. Any constraint left violating by the prefix has its
    ///    contributing clusters *voided* — all QI values suppressed —
    ///    until its count is within bounds or zero ("satisfied or
    ///    voided"; a degraded run never publishes a violating count).
    /// 3. Voided and residual rows merge into one fully-suppressed
    ///    block; if that block would have between 1 and k−1 rows, more
    ///    clusters are voided so it reaches k (each cluster has ≥ k
    ///    rows, so one always suffices).
    ///
    /// The result is k-anonymous and a refinement of the input, but
    /// not suppression-minimal, and the ℓ-diversity extension is not
    /// enforced. Every input row is still published exactly once.
    //
    // Takes the whole run context (stats, run span, budget) so every
    // exhaustion site can hand off mid-run state in one call; grouping
    // them into a carrier struct would just rename the argument list.
    #[allow(clippy::too_many_arguments)]
    fn degraded_result(
        &self,
        rel: &Relation,
        set: &ConstraintSet,
        partial: Vec<Vec<RowId>>,
        reason: DegradeReason,
        mut stats: RunStats,
        run_span: diva_obs::Span,
        budget: &Option<Arc<Budget>>,
    ) -> Result<DivaResult, DivaError> {
        let obs = &self.config.obs;
        obs.counter(&format!("budget.exhausted.{}", reason.kind())).incr();
        let mut span = obs
            .phase(Phase::Degrade)
            .attr("reason", reason.kind())
            .attr("prefix_clusters", partial.len());

        // A prefix cluster contributes to a constraint iff *every* row
        // is a target: the cluster is then uniform on the target
        // columns, so suppression retains the target values for all of
        // its rows. Any mixed cluster gets those columns starred and
        // contributes zero.
        let n_groups = partial.len();
        let contrib: Vec<Vec<usize>> = set
            .constraints()
            .iter()
            .map(|c| {
                partial
                    .iter()
                    .map(|g| {
                        if !g.is_empty() && g.iter().all(|&r| c.is_target(r)) {
                            g.len()
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut covered = vec![false; rel.n_rows()];
        for c in &partial {
            for &r in c {
                covered[r] = true;
            }
        }
        let residual: Vec<RowId> = (0..rel.n_rows()).filter(|&r| !covered[r]).collect();

        // Voiding fixpoint. Voiding only ever lowers counts, and each
        // pass either voids a cluster or terminates, so this is at most
        // |partial| passes. `void_cause` remembers, per voided cluster,
        // which decision voided it (for the provenance records).
        let mut voided = vec![false; n_groups];
        let mut void_cause: Vec<Option<Cause>> = vec![None; n_groups];
        loop {
            let mut acted = false;
            for (ci, c) in set.constraints().iter().enumerate() {
                let count = |voided: &[bool]| -> usize {
                    (0..n_groups).filter(|&g| !voided[g]).map(|g| contrib[ci][g]).sum()
                };
                // Over the upper bound: void contributors (last first,
                // keeping earlier — typically larger-priority — ones)
                // until within bounds.
                while count(&voided) > c.upper {
                    if let Some(g) = (0..n_groups).rev().find(|&g| !voided[g] && contrib[ci][g] > 0)
                    {
                        voided[g] = true;
                        void_cause[g] = Some(Cause::Voided { constraint: ci as u32 });
                        acted = true;
                    }
                }
                // Under the lower bound (but non-zero): the count is
                // unattainable, so void the constraint entirely.
                if (1..c.lower).contains(&count(&voided)) {
                    for g in (0..n_groups).filter(|&g| contrib[ci][g] > 0) {
                        if !voided[g] {
                            voided[g] = true;
                            void_cause[g] = Some(Cause::Voided { constraint: ci as u32 });
                            acted = true;
                        }
                    }
                }
            }
            if acted {
                continue;
            }
            // The fully-suppressed block must itself be a k-anonymous
            // QI-group: empty or at least k rows.
            let star_rows = residual.len()
                + (0..n_groups).filter(|&g| voided[g]).map(|g| partial[g].len()).sum::<usize>();
            if star_rows > 0 && star_rows < self.config.k {
                if let Some(g) = (0..n_groups).rev().find(|&g| !voided[g]) {
                    voided[g] = true;
                    void_cause[g] = Some(Cause::DegradeMerge { reason: "block_size" });
                    continue;
                }
            }
            break;
        }

        // Materialize: kept clusters suppressed normally, then one
        // fully-suppressed block for voided + residual rows.
        let arity = rel.schema().arity();
        let n_rows = rel.n_rows();
        let mut cols: Vec<Vec<u32>> = (0..arity).map(|_| Vec::with_capacity(n_rows)).collect();
        let mut groups: Vec<Vec<RowId>> = Vec::new();
        let mut source_rows: Vec<RowId> = Vec::with_capacity(n_rows);
        let prov = &self.config.provenance;
        for (g, cluster) in partial.iter().enumerate() {
            if voided[g] || cluster.is_empty() {
                continue;
            }
            let start = source_rows.len();
            let mut suppress_col = vec![false; arity];
            for &c in rel.schema().qi_cols() {
                let first = rel.code(cluster[0], c);
                suppress_col[c] = cluster.iter().any(|&r| rel.code(r, c) != first);
            }
            for &r in cluster {
                for c in 0..arity {
                    cols[c].push(if suppress_col[c] { STAR_CODE } else { rel.code(r, c) });
                }
                source_rows.push(r);
            }
            groups.push((start..source_rows.len()).collect());
            if prov.is_enabled() {
                // Kept clusters charge their stars round-robin to the
                // constraints they contribute to (DESIGN.md §16), same
                // rule as the exact path's Σ-clusters.
                let owners: Vec<u32> =
                    (0..set.len()).filter(|&ci| contrib[ci][g] > 0).map(|ci| ci as u32).collect();
                let gid = prov.group(
                    GroupOrigin::Sigma,
                    owners.clone(),
                    cluster.iter().map(|&r| r as u64).collect(),
                );
                let mut j = 0usize;
                for (c, &starred) in suppress_col.iter().enumerate() {
                    if !starred {
                        continue;
                    }
                    for &r in cluster {
                        let cause = if owners.is_empty() {
                            Cause::KAnonymity
                        } else {
                            Cause::Sigma { constraint: owners[j % owners.len()] }
                        };
                        prov.cell(r as u64, c as u32, gid, cause);
                        j += 1;
                    }
                }
            }
        }
        let star_src: Vec<RowId> = partial
            .iter()
            .enumerate()
            .filter(|&(g, _)| voided[g])
            .flat_map(|(_, c)| c.iter().copied())
            .chain(residual.iter().copied())
            .collect();
        if !star_src.is_empty() {
            let start = source_rows.len();
            for &r in &star_src {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(if rel.schema().is_qi(c) { STAR_CODE } else { rel.code(r, c) });
                }
                source_rows.push(r);
            }
            groups.push((start..source_rows.len()).collect());
            if prov.is_enabled() {
                // Every QI cell of the star block is suppressed; each
                // row's cells carry the decision that sent it there —
                // the void that consumed its cluster, or a structural
                // degrade merge for residual rows.
                let gid = prov.group(
                    GroupOrigin::StarBlock,
                    Vec::new(),
                    star_src.iter().map(|&r| r as u64).collect(),
                );
                let causes = partial
                    .iter()
                    .enumerate()
                    .filter(|&(g, _)| voided[g])
                    .flat_map(|(g, c)| {
                        let cause = void_cause[g]
                            .clone()
                            .unwrap_or(Cause::DegradeMerge { reason: "block_size" });
                        std::iter::repeat_n(cause, c.len())
                    })
                    .chain(residual.iter().map(|_| Cause::DegradeMerge { reason: "residual" }));
                for (&r, cause) in star_src.iter().zip(causes) {
                    for &c in rel.schema().qi_cols() {
                        prov.cell(r as u64, c as u32, gid, cause.clone());
                    }
                }
            }
        }
        let relation =
            Relation::from_parts(std::sync::Arc::clone(rel.schema()), rel.dicts().to_vec(), cols);
        #[cfg(feature = "strict-invariants")]
        check_partition("Degrade", &groups, relation.n_rows(), true)?;
        debug_assert!(rel.n_rows() < self.config.k || is_k_anonymous(&relation, self.config.k));
        debug_assert!(set.constraints().iter().all(|c| {
            let n = c.count_in(&relation);
            n == 0 || (c.lower..=c.upper).contains(&n)
        }));

        stats.sigma_rows = source_rows.len() - star_src.len();
        // A constraint no kept cluster contributes to is voided; any
        // other is within bounds by the fixpoint, i.e. satisfied.
        stats.constraints_voided = (0..set.len())
            .filter(|&ci| (0..n_groups).all(|g| voided[g] || contrib[ci][g] == 0))
            .count();
        let n_voided = voided.iter().filter(|&&v| v).count();
        span.set_attr("voided_clusters", n_voided);
        span.set_attr("star_rows", star_src.len());
        note_alloc(&mut stats, &span.end_profiled(), |p| &mut p.degrade);
        let outcome = Outcome::Degraded { reason };
        Ok(self.publish(
            run_span,
            budget,
            DivaResult { relation, groups, source_rows, stats, outcome },
        ))
    }
}

/// Records provenance for one suppressed clustering: a group record
/// per cluster plus a cell record per starred QI value. Starred cells
/// are enumerated deterministically — suppressed columns ascending,
/// rows in cluster order — and the j-th cell is charged to
/// `owners[j % owners.len()]` (the tie-splitting rule of DESIGN.md
/// §16); clusters with no owning constraint charge plain k-anonymity.
/// Returns the group ids, parallel to `clusters`.
fn record_suppressed_groups(
    prov: &Provenance,
    sup: &Suppressed,
    clusters: &[Vec<RowId>],
    owners_of: impl Fn(usize) -> Vec<u32>,
    origin_of: impl Fn(usize) -> GroupOrigin,
) -> Vec<u64> {
    let mut gids = Vec::with_capacity(clusters.len());
    for (ci, cluster) in clusters.iter().enumerate() {
        let owners = owners_of(ci);
        let gid =
            prov.group(origin_of(ci), owners.clone(), cluster.iter().map(|&r| r as u64).collect());
        gids.push(gid);
        // Within a suppressed group every row shares one star pattern,
        // so the group's first output row names the starred columns.
        let Some(&first) = sup.groups.get(ci).and_then(|g| g.first()) else {
            continue;
        };
        let mut j = 0usize;
        for &col in sup.relation.schema().qi_cols() {
            if sup.relation.code(first, col) != STAR_CODE {
                continue;
            }
            for &r in cluster {
                let cause = if owners.is_empty() {
                    Cause::KAnonymity
                } else {
                    Cause::Sigma { constraint: owners[j % owners.len()] }
                };
                prov.cell(r as u64, col as u32, gid, cause);
                j += 1;
            }
        }
    }
    gids
}

/// Shorthand for [`DivaError::InvariantViolated`] at a pipeline phase.
#[cfg(feature = "strict-invariants")]
fn inv(phase: &str, detail: String) -> DivaError {
    DivaError::InvariantViolated { phase: phase.into(), detail }
}

/// Phase-boundary invariant: `groups` reference rows `< n_rows` and
/// are pairwise disjoint; with `exhaustive` they also cover every row.
#[cfg(feature = "strict-invariants")]
fn check_partition(
    phase: &str,
    groups: &[Vec<RowId>],
    n_rows: usize,
    exhaustive: bool,
) -> Result<(), DivaError> {
    let mut seen = vec![false; n_rows];
    for (gi, group) in groups.iter().enumerate() {
        for &r in group {
            if r >= n_rows {
                return Err(inv(phase, format!("group {gi} references row {r} >= {n_rows}")));
            }
            if seen[r] {
                return Err(inv(phase, format!("row {r} appears in two groups")));
            }
            seen[r] = true;
        }
    }
    if exhaustive {
        if let Some(r) = seen.iter().position(|&s| !s) {
            return Err(inv(phase, format!("row {r} is not covered by any group")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use diva_relation::fixtures::paper_table1;
    use diva_relation::suppress::is_refinement;

    fn example_sigma() -> Vec<Constraint> {
        vec![
            Constraint::single("ETH", "Asian", 2, 5),
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ]
    }

    #[test]
    fn paper_example_end_to_end() {
        let r = paper_table1();
        for strategy in Strategy::all() {
            let diva = Diva::new(DivaConfig::with_k(2).strategy(strategy));
            let out = diva.run(&r, &example_sigma()).unwrap_or_else(|e| {
                panic!("{strategy}: {e}");
            });
            assert_eq!(out.relation.n_rows(), 10, "{strategy}: all tuples published");
            assert!(is_k_anonymous(&out.relation, 2), "{strategy}: 2-anonymous");
            let set = ConstraintSet::bind(&example_sigma(), &out.relation).unwrap();
            assert!(set.satisfied_by(&out.relation), "{strategy}: R' |= Σ");
            assert!(is_refinement(&r, &out.relation, &out.source_rows), "{strategy}: R ⊑ R'");
            // Shared clusters may serve two constraints at once, so the
            // minimum coverage is 4 rows (σ2 needs 2 Africans, and a
            // shared Asian/Vancouver pair can serve both σ1 and σ3).
            assert!(out.stats.sigma_rows >= 4, "{strategy}: S_Σ covers the constraint rows");
        }
    }

    #[test]
    fn output_matches_paper_table3_quality() {
        // The paper's Table 3 output suppresses 22 QI cells. Our k=2
        // run should be in the same information-loss ballpark (the
        // clustering is not unique).
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(2).strategy(Strategy::MinChoice));
        let out = diva.run(&r, &example_sigma()).unwrap();
        let stars = out.relation.star_count();
        assert!(stars <= 30, "suppression {stars} far above Table 3's 22");
    }

    #[test]
    fn empty_sigma_reduces_to_plain_anonymization() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(3));
        let out = diva.run(&r, &[]).unwrap();
        assert_eq!(out.relation.n_rows(), 10);
        assert!(is_k_anonymous(&out.relation, 3));
        assert_eq!(out.stats.sigma_rows, 0);
        assert_eq!(out.stats.n_constraints, 0);
    }

    #[test]
    fn unsatisfiable_sigma_errors() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(2));
        let err = diva.run(&r, &[Constraint::single("ETH", "Asian", 4, 10)]).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "{err}");
    }

    #[test]
    fn invalid_k_errors() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(0));
        assert_eq!(diva.run(&r, &[]).unwrap_err(), DivaError::InvalidK);
    }

    #[test]
    fn invalid_constraint_errors() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(2));
        let err = diva.run(&r, &[Constraint::single("DIAG", "Seizure", 1, 2)]).unwrap_err();
        assert!(matches!(err, DivaError::Constraint(_)));
    }

    #[test]
    fn residual_folding_keeps_validity() {
        // k=3 with constraints covering 9 of 10 tuples leaves a single
        // residual tuple that must be folded into a cluster.
        let r = paper_table1();
        let sigma = vec![
            Constraint::single("GEN", "Female", 3, 5),
            Constraint::single("GEN", "Male", 3, 5),
        ];
        let diva = Diva::new(DivaConfig::with_k(3).strategy(Strategy::MinChoice));
        match diva.run(&r, &sigma) {
            Ok(out) => {
                assert_eq!(out.relation.n_rows(), 10);
                assert!(is_k_anonymous(&out.relation, 3));
                let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
                assert!(set.satisfied_by(&out.relation));
            }
            Err(DivaError::ResidualTooSmall { .. }) => {
                // Acceptable only if folding is genuinely impossible;
                // with Female/Male windows of width 2 it should not be.
                panic!("folding should succeed for this instance");
            }
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn custom_anonymizer_is_used() {
        let r = diva_datagen::medical(200, 3);
        let diva = Diva::with_anonymizer(DivaConfig::with_k(4), Box::new(diva_anonymize::Mondrian));
        let out = diva.run(&r, &[]).unwrap();
        assert!(is_k_anonymous(&out.relation, 4));
    }

    #[test]
    fn obs_enabled_records_phase_spans_and_counters() {
        let r = paper_table1();
        let obs = diva_obs::Obs::enabled();
        let diva = Diva::new(DivaConfig::with_k(2).obs(obs.clone()));
        let out = diva.run(&r, &example_sigma()).unwrap();
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        for required in [
            "diva.run",
            "diva.clustering",
            "diva.suppress",
            "diva.anonymize",
            "diva.integrate",
            "graph.build",
            "coloring.solve",
        ] {
            assert!(names.contains(&required), "{required} missing from {names:?}");
        }
        // RunStats timings are literally the span durations.
        let span_dur = |n: &str| snap.spans.iter().find(|s| s.name == n).map(|s| s.dur_us);
        assert_eq!(span_dur("diva.run"), Some(out.stats.t_total.as_micros() as u64));
        assert_eq!(span_dur("diva.clustering"), Some(out.stats.t_clustering.as_micros() as u64));
        // Phase spans nest under diva.run.
        let run_id = snap.spans.iter().find(|s| s.name == "diva.run").map(|s| s.id);
        for phase in ["diva.clustering", "diva.suppress", "diva.anonymize", "diva.integrate"] {
            let parent = snap.spans.iter().find(|s| s.name == phase).and_then(|s| s.parent);
            assert_eq!(parent, run_id, "{phase} must nest under diva.run");
        }
        // Per-strategy search counters and generation counters flushed.
        assert!(snap.counter("coloring.MaxFanOut.node_selections").unwrap_or(0) > 0);
        assert_eq!(
            snap.counter("candidates.generated"),
            Some(out.stats.candidates_generated as u64)
        );
        assert!(snap.histograms.iter().any(|(n, h)| n == "cluster.size" && h.count > 0));
    }

    #[test]
    fn obs_records_component_spans_for_multi_component_runs() {
        let r = paper_table1();
        // African {4,5} + Vancouver {5,6,7,9} chain into one
        // component; Calgary {0,1,2} is an island — two components.
        let sigma = vec![
            Constraint::single("ETH", "African", 2, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
            Constraint::single("CTY", "Calgary", 2, 3),
        ];
        let obs = diva_obs::Obs::enabled();
        Diva::new(DivaConfig::with_k(2).obs(obs.clone())).run(&r, &sigma).unwrap();
        let snap = obs.snapshot();
        // Gauge + size histogram from the graph build.
        let gauge = snap.gauges.iter().find(|(n, _)| n == "graph.components").map(|(_, v)| *v);
        assert_eq!(gauge, Some(2), "graph.components gauge");
        assert!(
            snap.histograms.iter().any(|(n, h)| n == "graph.component_size" && h.count == 2),
            "graph.component_size histogram"
        );
        // `diva.components` nests under `diva.clustering` and has one
        // `diva.component` child per component.
        let parent_of = |name: &str| snap.spans.iter().find(|s| s.name == name);
        let components_span = parent_of("diva.components").expect("diva.components span");
        let clustering_id = parent_of("diva.clustering").map(|s| s.id);
        assert_eq!(components_span.parent, clustering_id);
        let children: Vec<_> = snap.spans.iter().filter(|s| s.name == "diva.component").collect();
        assert_eq!(children.len(), 2, "one span per component");
        for c in &children {
            assert_eq!(c.parent, Some(components_span.id));
        }
        // Each component's search nests under its component span.
        let solves: Vec<_> = snap.spans.iter().filter(|s| s.name == "coloring.solve").collect();
        assert_eq!(solves.len(), 2, "one search per component");
        for s in &solves {
            assert!(
                children.iter().any(|c| Some(c.id) == s.parent),
                "coloring.solve must nest under a diva.component span"
            );
        }
    }

    #[test]
    fn disabled_obs_output_matches_enabled_byte_for_byte() {
        let r = paper_table1();
        let run = |obs: diva_obs::Obs| {
            let diva = Diva::new(DivaConfig::with_k(2).obs(obs));
            let out = diva.run(&r, &example_sigma()).unwrap();
            (format!("{:?}", out.relation), out.groups, out.source_rows)
        };
        assert_eq!(run(diva_obs::Obs::disabled()), run(diva_obs::Obs::enabled()));
    }

    #[test]
    fn disabled_provenance_output_matches_enabled_byte_for_byte() {
        let r = paper_table1();
        let run = |prov: diva_obs::Provenance| {
            let diva = Diva::new(DivaConfig::with_k(2).provenance(prov));
            let out = diva.run(&r, &example_sigma()).unwrap();
            (format!("{:?}", out.relation), out.groups, out.source_rows)
        };
        assert_eq!(run(diva_obs::Provenance::disabled()), run(diva_obs::Provenance::enabled()));
    }

    #[test]
    fn provenance_attribution_sums_to_star_count() {
        let r = paper_table1();
        let prov = diva_obs::Provenance::enabled();
        let diva = Diva::new(DivaConfig::with_k(2).provenance(prov.clone()));
        let out = diva.run(&r, &example_sigma()).unwrap();
        let attr = out.stats.attribution.clone().expect("enabled recorder populates RunStats");
        assert_eq!(attr.total(), out.relation.star_count() as u64);
        let log = prov.snapshot().unwrap();
        diva_obs::provenance::validate_log(&log).expect("log passes integrity validation");
        assert_eq!(log.cells.len() as u64, attr.total(), "one record per starred cell");
        assert_eq!(log.labels.len(), 3);
    }

    #[test]
    fn provenance_disabled_leaves_stats_attribution_none() {
        let r = paper_table1();
        let out = Diva::new(DivaConfig::with_k(2)).run(&r, &example_sigma()).unwrap();
        assert!(out.stats.attribution.is_none());
    }

    #[test]
    fn degraded_run_provenance_covers_every_star() {
        let r = diva_datagen::medical(300, 5);
        let sigma = vec![Constraint::single("ETH", "Asian", 5, 300)];
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig::with_k(4).provenance(prov.clone()).budget(crate::BudgetSpec {
            deadline: Some(Duration::ZERO),
            ..crate::BudgetSpec::default()
        });
        let out = Diva::new(config).run(&r, &sigma).unwrap();
        assert!(matches!(out.outcome, Outcome::Degraded { .. }));
        let attr = out.stats.attribution.clone().unwrap();
        assert_eq!(attr.total(), out.relation.star_count() as u64);
        diva_obs::provenance::validate_log(&prov.snapshot().unwrap()).unwrap();
    }

    #[test]
    fn budget_usage_counts_every_search_node() {
        // Several poll strides plus a remainder the polls never charge.
        let r = diva_datagen::medical(400, 25);
        let sigma = diva_constraints::generators::proportional(&r, 8, 0.7, 20);
        let config =
            DivaConfig::with_k(5).budget(crate::BudgetSpec::with_node_budget(u64::MAX / 2));
        let out = Diva::new(config).run(&r, &sigma).expect("solves within the budget");
        let tried = out.stats.coloring.assignments_tried;
        assert!(
            tried > 256 && !tried.is_multiple_of(256),
            "want a ragged multi-stride search: {tried}"
        );
        assert_eq!(out.stats.budget.expect("budget armed").nodes_explored, tried);
    }

    #[test]
    fn stats_timings_are_populated() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(2));
        let out = diva.run(&r, &example_sigma()).unwrap();
        assert!(out.stats.t_total >= out.stats.t_clustering);
        assert!(out.stats.candidates_generated > 0);
        assert_eq!(out.stats.n_constraints, 3);
    }

    #[test]
    fn l_diversity_extension_holds() {
        let r = diva_datagen::medical(600, 13);
        let sigma = vec![Constraint::single("ETH", "Caucasian", 20, 600)];
        let l = 3;
        let diva = Diva::new(DivaConfig::with_k(5).l_diversity(l));
        let out = diva.run(&r, &sigma).expect("satisfiable with 8 diagnoses");
        assert!(is_k_anonymous(&out.relation, 5));
        assert!(diva_anonymize::is_l_diverse(&out.relation, l));
        let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    #[test]
    fn entropy_and_recursive_variants_hold_end_to_end() {
        let r = diva_datagen::medical(600, 13);
        let sigma = vec![Constraint::single("ETH", "Caucasian", 20, 600)];
        for variant in
            [crate::config::LVariant::Entropy, crate::config::LVariant::Recursive { c: 1.5 }]
        {
            let config = DivaConfig::with_k(5).l_diversity(3).l_variant(variant);
            let model = config.diversity_model().expect("non-trivial");
            let out = Diva::new(config).run(&r, &sigma).expect("satisfiable with 8 diagnoses");
            assert!(is_k_anonymous(&out.relation, 5));
            assert!(model.holds(&out.relation), "{model} must hold on the published table");
        }
    }

    #[test]
    fn recursive_variant_validation() {
        let config = DivaConfig::with_k(2)
            .l_diversity(2)
            .l_variant(crate::config::LVariant::Recursive { c: 0.0 });
        assert!(config.validate().is_err());
        let err = Diva::new(config).run(&paper_table1(), &[]).unwrap_err();
        assert!(matches!(err, DivaError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn l_diversity_infeasible_errors() {
        // A relation whose sensitive column has a single value can
        // never be 2-diverse.
        let mut b = diva_relation::RelationBuilder::new(diva_relation::fixtures::medical_schema());
        for i in 0..20 {
            b.push_row(&[
                if i % 2 == 0 { "Female" } else { "Male" },
                "Asian",
                "30",
                "BC",
                "Vancouver",
                "Influenza", // single sensitive value everywhere
            ]);
        }
        let r = b.finish();
        let diva = Diva::new(DivaConfig::with_k(2).l_diversity(2));
        let err = diva.run(&r, &[]).unwrap_err();
        assert!(matches!(err, DivaError::PrivacyInfeasible { .. }), "{err}");
    }

    #[test]
    fn groups_partition_the_output() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(2));
        let out = diva.run(&r, &example_sigma()).unwrap();
        let mut seen = vec![false; out.relation.n_rows()];
        for g in &out.groups {
            for &row in g {
                assert!(!seen[row], "row {row} in two groups");
                seen[row] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn source_rows_cover_input_exactly_once() {
        let r = paper_table1();
        let diva = Diva::new(DivaConfig::with_k(2));
        let out = diva.run(&r, &example_sigma()).unwrap();
        let mut sorted = out.source_rows.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
