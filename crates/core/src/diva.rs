//! The DIVA pipeline (Algorithm 1): DiverseClustering → Suppress →
//! Anonymize → Integrate.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use diva_anonymize::{cluster_observed_interruptible, enforce_diversity, Anonymizer, KMember};
use diva_constraints::{Constraint, ConstraintSet};
use diva_relation::suppress::{suppress_clustering, Suppressed};
use diva_relation::{is_k_anonymous, Relation, RowId};

use diva_obs::live::Phase;
use diva_obs::provenance::{Cause, GroupOrigin, Log};
use diva_obs::{AllocDelta, SpanClose};

use crate::budget::{Budget, BudgetUsage, Controls, DegradeReason, Outcome, Stop};
use crate::candidates::CandidateSet;
use crate::coloring::ColoringStats;
use crate::config::{DivaConfig, Strategy};
use crate::error::DivaError;
use crate::graph::ConstraintGraph;
use crate::integrate::integrate;
use crate::pool;
use crate::provenance::Notes;

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
    /// allocator is live in this process (a binary installed
    /// `diva_obs::alloc::CountingAlloc` as its `#[global_allocator]`).
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
    /// The run's provenance notes until [`DivaResult::publish_done`]
    /// turns them into its log; `None` when the recorder is disabled.
    pub(crate) notes: Option<Notes>,
}

impl DivaResult {
    /// Publishes this result as the end of its run: derives its
    /// provenance log and its star attribution, puts the attribution
    /// in the stats and installs the log into `config`'s recorder, then
    /// publishes the attribution, the constraint verdicts and phase
    /// `Done` on `config.obs`. Called once per returned result — by
    /// [`Diva::run`], and by the portfolio after it picks the winner —
    /// so members racing on one handle never add up their verdicts or
    /// overwrite the log. A failed run publishes none of them.
    pub(crate) fn publish_done(&mut self, config: &DivaConfig) {
        let voided = self.stats.constraints_voided as u64;
        let satisfied = self.stats.n_constraints as u64 - voided;
        let Some(notes) = self.notes.take() else {
            config.obs.run_finished(satisfied, voided, None);
            return;
        };
        let log = notes.into_log(&self.relation, &self.groups, &self.source_rows);
        let attribution = diva_obs::StarAttribution::from_log(&log);
        config.obs.run_finished(satisfied, voided, Some((&log.labels, &attribution)));
        self.stats.attribution = Some(attribution);
        config.provenance.install(log);
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
    /// DIVA with the paper's default `Anonymize` step (k-member \[6\]).
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

    /// Solves the (k, Σ)-anonymization problem for `rel` under the
    /// configured [`DivaConfig::budget`], armed now. Without a budget
    /// the search is exact and unbounded; with one, exhaustion returns
    /// the degraded-mode result ([`Outcome::Degraded`]) instead of an
    /// error.
    pub fn run(&self, rel: &Relation, sigma: &[Constraint]) -> Result<DivaResult, DivaError> {
        let mut result = self.run_controlled(rel, sigma, &Controls::new(self.config.budget.arm()));
        if let Ok(out) = &mut result {
            out.publish_done(&self.config);
        }
        result
    }

    /// [`Diva::run`] under the caller's [`Controls`]: the portfolio
    /// entry point, where the cancellation flag and the (already
    /// armed, globally shared) budget both come from the caller — the
    /// configured budget spec is not armed again. It writes only the
    /// provenance log's meta line, and leaves the log, the live verdicts
    /// and the final phase to the caller, which publishes them once for
    /// the result it returns (`DivaResult::publish_done`).
    pub fn run_controlled(
        &self,
        rel: &Relation,
        sigma: &[Constraint],
        controls: &Controls,
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
        // Cancellation is checked before Σ is bound, so a cancelled
        // member reports `Cancelled` even when Σ would not bind.
        if controls.is_cancelled() {
            return Err(DivaError::Cancelled);
        }
        let set = ConstraintSet::bind(sigma, rel)?;
        obs.set_constraints_total(set.len() as u64);
        let mut notes = self.begin_provenance(rel, &set);
        if let Some(b) = controls.budget() {
            obs.set_budget_limits(b.spec().node_budget, b.spec().deadline);
        }
        let mut stats = RunStats { n_constraints: set.len(), ..RunStats::default() };
        // Every way off the exact path maps to its verdict here.
        let (table, outcome) =
            match self.exact_path(rel, &set, controls, &mut stats, notes.as_mut()) {
                Ok(table) => (table, Outcome::Exact),
                Err(Halt::Failed(e)) => return Err(e),
                Err(Halt::Stopped(Stop::Cancelled, _)) => return Err(DivaError::Cancelled),
                Err(Halt::Stopped(Stop::Degraded(reason), prefix)) => (
                    self.degrade(rel, &set, &prefix, &reason, &mut stats, notes.as_mut())?,
                    Outcome::Degraded { reason },
                ),
            };
        Ok(self.publish(run_span, controls.budget(), table, notes, stats, outcome))
    }

    /// The provenance notes of a run over `set`, after installing the
    /// log's meta line into the recorder; `None` when it is disabled.
    fn begin_provenance(&self, rel: &Relation, set: &ConstraintSet) -> Option<Notes> {
        let prov = &self.config.provenance;
        prov.is_enabled().then(|| {
            let labels = set.constraints().iter().map(|c| c.label()).collect();
            let (k, n_rows) = (self.config.k as u64, rel.n_rows() as u64);
            let meta = Log { k, n_rows, labels, ..Log::default() };
            prov.install(meta.clone());
            let cols = set.constraints().iter().map(|c| c.cols.clone()).collect();
            Notes { meta, cols, ..Notes::default() }
        })
    }

    /// The exact pipeline — DiverseClustering, Suppress, Anonymize (or
    /// the residual fold), Integrate — with a [`Controls::checkpoint`]
    /// at every phase boundary. A checkpoint that fires, or a search
    /// that degraded, halts it with the clustered-so-far prefix. Only a
    /// run that publishes writes its `notes`.
    fn exact_path(
        &self,
        rel: &Relation,
        set: &ConstraintSet,
        controls: &Controls,
        stats: &mut RunStats,
        notes: Option<&mut Notes>,
    ) -> Result<Suppressed, Halt> {
        let obs = &self.config.obs;
        if let Some(stop) = controls.checkpoint() {
            return Err(Halt::Stopped(stop, Prefix::default()));
        }

        // --- DiverseClustering (Algorithm 3). ---
        let mut clustering_span = obs.phase(Phase::Clustering);
        let graph_span = obs.span("graph.build");
        let graph = ConstraintGraph::build(set);
        graph_span.end();
        graph.record_to(obs);
        #[cfg(debug_assertions)]
        graph.validate().map_err(|detail| inv("BuildGraph", detail))?;
        // From here on a stop keeps the clustered prefix `S_Σ`.
        let stopped = |stop, s_sigma| Halt::Stopped(stop, Prefix::new(&graph, s_sigma));
        let checkpoint = |s_sigma: &[Vec<RowId>]| match controls.checkpoint() {
            Some(stop) => Err(stopped(stop, s_sigma.to_vec())),
            None => Ok(()),
        };
        let shuffle = (self.config.strategy == Strategy::Basic).then_some(self.config.seed);
        // Candidate enumeration is independent per constraint — the
        // natural "satisfy constraints in parallel" decomposition the
        // paper's future-work section sketches — so fan it out over the
        // worker pool, capped like every threaded stage, for
        // multi-constraint inputs. Each constraint's similarity sort is
        // uninterruptible, so the checkpoint reaches inside enumeration
        // via the stop probe after it; the search's entry poll then
        // converts the fired probe into a degradation or cancellation.
        let stop = || controls.checkpoint().is_some();
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
                self.config.workers(),
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
        // graph are independent sub-problems, solved concurrently in
        // place and merged (byte-identical to the monolithic search for
        // exact outcomes — DESIGN.md §12).
        let outcome = crate::decompose::solve_clustering(
            &graph,
            &candidates,
            &uppers,
            &labels,
            &self.config,
            controls,
        )?;
        stats.coloring = outcome.stats.clone();
        let mut s_sigma: Vec<Vec<RowId>> = outcome.clusters;
        #[cfg(debug_assertions)]
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
        note_alloc(stats, &close, |p| &mut p.clustering);
        if let Some(reason) = outcome.degraded {
            return Err(stopped(Stop::Degraded(reason), s_sigma));
        }

        let rest = residual(rel.n_rows(), &s_sigma);
        checkpoint(&s_sigma)?;

        // --- Anonymize (or fold a too-small residual), then Integrate. ---
        // `r_k` carries the input clusters its groups came from and
        // which of them absorbed a sibling during ℓ-diversity
        // enforcement; the fold path has no `R_k`, but a fold host.
        let (r_sigma, r_k, fold_host) = if !rest.is_empty() && rest.len() < self.config.k {
            // Fewer residual tuples than k: no k-anonymous R_k exists.
            // Fold them into an existing S_Σ cluster if some choice
            // keeps Σ satisfied (checked exhaustively), else fail.
            let anon_span = obs
                .phase(Phase::Anonymize)
                .attr("fold_residual", true)
                .attr("residual_rows", rest.len());
            let (folded, fold_host) = self.fold_residual(rel, set, &mut s_sigma, &rest)?;
            #[cfg(debug_assertions)]
            check_partition("Suppress", &folded.groups, folded.relation.n_rows(), true)?;
            let close = anon_span.end_profiled();
            stats.t_anonymize = close.dur;
            note_alloc(stats, &close, |p| &mut p.anonymize);
            stats.sigma_rows = s_sigma.iter().map(Vec::len).sum();
            (folded, None, Some(fold_host))
        } else {
            let suppress_span = obs.phase(Phase::Suppress).attr("clusters", s_sigma.len());
            let r_sigma = suppress_clustering(rel, &s_sigma);
            #[cfg(debug_assertions)]
            check_partition("Suppress", &r_sigma.groups, r_sigma.relation.n_rows(), true)?;
            let close = suppress_span.end_profiled();
            stats.t_suppress = close.dur;
            note_alloc(stats, &close, |p| &mut p.suppress);
            checkpoint(&s_sigma)?;
            let mut anon_span = obs.phase(Phase::Anonymize).attr("residual_rows", rest.len());
            let r_k = if rest.is_empty() {
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
                    note_alloc(stats, &close, |p| &mut p.anonymize);
                    // The probe fired on a checkpoint stop, and stops
                    // are sticky, so the checkpoint sees it again.
                    let stop = controls.checkpoint().unwrap_or(Stop::Cancelled);
                    return Err(stopped(stop, s_sigma));
                };
                let mut ldiv_merged = Vec::new();
                if let Some(model) = self.config.diversity_model() {
                    let infeasible = || DivaError::PrivacyInfeasible {
                        reason: format!(
                            "residual tuples cannot satisfy {model}: even a single merged \
                             class fails the check"
                        ),
                    };
                    (clusters, ldiv_merged) =
                        enforce_diversity(rel, &clusters, &model).ok_or_else(infeasible)?;
                }
                #[cfg(debug_assertions)]
                {
                    check_partition("Anonymize", &clusters, rel.n_rows(), false)?;
                    let total: usize = clusters.iter().map(Vec::len).sum();
                    if total != rest.len() {
                        return Err(Halt::Failed(inv(
                            "Anonymize",
                            format!("clusters cover {total} rows, residual has {}", rest.len()),
                        )));
                    }
                }
                Some((suppress_clustering(rel, &clusters), clusters, ldiv_merged))
            };
            anon_span.set_attr("groups", r_k.as_ref().map_or(0, |(rk, ..)| rk.groups.len()));
            let close = anon_span.end_profiled();
            stats.t_anonymize = close.dur;
            note_alloc(stats, &close, |p| &mut p.anonymize);
            checkpoint(&s_sigma)?;
            (r_sigma, r_k, None)
        };

        let int_span = obs.phase(Phase::Integrate);
        let out = integrate(&r_sigma, r_k.as_ref().map(|(rk, ..)| rk), set)?;
        #[cfg(debug_assertions)]
        check_partition("Integrate", &out.groups, out.relation.n_rows(), true)?;
        stats.integrate_repairs = out.repairs;
        obs.counter("integrate.repairs").add(out.repairs as u64);
        let close = int_span.end_profiled();
        stats.t_integrate = close.dur;
        note_alloc(stats, &close, |p| &mut p.integrate);

        debug_assert!(is_k_anonymous(&out.relation, self.config.k));
        debug_assert!(set.satisfied_by(&out.relation));
        debug_assert!(
            self.config.diversity_model().is_none_or(|m| m.holds(&out.relation)),
            "enforced diversity model must audit clean on the published table"
        );
        if let Some(notes) = notes {
            // A fold host's owners are those of the folded cluster: it
            // absorbed non-target rows.
            for (ci, c) in s_sigma.iter().enumerate() {
                let fold = fold_host == Some(ci);
                let origin = if fold { GroupOrigin::Fold } else { GroupOrigin::Sigma };
                notes.groups.push((origin, graph.owners(c).collect()));
            }
            if let Some((_, clusters, ldiv_merged)) = &r_k {
                for ci in 0..clusters.len() {
                    let merged = ldiv_merged.get(ci) == Some(&true);
                    let origin =
                        if merged { GroupOrigin::DiversityMerge } else { GroupOrigin::KMember };
                    notes.groups.push((origin, Vec::new()));
                }
            }
            notes.repairs = out.rounds;
        }
        Ok(Suppressed { relation: out.relation, groups: out.groups, source_rows: out.source_rows })
    }

    /// The publish tail every returned table shares: records the
    /// verdict on the run span, snapshots budget usage into the stats,
    /// and closes the run span (`t_total`).
    fn publish(
        &self,
        mut run_span: diva_obs::Span,
        budget: Option<&Arc<Budget>>,
        table: Suppressed,
        notes: Option<Notes>,
        mut stats: RunStats,
        outcome: Outcome,
    ) -> DivaResult {
        run_span.set_attr("stars", table.relation.star_count());
        match &outcome {
            Outcome::Exact => run_span.set_attr("outcome", "exact"),
            Outcome::Degraded { reason } => {
                run_span.set_attr("outcome", "degraded");
                run_span.set_attr("degrade_reason", reason.kind());
            }
        }
        stats.budget = budget.map(|b| b.usage());
        let close = run_span.end_profiled();
        stats.t_total = close.dur;
        note_alloc(&mut stats, &close, |p| &mut p.total);
        let Suppressed { relation, groups, source_rows } = table;
        DivaResult { relation, groups, source_rows, stats, outcome, notes }
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
            // Both bounds must survive the fold: the host may stop
            // retaining a target value (lowering its count), and a
            // residual row matching a value the host keeps raises it.
            // There is no `R_k`, so Integrate could not repair either.
            let ok = set.satisfied_by(&sup.relation)
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
        let run_span = self
            .config
            .obs
            .span("diva.run")
            .attr("rows", rel.n_rows())
            .attr("k", self.config.k)
            .attr("fallback", true);
        let set = ConstraintSet::bind(sigma, rel)?;
        let mut notes = self.begin_provenance(rel, &set);
        let mut stats = RunStats { n_constraints: set.len(), ..RunStats::default() };
        let table =
            self.degrade(rel, &set, &Prefix::default(), &reason, &mut stats, notes.as_mut())?;
        Ok(self.publish(run_span, None, table, notes, stats, Outcome::Degraded { reason }))
    }

    /// Builds the degraded-mode table (`DESIGN.md` §10) from the
    /// clustered-so-far `prefix`:
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
    fn degrade(
        &self,
        rel: &Relation,
        set: &ConstraintSet,
        prefix: &Prefix,
        reason: &DegradeReason,
        stats: &mut RunStats,
        notes: Option<&mut Notes>,
    ) -> Result<Suppressed, DivaError> {
        let obs = &self.config.obs;
        obs.counter(&format!("budget.exhausted.{}", reason.kind())).incr();
        let Prefix { clusters: partial, owners } = prefix;
        let mut span = obs
            .phase(Phase::Degrade)
            .attr("reason", reason.kind())
            .attr("prefix_clusters", partial.len());

        // A prefix cluster contributes its size to each of its owners
        // and zero to every other constraint: a mixed cluster gets the
        // target columns starred.
        let n_groups = partial.len();
        let contributes = |g: usize, ci: usize| owners[g].contains(&(ci as u32));
        let residual = residual(rel.n_rows(), partial);

        // Voiding fixpoint. Voiding only ever lowers counts, and each
        // pass either voids a cluster or terminates, so this is at most
        // |partial| passes. `voided[g]` holds the decision that voided
        // cluster `g` (the cause its star-block rows are charged to).
        let mut voided: Vec<Option<Cause>> = vec![None; n_groups];
        loop {
            let mut acted = false;
            for (ci, c) in set.constraints().iter().enumerate() {
                let count = |voided: &[Option<Cause>]| -> usize {
                    (0..n_groups)
                        .filter(|&g| voided[g].is_none() && contributes(g, ci))
                        .map(|g| partial[g].len())
                        .sum()
                };
                // Over the upper bound: void contributors (last first,
                // keeping earlier — typically larger-priority — ones)
                // until within bounds.
                while count(&voided) > c.upper {
                    if let Some(g) =
                        (0..n_groups).rev().find(|&g| voided[g].is_none() && contributes(g, ci))
                    {
                        voided[g] = Some(Cause::Voided { constraint: ci as u32 });
                        acted = true;
                    }
                }
                // Under the lower bound (but non-zero): the count is
                // unattainable, so void the constraint entirely.
                if (1..c.lower).contains(&count(&voided)) {
                    for g in (0..n_groups).filter(|&g| contributes(g, ci)) {
                        if voided[g].is_none() {
                            voided[g] = Some(Cause::Voided { constraint: ci as u32 });
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
                + (0..n_groups)
                    .filter(|&g| voided[g].is_some())
                    .map(|g| partial[g].len())
                    .sum::<usize>();
            if star_rows > 0 && star_rows < self.config.k {
                if let Some(g) = (0..n_groups).rev().find(|&g| voided[g].is_none()) {
                    voided[g] = Some(Cause::DegradeMerge { reason: "block_size" });
                    continue;
                }
            }
            break;
        }

        // Kept clusters are suppressed normally.
        let kept: Vec<usize> =
            (0..n_groups).filter(|&g| voided[g].is_none() && !partial[g].is_empty()).collect();
        let kept_clusters: Vec<Vec<RowId>> = kept.iter().map(|&g| partial[g].clone()).collect();
        let mut table = suppress_clustering(rel, &kept_clusters);
        // Then one fully-suppressed block for voided + residual rows.
        let star_src: Vec<RowId> = partial
            .iter()
            .zip(&voided)
            .filter(|(_, cause)| cause.is_some())
            .flat_map(|(c, _)| c.iter().copied())
            .chain(residual.iter().copied())
            .collect();
        if !star_src.is_empty() {
            let mut block = rel.select(&star_src);
            for row in 0..block.n_rows() {
                for &c in rel.schema().qi_cols() {
                    block.suppress_cell(row, c);
                }
            }
            let start = table.source_rows.len();
            table.relation.append(&block);
            table.source_rows.extend_from_slice(&star_src);
            table.groups.push((start..table.source_rows.len()).collect());
        }
        if let Some(notes) = notes {
            notes.groups = kept.iter().map(|&g| (GroupOrigin::Sigma, owners[g].clone())).collect();
            if !star_src.is_empty() {
                notes.groups.push((GroupOrigin::StarBlock, Vec::new()));
            }
            // Each star-block row carries the decision that sent it
            // there: the void that consumed its cluster, or a structural
            // degrade merge for residual rows.
            notes.star_block = partial
                .iter()
                .zip(&voided)
                .filter_map(|(c, cause)| Some(std::iter::repeat_n(cause.clone()?, c.len())))
                .flatten()
                .chain(residual.iter().map(|_| Cause::DegradeMerge { reason: "residual" }))
                .collect();
        }
        #[cfg(debug_assertions)]
        check_partition("Degrade", &table.groups, table.relation.n_rows(), true)?;
        debug_assert!(
            rel.n_rows() < self.config.k || is_k_anonymous(&table.relation, self.config.k)
        );
        debug_assert!(set.constraints().iter().all(|c| {
            let n = c.count_in(&table.relation);
            n == 0 || (c.lower..=c.upper).contains(&n)
        }));

        stats.sigma_rows = table.source_rows.len() - star_src.len();
        // A constraint no kept cluster contributes to is voided; any
        // other is within bounds by the fixpoint, i.e. satisfied.
        stats.constraints_voided = (0..set.len())
            .filter(|&ci| (0..n_groups).all(|g| voided[g].is_some() || !contributes(g, ci)))
            .count();
        span.set_attr("voided_clusters", voided.iter().filter(|v| v.is_some()).count());
        span.set_attr("star_rows", star_src.len());
        note_alloc(stats, &span.end_profiled(), |p| &mut p.degrade);
        Ok(table)
    }
}

/// The clustered-so-far prefix a stopped run keeps for the degraded
/// mode: its clusters and, parallel to them, the constraints each
/// contributes to ([`ConstraintGraph::owners`] on the run's graph).
/// A stop before the search keeps an empty prefix.
#[derive(Default)]
struct Prefix {
    clusters: Vec<Vec<RowId>>,
    owners: Vec<Vec<u32>>,
}

impl Prefix {
    fn new(graph: &ConstraintGraph, clusters: Vec<Vec<RowId>>) -> Self {
        let owners = clusters.iter().map(|c| graph.owners(c).collect()).collect();
        Self { clusters, owners }
    }
}

/// The rows of an `n_rows`-row relation that no cluster covers,
/// ascending (Algorithm 1, line 4: `R := R \ C_i`).
fn residual(n_rows: usize, clusters: &[Vec<RowId>]) -> Vec<RowId> {
    let mut covered = vec![false; n_rows];
    for &r in clusters.iter().flatten() {
        covered[r] = true;
    }
    (0..n_rows).filter(|&r| !covered[r]).collect()
}

/// Why [`Diva::exact_path`] stopped before publishing.
enum Halt {
    /// A checkpoint fired, or the search degraded: carries the
    /// clustered-so-far prefix the degraded mode keeps.
    Stopped(Stop, Prefix),
    /// The run failed.
    Failed(DivaError),
}

impl From<DivaError> for Halt {
    fn from(e: DivaError) -> Self {
        Halt::Failed(e)
    }
}

/// Shorthand for [`DivaError::InvariantViolated`] at a pipeline phase.
#[cfg(debug_assertions)]
fn inv(phase: &str, detail: String) -> DivaError {
    DivaError::InvariantViolated { phase: phase.into(), detail }
}

/// Phase-boundary invariant: `groups` reference rows `< n_rows` and
/// are pairwise disjoint; with `exhaustive` they also cover every row.
#[cfg(debug_assertions)]
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

    use diva_anonymize::DiversityModel;
    use diva_relation::fixtures::{medical_schema, paper_table1};
    use diva_relation::suppress::is_refinement;
    use diva_relation::RelationBuilder;

    fn example_sigma() -> Vec<Constraint> {
        vec![
            Constraint::single("ETH", "Asian", 2, 5),
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ]
    }

    #[test]
    fn fold_skips_a_host_it_would_push_over_an_upper_bound() {
        let mut b = RelationBuilder::new(medical_schema());
        for row in [
            ["Female", "Asian", "30", "BC", "Vancouver", "Flu"],
            ["Female", "Asian", "30", "BC", "Vancouver", "Flu"],
            ["Female", "African", "40", "ON", "Toronto", "Flu"],
            ["Male", "African", "40", "ON", "Toronto", "Flu"],
            ["Male", "African", "40", "ON", "Toronto", "Flu"],
        ] {
            b.push_row(&row);
        }
        let rel = b.finish();
        let sigma =
            [Constraint::single("GEN", "Female", 2, 2), Constraint::single("ETH", "African", 2, 3)];
        let set = ConstraintSet::bind(&sigma, &rel).unwrap();
        let mut s_sigma = vec![vec![0, 1], vec![3, 4]];
        let diva = Diva::new(DivaConfig::with_k(2));
        let (sup, host) = diva.fold_residual(&rel, &set, &mut s_sigma, &[2]).unwrap();
        // Host 0 keeps GEN uniform, so row 2 would make 3 Females
        // against GEN[Female]'s upper bound 2. Host 1 keeps ETH, and
        // 3 Africans is within 2..3.
        assert_eq!(host, 1);
        assert_eq!(s_sigma, vec![vec![0, 1], vec![2, 3, 4]]);
        assert!(set.satisfied_by(&sup.relation));
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
        // k=3 with GEN[Female] and GEN[Male]: a strategy whose Σ
        // clusters leave fewer than k residual tuples must fold them
        // into a Σ cluster (Basic does on this instance).
        let r = paper_table1();
        let sigma = vec![
            Constraint::single("GEN", "Female", 3, 5),
            Constraint::single("GEN", "Male", 3, 5),
        ];
        let set = ConstraintSet::bind(&sigma, &r).unwrap();
        let mut folded = 0;
        for strategy in Strategy::all() {
            let prov = diva_obs::Provenance::enabled();
            let config = DivaConfig::with_k(3).strategy(strategy).provenance(prov.clone());
            let out =
                Diva::new(config).run(&r, &sigma).unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(out.relation.n_rows(), 10);
            assert!(is_k_anonymous(&out.relation, 3), "{strategy}");
            let published = ConstraintSet::bind(&sigma, &out.relation).unwrap();
            assert!(published.satisfied_by(&out.relation), "{strategy}");
            let log = prov.snapshot().unwrap();
            let hosts: Vec<_> =
                log.groups.iter().filter(|g| g.origin == GroupOrigin::Fold).collect();
            let [host] = hosts[..] else {
                assert!(hosts.is_empty(), "{strategy}: {} fold groups", hosts.len());
                continue;
            };
            folded += 1;
            // The host is owned by exactly the constraints that target
            // every one of its rows in the input relation.
            let owners: Vec<u32> = (0..set.len() as u32)
                .filter(|&i| {
                    host.rows
                        .iter()
                        .all(|&row| set.constraints()[i as usize].is_target(row as RowId))
                })
                .collect();
            assert_eq!(host.owners, owners, "{strategy}: fold host {:?}", host.rows);
            let attr = diva_obs::provenance::validate_log(&log)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(attr.total(), out.relation.star_count() as u64, "{strategy}");
        }
        assert!(folded > 0, "no strategy folded the residual");
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

    /// With both handles enabled, a run publishes the attribution it
    /// returns as the summary counters and the live per-constraint
    /// cell; a failed run publishes none.
    #[test]
    fn publish_done_publishes_the_returned_attribution() {
        let r = paper_table1();
        let obs = diva_obs::Obs::enabled();
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig::with_k(2).obs(obs.clone()).provenance(prov.clone());
        let out = Diva::new(config).run(&r, &example_sigma()).unwrap();
        let attr = out.stats.attribution.expect("enabled recorder populates RunStats");
        let labels = prov.snapshot().expect("recorded").labels;
        let live = obs.live().expect("enabled").constraint_stars;
        let expected: Vec<_> = labels.into_iter().zip(attr.per_constraint.clone()).collect();
        assert_eq!(live, expected);
        let snap = obs.snapshot();
        for (label, stars) in &live {
            let counter = format!("provenance.constraint_stars.{label}");
            assert_eq!(snap.counter(&counter), Some(*stars), "{label}");
        }
        assert_eq!(snap.counter("provenance.stars.k_anonymity"), Some(attr.k_anonymity));
        assert_eq!(snap.counter("provenance.stars.degrade"), Some(attr.degrade));

        let obs = diva_obs::Obs::enabled();
        let config = DivaConfig::with_k(2).obs(obs.clone()).provenance(prov);
        let sigma = [Constraint::single("ETH", "Asian", 4, 10)];
        Diva::new(config).run(&r, &sigma).unwrap_err();
        assert!(obs.live().expect("enabled").constraint_stars.is_empty());
        assert_eq!(obs.snapshot().counter("provenance.stars.k_anonymity"), None);
    }

    #[test]
    fn portfolio_installs_the_winner_log() {
        let r = paper_table1();
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig::with_k(2).provenance(prov.clone());
        let out = crate::run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        let attr = out.stats.attribution.clone().expect("winner carries attribution");
        assert_eq!(attr.total(), out.relation.star_count() as u64);
        // The winner's log was installed into the caller's handle and
        // matches the published result.
        let log = prov.snapshot().expect("caller handle holds the winner log");
        diva_obs::provenance::validate_log(&log).unwrap();
        assert_eq!(log.cells.len() as u64, attr.total());
        assert_eq!(log.n_rows, r.n_rows() as u64);
    }

    /// A run that fails after Σ binds leaves the meta line it bound and
    /// nothing else, whichever step failed; so does a portfolio whose
    /// members all fail (each member writes the same meta line).
    #[test]
    fn a_failed_run_leaves_only_the_bound_meta_line() {
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Asian", 4, 10)];
        let meta = diva_obs::provenance::Log {
            k: 2,
            n_rows: 10,
            labels: vec!["ETH[Asian]".to_string()],
            ..diva_obs::provenance::Log::default()
        };
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig::with_k(2).provenance(prov.clone());
        let err = Diva::new(config.clone()).run(&r, &sigma).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "{err}");
        assert_eq!(prov.snapshot(), Some(meta.clone()));
        let err = crate::run_portfolio(&r, &sigma, &config, 2).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }), "{err}");
        assert_eq!(prov.snapshot(), Some(meta));
        // The ℓ-diversity enforcement fails after the clustering.
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig::with_k(2)
            .diversity(DiversityModel::Distinct { l: 9 })
            .provenance(prov.clone());
        let err = Diva::new(config).run(&r, &[]).unwrap_err();
        assert!(matches!(err, DivaError::PrivacyInfeasible { .. }), "{err}");
        let meta = diva_obs::provenance::Log { k: 2, n_rows: 10, ..Default::default() };
        assert_eq!(prov.snapshot(), Some(meta));
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
        // Several poll strides plus a remainder charged when the solve
        // ends.
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
        let model = DiversityModel::Distinct { l: 3 };
        let diva = Diva::new(DivaConfig::with_k(5).diversity(model));
        let out = diva.run(&r, &sigma).expect("satisfiable with 8 diagnoses");
        assert!(is_k_anonymous(&out.relation, 5));
        assert!(model.holds(&out.relation));
        let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    #[test]
    fn entropy_and_recursive_variants_hold_end_to_end() {
        let r = diva_datagen::medical(600, 13);
        let sigma = vec![Constraint::single("ETH", "Caucasian", 20, 600)];
        for model in [DiversityModel::Entropy { l: 3 }, DiversityModel::Recursive { c: 1.5, l: 3 }]
        {
            let config = DivaConfig::with_k(5).diversity(model);
            assert_eq!(config.diversity_model(), Some(model), "non-trivial");
            let out = Diva::new(config).run(&r, &sigma).expect("satisfiable with 8 diagnoses");
            assert!(is_k_anonymous(&out.relation, 5));
            assert!(model.holds(&out.relation), "{model} must hold on the published table");
        }
    }

    #[test]
    fn recursive_variant_validation() {
        let config = DivaConfig::with_k(2).diversity(DiversityModel::Recursive { c: 0.0, l: 2 });
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
        let diva = Diva::new(DivaConfig::with_k(2).diversity(DiversityModel::Distinct { l: 2 }));
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
