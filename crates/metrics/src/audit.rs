//! `diva audit` — a first-class privacy-audit suite.
//!
//! Scores any published relation against the standard privacy-model
//! zoo: k-anonymity, distinct/entropy ℓ-diversity, recursive
//! (c,ℓ)-diversity, (α,k)-anonymity, basic/enhanced β-likeness,
//! δ-disclosure privacy, and t-closeness (EMD over the ordered-value
//! ground distance). Each checker returns a typed [`AuditReport`]
//! carrying the *achieved* parameter, the witnessing worst
//! equivalence class, and per-class detail.
//!
//! The checkers are written **independently of the solver**: they
//! share no code with `diva-anonymize`'s enforcement routines (the
//! crate-layering gate forbids the dependency), so they double as an
//! oracle for the differential harness — the enforcer claims, the
//! auditor verifies. The per-class statistics follow the pycanon
//! conventions (see `SNIPPETS.md`, Snippet 3) and the definitions
//! surveyed by Xiao/Yi/Tao (*The Hardness and Approximation
//! Algorithms for L-Diversity*); entropy ℓ-diversity is reported as
//! the **perplexity** `exp(H)` of each class's sensitive
//! distribution, which is invariant under the choice of logarithm
//! base and directly comparable to `ℓ` (see [`crate::stats`]).
//!
//! Performance: the substrate is built once per relation in
//! `O(cols · n log n)` by sorting row ids (no per-row hashing), and
//! classes are stored in CSR layout; every checker is then a linear
//! scan over run-length-encoded class histograms, so auditing a
//! 100k-row table runs all nine checkers in well under a second.

use diva_obs::{json, Obs};
use diva_relation::{qi_sorted, AttrRole, Relation, RowId};

/// Tolerance for floating-point parameter comparisons: achieved
/// values are compared against requested ones with this slack so that
/// e.g. an enforcement pass that achieves exactly `ln l` of entropy
/// still audits as satisfied.
pub const EPS: f64 = 1e-9;

/// The privacy models the audit suite can score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// k-anonymity: every equivalence class has ≥ k rows.
    KAnonymity,
    /// Distinct ℓ-diversity: every class has ≥ ℓ distinct sensitive values.
    DistinctL,
    /// Entropy ℓ-diversity: every class's sensitive-value perplexity
    /// `exp(H)` is ≥ ℓ.
    EntropyL,
    /// Recursive (c,ℓ)-diversity: in every class, the most frequent
    /// sensitive value satisfies `r₁ ≤ c·(r_ℓ + … + r_m)`.
    RecursiveCL,
    /// (α,k)-anonymity: the α half — no sensitive value exceeds
    /// frequency α within any class (the k half is [`ModelKind::KAnonymity`]).
    AlphaK,
    /// Basic β-likeness: within-class frequency `q` of any sensitive
    /// value exceeds its table frequency `p` by at most `(q−p)/p ≤ β`.
    BasicBeta,
    /// Enhanced β-likeness: as basic, but the per-value budget is
    /// `min(β, −ln p)` (pycanon's convention for the achieved value).
    EnhancedBeta,
    /// δ-disclosure privacy: `|ln(q/p)| ≤ δ` for every sensitive value
    /// present in a class.
    DeltaDisclosure,
    /// t-closeness: EMD between every class's sensitive distribution
    /// and the table's is ≤ t, under the ordered-value ground distance.
    TCloseness,
}

/// Whether a model's achieved parameter must stay at least or at most
/// the requested one to satisfy it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Satisfied when `achieved ≥ requested` (k, ℓ variants).
    AtLeast,
    /// Satisfied when `achieved ≤ requested` (c, α, β, δ, t).
    AtMost,
}

impl ModelKind {
    /// Stable machine-readable key used in JSON output and table rows.
    pub fn key(self) -> &'static str {
        match self {
            ModelKind::KAnonymity => "k_anonymity",
            ModelKind::DistinctL => "distinct_l",
            ModelKind::EntropyL => "entropy_l",
            ModelKind::RecursiveCL => "recursive_cl",
            ModelKind::AlphaK => "alpha_k",
            ModelKind::BasicBeta => "basic_beta",
            ModelKind::EnhancedBeta => "enhanced_beta",
            ModelKind::DeltaDisclosure => "delta_disclosure",
            ModelKind::TCloseness => "t_closeness",
        }
    }

    /// Which way the achieved parameter is compared to the requested one.
    pub fn direction(self) -> Direction {
        match self {
            ModelKind::KAnonymity | ModelKind::DistinctL | ModelKind::EntropyL => {
                Direction::AtLeast
            }
            _ => Direction::AtMost,
        }
    }

    /// All models, in report order.
    pub const ALL: [ModelKind; 9] = [
        ModelKind::KAnonymity,
        ModelKind::DistinctL,
        ModelKind::EntropyL,
        ModelKind::RecursiveCL,
        ModelKind::AlphaK,
        ModelKind::BasicBeta,
        ModelKind::EnhancedBeta,
        ModelKind::DeltaDisclosure,
        ModelKind::TCloseness,
    ];
}

/// Per-class audit detail: the class's statistic under one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDetail {
    /// Class index (classes are numbered by first appearance in the
    /// relation, so ids are stable for a given input).
    pub class: usize,
    /// Number of rows in the class.
    pub size: usize,
    /// The per-class statistic (e.g. class size for k-anonymity,
    /// perplexity for entropy-ℓ). Non-finite for a recursive-(c,ℓ)
    /// class whose ℓ-tail is empty.
    pub value: f64,
}

/// The witnessing worst equivalence class of a report: the class that
/// determines the achieved parameter, with its decoded QI signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// Class index of the witness.
    pub class: usize,
    /// Number of rows in the witness class.
    pub size: usize,
    /// The witness's statistic (equals the achieved parameter).
    pub value: f64,
    /// Decoded QI values of the class, in schema QI-column order
    /// (suppressed cells display as `★`).
    pub qi: Vec<String>,
    /// Row ids of the witnessing class, ascending — the concrete rows
    /// whose statistic determines the achieved parameter.
    pub rows: Vec<RowId>,
}

/// Result of auditing a relation against one privacy model.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Which model was audited.
    pub model: ModelKind,
    /// The achieved parameter: the tightest value of the model's
    /// parameter that the table satisfies (min over classes for
    /// [`Direction::AtLeast`] models, max for [`Direction::AtMost`]).
    /// Non-finite (vacuous / unsatisfiable) values render as `null`
    /// in JSON.
    pub achieved: f64,
    /// The ℓ parameter of recursive (c,ℓ)-diversity; `None` for every
    /// other model.
    pub l: Option<usize>,
    /// The requested parameter, when the audit was given one.
    pub requested: Option<f64>,
    /// Whether the achieved parameter meets the requested one (within
    /// [`EPS`]); `None` when nothing was requested.
    pub satisfied: Option<bool>,
    /// The worst equivalence class (absent for an empty relation).
    pub worst: Option<Witness>,
    /// Per-class detail, in class-id order.
    pub classes: Vec<ClassDetail>,
}

impl AuditReport {
    /// Attaches a requested parameter and computes [`AuditReport::satisfied`].
    pub fn with_requested(mut self, requested: f64) -> Self {
        self.satisfied = Some(match self.model.direction() {
            Direction::AtLeast => self.achieved >= requested - EPS,
            Direction::AtMost => self.achieved <= requested + EPS,
        });
        self.requested = Some(requested);
        self
    }
}

/// Requested parameters for an audit run. Every field is optional:
/// the suite always *scores* all nine models, and additionally passes
/// a satisfied/violated verdict for each parameter that is set.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSpec {
    /// Required k for k-anonymity.
    pub k: Option<usize>,
    /// Required ℓ for distinct ℓ-diversity.
    pub distinct_l: Option<usize>,
    /// Required ℓ for entropy ℓ-diversity (compared to the perplexity).
    pub entropy_l: Option<f64>,
    /// Required c for recursive (c,ℓ)-diversity.
    pub recursive_c: Option<f64>,
    /// The ℓ used by the recursive (c,ℓ) checker (also when scoring
    /// without a requested c). Values < 1 are treated as 1.
    pub recursive_l: usize,
    /// Required α for (α,k)-anonymity.
    pub alpha: Option<f64>,
    /// Required β for basic β-likeness.
    pub basic_beta: Option<f64>,
    /// Required β for enhanced β-likeness.
    pub enhanced_beta: Option<f64>,
    /// Required δ for δ-disclosure privacy.
    pub delta: Option<f64>,
    /// Required t for t-closeness.
    pub t: Option<f64>,
}

impl Default for AuditSpec {
    fn default() -> Self {
        AuditSpec {
            k: None,
            distinct_l: None,
            entropy_l: None,
            recursive_c: None,
            recursive_l: 2,
            alpha: None,
            basic_beta: None,
            enhanced_beta: None,
            delta: None,
            t: None,
        }
    }
}

/// The audit substrate: equivalence classes (maximal QI-groups) in
/// CSR layout plus run-length-encoded sensitive-value histograms,
/// built once and shared by all nine checkers.
pub struct Audit<'a> {
    rel: &'a Relation,
    obs: Obs,
    /// CSR offsets: class `c` owns `rows[offsets[c]..offsets[c+1]]`.
    offsets: Vec<usize>,
    /// Row ids, grouped by class, ascending within each class.
    rows: Vec<RowId>,
    /// Per-class sensitive histogram: `(order_rank, count)` sorted by
    /// rank, where ranks index the ordered sensitive domain.
    hists: Vec<Vec<(u32, u32)>>,
    /// Whole-table sensitive histogram, indexed by order rank.
    global: Vec<u32>,
}

impl<'a> Audit<'a> {
    /// Builds the substrate for `rel` without recording observability.
    pub fn new(rel: &'a Relation) -> Self {
        Self::with_obs(rel, &Obs::disabled())
    }

    /// Builds the substrate for `rel`, recording `audit.*` spans on `obs`.
    pub fn with_obs(rel: &'a Relation, obs: &Obs) -> Self {
        let span = obs.span("audit.build");
        let n = rel.n_rows();
        let qi_cols = rel.schema().qi_cols().to_vec();
        let sens_cols: Vec<usize> = (0..rel.schema().arity())
            .filter(|&c| rel.schema().attribute(c).role() == AttrRole::Sensitive)
            .collect();

        // Equivalence classes: sort row ids by QI code tuple, scan for
        // boundaries, then renumber classes by first appearance so ids
        // are stable and human-meaningful.
        let rows = qi_sorted(rel, (0..n).collect());
        let same_class =
            |a: RowId, b: RowId| qi_cols.iter().all(|&c| rel.code(a, c) == rel.code(b, c));
        let mut spans_by_first: Vec<(RowId, usize, usize)> = Vec::new();
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && same_class(rows[start], rows[end]) {
                end += 1;
            }
            spans_by_first.push((rows[start], start, end));
            start = end;
        }
        spans_by_first.sort_unstable_by_key(|&(first, _, _)| first);
        let mut csr_rows = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(spans_by_first.len() + 1);
        offsets.push(0);
        for &(_, s, e) in &spans_by_first {
            csr_rows.extend_from_slice(&rows[s..e]);
            offsets.push(csr_rows.len());
        }

        // Sensitive domain: dense ids by sorting rows on the sensitive
        // tuple, then an order rank per id (the EMD ground order) —
        // numeric where the whole column parses as a number, else
        // lexicographic, column-major for multi-attribute domains.
        let (row_rank, n_svals) = sensitive_ranks(rel, &sens_cols);

        let mut global = vec![0u32; n_svals];
        for &rank in &row_rank {
            global[rank as usize] += 1;
        }
        let n_classes = offsets.len() - 1;
        let mut hists = Vec::with_capacity(n_classes);
        let mut scratch: Vec<u32> = Vec::new();
        for c in 0..n_classes {
            scratch.clear();
            scratch.extend(csr_rows[offsets[c]..offsets[c + 1]].iter().map(|&r| row_rank[r]));
            scratch.sort_unstable();
            let mut hist: Vec<(u32, u32)> = Vec::new();
            for &rank in scratch.iter() {
                match hist.last_mut() {
                    Some((r, cnt)) if *r == rank => *cnt += 1,
                    _ => hist.push((rank, 1)),
                }
            }
            hists.push(hist);
        }
        let mut span = span;
        span.set_attr("rows", n);
        span.set_attr("classes", n_classes);
        span.set_attr("sensitive_values", n_svals);
        span.end();
        Audit { rel, obs: obs.clone(), offsets, rows: csr_rows, hists, global }
    }

    /// Number of equivalence classes (maximal QI-groups).
    pub fn n_classes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of audited rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows of class `c`, ascending.
    pub fn class_rows(&self, c: usize) -> &[RowId] {
        &self.rows[self.offsets[c]..self.offsets[c + 1]]
    }

    fn fold(&self, model: ModelKind, f: impl Fn(&[(u32, u32)], usize) -> f64) -> AuditReport {
        let span = self.obs.span("audit.check").attr("model", model.key());
        let dir = model.direction();
        let mut classes = Vec::with_capacity(self.n_classes());
        let mut worst: Option<usize> = None;
        for c in 0..self.n_classes() {
            let size = self.offsets[c + 1] - self.offsets[c];
            let value = f(&self.hists[c], size);
            classes.push(ClassDetail { class: c, size, value });
            let beats = match (worst, dir) {
                (None, _) => true,
                (Some(w), Direction::AtLeast) => value < classes[w].value,
                (Some(w), Direction::AtMost) => value > classes[w].value,
            };
            if beats {
                worst = Some(c);
            }
        }
        let achieved = match (worst, dir) {
            (Some(w), _) => classes[w].value,
            // Empty relation: vacuously satisfied at any parameter.
            (None, Direction::AtLeast) => f64::INFINITY,
            (None, Direction::AtMost) => 0.0,
        };
        let worst = worst.map(|c| Witness {
            class: c,
            size: classes[c].size,
            value: classes[c].value,
            qi: self.qi_signature(c),
            rows: self.class_rows(c).to_vec(),
        });
        let mut span = span;
        if achieved.is_finite() {
            span.set_attr("achieved", achieved);
        }
        span.end();
        AuditReport { model, achieved, l: None, requested: None, satisfied: None, worst, classes }
    }

    /// Decoded QI values of class `c`'s representative row, in schema
    /// QI-column order.
    pub fn qi_signature(&self, c: usize) -> Vec<String> {
        let rows = self.class_rows(c);
        let Some(&rep) = rows.first() else {
            return Vec::new();
        };
        self.rel
            .schema()
            .qi_cols()
            .iter()
            .map(|&col| self.rel.value(rep, col).as_str().to_string())
            .collect()
    }

    /// k-anonymity: per-class value is the class size; achieved k is
    /// the minimum.
    pub fn k_anonymity(&self) -> AuditReport {
        self.fold(ModelKind::KAnonymity, |_, size| size as f64)
    }

    /// Distinct ℓ-diversity: per-class value is the number of distinct
    /// sensitive values; achieved ℓ is the minimum.
    pub fn distinct_l(&self) -> AuditReport {
        self.fold(ModelKind::DistinctL, |hist, _| hist.len() as f64)
    }

    /// Entropy ℓ-diversity: per-class value is the perplexity
    /// `exp(−Σ qᵢ ln qᵢ)` of the class's sensitive distribution —
    /// base-invariant and directly comparable to ℓ (a class with ℓ
    /// equally-likely sensitive values scores exactly ℓ). Achieved ℓ
    /// is the minimum.
    pub fn entropy_l(&self) -> AuditReport {
        self.fold(ModelKind::EntropyL, |hist, size| {
            crate::stats::perplexity_u32(hist.iter().map(|&(_, c)| c), size)
        })
    }

    /// Recursive (c,ℓ)-diversity for the given ℓ: per-class value is
    /// `r₁ / (r_ℓ + … + r_m)` over the descending sensitive counts
    /// `r₁ ≥ … ≥ r_m` (non-finite when the class has fewer than ℓ
    /// distinct values — no c satisfies it). Achieved c is the maximum.
    pub fn recursive_cl(&self, l: usize) -> AuditReport {
        let l = l.max(1);
        let mut report = self.fold(ModelKind::RecursiveCL, |hist, _| {
            let mut counts: Vec<u32> = hist.iter().map(|&(_, c)| c).collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let r1 = counts.first().copied().unwrap_or(0) as f64;
            let tail: u64 = counts.iter().skip(l - 1).map(|&c| c as u64).sum();
            if tail == 0 {
                f64::INFINITY
            } else {
                r1 / tail as f64
            }
        });
        report.l = Some(l);
        report
    }

    /// The α half of (α,k)-anonymity: per-class value is the largest
    /// within-class frequency of any sensitive value; achieved α is
    /// the maximum. The k half is exactly [`Audit::k_anonymity`].
    pub fn alpha_k(&self) -> AuditReport {
        self.fold(ModelKind::AlphaK, |hist, size| {
            let max = hist.iter().map(|&(_, c)| c).max().unwrap_or(0);
            if size == 0 {
                0.0
            } else {
                max as f64 / size as f64
            }
        })
    }

    /// Basic β-likeness: per-class value is `max (qᵢ−pᵢ)/pᵢ` over
    /// sensitive values whose within-class frequency `qᵢ` exceeds the
    /// table frequency `pᵢ` (0 when none does). Achieved β is the
    /// maximum.
    pub fn basic_beta(&self) -> AuditReport {
        let n = self.n_rows() as f64;
        let global = &self.global;
        self.fold(ModelKind::BasicBeta, |hist, size| {
            let mut worst = 0.0f64;
            for &(rank, count) in hist {
                let q = count as f64 / size as f64;
                let p = global[rank as usize] as f64 / n;
                if q > p {
                    worst = worst.max((q - p) / p);
                }
            }
            worst
        })
    }

    /// Enhanced β-likeness: as basic, but each value's excess is
    /// capped at `−ln pᵢ` before taking the maximum (pycanon's
    /// convention for the achieved parameter). Achieved β is the
    /// maximum.
    pub fn enhanced_beta(&self) -> AuditReport {
        let n = self.n_rows() as f64;
        let global = &self.global;
        self.fold(ModelKind::EnhancedBeta, |hist, size| {
            let mut worst = 0.0f64;
            for &(rank, count) in hist {
                let q = count as f64 / size as f64;
                let p = global[rank as usize] as f64 / n;
                if q > p {
                    worst = worst.max(((q - p) / p).min(-p.ln()));
                }
            }
            worst
        })
    }

    /// δ-disclosure privacy: per-class value is `max |ln(qᵢ/pᵢ)|` over
    /// sensitive values present in the class. Achieved δ is the
    /// maximum.
    pub fn delta_disclosure(&self) -> AuditReport {
        let n = self.n_rows() as f64;
        let global = &self.global;
        self.fold(ModelKind::DeltaDisclosure, |hist, size| {
            let mut worst = 0.0f64;
            for &(rank, count) in hist {
                let q = count as f64 / size as f64;
                let p = global[rank as usize] as f64 / n;
                worst = worst.max((q / p).ln().abs());
            }
            worst
        })
    }

    /// t-closeness: per-class value is the earth mover's distance
    /// between the class's sensitive distribution and the table's,
    /// under the ordered-value ground distance (adjacent values are
    /// `1/(m−1)` apart, so the EMD is the normalized sum of absolute
    /// cumulative differences; 0 when the table has a single sensitive
    /// value). Achieved t is the maximum.
    pub fn t_closeness(&self) -> AuditReport {
        let n = self.n_rows() as f64;
        let global = &self.global;
        let m = global.len();
        self.fold(ModelKind::TCloseness, |hist, size| {
            if m < 2 {
                return 0.0;
            }
            let mut emd = 0.0f64;
            let mut cum = 0.0f64;
            let mut it = hist.iter().peekable();
            for (rank, &g) in global.iter().enumerate() {
                let q = match it.peek() {
                    Some(&&(r, c)) if r as usize == rank => {
                        it.next();
                        c as f64 / size as f64
                    }
                    _ => 0.0,
                };
                let p = g as f64 / n;
                cum += p - q;
                emd += cum.abs();
            }
            // The last cumulative term is always 0; dividing the first
            // m−1 partial sums by m−1 normalizes the EMD into [0, 1].
            emd / (m - 1) as f64
        })
    }

    /// Runs all nine checkers, attaching requested parameters from
    /// `spec` where present.
    pub fn run(&self, spec: &AuditSpec) -> AuditSuite {
        let span = self.obs.span("audit.run");
        let apply = |r: AuditReport, want: Option<f64>| match want {
            Some(w) => r.with_requested(w),
            None => r,
        };
        let reports = vec![
            apply(self.k_anonymity(), spec.k.map(|k| k as f64)),
            apply(self.distinct_l(), spec.distinct_l.map(|l| l as f64)),
            apply(self.entropy_l(), spec.entropy_l),
            apply(self.recursive_cl(spec.recursive_l), spec.recursive_c),
            apply(self.alpha_k(), spec.alpha),
            apply(self.basic_beta(), spec.basic_beta),
            apply(self.enhanced_beta(), spec.enhanced_beta),
            apply(self.delta_disclosure(), spec.delta),
            apply(self.t_closeness(), spec.t),
        ];
        span.end();
        AuditSuite { n_rows: self.n_rows(), n_classes: self.n_classes(), reports }
    }
}

/// Dense order ranks of each row's sensitive-value combination.
///
/// Rows are sorted by their sensitive tuple under a numeric-aware
/// per-column order (a column whose every dictionary value parses as
/// a finite number is ordered numerically, else lexicographically) so
/// the resulting rank sequence is the t-closeness ground order.
/// Returns the per-row ranks and the number of distinct combinations.
/// With no sensitive columns, every row is its own combination
/// (attribute-disclosure models are then vacuous).
fn sensitive_ranks(rel: &Relation, sens_cols: &[usize]) -> (Vec<u32>, usize) {
    let n = rel.n_rows();
    if sens_cols.is_empty() {
        return ((0..n as u32).collect(), n);
    }
    // Per sensitive column: a rank per dictionary code under the
    // numeric-aware value order (suppressed codes never occur in
    // sensitive columns).
    let col_rank: Vec<Vec<u32>> = sens_cols
        .iter()
        .map(|&c| {
            let dict = rel.dict(c);
            let values: Vec<&str> = dict.iter().map(|(_, v)| v).collect();
            let numeric: Option<Vec<f64>> = values
                .iter()
                .map(|v| v.trim().parse::<f64>().ok().filter(|x| x.is_finite()))
                .collect();
            let mut order: Vec<usize> = (0..values.len()).collect();
            match &numeric {
                Some(nums) => order.sort_by(|&a, &b| {
                    nums[a].total_cmp(&nums[b]).then_with(|| values[a].cmp(values[b]))
                }),
                None => order.sort_by(|&a, &b| values[a].cmp(values[b])),
            }
            let mut rank = vec![0u32; values.len()];
            for (r, &code) in order.iter().enumerate() {
                rank[code] = r as u32;
            }
            rank
        })
        .collect();
    // Each row's key, computed once: its column ranks, `stride` apart.
    let stride = sens_cols.len();
    let keys: Vec<u32> = (0..n)
        .flat_map(|row| {
            sens_cols.iter().zip(&col_rank).map(move |(&c, r)| r[rel.code(row, c) as usize])
        })
        .collect();
    let key = |row: RowId| &keys[row * stride..(row + 1) * stride];
    let mut order: Vec<RowId> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    let mut row_rank = vec![0u32; n];
    let mut next = 0u32;
    for (i, &r) in order.iter().enumerate() {
        if i > 0 && key(order[i - 1]) != key(r) {
            next += 1;
        }
        row_rank[r] = next;
    }
    (row_rank, if n == 0 { 0 } else { next as usize + 1 })
}

/// The result of a full audit run: one [`AuditReport`] per model.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSuite {
    /// Number of audited rows.
    pub n_rows: usize,
    /// Number of equivalence classes.
    pub n_classes: usize,
    /// One report per model, in [`ModelKind::ALL`] order.
    pub reports: Vec<AuditReport>,
}

impl AuditSuite {
    /// The report for `model`, if present.
    pub fn report(&self, model: ModelKind) -> Option<&AuditReport> {
        self.reports.iter().find(|r| r.model == model)
    }

    /// Whether every requested parameter is satisfied (vacuously true
    /// when nothing was requested).
    pub fn satisfied(&self) -> bool {
        self.reports.iter().all(|r| r.satisfied != Some(false))
    }

    /// Deterministic pretty-printed JSON rendering of the suite:
    /// fixed key order, floats at six decimals, non-finite values as
    /// `null`. Byte-stable across runs for a given input, so golden
    /// fixtures can be compared with a plain diff.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"n_rows\": {},\n", self.n_rows));
        out.push_str(&format!("  \"n_classes\": {},\n", self.n_classes));
        out.push_str(&format!("  \"satisfied\": {},\n", self.satisfied()));
        out.push_str("  \"reports\": [\n");
        for (i, r) in self.reports.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"model\": \"{}\",\n", r.model.key()));
            if let Some(l) = r.l {
                out.push_str(&format!("      \"l\": {l},\n"));
            }
            out.push_str(&format!("      \"achieved\": {},\n", json_f64(r.achieved)));
            out.push_str(&format!(
                "      \"requested\": {},\n",
                r.requested.map_or("null".to_string(), json_f64)
            ));
            out.push_str(&format!(
                "      \"satisfied\": {},\n",
                r.satisfied.map_or("null".to_string(), |s| s.to_string())
            ));
            match &r.worst {
                None => out.push_str("      \"worst\": null,\n"),
                Some(w) => {
                    // `rows` stays the LAST key of the fixed order so
                    // older consumers keep parsing the known prefix.
                    out.push_str(&format!(
                        "      \"worst\": {{\"class\": {}, \"size\": {}, \"value\": {}, \"qi\": [{}], \"rows\": [{}]}},\n",
                        w.class,
                        w.size,
                        json_f64(w.value),
                        w.qi.iter()
                            .map(|s| format!("\"{}\"", json::escape(s)))
                            .collect::<Vec<_>>()
                            .join(", "),
                        w.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(", ")
                    ));
                }
            }
            out.push_str("      \"classes\": [");
            for (j, c) in r.classes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"class\": {}, \"size\": {}, \"value\": {}}}",
                    c.class,
                    c.size,
                    json_f64(c.value)
                ));
            }
            out.push_str("]\n");
            out.push_str(if i + 1 < self.reports.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable table rendering: one row per model with the
    /// achieved parameter, verdict, and worst-class witness.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} rows, {} equivalence classes\n", self.n_rows, self.n_classes));
        out.push_str(&format!(
            "{:<18} {:>12} {:>12} {:>10}  worst class\n",
            "model", "achieved", "requested", "verdict"
        ));
        for r in &self.reports {
            let achieved = if r.achieved.is_finite() {
                format!("{:.4}", r.achieved)
            } else {
                "—".to_string()
            };
            let requested = r.requested.map_or("—".to_string(), |v| format!("{v:.4}"));
            let verdict = match r.satisfied {
                Some(true) => "ok",
                Some(false) => "VIOLATED",
                None => "—",
            };
            let witness = r.worst.as_ref().map_or(String::new(), |w| {
                format!("#{} (n={}) [{}]", w.class, w.size, w.qi.join(", "))
            });
            let model = match r.l {
                Some(l) => format!("{}(l={})", r.model.key(), l),
                None => r.model.key().to_string(),
            };
            out.push_str(&format!(
                "{model:<18} {achieved:>12} {requested:>12} {verdict:>10}  {witness}\n"
            ));
        }
        out
    }
}

/// Audits `rel` against `spec` without observability.
pub fn audit(rel: &Relation, spec: &AuditSpec) -> AuditSuite {
    Audit::new(rel).run(spec)
}

/// Audits `rel` against `spec`, recording `audit.*` spans on `obs`.
pub fn audit_with_obs(rel: &Relation, spec: &AuditSpec, obs: &Obs) -> AuditSuite {
    Audit::with_obs(rel, obs).run(spec)
}

/// Formats an `f64` for the deterministic JSON rendering: six
/// decimals, non-finite as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::suppress::suppress_clustering;
    use diva_relation::{Attribute, RelationBuilder, Schema};
    use std::sync::Arc;

    /// One QI attribute (class label) + one sensitive attribute.
    fn labeled(rows: &[(&str, &str)]) -> Relation {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("G"), Attribute::sensitive("S")]));
        let mut b = RelationBuilder::new(schema);
        for &(g, s) in rows {
            b.push_row(&[g.to_string(), s.to_string()]);
        }
        b.finish()
    }

    #[test]
    fn k_anonymity_reports_min_class() {
        let r = labeled(&[("a", "x"), ("a", "y"), ("a", "z"), ("b", "x"), ("b", "y")]);
        let rep = Audit::new(&r).k_anonymity();
        assert_eq!(rep.achieved, 2.0);
        let w = rep.worst.as_ref().expect("non-empty");
        assert_eq!(w.qi, vec!["b".to_string()]);
        assert_eq!(rep.classes.len(), 2);
    }

    #[test]
    fn witness_carries_the_witnessing_rows() {
        let r = labeled(&[("a", "x"), ("a", "y"), ("a", "z"), ("b", "x"), ("b", "y")]);
        let rep = Audit::new(&r).k_anonymity();
        let w = rep.worst.as_ref().expect("non-empty");
        assert_eq!(w.rows, vec![3, 4]);
        // `rows` renders as the last key of the fixed `worst` order.
        let json = audit(&r, &AuditSpec::default()).to_json();
        assert!(json.contains("\"qi\": [\"b\"], \"rows\": [3, 4]"), "{json}");
    }

    #[test]
    fn distinct_and_entropy_l() {
        // Class a: {x,y,z} → distinct 3, uniform → perplexity 3.
        // Class b: {x,x,y,z} → distinct 3, perplexity 2^1.5.
        let r = labeled(&[
            ("a", "x"),
            ("a", "y"),
            ("a", "z"),
            ("b", "x"),
            ("b", "x"),
            ("b", "y"),
            ("b", "z"),
        ]);
        let audit = Audit::new(&r);
        assert_eq!(audit.distinct_l().achieved, 3.0);
        let e = audit.entropy_l();
        assert!((e.achieved - 2.0f64.powf(1.5)).abs() < 1e-9, "{}", e.achieved);
        assert_eq!(e.worst.as_ref().map(|w| w.class), Some(1));
        // Entropy-l never exceeds distinct-l.
        for (ec, dc) in e.classes.iter().zip(audit.distinct_l().classes.iter()) {
            assert!(ec.value <= dc.value + EPS);
        }
    }

    #[test]
    fn recursive_cl_matches_hand_computation() {
        // Counts [3,1,1], l=2: r1=3, tail=2 → c = 1.5.
        let r = labeled(&[("a", "x"), ("a", "x"), ("a", "x"), ("a", "y"), ("a", "z")]);
        let rep = Audit::new(&r).recursive_cl(2);
        assert!((rep.achieved - 1.5).abs() < 1e-12);
        assert_eq!(rep.l, Some(2));
        // l=4 with only 3 distinct values: unsatisfiable → non-finite.
        assert!(!Audit::new(&r).recursive_cl(4).achieved.is_finite());
    }

    #[test]
    fn alpha_is_max_in_class_frequency() {
        let r = labeled(&[("a", "x"), ("a", "x"), ("a", "y"), ("b", "z"), ("b", "y")]);
        let rep = Audit::new(&r).alpha_k();
        assert!((rep.achieved - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn beta_delta_uniform_table_scores_zero() {
        // Both classes have exactly the global distribution.
        let r = labeled(&[("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]);
        let audit = Audit::new(&r);
        assert_eq!(audit.basic_beta().achieved, 0.0);
        assert_eq!(audit.enhanced_beta().achieved, 0.0);
        assert_eq!(audit.delta_disclosure().achieved, 0.0);
        assert_eq!(audit.t_closeness().achieved, 0.0);
    }

    #[test]
    fn beta_and_delta_hand_scored() {
        // Global: x 3/4, y 1/4. Class a = {x,x}: q_x = 1 → basic β =
        // (1−0.75)/0.75 = 1/3; δ = max(|ln(1/0.75)|) vs class b:
        // {x,y}: q_y = 0.5 → (0.5−0.25)/0.25 = 1 → achieved β = 1.
        let r = labeled(&[("a", "x"), ("a", "x"), ("b", "x"), ("b", "y")]);
        let audit = Audit::new(&r);
        let basic = audit.basic_beta();
        assert!((basic.achieved - 1.0).abs() < 1e-12);
        assert_eq!(basic.worst.as_ref().map(|w| w.class), Some(1));
        let delta = audit.delta_disclosure();
        assert!((delta.achieved - (0.5f64 / 0.25).ln()).abs() < 1e-12);
        // Enhanced caps the excess at −ln p = −ln 0.25.
        let enh = audit.enhanced_beta();
        assert!((enh.achieved - 1.0f64.min(-(0.25f64.ln()))).abs() < 1e-12);
    }

    #[test]
    fn t_closeness_ordered_ground_distance() {
        // Numeric domain {1,2,3} uniform globally; class a = {1,1}
        // concentrates all mass at the minimum: EMD = (|1−1/3| +
        // |1−2/3·...|)… hand-computed: cum diffs after 1: 1/3−1 = −2/3;
        // after 2: −2/3+1/3 = −1/3 → EMD = (2/3+1/3)/2 = 0.5.
        let r = labeled(&[("a", "1"), ("a", "1"), ("b", "2"), ("b", "2"), ("c", "3"), ("c", "3")]);
        let rep = Audit::new(&r).t_closeness();
        assert!((rep.achieved - 0.5).abs() < 1e-12, "{}", rep.achieved);
        // The middle class is strictly closer than the extremes.
        assert!(rep.classes[1].value < rep.classes[0].value);
    }

    #[test]
    fn numeric_domains_order_numerically() {
        // Lexicographic would order "10" < "2"; numeric must not.
        let r = labeled(&[("a", "2"), ("a", "10"), ("b", "2"), ("b", "10")]);
        let rep = Audit::new(&r).t_closeness();
        assert_eq!(rep.achieved, 0.0);
        let r2 =
            labeled(&[("a", "1"), ("a", "1"), ("b", "10"), ("b", "10"), ("c", "2"), ("c", "2")]);
        // Mass at 1 vs mass at 2 (adjacent under numeric order) must
        // be closer than mass at 1 vs mass at 10.
        let rep2 = Audit::new(&r2).t_closeness();
        let by_class: Vec<f64> = rep2.classes.iter().map(|c| c.value).collect();
        assert!(by_class[2] < by_class[1], "{by_class:?}");
    }

    #[test]
    fn paper_table2_suite() {
        // The paper's running example, 3-anonymized as in Table 2:
        // {t1,t2,t3}, {t4,t5,t6,t7}, {t8,t9,t10}.
        let r = paper_table1();
        let s = suppress_clustering(&r, &[vec![0, 1, 2], vec![3, 4, 5, 6], vec![7, 8, 9]]);
        let suite = audit(
            &s.relation,
            &AuditSpec { k: Some(3), distinct_l: Some(3), ..AuditSpec::default() },
        );
        assert!(suite.satisfied(), "{}", suite.to_json());
        let k = suite.report(ModelKind::KAnonymity).expect("k report");
        assert_eq!(k.achieved, 3.0);
        let e = suite.report(ModelKind::EntropyL).expect("entropy report");
        // Middle class diagnoses: Migraine, Hyp, Seizure, Hyp →
        // counts [2,1,1] → perplexity 2^1.5.
        assert!((e.achieved - 2.0f64.powf(1.5)).abs() < 1e-9);
    }

    #[test]
    fn requested_parameters_gate_satisfaction() {
        let r = labeled(&[("a", "x"), ("a", "x"), ("b", "x"), ("b", "y")]);
        let ok = audit(&r, &AuditSpec { k: Some(2), ..AuditSpec::default() });
        assert!(ok.satisfied());
        let bad = audit(&r, &AuditSpec { distinct_l: Some(2), ..AuditSpec::default() });
        assert!(!bad.satisfied());
        let rep = bad.report(ModelKind::DistinctL).expect("report");
        assert_eq!(rep.satisfied, Some(false));
        assert_eq!(rep.worst.as_ref().map(|w| w.class), Some(0));
    }

    #[test]
    fn empty_relation_is_vacuous() {
        let r = diva_relation::Relation::empty(diva_relation::fixtures::medical_schema());
        let suite = audit(&r, &AuditSpec { k: Some(5), t: Some(0.1), ..AuditSpec::default() });
        assert!(suite.satisfied());
        assert_eq!(suite.n_classes, 0);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = labeled(&[("a\"b", "x"), ("a\"b", "y")]);
        let suite = audit(&r, &AuditSpec::default());
        let j1 = suite.to_json();
        let j2 = audit(&r, &AuditSpec::default()).to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("a\\\"b"), "{j1}");
        assert!(j1.contains("\"model\": \"t_closeness\""));
    }

    #[test]
    fn spans_are_recorded() {
        let obs = Obs::enabled();
        let r = labeled(&[("a", "x"), ("a", "y")]);
        let _ = audit_with_obs(&r, &AuditSpec::default(), &obs);
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"audit.build"), "{names:?}");
        assert!(names.contains(&"audit.run"));
        assert_eq!(names.iter().filter(|&&n| n == "audit.check").count(), 9);
    }

    #[test]
    fn table_rendering_mentions_verdicts() {
        let r = labeled(&[("a", "x"), ("a", "x")]);
        let suite = audit(&r, &AuditSpec { distinct_l: Some(2), ..AuditSpec::default() });
        let table = suite.render_table();
        assert!(table.contains("VIOLATED"), "{table}");
        assert!(table.contains("k_anonymity"));
    }
}
