//! Dataset specifications: column layouts and the per-dataset specs
//! matching Table 4 of the paper.

use diva_relation::AttrRole;

use crate::dist::Dist;

/// The value domain of a generated column.
#[derive(Debug, Clone)]
pub enum Domain {
    /// An explicit list of values (used where realistic names matter,
    /// e.g. gender or ethnicity).
    Named(Vec<String>),
    /// A synthetic domain `"{prefix}{0}" .. "{prefix}{size-1}"` (used
    /// for high-cardinality attributes like city or occupation).
    Indexed {
        /// The text every value starts with.
        prefix: String,
        /// The number of values.
        size: usize,
    },
}

impl Domain {
    /// Convenience constructor for a named domain.
    pub fn named<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        Domain::Named(values.into_iter().map(Into::into).collect())
    }

    /// Convenience constructor for an indexed domain.
    pub fn indexed(prefix: impl Into<String>, size: usize) -> Self {
        Domain::Indexed { prefix: prefix.into(), size }
    }

    /// Number of distinct values.
    pub fn size(&self) -> usize {
        match self {
            Domain::Named(v) => v.len(),
            Domain::Indexed { size, .. } => *size,
        }
    }

    /// The string form of value index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> String {
        match self {
            Domain::Named(v) => v[i].clone(),
            Domain::Indexed { prefix, size } => {
                assert!(i < *size, "domain index out of range");
                format!("{prefix}{i}")
            }
        }
    }
}

/// One generated column: its attribute name, privacy role, value
/// domain, and marginal distribution.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Attribute name in the output schema.
    pub name: String,
    /// Privacy role in the output schema.
    pub role: AttrRole,
    /// Value domain.
    pub domain: Domain,
    /// Marginal distribution of value indices. For QI columns this
    /// shapes the *profile pool*; for non-QI columns it is sampled per
    /// row.
    pub dist: Dist,
}

impl ColumnSpec {
    /// Creates a column spec.
    pub fn new(name: impl Into<String>, role: AttrRole, domain: Domain, dist: Dist) -> Self {
        Self { name: name.into(), role, domain, dist }
    }
}

/// A functional association between two QI columns: each child value
/// belongs to exactly one parent value, assigned round-robin
/// (`child_index ≡ parent_index (mod parent_domain)`). Gives the
/// stand-ins realistic hierarchies like city → province.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// Child attribute name (e.g. `CTY`). Its domain size must be a
    /// multiple of the parent's.
    pub child: String,
    /// Parent attribute name (e.g. `PRV`).
    pub parent: String,
}

/// A full dataset specification.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset display name.
    pub name: String,
    /// All columns in schema order.
    pub columns: Vec<ColumnSpec>,
    /// Exact number of distinct QI projections to materialize
    /// (the paper's `|Π_QI(R)|`, Table 4). Must not exceed the product
    /// of the QI domain sizes.
    pub n_profiles: usize,
    /// Distribution over profiles used to assign rows beyond the first
    /// `n_profiles` (which cover each profile once).
    pub profile_dist: Dist,
    /// Functional associations between QI columns.
    pub derivations: Vec<Derivation>,
}

/// Pantheon stand-in: 17 attributes, skewed occupation/country
/// marginals, 5,636 distinct QI profiles.
pub fn pantheon_spec() -> DatasetSpec {
    let zipf = Dist::zipf_default();
    let gauss = Dist::gaussian_default();
    let mut columns = vec![
        ColumnSpec::new(
            "gender",
            AttrRole::Quasi,
            Domain::named(["Male", "Female"]),
            Dist::Zipf { s: 0.6 },
        ),
        ColumnSpec::new("birth_decade", AttrRole::Quasi, Domain::indexed("d", 30), gauss),
        ColumnSpec::new("country", AttrRole::Quasi, Domain::indexed("country_", 150), zipf),
        ColumnSpec::new(
            "continent",
            AttrRole::Quasi,
            Domain::named(["Europe", "Asia", "NorthAmerica", "SouthAmerica", "Africa", "Oceania"]),
            zipf,
        ),
        ColumnSpec::new("occupation", AttrRole::Quasi, Domain::indexed("occ_", 88), zipf),
        ColumnSpec::new("industry", AttrRole::Quasi, Domain::indexed("ind_", 27), zipf),
        ColumnSpec::new("cause_of_death", AttrRole::Sensitive, Domain::indexed("cause_", 20), zipf),
    ];
    // Pad to 17 attributes with insensitive popularity/metadata bands.
    for (name, size) in [
        ("domain", 8),
        ("article_langs", 40),
        ("page_views_band", 10),
        ("hpi_band", 10),
        ("birth_city", 300),
        ("birth_state", 60),
        ("curid_band", 16),
        ("alive", 2),
        ("slug_len_band", 12),
        ("name_len_band", 12),
    ] {
        columns.push(ColumnSpec::new(
            name,
            AttrRole::Insensitive,
            Domain::indexed(format!("{name}_"), size),
            zipf,
        ));
    }
    DatasetSpec {
        name: "Pantheon".into(),
        columns,
        n_profiles: 5_636,
        profile_dist: zipf,
        derivations: vec![Derivation { child: "country".into(), parent: "continent".into() }],
    }
}

/// Census stand-in: 40 attributes, 12,405 distinct QI profiles.
pub fn census_spec() -> DatasetSpec {
    let zipf = Dist::zipf_default();
    let gauss = Dist::gaussian_default();
    let mut columns = vec![
        ColumnSpec::new("age_group", AttrRole::Quasi, Domain::indexed("age_", 19), gauss),
        ColumnSpec::new(
            "sex",
            AttrRole::Quasi,
            Domain::named(["Male", "Female"]),
            Dist::Zipf { s: 0.1 },
        ),
        ColumnSpec::new(
            "race",
            AttrRole::Quasi,
            Domain::named(["White", "Black", "AsianPacific", "AmerIndian", "Other"]),
            zipf,
        ),
        ColumnSpec::new("education", AttrRole::Quasi, Domain::indexed("edu_", 17), gauss),
        ColumnSpec::new("marital_status", AttrRole::Quasi, Domain::indexed("mar_", 7), zipf),
        ColumnSpec::new("occupation", AttrRole::Quasi, Domain::indexed("occ_", 47), zipf),
        ColumnSpec::new("state", AttrRole::Quasi, Domain::indexed("state_", 51), zipf),
        ColumnSpec::new(
            "income",
            AttrRole::Sensitive,
            Domain::named(["under50k", "over50k"]),
            zipf,
        ),
    ];
    // Pad to 40 attributes with insensitive census fields.
    for (name, size) in [
        ("class_of_worker", 9),
        ("industry_code", 52),
        ("wage_band", 12),
        ("enroll_edu", 3),
        ("major_ind", 24),
        ("major_occ", 15),
        ("hisp_origin", 10),
        ("union_member", 3),
        ("unemp_reason", 6),
        ("ft_pt_stat", 8),
        ("cap_gains_band", 12),
        ("cap_loss_band", 12),
        ("dividends_band", 12),
        ("tax_filer", 6),
        ("region_prev", 6),
        ("state_prev", 51),
        ("hh_fam_stat", 38),
        ("hh_summary", 8),
        ("mig_msa", 10),
        ("mig_reg", 9),
        ("mig_within", 10),
        ("same_house", 3),
        ("mig_sunbelt", 4),
        ("num_emp_band", 7),
        ("parents_present", 5),
        ("father_birth", 43),
        ("mother_birth", 43),
        ("self_birth", 43),
        ("citizenship", 5),
        ("self_emp", 3),
        ("vet_admin", 3),
        ("weeks_worked_band", 10),
    ] {
        columns.push(ColumnSpec::new(
            name,
            AttrRole::Insensitive,
            Domain::indexed(format!("{name}_"), size),
            zipf,
        ));
    }
    DatasetSpec {
        name: "Census".into(),
        columns,
        n_profiles: 12_405,
        profile_dist: zipf,
        derivations: Vec::new(),
    }
}

/// German Credit stand-in: 20 attributes, coarse QI with exactly 60
/// distinct profiles (4 × 5 × 3).
pub fn credit_spec() -> DatasetSpec {
    let zipf = Dist::zipf_default();
    let gauss = Dist::gaussian_default();
    let mut columns = vec![
        ColumnSpec::new(
            "personal_status_sex",
            AttrRole::Quasi,
            Domain::named(["M-single", "M-married", "F-single", "F-divorced"]),
            zipf,
        ),
        ColumnSpec::new(
            "age_group",
            AttrRole::Quasi,
            Domain::named(["18-25", "26-35", "36-45", "46-60", "60+"]),
            gauss,
        ),
        ColumnSpec::new("housing", AttrRole::Quasi, Domain::named(["own", "rent", "free"]), zipf),
        ColumnSpec::new("credit_risk", AttrRole::Sensitive, Domain::named(["good", "bad"]), zipf),
    ];
    for (name, size) in [
        ("status_checking", 4),
        ("duration_band", 10),
        ("credit_history", 5),
        ("purpose", 10),
        ("amount_band", 10),
        ("savings", 5),
        ("employment_since", 5),
        ("installment_rate", 4),
        ("debtors", 3),
        ("residence_since", 4),
        ("property", 4),
        ("other_installments", 3),
        ("existing_credits", 4),
        ("job", 4),
        ("dependents", 2),
        ("telephone", 2),
    ] {
        columns.push(ColumnSpec::new(
            name,
            AttrRole::Insensitive,
            Domain::indexed(format!("{name}_"), size),
            zipf,
        ));
    }
    DatasetSpec {
        name: "Credit".into(),
        columns,
        n_profiles: 60,
        profile_dist: zipf,
        derivations: Vec::new(),
    }
}

/// Pop-Syn stand-in: 7 attributes, 24,630 distinct QI profiles, with
/// every attribute's *value marginals* drawn from `dist` — the
/// Fig. 4d distribution knob. Profile multiplicity stays uniform
/// across settings: the paper generates "attribute values according
/// to the Zipfian, uniform, and Gaussian distributions", i.e. the
/// skew lives in the values, not in duplicated tuples — a Zipfian
/// profile assignment would trivially favour the skewed settings by
/// handing them huge pre-formed QI-groups.
pub fn popsyn_spec(dist: Dist) -> DatasetSpec {
    let columns = vec![
        ColumnSpec::new("sex", AttrRole::Quasi, Domain::named(["Male", "Female"]), dist),
        ColumnSpec::new("age_group", AttrRole::Quasi, Domain::indexed("age_", 20), dist),
        ColumnSpec::new("region", AttrRole::Quasi, Domain::indexed("region_", 50), dist),
        ColumnSpec::new("ethnicity", AttrRole::Quasi, Domain::indexed("eth_", 12), dist),
        ColumnSpec::new("education", AttrRole::Quasi, Domain::indexed("edu_", 8), dist),
        ColumnSpec::new("health_status", AttrRole::Sensitive, Domain::indexed("health_", 10), dist),
        ColumnSpec::new("income_band", AttrRole::Insensitive, Domain::indexed("inc_", 12), dist),
    ];
    DatasetSpec {
        name: format!("Pop-Syn/{}", dist.name()),
        columns,
        n_profiles: 24_630,
        profile_dist: Dist::Uniform,
        derivations: Vec::new(),
    }
}

/// A small medical dataset in the vocabulary of the paper's running
/// example.
pub fn medical_spec() -> DatasetSpec {
    let zipf = Dist::zipf_default();
    let gauss = Dist::gaussian_default();
    let columns = vec![
        ColumnSpec::new("GEN", AttrRole::Quasi, Domain::named(["Female", "Male"]), Dist::Uniform),
        ColumnSpec::new(
            "ETH",
            AttrRole::Quasi,
            Domain::named(["Caucasian", "Asian", "African", "Hispanic", "Indigenous"]),
            zipf,
        ),
        ColumnSpec::new("AGE", AttrRole::Quasi, Domain::indexed("", 90), gauss),
        ColumnSpec::new(
            "PRV",
            AttrRole::Quasi,
            Domain::named(["ON", "QC", "BC", "AB", "MB", "SK", "NS", "NB"]),
            zipf,
        ),
        ColumnSpec::new("CTY", AttrRole::Quasi, Domain::indexed("city_", 40), zipf),
        ColumnSpec::new(
            "DIAG",
            AttrRole::Sensitive,
            Domain::named([
                "Hypertension",
                "Tuberculosis",
                "Osteoarthritis",
                "Migraine",
                "Seizure",
                "Influenza",
                "Diabetes",
                "Asthma",
            ]),
            zipf,
        ),
    ];
    DatasetSpec {
        name: "Medical".into(),
        columns,
        n_profiles: 600,
        profile_dist: zipf,
        derivations: vec![Derivation { child: "CTY".into(), parent: "PRV".into() }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_shapes() {
        assert_eq!(pantheon_spec().columns.len(), 17);
        assert_eq!(census_spec().columns.len(), 40);
        assert_eq!(credit_spec().columns.len(), 20);
        assert_eq!(popsyn_spec(Dist::Uniform).columns.len(), 7);
    }

    #[test]
    fn profile_counts_match_table4() {
        assert_eq!(pantheon_spec().n_profiles, 5_636);
        assert_eq!(census_spec().n_profiles, 12_405);
        assert_eq!(credit_spec().n_profiles, 60);
        assert_eq!(popsyn_spec(Dist::Uniform).n_profiles, 24_630);
    }

    #[test]
    fn qi_domain_products_cover_profiles() {
        for spec in [
            pantheon_spec(),
            census_spec(),
            credit_spec(),
            popsyn_spec(Dist::Uniform),
            medical_spec(),
        ] {
            let product: usize = spec
                .columns
                .iter()
                .filter(|c| c.role == AttrRole::Quasi)
                .map(|c| c.domain.size())
                .fold(1usize, |a, b| a.saturating_mul(b));
            assert!(
                product >= spec.n_profiles,
                "{}: QI domain product {} < n_profiles {}",
                spec.name,
                product,
                spec.n_profiles
            );
        }
    }

    #[test]
    fn domain_values() {
        let d = Domain::named(["a", "b"]);
        assert_eq!(d.size(), 2);
        assert_eq!(d.value(1), "b");
        let d = Domain::indexed("x_", 3);
        assert_eq!(d.size(), 3);
        assert_eq!(d.value(2), "x_2");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexed_domain_bounds_checked() {
        Domain::indexed("x_", 3).value(3);
    }
}
