//! Single diversity constraints: declarative and relation-bound forms.

use std::fmt;

use diva_relation::{ColId, Relation, RowId};

/// Errors raised when validating or binding a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// The frequency range is empty (`λl > λr`).
    EmptyRange {
        /// The lower bound `λl`.
        lower: usize,
        /// The upper bound `λr`.
        upper: usize,
    },
    /// The constraint names no target attribute.
    NoTargets,
    /// The same attribute appears twice in one constraint's target.
    DuplicateAttribute(String),
    /// A target attribute does not exist in the schema.
    UnknownAttribute(String),
    /// A target attribute is not a quasi-identifier. Counts on
    /// non-QI attributes are fixed by the input (they are never
    /// suppressed), so diversity constraints range over QI attributes
    /// as in the paper's examples.
    NonQiAttribute(String),
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::EmptyRange { lower, upper } => {
                write!(f, "empty frequency range [{lower}, {upper}]")
            }
            ConstraintError::NoTargets => write!(f, "constraint has no target attributes"),
            ConstraintError::DuplicateAttribute(a) => {
                write!(f, "attribute {a:?} appears twice in one target")
            }
            ConstraintError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            ConstraintError::NonQiAttribute(a) => {
                write!(f, "attribute {a:?} is not a quasi-identifier")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

/// A declarative diversity constraint `σ = (X[t], λl, λr)`
/// (Definition 2.3, including the multi-attribute extension).
///
/// `targets` pairs each attribute in `X` with its required value in
/// `t`. The constraint is satisfied by a relation containing at least
/// `lower` and at most `upper` tuples whose (non-suppressed) values
/// match every target.
///
/// ```
/// use diva_constraints::Constraint;
/// use diva_relation::fixtures::paper_table1;
///
/// let r = paper_table1();
/// // σ1 from the paper: between 2 and 5 Asian individuals.
/// let sigma1 = Constraint::single("ETH", "Asian", 2, 5).bind(&r).unwrap();
/// assert_eq!(sigma1.count_in(&r), 3);
/// assert!(sigma1.satisfied_by(&r));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// `(attribute name, target value)` pairs — the paper's `X[t]`.
    pub targets: Vec<(String, String)>,
    /// `λl`: minimum number of matching tuples.
    pub lower: usize,
    /// `λr`: maximum number of matching tuples.
    pub upper: usize,
}

impl Constraint {
    /// Single-attribute constraint `(A[a], λl, λr)` — e.g.
    /// `Constraint::single("ETH", "Asian", 2, 5)` is the paper's σ1.
    pub fn single(
        attr: impl Into<String>,
        value: impl Into<String>,
        lower: usize,
        upper: usize,
    ) -> Self {
        Self { targets: vec![(attr.into(), value.into())], lower, upper }
    }

    /// Multi-attribute constraint `(X[t], λl, λr)`.
    pub fn multi<A, V>(targets: Vec<(A, V)>, lower: usize, upper: usize) -> Self
    where
        A: Into<String>,
        V: Into<String>,
    {
        Self {
            targets: targets.into_iter().map(|(a, v)| (a.into(), v.into())).collect(),
            lower,
            upper,
        }
    }

    /// Structural validation independent of any relation.
    pub fn validate(&self) -> Result<(), ConstraintError> {
        if self.lower > self.upper {
            return Err(ConstraintError::EmptyRange { lower: self.lower, upper: self.upper });
        }
        if self.targets.is_empty() {
            return Err(ConstraintError::NoTargets);
        }
        for (i, (a, _)) in self.targets.iter().enumerate() {
            if self.targets[i + 1..].iter().any(|(b, _)| a == b) {
                return Err(ConstraintError::DuplicateAttribute(a.clone()));
            }
        }
        Ok(())
    }

    /// Resolves the constraint against `rel`'s schema and dictionaries,
    /// computing column ids, value codes, and the target-tuple set
    /// `I_σ`.
    ///
    /// A target value absent from a column's dictionary is legal — the
    /// constraint simply has an empty `I_σ` (and is unsatisfiable if
    /// `λl > 0`).
    pub fn bind(&self, rel: &Relation) -> Result<BoundConstraint, ConstraintError> {
        self.validate()?;
        let mut cols = Vec::with_capacity(self.targets.len());
        let mut codes = Vec::with_capacity(self.targets.len());
        let mut all_present = true;
        for (attr, value) in &self.targets {
            let col = rel
                .schema()
                .col(attr)
                .ok_or_else(|| ConstraintError::UnknownAttribute(attr.clone()))?;
            if !rel.schema().is_qi(col) {
                return Err(ConstraintError::NonQiAttribute(attr.clone()));
            }
            cols.push(col);
            match rel.dict(col).code(value) {
                Some(code) => codes.push(code),
                None => {
                    all_present = false;
                    codes.push(u32::MAX); // placeholder; target_rows will be empty
                }
            }
        }
        let target_rows: Vec<RowId> = if all_present {
            (0..rel.n_rows())
                .filter(|&r| cols.iter().zip(&codes).all(|(&c, &code)| rel.code(r, c) == code))
                .collect()
        } else {
            Vec::new()
        };
        Ok(BoundConstraint {
            source: self.clone(),
            cols,
            codes,
            target_rows,
            lower: self.lower,
            upper: self.upper,
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attrs: Vec<&str> = self.targets.iter().map(|(a, _)| a.as_str()).collect();
        let vals: Vec<&str> = self.targets.iter().map(|(_, v)| v.as_str()).collect();
        write!(f, "{}[{}]: {}..{}", attrs.join(","), vals.join(","), self.lower, self.upper)
    }
}

/// A [`Constraint`] resolved against a concrete relation.
#[derive(Debug, Clone)]
pub struct BoundConstraint {
    /// The declarative constraint this was bound from.
    pub source: Constraint,
    /// Column ids of the target attributes `X`.
    pub cols: Vec<ColId>,
    /// Dictionary codes of the target values `t` (meaningless entries
    /// where the value was absent; then `target_rows` is empty).
    pub codes: Vec<u32>,
    /// `I_σ`: rows of the *original* relation matching the target.
    pub target_rows: Vec<RowId>,
    /// `λl`.
    pub lower: usize,
    /// `λr`.
    pub upper: usize,
}

impl BoundConstraint {
    /// Counts tuples of `rel` matching the target with retained
    /// (non-suppressed) values — the satisfaction query of
    /// Definition 2.3.
    pub fn count_in(&self, rel: &Relation) -> usize {
        if self.target_rows.is_empty() && self.codes.contains(&u32::MAX) {
            // Value absent from the dictionary: nothing can match.
            return 0;
        }
        rel.count_matching(&self.cols, &self.codes)
    }

    /// Whether `rel |= σ`.
    pub fn satisfied_by(&self, rel: &Relation) -> bool {
        let c = self.count_in(rel);
        self.lower <= c && c <= self.upper
    }

    /// Whether a row (of the relation the constraint was bound
    /// against) is a target tuple.
    pub fn is_target(&self, row: RowId) -> bool {
        // target_rows is sorted ascending by construction.
        self.target_rows.binary_search(&row).is_ok()
    }

    /// A short human-readable label (`X[t]`).
    pub fn label(&self) -> String {
        let attrs: Vec<&str> = self.source.targets.iter().map(|(a, _)| a.as_str()).collect();
        let vals: Vec<&str> = self.source.targets.iter().map(|(_, v)| v.as_str()).collect();
        format!("{}[{}]", attrs.join(","), vals.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_relation::fixtures::paper_table1;

    #[test]
    fn paper_sigma1_binds_and_is_satisfied() {
        let r = paper_table1();
        // σ1 = (ETH[Asian], 2, 5): satisfied by Table 1 (3 Asians).
        let s1 = Constraint::single("ETH", "Asian", 2, 5).bind(&r).unwrap();
        assert_eq!(s1.target_rows, vec![7, 8, 9]);
        assert_eq!(s1.count_in(&r), 3);
        assert!(s1.satisfied_by(&r));
        assert!(s1.is_target(8));
        assert!(!s1.is_target(0));
        assert_eq!(s1.label(), "ETH[Asian]");
    }

    #[test]
    fn paper_sigma3_city_targets() {
        let r = paper_table1();
        // σ3 = (CTY[Vancouver], 2, 4): I = {t6, t7, t8, t10} (rows 5,6,7,9).
        let s3 = Constraint::single("CTY", "Vancouver", 2, 4).bind(&r).unwrap();
        assert_eq!(s3.target_rows, vec![5, 6, 7, 9]);
        assert!(s3.satisfied_by(&r));
    }

    #[test]
    fn multi_attribute_constraint() {
        let r = paper_table1();
        let s =
            Constraint::multi(vec![("GEN", "Male"), ("ETH", "African")], 1, 3).bind(&r).unwrap();
        assert_eq!(s.target_rows, vec![4, 5]);
        assert_eq!(s.count_in(&r), 2);
        assert!(s.satisfied_by(&r));
    }

    #[test]
    fn unknown_value_yields_empty_target() {
        let r = paper_table1();
        let s = Constraint::single("ETH", "Martian", 0, 5).bind(&r).unwrap();
        assert!(s.target_rows.is_empty());
        assert_eq!(s.count_in(&r), 0);
        assert!(s.satisfied_by(&r)); // lower bound 0
        let s2 = Constraint::single("ETH", "Martian", 1, 5).bind(&r).unwrap();
        assert!(!s2.satisfied_by(&r));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let r = paper_table1();
        let err = Constraint::single("NOPE", "x", 0, 1).bind(&r).unwrap_err();
        assert_eq!(err, ConstraintError::UnknownAttribute("NOPE".into()));
    }

    #[test]
    fn sensitive_attribute_rejected() {
        let r = paper_table1();
        let err = Constraint::single("DIAG", "Seizure", 1, 2).bind(&r).unwrap_err();
        assert_eq!(err, ConstraintError::NonQiAttribute("DIAG".into()));
    }

    #[test]
    fn empty_range_rejected() {
        let err = Constraint::single("ETH", "Asian", 5, 2).validate().unwrap_err();
        assert_eq!(err, ConstraintError::EmptyRange { lower: 5, upper: 2 });
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let c = Constraint::multi(vec![("A", "x"), ("A", "y")], 0, 1);
        assert_eq!(c.validate().unwrap_err(), ConstraintError::DuplicateAttribute("A".into()));
    }

    #[test]
    fn no_targets_rejected() {
        let c = Constraint { targets: vec![], lower: 0, upper: 1 };
        assert_eq!(c.validate().unwrap_err(), ConstraintError::NoTargets);
    }

    #[test]
    fn display_round_trip_format() {
        let c = Constraint::multi(vec![("GEN", "Male"), ("ETH", "African")], 1, 3);
        assert_eq!(c.to_string(), "GEN,ETH[Male,African]: 1..3");
        assert_eq!(Constraint::single("ETH", "Asian", 2, 5).to_string(), "ETH[Asian]: 2..5");
    }

    #[test]
    fn count_respects_suppression() {
        let mut r = paper_table1();
        let s1 = Constraint::single("ETH", "Asian", 2, 5).bind(&r).unwrap();
        let eth = r.schema().col_of("ETH");
        r.suppress_cell(7, eth);
        r.suppress_cell(8, eth);
        assert_eq!(s1.count_in(&r), 1);
        assert!(!s1.satisfied_by(&r));
    }
}
