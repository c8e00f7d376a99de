//! The columnar relation type.

use std::fmt;
use std::sync::Arc;

use crate::dict::Dict;
use crate::schema::Schema;
use crate::value::{Value, STAR_CODE};
use crate::{ColId, RowId};

/// A finite relation: dictionary-encoded columnar storage over a
/// [`Schema`].
///
/// Cells are `u32` codes into per-column [`Dict`]s; the reserved
/// [`STAR_CODE`] marks suppressed cells. Dictionaries are shared
/// (`Arc`) between a relation and relations derived from it (subsets,
/// anonymized copies), so deriving costs one `u32` per cell.
///
/// The paper treats a relation as a *set* of tuples; we keep insertion
/// order for determinism and reproducibility, and none of the
/// algorithms depend on duplicate elimination.
#[derive(Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    dicts: Vec<Arc<Dict>>,
    cols: Vec<Vec<u32>>,
    n_rows: usize,
}

impl Relation {
    /// Assembles a relation from parts. Prefer [`crate::RelationBuilder`]
    /// or [`crate::csv::read_relation`] in application code.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the schema arity or the
    /// columns have unequal lengths.
    pub fn from_parts(schema: Arc<Schema>, dicts: Vec<Arc<Dict>>, cols: Vec<Vec<u32>>) -> Self {
        assert_eq!(cols.len(), schema.arity(), "column count != schema arity");
        assert_eq!(dicts.len(), schema.arity(), "dict count != schema arity");
        let n_rows = cols.first().map_or(0, Vec::len);
        for c in &cols {
            assert_eq!(c.len(), n_rows, "ragged columns");
        }
        Self { schema, dicts, cols, n_rows }
    }

    /// An empty relation over `schema` with fresh dictionaries.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let arity = schema.arity();
        Self {
            dicts: (0..arity).map(|_| Arc::new(Dict::new())).collect(),
            cols: vec![Vec::new(); arity],
            schema,
            n_rows: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples (the paper's `N` / `|R|`).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The dictionary for column `col`.
    pub fn dict(&self, col: ColId) -> &Arc<Dict> {
        &self.dicts[col]
    }

    /// All dictionaries in column order.
    pub fn dicts(&self) -> &[Arc<Dict>] {
        &self.dicts
    }

    /// The raw code column for `col`.
    pub fn column(&self, col: ColId) -> &[u32] {
        &self.cols[col]
    }

    /// The code stored at (`row`, `col`).
    pub fn code(&self, row: RowId, col: ColId) -> u32 {
        self.cols[col][row]
    }

    /// The decoded value at (`row`, `col`).
    pub fn value(&self, row: RowId, col: ColId) -> Value<'_> {
        let code = self.code(row, col);
        match self.dicts[col].decode(code) {
            Some(s) => Value::Sym(s),
            None => Value::Star,
        }
    }

    /// Whether the cell at (`row`, `col`) is suppressed.
    pub fn is_suppressed(&self, row: RowId, col: ColId) -> bool {
        self.code(row, col) == STAR_CODE
    }

    /// Suppresses the QI cell at (`row`, `col`), replacing it with `★`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not a quasi-identifier — the paper's
    /// suppression model only obscures QI values (sensitive values are
    /// published as-is).
    pub fn suppress_cell(&mut self, row: RowId, col: ColId) {
        assert!(self.schema.is_qi(col), "suppression is only defined on QI attributes (col {col})");
        self.cols[col][row] = STAR_CODE;
    }

    /// The QI codes of `row`, in `schema.qi_cols()` order.
    pub fn qi_codes(&self, row: RowId) -> impl Iterator<Item = u32> + '_ {
        self.schema.qi_cols().iter().map(move |&c| self.cols[c][row])
    }

    /// Whether two rows agree on every QI attribute (i.e. belong to the
    /// same QI-group).
    pub fn qi_equal(&self, a: RowId, b: RowId) -> bool {
        self.schema.qi_cols().iter().all(|&c| self.cols[c][a] == self.cols[c][b])
    }

    /// Number of distinct QI projections, the paper's `|Π_QI(R)|`
    /// (Table 4).
    pub fn distinct_qi_projections(&self) -> usize {
        use std::collections::HashSet;
        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(self.n_rows);
        for row in 0..self.n_rows {
            seen.insert(self.qi_codes(row).collect());
        }
        seen.len()
    }

    /// A new relation containing `rows` of `self` (in the given order),
    /// sharing dictionaries.
    pub fn select(&self, rows: &[RowId]) -> Relation {
        let cols = self.cols.iter().map(|col| rows.iter().map(|&r| col[r]).collect()).collect();
        Relation {
            schema: Arc::clone(&self.schema),
            dicts: self.dicts.clone(),
            cols,
            n_rows: rows.len(),
        }
    }

    /// A prefix of the relation with the first `n` tuples (used by the
    /// benchmark harness for |R| sweeps). `n` is clamped to `n_rows`.
    pub fn head(&self, n: usize) -> Relation {
        let n = n.min(self.n_rows);
        let rows: Vec<RowId> = (0..n).collect();
        self.select(&rows)
    }

    /// Appends all tuples of `other`.
    ///
    /// # Panics
    ///
    /// Panics if schemas differ or the relations do not share
    /// dictionaries — the union in the paper's `Integrate` step is
    /// always between relations derived from the same input `R`.
    pub fn append(&mut self, other: &Relation) {
        assert_eq!(self.schema, other.schema, "schema mismatch in append");
        for c in 0..self.cols.len() {
            assert!(
                Arc::ptr_eq(&self.dicts[c], &other.dicts[c]),
                "append requires shared dictionaries (column {c})"
            );
            self.cols[c].extend_from_slice(&other.cols[c]);
        }
        self.n_rows += other.n_rows;
    }

    /// Total number of suppressed (★) cells — the paper's information
    /// loss count.
    pub fn star_count(&self) -> usize {
        self.cols.iter().map(|c| c.iter().filter(|&&x| x == STAR_CODE).count()).sum()
    }

    /// Counts tuples whose values in columns `cols` equal `codes`
    /// (retained, not suppressed). This is the satisfaction query of
    /// Definition 2.3.
    pub fn count_matching(&self, cols: &[ColId], codes: &[u32]) -> usize {
        assert_eq!(cols.len(), codes.len());
        (0..self.n_rows)
            .filter(|&r| cols.iter().zip(codes).all(|(&c, &code)| self.cols[c][r] == code))
            .count()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation[{} rows] {}", self.n_rows, self.schema)?;
        let shown = self.n_rows.min(20);
        for row in 0..shown {
            write!(f, "  ")?;
            for col in 0..self.schema.arity() {
                if col > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{}", self.value(row, col))?;
            }
            writeln!(f)?;
        }
        if shown < self.n_rows {
            writeln!(f, "  … {} more", self.n_rows - shown)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RelationBuilder;
    use crate::schema::Attribute;

    fn tiny() -> Relation {
        let schema = Schema::new(vec![
            Attribute::quasi("GEN"),
            Attribute::quasi("ETH"),
            Attribute::sensitive("DIAG"),
        ]);
        let mut b = RelationBuilder::new(Arc::new(schema));
        b.push_row(&["F", "Asian", "Flu"]);
        b.push_row(&["M", "Asian", "Cold"]);
        b.push_row(&["F", "African", "Flu"]);
        b.finish()
    }

    #[test]
    fn basic_accessors() {
        let r = tiny();
        assert_eq!(r.n_rows(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.value(0, 0).as_str(), "F");
        assert_eq!(r.value(1, 2).as_str(), "Cold");
        assert!(!r.is_suppressed(0, 0));
    }

    #[test]
    fn suppress_cell_sets_star() {
        let mut r = tiny();
        r.suppress_cell(0, 1);
        assert!(r.is_suppressed(0, 1));
        assert_eq!(r.value(0, 1), Value::Star);
        assert_eq!(r.star_count(), 1);
    }

    #[test]
    #[should_panic(expected = "only defined on QI")]
    fn suppressing_sensitive_panics() {
        let mut r = tiny();
        r.suppress_cell(0, 2);
    }

    #[test]
    fn qi_equal_ignores_sensitive() {
        let schema = Schema::new(vec![Attribute::quasi("A"), Attribute::sensitive("S")]);
        let mut b = RelationBuilder::new(Arc::new(schema));
        b.push_row(&["x", "s1"]);
        b.push_row(&["x", "s2"]);
        let r = b.finish();
        assert!(r.qi_equal(0, 1));
    }

    #[test]
    fn distinct_qi_projections_counts() {
        let r = tiny();
        assert_eq!(r.distinct_qi_projections(), 3);
        let mut r2 = tiny();
        // Suppressing ETH on rows 0 and 1 leaves (F,★), (M,★), (F,African).
        r2.suppress_cell(0, 1);
        r2.suppress_cell(1, 1);
        assert_eq!(r2.distinct_qi_projections(), 3);
    }

    #[test]
    fn select_shares_dicts() {
        let r = tiny();
        let s = r.select(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.value(0, 1).as_str(), "African");
        assert_eq!(s.value(1, 0).as_str(), "F");
        assert!(Arc::ptr_eq(s.dict(0), r.dict(0)));
    }

    #[test]
    fn head_clamps() {
        let r = tiny();
        assert_eq!(r.head(2).n_rows(), 2);
        assert_eq!(r.head(100).n_rows(), 3);
    }

    #[test]
    fn append_concatenates() {
        let r = tiny();
        let mut a = r.select(&[0]);
        let b = r.select(&[1, 2]);
        a.append(&b);
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.value(2, 1).as_str(), "African");
    }

    #[test]
    fn count_matching_respects_suppression() {
        let mut r = tiny();
        let eth = 1;
        let asian = r.dict(eth).code("Asian").unwrap();
        assert_eq!(r.count_matching(&[eth], &[asian]), 2);
        r.suppress_cell(0, eth);
        assert_eq!(r.count_matching(&[eth], &[asian]), 1);
    }

    #[test]
    fn empty_relation() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let r = Relation::empty(schema);
        assert_eq!(r.n_rows(), 0);
        assert!(r.is_empty());
        assert_eq!(r.star_count(), 0);
        assert_eq!(r.distinct_qi_projections(), 0);
    }
}
