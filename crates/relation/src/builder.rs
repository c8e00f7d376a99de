//! Row-at-a-time relation construction.

use std::sync::Arc;

use crate::dict::Dict;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::STAR_CODE;

/// Builds a [`Relation`] row by row, interning strings into per-column
/// dictionaries.
///
/// The builder owns mutable dictionaries while rows are pushed and
/// freezes them into shared `Arc<Dict>`s at [`RelationBuilder::finish`].
pub struct RelationBuilder {
    schema: Arc<Schema>,
    dicts: Vec<Dict>,
    cols: Vec<Vec<u32>>,
}

impl RelationBuilder {
    /// Creates a builder for `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let arity = schema.arity();
        Self {
            schema,
            dicts: (0..arity).map(|_| Dict::new()).collect(),
            cols: vec![Vec::new(); arity],
        }
    }

    /// Appends one row of string values, in schema column order.
    /// The literal string `"★"` is stored as a suppressed cell.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the schema arity.
    pub fn push_row<S: AsRef<str>>(&mut self, values: &[S]) {
        assert_eq!(
            values.len(),
            self.schema.arity(),
            "row arity {} != schema arity {}",
            values.len(),
            self.schema.arity()
        );
        for (col, v) in values.iter().enumerate() {
            let s = v.as_ref();
            let code = if s == "★" { STAR_CODE } else { self.dicts[col].intern(s) };
            self.cols[col].push(code);
        }
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// Freezes the builder into an immutable [`Relation`].
    pub fn finish(self) -> Relation {
        let dicts = self.dicts.into_iter().map(Arc::new).collect();
        Relation::from_parts(self.schema, dicts, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    #[test]
    fn builds_relation() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A"), Attribute::sensitive("S")]));
        let mut b = RelationBuilder::new(schema);
        assert_eq!(b.n_rows(), 0);
        b.push_row(&["a1", "s1"]);
        b.push_row(&["a2", "s2"]);
        assert_eq!(b.n_rows(), 2);
        let r = b.finish();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.value(1, 0).as_str(), "a2");
    }

    #[test]
    fn star_literal_becomes_suppressed() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&["★"]);
        let r = b.finish();
        assert!(r.is_suppressed(0, 0));
        assert_eq!(r.dict(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn wrong_arity_panics() {
        let schema = Arc::new(Schema::new(vec![Attribute::quasi("A")]));
        let mut b = RelationBuilder::new(schema);
        b.push_row(&["x", "y"]);
    }
}
