//! [`RowSet`] — a fixed-capacity bitset over [`RowId`]s.
//!
//! The DIVA hot path (constraint-graph construction and the colouring
//! search's consistency checks) is dominated by row-set membership and
//! overlap tests. A hash set of row ids answers those in O(1) expected
//! time but with hashing, pointer chasing, and poor cache behaviour;
//! a bitset answers membership with one shift-and-mask and overlap /
//! subset questions 64 rows per instruction, word-wise. Row ids are
//! dense indices into a [`Relation`](crate::Relation), which makes the
//! fixed-capacity representation exact, compact (|R|/8 bytes), and
//! allocation-free after construction.
#![deny(clippy::disallowed_types)]

use crate::RowId;

/// A fixed-capacity set of row ids backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally so `len` is O(1).
    len: usize,
    /// One past the largest insertable row id.
    capacity: usize,
}

impl RowSet {
    /// An empty set able to hold rows `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self { words: vec![0; capacity.div_ceil(64)], len: 0, capacity }
    }

    /// Builds a set from an iterator of row ids (duplicates are fine).
    pub fn from_rows(capacity: usize, rows: impl IntoIterator<Item = RowId>) -> Self {
        let mut s = Self::new(capacity);
        for r in rows {
            s.insert(r);
        }
        s
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `row` is in the set. Out-of-capacity rows are never
    /// members (no panic: the search probes arbitrary row ids).
    #[inline]
    pub fn contains(&self, row: RowId) -> bool {
        match self.words.get(row / 64) {
            Some(w) => (w >> (row % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Inserts `row`; returns whether it was newly added.
    ///
    /// # Panics
    /// If `row >= capacity`.
    #[inline]
    pub fn insert(&mut self, row: RowId) -> bool {
        assert!(row < self.capacity, "row {row} out of capacity {}", self.capacity);
        let (w, bit) = (row / 64, 1u64 << (row % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `row`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, row: RowId) -> bool {
        let Some(w) = self.words.get_mut(row / 64) else { return false };
        let bit = 1u64 << (row % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Whether the two sets share any row — word-wise, no iteration
    /// over elements.
    pub fn intersects(&self, other: &RowSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Number of rows in the intersection (word-wise popcount).
    pub fn intersection_len(&self, other: &RowSet) -> usize {
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Whether every row of `self` is in `other`.
    pub fn is_subset_of(&self, other: &RowSet) -> bool {
        if self.len > other.len {
            return false;
        }
        let mut words = self.words.iter().zip(other.words.iter().chain(std::iter::repeat(&0)));
        words.all(|(a, b)| a & !b == 0)
    }

    /// Whether every row in `rows` is a member — the cluster-validity
    /// probe of the colouring search.
    pub fn contains_all(&self, rows: &[RowId]) -> bool {
        rows.iter().all(|&r| self.contains(r))
    }

    /// Checks the structure's internal invariants: the word vector
    /// covers exactly the capacity, no bit is set past the capacity,
    /// and the cached `len` matches the popcount. Cheap (O(words));
    /// the `strict-invariants` pipeline gates and the property suites
    /// call it after mutation sequences.
    pub fn validate(&self) -> Result<(), String> {
        if self.words.len() != self.capacity.div_ceil(64) {
            return Err(format!(
                "RowSet: {} words cannot back capacity {} (expected {})",
                self.words.len(),
                self.capacity,
                self.capacity.div_ceil(64)
            ));
        }
        if let Some(&tail) = self.words.last() {
            let used = self.capacity - (self.words.len() - 1) * 64;
            if used < 64 && tail >> used != 0 {
                return Err(format!(
                    "RowSet: bit set past capacity {} (tail word {tail:#x}, {used} valid bits)",
                    self.capacity
                ));
            }
        }
        let pop: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        if pop != self.len {
            return Err(format!("RowSet: cached len {} != popcount {pop}", self.len));
        }
        Ok(())
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RowId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = RowId;
    type IntoIter = Box<dyn Iterator<Item = RowId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_len() {
        let mut s = RowSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "duplicate insert");
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert!(!s.contains(10_000), "out-of-capacity is not a member");
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        assert!(!s.remove(999), "out-of-capacity remove is a no-op");
    }

    #[test]
    fn word_wise_queries() {
        let a = RowSet::from_rows(200, [1, 65, 130, 199]);
        let b = RowSet::from_rows(200, [2, 65, 131]);
        let c = RowSet::from_rows(200, [1, 65]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_len(&b), 1);
        assert!(!b.intersects(&c) || b.intersection_len(&c) == 1);
        assert!(c.is_subset_of(&a));
        assert!(!a.is_subset_of(&c));
        assert!(a.contains_all(&[1, 130]));
        assert!(!a.contains_all(&[1, 2]));
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let rows = [0usize, 3, 63, 64, 64, 127, 128, 191];
        let s = RowSet::from_rows(192, rows);
        let got: Vec<RowId> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 63, 64, 127, 128, 191]);
        assert_eq!(s.len(), got.len());
    }

    #[test]
    fn differing_capacities_compare_safely() {
        let small = RowSet::from_rows(10, [1, 9]);
        let large = RowSet::from_rows(1000, [1, 9, 500]);
        assert!(small.is_subset_of(&large));
        assert!(!large.is_subset_of(&small));
        assert!(small.intersects(&large));
        assert_eq!(small.intersection_len(&large), 2);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_beyond_capacity_panics() {
        RowSet::new(8).insert(8);
    }

    #[test]
    fn empty_capacity_zero() {
        let s = RowSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
        s.validate().unwrap();
    }

    #[test]
    fn validate_accepts_well_formed_sets() {
        for cap in [0usize, 1, 63, 64, 65, 200] {
            let s = RowSet::from_rows(cap, (0..cap).step_by(3));
            s.validate().unwrap_or_else(|e| panic!("cap {cap}: {e}"));
        }
    }

    #[test]
    fn validate_reports_bit_past_capacity() {
        // Corruption injection: set a bit the API could never set.
        let mut s = RowSet::from_rows(70, [0, 69]);
        s.words[1] |= 1 << 30; // row 94 ≥ capacity 70
        let err = s.validate().unwrap_err();
        assert!(err.contains("past capacity"), "{err}");
    }

    #[test]
    fn validate_reports_stale_cached_len() {
        let mut s = RowSet::from_rows(100, [5, 50, 99]);
        s.len = 2; // desync the cache
        let err = s.validate().unwrap_err();
        assert!(err.contains("popcount"), "{err}");
    }
}
