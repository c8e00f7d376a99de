//! The provenance log of a returned result (`DESIGN.md` §16): a run
//! with the recorder enabled keeps [`Notes`] as it goes, and
//! [`Notes::into_log`] derives the whole log from them and the published
//! table, once per returned result.

use diva_obs::provenance::{Cause, CellRecord, GroupOrigin, GroupRecord, Log};
use diva_relation::{Relation, RowId, STAR_CODE};

/// What the provenance log needs beyond the published table.
#[derive(Debug, Default)]
pub(crate) struct Notes {
    /// The log's meta line: k, the input's row count, the Σ labels.
    pub(crate) meta: Log,
    /// Each constraint's target columns, in Σ order.
    pub(crate) cols: Vec<Vec<usize>>,
    /// The origin and owners of each published group, in group order.
    pub(crate) groups: Vec<(GroupOrigin, Vec<u32>)>,
    /// Integrate's repair rounds in order (`Integrated::rounds`).
    pub(crate) repairs: Vec<(usize, usize)>,
    /// Why each row of a degraded run's star block, its last group, is
    /// there, in block order.
    pub(crate) star_block: Vec<Cause>,
}

impl Notes {
    /// Derives the run's log from these notes and the published table:
    /// one group record per group, then one cell record per star. A
    /// group's cells come first, in group order, then each repair
    /// round's, in round order.
    ///
    /// **Tie-splitting.** A group's stars that no repair made are
    /// enumerated by column ascending, then row in group order, and the
    /// j-th is charged to `owners[j % owners.len()]`; a group without
    /// owners charges k-anonymity. A star block's rows instead carry
    /// the cause noted for them, on every starred column of the row.
    pub(crate) fn into_log(
        self,
        relation: &Relation,
        groups: &[Vec<RowId>],
        source_rows: &[RowId],
    ) -> Log {
        let Notes { meta, cols, groups: formed, repairs, star_block } = self;
        debug_assert_eq!(formed.len(), groups.len(), "one note per published group");
        let mut repaired: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        for &(g, ci) in &repairs {
            repaired[g].extend_from_slice(&cols[ci]);
        }
        let record = |r: RowId, col: usize, g: usize, cause| CellRecord {
            row: source_rows[r] as u64,
            col: col as u32,
            group: g as u64,
            cause,
        };
        let mut log = Log { groups: Vec::with_capacity(groups.len()), ..meta };
        let qi = relation.schema().qi_cols();
        let mut starred = Vec::with_capacity(qi.len());
        for (g, (rows, (origin, owners))) in groups.iter().zip(formed).enumerate() {
            // Every row of a group shares one star pattern, so its first
            // row names the starred columns.
            starred.clear();
            if let Some(&first) = rows.first() {
                starred.extend(qi.iter().copied().filter(|&c| {
                    relation.code(first, c) == STAR_CODE && !repaired[g].contains(&c)
                }));
            }
            if origin == GroupOrigin::StarBlock {
                for (&r, cause) in rows.iter().zip(&star_block) {
                    log.cells.extend(starred.iter().map(|&col| record(r, col, g, cause.clone())));
                }
            } else {
                let stars = starred.iter().flat_map(|&col| rows.iter().map(move |&r| (r, col)));
                for (j, (r, col)) in stars.enumerate() {
                    let cause = match owners.len() {
                        0 => Cause::KAnonymity,
                        n => Cause::Sigma { constraint: owners[j % n] },
                    };
                    log.cells.push(record(r, col, g, cause));
                }
            }
            let src = rows.iter().map(|&r| source_rows[r] as u64).collect();
            log.groups.push(GroupRecord { id: g as u64, origin, owners, rows: src });
        }
        for (round, &(g, ci)) in repairs.iter().enumerate() {
            let cause = Cause::Repair { constraint: ci as u32, round: round as u32 + 1 };
            for &r in &groups[g] {
                log.cells.extend(cols[ci].iter().map(|&col| record(r, col, g, cause.clone())));
            }
        }
        log
    }
}
