//! The Phase-1 outsourcing pipeline of §8.1.
//!
//! Reproduces the four data-preparation steps verbatim:
//!
//! 1. build the 11-column table (Table 11) from the owner's LineItem rows;
//! 2. the `OK` column is the Step-1 indicator of §5.1, `vOK` its §5.2
//!    complement;
//! 3. `PK…DT` are `SELECT OK, sum(col) … GROUP BY OK`, `aOK` is
//!    `SELECT count(*) … GROUP BY OK`;
//! 4. verification columns are permuted (with `PF_db1`), then `OK`/`vOK`
//!    are additively shared and the rest Shamir-shared.
//!
//! The paper reports this step's cost ("Share generation time … 121s
//! (548s)"); [`outsource_owner`] returns the measured duration so the
//! `sharegen` bench reproduces that row.

use crate::lineitem::LineItemRow;
use prism_core::Prg;
use prism_protocol::engine::Column;
use prism_protocol::params::{OwnerParams, SHAMIR_SERVERS};
use prism_protocol::tables::{share_owner, ColumnSet, OwnerTable};
use prism_storage::SharedTable;
use std::time::{Duration, Instant};

/// Result of outsourcing one owner: one `SharedTable` per server plus the
/// share-generation wall time.
pub struct OutsourcedOwner {
    /// Per-server tables (index φ; the additive columns of server 3 are
    /// empty since only two servers hold additive shares).
    pub tables: Vec<SharedTable>,
    /// Share-generation time (the §8.1 metric).
    pub elapsed: Duration,
}

/// Aggregate a LineItem relation by OK over the dense domain `1..=b`:
/// the plaintext source columns of Table 11, with `sums[0..4]` the
/// per-cell sums of PK, LN, SK, DT. Panics on an OK value outside the
/// domain.
pub fn group_by_ok(rows: &[LineItemRow], b: usize) -> OwnerTable {
    group_attrs(rows, 4, b)
}

/// [`group_by_ok`] over the first `attrs` of PK, LN, SK, DT only.
fn group_attrs(rows: &[LineItemRow], attrs: usize, b: usize) -> OwnerTable {
    let rows = rows.iter().map(|r| (r.ok, [r.pk, r.ln, r.sk, r.dt]));
    OwnerTable::window(rows, attrs, 0, b).unwrap_or_else(|e| panic!("LineItem OK value: {e}"))
}

/// Outsource one owner's relation into per-server `SharedTable`s.
///
/// `with_verification` controls the `vOK`/`vPK…` columns; `attrs ≤ 4`
/// selects how many aggregation columns to materialize.
pub fn outsource_owner(
    rows: &[LineItemRow],
    op: &OwnerParams,
    attrs: usize,
    with_verification: bool,
    seed: u64,
) -> OutsourcedOwner {
    assert!(attrs <= 4, "at most 4 aggregation attributes (PK LN SK DT)");
    let t0 = Instant::now();
    let g = group_attrs(rows, attrs, op.b);
    let set = ColumnSet {
        verification: with_verification,
        two_copy: false,
        aggregation: Some(attrs),
    };
    let mut tables = vec![SharedTable::default(); SHAMIR_SERVERS];
    let perms = (&op.pf_db1, &op.pf_db2);
    let mut prg = Prg::from_seed(seed);
    share_owner(&g, op, perms, set, &mut prg, |k, column, shares| {
        let t = &mut tables[k];
        match column {
            Column::Ok => t.ok = shares,
            Column::VOk => t.v_ok = shares,
            Column::Agg(_) => t.agg.push(shares),
            Column::VAgg(_) => t.v_agg.push(shares),
            Column::AOk => t.a_ok = shares,
            Column::OkDb1 | Column::OkDb2 => unreachable!("Table 11 has no two-copy columns"),
        }
    });
    OutsourcedOwner {
        tables,
        elapsed: t0.elapsed(),
    }
}

/// Flatten a `SharedTable` into the `(column, data)` list a
/// `BulkUpload` message (or a `ServerNode` store loop) consumes, in
/// Table-11 order. Empty columns are skipped — the third server holds no
/// additive shares.
pub fn table_columns(table: &SharedTable) -> Vec<(Column, Vec<u64>)> {
    let mut cols = Vec::new();
    if !table.ok.is_empty() {
        cols.push((Column::Ok, table.ok.clone()));
    }
    if !table.v_ok.is_empty() {
        cols.push((Column::VOk, table.v_ok.clone()));
    }
    for (a, c) in table.agg.iter().enumerate() {
        cols.push((Column::Agg(a as u8), c.clone()));
    }
    for (a, c) in table.v_agg.iter().enumerate() {
        cols.push((Column::VAgg(a as u8), c.clone()));
    }
    if !table.a_ok.is_empty() {
        cols.push((Column::AOk, table.a_ok.clone()));
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineitem::LineItemConfig;
    use prism_protocol::params::{Initiator, SystemConfig};

    fn owner_params(m: usize, b: usize) -> OwnerParams {
        Initiator::new(SystemConfig::new(m, b).with_seed(7))
            .setup()
            .unwrap()
            .owner
    }

    #[test]
    fn grouping_matches_sql_semantics() {
        let rows = vec![
            LineItemRow {
                ok: 1,
                pk: 10,
                ln: 1,
                sk: 5,
                dt: 2,
            },
            LineItemRow {
                ok: 1,
                pk: 20,
                ln: 2,
                sk: 5,
                dt: 3,
            },
            LineItemRow {
                ok: 3,
                pk: 7,
                ln: 1,
                sk: 1,
                dt: 0,
            },
        ];
        let g = group_by_ok(&rows, 4);
        assert_eq!(g.indicator, vec![1, 0, 1, 0]);
        assert_eq!(g.counts, vec![2, 0, 1, 0]);
        assert_eq!(g.sums[0], vec![30, 0, 7, 0]); // sum(PK) group by OK
        assert_eq!(g.sums[3], vec![5, 0, 0, 0]); // sum(DT)
    }

    #[test]
    fn outsourced_tables_have_eleven_columns() {
        let cfg = LineItemConfig::full(64, 1);
        let rows = cfg.generate_owner(0);
        let op = owner_params(3, 64);
        let out = outsource_owner(&rows, &op, 4, true, 99);
        assert_eq!(out.tables.len(), 3);
        for (k, t) in out.tables.iter().enumerate() {
            t.check().unwrap();
            assert_eq!(t.attributes(), 4);
            if k < 2 {
                // 11 columns at the additive servers: OK + 4 agg + vOK +
                // 4 v-agg + aOK.
                assert_eq!(t.total_values(), 64 * 11, "server {k}");
            } else {
                // Server 3 holds only the Shamir columns (9 of them).
                assert_eq!(t.total_values(), 64 * 9, "server {k}");
            }
        }
        assert!(out.elapsed > Duration::ZERO);
    }

    #[test]
    fn shares_reconstruct_source_columns() {
        let cfg = LineItemConfig::full(32, 2);
        let rows = cfg.generate_owner(0);
        let op = owner_params(2, 32);
        let g = group_by_ok(&rows, 32);
        let out = outsource_owner(&rows, &op, 4, true, 11);
        // OK column: additive reconstruction.
        for i in 0..32 {
            assert_eq!(
                prism_core::reconstruct2(out.tables[0].ok[i], out.tables[1].ok[i], op.delta),
                g.indicator[i]
            );
        }
        // PK column: Shamir reconstruction.
        for i in 0..32 {
            let ys: Vec<u64> = (0..3).map(|k| out.tables[k].agg[0][i]).collect();
            assert_eq!(op.field.reconstruct_raw(&ys), g.sums[0][i]);
        }
        // aOK column.
        for i in 0..32 {
            let ys: Vec<u64> = (0..3).map(|k| out.tables[k].a_ok[i]).collect();
            assert_eq!(op.field.reconstruct_raw(&ys), g.counts[i]);
        }
    }

    #[test]
    fn verification_columns_are_permutations() {
        let cfg = LineItemConfig::full(16, 3);
        let rows = cfg.generate_owner(0);
        let op = owner_params(2, 16);
        let g = group_by_ok(&rows, 16);
        let out = outsource_owner(&rows, &op, 1, true, 12);
        // Reconstruct vPK and un-permute: must equal the PK source column.
        let recon: Vec<u64> = (0..16)
            .map(|i| {
                let ys: Vec<u64> = (0..3).map(|k| out.tables[k].v_agg[0][i]).collect();
                op.field.reconstruct_raw(&ys)
            })
            .collect();
        assert_eq!(op.pf_db1.inverse().apply(&recon), g.sums[0]);
    }

    #[test]
    fn table_columns_cover_populated_columns_in_order() {
        let cfg = LineItemConfig::full(16, 6);
        let rows = cfg.generate_owner(0);
        let op = owner_params(2, 16);
        let out = outsource_owner(&rows, &op, 2, true, 22);
        // Additive server: OK + vOK + 2 agg + 2 v-agg + aOK.
        let cols = table_columns(&out.tables[0]);
        assert_eq!(cols.len(), 7);
        assert_eq!(cols[0].0, Column::Ok);
        assert_eq!(cols[6].0, Column::AOk);
        // Shamir-only server: no additive columns.
        let cols = table_columns(&out.tables[2]);
        assert_eq!(cols.len(), 5);
        assert!(cols
            .iter()
            .all(|(c, _)| !matches!(c, Column::Ok | Column::VOk)));
    }

    /// The share stream is pinned bit for bit: one fixed `(rows, op,
    /// seed)` yields exactly these per-server tables, whatever code path
    /// produced them (FNV-1a over every column in Table-11 order).
    #[test]
    fn outsourced_tables_match_the_golden_digest() {
        let rows = LineItemConfig::full(48, 9).generate_owner(1);
        let op = owner_params(3, 48);
        let out = outsource_owner(&rows, &op, 4, true, 0x60_1DE7);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        for t in &out.tables {
            let columns = [&t.ok, &t.v_ok, &t.a_ok]
                .into_iter()
                .chain(&t.agg)
                .chain(&t.v_agg);
            for column in columns {
                eat(column.len() as u64);
                column.iter().copied().for_each(&mut eat);
            }
        }
        assert_eq!(h, 0x595a_084d_5e46_f7d3, "got {h:#x}");
    }

    #[test]
    fn attrs_zero_skips_agg_columns() {
        let cfg = LineItemConfig::full(8, 4);
        let rows = cfg.generate_owner(0);
        let op = owner_params(2, 8);
        let out = outsource_owner(&rows, &op, 0, false, 13);
        assert_eq!(out.tables[0].attributes(), 0);
        assert!(out.tables[0].v_ok.is_empty());
    }
}
