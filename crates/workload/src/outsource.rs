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
use prism_protocol::shard::ShardPlan;
use prism_protocol::tables::{share_indicator, share_payload};
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

/// Group rows by OK and build the plaintext 11-column source columns.
pub struct GroupedColumns {
    /// Indicator per cell.
    pub indicator: Vec<u64>,
    /// Per-attribute sums (PK, LN, SK, DT).
    pub sums: [Vec<u64>; 4],
    /// Tuple counts (`aOK` source).
    pub counts: Vec<u64>,
}

/// Aggregate a LineItem relation by OK over the dense domain `1..=b`.
pub fn group_by_ok(rows: &[LineItemRow], b: usize) -> GroupedColumns {
    let mut g = GroupedColumns {
        indicator: vec![0; b],
        sums: [vec![0; b], vec![0; b], vec![0; b], vec![0; b]],
        counts: vec![0; b],
    };
    for r in rows {
        let cell = (r.ok - 1) as usize;
        assert!(cell < b, "OK value {} outside domain 1..={b}", r.ok);
        g.indicator[cell] = 1;
        g.counts[cell] += 1;
        g.sums[0][cell] += r.pk;
        g.sums[1][cell] += r.ln;
        g.sums[2][cell] += r.sk;
        g.sums[3][cell] += r.dt;
    }
    g
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
    let g = group_by_ok(rows, op.b);
    let mut prg = Prg::from_seed(seed);
    let mut tables: Vec<SharedTable> = (0..SHAMIR_SERVERS)
        .map(|_| SharedTable::default())
        .collect();

    // OK: additive shares to servers 1 and 2.
    let ind = share_indicator(&g.indicator, op.delta, &mut prg);
    tables[0].ok = ind.shares[0].clone();
    tables[1].ok = ind.shares[1].clone();

    if with_verification {
        let complement: Vec<u64> = g.indicator.iter().map(|&x| 1 - x).collect();
        let vperm = op.pf_db1.apply(&complement);
        let v = share_indicator(&vperm, op.delta, &mut prg);
        tables[0].v_ok = v.shares[0].clone();
        tables[1].v_ok = v.shares[1].clone();
    }

    // PK…DT and aOK: Shamir shares to all three servers.
    for a in 0..attrs {
        let p = share_payload(&g.sums[a], &op.field, &mut prg);
        for (k, t) in tables.iter_mut().enumerate() {
            t.agg.push(p.shares[k].clone());
        }
        if with_verification {
            let vp = share_payload(&op.pf_db1.apply(&g.sums[a]), &op.field, &mut prg);
            for (k, t) in tables.iter_mut().enumerate() {
                t.v_agg.push(vp.shares[k].clone());
            }
        }
    }
    let c = share_payload(&g.counts, &op.field, &mut prg);
    for (k, t) in tables.iter_mut().enumerate() {
        t.a_ok = c.shares[k].clone();
    }

    OutsourcedOwner {
        tables,
        elapsed: t0.elapsed(),
    }
}

/// Result of outsourcing one owner into a **sharded** deployment:
/// `tables[φ][s]` is the row-range shard `s` of server φ's table.
pub struct OutsourcedShards {
    /// Per-server, per-shard tables.
    pub tables: Vec<Vec<SharedTable>>,
    /// Share-generation + row-split time.
    pub elapsed: Duration,
}

/// Outsource one owner's relation into per-server, per-shard
/// `SharedTable`s — the Phase-1 pipeline for a domain backed by
/// row-range shards. Shares are generated exactly as in
/// [`outsource_owner`] (the split happens *after* sharing, so shard
/// layouts reconstruct the identical columns), then each server's table
/// is partitioned along `plan`'s row ranges.
pub fn outsource_owner_sharded(
    rows: &[LineItemRow],
    op: &OwnerParams,
    attrs: usize,
    with_verification: bool,
    seed: u64,
    plan: &ShardPlan,
) -> OutsourcedShards {
    let t0 = Instant::now();
    let whole = outsource_owner(rows, op, attrs, with_verification, seed);
    let ranges: Vec<(usize, usize)> = plan.specs().iter().map(|s| (s.start, s.len)).collect();
    let tables = whole.tables.iter().map(|t| t.split_rows(&ranges)).collect();
    OutsourcedShards {
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
    fn sharded_outsourcing_reconstructs_source_columns() {
        let cfg = LineItemConfig::full(40, 5);
        let rows = cfg.generate_owner(0);
        let op = owner_params(2, 40);
        let g = group_by_ok(&rows, 40);
        let plan = ShardPlan::new(40, 4);
        let out = outsource_owner_sharded(&rows, &op, 2, true, 21, &plan);
        assert_eq!(out.tables.len(), 3);
        for per_server in &out.tables {
            assert_eq!(per_server.len(), 4);
            for shard in per_server {
                shard.check().unwrap();
            }
        }
        // Rejoin each server's shards by rows and reconstruct: the shard
        // layout must hide nothing.
        for i in 0..40 {
            let spec_idx = plan
                .specs()
                .iter()
                .position(|s| i >= s.start && i < s.start + s.len)
                .unwrap();
            let local = i - plan.specs()[spec_idx].start;
            let a = out.tables[0][spec_idx].ok[local];
            let b = out.tables[1][spec_idx].ok[local];
            assert_eq!(prism_core::reconstruct2(a, b, op.delta), g.indicator[i]);
            let ys: Vec<u64> = (0..3)
                .map(|k| out.tables[k][spec_idx].agg[0][local])
                .collect();
            assert_eq!(op.field.reconstruct_raw(&ys), g.sums[0][i]);
        }
        // The sharded split matches the unsharded table row-for-row.
        let whole = outsource_owner(&rows, &op, 2, true, 21);
        let rejoined: Vec<u64> = out.tables[0].iter().flat_map(|t| t.ok.clone()).collect();
        assert_eq!(rejoined, whole.tables[0].ok);
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
