//! Owner-side table construction and outsourcing — Phase 1, and Step 1
//! of every PRISM operation.
//!
//! Each owner maps its distinct `A_c` values through the public domain map
//! into a length-`b` indicator table χ (§5.1), extended with aggregation
//! payloads per attribute: the per-cell SUM `x_{i2}` for PSI-Sum (§6.1),
//! the tuple count `x_{i3}` for PSI-Average (§6.2) and the per-cell MAX
//! that max/median keep on the owner side. One pass over the owner's rows
//! ([`OwnerTable`]) produces all of them, and [`share_owner`] turns the
//! table into the Table-11 share columns the servers are pre-loaded with.
//!
//! This module is the only place that knows the Table-11 column set,
//! which copies are `PF_db`-permuted, and the PRG draw order — every
//! harness (the in-memory driver, the §8.1 workload pipeline, the
//! networked deployments) outsources through [`share_owner`].

use crate::engine::Column;
use crate::error::{ProtocolError, Result};
use crate::params::{OwnerParams, SHAMIR_SERVERS};
use prism_core::{DomainMap, Permutation, Prg};
use serde::{Deserialize, Serialize};

/// An owner's plaintext per-cell tables over one row window of the
/// domain, for every aggregation attribute at once.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct OwnerTable {
    /// `x_{i1}`: 1 iff some owned tuple maps to cell i.
    pub indicator: Vec<u64>,
    /// `x_{i3}`: number of tuples in cell i (0 if none) — the `aOK` column.
    pub counts: Vec<u64>,
    /// `x_{i2}` per attribute: `sums[a][i]` is the sum of attribute `a`
    /// over the tuples in cell i (0 if none).
    pub sums: Vec<Vec<u64>>,
    /// `maxima[a][i]`: maximum of attribute `a` in cell i (0 if none) —
    /// feeds max/median round 2.
    pub maxima: Vec<Vec<u64>>,
}

impl OwnerTable {
    /// The one pass over an owner's rows: fold `(cell, aggregation
    /// values)` pairs into a `len`-cell table with `attrs` attributes.
    /// Every other constructor only decides how a row names its cell.
    pub(crate) fn fold<A: AsRef<[u64]>>(
        len: usize,
        attrs: usize,
        cells: impl IntoIterator<Item = Result<(usize, A)>>,
    ) -> Result<OwnerTable> {
        let mut t = OwnerTable {
            indicator: vec![0; len],
            counts: vec![0; len],
            sums: vec![vec![0; len]; attrs],
            maxima: vec![vec![0; len]; attrs],
        };
        for cell in cells {
            let (i, aggs) = cell?;
            t.indicator[i] = 1;
            t.counts[i] += 1;
            for (a, &v) in aggs.as_ref().iter().take(attrs).enumerate() {
                t.sums[a][i] = t.sums[a][i].wrapping_add(v);
                t.maxima[a][i] = t.maxima[a][i].max(v);
            }
        }
        Ok(t)
    }

    /// Build from `(set_value, agg_value)` rows (one attribute) and a
    /// domain map.
    ///
    /// Returns [`ProtocolError::OutOfDomain`] if any set value does not map.
    pub fn build<T, D>(rows: &[(T, u64)], domain: &D) -> Result<OwnerTable>
    where
        D: DomainMap<T> + ?Sized,
        T: std::fmt::Debug,
    {
        let cells = rows
            .iter()
            .map(|(v, agg)| Ok((cell_of(domain, v)?, [*agg])));
        OwnerTable::fold(domain.size(), 1, cells)
    }

    /// Build an indicator-only table (no attributes) from bare set values.
    pub fn from_set<T, D>(values: &[T], domain: &D) -> Result<OwnerTable>
    where
        D: DomainMap<T> + ?Sized,
        T: std::fmt::Debug,
    {
        let cells = values.iter().map(|v| Ok((cell_of(domain, v)?, [])));
        OwnerTable::fold(domain.size(), 0, cells)
    }

    /// Build the row window `[start, start + len)` of the dense domain
    /// `1..=b` from `(set value, aggregation values)` rows: the whole
    /// table is the window `(0, b)`, a streaming append the window
    /// `(b, added)`. Every row must fall inside the window
    /// ([`ProtocolError::OutOfDomain`] otherwise); its first `attrs`
    /// aggregation values are folded.
    pub fn window<A: AsRef<[u64]>>(
        rows: impl IntoIterator<Item = (u64, A)>,
        attrs: usize,
        start: usize,
        len: usize,
    ) -> Result<OwnerTable> {
        let cells = rows.into_iter().map(|(set_v, aggs)| {
            let cell = (set_v as usize)
                .checked_sub(start + 1)
                .filter(|&i| i < len)
                .ok_or_else(|| ProtocolError::OutOfDomain {
                    value: format!("{set_v} (cells are {}..={})", start + 1, start + len),
                })?;
            Ok((cell, aggs))
        });
        OwnerTable::fold(len, attrs, cells)
    }

    /// Cells in the window.
    pub fn len(&self) -> usize {
        self.indicator.len()
    }

    /// True iff the window is empty.
    pub fn is_empty(&self) -> bool {
        self.indicator.is_empty()
    }

    /// The complement table χ̄ used by PSI verification (§5.2 Step 1).
    pub fn complement(&self) -> Vec<u64> {
        self.indicator.iter().map(|&x| 1 - x).collect()
    }
}

fn cell_of<T, D>(domain: &D, value: &T) -> Result<usize>
where
    D: DomainMap<T> + ?Sized,
    T: std::fmt::Debug + ?Sized,
{
    domain
        .index_of(value)
        .ok_or_else(|| ProtocolError::OutOfDomain {
            value: format!("{value:?}"),
        })
}

/// Which Table-11 columns [`share_owner`] materialises beside `OK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSet {
    /// The `PF_db1`-permuted verification columns: `vOK` (the permuted
    /// complement, §5.2) and one `vAgg` per aggregation column (§6.1).
    pub verification: bool,
    /// The two independently permuted indicator copies `OkDb1`/`OkDb2`
    /// that count and PSU verification compare (DESIGN.md §3.9).
    pub two_copy: bool,
    /// `Some(n)`: the Shamir columns `Agg(0..n)` and the tuple counts
    /// `aOK`; `None`: no aggregation column at all.
    pub aggregation: Option<usize>,
}

impl ColumnSet {
    /// Every column the full query mix needs over `attrs` attributes.
    pub fn full(attrs: usize) -> ColumnSet {
        ColumnSet {
            verification: true,
            two_copy: true,
            aggregation: Some(attrs),
        }
    }
}

/// Phase 1 for one owner: secret-share `table`'s columns and hand each
/// `(server, column, shares)` to `sink`.
///
/// The draw order from `prg` — and so the emission order — is fixed:
/// `OK`, `vOK`, `OkDb1`, `OkDb2`, then `Agg(a)`, `vAgg(a)` per attribute,
/// then `aOK`, skipping what `set` leaves out; each column goes to
/// servers 0, 1 (additive `Z_δ` columns) or 0, 1, 2 (Shamir columns) in
/// that order, so the additive columns never reach server 2. A caller
/// that stores from the sink holds one column's shares at a time.
///
/// `perms` are the `(PF_db1, PF_db2)` the permuted copies use over the
/// table's window: the owner's whole permutations for a full upload, or
/// their [`Permutation::tail_block`]s at the append point for a delta —
/// growth is block-diagonal, so the appended segment of the full permuted
/// column is exactly the block applied to the segment.
///
/// Panics if `set` asks for more attributes than `table` holds or a
/// permutation does not cover the window (both are caller bugs).
pub fn share_owner(
    table: &OwnerTable,
    op: &OwnerParams,
    perms: (&Permutation, &Permutation),
    set: ColumnSet,
    prg: &mut Prg,
    sink: impl FnMut(usize, Column, Vec<u64>),
) {
    share_table(table, || table.complement(), op, perms, set, prg, sink)
}

/// An update for one owner: share `new − old` column by column, each in
/// its column's ring, with fresh randomness from `prg` — what a fold adds
/// to the stored sums so they hold `new`'s shares' worth. Every Table-11
/// column is affine in the owner table, so the difference of two tables'
/// columns is the column of their difference; the complement's affine part
/// cancels, leaving `−(new − old)` (permuted like `vOK`). Emission order is
/// [`share_owner`]'s; `old` and `new` cover the same window.
pub fn share_difference(
    old: &OwnerTable,
    new: &OwnerTable,
    op: &OwnerParams,
    perms: (&Permutation, &Permutation),
    set: ColumnSet,
    prg: &mut Prg,
    sink: impl FnMut(usize, Column, Vec<u64>),
) {
    let minus = |a: &[u64], b: &[u64], n: u64| -> Vec<u64> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x % n + n - y % n) % n)
            .collect()
    };
    let (delta, p) = (op.delta, op.field.p);
    let diff = OwnerTable {
        indicator: minus(&new.indicator, &old.indicator, delta),
        counts: minus(&new.counts, &old.counts, p),
        sums: new
            .sums
            .iter()
            .zip(&old.sums)
            .map(|(a, b)| minus(a, b, p))
            .collect(),
        maxima: Vec::new(),
    };
    let complement = || minus(&old.indicator, &new.indicator, delta);
    share_table(&diff, complement, op, perms, set, prg, sink)
}

/// [`share_owner`]'s body over a table whose complement column is
/// `complement()` (drawn only when `set` carries `vOK`).
fn share_table(
    table: &OwnerTable,
    complement: impl FnOnce() -> Vec<u64>,
    op: &OwnerParams,
    perms: (&Permutation, &Permutation),
    set: ColumnSet,
    prg: &mut Prg,
    mut sink: impl FnMut(usize, Column, Vec<u64>),
) {
    let (db1, db2) = perms;
    let mut emit = |column, per_server: Vec<Vec<u64>>| {
        for (k, shares) in per_server.into_iter().enumerate() {
            sink(k, column, shares);
        }
    };
    let additive = |v: &[u64], prg: &mut Prg| share_indicator(v, op.delta, prg).shares.into();
    let shamir = |v: &[u64], prg: &mut Prg| share_payload(v, &op.field, prg).shares;
    emit(Column::Ok, additive(&table.indicator, prg));
    if set.verification {
        emit(Column::VOk, additive(&db1.apply(&complement()), prg));
    }
    if set.two_copy {
        emit(Column::OkDb1, additive(&db1.apply(&table.indicator), prg));
        emit(Column::OkDb2, additive(&db2.apply(&table.indicator), prg));
    }
    let Some(attrs) = set.aggregation else {
        return;
    };
    for (a, sums) in table.sums[..attrs].iter().enumerate() {
        emit(Column::Agg(a as u8), shamir(sums, prg));
        if set.verification {
            emit(Column::VAgg(a as u8), shamir(&db1.apply(sums), prg));
        }
    }
    emit(Column::AOk, shamir(&table.counts, prg));
}

/// [`share_owner`] collected into one `(column, shares)` list per server
/// — what a `BulkUpload` / `DeltaUpload` (or a `ServerNode` store loop)
/// consumes.
pub fn owner_uploads(
    table: &OwnerTable,
    op: &OwnerParams,
    perms: (&Permutation, &Permutation),
    set: ColumnSet,
    prg: &mut Prg,
) -> Vec<Vec<(Column, Vec<u64>)>> {
    let mut uploads = vec![Vec::new(); SHAMIR_SERVERS];
    share_owner(table, op, perms, set, prg, |k, column, shares| {
        uploads[k].push((column, shares))
    });
    uploads
}

/// The additive shares of one owner's indicator vector, ready for upload —
/// `shares[φ][i]` goes to server φ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndicatorShares {
    /// Per-server share vectors (length 2).
    pub shares: [Vec<u64>; 2],
}

/// Share an indicator (or any `Z_δ`) vector two ways.
pub fn share_indicator(values: &[u64], delta: u64, prg: &mut Prg) -> IndicatorShares {
    let (a, b) = prism_core::share_vector2(values, delta, prg);
    IndicatorShares { shares: [a, b] }
}

/// Shamir shares of one owner's payload column — `shares[φ][i]` goes to
/// server φ (length 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PayloadShares {
    /// Per-server share vectors (length 3, evaluation points 1, 2, 3).
    pub shares: Vec<Vec<u64>>,
}

/// Shamir-share a payload column three ways (degree 1).
pub fn share_payload(
    values: &[u64],
    field: &prism_core::ShamirCtx,
    prg: &mut Prg,
) -> PayloadShares {
    PayloadShares {
        shares: field.share_vector(values, crate::params::SHAMIR_SERVERS, prg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use prism_core::{DenseIntDomain, EnumeratedDomain, ShamirCtx};

    fn setup(b: usize) -> Setup {
        Initiator::new(SystemConfig::new(3, b).with_seed(5))
            .setup()
            .unwrap()
    }

    /// Two attributes over cells `1..=b`, several tuples per cell.
    fn rows(cells: std::ops::RangeInclusive<u64>) -> Vec<(u64, [u64; 2])> {
        cells
            .filter(|v| v % 3 != 0)
            .flat_map(|v| [(v, [v * 7, v + 1]), (v, [2, 40 - v])])
            .collect()
    }

    /// Reconstruct every uploaded column from its per-server shares.
    fn reconstruct(
        uploads: &[Vec<(Column, Vec<u64>)>],
        op: &OwnerParams,
    ) -> Vec<(Column, Vec<u64>)> {
        let of = |k: usize, column| &uploads[k].iter().find(|(c, _)| *c == column).unwrap().1;
        uploads[0]
            .iter()
            .map(|(column, s0)| {
                let plain = match column {
                    Column::Ok | Column::VOk | Column::OkDb1 | Column::OkDb2 => s0
                        .iter()
                        .zip(of(1, *column))
                        .map(|(&a, &b)| prism_core::reconstruct2(a, b, op.delta))
                        .collect(),
                    _ => (0..s0.len())
                        .map(|i| {
                            let ys: Vec<u64> = (0..3).map(|k| of(k, *column)[i]).collect();
                            op.field.reconstruct_raw(&ys)
                        })
                        .collect(),
                };
                (*column, plain)
            })
            .collect()
    }

    #[test]
    fn window_folds_every_attribute_and_rejects_rows_outside() {
        let t =
            OwnerTable::window(vec![(6u64, [10, 1]), (6, [30, 9]), (8, [7, 2])], 2, 5, 3).unwrap();
        assert_eq!(t.indicator, vec![1, 0, 1]);
        assert_eq!(t.counts, vec![2, 0, 1]);
        assert_eq!(t.sums, vec![vec![40, 0, 7], vec![10, 0, 2]]);
        assert_eq!(t.maxima, vec![vec![30, 0, 7], vec![9, 0, 2]]);
        for outside in [0u64, 5, 9] {
            let err = OwnerTable::window([(outside, [1u64])], 1, 5, 3).unwrap_err();
            assert!(
                matches!(err, ProtocolError::OutOfDomain { .. }),
                "{outside}"
            );
        }
    }

    /// A full upload over a grown domain reconstructs to the source
    /// columns (the copies `PF_db`-permuted), and the appended window
    /// shared with the `tail_block`s reconstructs to exactly its segment.
    #[test]
    fn shares_reconstruct_the_source_columns_whole_and_windowed() {
        let (b, added) = (10, 4);
        let grown = setup(b).grow(added, 1, 5).unwrap();
        let op = &grown.owner;
        let (db1, db2) = (&op.pf_db1, &op.pf_db2);
        let set = ColumnSet::full(2);
        let t = OwnerTable::window(rows(1..=14), 2, 0, b + added).unwrap();
        let full = owner_uploads(&t, op, (db1, db2), set, &mut Prg::from_seed(8));
        let source = vec![
            (Column::Ok, t.indicator.clone()),
            (Column::VOk, db1.apply(&t.complement())),
            (Column::OkDb1, db1.apply(&t.indicator)),
            (Column::OkDb2, db2.apply(&t.indicator)),
            (Column::Agg(0), t.sums[0].clone()),
            (Column::VAgg(0), db1.apply(&t.sums[0])),
            (Column::Agg(1), t.sums[1].clone()),
            (Column::VAgg(1), db1.apply(&t.sums[1])),
            (Column::AOk, t.counts.clone()),
        ];
        assert_eq!(reconstruct(&full, op), source);

        let tail = OwnerTable::window(rows(11..=14), 2, b, added).unwrap();
        let blocks = (&db1.tail_block(b).unwrap(), &db2.tail_block(b).unwrap());
        let delta = owner_uploads(&tail, op, blocks, set, &mut Prg::from_seed(9));
        let segment: Vec<(Column, Vec<u64>)> = source
            .into_iter()
            .map(|(column, plain)| (column, plain[b..].to_vec()))
            .collect();
        assert_eq!(reconstruct(&delta, op), segment);
    }

    /// A difference sharing reconstructs to `new − old` in every column's
    /// ring, so old shares plus it reconstruct to the new table's columns
    /// — the complement and the permuted copies included.
    #[test]
    fn difference_shares_move_the_old_columns_to_the_new() {
        let setup = setup(12);
        let op = &setup.owner;
        let perms = (&op.pf_db1, &op.pf_db2);
        let set = ColumnSet::full(2);
        let old = OwnerTable::window(rows(1..=12), 2, 0, 12).unwrap();
        let moved = rows(2..=11)
            .into_iter()
            .map(|(v, [a, x])| (v, [a * 3 + 1, x]));
        let new = OwnerTable::window(moved, 2, 0, 12).unwrap();
        let put =
            |t: &OwnerTable, seed| owner_uploads(t, op, perms, set, &mut Prg::from_seed(seed));
        let mut diff = vec![Vec::new(); SHAMIR_SERVERS];
        share_difference(
            &old,
            &new,
            op,
            perms,
            set,
            &mut Prg::from_seed(3),
            |k, c, s| diff[k].push((c, s)),
        );
        let (before, after) = (
            reconstruct(&put(&old, 1), op),
            reconstruct(&put(&new, 2), op),
        );
        for ((column, a), ((_, d), (_, b))) in
            before.iter().zip(reconstruct(&diff, op).iter().zip(&after))
        {
            let n = column.ring(op.delta, op.field.p);
            let sum: Vec<u64> = a.iter().zip(d).map(|(&a, &d)| (a + d) % n).collect();
            assert_eq!(&sum, b, "{column:?}");
        }
    }

    #[test]
    fn column_set_toggles_select_the_emitted_sequence() {
        use Column::*;
        let setup = setup(6);
        let op = &setup.owner;
        let t = OwnerTable::window(rows(1..=6), 2, 0, 6).unwrap();
        // (verification, two_copy, aggregation) → the additive columns
        // (servers 0, 1), then the Shamir columns (servers 0, 1, 2).
        let check =
            |verification, two_copy, aggregation, additive: &[Column], shamir: &[Column]| {
                let set = ColumnSet {
                    verification,
                    two_copy,
                    aggregation,
                };
                let mut seq = Vec::new();
                let perms = (&op.pf_db1, &op.pf_db2);
                let mut prg = Prg::from_seed(1);
                share_owner(&t, op, perms, set, &mut prg, |k, c, _| seq.push((k, c)));
                let on = |servers: usize, columns: &[Column]| -> Vec<(usize, Column)> {
                    let each = |&c| (0..servers).map(move |k| (k, c));
                    columns.iter().flat_map(each).collect()
                };
                assert_eq!(seq, [on(2, additive), on(3, shamir)].concat(), "{set:?}");
            };
        check(false, false, None, &[Ok], &[]);
        check(true, false, None, &[Ok, VOk], &[]);
        check(false, true, None, &[Ok, OkDb1, OkDb2], &[]);
        check(false, false, Some(0), &[Ok], &[AOk]);
        check(true, false, Some(1), &[Ok, VOk], &[Agg(0), VAgg(0), AOk]);
        let all = [Agg(0), VAgg(0), Agg(1), VAgg(1), AOk];
        check(true, true, Some(2), &[Ok, VOk, OkDb1, OkDb2], &all);
    }

    #[test]
    fn build_aggregates_per_cell() {
        let domain = DenseIntDomain::one_to(5);
        // Two tuples in cell of value 2, one in cell 5.
        let rows = vec![(2u64, 10), (2, 30), (5, 7)];
        let t = OwnerTable::build(&rows, &domain).unwrap();
        assert_eq!(t.indicator, vec![0, 1, 0, 0, 1]);
        assert_eq!(t.sums, vec![vec![0, 40, 0, 0, 7]]);
        assert_eq!(t.counts, vec![0, 2, 0, 0, 1]);
        assert_eq!(t.maxima, vec![vec![0, 30, 0, 0, 7]]);
    }

    #[test]
    fn build_rejects_out_of_domain() {
        let domain = DenseIntDomain::one_to(3);
        let err = OwnerTable::build(&[(9u64, 1)], &domain).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfDomain { .. }));
    }

    #[test]
    fn from_set_categorical_matches_paper_tables() {
        // Hospital 2 (Table 2): diseases {Cancer, Fever} over the global
        // domain {Cancer, Fever, Heart} ⇒ χ = ⟨1, 1, 0⟩ (§5.1 Example).
        let domain = EnumeratedDomain::new(["Cancer", "Fever", "Heart"]);
        let t = OwnerTable::from_set(&["Cancer", "Fever", "Fever"], &domain).unwrap();
        assert_eq!(t.indicator, vec![1, 1, 0]);
        assert_eq!(t.counts, vec![1, 2, 0]);
    }

    #[test]
    fn complement_flips_bits() {
        let domain = DenseIntDomain::one_to(4);
        let t = OwnerTable::from_set(&[1u64, 4], &domain).unwrap();
        assert_eq!(t.indicator, vec![1, 0, 0, 1]);
        assert_eq!(t.complement(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn indicator_shares_reconstruct() {
        let mut prg = Prg::from_seed(1);
        let values = vec![1u64, 0, 1, 1, 0];
        let sh = share_indicator(&values, 113, &mut prg);
        for i in 0..values.len() {
            assert_eq!(
                prism_core::reconstruct2(sh.shares[0][i], sh.shares[1][i], 113),
                values[i]
            );
        }
    }

    #[test]
    fn payload_shares_reconstruct() {
        let mut prg = Prg::from_seed(2);
        let field = ShamirCtx::default();
        let values = vec![100u64, 0, 55];
        let sh = share_payload(&values, &field, &mut prg);
        assert_eq!(sh.shares.len(), 3);
        for i in 0..values.len() {
            let ys: Vec<u64> = (0..3).map(|k| sh.shares[k][i]).collect();
            assert_eq!(field.reconstruct_raw(&ys), values[i]);
        }
    }

    #[test]
    fn empty_rows_give_zero_tables() {
        let domain = DenseIntDomain::one_to(3);
        let t = OwnerTable::build::<u64, _>(&[], &domain).unwrap();
        assert_eq!(t.indicator, vec![0, 0, 0]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
