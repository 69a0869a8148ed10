//! PSI Average (§6.2).
//!
//! Identical pipeline to PSI-Sum, except each owner's cell carries a
//! *triple* `⟨x_{i1}, x_{i2}, x_{i3}⟩`: the indicator, the per-cell sum of
//! `A_x`, and the per-cell tuple count (the `aOK` column of Table 11).
//! Both payload columns are Shamir-shared; the round-2 servers run
//! Equation 11 on each; owners interpolate both vectors and divide.
//!
//! Driven end-to-end by the [`crate::plans::Average`] round plan (and by
//! [`crate::plans::QueryBatch`], which shares the counts pass across
//! batched aggregations).

use crate::error::{ProtocolError, Result};
use crate::params::{OwnerParams, SHAMIR_SERVERS};
use crate::sum;

/// One decoded average cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgCell {
    /// Σ A_x over all owners' tuples in this (common) cell.
    pub sum: u64,
    /// Number of contributing tuples across all owners.
    pub count: u64,
    /// `sum / count` (0.0 when the cell is not common).
    pub average: f64,
}

/// Owner finalize: interpolate both vectors and divide per cell.
pub fn owner_finalize(
    sum_outputs: [&[u64]; SHAMIR_SERVERS],
    count_outputs: [&[u64]; SHAMIR_SERVERS],
    op: &OwnerParams,
) -> Result<Vec<AvgCell>> {
    let sums = sum::owner_finalize(sum_outputs, op)?;
    let counts = sum::owner_finalize(count_outputs, op)?;
    if sums.len() != counts.len() {
        return Err(ProtocolError::ParameterMismatch(
            "sum/count vectors disagree in length".into(),
        ));
    }
    Ok(cells_from(&sums, &counts))
}

/// Zip already-reconstructed sum and count vectors into [`AvgCell`]s (the
/// division step on its own — used by the batched round-2 plan, which
/// reconstructs columns once and reuses them across aggregations).
pub fn cells_from(sums: &[u64], counts: &[u64]) -> Vec<AvgCell> {
    cells_of(sums, counts).collect()
}

/// [`cells_from`] as the stream of cells, for a caller that extends its
/// result block by block.
pub(crate) fn cells_of<'a>(
    sums: &'a [u64],
    counts: &'a [u64],
) -> impl Iterator<Item = AvgCell> + 'a {
    sums.iter().zip(counts).map(|(&sum, &count)| AvgCell {
        sum,
        count,
        average: if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use crate::psi;
    use crate::sum::owner_build_z;
    use crate::tables::{share_indicator, share_payload, OwnerTable, PayloadShares};
    use prism_core::{DenseIntDomain, Prg};

    fn run_psi_avg(rows_per_owner: &[Vec<(u64, u64)>], domain: u64, seed: u64) -> Vec<AvgCell> {
        let setup: Setup = Initiator::new(
            SystemConfig::new(rows_per_owner.len(), domain as usize).with_seed(seed),
        )
        .setup()
        .unwrap();
        let op = &setup.owner;
        let dmap = DenseIntDomain::one_to(domain);
        let tables: Vec<OwnerTable> = rows_per_owner
            .iter()
            .map(|rows| OwnerTable::build(rows, &dmap).unwrap())
            .collect();

        // Round 1: PSI.
        let ind: Vec<_> = tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(seed + 100 + j as u64);
                share_indicator(&t.indicator, op.delta, &mut prg)
            })
            .collect();
        let s1: Vec<&[u64]> = ind.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2: Vec<&[u64]> = ind.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = psi::tests::psi_round(&s1, &setup.servers[0], 1).unwrap();
        let o2 = psi::tests::psi_round(&s2, &setup.servers[1], 1).unwrap();
        let fop = psi::owner_combine(&o1, &o2, op).unwrap();
        let z = owner_build_z(&fop);
        let mut prg = Prg::from_seed(seed + 500);
        let z_shares = share_payload(&z, &op.field, &mut prg);

        // Round 2: Equation 11 over the sums and the counts column.
        let sums_p: Vec<PayloadShares> = tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(seed + 200 + j as u64);
                share_payload(&t.sums[0], &op.field, &mut prg)
            })
            .collect();
        let counts_p: Vec<PayloadShares> = tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(seed + 300 + j as u64);
                share_payload(&t.counts, &op.field, &mut prg)
            })
            .collect();

        let mut sum_outs = Vec::new();
        let mut count_outs = Vec::new();
        for k in 0..3 {
            let sj: Vec<&[u64]> = sums_p.iter().map(|p| p.shares[k].as_slice()).collect();
            let cj: Vec<&[u64]> = counts_p.iter().map(|p| p.shares[k].as_slice()).collect();
            let (z, sp) = (&z_shares.shares[k], &setup.servers[k]);
            sum_outs.push(sum::tests::sum_round(&sj, z, sp, 1).unwrap());
            count_outs.push(sum::tests::sum_round(&cj, z, sp, 1).unwrap());
        }
        owner_finalize(
            [&sum_outs[0], &sum_outs[1], &sum_outs[2]],
            [&count_outs[0], &count_outs[1], &count_outs[2]],
            op,
        )
        .unwrap()
    }

    #[test]
    fn paper_example_psi_average() {
        // §6.2: "A PSI average query on cost column corresponding to the
        // common disease in Tables 1-3 returns {Cancer, 280}":
        // costs for Cancer: H1 {100, 200}, H2 {100}, H3 {300, 700}
        // ⇒ sum 1400, count 5, average 280.
        let rows = vec![
            vec![(1u64, 100), (1, 200), (3, 300)],
            vec![(1u64, 100), (2, 70), (2, 50)],
            vec![(1u64, 300), (1, 700), (3, 500)],
        ];
        let cells = run_psi_avg(&rows, 3, 9);
        assert_eq!(cells[0].sum, 1400);
        assert_eq!(cells[0].count, 5);
        assert!((cells[0].average - 280.0).abs() < 1e-9);
        // Non-common cells decode to zero.
        assert_eq!(cells[1].count, 0);
        assert_eq!(cells[2].count, 0);
        assert_eq!(cells[1].average, 0.0);
    }

    #[test]
    fn averages_match_plaintext() {
        let rows = vec![vec![(1u64, 4), (2, 10), (2, 20)], vec![(1u64, 8), (2, 30)]];
        let cells = run_psi_avg(&rows, 2, 10);
        // cell 1: sum 12, count 2, avg 6; cell 2: sum 60, count 3, avg 20.
        assert_eq!(cells[0].sum, 12);
        assert_eq!(cells[0].count, 2);
        assert!((cells[0].average - 6.0).abs() < 1e-9);
        assert_eq!(cells[1].sum, 60);
        assert_eq!(cells[1].count, 3);
        assert!((cells[1].average - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_intersection_all_zero() {
        let rows = vec![vec![(1u64, 7)], vec![(2u64, 9)]];
        let cells = run_psi_avg(&rows, 2, 11);
        assert!(cells.iter().all(|c| c.sum == 0 && c.count == 0));
    }
}
