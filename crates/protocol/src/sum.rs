//! PSI Sum (§6.1) and its verification.
//!
//! Two-round structure:
//!
//! * **Round 1** is plain PSI over the additive indicator shares; the
//!   servers send the Equation-3 outputs to one randomly selected owner
//!   (sending to one owner only trims communication, §6.1 Step 2 — it has
//!   no security effect).
//! * **Round 2**: the selected owner rebuilds the 0/1 result vector `z`,
//!   Shamir-shares it (degree 1) to the three servers, and each server φ
//!   computes per cell (Equation 11):
//!
//!   ```text
//!   sum_φ[i] = Σ_j S(x_{i2})_j^φ · S(z_i)^φ  =  (Σ_j S(x_{i2})_j^φ) · S(z_i)^φ
//!   ```
//!
//!   The product of two degree-1 sharings is a degree-2 sharing, so owners
//!   reconstruct each cell from the three servers' values by Lagrange
//!   interpolation at 0.
//!
//! Verification (reconstruction of the full-version method; DESIGN.md §3.9):
//! Table 11 stores a second copy of every aggregation column permuted with
//! `PF_db1` (the `vPK`-style columns). The owner shares `PF_db1(z)` for the
//! verification copy; servers run the identical Equation-11 round on it.
//! The reconstructed verification vector must be the `PF_db1`-image of the
//! primary vector — a server cannot tamper consistently with a permutation
//! it does not know.
//!
//! Driven end-to-end by the [`crate::plans::Sum`], `plans::SumMulti`
//! and [`crate::plans::SumVerified`] round plans (the verified variant
//! batches the primary and verification passes into one round-trip).

use crate::chunk::fill_chunks;
use crate::error::{check_cells, ProtocolError, Result};
use crate::params::{OwnerParams, ServerParams, SHAMIR_SERVERS};
use crate::psi::{self, check_shape};
use prism_core::arith::{mul_assign_mod, mul_into_mod, sum_columns_mod, Modulus};
use prism_core::Prg;

/// Round-2 computation at server φ (Equation 11).
///
/// `payload_shares[j][i]` is owner j's Shamir `y`-value for cell i at this
/// server's evaluation point; `z_shares[i]` is the indicator share at the
/// same point. Output: the degree-2 product share per cell.
pub fn server_sum_round(
    payload_shares: &[&[u64]],
    z_shares: &[u64],
    sp: &ServerParams,
    threads: usize,
) -> Result<Vec<u64>> {
    let mut out = vec![0u64; sp.b];
    server_sum_round_into(payload_shares, z_shares, sp, &mut out, threads)?;
    Ok(out)
}

/// In-place Equation-11 round: writes into a caller-owned buffer — the
/// arena path the engine reuses across rounds, performing zero heap
/// allocations per call. Bit-identical to [`server_sum_round`].
pub fn server_sum_round_into(
    payload_shares: &[&[u64]],
    z_shares: &[u64],
    sp: &ServerParams,
    out: &mut [u64],
    threads: usize,
) -> Result<()> {
    check_shape(payload_shares, sp.m, sp.b)?;
    check_cells("z vector", z_shares.len(), sp.b)?;
    check_cells("output buffer", out.len(), sp.b)?;
    let p = sp.field.p;
    fill_chunks(out, threads, |start, chunk| {
        // Per-cell sum of owner payload shares, then one multiply by z.
        sum_columns_mod(payload_shares, start, p, chunk);
        mul_assign_mod(chunk, &z_shares[start..start + chunk.len()], p);
    });
    Ok(())
}

/// Equation 11 over a run of rows of a column that already holds `Σ_j` of
/// the owners' (canonical) payload shares — what a
/// [`crate::engine::ServerNode`] keeps per stored column. `summed`,
/// `z_shares` and `out` are the same rows: a whole column or one row block
/// of it. Bit-identical, cell for cell, to [`server_sum_round_into`], which
/// sums the per-owner columns first and then multiplies by the same `z`.
pub fn summed_round_into(
    summed: &[u64],
    z_shares: &[u64],
    sp: &ServerParams,
    out: &mut [u64],
) -> Result<()> {
    check_cells("summed column", summed.len(), out.len())?;
    check_cells("z vector", z_shares.len(), out.len())?;
    mul_into_mod(summed, z_shares, sp.field.p, out);
    Ok(())
}

/// The selected owner's Round-2 preparation: turn `fop` into the 0/1 `z`
/// vector (§6.1 Step 3 — "generates a vector of length b having 1 or 0
/// only, where 0 is obtained by replacing random values of fop").
pub fn owner_build_z(fop: &[u64]) -> Vec<u64> {
    fop.iter().map(|&v| u64::from(v == 1)).collect()
}

/// Steps 3–4 whole, as the aggregation plans run them: the three servers'
/// Shamir shares of `z`, straight from the two PSI replies —
/// `share_payload(owner_build_z(psi::owner_combine(out1, out2)))` in one
/// pass in which neither `fop` nor `z` ever exists as a vector. Same draws
/// from `prg`, so the same shares.
pub fn owner_share_z(
    out1: &[u64],
    out2: &[u64],
    op: &OwnerParams,
    prg: &mut Prg,
) -> Result<Vec<Vec<u64>>> {
    psi::check_outputs(out1, out2, op)?;
    let eta = Modulus::new(op.eta);
    let z = |start: usize, block: &mut [u64]| {
        let replies = out1[start..].iter().zip(&out2[start..]);
        for (z, (&x, &y)) in block.iter_mut().zip(replies) {
            *z = u64::from(eta.mul(x, y) == 1);
        }
    };
    Ok(op.field.share_blocks(op.b, SHAMIR_SERVERS, prg, z))
}

/// All three servers' outputs for one item must cover the owner's domain.
fn check_outputs(outputs: &[&[u64]; SHAMIR_SERVERS], op: &OwnerParams) -> Result<()> {
    if outputs.iter().any(|o| o.len() != op.b) {
        return Err(ProtocolError::ParameterMismatch(
            "aggregation outputs have wrong length".into(),
        ));
    }
    Ok(())
}

/// The fixed Lagrange weights of the three servers' evaluation points.
fn lambda(op: &OwnerParams) -> [u64; SHAMIR_SERVERS] {
    op.field
        .lagrange_at_zero(SHAMIR_SERVERS)
        .try_into()
        .expect("one weight per server")
}

/// Owner finalize (Step 5): per-cell Lagrange interpolation of the three
/// server outputs. Cells outside the intersection reconstruct to 0.
pub fn owner_finalize(outputs: [&[u64]; SHAMIR_SERVERS], op: &OwnerParams) -> Result<Vec<u64>> {
    check_outputs(&outputs, op)?;
    // Fixed evaluation points ⇒ fixed Lagrange weights: derive the field
    // inverses once and reduce each cell to a flat multiply-accumulate
    // (bit-identical to per-cell `reconstruct_raw`, which recomputed the
    // weights — inversions included — for every cell).
    Ok(op.field.reconstruct_columns_with(outputs, &lambda(op)))
}

/// Rows per block of [`owner_finalize_columns`]: a block of two finalized
/// columns, the six reply runs they came from and the cells derived from
/// them stay in a core's cache.
const FINALIZE_BLOCK: usize = 4096;

/// Owner finalize of a whole round-2 reply — `outs[server][item]`, its
/// first `columns` items, as the owner step's views or as owned vectors —
/// for plans that derive more from the finalized columns than the columns
/// themselves: [`owner_finalize`] of every item, advanced together in row
/// blocks, with `each_block(finalized, rows)` called after every block,
/// while `finalized[item][rows]` has just been written. Returns the
/// finalized columns.
pub fn owner_finalize_columns<O: AsRef<[Vec<u64>]>>(
    outs: &[O],
    columns: usize,
    op: &OwnerParams,
    mut each_block: impl FnMut(&[Vec<u64>], std::ops::Range<usize>),
) -> Result<Vec<Vec<u64>>> {
    let shares_of = |col: usize| -> Result<[&[u64]; SHAMIR_SERVERS]> {
        let shares: [&[u64]; SHAMIR_SERVERS] = std::array::from_fn(|k| &outs[k].as_ref()[col][..]);
        check_outputs(&shares, op).map(|()| shares)
    };
    let shares: Vec<_> = (0..columns).map(shares_of).collect::<Result<_>>()?;
    let lambda = lambda(op);
    let mut finalized: Vec<Vec<u64>> = (0..columns).map(|_| Vec::with_capacity(op.b)).collect();
    for lo in (0..op.b).step_by(FINALIZE_BLOCK) {
        let rows = lo..(lo + FINALIZE_BLOCK).min(op.b);
        for (shares, out) in shares.iter().zip(&mut finalized) {
            let block = shares.map(|s| &s[rows.clone()]);
            op.field.reconstruct_columns_extend(block, &lambda, out);
        }
        each_block(&finalized, rows);
    }
    Ok(finalized)
}

/// Owner-side verification: the verification vector (still in `PF_db1`
/// order) must be the permuted image of the primary vector — cell i of the
/// primary is position `PF_db1(i)` of the verification vector.
pub fn owner_verify(primary: &[u64], verification: &[u64], op: &OwnerParams) -> Result<()> {
    if primary.len() != op.b || verification.len() != op.b {
        return Err(ProtocolError::ParameterMismatch(
            "verification vectors have wrong length".into(),
        ));
    }
    let mismatch = primary
        .iter()
        .enumerate()
        .position(|(i, &v)| v != verification[op.pf_db1.dest(i)]);
    match mismatch {
        Some(cell) => Err(ProtocolError::VerificationFailed {
            operation: "psi-sum",
            cell,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use crate::psi;
    use crate::tables::{share_indicator, share_payload, OwnerTable, PayloadShares};
    use prism_core::{DenseIntDomain, Prg};

    struct Fix {
        setup: Setup,
        tables: Vec<OwnerTable>,
    }

    fn fixture(rows_per_owner: &[Vec<(u64, u64)>], domain: u64, seed: u64) -> Fix {
        let setup = Initiator::new(
            SystemConfig::new(rows_per_owner.len(), domain as usize).with_seed(seed),
        )
        .setup()
        .unwrap();
        let dmap = DenseIntDomain::one_to(domain);
        let tables = rows_per_owner
            .iter()
            .map(|rows| OwnerTable::build(rows, &dmap).unwrap())
            .collect();
        Fix { setup, tables }
    }

    /// Run the full two-round PSI-Sum pipeline; returns per-cell sums.
    fn run_psi_sum(f: &Fix, threads: usize) -> Vec<u64> {
        let op = &f.setup.owner;
        // Round 1: PSI over indicators.
        let ind: Vec<_> = f
            .tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(10 + j as u64);
                share_indicator(&t.indicator, op.delta, &mut prg)
            })
            .collect();
        let s1: Vec<&[u64]> = ind.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2: Vec<&[u64]> = ind.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = psi::server_psi_round(&s1, &f.setup.servers[0], threads).unwrap();
        let o2 = psi::server_psi_round(&s2, &f.setup.servers[1], threads).unwrap();
        let fop = psi::owner_combine(&o1, &o2, op).unwrap();

        // Round 2: selected owner shares z; servers compute Equation 11.
        let z = owner_build_z(&fop);
        let mut prg = Prg::from_seed(999);
        let z_shares = share_payload(&z, &op.field, &mut prg);
        let payload: Vec<PayloadShares> = f
            .tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(20 + j as u64);
                share_payload(&t.sums[0], &op.field, &mut prg)
            })
            .collect();
        let mut outs = Vec::new();
        for k in 0..3 {
            let pj: Vec<&[u64]> = payload.iter().map(|p| p.shares[k].as_slice()).collect();
            outs.push(
                server_sum_round(&pj, &z_shares.shares[k], &f.setup.servers[k], threads).unwrap(),
            );
        }
        owner_finalize([&outs[0], &outs[1], &outs[2]], op).unwrap()
    }

    #[test]
    fn paper_example_psi_sum() {
        // §2: diseaseG_sum(cost) over PSI of Tables 1–3 returns
        // {Cancer, 1400}: H1 contributes 100+200, H2 100, H3 300+700.
        // Domain cells: 1=Cancer, 2=Fever, 3=Heart.
        let rows = vec![
            vec![(1u64, 100), (1, 200), (3, 300)],
            vec![(1u64, 100), (2, 70), (2, 50)],
            vec![(1u64, 300), (1, 700), (3, 500)],
        ];
        let f = fixture(&rows, 3, 1);
        let sums = run_psi_sum(&f, 1);
        assert_eq!(sums, vec![1400, 0, 0]);
    }

    #[test]
    fn sums_match_plaintext_for_random_data() {
        let rows = vec![
            vec![(1u64, 5), (2, 7), (4, 11), (4, 13)],
            vec![(2u64, 1), (4, 2), (5, 3)],
            vec![(2u64, 100), (3, 4), (4, 10)],
        ];
        let f = fixture(&rows, 5, 2);
        let sums = run_psi_sum(&f, 1);
        // Common cells: {2, 4}. Sum over all owners:
        // cell 2: 7 + 1 + 100 = 108; cell 4: 24 + 2 + 10 = 36.
        assert_eq!(sums, vec![0, 108, 0, 36, 0]);
    }

    #[test]
    fn thread_counts_agree() {
        let rows: Vec<Vec<(u64, u64)>> = (0..3)
            .map(|j| {
                (1..=200u64)
                    .filter(|v| v % (j + 2) != 0)
                    .map(|v| (v, v * 3 + j))
                    .collect()
            })
            .collect();
        let f = fixture(&rows, 200, 3);
        let reference = run_psi_sum(&f, 1);
        for t in [2, 4, 5] {
            assert_eq!(run_psi_sum(&f, t), reference, "threads={t}");
        }
    }

    #[test]
    fn verification_accepts_honest_run() {
        let rows = vec![vec![(1u64, 10), (3, 30)], vec![(1u64, 1), (3, 3)]];
        let f = fixture(&rows, 4, 4);
        let op = &f.setup.owner;
        let primary = run_psi_sum(&f, 1);

        // Verification copy: per-owner sums column permuted with PF_db1,
        // z permuted the same way.
        let fop_z: Vec<u64> = primary.iter().map(|&v| u64::from(v != 0)).collect();
        // (reconstruct z from known common cells: cells 0 and 2)
        let z = vec![1u64, 0, 1, 0];
        assert_eq!(fop_z, z);
        let zp = op.pf_db1.apply(&z);
        let mut prg = Prg::from_seed(555);
        let zp_shares = share_payload(&zp, &op.field, &mut prg);
        let vpayload: Vec<PayloadShares> = f
            .tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let permuted = op.pf_db1.apply(&t.sums[0]);
                let mut prg = Prg::from_seed(30 + j as u64);
                share_payload(&permuted, &op.field, &mut prg)
            })
            .collect();
        let mut vouts = Vec::new();
        for k in 0..3 {
            let pj: Vec<&[u64]> = vpayload.iter().map(|p| p.shares[k].as_slice()).collect();
            vouts
                .push(server_sum_round(&pj, &zp_shares.shares[k], &f.setup.servers[k], 1).unwrap());
        }
        let verification = owner_finalize([&vouts[0], &vouts[1], &vouts[2]], op).unwrap();
        owner_verify(&primary, &verification, op).expect("honest run verifies");
    }

    #[test]
    fn verification_catches_tampered_cell() {
        let rows = vec![vec![(1u64, 10), (2, 20)], vec![(1u64, 5), (2, 6)]];
        let f = fixture(&rows, 2, 5);
        let op = &f.setup.owner;
        let mut primary = run_psi_sum(&f, 1);

        // Honest verification copy built from true data.
        let z = vec![1u64, 1];
        let zp = op.pf_db1.apply(&z);
        let mut prg = Prg::from_seed(777);
        let zp_shares = share_payload(&zp, &op.field, &mut prg);
        let vpayload: Vec<PayloadShares> = f
            .tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let permuted = op.pf_db1.apply(&t.sums[0]);
                let mut prg = Prg::from_seed(40 + j as u64);
                share_payload(&permuted, &op.field, &mut prg)
            })
            .collect();
        let mut vouts = Vec::new();
        for k in 0..3 {
            let pj: Vec<&[u64]> = vpayload.iter().map(|p| p.shares[k].as_slice()).collect();
            vouts
                .push(server_sum_round(&pj, &zp_shares.shares[k], &f.setup.servers[k], 1).unwrap());
        }
        let verification = owner_finalize([&vouts[0], &vouts[1], &vouts[2]], op).unwrap();

        // Tamper the primary result (a server returned a bogus cell).
        primary[0] = primary[0].wrapping_add(1);
        assert!(owner_verify(&primary, &verification, op).is_err());
    }

    #[test]
    fn into_variant_matches_vec_api_even_on_dirty_buffers() {
        let rows = vec![
            vec![(1u64, 5), (2, 7), (4, 11)],
            vec![(2u64, 1), (4, 2), (5, 3)],
        ];
        let f = fixture(&rows, 5, 9);
        let sp = &f.setup.servers[0];
        let payload: Vec<PayloadShares> = f
            .tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(50 + j as u64);
                share_payload(&t.sums[0], &f.setup.owner.field, &mut prg)
            })
            .collect();
        let pj: Vec<&[u64]> = payload.iter().map(|p| p.shares[0].as_slice()).collect();
        let z = vec![1u64, 0, 1, 1, 0];
        let mut prg = Prg::from_seed(60);
        let z_shares = share_payload(&z, &f.setup.owner.field, &mut prg);
        let reference = server_sum_round(&pj, &z_shares.shares[0], sp, 1).unwrap();
        let mut out = vec![u64::MAX; sp.b];
        server_sum_round_into(&pj, &z_shares.shares[0], sp, &mut out, 1).unwrap();
        assert_eq!(out, reference);
        let mut short = vec![0u64; sp.b - 1];
        assert!(server_sum_round_into(&pj, &z_shares.shares[0], sp, &mut short, 1).is_err());
    }

    #[test]
    fn owner_build_z_masks_random_values() {
        assert_eq!(owner_build_z(&[1, 5, 4, 1, 0]), vec![1, 0, 0, 1, 0]);
    }

    #[test]
    fn shape_validation() {
        let f = fixture(&[vec![(1u64, 1)], vec![(1u64, 1)]], 2, 6);
        let bad = vec![0u64; 1];
        let good = vec![0u64; 2];
        assert!(server_sum_round(&[&bad, &good], &good, &f.setup.servers[0], 1).is_err());
        assert!(server_sum_round(&[&good, &good], &bad, &f.setup.servers[0], 1).is_err());
        assert!(server_sum_round(&[&good], &good, &f.setup.servers[0], 1).is_err());
    }

    #[test]
    fn sums_of_zero_payload_are_zero() {
        let rows = vec![vec![(1u64, 0)], vec![(1u64, 0)]];
        let f = fixture(&rows, 1, 7);
        assert_eq!(run_psi_sum(&f, 1), vec![0]);
    }
}
