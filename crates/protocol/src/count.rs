//! PSI cardinality (count) query (§6.5) and its verification.
//!
//! Count is PSI where the servers permute the output vector with `PF_s1`
//! (unknown to owners) before returning it. Owners still decode a 0/1
//! vector and can count the 1s — but the *positions* no longer correspond
//! to domain cells, so the identity of common elements stays hidden.
//!
//! Verification (reconstruction of the full-version method; see DESIGN.md):
//! owners outsource two permuted copies of χ — copy A under `PF_db1`,
//! copy B under `PF_db2`. Server φ runs the PSI round on both copies and
//! permutes copy A's result with `PF_s1` and copy B's with `PF_s2`. By
//! Equation 1 both paths land in `PF_i` order, so the decoded indicator
//! vectors must agree cell-for-cell; a server that skips, replays, or
//! injects on one path breaks the agreement with overwhelming probability
//! (it would have to guess the matching position in the other copy, a
//! 1/b² event per forged cell, exactly the bound §5.2 argues).
//!
//! Agreement alone cannot catch *permutation-invariant* corruption (one
//! value replayed into every cell of both copies), so the full check
//! ([`owner_verify_count_bound`]) adds the complement binding: the
//! Equation-7 round over vOK, server-permuted with `PF_s1` into copy A's
//! composed order, must satisfy `fop·v ≡ 1` per permuted cell.
//!
//! Driven end-to-end by the [`crate::plans::Count`] /
//! [`crate::plans::CountVerified`] round plans.

use crate::error::{ProtocolError, Result};
use crate::params::{OwnerParams, ServerParams};
use crate::psi;
use prism_core::arith::Modulus;

/// Step 2 at server φ: PSI round then `PF_s1` on the output.
pub fn server_count_round(
    owner_shares: &[&[u64]],
    sp: &ServerParams,
    threads: usize,
) -> Result<Vec<u64>> {
    let out = psi::server_psi_round(owner_shares, sp, threads)?;
    Ok(sp.pf_s1.apply(&out))
}

/// Step 3 at an owner: combine and count 1s. Returns the cardinality of
/// the intersection (the permuted fop vector is intentionally *not*
/// exposed beyond the count — it is not even built).
pub fn owner_count(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<usize> {
    psi::check_outputs(out1, out2, op)?;
    let eta = Modulus::new(op.eta);
    Ok(out1
        .iter()
        .zip(out2)
        .filter(|(&x, &y)| eta.mul(x, y) == 1)
        .count())
}

/// Verification round at server φ: run the PSI round on a copy that owners
/// permuted with `PF_dbk`, then apply this server's `PF_sk` — `which_copy`
/// selects (1 ⇒ PF_s1, 2 ⇒ PF_s2).
pub fn server_count_verify_round(
    permuted_shares: &[&[u64]],
    sp: &ServerParams,
    which_copy: u8,
    threads: usize,
) -> Result<Vec<u64>> {
    let out = psi::server_psi_round(permuted_shares, sp, threads)?;
    match which_copy {
        1 => Ok(sp.pf_s1.apply(&out)),
        2 => Ok(sp.pf_s2.apply(&out)),
        _ => Err(ProtocolError::ParameterMismatch(format!(
            "copy selector must be 1 or 2, got {which_copy}"
        ))),
    }
}

/// Owner-side verification: decode both PF_i-ordered copies and require
/// elementwise agreement of the 0/1 indicators (and hence equal counts).
pub fn owner_verify_count(
    copy_a: (&[u64], &[u64]),
    copy_b: (&[u64], &[u64]),
    op: &OwnerParams,
) -> Result<usize> {
    psi::check_outputs(copy_a.0, copy_a.1, op)?;
    psi::check_outputs(copy_b.0, copy_b.1, op)?;
    let eta = Modulus::new(op.eta);
    let mut count = 0;
    for i in 0..op.b {
        let in_a = eta.mul(copy_a.0[i], copy_a.1[i]) == 1;
        if in_a != (eta.mul(copy_b.0[i], copy_b.1[i]) == 1) {
            return Err(ProtocolError::VerificationFailed {
                operation: "psi-count",
                cell: i,
            });
        }
        count += usize::from(in_a);
    }
    Ok(count)
}

/// Full owner-side count verification: two-copy agreement **plus** the
/// complement binding.
///
/// Two-copy agreement catches cell-targeted forgeries (the copies are in
/// different orders at the point of computation, so a forged cell lands
/// at different `PF_i` positions — §5.2's 1/b² argument), but it cannot
/// catch *permutation-invariant* tampering such as replaying one value
/// into every cell of both copies. The complement round (Equation 7 over
/// vOK, server-permuted with `PF_s1` into the same composed order as copy
/// A) restores per-cell binding: `fop_a[i] · v_i ≡ 1 (mod η)` must hold
/// at every permuted position, exactly Equations 8–10 carried out in
/// permuted space — so positions stay hidden and the count keeps PSI
/// verification's strength.
///
/// All six reply vectors are in the same composed order, so both checks
/// are one pass over them. The complement binding is judged first over the
/// whole domain: a broken binding anywhere is reported (at its first cell)
/// in preference to a disagreement, wherever that is.
pub fn owner_verify_count_bound(
    copy_a: (&[u64], &[u64]),
    copy_b: (&[u64], &[u64]),
    complement: (&[u64], &[u64]),
    op: &OwnerParams,
) -> Result<usize> {
    if complement.0.len() != op.b || complement.1.len() != op.b {
        return Err(ProtocolError::ParameterMismatch(
            "complement vectors have wrong length".into(),
        ));
    }
    psi::check_outputs(copy_a.0, copy_a.1, op)?;
    // A mis-sized copy B is only reported once the binding held everywhere.
    let shape_b = psi::check_outputs(copy_b.0, copy_b.1, op);
    let eta = Modulus::new(op.eta);
    let mut count = 0;
    let mut disagreement = None;
    for i in 0..op.b {
        let fop_a = eta.mul(copy_a.0[i], copy_a.1[i]);
        if eta.mul(eta.mul(fop_a, complement.0[i]), complement.1[i]) != 1 {
            return Err(ProtocolError::VerificationFailed {
                operation: "psi-count (complement binding)",
                cell: i,
            });
        }
        let in_a = fop_a == 1;
        count += usize::from(in_a);
        if shape_b.is_ok()
            && disagreement.is_none()
            && in_a != (eta.mul(copy_b.0[i], copy_b.1[i]) == 1)
        {
            disagreement = Some(i);
        }
    }
    shape_b?;
    match disagreement {
        Some(cell) => Err(ProtocolError::VerificationFailed {
            operation: "psi-count",
            cell,
        }),
        None => Ok(count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use crate::tables::{share_indicator, IndicatorShares, OwnerTable};
    use prism_core::{DenseIntDomain, Permutation, Prg};

    struct Fix {
        setup: Setup,
        tables: Vec<OwnerTable>,
    }

    fn fixture(owner_sets: &[Vec<u64>], domain: u64, seed: u64) -> Fix {
        let setup =
            Initiator::new(SystemConfig::new(owner_sets.len(), domain as usize).with_seed(seed))
                .setup()
                .unwrap();
        let dmap = DenseIntDomain::one_to(domain);
        let tables = owner_sets
            .iter()
            .map(|s| OwnerTable::from_set(s, &dmap).unwrap())
            .collect();
        Fix { setup, tables }
    }

    fn upload_plain(f: &Fix, seed: u64) -> Vec<IndicatorShares> {
        f.tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(seed + j as u64);
                share_indicator(&t.indicator, f.setup.owner.delta, &mut prg)
            })
            .collect()
    }

    fn upload_permuted(f: &Fix, perm: &Permutation, seed: u64) -> Vec<IndicatorShares> {
        f.tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let permuted = perm.apply(&t.indicator);
                let mut prg = Prg::from_seed(seed + j as u64);
                share_indicator(&permuted, f.setup.owner.delta, &mut prg)
            })
            .collect()
    }

    #[test]
    fn count_matches_plaintext_cardinality() {
        let sets = vec![
            vec![1u64, 2, 5, 8, 9],
            vec![2u64, 5, 9, 10],
            vec![2u64, 3, 5, 9],
        ];
        let f = fixture(&sets, 10, 1);
        let uploads = upload_plain(&f, 100);
        let s1: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2: Vec<&[u64]> = uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = server_count_round(&s1, &f.setup.servers[0], 1).unwrap();
        let o2 = server_count_round(&s2, &f.setup.servers[1], 1).unwrap();
        let count = owner_count(&o1, &o2, &f.setup.owner).unwrap();
        assert_eq!(count, 3); // {2, 5, 9}
    }

    #[test]
    fn count_hides_positions() {
        // The positions of 1s in the combined (permuted) vector must not
        // match the true common cells — unless PF_s1 happens to fix them.
        let sets = vec![vec![1u64, 4], vec![1u64, 4], vec![1u64, 4]];
        let f = fixture(&sets, 16, 2);
        let uploads = upload_plain(&f, 200);
        let s1: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2: Vec<&[u64]> = uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = server_count_round(&s1, &f.setup.servers[0], 1).unwrap();
        let o2 = server_count_round(&s2, &f.setup.servers[1], 1).unwrap();
        let fop = psi::owner_combine(&o1, &o2, &f.setup.owner).unwrap();
        let positions: Vec<usize> = fop
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (v == 1).then_some(i))
            .collect();
        assert_eq!(positions.len(), 2);
        // The permuted positions equal the PF_s1 images of the true cells.
        let pf = &f.setup.servers[0].pf_s1;
        let mut expected = vec![pf.dest(0), pf.dest(3)];
        expected.sort_unstable();
        assert_eq!(positions, expected);
    }

    #[test]
    fn count_verification_accepts_honest_run() {
        let sets = vec![vec![3u64, 7, 9], vec![3u64, 9], vec![3u64, 5, 9]];
        let f = fixture(&sets, 12, 3);
        let op = &f.setup.owner;
        let up_a = upload_permuted(&f, &op.pf_db1, 300);
        let up_b = upload_permuted(&f, &op.pf_db2, 400);
        let a1: Vec<&[u64]> = up_a.iter().map(|u| u.shares[0].as_slice()).collect();
        let a2: Vec<&[u64]> = up_a.iter().map(|u| u.shares[1].as_slice()).collect();
        let b1: Vec<&[u64]> = up_b.iter().map(|u| u.shares[0].as_slice()).collect();
        let b2: Vec<&[u64]> = up_b.iter().map(|u| u.shares[1].as_slice()).collect();

        let oa1 = server_count_verify_round(&a1, &f.setup.servers[0], 1, 1).unwrap();
        let oa2 = server_count_verify_round(&a2, &f.setup.servers[1], 1, 1).unwrap();
        let ob1 = server_count_verify_round(&b1, &f.setup.servers[0], 2, 1).unwrap();
        let ob2 = server_count_verify_round(&b2, &f.setup.servers[1], 2, 1).unwrap();

        let count = owner_verify_count((&oa1, &oa2), (&ob1, &ob2), op).unwrap();
        assert_eq!(count, 2); // {3, 9}
    }

    #[test]
    fn count_verification_catches_tampering() {
        let sets = vec![vec![3u64, 7, 9], vec![3u64, 9], vec![3u64, 5, 9]];
        let f = fixture(&sets, 12, 4);
        let op = &f.setup.owner;
        let up_a = upload_permuted(&f, &op.pf_db1, 500);
        let up_b = upload_permuted(&f, &op.pf_db2, 600);
        let a1: Vec<&[u64]> = up_a.iter().map(|u| u.shares[0].as_slice()).collect();
        let a2: Vec<&[u64]> = up_a.iter().map(|u| u.shares[1].as_slice()).collect();
        let b1: Vec<&[u64]> = up_b.iter().map(|u| u.shares[0].as_slice()).collect();
        let b2: Vec<&[u64]> = up_b.iter().map(|u| u.shares[1].as_slice()).collect();

        // Malicious S1 replays cell 0 over copy A only.
        let mut oa1 = server_count_verify_round(&a1, &f.setup.servers[0], 1, 1).unwrap();
        let r = oa1[0];
        for v in oa1.iter_mut() {
            *v = r;
        }
        let oa2 = server_count_verify_round(&a2, &f.setup.servers[1], 1, 1).unwrap();
        let ob1 = server_count_verify_round(&b1, &f.setup.servers[0], 2, 1).unwrap();
        let ob2 = server_count_verify_round(&b2, &f.setup.servers[1], 2, 1).unwrap();

        assert!(owner_verify_count((&oa1, &oa2), (&ob1, &ob2), op).is_err());
    }

    #[test]
    fn copy_selector_validated() {
        let f = fixture(&[vec![1u64], vec![1u64]], 2, 5);
        let up = upload_plain(&f, 700);
        let s1: Vec<&[u64]> = up.iter().map(|u| u.shares[0].as_slice()).collect();
        assert!(server_count_verify_round(&s1, &f.setup.servers[0], 3, 1).is_err());
    }

    #[test]
    fn empty_intersection_counts_zero() {
        let sets = vec![vec![1u64], vec![2u64], vec![3u64]];
        let f = fixture(&sets, 4, 6);
        let uploads = upload_plain(&f, 800);
        let s1: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2: Vec<&[u64]> = uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = server_count_round(&s1, &f.setup.servers[0], 1).unwrap();
        let o2 = server_count_round(&s2, &f.setup.servers[1], 1).unwrap();
        assert_eq!(owner_count(&o1, &o2, &f.setup.owner).unwrap(), 0);
    }
}
