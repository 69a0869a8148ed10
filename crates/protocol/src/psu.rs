//! Private Set Union (§7).
//!
//! Owners upload the same additive indicator shares as PSI. Each server
//! multiplies its per-cell share-sum by a blinding factor drawn from the
//! PRG *both* servers seed identically (Equation 18):
//!
//! ```text
//! out_φ[i] = ((Σ_j A(x_i)_j^φ) · rand[i]) mod δ
//! ```
//!
//! Owners add the two outputs mod δ (Equation 19): the result is
//! `count_i · rand[i] mod δ`, which is 0 iff no owner holds the value and
//! otherwise a unit multiple the owners cannot invert (they don't know
//! `rand[i]`), hiding *how many* owners hold each value.
//!
//! Driven end-to-end by the [`crate::plans::Psu`] and
//! [`crate::plans::PsuVerified`] round plans.

use crate::chunk::fill_chunks;
use crate::error::{check_cells, ProtocolError, Result};
use crate::params::{OwnerParams, ServerParams};
use crate::psi::check_shape;
use prism_core::arith::{mul_assign_mod, mul_into_mod, sum_columns_mod, Modulus};
use prism_core::Prg;

/// This server's slice of the shared blinding stream: `rand[]` must be
/// generated identically at both servers — a fresh PRG from the shared
/// seed, consumed in *global* cell order. A row-range shard
/// (`sp.row_offset > 0`) burns the stream prefix so its cells draw
/// exactly the factors the unsharded domain would — rejection sampling
/// in `range` makes the stream position data-dependent, so skipping
/// ahead by arithmetic alone is not possible. The slice is deterministic
/// per parameter view; long-lived nodes cache it
/// (`ServerNode` computes it once per session).
pub fn blinding_for(sp: &ServerParams) -> Vec<u64> {
    let mut prg = Prg::from_seed(sp.psu_prg_seed);
    if sp.row_offset > 0 {
        prg.blinding_vector(sp.row_offset, sp.delta);
    }
    prg.blinding_vector(sp.b, sp.delta)
}

/// Step 2 at server φ (Equation 18), with a caller-supplied blinding
/// slice: both servers derive the identical `rand[]` stream from
/// `sp.psu_prg_seed` ([`blinding_for`]`(sp)`, which `rand` must be — the
/// protocol depends on both servers using it) and neither communicates
/// with the other. Writes into a caller-owned buffer — the pooled-buffer path
/// the engine reuses across rounds, performing zero heap allocations per call.
pub fn server_psu_round_into(
    owner_shares: &[&[u64]],
    rand: &[u64],
    sp: &ServerParams,
    out: &mut [u64],
    threads: usize,
) -> Result<()> {
    check_shape(owner_shares, sp.m, sp.b)?;
    check_cells("blinding slice", rand.len(), sp.b)?;
    check_cells("output buffer", out.len(), sp.b)?;
    fill_chunks(out, threads, |start, chunk| {
        sum_columns_mod(owner_shares, start, sp.delta, chunk);
        mul_assign_mod(chunk, &rand[start..start + chunk.len()], sp.delta);
    });
    Ok(())
}

/// Equation 18 over a run of rows of a column that already holds `Σ_j` of
/// the owners' (canonical) shares — what a [`crate::engine::ServerNode`]
/// keeps per stored column. `summed`, `rand` and `out` are the same rows: a
/// whole column or one row block of it, with the blinding slice cut at the
/// same offset. Bit-identical, cell for cell, to [`server_psu_round_into`],
/// which sums the per-owner columns first and then multiplies by the same
/// `rand`.
pub fn summed_round_into(
    summed: &[u64],
    rand: &[u64],
    sp: &ServerParams,
    out: &mut [u64],
) -> Result<()> {
    check_cells("summed column", summed.len(), out.len())?;
    check_cells("blinding slice", rand.len(), out.len())?;
    mul_into_mod(summed, rand, sp.delta, out);
    Ok(())
}

/// Both servers' outputs must cover the owner's domain.
fn check_outputs(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<()> {
    if out1.len() != op.b || out2.len() != op.b {
        return Err(ProtocolError::ParameterMismatch(
            "PSU outputs have wrong length".into(),
        ));
    }
    Ok(())
}

/// Step 3 at an owner (Equation 19): 0 ⇒ absent everywhere, ≠0 ⇒ present
/// somewhere. Returns the raw combined vector.
pub fn owner_combine(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<Vec<u64>> {
    check_outputs(out1, out2, op)?;
    let delta = Modulus::new(op.delta);
    Ok(out1
        .iter()
        .zip(out2)
        .map(|(&x, &y)| delta.add(x, y))
        .collect())
}

/// Decides, from the two replies for a cell, whether the combined vector is
/// non-zero there: `(x + y) mod δ ≠ 0`.
///
/// Replies are uniformly random residues, so the compare `x + y ≥ δ` that a
/// modular addition reduces by is a coin flip per cell — a mispredicted
/// branch every other cell costs more than the addition. For canonical
/// replies the sum is below `2δ`, so it is a multiple of δ exactly when it is
/// 0 or δ: two compares and an `&`, nothing to predict. Anything else — a
/// hostile reply `≥ δ`, or a δ so large the sum could wrap — answers through
/// [`Modulus::add`], bit for bit what [`owner_combine`] would have decoded;
/// that branch is never taken on honest replies, so it predicts.
#[derive(Clone, Copy)]
struct Presence {
    delta: Modulus,
    /// δ when δ ≤ 2^63 and 0 otherwise, so that one test finds every
    /// operand the short form cannot take.
    small: u64,
}

impl Presence {
    fn of(op: &OwnerParams) -> Presence {
        Presence {
            delta: Modulus::new(op.delta),
            small: if op.delta <= 1 << 63 { op.delta } else { 0 },
        }
    }

    #[inline]
    fn holds(self, x: u64, y: u64) -> bool {
        if (x >= self.small) | (y >= self.small) {
            return self.delta.add(x, y) != 0;
        }
        let s = x + y;
        (s != 0) & (s != self.small)
    }
}

/// Step 3 whole, as the plan runs it: [`membership`] of [`owner_combine`]
/// in one pass over the two replies, without the combined vector between.
pub fn owner_membership(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<Vec<bool>> {
    check_outputs(out1, out2, op)?;
    let present = Presence::of(op);
    Ok(out1
        .iter()
        .zip(out2)
        .map(|(&x, &y)| present.holds(x, y))
        .collect())
}

/// Decode union membership: present ⟺ non-zero.
pub fn membership(combined: &[u64]) -> Vec<bool> {
    combined.iter().map(|&v| v != 0).collect()
}

/// Owner-side PSU verification: the two `PF_i`-ordered copies must agree
/// on membership (zero vs non-zero) cell-for-cell. The blinding factors
/// differ between copies (each copy's PRG stream binds to its permuted
/// positions), so only the 0/≠0 pattern — the actual result — is
/// comparable, which is exactly what must be protected.
///
/// Known limitation of the two-copy reconstruction: the copies are
/// computed in different orders, so any *cell-targeted* forgery lands at
/// different `PF_i` positions and is caught (§5.2's 1/b² argument), but a
/// *permutation-invariant* corruption — a server filling every cell of
/// both copies with one value — decodes to (nearly) the full-domain union
/// in both copies and passes agreement. Such tampering cannot craft a
/// chosen union, only the degenerate all-present one; callers needing
/// protection against it should cross-check the union's plausibility
/// (e.g. against `psi_verified`'s complement-bound membership).
pub fn owner_verify_union(
    copy_a: (&[u64], &[u64]),
    copy_b: (&[u64], &[u64]),
    op: &OwnerParams,
) -> Result<Vec<bool>> {
    check_outputs(copy_a.0, copy_a.1, op)?;
    check_outputs(copy_b.0, copy_b.1, op)?;
    let present = Presence::of(op);
    let mut members = Vec::with_capacity(op.b);
    for i in 0..op.b {
        let in_a = present.holds(copy_a.0[i], copy_a.1[i]);
        if in_a != present.holds(copy_b.0[i], copy_b.1[i]) {
            return Err(ProtocolError::VerificationFailed {
                operation: "psu",
                cell: i,
            });
        }
        members.push(in_a);
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use crate::tables::{share_indicator, IndicatorShares, OwnerTable};
    use prism_core::{DenseIntDomain, Permutation, Prg};

    /// Step 2 (Equation 18) into a fresh buffer, blinded with the
    /// servers' shared stream.
    fn psu_round(shares: &[&[u64]], sp: &ServerParams, threads: usize) -> Result<Vec<u64>> {
        let mut out = vec![0; sp.b];
        server_psu_round_into(shares, &blinding_for(sp), sp, &mut out, threads).map(|()| out)
    }

    fn fixture(owner_sets: &[Vec<u64>], domain: u64, seed: u64) -> (Setup, Vec<IndicatorShares>) {
        let m = owner_sets.len();
        let setup = Initiator::new(SystemConfig::new(m, domain as usize).with_seed(seed))
            .setup()
            .unwrap();
        let dmap = DenseIntDomain::one_to(domain);
        let uploads = owner_sets
            .iter()
            .enumerate()
            .map(|(j, s)| {
                let t = OwnerTable::from_set(s, &dmap).unwrap();
                let mut prg = Prg::from_seed(seed ^ (j as u64 + 77));
                share_indicator(&t.indicator, setup.owner.delta, &mut prg)
            })
            .collect();
        (setup, uploads)
    }

    fn run_psu(setup: &Setup, uploads: &[IndicatorShares], threads: usize) -> Vec<u64> {
        let s1_in: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2_in: Vec<&[u64]> = uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        let o1 = psu_round(&s1_in, &setup.servers[0], threads).unwrap();
        let o2 = psu_round(&s2_in, &setup.servers[1], threads).unwrap();
        owner_combine(&o1, &o2, &setup.owner).unwrap()
    }

    #[test]
    fn psu_matches_plaintext_union() {
        let sets = vec![vec![1u64, 3, 5], vec![5u64, 6], vec![2u64, 3]];
        let (setup, uploads) = fixture(&sets, 8, 21);
        let combined = run_psu(&setup, &uploads, 1);
        let members = membership(&combined);
        for v in 1..=8u64 {
            let expected = sets.iter().any(|s| s.contains(&v));
            assert_eq!(members[(v - 1) as usize], expected, "value {v}");
        }
    }

    #[test]
    fn paper_example_disease_union() {
        // §2: PSU over disease returns {Cancer, Fever, Heart} — encoded as
        // cells 1, 2, 3 of a 3-cell domain.
        let sets = vec![
            vec![1u64, 3], // Hospital 1: Cancer, Heart
            vec![1u64, 2], // Hospital 2: Cancer, Fever
            vec![1u64, 3], // Hospital 3: Cancer, Heart
        ];
        let (setup, uploads) = fixture(&sets, 3, 33);
        let combined = run_psu(&setup, &uploads, 1);
        assert_eq!(membership(&combined), vec![true, true, true]);
    }

    #[test]
    fn absent_everywhere_decodes_to_zero() {
        let sets = vec![vec![2u64], vec![2u64], vec![3u64]];
        let (setup, uploads) = fixture(&sets, 5, 5);
        let combined = run_psu(&setup, &uploads, 1);
        assert_eq!(combined[0], 0); // value 1: held by nobody
        assert_eq!(combined[3], 0); // value 4
        assert_eq!(combined[4], 0); // value 5
        assert_ne!(combined[1], 0);
        assert_ne!(combined[2], 0);
    }

    #[test]
    fn multiplicity_is_blinded() {
        // Two cells held by different numbers of owners must not decode to
        // values that reveal the count: with blinding, the decoded value is
        // count·rand — and because rand differs per cell, equal counts
        // rarely produce equal values. We check the decoded values are not
        // simply the holder counts.
        let sets = vec![vec![1u64, 2], vec![1u64, 2], vec![1u64]];
        let (setup, uploads) = fixture(&sets, 2, 55);
        let combined = run_psu(&setup, &uploads, 1);
        // Holder counts are 3 and 2.
        assert!(
            combined != vec![3, 2],
            "decoded vector must not expose raw counts"
        );
    }

    #[test]
    fn thread_counts_agree() {
        let sets: Vec<Vec<u64>> = (0..4)
            .map(|j| (1..=300u64).filter(|v| v % (j + 2) == 0).collect())
            .collect();
        let (setup, uploads) = fixture(&sets, 300, 66);
        let reference = run_psu(&setup, &uploads, 1);
        for threads in [2, 3, 5, 8] {
            assert_eq!(run_psu(&setup, &uploads, threads), reference);
        }
    }

    #[test]
    fn servers_agree_on_blinding_without_communication() {
        // Each server independently regenerates rand[]; combined result
        // must decode correctly — this is the no-communication property.
        let sets = vec![vec![1u64], vec![2u64]];
        let (setup, uploads) = fixture(&sets, 2, 77);
        assert_eq!(setup.servers[0].psu_prg_seed, setup.servers[1].psu_prg_seed);
        let combined = run_psu(&setup, &uploads, 1);
        assert_eq!(membership(&combined), vec![true, true]);
    }

    #[test]
    fn into_variant_matches_vec_api_even_on_dirty_buffers() {
        let sets = vec![vec![1u64, 3, 5], vec![5u64, 6], vec![2u64, 3]];
        let (setup, uploads) = fixture(&sets, 8, 44);
        let sp = &setup.servers[0];
        let refs: Vec<&[u64]> = uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let rand = blinding_for(sp);
        let reference = psu_round(&refs, sp, 1).unwrap();
        let mut out = vec![u64::MAX; sp.b];
        server_psu_round_into(&refs, &rand, sp, &mut out, 1).unwrap();
        assert_eq!(out, reference);
        for threads in [2usize, 4] {
            out.fill(u64::MAX);
            server_psu_round_into(&refs, &rand, sp, &mut out, threads).unwrap();
            assert_eq!(out, reference, "threads={threads}");
        }
        let mut short = vec![0u64; sp.b - 1];
        assert!(server_psu_round_into(&refs, &rand, sp, &mut short, 1).is_err());
    }

    #[test]
    fn shape_validation() {
        let (setup, uploads) = fixture(&[vec![1u64], vec![1u64]], 3, 88);
        let bad = vec![0u64; 1];
        assert!(psu_round(&[&bad, &uploads[1].shares[0]], &setup.servers[0], 1).is_err());
    }

    /// The verification round at a server (reconstruction; DESIGN.md §3.9 —
    /// PSU fits the same two-copy pattern as count): the PSU round over a
    /// copy the owners permuted with `PF_dbk`, then this server's `PF_sk`, so
    /// both copies land in `PF_i` order.
    fn verify_round(shares: &[&[u64]], sp: &ServerParams, pf: &Permutation) -> Vec<u64> {
        pf.apply(&psu_round(shares, sp, 1).unwrap())
    }

    fn permuted_uploads(
        setup: &Setup,
        owner_sets: &[Vec<u64>],
        domain: u64,
        perm: &Permutation,
        seed: u64,
    ) -> Vec<IndicatorShares> {
        let dmap = DenseIntDomain::one_to(domain);
        owner_sets
            .iter()
            .enumerate()
            .map(|(j, s)| {
                let t = OwnerTable::from_set(s, &dmap).unwrap();
                let permuted = perm.apply(&t.indicator);
                let mut prg = Prg::from_seed(seed ^ (j as u64 + 31));
                share_indicator(&permuted, setup.owner.delta, &mut prg)
            })
            .collect()
    }

    #[test]
    fn psu_verification_accepts_honest_run() {
        let sets = vec![vec![1u64, 3], vec![3u64, 5], vec![2u64]];
        let setup = Initiator::new(SystemConfig::new(3, 6).with_seed(91))
            .setup()
            .unwrap();
        let op = &setup.owner;
        let up_a = permuted_uploads(&setup, &sets, 6, &op.pf_db1, 100);
        let up_b = permuted_uploads(&setup, &sets, 6, &op.pf_db2, 200);
        let run = |ups: &[IndicatorShares], copy_b: bool| -> Vec<Vec<u64>> {
            (0..2)
                .map(|s| {
                    let refs: Vec<&[u64]> = ups.iter().map(|u| u.shares[s].as_slice()).collect();
                    let sp = &setup.servers[s];
                    verify_round(&refs, sp, if copy_b { &sp.pf_s2 } else { &sp.pf_s1 })
                })
                .collect()
        };
        let a = run(&up_a, false);
        let b = run(&up_b, true);
        let members =
            owner_verify_union((&a[0], &a[1]), (&b[0], &b[1]), op).expect("honest verifies");
        // Membership is reported in PF_i order; the *count* matches the
        // plaintext union {1, 2, 3, 5}.
        assert_eq!(members.iter().filter(|&&m| m).count(), 4);
    }

    #[test]
    fn psu_verification_catches_tampering() {
        let sets = vec![vec![1u64, 3], vec![3u64, 5], vec![2u64]];
        let setup = Initiator::new(SystemConfig::new(3, 6).with_seed(92))
            .setup()
            .unwrap();
        let op = &setup.owner;
        let up_a = permuted_uploads(&setup, &sets, 6, &op.pf_db1, 300);
        let up_b = permuted_uploads(&setup, &sets, 6, &op.pf_db2, 400);
        let refs_a1: Vec<&[u64]> = up_a.iter().map(|u| u.shares[0].as_slice()).collect();
        let refs_a2: Vec<&[u64]> = up_a.iter().map(|u| u.shares[1].as_slice()).collect();
        let refs_b1: Vec<&[u64]> = up_b.iter().map(|u| u.shares[0].as_slice()).collect();
        let refs_b2: Vec<&[u64]> = up_b.iter().map(|u| u.shares[1].as_slice()).collect();
        // S1 zeroes part of copy A only (drops union members).
        let mut a1 = verify_round(&refs_a1, &setup.servers[0], &setup.servers[0].pf_s1);
        a1.fill(0);
        let a2 = verify_round(&refs_a2, &setup.servers[1], &setup.servers[1].pf_s1);
        let b1 = verify_round(&refs_b1, &setup.servers[0], &setup.servers[0].pf_s2);
        let b2 = verify_round(&refs_b2, &setup.servers[1], &setup.servers[1].pf_s2);
        assert!(owner_verify_union((&a1, &a2), (&b1, &b2), &setup.owner).is_err());
    }
}
