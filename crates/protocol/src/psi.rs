//! Private Set Intersection (§5.1) and its result verification (§5.2).
//!
//! Round structure:
//!
//! 1. Owners map their distinct `A_c` values into indicator tables χ and
//!    upload additive shares ([`crate::tables`]).
//! 2. Each additive server φ computes, per cell i (Equation 3):
//!    `out_φ[i] = g^((⊕_j A(x_i)_j^φ ⊖ A(m)^φ) mod δ) mod η'`.
//! 3. Owners multiply the two outputs mod η (Equation 4); a cell is common
//!    iff the product is exactly 1.
//!
//! Verification adds a complement table χ̄, permuted owner-side with
//! `PF_db1`, for which servers compute `Vout_φ[i] = g^(⊕_j Ā(x_i)_j^φ)`
//! (Equation 7, no `m` subtraction); owners un-permute and check
//! `fop_i · v_i ≡ 1 (mod η)` per cell (Equations 8–10).
//!
//! This module holds the *step functions*; the [`crate::plans::Psi`] and
//! [`crate::plans::PsiVerified`] round plans compose them for execution
//! by the engine over any transport.

use crate::chunk::fill_chunks;
use crate::error::{check_cells, ProtocolError, Result};
use crate::params::{OwnerParams, ServerParams};
use prism_core::arith::{sub_mod, sum_columns_mod, Modulus};

/// Validate that `m` owner share vectors of length `b` arrived.
pub(crate) fn check_shape(owner_shares: &[&[u64]], m: usize, b: usize) -> Result<()> {
    if owner_shares.len() != m {
        return Err(ProtocolError::ParameterMismatch(format!(
            "expected shares from {m} owners, got {}",
            owner_shares.len()
        )));
    }
    for (j, s) in owner_shares.iter().enumerate() {
        if s.len() != b {
            return Err(ProtocolError::ParameterMismatch(format!(
                "owner {j} uploaded {} cells, expected {b}",
                s.len()
            )));
        }
    }
    Ok(())
}

/// Validate the caller-supplied power table and output buffer for the
/// `_into` step variants.
fn check_buffers(table: &[u64], out: &[u64], sp: &ServerParams) -> Result<()> {
    check_cells("power table", table.len(), sp.delta as usize)?;
    check_cells("output buffer", out.len(), sp.b)
}

/// Step 2 at server φ (Equation 3): returns the length-`b` output vector.
///
/// `owner_shares[j]` is owner j's additive share vector held by this
/// server. The exponentiation is a table lookup (`g^0..g^(δ−1)` mod η′).
pub fn server_psi_round(
    owner_shares: &[&[u64]],
    sp: &ServerParams,
    threads: usize,
) -> Result<Vec<u64>> {
    let table = sp.power_table();
    let mut out = vec![0u64; sp.b];
    server_psi_round_into(owner_shares, sp, &table, &mut out, threads)?;
    Ok(out)
}

/// In-place Step 2 (Equation 3): writes into a caller-owned buffer using a
/// caller-cached power table — the arena path the engine reuses across
/// rounds, performing zero heap allocations per call. Bit-identical to
/// [`server_psi_round`].
pub fn server_psi_round_into(
    owner_shares: &[&[u64]],
    sp: &ServerParams,
    table: &[u64],
    out: &mut [u64],
    threads: usize,
) -> Result<()> {
    check_shape(owner_shares, sp.m, sp.b)?;
    check_buffers(table, out, sp)?;
    fill_chunks(out, threads, |start, chunk| {
        // ⊕_j over the (canonical) owner shares, then ⊖ A(m)^φ and the
        // table lookup while the chunk is still in cache.
        sum_columns_mod(owner_shares, start, sp.delta, chunk);
        for v in chunk.iter_mut() {
            *v = power(*v, sp.m_share, sp, table);
        }
    });
    Ok(())
}

/// `g^((sum ⊖ minus) mod δ) mod η′` by table lookup, for one cell's share
/// sum: Equation 3 with `minus = A(m)^φ`, Equation 7 with `minus = 0`.
#[inline]
fn power(sum: u64, minus: u64, sp: &ServerParams, table: &[u64]) -> u64 {
    table[sub_mod(sum, minus, sp.delta) as usize]
}

/// Equations 3 and 7 over a run of rows of a column that already holds
/// `⊕_j` of the owners' (canonical) shares — what a
/// [`crate::engine::ServerNode`] keeps per stored column, so its rounds
/// scan one column whatever the owner count. `summed` and `out` are the
/// same rows: a whole column or one row block of it (the caller divides
/// the rows; this runs on its thread). Bit-identical, cell for cell, to
/// [`server_psi_round_into`] with `minus = sp.m_share` and to
/// [`server_psi_verify_round_into`] with `minus = 0`, which sum the
/// per-owner columns first and then do exactly this.
pub fn summed_round_into(
    summed: &[u64],
    minus: u64,
    sp: &ServerParams,
    table: &[u64],
    out: &mut [u64],
) -> Result<()> {
    check_cells("power table", table.len(), sp.delta as usize)?;
    check_cells("summed column", summed.len(), out.len())?;
    for (o, &s) in out.iter_mut().zip(summed) {
        *o = power(s, minus, sp, table);
    }
    Ok(())
}

/// Verification Step 2 at server φ (Equation 7): like the PSI round but
/// over the complement shares and **without** the `m` subtraction.
pub fn server_psi_verify_round(
    complement_shares: &[&[u64]],
    sp: &ServerParams,
    threads: usize,
) -> Result<Vec<u64>> {
    let table = sp.power_table();
    let mut out = vec![0u64; sp.b];
    server_psi_verify_round_into(complement_shares, sp, &table, &mut out, threads)?;
    Ok(out)
}

/// In-place verification Step 2 (Equation 7); see
/// [`server_psi_round_into`] for the buffer contract.
pub fn server_psi_verify_round_into(
    complement_shares: &[&[u64]],
    sp: &ServerParams,
    table: &[u64],
    out: &mut [u64],
    threads: usize,
) -> Result<()> {
    check_shape(complement_shares, sp.m, sp.b)?;
    check_buffers(table, out, sp)?;
    fill_chunks(out, threads, |start, chunk| {
        sum_columns_mod(complement_shares, start, sp.delta, chunk);
        for v in chunk.iter_mut() {
            *v = power(*v, 0, sp, table);
        }
    });
    Ok(())
}

/// Both servers' outputs must cover the owner's domain.
pub(crate) fn check_outputs(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<()> {
    if out1.len() != op.b || out2.len() != op.b {
        return Err(ProtocolError::ParameterMismatch(format!(
            "server outputs have lengths {} / {}, expected {}",
            out1.len(),
            out2.len(),
            op.b
        )));
    }
    Ok(())
}

/// Step 3 at an owner (Equation 4): combine the two server outputs into
/// the final vector `fop`. `fop[i] == 1` ⟺ cell i is common to all owners.
pub fn owner_combine(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<Vec<u64>> {
    check_outputs(out1, out2, op)?;
    let eta = Modulus::new(op.eta);
    Ok(out1
        .iter()
        .zip(out2)
        .map(|(&x, &y)| eta.mul(x, y))
        .collect())
}

/// Decode membership from `fop`: common ⟺ value 1.
pub fn membership(fop: &[u64]) -> Vec<bool> {
    fop.iter().map(|&v| v == 1).collect()
}

/// The cell indices in the intersection.
pub fn common_cells(fop: &[u64]) -> Vec<usize> {
    fop.iter()
        .enumerate()
        .filter_map(|(i, &v)| (v == 1).then_some(i))
        .collect()
}

/// Step 3 whole, as the plans run it: `(fop, members, common)` —
/// [`owner_combine`], [`membership`] and [`common_cells`], each reply cell
/// read once. `fop` is collected from the replies by a loop that does
/// nothing else (a push into a second vector from inside it costs that loop
/// its shape), `members` is one compare per cell over the `fop` just
/// written, while a cache still holds it, and `common` is sized from, and
/// filled from, the one-byte-per-cell `members`.
pub fn owner_decode(
    out1: &[u64],
    out2: &[u64],
    op: &OwnerParams,
) -> Result<(Vec<u64>, Vec<bool>, Vec<usize>)> {
    let fop = owner_combine(out1, out2, op)?;
    let members = membership(&fop);
    let mut common = Vec::with_capacity(members.iter().filter(|&&m| m).count());
    common.extend(
        members
            .iter()
            .enumerate()
            .filter_map(|(i, &member)| member.then_some(i)),
    );
    Ok((fop, members, common))
}

/// Verification Step 3 at an owner (Equations 8–10).
///
/// `fop` is the already-combined PSI output; `vout1`/`vout2` are the two
/// servers' Equation-7 outputs, still in `PF_db1` order. Returns `Ok(())`
/// iff every cell satisfies `fop_i · v_i ≡ 1 (mod η)`.
///
/// Owners permuted χ̄ with `PF_db1` before sharing, so cell i's `v` sits at
/// position `PF_db1(i)` of the outputs. The two outputs are multiplied in
/// the order they arrive — one sequential pass — into a table of residues
/// mod η, which is four bytes a cell whenever η < 2³² and then small enough
/// to stay in cache for the one scattered read per cell that follows.
pub fn owner_verify(fop: &[u64], vout1: &[u64], vout2: &[u64], op: &OwnerParams) -> Result<()> {
    if vout1.len() != op.b || vout2.len() != op.b || fop.len() != op.b {
        return Err(ProtocolError::ParameterMismatch(
            "verification vectors have wrong length".into(),
        ));
    }
    let failed = if op.eta <= u64::from(u32::MAX) {
        // A residue mod η fits: the cast cannot truncate.
        first_unbound_cell(fop, vout1, vout2, op, |residue| residue as u32)
    } else {
        first_unbound_cell(fop, vout1, vout2, op, |residue| residue)
    };
    match failed {
        Some(cell) => Err(ProtocolError::VerificationFailed {
            operation: "psi",
            cell,
        }),
        None => Ok(()),
    }
}

/// The first cell with `fop_i · vout1[PF_db1(i)] · vout2[PF_db1(i)] ≢ 1`,
/// through a table of the products' residues stored as `narrow` makes them.
fn first_unbound_cell<V: Copy + Into<u64>>(
    fop: &[u64],
    vout1: &[u64],
    vout2: &[u64],
    op: &OwnerParams,
    narrow: impl Fn(u64) -> V,
) -> Option<usize> {
    let eta = Modulus::new(op.eta);
    let v: Vec<V> = vout1
        .iter()
        .zip(vout2)
        .map(|(&x, &y)| narrow(eta.mul(x, y)))
        .collect();
    fop.iter()
        .enumerate()
        .position(|(i, &f)| eta.mul(f, v[op.pf_db1.dest(i)].into()) != 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Initiator, Setup, SystemConfig};
    use crate::tables::{share_indicator, OwnerTable};
    use prism_core::{DenseIntDomain, GroupParams, Permutation, Prg};

    /// Build the verbatim fixture of Examples 5.1 / 5.2.1: δ=5, η=11,
    /// η′=143, g=3, m=3 shared as (1, 2), identity PF_db1.
    fn paper_setup() -> (OwnerParams, ServerParams, ServerParams) {
        let _group = GroupParams::from_parts(5, 11, 13, 3).unwrap();
        let field = prism_core::ShamirCtx::default();
        let ident = Permutation::identity(3);
        let op = OwnerParams {
            m: 3,
            b: 3,
            delta: 5,
            eta: 11,
            field,
            pf_db1: ident.clone(),
            pf_db2: ident.clone(),
            pf_owners: Permutation::identity(3),
            poly: prism_core::OrderPolynomial::paper_example(),
            wide_width: 2,
            agg_domain_max: 100,
            poly_cache: Default::default(),
        };
        let mk_server = |id: usize, m_share: u64| ServerParams {
            server_id: id,
            m: 3,
            b: 3,
            delta: 5,
            g: 3,
            eta_prime: 143,
            m_share,
            field,
            pf_s1: ident.clone(),
            pf_s2: ident.clone(),
            pf_owners: Permutation::identity(3),
            psu_prg_seed: 0,
            wide_width: 2,
            row_offset: 0,
        };
        (op, mk_server(0, 1), mk_server(1, 2))
    }

    #[test]
    fn example_5_1_verbatim() {
        let (op, s1, s2) = paper_setup();
        // Tables 5–7, shares reduced mod 5 (−3 ≡ 2, −2 ≡ 3, −1 ≡ 4).
        let db1_s1 = [4u64, 2, 3];
        let db1_s2 = [2u64, 3, 3];
        let db2_s1 = [3u64, 4, 3];
        let db2_s2 = [3u64, 2, 2];
        let db3_s1 = [2u64, 3, 4];
        let db3_s2 = [4u64, 2, 2];

        let out1 = server_psi_round(&[&db1_s1, &db2_s1, &db3_s1], &s1, 1).unwrap();
        assert_eq!(
            out1,
            vec![27, 27, 81],
            "server S1 outputs (paper: 27,27,81)"
        );
        let out2 = server_psi_round(&[&db1_s2, &db2_s2, &db3_s2], &s2, 1).unwrap();
        assert_eq!(out2, vec![9, 1, 1], "server S2 outputs (paper: 9,1,1)");

        let fop = owner_combine(&out1, &out2, &op).unwrap();
        assert_eq!(fop, vec![1, 5, 4], "final vector ⟨1, 5, 4⟩");
        assert_eq!(membership(&fop), vec![true, false, false]);
        assert_eq!(common_cells(&fop), vec![0]); // Cancer
    }

    #[test]
    fn example_5_2_1_verification_verbatim() {
        let (op, s1, s2) = paper_setup();
        // PSI outputs from Example 5.1.
        let fop = vec![1u64, 5, 4];
        // Complement shares, Tables 8–10 (mod 5).
        let db1_v1 = [2u64, 0, 1];
        let db1_v2 = [3u64, 1, 4]; // −2, 1, −1
        let db2_v1 = [2u64, 3, 4];
        let db2_v2 = [3u64, 2, 2]; // −2, −3, −3
        let db3_v1 = [4u64, 1, 1];
        let db3_v2 = [1u64, 0, 4]; // −4, 0, −1

        let vout1 = server_psi_verify_round(&[&db1_v1, &db2_v1, &db3_v1], &s1, 1).unwrap();
        assert_eq!(vout1, vec![27, 81, 3], "S1 verification outputs");
        let vout2 = server_psi_verify_round(&[&db1_v2, &db2_v2, &db3_v2], &s2, 1).unwrap();
        assert_eq!(vout2, vec![9, 27, 1], "S2 verification outputs");

        owner_verify(&fop, &vout1, &vout2, &op).expect("honest run verifies");
    }

    /// End-to-end fixture over a generated parameter set.
    struct Fixture {
        setup: Setup,
        tables: Vec<OwnerTable>,
        uploads: Vec<crate::tables::IndicatorShares>,
    }

    fn fixture(owner_sets: &[Vec<u64>], domain: u64, seed: u64) -> Fixture {
        let m = owner_sets.len();
        let setup = Initiator::new(SystemConfig::new(m, domain as usize).with_seed(seed))
            .setup()
            .unwrap();
        let dmap = DenseIntDomain::one_to(domain);
        let tables: Vec<OwnerTable> = owner_sets
            .iter()
            .map(|s| OwnerTable::from_set(s, &dmap).unwrap())
            .collect();
        let uploads: Vec<_> = tables
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let mut prg = Prg::from_seed(seed ^ ((j as u64 + 1) * 0x9E37));
                share_indicator(&t.indicator, setup.owner.delta, &mut prg)
            })
            .collect();
        Fixture {
            setup,
            tables,
            uploads,
        }
    }

    fn run_psi(f: &Fixture, threads: usize) -> Vec<u64> {
        let s1_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        let out1 = server_psi_round(&s1_in, &f.setup.servers[0], threads).unwrap();
        let out2 = server_psi_round(&s2_in, &f.setup.servers[1], threads).unwrap();
        owner_combine(&out1, &out2, &f.setup.owner).unwrap()
    }

    #[test]
    fn psi_matches_plaintext_intersection() {
        let sets = vec![
            vec![1u64, 3, 5, 7, 9],
            vec![3u64, 5, 6, 9],
            vec![2u64, 3, 5, 9, 10],
        ];
        let f = fixture(&sets, 10, 42);
        let fop = run_psi(&f, 1);
        let members = membership(&fop);
        for v in 1..=10u64 {
            let expected = sets.iter().all(|s| s.contains(&v));
            assert_eq!(members[(v - 1) as usize], expected, "value {v}");
        }
    }

    #[test]
    fn psi_thread_counts_agree() {
        let sets = vec![
            (1..=500u64).filter(|v| v % 2 == 0).collect::<Vec<_>>(),
            (1..=500u64).filter(|v| v % 3 == 0).collect(),
            (1..=500u64).filter(|v| v % 5 != 0).collect(),
        ];
        let f = fixture(&sets, 500, 7);
        let reference = run_psi(&f, 1);
        for threads in [2usize, 3, 4, 5, 8] {
            assert_eq!(run_psi(&f, threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_intersection_yields_no_ones() {
        let sets = vec![vec![1u64, 2], vec![3u64, 4], vec![5u64, 6]];
        let f = fixture(&sets, 6, 3);
        let fop = run_psi(&f, 1);
        assert!(common_cells(&fop).is_empty());
    }

    #[test]
    fn full_overlap_yields_all_ones() {
        let all: Vec<u64> = (1..=32).collect();
        let sets = vec![all.clone(), all.clone(), all.clone(), all];
        let f = fixture(&sets, 32, 4);
        let fop = run_psi(&f, 2);
        assert_eq!(common_cells(&fop).len(), 32);
    }

    #[test]
    fn output_size_is_domain_size_regardless_of_data() {
        // Output-size hiding: |out| == b whatever the owners hold.
        for sets in [
            vec![vec![1u64], vec![1u64]],
            vec![(1..=50).collect::<Vec<u64>>(), vec![2u64]],
        ] {
            let f = fixture(&sets, 50, 5);
            let s1_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[0].as_slice()).collect();
            let out = server_psi_round(&s1_in, &f.setup.servers[0], 1).unwrap();
            assert_eq!(out.len(), 50);
        }
    }

    #[test]
    fn verification_accepts_honest_run() {
        let sets = vec![vec![1u64, 2, 9], vec![2u64, 9, 10], vec![2u64, 5, 9]];
        let f = fixture(&sets, 10, 11);
        let fop = run_psi(&f, 1);

        // Build permuted complement shares.
        let op = &f.setup.owner;
        let mut vup = Vec::new();
        for (j, t) in f.tables.iter().enumerate() {
            let permuted = op.pf_db1.apply(&t.complement());
            let mut prg = Prg::from_seed(1000 + j as u64);
            vup.push(share_indicator(&permuted, op.delta, &mut prg));
        }
        let v1_in: Vec<&[u64]> = vup.iter().map(|u| u.shares[0].as_slice()).collect();
        let v2_in: Vec<&[u64]> = vup.iter().map(|u| u.shares[1].as_slice()).collect();
        let vout1 = server_psi_verify_round(&v1_in, &f.setup.servers[0], 1).unwrap();
        let vout2 = server_psi_verify_round(&v2_in, &f.setup.servers[1], 1).unwrap();
        owner_verify(&fop, &vout1, &vout2, op).expect("honest servers verify");
    }

    #[test]
    fn verification_catches_skipped_cells() {
        let sets = vec![vec![1u64, 2, 9], vec![2u64, 9, 10], vec![2u64, 5, 9]];
        let f = fixture(&sets, 10, 13);
        let op = &f.setup.owner;

        let s1_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let s2_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[1].as_slice()).collect();
        // Malicious S1: computes cell 0 and replays it everywhere (the
        // "skip processing" attack of §5.2).
        let mut out1 = server_psi_round(&s1_in, &f.setup.servers[0], 1).unwrap();
        let replay = out1[0];
        for v in out1.iter_mut() {
            *v = replay;
        }
        let out2 = server_psi_round(&s2_in, &f.setup.servers[1], 1).unwrap();
        let fop = owner_combine(&out1, &out2, op).unwrap();

        // Honest verification path.
        let mut vup = Vec::new();
        for (j, t) in f.tables.iter().enumerate() {
            let permuted = op.pf_db1.apply(&t.complement());
            let mut prg = Prg::from_seed(2000 + j as u64);
            vup.push(share_indicator(&permuted, op.delta, &mut prg));
        }
        let v1_in: Vec<&[u64]> = vup.iter().map(|u| u.shares[0].as_slice()).collect();
        let v2_in: Vec<&[u64]> = vup.iter().map(|u| u.shares[1].as_slice()).collect();
        let vout1 = server_psi_verify_round(&v1_in, &f.setup.servers[0], 1).unwrap();
        let vout2 = server_psi_verify_round(&v2_in, &f.setup.servers[1], 1).unwrap();

        let err = owner_verify(&fop, &vout1, &vout2, op).unwrap_err();
        assert!(matches!(err, ProtocolError::VerificationFailed { .. }));
    }

    #[test]
    fn verification_catches_injected_values() {
        let sets = vec![vec![1u64, 4], vec![4u64, 5], vec![4u64]];
        let f = fixture(&sets, 6, 17);
        let op = &f.setup.owner;
        let fop_honest = run_psi(&f, 1);

        // Malicious: inject a fake "common" marker at a non-common cell by
        // overwriting fop (equivalently, the servers collude on outputs but
        // cannot align the permuted complement table).
        let mut fop = fop_honest;
        fop[0] = 1;

        let mut vup = Vec::new();
        for (j, t) in f.tables.iter().enumerate() {
            let permuted = op.pf_db1.apply(&t.complement());
            let mut prg = Prg::from_seed(3000 + j as u64);
            vup.push(share_indicator(&permuted, op.delta, &mut prg));
        }
        let v1_in: Vec<&[u64]> = vup.iter().map(|u| u.shares[0].as_slice()).collect();
        let v2_in: Vec<&[u64]> = vup.iter().map(|u| u.shares[1].as_slice()).collect();
        let vout1 = server_psi_verify_round(&v1_in, &f.setup.servers[0], 1).unwrap();
        let vout2 = server_psi_verify_round(&v2_in, &f.setup.servers[1], 1).unwrap();

        assert!(owner_verify(&fop, &vout1, &vout2, op).is_err());
    }

    #[test]
    fn into_variant_matches_vec_api_even_on_dirty_buffers() {
        let sets = vec![
            (1..=200u64).filter(|v| v % 2 == 0).collect::<Vec<_>>(),
            (1..=200u64).filter(|v| v % 3 == 0).collect(),
        ];
        let f = fixture(&sets, 200, 29);
        let sp = &f.setup.servers[0];
        let s1_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let reference = server_psi_round(&s1_in, sp, 1).unwrap();
        let table = sp.power_table();
        // A reused arena buffer arrives full of stale values; the into
        // variant must overwrite every cell.
        let mut out = vec![u64::MAX; sp.b];
        server_psi_round_into(&s1_in, sp, &table, &mut out, 1).unwrap();
        assert_eq!(out, reference);
        for threads in [2usize, 4] {
            out.fill(u64::MAX);
            server_psi_round_into(&s1_in, sp, &table, &mut out, threads).unwrap();
            assert_eq!(out, reference, "threads={threads}");
        }
        // Verification variant, same contract.
        let vref = server_psi_verify_round(&s1_in, sp, 1).unwrap();
        out.fill(u64::MAX);
        server_psi_verify_round_into(&s1_in, sp, &table, &mut out, 1).unwrap();
        assert_eq!(out, vref);
    }

    #[test]
    fn into_variant_rejects_bad_buffers() {
        let f = fixture(&[vec![1u64], vec![2u64]], 4, 31);
        let sp = &f.setup.servers[0];
        let s1_in: Vec<&[u64]> = f.uploads.iter().map(|u| u.shares[0].as_slice()).collect();
        let table = sp.power_table();
        let mut short_out = vec![0u64; sp.b - 1];
        assert!(matches!(
            server_psi_round_into(&s1_in, sp, &table, &mut short_out, 1).unwrap_err(),
            ProtocolError::ParameterMismatch(_)
        ));
        let mut out = vec![0u64; sp.b];
        assert!(matches!(
            server_psi_round_into(&s1_in, sp, &table[1..], &mut out, 1).unwrap_err(),
            ProtocolError::ParameterMismatch(_)
        ));
    }

    #[test]
    fn shape_errors_are_reported() {
        let f = fixture(&[vec![1u64], vec![1u64]], 4, 19);
        let short = vec![0u64; 2];
        let err = server_psi_round(&[&short, &f.uploads[1].shares[0]], &f.setup.servers[0], 1)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::ParameterMismatch(_)));
        let err = server_psi_round(&[&f.uploads[0].shares[0]], &f.setup.servers[0], 1).unwrap_err();
        assert!(matches!(err, ProtocolError::ParameterMismatch(_)));
    }

    #[test]
    fn non_common_cells_reveal_no_counts() {
        // Informal leakage check (§5.1 lemma): decode values at non-common
        // cells must not equal the count of holders in any systematic way —
        // we check that two cells with *different* holder counts can decode
        // to the same value class and that decoded values are non-1.
        let sets = vec![
            vec![1u64, 2], // holder counts: cell1=3, cell2=2, cell3=1
            vec![1u64, 2],
            vec![1u64, 3],
        ];
        let f = fixture(&sets, 3, 23);
        let fop = run_psi(&f, 1);
        assert_eq!(fop[0], 1);
        assert_ne!(fop[1], 1);
        assert_ne!(fop[2], 1);
    }
}
