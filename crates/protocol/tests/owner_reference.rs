//! The owner steps as they were written before they were fused — one
//! vector per equation, one pass per vector — kept as the reference the
//! single-pass steps in `prism_protocol::{psi, psu, count, sum}` are
//! compared against: same answers, same
//! `ParameterMismatch` on the same wrong lengths, same
//! `VerificationFailed { operation, cell }` for the same tampered cell.
//! Test-only: nothing here runs in a query.

use prism_core::arith::{mul_assign_mod, MERSENNE_61};
use prism_core::{OrderPolynomial, Permutation, Prg, ShamirCtx};
use prism_protocol::params::{OwnerParams, SHAMIR_SERVERS};
use prism_protocol::{average, count, psi, psu, sum};
use prism_protocol::{ProtocolError, Result};
use proptest::prelude::*;

mod multi_pass {
    use super::*;

    pub fn psi_combine(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<Vec<u64>> {
        if out1.len() != op.b || out2.len() != op.b {
            return Err(ProtocolError::ParameterMismatch(format!(
                "server outputs have lengths {} / {}, expected {}",
                out1.len(),
                out2.len(),
                op.b
            )));
        }
        let mut fop = out1.to_vec();
        mul_assign_mod(&mut fop, out2, op.eta);
        Ok(fop)
    }

    pub fn psi_verify(fop: &[u64], vout1: &[u64], vout2: &[u64], op: &OwnerParams) -> Result<()> {
        if vout1.len() != op.b || vout2.len() != op.b || fop.len() != op.b {
            return Err(ProtocolError::ParameterMismatch(
                "verification vectors have wrong length".into(),
            ));
        }
        let inv = op.pf_db1.inverse();
        let mut check = inv.apply(vout1);
        mul_assign_mod(&mut check, &inv.apply(vout2), op.eta);
        mul_assign_mod(&mut check, fop, op.eta);
        match check.iter().position(|&c| c != 1) {
            Some(cell) => Err(ProtocolError::VerificationFailed {
                operation: "psi",
                cell,
            }),
            None => Ok(()),
        }
    }

    pub fn count(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<usize> {
        let fop = psi_combine(out1, out2, op)?;
        Ok(fop.iter().filter(|&&v| v == 1).count())
    }

    pub fn verify_count(
        copy_a: (&[u64], &[u64]),
        copy_b: (&[u64], &[u64]),
        op: &OwnerParams,
    ) -> Result<usize> {
        let fop_a = psi_combine(copy_a.0, copy_a.1, op)?;
        let fop_b = psi_combine(copy_b.0, copy_b.1, op)?;
        for i in 0..op.b {
            if (fop_a[i] == 1) != (fop_b[i] == 1) {
                return Err(ProtocolError::VerificationFailed {
                    operation: "psi-count",
                    cell: i,
                });
            }
        }
        Ok(fop_a.iter().filter(|&&v| v == 1).count())
    }

    pub fn verify_count_bound(
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
        let mut check = psi_combine(copy_a.0, copy_a.1, op)?;
        mul_assign_mod(&mut check, complement.0, op.eta);
        mul_assign_mod(&mut check, complement.1, op.eta);
        if let Some(cell) = check.iter().position(|&c| c != 1) {
            return Err(ProtocolError::VerificationFailed {
                operation: "psi-count (complement binding)",
                cell,
            });
        }
        verify_count(copy_a, copy_b, op)
    }

    pub fn psu_combine(out1: &[u64], out2: &[u64], op: &OwnerParams) -> Result<Vec<u64>> {
        if out1.len() != op.b || out2.len() != op.b {
            return Err(ProtocolError::ParameterMismatch(
                "PSU outputs have wrong length".into(),
            ));
        }
        let mut combined = vec![0u64; op.b];
        prism_core::reconstruct2_into(out1, out2, op.delta, &mut combined);
        Ok(combined)
    }

    pub fn verify_union(
        copy_a: (&[u64], &[u64]),
        copy_b: (&[u64], &[u64]),
        op: &OwnerParams,
    ) -> Result<Vec<bool>> {
        let a = psu_combine(copy_a.0, copy_a.1, op)?;
        let b = psu_combine(copy_b.0, copy_b.1, op)?;
        for i in 0..op.b {
            if (a[i] != 0) != (b[i] != 0) {
                return Err(ProtocolError::VerificationFailed {
                    operation: "psu",
                    cell: i,
                });
            }
        }
        Ok(psu::membership(&a))
    }

    pub fn sum_verify(primary: &[u64], verification: &[u64], op: &OwnerParams) -> Result<()> {
        if primary.len() != op.b || verification.len() != op.b {
            return Err(ProtocolError::ParameterMismatch(
                "verification vectors have wrong length".into(),
            ));
        }
        let unpermuted = op.pf_db1.inverse().apply(verification);
        for i in 0..op.b {
            if primary[i] != unpermuted[i] {
                return Err(ProtocolError::VerificationFailed {
                    operation: "psi-sum",
                    cell: i,
                });
            }
        }
        Ok(())
    }
}

/// The moduli `prism_core::arith`'s differential tests use: 1, 2, the
/// paper's δ and η (113, 227; Example 6.3.1's 5003), the Shamir field, and
/// the largest `u64` prime.
const MODULI: [u64; 7] = [1, 2, 113, 227, 5003, MERSENNE_61, u64::MAX - 58];

/// Owner parameters over `b` cells with `n` as both η and δ, a seeded
/// `PF_db1`, and `p` as the Shamir field.
fn owner(b: usize, n: u64, p: u64, seed: u64) -> OwnerParams {
    let mut prg = Prg::from_seed(seed);
    OwnerParams {
        m: 3,
        b,
        delta: n.max(2),
        eta: n,
        field: ShamirCtx { p, degree: 1 },
        pf_db1: Permutation::random(b, &mut prg),
        pf_db2: Permutation::random(b, &mut prg),
        pf_owners: Permutation::identity(3),
        poly: OrderPolynomial::paper_example(),
        wide_width: 2,
        agg_domain_max: 100,
        poly_cache: Default::default(),
    }
}

/// What a server may send: honest residues, values at and past the
/// modulus, `u64::MAX` — and enough ones and zeros that products hit 1 and
/// sums hit 0 under every modulus.
fn operand(n: u64) -> impl Strategy<Value = u64> {
    (0u8..8, any::<u64>()).prop_map(move |(kind, any)| match kind {
        0 => 1,
        1 => 0,
        2 => n - 1,
        3 => n,
        4 => n.wrapping_add(1),
        5 => u64::MAX,
        6 => any % n,
        _ => any,
    })
}

/// `k` reply vectors of `len` operands each.
fn replies(k: usize, len: usize, n: u64) -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(operand(n), len), k)
}

/// A modulus, a domain size, `k` reply vectors over them, and a seed.
fn case(k: usize) -> impl Strategy<Value = (u64, usize, Vec<Vec<u64>>, u64)> {
    (0..MODULI.len(), 0usize..24, any::<u64>()).prop_flat_map(move |(pick, b, seed)| {
        let n = MODULI[pick];
        (Just(n), Just(b), replies(k, b, n), Just(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn psi_steps_equal_the_multi_pass_reference((n, b, v, seed) in case(4)) {
        let op = owner(b, n, MERSENNE_61, seed);
        let fop = multi_pass::psi_combine(&v[0], &v[1], &op).unwrap();
        prop_assert_eq!(&psi::owner_combine(&v[0], &v[1], &op).unwrap(), &fop);
        let (f, members, common) = psi::owner_decode(&v[0], &v[1], &op).unwrap();
        prop_assert_eq!(&f, &fop);
        prop_assert_eq!(&members, &psi::membership(&fop));
        prop_assert_eq!(&common, &psi::common_cells(&fop));
        prop_assert_eq!(common.capacity(), common.len(), "common is sized up front");
        prop_assert_eq!(
            psi::owner_verify(&fop, &v[2], &v[3], &op),
            multi_pass::psi_verify(&fop, &v[2], &v[3], &op)
        );
        prop_assert_eq!(
            count::owner_count(&v[0], &v[1], &op),
            multi_pass::count(&v[0], &v[1], &op)
        );
    }

    #[test]
    fn count_verification_equals_the_multi_pass_reference((n, b, v, seed) in case(6)) {
        let op = owner(b, n, MERSENNE_61, seed);
        let (a, bb, c) = ((&v[0][..], &v[1][..]), (&v[2][..], &v[3][..]), (&v[4][..], &v[5][..]));
        prop_assert_eq!(
            count::owner_verify_count(a, bb, &op),
            multi_pass::verify_count(a, bb, &op)
        );
        prop_assert_eq!(
            count::owner_verify_count_bound(a, bb, c, &op),
            multi_pass::verify_count_bound(a, bb, c, &op)
        );
        // With the binding honest (complement = 1, copy A = 1) the verdict
        // is the two copies' agreement.
        let ones = vec![1u64; b];
        let (a, c) = ((&ones[..], &ones[..]), (&ones[..], &ones[..]));
        prop_assert_eq!(
            count::owner_verify_count_bound(a, bb, c, &op),
            multi_pass::verify_count_bound(a, bb, c, &op)
        );
    }

    #[test]
    fn psu_steps_equal_the_multi_pass_reference((n, b, v, seed) in case(4)) {
        let op = owner(b, n, MERSENNE_61, seed);
        let combined = multi_pass::psu_combine(&v[0], &v[1], &op).unwrap();
        prop_assert_eq!(&psu::owner_combine(&v[0], &v[1], &op).unwrap(), &combined);
        prop_assert_eq!(
            psu::owner_membership(&v[0], &v[1], &op).unwrap(),
            psu::membership(&combined)
        );
        let (a, bb) = ((&v[0][..], &v[1][..]), (&v[2][..], &v[3][..]));
        prop_assert_eq!(
            psu::owner_verify_union(a, bb, &op),
            multi_pass::verify_union(a, bb, &op)
        );
        // Copies that agree everywhere: the members come back.
        prop_assert_eq!(
            psu::owner_verify_union(a, a, &op),
            multi_pass::verify_union(a, a, &op)
        );
    }

    #[test]
    fn z_shares_equal_sharing_the_materialised_z((n, b, v, seed) in case(2)) {
        for p in [113, 5003, MERSENNE_61, u64::MAX - 58] {
            let op = owner(b, n, p, seed);
            let fused = sum::owner_share_z(&v[0], &v[1], &op, &mut Prg::from_seed(seed)).unwrap();
            let z = sum::owner_build_z(&psi::owner_combine(&v[0], &v[1], &op).unwrap());
            let mut prg = Prg::from_seed(seed);
            prop_assert_eq!(fused, prism_protocol::tables::share_payload(&z, &op.field, &mut prg).shares);
        }
    }

    #[test]
    fn sum_steps_equal_the_multi_pass_reference((_, b, v, seed) in case(6)) {
        for p in [113, 5003, MERSENNE_61, u64::MAX - 58] {
            let op = owner(b, 227, p, seed);
            prop_assert_eq!(
                sum::owner_verify(&v[0], &v[1], &op),
                multi_pass::sum_verify(&v[0], &v[1], &op)
            );
            // A verification vector that *is* the permuted primary passes.
            let permuted_by = &op.pf_db1;
            let image = permuted_by.apply(&v[0]);
            prop_assert_eq!(sum::owner_verify(&v[0], &image, &op), Ok(()));
            prop_assert_eq!(multi_pass::sum_verify(&v[0], &image, &op), Ok(()));
            finalize_in_blocks_equals_whole(&v, &op);
        }
    }
}

/// Two columns finalized together in row blocks, averages derived per
/// block: the same columns and cells as finalizing each whole.
fn finalize_in_blocks_equals_whole(v: &[Vec<u64>], op: &OwnerParams) {
    let outs: Vec<Vec<Vec<u64>>> = (0..SHAMIR_SERVERS)
        .map(|k| vec![v[k].clone(), v[k + 3].clone()])
        .collect();
    let whole = |col: usize| sum::owner_finalize([&outs[0][col], &outs[1][col], &outs[2][col]], op);
    let mut cells = Vec::new();
    let mut blocks = Vec::new();
    let finalized = sum::owner_finalize_columns(&outs, 2, op, |cols, rows| {
        assert!(cols.iter().all(|c| c.len() == rows.end));
        cells.extend(average::cells_from(
            &cols[0][rows.clone()],
            &cols[1][rows.clone()],
        ));
        blocks.push(rows);
    })
    .unwrap();
    assert_eq!(finalized, vec![whole(0).unwrap(), whole(1).unwrap()]);
    assert_eq!(cells, average::cells_from(&finalized[0], &finalized[1]));
    let tiled = blocks
        .iter()
        .try_fold(0, |at, rows| (rows.start == at).then_some(rows.end));
    assert_eq!(tiled, Some(op.b), "blocks tile the domain in order");
}

/// Past one block (and not a multiple of it), and a mis-sized column.
#[test]
fn finalize_blocks_cover_a_domain_of_several_blocks() {
    let b = 2 * 4096 + 5;
    let op = owner(b, 227, MERSENNE_61, 9);
    let mut prg = Prg::from_seed(9);
    let mut v: Vec<Vec<u64>> = (0..6)
        .map(|_| (0..b).map(|_| prg.next_u64()).collect())
        .collect();
    finalize_in_blocks_equals_whole(&v, &op);
    v[4].pop();
    let outs: Vec<Vec<Vec<u64>>> = (0..SHAMIR_SERVERS)
        .map(|k| vec![v[k].clone(), v[k + 3].clone()])
        .collect();
    assert_eq!(
        sum::owner_finalize_columns(&outs, 2, &op, |_, _| panic!("no block of a refused reply")),
        sum::owner_finalize([&outs[0][1], &outs[1][1], &outs[2][1]], &op).map(|_| Vec::new())
    );
}

/// Reply vectors `2·b` cells long, or one cell short, are refused with the
/// reference's error — by every step, whichever operand is wrong.
#[test]
fn wrong_lengths_are_refused_like_the_reference() {
    let b = 5;
    let op = owner(b, 227, MERSENNE_61, 3);
    let good = vec![1u64; b];
    for bad in [vec![1u64; b - 1], vec![1u64; 2 * b], Vec::new()] {
        let pairs = [(&good, &bad), (&bad, &good), (&bad, &bad)];
        for (x, y) in pairs {
            let (x, y) = (&x[..], &y[..]);
            let g = &good[..];
            assert_eq!(
                psi::owner_combine(x, y, &op),
                multi_pass::psi_combine(x, y, &op)
            );
            assert_eq!(
                psi::owner_decode(x, y, &op).map(|d| d.0),
                multi_pass::psi_combine(x, y, &op)
            );
            assert_eq!(
                sum::owner_share_z(x, y, &op, &mut Prg::from_seed(1)).map(|_| ()),
                multi_pass::psi_combine(x, y, &op).map(|_| ())
            );
            assert_eq!(count::owner_count(x, y, &op), multi_pass::count(x, y, &op));
            assert_eq!(
                psu::owner_membership(x, y, &op).map(|_| ()),
                multi_pass::psu_combine(x, y, &op).map(|_| ())
            );
            assert_eq!(
                psu::owner_combine(x, y, &op),
                multi_pass::psu_combine(x, y, &op)
            );
            assert_eq!(
                sum::owner_verify(x, y, &op),
                multi_pass::sum_verify(x, y, &op)
            );
            for fop in [g, x] {
                assert_eq!(
                    psi::owner_verify(fop, x, y, &op),
                    multi_pass::psi_verify(fop, x, y, &op)
                );
            }
            // Every placement of the bad pair among the three copies.
            for (a, bb, c) in [
                ((x, y), (g, g), (g, g)),
                ((g, g), (x, y), (g, g)),
                ((g, g), (g, g), (x, y)),
            ] {
                assert_eq!(
                    count::owner_verify_count(a, bb, &op),
                    multi_pass::verify_count(a, bb, &op)
                );
                assert_eq!(
                    count::owner_verify_count_bound(a, bb, c, &op),
                    multi_pass::verify_count_bound(a, bb, c, &op)
                );
                assert_eq!(
                    psu::owner_verify_union(a, bb, &op),
                    multi_pass::verify_union(a, bb, &op)
                );
            }
        }
    }
    // A mis-sized copy B is reported only if the complement binding held:
    // a broken binding wins, as it does in the reference.
    let (short, zeros) = (vec![1u64; b - 1], vec![0u64; b]);
    let (g, s, z) = (&good[..], &short[..], &zeros[..]);
    let broken = count::owner_verify_count_bound((g, g), (s, s), (z, g), &op);
    assert_eq!(
        broken,
        multi_pass::verify_count_bound((g, g), (s, s), (z, g), &op)
    );
    assert!(matches!(
        broken,
        Err(ProtocolError::VerificationFailed { cell: 0, .. })
    ));
}

/// From an instance every check accepts, tamper one cell of one reply
/// vector at a time: the single-pass step names the operation and the cell
/// the reference names.
#[test]
fn a_tampered_cell_at_every_position_is_named_like_the_reference() {
    let b = 9;
    for n in MODULI.into_iter().filter(|&n| n >= 2) {
        let op = owner(b, n, MERSENNE_61, n);
        let ones = vec![1u64; b];
        let o = &ones[..];
        assert_eq!(psi::owner_verify(o, o, o, &op), Ok(()), "n={n}");
        assert_eq!(
            count::owner_verify_count_bound((o, o), (o, o), (o, o), &op),
            Ok(b)
        );
        assert_eq!(
            psu::owner_verify_union((o, o), (o, o), &op).unwrap().len(),
            b
        );
        assert_eq!(sum::owner_verify(o, o, &op), Ok(()));
        for cell in 0..b {
            // 0 breaks a product; n − 1 turns the sum 1 + 1 into 0.
            for forged in [0, n - 1, u64::MAX] {
                let mut bad = ones.clone();
                bad[cell] = forged;
                let t = &bad[..];
                for (fop, v1, v2) in [(t, o, o), (o, t, o), (o, o, t)] {
                    let got = psi::owner_verify(fop, v1, v2, &op);
                    assert_eq!(got, multi_pass::psi_verify(fop, v1, v2, &op), "n={n}");
                }
                for which in 0..6 {
                    let v: Vec<&[u64]> = (0..6).map(|k| if k == which { t } else { o }).collect();
                    let (a, bb, c) = ((v[0], v[1]), (v[2], v[3]), (v[4], v[5]));
                    assert_eq!(
                        count::owner_verify_count_bound(a, bb, c, &op),
                        multi_pass::verify_count_bound(a, bb, c, &op),
                        "n={n} cell={cell} vector={which}"
                    );
                    assert_eq!(
                        count::owner_verify_count(a, bb, &op),
                        multi_pass::verify_count(a, bb, &op)
                    );
                    assert_eq!(
                        psu::owner_verify_union(a, bb, &op),
                        multi_pass::verify_union(a, bb, &op)
                    );
                }
                for (primary, verification) in [(t, o), (o, t)] {
                    assert_eq!(
                        sum::owner_verify(primary, verification, &op),
                        multi_pass::sum_verify(primary, verification, &op)
                    );
                }
            }
        }
        // A forged fop cell is named where it sits; a forged verification
        // cell where PF_db1 says it belongs.
        let mut bad = ones.clone();
        bad[4] = 0;
        assert_eq!(
            psi::owner_verify(&bad, o, o, &op),
            Err(ProtocolError::VerificationFailed {
                operation: "psi",
                cell: 4
            })
        );
        let at = (0..b).find(|&i| op.pf_db1.dest(i) == 4).unwrap();
        assert_eq!(
            psi::owner_verify(o, &bad, o, &op),
            Err(ProtocolError::VerificationFailed {
                operation: "psi",
                cell: at
            })
        );
    }
}

/// What honest servers send is uniformly random and canonical — the case a
/// branch on `x + y ≥ δ` cannot predict and a branch-free decode is written
/// for — and what a hostile one may send is a single cell at or past the
/// modulus, anywhere. Over both, the PSU and PSI decodes give the
/// reference's members, verdict and named cell.
#[test]
fn uniform_canonical_replies_with_a_stray_cell_anywhere_decode_like_the_reference() {
    let b = 33;
    // The benchmark workloads' δ beside the differential moduli.
    for n in MODULI.into_iter().chain([79]).filter(|&n| n >= 2) {
        let op = owner(b, n, MERSENNE_61, n ^ 0xC0DE);
        let mut prg = Prg::from_seed(n);
        let mut v: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..b).map(|_| prg.below(n)).collect())
            .collect();
        let check = |v: &[Vec<u64>], what: &str| {
            let (a, bb) = ((&v[0][..], &v[1][..]), (&v[2][..], &v[3][..]));
            let combined = multi_pass::psu_combine(a.0, a.1, &op).unwrap();
            assert_eq!(
                psu::owner_membership(a.0, a.1, &op).unwrap(),
                psu::membership(&combined),
                "psu members, n={n} {what}"
            );
            assert_eq!(psu::owner_combine(a.0, a.1, &op).unwrap(), combined);
            for (x, y) in [(a, bb), (a, a), (bb, a)] {
                assert_eq!(
                    psu::owner_verify_union(x, y, &op),
                    multi_pass::verify_union(x, y, &op),
                    "psu verdict, n={n} {what}"
                );
            }
            let fop = multi_pass::psi_combine(a.0, a.1, &op).unwrap();
            let (f, members, common) = psi::owner_decode(a.0, a.1, &op).unwrap();
            assert_eq!(f, fop, "fop, n={n} {what}");
            assert_eq!(members, psi::membership(&fop));
            assert_eq!(common, psi::common_cells(&fop));
            assert_eq!(common.capacity(), common.len(), "common is sized up front");
            assert_eq!(
                count::owner_count(a.0, a.1, &op),
                multi_pass::count(a.0, a.1, &op)
            );
            assert_eq!(
                psi::owner_verify(&fop, bb.0, bb.1, &op),
                multi_pass::psi_verify(&fop, bb.0, bb.1, &op),
                "psi verdict, n={n} {what}"
            );
        };
        check(&v, "canonical");
        for which in 0..4 {
            for cell in 0..b {
                for stray in [n, n.wrapping_add(1), n.wrapping_add(prg.below(n)), u64::MAX] {
                    let honest = std::mem::replace(&mut v[which][cell], stray);
                    check(&v, &format!("vector {which} cell {cell} = {stray}"));
                    v[which][cell] = honest;
                }
            }
        }
    }
}

/// η past 2³² (a test field — deployments use η < 2²⁷) stores the
/// verification table as `u64` and still agrees with the reference.
#[test]
fn a_wide_eta_takes_the_wide_table_and_still_agrees() {
    let b = 64;
    let mut prg = Prg::from_seed(5);
    for n in [(1u64 << 32) + 15, MERSENNE_61, u64::MAX - 58] {
        let op = owner(b, n, MERSENNE_61, n);
        assert!(op.eta > u64::from(u32::MAX));
        // Honest: v1 · v2 · fop ≡ 1 with residues far above 2³².
        let v1: Vec<u64> = (0..b).map(|_| 1 + prg.below(n - 1)).collect();
        let v2: Vec<u64> = (0..b).map(|_| 1 + prg.below(n - 1)).collect();
        let inv = |x: u64| prism_core::arith::inv_mod(x, n).expect("prime modulus");
        let unpermuted = |v: &[u64]| op.pf_db1.inverse().apply(v);
        let (u1, u2) = (unpermuted(&v1), unpermuted(&v2));
        let fop: Vec<u64> = (0..b)
            .map(|i| inv(prism_core::arith::mul_mod(u1[i], u2[i], n)))
            .collect();
        assert_eq!(psi::owner_verify(&fop, &v1, &v2, &op), Ok(()), "n={n}");
        for cell in [0, 31, b - 1] {
            let mut forged = fop.clone();
            forged[cell] = forged[cell].wrapping_add(1);
            let got = psi::owner_verify(&forged, &v1, &v2, &op);
            assert_eq!(got, multi_pass::psi_verify(&forged, &v1, &v2, &op));
            assert_eq!(
                got,
                Err(ProtocolError::VerificationFailed {
                    operation: "psi",
                    cell
                })
            );
        }
    }
}
