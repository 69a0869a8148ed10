//! The division-free server kernels against a per-cell `u128` reference.
//!
//! The `_into` kernels add stored shares without reducing them and reduce
//! once per group of columns (seven in the Mersenne field), over tiles of
//! the output. These tests pin them — on dirty buffers, and the
//! one-column `summed_round_into` forms a node runs too — to the
//! protocol's equations evaluated one
//! cell at a time with plain `u128 %` arithmetic, at lengths and owner
//! counts on both sides of every such boundary, and pin the ingest
//! invariant the kernels rely on: a server reduces shares once, when it
//! stores them, and answers as if it had reduced them on every scan.

use prism_core::Prg;
use prism_protocol::engine::{BatchItem, BatchQuery, Column, QueryOp, ServerCmd, ServerNode};
use prism_protocol::engine::{ServerReply, ServerReply::Vectors};
use prism_protocol::params::{Initiator, ServerParams, SystemConfig};
use prism_protocol::{psi, psu, sum};

/// Owner counts around the Mersenne lazy-reduction group (7 addends).
const OWNERS: [usize; 4] = [1, 7, 8, 15];
/// Domain sizes around the chunk and tile edges.
const LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 1023];

/// One server's parameters for `m` owners over `b` cells. The kernels read
/// only the moduli, `m`, `b`, `m_share` and the blinding seed, so one
/// set-up is reshaped instead of rebuilt per case.
fn params(m: usize, b: usize) -> ServerParams {
    let setup = Initiator::new(SystemConfig::new(15, 1023).with_seed(12))
        .setup()
        .expect("setup");
    let mut sp = setup.servers[0].clone();
    sp.m = m;
    sp.b = b;
    sp
}

/// `m` canonical share columns over `Z_n`; cell 0 holds `n − 1` in every
/// column, the largest sum the lazy accumulators must carry.
fn columns(m: usize, b: usize, n: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut prg = Prg::from_seed(seed);
    (0..m)
        .map(|_| {
            let mut col: Vec<u64> = (0..b).map(|_| prg.below(n)).collect();
            if let Some(first) = col.first_mut() {
                *first = n - 1;
            }
            col
        })
        .collect()
}

fn refs(cols: &[Vec<u64>]) -> Vec<&[u64]> {
    cols.iter().map(|c| c.as_slice()).collect()
}

/// `Σ_j cols[j][i] mod n`, one `u128` division per addend.
fn cell_sum(cols: &[Vec<u64>], i: usize, n: u64) -> u64 {
    cols.iter()
        .fold(0u128, |acc, c| (acc + c[i] as u128 % n as u128) % n as u128) as u64
}

fn mul_ref(a: u64, b: u64, n: u64) -> u64 {
    (a as u128 * b as u128 % n as u128) as u64
}

#[test]
fn additive_kernels_match_the_per_cell_equations() {
    for m in OWNERS {
        for b in LENGTHS {
            let sp = params(m, b);
            let delta = sp.delta;
            let table = sp.power_table();
            let rand = psu::blinding_for(&sp);
            let shares = columns(m, b, delta, 100 + m as u64);
            let shares = refs(&shares);

            // Equation 3, Equation 7, Equation 18.
            let owned: Vec<Vec<u64>> = shares.iter().map(|s| s.to_vec()).collect();
            let psi_ref: Vec<u64> = (0..b)
                .map(|i| {
                    let s = cell_sum(&owned, i, delta);
                    table[((s + delta - sp.m_share % delta) % delta) as usize]
                })
                .collect();
            let verify_ref: Vec<u64> = (0..b)
                .map(|i| table[cell_sum(&owned, i, delta) as usize])
                .collect();
            let psu_ref: Vec<u64> = (0..b)
                .map(|i| mul_ref(cell_sum(&owned, i, delta), rand[i], delta))
                .collect();
            let summed: Vec<u64> = (0..b).map(|i| cell_sum(&owned, i, delta)).collect();

            for threads in [1usize, 3] {
                let ctx = format!("m={m} b={b} threads={threads}");
                let mut out = vec![u64::MAX; b];
                psi::server_psi_round_into(&shares, &sp, &table, &mut out, threads).unwrap();
                assert_eq!(out, psi_ref, "psi {ctx}");
                out.fill(u64::MAX);
                psi::server_psi_verify_round_into(&shares, &sp, &table, &mut out, threads).unwrap();
                assert_eq!(out, verify_ref, "psi verify {ctx}");
                out.fill(u64::MAX);
                psu::server_psu_round_into(&shares, &rand, &sp, &mut out, threads).unwrap();
                assert_eq!(out, psu_ref, "psu {ctx}");
                // The one-column kernels a node runs over its pre-summed
                // column: the same equations from `Σ_j` on.
                out.fill(u64::MAX);
                psi::summed_round_into(&summed, sp.m_share, &sp, &table, &mut out).unwrap();
                assert_eq!(out, psi_ref, "summed psi {ctx}");
                out.fill(u64::MAX);
                psi::summed_round_into(&summed, 0, &sp, &table, &mut out).unwrap();
                assert_eq!(out, verify_ref, "summed psi verify {ctx}");
                out.fill(u64::MAX);
                psu::summed_round_into(&summed, &rand, &sp, &mut out).unwrap();
                assert_eq!(out, psu_ref, "summed psu {ctx}");
            }
        }
    }
}

#[test]
fn sum_kernel_matches_the_per_cell_equation() {
    for m in OWNERS {
        for b in LENGTHS {
            let sp = params(m, b);
            let p = sp.field.p;
            let payload = columns(m, b, p, 200 + m as u64);
            // z arrives from an owner with the query, not through ingest:
            // the kernel must take it unreduced.
            let mut z = columns(1, b, p, 300).remove(0);
            if let Some(last) = z.last_mut() {
                *last = u64::MAX;
            }
            // Equation 11.
            let sum_ref: Vec<u64> = (0..b)
                .map(|i| mul_ref(cell_sum(&payload, i, p), z[i], p))
                .collect();
            let summed: Vec<u64> = (0..b).map(|i| cell_sum(&payload, i, p)).collect();
            let shares = refs(&payload);
            for threads in [1usize, 3] {
                let mut out = vec![u64::MAX; b];
                sum::server_sum_round_into(&shares, &z, &sp, &mut out, threads).unwrap();
                assert_eq!(out, sum_ref, "m={m} b={b} threads={threads}");
                out.fill(u64::MAX);
                sum::summed_round_into(&summed, &z, &sp, &mut out).unwrap();
                assert_eq!(out, sum_ref, "summed m={m} b={b} threads={threads}");
            }
        }
    }
}

#[test]
fn owner_finalize_and_combine_take_unreduced_server_outputs() {
    // Servers are untrusted: their outputs reach the owner kernels as they
    // are, so those reduce what they are given.
    let setup = Initiator::new(SystemConfig::new(3, 9).with_seed(5))
        .setup()
        .expect("setup");
    let op = &setup.owner;
    let mut prg = Prg::from_seed(6);
    let mut outs: Vec<Vec<u64>> = (0..3)
        .map(|_| (0..op.b).map(|_| prg.next_u64()).collect())
        .collect();
    outs[0][0] = u64::MAX;

    let lambda = op.field.lagrange_at_zero(3);
    let sums = sum::owner_finalize([&outs[0], &outs[1], &outs[2]], op).unwrap();
    for (i, &got) in sums.iter().enumerate() {
        let p = op.field.p;
        let want = (0..3).fold(0u128, |acc, k| {
            (acc + mul_ref(outs[k][i], lambda[k], p) as u128) % p as u128
        });
        assert_eq!(got, want as u64, "cell {i}");
    }

    let fop = psi::owner_combine(&outs[0], &outs[1], op).unwrap();
    let union = psu::owner_combine(&outs[0], &outs[1], op).unwrap();
    for i in 0..op.b {
        assert_eq!(fop[i], mul_ref(outs[0][i], outs[1][i], op.eta), "fop {i}");
        let want = (outs[0][i] as u128 + outs[1][i] as u128) % op.delta as u128;
        assert_eq!(union[i], want as u64, "union {i}");
    }
}

/// Run one stored-column operation on `node`.
fn run(node: &ServerNode, op: QueryOp, z: Option<Vec<u64>>) -> Vec<u64> {
    let item = match z {
        Some(_) => BatchItem::with_z(op, 0),
        None => BatchItem::plain(op),
    };
    let reply: ServerReply = node
        .execute(&ServerCmd::Run(BatchQuery {
            zs: z.into_iter().collect(),
            items: vec![item],
            threads: 1,
            range: None,
        }))
        .expect("execute");
    match reply {
        Vectors(mut v) => v.remove(0),
        other => panic!("expected vectors, got {other:?}"),
    }
}

#[test]
fn unreduced_uploads_answer_as_their_residues() {
    let (m, b, grown) = (8usize, 64usize, 16usize);
    let setup = Initiator::new(SystemConfig::new(m, b).with_seed(21))
        .setup()
        .expect("setup");
    let sp = &setup.servers[0];
    let (delta, p) = (sp.delta, sp.field.p);
    let additive = [Column::Ok, Column::VOk, Column::OkDb1, Column::OkDb2];
    let shamir = [Column::Agg(0), Column::VAgg(0), Column::AOk];
    let ops = [
        (QueryOp::Psi, false),
        (QueryOp::PsiVerify, false),
        (QueryOp::Psu, false),
        (QueryOp::Count, false),
        (QueryOp::CountVerify(2), false),
        (QueryOp::Sum(0), true),
        (QueryOp::SumVerify(0), true),
        (QueryOp::SumCounts, true),
    ];

    // The same residues three ways: as they are, lifted by multiples of
    // the modulus (and to the top of `u64`), and through a delta append.
    let mut clean = ServerNode::new(sp.clone());
    let mut dirty = ServerNode::new(sp.clone());
    let mut prg = Prg::from_seed(22);
    let mut lift = |v: u64, n: u64| match prg.below(3) {
        0 => v,
        1 => v + n * (1 + prg.below((u64::MAX - v) / n)),
        _ => u64::MAX - (u64::MAX - v) % n,
    };
    let mut stored: Vec<(Column, Vec<Vec<u64>>)> = Vec::new();
    for (cols, n) in [(&additive[..], delta), (&shamir[..], p)] {
        for &column in cols {
            let residues = columns(m, b + grown, n, 400 + stored.len() as u64);
            for (owner, col) in residues.iter().enumerate() {
                let lifted: Vec<u64> = col.iter().map(|&v| lift(v, n)).collect();
                assert!(lifted.iter().zip(col).all(|(&l, &v)| l % n == v));
                clean.store(owner, column, col[..b].to_vec());
                dirty.store(owner, column, lifted[..b].to_vec());
            }
            stored.push((column, residues));
        }
    }
    let z: Vec<u64> = columns(1, b + grown, p, 500).remove(0);
    for (op, needs_z) in ops {
        let z = needs_z.then(|| z[..b].to_vec());
        assert_eq!(run(&dirty, op, z.clone()), run(&clean, op, z), "{op:?}");
    }

    // Appends canonicalise too.
    for owner in 0..m {
        let delta_cols = |lifted: bool, prg: &mut Prg| -> Vec<(Column, Vec<u64>)> {
            stored
                .iter()
                .map(|(column, residues)| {
                    let n = if additive.contains(column) { delta } else { p };
                    let seg = &residues[owner][b..];
                    let seg = seg.iter().map(|&v| {
                        if lifted && prg.below(2) == 0 {
                            u64::MAX - (u64::MAX - v) % n
                        } else {
                            v
                        }
                    });
                    (*column, seg.collect())
                })
                .collect()
        };
        let mut lift_prg = Prg::from_seed(23 + owner as u64);
        clean
            .delta_upload(owner, b, delta_cols(false, &mut lift_prg), None)
            .expect("clean append");
        dirty
            .delta_upload(owner, b, delta_cols(true, &mut lift_prg), None)
            .expect("dirty append");
    }
    for (op, needs_z) in ops {
        let z = needs_z.then(|| z.clone());
        let got = run(&dirty, op, z.clone());
        assert_eq!(got.len(), b + grown);
        assert_eq!(got, run(&clean, op, z), "{op:?} after append");
    }

    // And the clean node itself answers the plain equation (so the two
    // nodes are not merely wrong alike).
    let ok = &stored[0].1;
    let table = sp.power_table();
    let psi_ref: Vec<u64> = (0..b + grown)
        .map(|i| table[((cell_sum(ok, i, delta) + delta - sp.m_share % delta) % delta) as usize])
        .collect();
    assert_eq!(run(&dirty, QueryOp::Psi, None), psi_ref);
    let agg = &stored[4].1;
    let sum_ref: Vec<u64> = (0..b + grown)
        .map(|i| mul_ref(cell_sum(agg, i, p), z[i], p))
        .collect();
    assert_eq!(run(&dirty, QueryOp::Sum(0), Some(z.clone())), sum_ref);
}
