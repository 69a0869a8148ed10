//! Integration: the full §8.1 pipeline — generate LineItem tables,
//! outsource them as Table 11 to on-disk stores, fetch at the servers,
//! and answer queries from the fetched shares.

use prism::core::reconstruct2;
use prism::protocol::params::{Initiator, ServerParams, SystemConfig};
use prism::protocol::{psi, sum};
use prism::storage::ServerStore;
use prism::workload::{group_by_ok, outsource_owner, LineItemConfig};

/// The PSI round (Equation 3) at server `sp`, into a fresh buffer.
fn psi_round(shares: &[&[u64]], sp: &ServerParams, threads: usize) -> Vec<u64> {
    let mut out = vec![0; sp.b];
    psi::server_psi_round_into(shares, sp, &sp.power_table(), &mut out, threads).unwrap();
    out
}

#[test]
fn outsource_store_fetch_query_roundtrip() {
    const DOMAIN: usize = 256;
    const OWNERS: usize = 4;
    let setup = Initiator::new(SystemConfig::new(OWNERS, DOMAIN).with_seed(31))
        .setup()
        .unwrap();
    let op = &setup.owner;
    let gen = LineItemConfig::full(DOMAIN as u64, 7);

    // Phase 1: every owner outsources to three on-disk stores.
    let tmp = std::env::temp_dir().join(format!("prism_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let stores: Vec<ServerStore> = (0..3)
        .map(|k| ServerStore::open(tmp.join(format!("server_{k}"))).unwrap())
        .collect();
    for j in 0..OWNERS {
        let rows = gen.generate_owner(j);
        let out = outsource_owner(&rows, op, 4, true, 1000 + j as u64);
        for (k, table) in out.tables.iter().enumerate() {
            stores[k].put(j, table).unwrap();
        }
    }

    // Phase 3: servers fetch shares from disk and run the PSI round.
    let fetch = |k: usize| -> Vec<prism::storage::SharedTable> {
        (0..OWNERS).map(|j| stores[k].fetch(j).unwrap().0).collect()
    };
    let t0 = fetch(0);
    let t1 = fetch(1);
    let t2 = fetch(2);
    let refs0: Vec<&[u64]> = t0.iter().map(|t| t.ok.as_slice()).collect();
    let refs1: Vec<&[u64]> = t1.iter().map(|t| t.ok.as_slice()).collect();
    let o0 = psi_round(&refs0, &setup.servers[0], 2);
    let o1 = psi_round(&refs1, &setup.servers[1], 2);
    let fop = psi::owner_combine(&o0, &o1, op).unwrap();
    // Full-domain owners: everything common.
    assert!(fop.iter().all(|&v| v == 1));

    // Round 2 from the fetched Shamir columns: sum of PK over OK groups.
    let z = sum::owner_build_z(&fop);
    let mut prg = prism::core::Prg::from_seed(99);
    let z_shares = prism::protocol::tables::share_payload(&z, &op.field, &mut prg);
    let pk_refs = |tables: &[prism::storage::SharedTable]| -> Vec<Vec<u64>> {
        tables.iter().map(|t| t.agg[0].clone()).collect()
    };
    let (p0, p1, p2) = (pk_refs(&t0), pk_refs(&t1), pk_refs(&t2));
    let outs: Vec<Vec<u64>> = [(&p0, 0usize), (&p1, 1), (&p2, 2)]
        .into_iter()
        .map(|(cols, k)| {
            let refs: Vec<&[u64]> = cols.iter().map(|v| v.as_slice()).collect();
            let (z, sp) = (&z_shares.shares[k], &setup.servers[k]);
            let mut out = vec![0; sp.b];
            sum::server_sum_round_into(&refs, z, sp, &mut out, 2).unwrap();
            out
        })
        .collect();
    let sums = sum::owner_finalize([&outs[0], &outs[1], &outs[2]], op).unwrap();

    // Cross-check against the plaintext group-by.
    let mut expected = vec![0u64; DOMAIN];
    for j in 0..OWNERS {
        let g = group_by_ok(&gen.generate_owner(j), DOMAIN);
        for (cell, v) in g.sums[0].iter().enumerate() {
            expected[cell] += v;
        }
    }
    assert_eq!(sums, expected);

    // The verification columns survive the disk roundtrip too.
    for j in 0..OWNERS {
        let g = group_by_ok(&gen.generate_owner(j), DOMAIN);
        let complement_perm = op
            .pf_db1
            .apply(&g.indicator.iter().map(|&x| 1 - x).collect::<Vec<u64>>());
        for i in 0..DOMAIN {
            assert_eq!(
                reconstruct2(t0[j].v_ok[i], t1[j].v_ok[i], op.delta),
                complement_perm[i]
            );
        }
    }

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn sparse_owners_intersect_correctly() {
    const DOMAIN: usize = 512;
    let setup = Initiator::new(SystemConfig::new(3, DOMAIN).with_seed(37))
        .setup()
        .unwrap();
    let gen = LineItemConfig::sparse(DOMAIN as u64, 0.5, 11);
    let tables: Vec<Vec<prism::workload::LineItemRow>> = gen.generate(3);

    let mut uploads = Vec::new();
    for (j, rows) in tables.iter().enumerate() {
        let out = outsource_owner(rows, &setup.owner, 0, false, 2000 + j as u64);
        uploads.push(out.tables);
    }
    let refs0: Vec<&[u64]> = uploads.iter().map(|t| t[0].ok.as_slice()).collect();
    let refs1: Vec<&[u64]> = uploads.iter().map(|t| t[1].ok.as_slice()).collect();
    let o0 = psi_round(&refs0, &setup.servers[0], 1);
    let o1 = psi_round(&refs1, &setup.servers[1], 1);
    let fop = psi::owner_combine(&o0, &o1, &setup.owner).unwrap();

    // Plaintext expectation.
    let mut expected = vec![true; DOMAIN];
    for rows in &tables {
        let held: std::collections::HashSet<u64> = rows.iter().map(|r| r.ok).collect();
        for (cell, e) in expected.iter_mut().enumerate() {
            *e &= held.contains(&(cell as u64 + 1));
        }
    }
    for cell in 0..DOMAIN {
        assert_eq!(fop[cell] == 1, expected[cell], "cell {cell}");
    }
}
