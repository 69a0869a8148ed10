//! The four workloads. Each drives one deployment through public API
//! only; README.md says why each exists and what it must not be moved by.

pub mod elastic_small_mix;
pub mod inmem_scan_large;
pub mod stream_append_cached;
pub mod tcp_wide_serial;

use crate::data::{OwnerData, Shape};
use prism_core::Prg;
use prism_net::{Column, NetCluster};
use prism_protocol::tables::{share_indicator, share_payload};
use prism_protocol::{Initiator, OwnerParams, Setup, SystemConfig};

/// The `(column, shares)` list one server receives from one owner.
pub type Columns = Vec<(Column, Vec<u64>)>;

/// Phase 0 for a deployment of `shape`.
pub fn initiate(shape: Shape, seed: u64) -> Setup {
    Initiator::new(
        SystemConfig::new(shape.owners, shape.cells)
            .with_seed(seed)
            .with_agg_domain_max(shape.value_max),
    )
    .setup()
    .expect("initiator setup")
}

/// Secret-share one owner's plaintext columns into the per-server upload
/// sets: `OK` (additive, servers 0–1), `Agg(0)` and `aOK` (Shamir, all
/// three) — and, when `verified`, the complement and the `PF_db`-permuted
/// copies every verified plan reads. The draw order follows
/// `driver::Cluster`'s private outsourcing routine.
fn share_owner(op: &OwnerParams, d: &OwnerData, verified: bool, seed: u64) -> [Columns; 3] {
    let mut prg = Prg::from_seed(seed);
    let mut out: [Columns; 3] = Default::default();
    let mut additive = |column: Column, values: &[u64], prg: &mut Prg| {
        let [a, b] = share_indicator(values, op.delta, prg).shares;
        out[0].push((column, a));
        out[1].push((column, b));
    };
    additive(Column::Ok, &d.indicator, &mut prg);
    if verified {
        let complement: Vec<u64> = d.indicator.iter().map(|&x| 1 - x).collect();
        additive(Column::VOk, &op.pf_db1.apply(&complement), &mut prg);
        additive(Column::OkDb1, &op.pf_db1.apply(&d.indicator), &mut prg);
        additive(Column::OkDb2, &op.pf_db2.apply(&d.indicator), &mut prg);
    }
    let mut shamir = |column: Column, values: &[u64], prg: &mut Prg| {
        let shares = share_payload(values, &op.field, prg).shares;
        for (k, share) in shares.into_iter().enumerate() {
            out[k].push((column, share));
        }
    };
    shamir(Column::Agg(0), &d.sums, &mut prg);
    if verified {
        shamir(Column::VAgg(0), &op.pf_db1.apply(&d.sums), &mut prg);
    }
    shamir(Column::AOk, &d.counts, &mut prg);
    out
}

/// [`share_owner`] for every owner.
pub fn share_all(
    op: &OwnerParams,
    data: &[OwnerData],
    verified: bool,
    seed: u64,
) -> Vec<[Columns; 3]> {
    data.iter()
        .enumerate()
        .map(|(j, d)| share_owner(op, d, verified, seed ^ ((j as u64 + 1) << 32)))
        .collect()
}

/// Phase 1 over the wire: one bulk upload per owner and server. Returns
/// the user bytes uploaded.
pub fn upload_all(cluster: &NetCluster, shares: Vec<[Columns; 3]>) -> u64 {
    let mut bytes = 0;
    for (j, per_server) in shares.into_iter().enumerate() {
        for (k, columns) in per_server.into_iter().enumerate() {
            bytes += columns.iter().map(|(_, d)| d.len() as u64 * 8).sum::<u64>();
            cluster.bulk_upload(k, j, columns).expect("upload");
        }
    }
    bytes
}
