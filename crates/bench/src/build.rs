//! Cluster builders shared by the experiment harness and the Criterion
//! benches.

use prism_core::Prg;
use prism_net::NetCluster;
use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
use prism_protocol::params::{Initiator, Setup, SystemConfig};
use prism_protocol::tables::{owner_uploads, ColumnSet, OwnerTable};
use prism_workload::LineItemConfig;

/// Upper bound for aggregation values in LineItem workloads (PK ≤ 200k,
/// so per-cell single-row sums stay below this).
pub const AGG_DOMAIN_MAX: u64 = 250_000;

/// Build a PRISM cluster over generated LineItem tables.
///
/// `attrs ∈ 0..=4` selects how many of PK/LN/SK/DT to materialize;
/// `with_verification` / `with_aggregation` trim the stored columns so
/// large-domain timing runs fit in memory.
pub fn lineitem_cluster(
    domain: u64,
    owners: usize,
    attrs: usize,
    with_verification: bool,
    with_aggregation: bool,
    threads: usize,
    seed: u64,
) -> Cluster {
    let gen = LineItemConfig::full(domain, seed);
    let inputs: Vec<OwnerInput> = (0..owners)
        .map(|j| {
            let rows = gen.generate_owner(j);
            OwnerInput {
                rows: rows
                    .iter()
                    .map(|r| {
                        let mut aggs = r.agg_values();
                        aggs.truncate(attrs);
                        (r.ok, aggs)
                    })
                    .collect(),
            }
        })
        .collect();
    let mut cfg = ClusterConfig::new(domain as usize);
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.with_verification = with_verification;
    cfg.with_aggregation = with_aggregation && attrs > 0;
    cfg.agg_domain_max = AGG_DOMAIN_MAX;
    Cluster::build(&inputs, cfg).expect("cluster build")
}

/// A lean PSI/PSU/count-only cluster (indicators only).
pub fn lean_cluster(domain: u64, owners: usize, threads: usize, seed: u64) -> Cluster {
    lineitem_cluster(domain, owners, 0, false, false, threads, seed)
}

/// Aggregation bound of the networked experiments' structured workload.
const NET_AGG_MAX: u64 = 2_000;

/// Role views for the networked experiments (`netmax`, `serve`,
/// `failover`).
pub fn net_setup(domain: u64, owners: usize, seed: u64) -> Setup {
    Initiator::new(
        SystemConfig::new(owners, domain as usize)
            .with_seed(seed)
            .with_agg_domain_max(NET_AGG_MAX),
    )
    .setup()
    .expect("setup")
}

/// The networked experiments' workload: owner j holds cell v iff
/// `v % (j + 2) != 0` — a dense, structured overlap (~20% of the domain
/// in a 4-owner intersection) — with one value per held cell, below the
/// blinding bound.
pub fn structured_tables(domain: u64, owners: usize) -> Vec<OwnerTable> {
    (0..owners as u64)
        .map(|j| {
            let rows = (1..=domain)
                .filter(|v| v % (j + 2) != 0)
                .map(|v| (v, [(v * 7 + j) % (NET_AGG_MAX - 1) + 1]));
            OwnerTable::window(rows, 1, 0, domain as usize).expect("rows lie in 1..=domain")
        })
        .collect()
}

/// The unverified columns a batched aggregation reads: indicator shares
/// at the additive servers, aggregation and count payloads at all three.
pub const BATCH_COLUMNS: ColumnSet = ColumnSet {
    verification: false,
    two_copy: false,
    aggregation: Some(1),
};

/// Phase 1 over the wire: share every owner's table and bulk-upload each
/// server's column list in one round-trip.
pub fn upload_tables(cluster: &NetCluster, tables: &[OwnerTable], set: ColumnSet, seed: u64) {
    let op = &cluster.setup().owner;
    let perms = (&op.pf_db1, &op.pf_db2);
    for (j, table) in tables.iter().enumerate() {
        let mut prg = Prg::from_seed(seed ^ (3_000 + j as u64));
        let uploads = owner_uploads(table, op, perms, set, &mut prg);
        for (k, columns) in uploads.into_iter().enumerate() {
            if !columns.is_empty() {
                cluster.bulk_upload(k, j, columns).expect("upload");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lean_cluster_runs_psi() {
        let c = lean_cluster(100, 3, 1, 1);
        let (out, _) = c.psi().unwrap();
        // Full-domain owners ⇒ everything is common.
        assert_eq!(out.common.len(), 100);
    }

    #[test]
    fn agg_cluster_runs_sum() {
        let c = lineitem_cluster(50, 3, 2, false, true, 1, 2);
        let (sums, _) = c.psi_sum(0).unwrap();
        assert_eq!(sums.len(), 50);
        assert!(sums.iter().any(|&s| s > 0));
    }

    #[test]
    fn attrs_truncated() {
        let c = lineitem_cluster(20, 2, 1, false, true, 1, 3);
        assert_eq!(c.attributes(), 1);
        assert!(c.psi_sum(1).is_err());
    }
}
