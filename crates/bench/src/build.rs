//! Cluster builders shared by the experiment harness and the Criterion
//! benches.

use prism_protocol::driver::{Cluster, ClusterConfig, OwnerInput};
use prism_protocol::params::{Initiator, Setup, SystemConfig};
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

/// Aggregation bound of [`net_setup`]'s role views.
const NET_AGG_MAX: u64 = 2_000;

/// Role views for a `domain`-cell, `owners`-owner deployment, without a
/// cluster around them (Exp 2's owner-scaling kernels take the server
/// view).
pub fn net_setup(domain: u64, owners: usize, seed: u64) -> Setup {
    Initiator::new(
        SystemConfig::new(owners, domain as usize)
            .with_seed(seed)
            .with_agg_domain_max(NET_AGG_MAX),
    )
    .setup()
    .expect("setup")
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
