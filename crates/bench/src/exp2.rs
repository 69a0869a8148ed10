//! Exp 2 — Figure 4 (a, b): server processing time vs number of DB owners
//! (10–50), for PSI, PSU and the aggregations over PSI.
//!
//! The paper's servers add the `m` owners' share columns on every query,
//! which is Figure 4's linear slope. This repo's servers fold each column
//! into a per-column owner sum when it is stored, so the query-time series
//! is flat in `m` and the slope sits in Phase 1. Both are reported per
//! owner count, beside the multi-column PSI kernel that still recomputes
//! the sum per call — the paper's per-query figure.

use crate::build::{lean_cluster, lineitem_cluster, net_setup};
use crate::report::{print_table, secs};
use prism_core::Prg;
use prism_protocol::engine::{Column, ServerNode};
use prism_protocol::params::ServerParams;
use prism_protocol::psi;
use std::time::{Duration, Instant};

/// The `m`-dependent work of a PSI round at one additive server, over
/// random indicator-share columns.
#[derive(Debug)]
pub struct OwnerScaling {
    sp: ServerParams,
    columns: Vec<Vec<u64>>,
}

impl OwnerScaling {
    /// `owners` canonical share columns of `domain` cells.
    pub fn new(domain: u64, owners: usize, seed: u64) -> OwnerScaling {
        let sp = net_setup(domain, owners, seed).servers[0].clone();
        let mut prg = Prg::from_seed(seed ^ 0xF19);
        let columns = (0..owners)
            .map(|_| (0..domain).map(|_| prg.below(sp.delta)).collect())
            .collect();
        OwnerScaling { sp, columns }
    }

    /// Phase 1 at the server: store (reduce, fold into the owner sum) every
    /// owner's `OK` column. Returns the node and the time spent in `store`,
    /// summed over owners.
    pub fn ingest(&self) -> (ServerNode, Duration) {
        let mut node = ServerNode::new(self.sp.clone());
        let mut spent = Duration::ZERO;
        for (j, column) in self.columns.iter().enumerate() {
            let data = column.clone();
            let t0 = Instant::now();
            node.store(j, Column::Ok, data);
            spent += t0.elapsed();
        }
        (node, spent)
    }

    /// Equation 3 recomputed from the per-owner columns, as the paper's
    /// servers do per query (the pinned multi-column kernel).
    pub fn recompute(&self, threads: usize) -> Duration {
        let refs: Vec<&[u64]> = self.columns.iter().map(Vec::as_slice).collect();
        let table = self.sp.power_table();
        let mut out = vec![0u64; self.sp.b];
        let t0 = Instant::now();
        psi::server_psi_round_into(&refs, &self.sp, &table, &mut out, threads).expect("psi round");
        t0.elapsed()
    }
}

/// One (domain, owners) measurement.
#[derive(Debug, Clone)]
pub struct Exp2Row {
    /// OK domain size.
    pub domain: u64,
    /// Number of DB owners.
    pub owners: usize,
    /// `(operation, server time)` per operation.
    pub ops: Vec<(&'static str, Duration)>,
}

/// Run the Figure-4 grid.
pub fn run(domains: &[u64], owner_counts: &[usize], threads: usize, seed: u64) -> Vec<Exp2Row> {
    let mut rows = Vec::new();
    for &domain in domains {
        for &m in owner_counts {
            let lean = {
                let mut c = lean_cluster(domain, m, threads, seed);
                c.set_threads(threads);
                c
            };
            let mut ops: Vec<(&'static str, Duration)> = Vec::new();
            let (_, s) = lean.psi().expect("psi");
            ops.push(("PSI", s.server_time));
            let (_, s) = lean.psu().expect("psu");
            ops.push(("PSU", s.server_time));
            let (_, s) = lean.psi_count().expect("count");
            ops.push(("PSI Count", s.server_time));
            drop(lean);

            let agg = lineitem_cluster(domain, m, 1, false, true, threads, seed);
            let (_, s) = agg.psi_sum(0).expect("sum");
            ops.push(("PSI Sum", s.server_time));
            let (_, s) = agg.psi_avg(0).expect("avg");
            ops.push(("PSI Avg", s.server_time));
            let (_, s) = agg.psi_median(0).expect("median");
            ops.push(("PSI Median", s.server_time + s.announcer_time));
            let (_, _, s) = agg.psi_max(0).expect("max");
            ops.push(("PSI Max", s.server_time + s.announcer_time));
            let scaling = OwnerScaling::new(domain, m, seed);
            ops.push(("Ingest fold Σ owners", scaling.ingest().1));
            ops.push(("PSI, sum recomputed", scaling.recompute(threads)));
            rows.push(Exp2Row {
                domain,
                owners: m,
                ops,
            });
        }
    }
    rows
}

/// Print Figure-4-shaped output.
pub fn print(rows: &[Exp2Row]) {
    let mut domains: Vec<u64> = rows.iter().map(|r| r.domain).collect();
    domains.dedup();
    for &domain in &domains {
        let subset: Vec<&Exp2Row> = rows.iter().filter(|r| r.domain == domain).collect();
        let op_names: Vec<&'static str> = subset[0].ops.iter().map(|(n, _)| *n).collect();
        let mut headers = vec!["Owners"];
        headers.extend(op_names.iter().copied());
        let table_rows: Vec<Vec<String>> = subset
            .iter()
            .map(|r| {
                let mut row = vec![r.owners.to_string()];
                row.extend(r.ops.iter().map(|(_, s)| secs(*s)));
                row
            })
            .collect();
        print_table(
            &format!("Exp 2 / Figure 4 — {domain} OK domain, server time vs owners"),
            &headers,
            &table_rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2_smoke_and_scaling_shape() {
        let rows = run(&[500], &[4, 8], 1, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ops.len(), 9);
        print(&rows);

        // 16× the owners: the stored-sum query stays flat, the ingest fold
        // and the recomputing kernel grow with m. Best of five per side
        // and bounds far from the expected 1× / 16× / ~7×: the other tests
        // of this binary run beside this one.
        fn best(mut f: impl FnMut() -> Duration) -> Duration {
            (0..5).map(|_| f()).min().expect("five runs")
        }
        let (domain, seed) = (20_000, 3);
        let [lo, hi] = [2usize, 32].map(|m| {
            let scaling = OwnerScaling::new(domain, m, seed);
            let lean = lean_cluster(domain, m, 1, seed);
            (
                best(|| lean.psi().expect("psi").1.server_time),
                best(|| scaling.ingest().1),
                best(|| scaling.recompute(1)),
            )
        });
        assert!(hi.0 < lo.0 * 4, "query time {:?} -> {:?}", lo.0, hi.0);
        assert!(hi.1 > lo.1 * 4, "ingest fold {:?} -> {:?}", lo.1, hi.1);
        assert!(hi.2 > lo.2 * 2, "recomputed {:?} -> {:?}", lo.2, hi.2);
    }
}
