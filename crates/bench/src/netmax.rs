//! Max/median over the networked deployment: the announcer as a fourth
//! node, measured on both transports.
//!
//! Every other experiment measures the paper's tables through the
//! in-memory driver; this one smoke-measures the operations that need the
//! announcer *over the wire* — channel and TCP — recording per query the
//! round count, the server round-trip time, the announcer round-trip
//! time, and how many bytes crossed the three announcer edges (owner
//! control link + the two server→announcer upload links the owner side
//! never sees). `write_json` emits the `BENCH_netmax.json` artifact
//! `just bench-smoke` and CI publish, so the networked announcer path's
//! perf trajectory is recorded per commit alongside `BENCH_shard.json`.

use crate::build::{net_setup, structured_tables, upload_tables};
use crate::report::{print_table, secs};
use prism_net::NetCluster;
use prism_protocol::tables::ColumnSet;
use prism_protocol::{plans, QueryStats};
use std::time::Duration;

/// One transport × operation measurement.
#[derive(Debug, Clone)]
pub struct NetMaxRow {
    /// `"channel"` or `"tcp"`.
    pub transport: &'static str,
    /// `"max"` or `"median"`.
    pub op: &'static str,
    /// Common cells the announcer round covered.
    pub cells: usize,
    /// Owner↔server rounds the query used.
    pub rounds: usize,
    /// Server round-trip wall time.
    pub server: Duration,
    /// Announcer round-trip wall time.
    pub announcer: Duration,
    /// Bytes over the three announcer edges for this query.
    pub announcer_bytes: u64,
}

/// Max/median read only the indicator column from the stores.
const COLUMNS: ColumnSet = ColumnSet {
    verification: false,
    two_copy: false,
    aggregation: None,
};

/// Run max + median on both transports; best-of-`reps` timings.
pub fn run(domain: u64, owners: usize, reps: usize, seed: u64) -> Vec<NetMaxRow> {
    let reps = reps.max(1);
    let tables = structured_tables(domain, owners);
    // One value per held cell, so the per-cell maxima are the values.
    let refs: Vec<&[u64]> = tables.iter().map(|t| t.maxima[0].as_slice()).collect();
    let mut rows = Vec::new();
    for transport in ["channel", "tcp"] {
        let cluster = match transport {
            "channel" => NetCluster::start_local(net_setup(domain, owners, seed)),
            _ => NetCluster::start_tcp(net_setup(domain, owners, seed)).expect("tcp cluster"),
        };
        upload_tables(&cluster, &tables, COLUMNS, seed);
        let max_plan = plans::Max {
            values: refs.clone(),
            table: None,
            seed: seed ^ 0xA1,
            cell_chunk: 1 << 16,
        };
        let median_plan = plans::Median {
            values: refs.clone(),
            table: None,
            seed: seed ^ 0xB2,
            cell_chunk: 1 << 16,
        };
        let mut best: [Option<NetMaxRow>; 2] = [None, None];
        for _ in 0..reps {
            let before = cluster.report();
            let (out, stats) = cluster.execute(&max_plan).expect("max");
            let mid = cluster.report();
            let cells = out.0.len();
            let (_, mstats) = cluster.execute(&median_plan).expect("median");
            let after = cluster.report();
            let mk = |op: &'static str, s: &QueryStats, bytes: u64, cells: usize| NetMaxRow {
                transport,
                op,
                cells,
                rounds: s.rounds(),
                server: s.server_time(),
                announcer: s.announcer_time(),
                announcer_bytes: bytes,
            };
            let candidates = [
                mk(
                    "max",
                    &stats,
                    mid.announcer_bytes() - before.announcer_bytes(),
                    cells,
                ),
                mk(
                    "median",
                    &mstats,
                    after.announcer_bytes() - mid.announcer_bytes(),
                    cells,
                ),
            ];
            for (slot, cand) in best.iter_mut().zip(candidates) {
                let better = match slot.as_ref() {
                    None => true,
                    Some(cur) => cand.server + cand.announcer < cur.server + cur.announcer,
                };
                if better {
                    *slot = Some(cand);
                }
            }
        }
        rows.extend(best.into_iter().flatten());
        cluster.shutdown().expect("shutdown");
    }
    rows
}

/// Print the sweep, one row per transport × operation.
pub fn print(domain: u64, owners: usize, rows: &[NetMaxRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.transport.to_string(),
                r.op.to_string(),
                r.cells.to_string(),
                r.rounds.to_string(),
                secs(r.server),
                secs(r.announcer),
                format!("{}B", r.announcer_bytes),
            ]
        })
        .collect();
    print_table(
        &format!("Networked max/median — {domain} cells, {owners} owners, announcer as 4th node"),
        &[
            "Transport",
            "Op",
            "Cells",
            "Rounds",
            "Server",
            "Announcer",
            "Announcer bytes",
        ],
        &table,
    );
}

/// Write the sweep as a small JSON artifact (hand-rolled, like
/// `shardexp::write_json` — the workspace vendors no JSON serializer).
pub fn write_json(
    path: &std::path::Path,
    domain: u64,
    owners: usize,
    rows: &[NetMaxRow],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"netmax_announcer\",\n");
    out.push_str(&format!("  \"domain\": {domain},\n"));
    out.push_str(&format!("  \"owners\": {owners},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"transport\": \"{}\", \"op\": \"{}\", \"cells\": {}, \"rounds\": {}, \
             \"server_seconds\": {:.6}, \"announcer_seconds\": {:.6}, \"announcer_bytes\": {}}}{}\n",
            r.transport,
            r.op,
            r.cells,
            r.rounds,
            r.server.as_secs_f64(),
            r.announcer.as_secs_f64(),
            r.announcer_bytes,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_both_transports_and_meters_the_announcer() {
        let rows = run(64, 3, 1, 9);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.cells > 0, "{r:?} saw no common cells");
            assert!(r.announcer_bytes > 0, "{r:?} metered no announcer bytes");
            assert_eq!(r.rounds, if r.op == "max" { 3 } else { 2 });
        }
        assert_eq!(
            rows.iter().filter(|r| r.transport == "tcp").count(),
            2,
            "tcp rows present"
        );
        print(64, 3, &rows);
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let rows = run(48, 2, 1, 10);
        let path = std::env::temp_dir().join("prism_bench_netmax_test.json");
        write_json(&path, 48, 2, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"transport\": \"tcp\""));
        assert!(text.contains("announcer_seconds"));
        assert_eq!(text.matches("\"op\": \"max\"").count(), 2);
    }
}
