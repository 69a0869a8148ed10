//! Concurrent query serving through the session multiplexer: a
//! closed-loop load generator driving N concurrent `psi_query_batch`
//! streams over **one** networked cluster's persistent links.
//!
//! Every row does the same total work — `total_queries` identical
//! batched aggregation queries — split across N ∈ {1, 4, 16} concurrent
//! streams, so the N = 1 row *is* the serial baseline and the N = 16
//! row is the same 16 queries in flight together through the per-link
//! reactors and the admission window. Recorded per row: wall time for
//! the whole run, per-query latency p50/p99, and queries/sec. On a
//! multicore host the concurrent rows must beat the serial row (the
//! servers compute queries on parallel worker threads); on a single
//! hardware thread the multiplexer can only interleave, so the speedup
//! assertion is conditional on `available_parallelism`.
//!
//! Every query's results are asserted bit-identical to the serial
//! reference — a load generator that returns wrong answers fast is a
//! broken multiplexer, not a measurement. `write_json` emits the
//! `BENCH_serve.json` artifact `just bench-smoke` and CI publish.

use crate::build::{net_setup, structured_tables, upload_tables, BATCH_COLUMNS};
use crate::report::{print_table, secs};
use prism_net::NetCluster;
use prism_protocol::plans::{self, QueryBatch};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One load point: N concurrent streams over one cluster.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Concurrent streams.
    pub streams: usize,
    /// Total queries completed across all streams.
    pub queries: usize,
    /// Wall time from barrier release to last stream done.
    pub wall: Duration,
    /// Median per-query latency.
    pub p50: Duration,
    /// 99th-percentile per-query latency (the max at small counts).
    pub p99: Duration,
    /// Completed queries per second of wall time.
    pub qps: f64,
}

/// The fixed query every stream issues: several aggregations over one
/// PSI in a single batched round 2.
fn batch() -> QueryBatch {
    QueryBatch::new().sum(0).avg(0).count_tuples()
}

/// Run the load sweep: for each N in `streams`, `total_queries` batched
/// queries split evenly across N concurrent streams on one channel
/// cluster (uploads done once). Panics if any query's results differ
/// from the serial reference.
pub fn run(
    domain: u64,
    owners: usize,
    streams: &[usize],
    total_queries: usize,
    seed: u64,
) -> Vec<ServeRow> {
    let cluster = NetCluster::start_local(net_setup(domain, owners, seed));
    upload_tables(
        &cluster,
        &structured_tables(domain, owners),
        BATCH_COLUMNS,
        seed,
    );
    let q = batch();
    let reference = format!(
        "{:?}",
        cluster
            .psi_query_batch(&q, seed ^ 0xC3)
            .expect("reference batch")
            .0
    );

    let mut rows = Vec::new();
    for &n in streams {
        let n = n.max(1);
        let per_stream = total_queries.div_ceil(n);
        let barrier = Barrier::new(n + 1);
        let (latencies, wall) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let cluster = &cluster;
                    let q = &q;
                    let barrier = &barrier;
                    let reference = &reference;
                    s.spawn(move || {
                        barrier.wait();
                        let mut lat = Vec::with_capacity(per_stream);
                        for _ in 0..per_stream {
                            let t0 = Instant::now();
                            let (out, _) = cluster
                                .execute_as(
                                    i as u32,
                                    &plans::Batch {
                                        batch: q,
                                        seed: seed ^ 0xC3,
                                    },
                                )
                                .expect("stream query");
                            lat.push(t0.elapsed());
                            assert_eq!(
                                &format!("{out:?}"),
                                reference,
                                "concurrent stream returned a wrong answer"
                            );
                        }
                        lat
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let latencies: Vec<Duration> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            (latencies, t0.elapsed())
        });
        let mut sorted = latencies.clone();
        sorted.sort();
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        rows.push(ServeRow {
            streams: n,
            queries: sorted.len(),
            wall,
            p50: pct(0.50),
            p99: pct(0.99),
            qps: sorted.len() as f64 / wall.as_secs_f64().max(1e-12),
        });
    }
    assert_eq!(cluster.rejected_replies(), 0, "a pump dropped a reply");
    cluster.shutdown().expect("shutdown");
    rows
}

/// Wall-time speedup of the widest row over the serial (N = 1) row.
/// Both do the same total work, so > 1 means concurrency paid off.
pub fn speedup(rows: &[ServeRow]) -> f64 {
    let serial = rows.iter().find(|r| r.streams == 1);
    let widest = rows.iter().max_by_key(|r| r.streams);
    match (serial, widest) {
        (Some(s), Some(w)) if w.streams > 1 => {
            s.wall.as_secs_f64() / w.wall.as_secs_f64().max(1e-12)
        }
        _ => 1.0,
    }
}

/// Print the sweep, one row per stream count.
pub fn print(domain: u64, owners: usize, rows: &[ServeRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.streams.to_string(),
                r.queries.to_string(),
                secs(r.wall),
                secs(r.p50),
                secs(r.p99),
                format!("{:.1}", r.qps),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Concurrent serving — {domain} cells, {owners} owners, psi_query_batch closed loop"
        ),
        &["Streams", "Queries", "Wall", "p50", "p99", "Queries/s"],
        &table,
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "widest-vs-serial speedup {:.2}x on {cores} hardware thread(s)",
        speedup(rows)
    );
}

/// Write the sweep as a small JSON artifact (hand-rolled, like the
/// sibling benches — the workspace vendors no JSON serializer).
pub fn write_json(
    path: &std::path::Path,
    domain: u64,
    owners: usize,
    rows: &[ServeRow],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"serve_multiplexer\",\n");
    out.push_str(&format!("  \"domain\": {domain},\n"));
    out.push_str(&format!("  \"owners\": {owners},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"streams\": {}, \"queries\": {}, \"wall_seconds\": {:.6}, \
             \"p50_seconds\": {:.6}, \"p99_seconds\": {:.6}, \"queries_per_second\": {:.2}}}{}\n",
            r.streams,
            r.queries,
            r.wall.as_secs_f64(),
            r.p50.as_secs_f64(),
            r.p99.as_secs_f64(),
            r.qps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"widest_vs_serial_speedup\": {:.3}\n",
        speedup(rows)
    ));
    out.push_str("}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_serves_every_stream_the_right_answer() {
        let rows = run(512, 3, &[1, 4], 8, 11);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].streams, 1);
        assert_eq!(rows[1].streams, 4);
        for r in &rows {
            assert!(r.queries >= 8);
            assert!(r.p50 <= r.p99);
            assert!(r.qps > 0.0);
        }
        // Same total work both rows — the run() asserts every answer
        // matched the serial reference; on a multicore host concurrency
        // must not be slower than serial by more than the small-domain
        // sync overhead allows (no hard bound on 1 hardware thread).
        if std::thread::available_parallelism().map_or(1, |p| p.get()) >= 4 {
            assert!(
                speedup(&rows) > 0.5,
                "concurrent serving collapsed: {:.3}x",
                speedup(&rows)
            );
        }
        print(512, 3, &rows);
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let rows = run(256, 2, &[1, 2], 4, 12);
        let path = std::env::temp_dir().join("prism_bench_serve_test.json");
        write_json(&path, 256, 2, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"streams\": 2"));
        assert!(text.contains("widest_vs_serial_speedup"));
        assert!(text.contains("queries_per_second"));
    }
}
