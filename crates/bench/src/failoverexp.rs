//! Self-healing failover over the elastic deployment: kill a shard
//! worker mid-benchmark, measure the heal, and prove zero wrong answers.
//!
//! The control plane ([`prism_net::registry`]) turns a confirmed worker
//! death into a heal whose cost depends on the replication factor. With
//! `rf = 1` the heal is a **replay**: the registry re-plans the domain
//! over the survivors, re-assigns row ranges, and re-outsources the lost
//! rows from its upload log. With `rf = 2` every row range has a standby
//! replica and the same death heals by **promotion** — a metadata-only
//! generation bump with zero upload-log replay. This experiment drives
//! both paths end to end over real TCP workers and records what
//! operators care about: how long each heal took (kill → failover
//! confirmed), what a query costs before the kill, during normal
//! operation, and after the heal — and it **asserts** the healed answers
//! are bit-identical to the pre-kill answers, that exactly one failover
//! was counted, and that the rf=2 heal replayed nothing. A sweep that
//! heals into wrong answers is a broken control plane, not a
//! measurement, so `just bench-smoke` and CI fail loudly on a
//! regression.
//!
//! `write_json` emits the `BENCH_failover.json` artifact `just
//! bench-smoke` and CI publish; the smoke greps it for `"failovers": 1`
//! and for the `"heal": "promotion"` row.

use crate::build::{net_setup, structured_tables, upload_tables, BATCH_COLUMNS};
use crate::report::{print_table, secs};
use prism_net::{AnnouncerNode, ClusterListener, NetCluster, RegistryConfig, ShardWorker};
use prism_protocol::QueryBatch;
use std::time::{Duration, Instant};

/// One measured query pass on the elastic cluster.
#[derive(Debug, Clone)]
pub struct FailoverRow {
    /// Pass label (`pre-kill cold`, `pre-kill warm`, `post-heal`,
    /// `post-heal warm`).
    pub pass: String,
    /// Wall time of the whole query.
    pub wall: Duration,
    /// Owner↔server rounds the query paid.
    pub rounds: usize,
    /// Cache hits within the query.
    pub hits: u64,
    /// Failovers attributed to this query's rounds.
    pub failovers: u64,
}

/// The experiment's results for one replication factor.
#[derive(Debug, Clone)]
pub struct FailoverSweep {
    /// Replication factor the cluster ran at.
    pub rf: usize,
    /// How the heal completed: `"replay"` (rf=1 — the upload log was
    /// re-outsourced) or `"promotion"` (rf≥2 — metadata only).
    pub heal_kind: String,
    /// Per-pass measurements.
    pub rows: Vec<FailoverRow>,
    /// Kill → failover-confirmed-and-healed wall time.
    pub heal: Duration,
    /// Total failovers the registry healed (asserted to be exactly 1).
    pub failovers: u64,
    /// Heals that completed as metadata-only promotions.
    pub promotions: u64,
    /// Upload-log records replayed across the heal (0 for a promotion).
    pub replayed_records: u64,
    /// Control-plane heal log (attaches + the failover).
    pub heal_log: Vec<String>,
}

/// Run the failover experiment at one replication factor: bring up an
/// elastic cluster (`shards × rf` workers per server domain over TCP),
/// measure pre-kill cold/warm passes, hard-kill one worker, measure the
/// heal, and measure the post-heal passes. Panics if the healed answers
/// differ from the pre-kill answers, the failover count is not exactly
/// 1, or the heal took the wrong path for the replication factor
/// (rf=1 must replay, rf≥2 must promote with zero replay).
pub fn run(domain: u64, owners: usize, shards: usize, rf: usize, seed: u64) -> FailoverSweep {
    let setup = net_setup(domain, owners, seed);
    let cfg = RegistryConfig {
        probe_interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(2),
        miss_budget: 5,
        attach_timeout: Duration::from_secs(30),
        heal_timeout: Duration::from_secs(10),
        replication: rf,
    };
    let listener = ClusterListener::bind(setup.clone(), shards, cfg).expect("bind");
    let addr = listener.addr();
    let dial = Duration::from_secs(10);
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for _ in 0..shards * rf {
            workers.push(ShardWorker::connect(params.clone(), k, addr, dial).expect("worker"));
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).expect("announcer");
    let mut cluster = listener.start().expect("start");
    cluster.enable_cache();
    upload_tables(
        &cluster,
        &structured_tables(domain, owners),
        BATCH_COLUMNS,
        seed,
    );

    let batch = QueryBatch::new().sum(0).count_tuples();
    let mut rows = Vec::new();
    let mut pass = |cluster: &NetCluster, label: &str| {
        let t0 = Instant::now();
        let (out, stats) = cluster.psi_query_batch(&batch, seed).expect("batch");
        rows.push(FailoverRow {
            pass: label.to_string(),
            wall: t0.elapsed(),
            rounds: stats.rounds(),
            hits: stats.cache_hits(),
            failovers: stats.failovers(),
        });
        out
    };

    let baseline = pass(&cluster, "pre-kill cold");
    let warm = pass(&cluster, "pre-kill warm");
    assert_eq!(warm, baseline, "warm pass changed the answers");

    // Hard-kill server 0's first worker (the primary of its first row
    // range) and clock the heal.
    workers[0].kill();
    let registry = cluster.registry().expect("elastic cluster has a registry");
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(30);
    while registry.failovers() < 1 {
        assert!(Instant::now() < deadline, "failover never confirmed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let heal = t0.elapsed();

    let healed = pass(&cluster, "post-heal");
    assert_eq!(
        healed, baseline,
        "healed cluster answered differently — the heal lost rows"
    );
    let rewarm = pass(&cluster, "post-heal warm");
    assert_eq!(rewarm, baseline, "re-warmed pass changed the answers");

    let failovers = registry.failovers();
    assert_eq!(failovers, 1, "expected exactly one failover");
    let promotions = registry.promotions();
    let replayed_records = registry.replayed_records();
    if rf >= 2 {
        assert_eq!(promotions, 1, "rf={rf} heal must be a promotion");
        assert_eq!(
            replayed_records, 0,
            "a promotion heal must replay zero upload records"
        );
    } else {
        assert_eq!(promotions, 0, "rf=1 has no replica to promote");
        assert!(
            replayed_records > 0,
            "the rf=1 heal must re-outsource the upload log"
        );
    }
    let heal_log = registry.heal_log();

    cluster.shutdown().expect("shutdown");
    let _ = announcer.join();
    for (i, w) in workers.into_iter().enumerate() {
        let joined = w.join();
        assert!(
            i == 0 || joined.is_ok(),
            "surviving worker {i} exited dirty"
        );
    }

    FailoverSweep {
        rf,
        heal_kind: if promotions > 0 {
            "promotion"
        } else {
            "replay"
        }
        .to_string(),
        rows,
        heal,
        failovers,
        promotions,
        replayed_records,
        heal_log,
    }
}

/// Run the experiment at rf=1 (replay heal) and rf=2 (promotion heal),
/// so the artifact carries both heal latencies side by side.
pub fn run_all(domain: u64, owners: usize, shards: usize, seed: u64) -> Vec<FailoverSweep> {
    vec![
        run(domain, owners, shards, 1, seed),
        run(domain, owners, shards, 2, seed),
    ]
}

/// Print one sweep, one row per pass, plus the heal line.
pub fn print(domain: u64, owners: usize, shards: usize, sweep: &FailoverSweep) {
    let table_rows: Vec<Vec<String>> = sweep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.pass.clone(),
                secs(r.wall),
                r.rounds.to_string(),
                r.hits.to_string(),
                r.failovers.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Shard failover — {domain} OK cells, {owners} owners, {shards} ranges/domain, \
             rf={} over TCP",
            sweep.rf
        ),
        &["Pass", "Wall", "Rounds", "Hits", "Failovers"],
        &table_rows,
    );
    println!(
        "heal (kill → {}): {}, failovers: {}, replayed records: {}, heal-log entries: {}",
        sweep.heal_kind,
        secs(sweep.heal),
        sweep.failovers,
        sweep.replayed_records,
        sweep.heal_log.len(),
    );
    for entry in &sweep.heal_log {
        println!("  {entry}");
    }
}

/// Write the sweeps as a small JSON artifact (hand-rolled, like the
/// other experiments — the workspace vendors no JSON serializer): one
/// object per replication factor under `"sweeps"`, each carrying its
/// heal kind so the smoke can grep for the promotion row.
pub fn write_json(
    path: &std::path::Path,
    domain: u64,
    owners: usize,
    shards: usize,
    sweeps: &[FailoverSweep],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"shard_failover\",\n");
    out.push_str(&format!("  \"domain\": {domain},\n"));
    out.push_str(&format!("  \"owners\": {owners},\n"));
    out.push_str(&format!("  \"shards_per_domain\": {shards},\n"));
    out.push_str("  \"sweeps\": [\n");
    for (s, sweep) in sweeps.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"rf\": {},\n", sweep.rf));
        out.push_str(&format!("      \"heal\": \"{}\",\n", sweep.heal_kind));
        out.push_str(&format!(
            "      \"heal_seconds\": {:.6},\n",
            sweep.heal.as_secs_f64()
        ));
        out.push_str(&format!("      \"failovers\": {},\n", sweep.failovers));
        out.push_str(&format!("      \"promotions\": {},\n", sweep.promotions));
        out.push_str(&format!(
            "      \"replayed_records\": {},\n",
            sweep.replayed_records
        ));
        out.push_str(&format!(
            "      \"heal_log_entries\": {},\n",
            sweep.heal_log.len()
        ));
        out.push_str("      \"passes\": [\n");
        for (i, r) in sweep.rows.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"pass\": \"{}\", \"seconds\": {:.6}, \"rounds\": {}, \
                 \"cache_hits\": {}, \"failovers\": {}}}{}\n",
                r.pass,
                r.wall.as_secs_f64(),
                r.rounds,
                r.hits,
                r.failovers,
                if i + 1 == sweep.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if s + 1 == sweeps.len() { "" } else { "," }
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
    fn sweep_heals_by_replay_with_identical_answers() {
        let sweep = run(256, 3, 3, 1, 11);
        assert_eq!(sweep.rows.len(), 4);
        assert_eq!(sweep.failovers, 1);
        assert_eq!(sweep.heal_kind, "replay");
        assert_eq!(
            sweep.rows[1].hits, 2,
            "pre-kill warm pass must hit both rounds"
        );
        assert_eq!(
            sweep.rows[2].hits, 0,
            "post-heal pass must not serve the stale entry"
        );
        assert!(
            sweep.rows[2].failovers >= 1,
            "the heal must land in the post-heal pass's meters"
        );
        assert_eq!(sweep.rows[3].hits, 2, "post-heal warm pass must re-warm");
        assert!(
            sweep.heal_log.iter().any(|l| l.contains("confirmed dead")),
            "heal log must record the failover: {:?}",
            sweep.heal_log
        );
        print(256, 3, 3, &sweep);
    }

    #[test]
    fn sweep_heals_by_promotion_without_replay() {
        let sweep = run(128, 2, 2, 2, 13);
        assert_eq!(sweep.rows.len(), 4);
        assert_eq!(sweep.failovers, 1);
        assert_eq!(sweep.heal_kind, "promotion");
        assert_eq!(sweep.promotions, 1);
        assert_eq!(sweep.replayed_records, 0);
        assert_eq!(sweep.rows[3].hits, 2, "post-heal warm pass must re-warm");
        assert!(
            sweep
                .heal_log
                .iter()
                .any(|l| l.contains("confirmed dead") && l.contains("zero replay")),
            "heal log must record the promotion: {:?}",
            sweep.heal_log
        );
        print(128, 2, 2, &sweep);
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let sweeps = run_all(128, 2, 2, 12);
        let path = std::env::temp_dir().join("prism_bench_failover_test.json");
        write_json(&path, 128, 2, 2, &sweeps).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"failovers\": 1"));
        assert!(text.contains("heal_seconds"));
        assert!(text.contains("\"heal\": \"replay\""));
        assert!(text.contains("\"heal\": \"promotion\""));
        assert!(text.contains("\"replayed_records\": 0"));
        assert!(text.contains("\"pass\": \"post-heal\""));
    }
}
