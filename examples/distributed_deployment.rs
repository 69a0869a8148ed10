//! Distributed deployment over real TCP sockets, with sharded domains
//! and a self-healing control plane.
//!
//! Deploys the cluster the way a multi-machine installation would: a
//! [`ClusterListener`] binds first, then every **row-range shard
//! worker** and the **announcer** (the fourth node behind max/median)
//! dial in by address and register — nothing has to be alive at start,
//! nodes attach. The owners then outsource through the same
//! `driver::Cluster` facade an in-process run uses (`Cluster::over`: one
//! `BulkUpload` round-trip per owner per server), execute PSI / PSU / count /
//! sum / average / max / median remotely, then **kills a shard worker
//! mid-run**: the registry's keep-alive prober confirms the death,
//! re-shards the domain over the survivors, re-outsources the lost row
//! ranges, and the whole query suite runs again — every answer
//! identical to before the kill. It ends with the per-link
//! communication report, the node health roster, and the defining
//! property that server↔server traffic is zero, because no such links
//! exist.
//!
//! Run with: `cargo run --example distributed_deployment`

use prism::core::Prg;
use prism::driver::{Cluster, ClusterConfig, OwnerInput};
use prism::net::{AnnouncerNode, ClusterListener, NetCluster, RegistryConfig, ShardWorker};
use std::time::{Duration, Instant};

const DOMAIN: usize = 1_000;
const SHARDS: usize = 4;

/// The remote query suite; returns everything it printed so the
/// post-heal run can be compared answer-for-answer.
fn run_queries(cluster: &Cluster<NetCluster>) -> (Vec<u64>, usize, u64, String, String) {
    let (psi, _) = cluster.psi_verified().expect("verified PSI");
    let common = psi.common;
    println!("Parts stocked by all suppliers: {}", common.len());

    let (union, _) = cluster.psu().expect("PSU");
    println!(
        "Parts stocked by any supplier:  {}",
        union.iter().filter(|&&m| m).count()
    );

    let (count, _) = cluster.psi_count().expect("count");
    assert_eq!(count, common.len());

    let (sums, stats) = cluster.psi_sum(0).expect("sum");
    let total: u64 = sums.iter().sum();
    println!("Total stock across common parts: {total}");
    println!("Sum query: {stats}");

    let (avgs, _) = cluster.psi_avg(0).expect("avg");
    let first_common = common.first().copied().unwrap_or(0);
    println!(
        "Example: part {} has average stock {:.1} over {} listings",
        first_common + 1,
        avgs[first_common].average,
        avgs[first_common].count
    );

    // Max/median run over the announcer node: the servers push their
    // blinded wide matrices straight to it over dedicated links — the
    // owner side only ever sees receipts and the final announcement. The
    // per-cell maxima/sums they consume never left the owners.
    let (maxes, holders, _) = cluster.psi_max(0).expect("max");
    let max_digest = format!("{maxes:?} {holders:?}");
    if let (Some(top), Some(h)) = (maxes.first(), holders.first()) {
        let winners: Vec<usize> = h
            .iter()
            .enumerate()
            .filter_map(|(j, &held)| held.then_some(j))
            .collect();
        println!(
            "Example: part {} peaks at {} units, held by supplier(s) {:?}",
            top.cell + 1,
            top.max,
            winners
        );
    }
    let (medians, _) = cluster.psi_median(0).expect("median");
    let median_digest = format!("{medians:?}");
    if let Some(mid) = medians.first() {
        println!(
            "Example: part {} median supplier stock: {:?}",
            mid.cell + 1,
            mid.values
        );
    }

    (psi.fop, count, total, max_digest, median_digest)
}

fn main() {
    // Phase 0: the initiator derives all parameters and role views.
    let mut cfg = ClusterConfig::new(DOMAIN);
    cfg.seed = 1234;
    let setup = cfg.setup(3).expect("setup");

    // Bind the control plane, then attach every node by address — three
    // server domains × four row-range shard workers plus the announcer,
    // all dialing in over real TCP (each could live in another process
    // or on another machine).
    let registry_cfg = RegistryConfig {
        probe_interval: Duration::from_millis(20),
        ..RegistryConfig::default()
    };
    let listener = ClusterListener::bind(setup.clone(), SHARDS, registry_cfg).expect("bind");
    let addr = listener.addr();
    let dial = Duration::from_secs(10);
    let mut workers = Vec::new();
    for (k, params) in setup.servers.iter().enumerate() {
        for _ in 0..SHARDS {
            workers.push(ShardWorker::connect(params.clone(), k, addr, dial).expect("worker"));
        }
    }
    let announcer = AnnouncerNode::connect(setup.announcer.clone(), addr, dial).expect("announcer");
    let net = listener.start().expect("cluster");
    println!("deployed 3 server domains × {SHARDS} shard workers over TCP (registry at {addr})");

    // Three suppliers with overlapping part catalogs; attribute = stock.
    let suppliers: Vec<OwnerInput> = (0..3)
        .map(|j| {
            let mut prg = Prg::from_seed(100 + j);
            let mut rows = Vec::new();
            for part in 1..=DOMAIN as u64 {
                if prg.unit_f64() < 0.4 {
                    let stock = prg.range(1, 500);
                    rows.push((part, stock));
                }
            }
            OwnerInput::from_pairs(rows)
        })
        .collect();

    // Phase 1: the owners build χ tables and upload shares over the wire
    // — every column of an owner's per-server table in ONE round-trip —
    // through the same facade an in-process deployment uses.
    let cluster = Cluster::over(net, &suppliers, cfg).expect("outsource");

    // Phase 2–4: queries over the wire.
    let before = run_queries(&cluster);

    // Chaos: hard-kill one of server 0's shard workers. The keep-alive
    // prober notices the dead link, the registry re-shards domain 0 over
    // the three survivors and re-outsources the lost row ranges from its
    // upload log — no owner involvement, no restart.
    println!("\n--- killing shard worker d0/w0 ---");
    workers[0].kill();
    let net = cluster.deployment();
    let registry = net.registry().expect("elastic cluster has a registry");
    let t0 = Instant::now();
    while registry.failovers() < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "failover never confirmed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("healed in {:?}; control-plane log:", t0.elapsed());
    for entry in registry.heal_log() {
        println!("  {entry}");
    }

    // The whole suite again, on the healed cluster — every answer must
    // match the pre-kill run exactly.
    println!("\n--- re-running the query suite on the healed cluster ---");
    let after = run_queries(&cluster);
    assert_eq!(after, before, "healed cluster answered differently");
    println!("all answers identical to the pre-kill run");

    // Communication report, per owner↔server link, per shard edge, the
    // three announcer edges — and the node health roster, including the
    // worker the prober buried.
    let report = net.report();
    println!("\nPer-link traffic (owner↔domain, router↔shard, announcer):");
    print!("{report}");
    println!("server <-> server: 0 bytes (no such links exist, by construction)");

    cluster.into_deployment().shutdown().expect("shutdown");
    let _ = announcer.join();
    for (i, w) in workers.into_iter().enumerate() {
        // The killed worker exits with a broken link; survivors must be clean.
        let joined = w.join();
        assert!(
            i == 0 || joined.is_ok(),
            "surviving worker {i} exited dirty"
        );
    }
}
