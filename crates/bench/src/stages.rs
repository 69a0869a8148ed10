//! Where a query's time goes, deployment by deployment.
//!
//! `tcp_wide_serial`'s query shape — 4 owners, one `plans::Batch` over
//! `sum(0).avg(0).count_tuples()`, 80 % of cells held per owner, values
//! below 2 000 — through the one owner facade, `driver::Cluster`, over
//! three deployments: in process (`Cluster::build`), channel links
//! (`NetCluster::start_local`) and loopback TCP (`NetCluster::start_tcp`).
//! Per deployment: the wall p50, the p50 of each [`Stage`] of
//! `QueryStats::trace`, and the wall p50 over the in-process one. Every
//! answer must equal the in-process one.

use crate::report::{print_table, secs};
use prism_net::NetCluster;
use prism_protocol::driver::{Cluster, ClusterConfig, Deployment, OwnerInput};
use prism_protocol::{plans, AggResult, QueryBatch, Stage};
use std::time::{Duration, Instant};

/// Owners in the query shape.
const OWNERS: usize = 4;
/// Largest aggregation value (exclusive).
const VALUE_MAX: u64 = 2_000;

/// One deployment's split.
#[derive(Debug, Clone)]
pub struct StagesRow {
    /// Which deployment.
    pub deployment: &'static str,
    /// Wall-time p50 of a query.
    pub wall_p50: Duration,
    /// Per [`Stage::ALL`] entry: the p50 of that stage's time, or `None`
    /// when the deployment never records it.
    pub stages: Vec<Option<Duration>>,
    /// Queries measured (after the warm-up).
    pub queries: usize,
}

/// Each owner holds a cell with probability 0.8 and one aggregation value
/// below [`VALUE_MAX`] per held cell (splitmix64 per owner).
fn inputs(cells: usize, seed: u64) -> Vec<OwnerInput> {
    (0..OWNERS)
        .map(|j| {
            let mut state = seed ^ (j as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let rows = (1..=cells as u64)
                .filter_map(|v| {
                    let held = next() % 10 < 8;
                    held.then(|| (v, vec![next() % VALUE_MAX]))
                })
                .collect();
            OwnerInput { rows }
        })
        .collect()
}

fn p50(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Run `warmup + queries` batch queries on `cluster`; every answer must
/// equal `expected`, which the first answer sets when it is empty.
fn measure<D: Deployment>(
    deployment: &'static str,
    cluster: &Cluster<D>,
    warmup: usize,
    queries: usize,
    seed: u64,
    expected: &mut Option<Vec<AggResult>>,
) -> Result<StagesRow, String> {
    let batch = QueryBatch::new().sum(0).avg(0).count_tuples();
    let mut walls = Vec::with_capacity(queries);
    let mut traces = Vec::with_capacity(queries);
    for q in 0..warmup + queries {
        // A fresh z-share seed per query: no two queries send the same bytes.
        let seed = seed ^ (q as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let t0 = Instant::now();
        let (answer, stats) = (cluster.execute(&plans::Batch {
            batch: &batch,
            seed,
        }))
        .map_err(|e| format!("{deployment}: query {q}: {e}"))?;
        let wall = t0.elapsed();
        match expected {
            None => *expected = Some(answer),
            Some(want) if *want != answer => {
                return Err(format!(
                    "{deployment}: query {q}'s answer differs from the in-process one"
                ))
            }
            Some(_) => {}
        }
        if q >= warmup {
            walls.push(wall);
            traces.push(stats.trace);
        }
    }
    let stages = Stage::ALL
        .into_iter()
        .map(|stage| {
            (traces.iter().any(|t| t.records(stage) > 0))
                .then(|| p50(traces.iter().map(|t| t.spent(stage)).collect()))
        })
        .collect();
    Ok(StagesRow {
        deployment,
        wall_p50: p50(walls),
        stages,
        queries,
    })
}

/// The split at `cells` cells: `warmup` unmeasured queries, then `queries`
/// measured ones (at least one), per deployment. An error names the
/// first deployment that failed or answered differently.
pub fn run(
    cells: usize,
    warmup: usize,
    queries: usize,
    seed: u64,
) -> Result<Vec<StagesRow>, String> {
    let inputs = inputs(cells, seed);
    let mut cfg = ClusterConfig::new(cells);
    cfg.seed = seed;
    cfg.with_verification = false;
    cfg.agg_domain_max = VALUE_MAX;
    let setup = || cfg.setup(OWNERS).map_err(|e| format!("setup: {e}"));
    let queries = queries.max(1);
    let mut expected = None;
    let mut rows = Vec::with_capacity(3);

    let local = Cluster::build(&inputs, cfg.clone()).map_err(|e| format!("in process: {e}"))?;
    rows.push(measure(
        "in process",
        &local,
        warmup,
        queries,
        seed,
        &mut expected,
    )?);
    drop(local);

    // One wire deployment at a time: each is shut down before the next
    // starts.
    let mut over_wire = |deployment, net: NetCluster| -> Result<StagesRow, String> {
        let cluster =
            Cluster::over(net, &inputs, cfg.clone()).map_err(|e| format!("{deployment}: {e}"))?;
        let row = measure(deployment, &cluster, warmup, queries, seed, &mut expected);
        (cluster.into_deployment().shutdown()).map_err(|e| format!("{deployment}: {e}"))?;
        row
    };
    rows.push(over_wire(
        "channel links",
        NetCluster::start_local(setup()?),
    )?);
    let tcp = NetCluster::start_tcp(setup()?).map_err(|e| format!("loopback TCP: {e}"))?;
    rows.push(over_wire("loopback TCP", tcp)?);
    Ok(rows)
}

/// Print the split, one row per deployment.
pub fn print(rows: &[StagesRow], cells: usize) {
    let base = rows.first().map_or(Duration::ZERO, |r| r.wall_p50);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.deployment.to_string(), secs(r.wall_p50)];
            cells.extend(r.stages.iter().map(|s| s.map_or("—".into(), secs)));
            cells.push(format!(
                "{:.2}x",
                r.wall_p50.as_secs_f64() / base.as_secs_f64()
            ));
            cells
        })
        .collect();
    let mut headers = vec!["Deployment", "Wall p50"];
    headers.extend(Stage::ALL.map(Stage::name));
    headers.push("x in process");
    let queries = rows.first().map_or(0, |r| r.queries);
    print_table(
        &format!(
            "Stages — m = {OWNERS}, b = {cells}, Batch sum+avg+count, p50 of {queries} queries; \
             every answer equals the in-process one"
        ),
        &headers,
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deployment_answers_alike_and_reports_its_stages() {
        let rows = run(2_000, 1, 3, 5).unwrap();
        let names: Vec<_> = rows.iter().map(|r| r.deployment).collect();
        assert_eq!(names, ["in process", "channel links", "loopback TCP"]);
        let has = |row: &StagesRow, stage: Stage| row.stages[stage as usize].is_some();
        // In process the servers' compute is timed directly; on a wire it
        // sits inside the wait for the replies.
        assert!(has(&rows[0], Stage::ServerCompute) && !has(&rows[0], Stage::WireWait));
        for row in &rows[1..] {
            assert!(has(row, Stage::Encode) && has(row, Stage::WireWait));
        }
        assert!(rows
            .iter()
            .all(|r| has(r, Stage::OwnerStep) && r.queries == 3));
        print(&rows, 2_000);
    }

    #[test]
    fn inputs_hold_about_four_fifths_of_the_cells() {
        for input in inputs(10_000, 1) {
            assert!((7_600..8_400).contains(&input.rows.len()));
            assert!(input.rows.iter().all(|(v, aggs)| {
                (1..=10_000).contains(v) && aggs.len() == 1 && aggs[0] < VALUE_MAX
            }));
        }
    }
}
