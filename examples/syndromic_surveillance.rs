//! Syndromic surveillance (§1's motivating use-case), streamed.
//!
//! Pharmacies, hospitals and telehealth providers each observe hourly
//! signals — analgesic sales, anti-allergy prescriptions, school
//! absenteeism calls — keyed by (hour, region). Reports never stop
//! arriving: every hour each organization outsources only its **new**
//! rows as a delta upload (`Cluster::append`), growing the shared domain
//! without re-uploading history. The epidemiologist keeps re-running the
//! same windowed consensus query over past hours; per-range version
//! stamps keep those untouched windows warm in the PSI-round cache, so a
//! re-check of hour 1 after hour 4's upload costs **zero** server
//! round-trips — round 1 replays the cached PSI outputs, round 2 replays
//! the pinned z-seed aggregation.
//!
//! Run with: `cargo run --example syndromic_surveillance`

use prism::core::Prg;
use prism::driver::{AggResult, Cluster, ClusterConfig, OwnerInput, QueryBatch};

const REGIONS: u64 = 32; // region-code domain 1..=32, one block per hour
const HOURS: usize = 4;
const ORGS: usize = 3;

/// One organization's elevated-activity report for one hour: a subset of
/// regions with a signal strength per region, mapped into the hour's
/// block of the global (hour, region) domain.
fn hourly_report(org: usize, hour: usize, hotspots: &[u64]) -> OwnerInput {
    let mut prg = Prg::from_seed(0x5EED + (org * HOURS + hour) as u64);
    let elevated_fraction = [0.08, 0.10, 0.05][org];
    let start = (hour as u64) * REGIONS; // first global cell of this hour
    let mut rows = Vec::new();
    for region in 1..=REGIONS {
        let hot = hotspots.contains(&region);
        let elevated = hot || prg.unit_f64() < elevated_fraction;
        if elevated {
            // Signal strength: hotspots run hot everywhere.
            let strength = if hot {
                prg.range(800, 1000)
            } else {
                prg.range(50, 400)
            };
            rows.push((start + region, vec![strength]));
        }
    }
    OwnerInput { rows }
}

/// Consensus signal in one hour's window: total strength over the
/// regions *every* organization flagged, plus how many orgs hit each.
fn consensus(results: &[AggResult]) -> (u64, usize) {
    let AggResult::Sums(sums) = &results[0] else {
        panic!("first batch item is the sum");
    };
    let total: u64 = sums.iter().sum();
    let flagged = sums.iter().filter(|&&s| s > 0).count();
    (total, flagged)
}

fn main() {
    // A real outbreak in regions 7 and 19: every organization sees those
    // every hour; the rest of each report is uncorrelated noise.
    let outbreak = [7u64, 19];
    let names = ["pharmacy", "hospital", "telehealth"];

    // Hour 0 bootstraps the cluster; later hours arrive as deltas.
    let hour0: Vec<OwnerInput> = (0..ORGS).map(|j| hourly_report(j, 0, &outbreak)).collect();
    let mut cfg = ClusterConfig::new(REGIONS as usize).with_cache(true);
    cfg.agg_domain_max = 2_000;
    cfg.seed = 20260807;
    let mut cluster = Cluster::build(&hour0, cfg).expect("cluster");
    println!(
        "Hour 0: {} organizations outsourced their reports ({names:?})",
        ORGS
    );

    let batch = QueryBatch::new().sum(0).count_tuples();
    let window = |h: usize| ((h as u64) * REGIONS, REGIONS);

    // Cold consensus check over hour 0 — both protocol rounds run.
    let (r, stats) = cluster
        .psi_query_batch_range(&batch, window(0))
        .expect("windowed batch");
    let (total, flagged) = consensus(&r);
    println!(
        "  consensus over hour 0: {flagged} regions, total strength {total} \
         (rounds {}, cache hits {})",
        stats.rounds,
        stats.cache_hits()
    );
    assert_eq!(stats.rounds, 2, "first windowed query is cold");
    assert!(flagged >= outbreak.len());

    // Stream the remaining hours: one delta upload per hour, then
    // re-check every *past* hour's window. The appends only stamp the
    // new range, so previously-run windows replay entirely from cache.
    let mut hour_totals = vec![total];
    for hour in 1..HOURS {
        let delta: Vec<OwnerInput> = (0..ORGS)
            .map(|j| hourly_report(j, hour, &outbreak))
            .collect();
        cluster
            .append(REGIONS as usize, &delta)
            .expect("delta upload");
        println!("\nHour {hour}: delta uploads appended {REGIONS} cells per org");

        // Fresh hour: a cold windowed query (new range, new cache key).
        let (r, stats) = cluster
            .psi_query_batch_range(&batch, window(hour))
            .expect("windowed batch");
        let (total, flagged) = consensus(&r);
        hour_totals.push(total);
        println!(
            "  hour {hour} consensus: {flagged} regions, total strength {total} \
             (rounds {}, cold)",
            stats.rounds
        );

        // Every earlier hour replays warm — zero server round-trips even
        // though the stores just grew.
        for past in 0..hour {
            let (r, stats) = cluster
                .psi_query_batch_range(&batch, window(past))
                .expect("warm re-check");
            let (retotal, _) = consensus(&r);
            assert_eq!(
                retotal, hour_totals[past],
                "hour {past} consensus drifted after an append"
            );
            assert_eq!(
                (stats.rounds, stats.cache_hits()),
                (0, 2),
                "hour {past} window must stay warm across hour {hour}'s append"
            );
            println!(
                "  re-check hour {past}: total {retotal} unchanged \
                 (rounds 0, cache hits 2 — no server contact)"
            );
        }
    }

    // The outbreak regions show up in every hour's consensus.
    let (r, _) = cluster
        .psi_query_batch_range(&batch, window(HOURS - 1))
        .expect("final window");
    let AggResult::Sums(sums) = &r[0] else {
        panic!("first batch item is the sum");
    };
    for region in outbreak {
        let s = sums[(region - 1) as usize];
        assert!(
            s >= 800 * ORGS as u64,
            "outbreak region {region} must run hot (got {s})"
        );
    }

    println!(
        "\nNo organization re-uploaded history or revealed raw reports; each\n\
         hour cost one delta upload per org, and every past-hour re-check\n\
         was answered from the PSI-round cache without touching a server."
    );
}
