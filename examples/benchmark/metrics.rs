//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` and
//! README.md repeat them; a unit test keeps the three in step.

pub const WORKLOADS: [&str; 4] = [
    "tcp_wide_serial",
    "elastic_small_mix",
    "inmem_scan_large",
    "stream_append_cached",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of the baseline's value by which
/// it may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// One of `BENCHMARK.json`'s `end_to_end` metrics, which the driver
    /// bounds: those reported on every workload and never 0. The others
    /// are printed by `all`, judged by `compare`, and listed per layer in
    /// `BENCHMARK.json`, which has no other place for them.
    pub bounded: bool,
    /// A time: host noise moves it, so every run records how far its
    /// repetitions disagree on it ([`spread_name`]) and `compare` answers
    /// `unresolved` when that exceeds the bound.
    pub timing: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    bounded: bool,
    timing: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        bounded,
        timing,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true, true),
    e2e("query_p50_ms", "ms", Better::Lower, 0.2, true, true),
    e2e("queries_per_s", "1/s", Better::Higher, 0.2, true, true),
    e2e("cpu_ms_per_query", "ms", Better::Lower, 0.2, true, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2, true, false),
    e2e(
        "rounds_per_query",
        "count",
        Better::Lower,
        0.001,
        true,
        false,
    ),
    e2e("query_p95_ms", "ms", Better::Lower, 0.15, false, true),
    e2e("failed_share", "share", Better::Lower, 0.0, false, false),
    e2e(
        "wire_bytes_per_query",
        "bytes",
        Better::Lower,
        0.0,
        false,
        false,
    ),
    e2e("append_p50_ms", "ms", Better::Lower, 0.10, false, true),
];

/// The record that says how far the repetitions of one run disagree on
/// `metric` (interquartile range over median).
pub fn spread_name(metric: &str) -> String {
    format!("bench.rep_spread_{}", metric.trim_end_matches("_ms"))
}

/// `wire_bytes_per_query` may move this much on `elastic_small_mix`,
/// where keep-alive probes share the metered links with the queries.
pub const ELASTIC_WIRE_BOUND: f64 = 0.02;

/// Per-layer metrics `(name, unit)`, layer = crate.module. A value of 0
/// on a workload that does not exercise the layer means "not applicable".
pub const PER_LAYER: [(&str, &str); 81] = [
    // End-to-end metrics the driver cannot bound: the tail, which does
    // not repeat within 15 % on a shared host; 0 when all is well; not
    // defined on every workload.
    ("query_p95_ms", "ms"),
    ("failed_share", "share"),
    ("wire_bytes_per_query", "bytes"),
    ("append_p50_ms", "ms"),
    // core
    ("core.shamir.share_mcells_s", "Mcells/s"),
    ("core.additive.share_mcells_s", "Mcells/s"),
    ("core.shamir.reconstruct_mcells_s", "Mcells/s"),
    ("core.perm.apply_mcells_s", "Mcells/s"),
    ("core.prg.blinding_mcells_s", "Mcells/s"),
    // protocol kernels
    ("protocol.tables.sharegen_mcells_s", "Mcells/s"),
    ("protocol.psi.server_round_mcells_s", "Mcells/s"),
    ("protocol.psu.server_round_mcells_s", "Mcells/s"),
    ("protocol.sum.server_round_mcells_s", "Mcells/s"),
    ("protocol.psi.owner_combine_mcells_s", "Mcells/s"),
    ("protocol.sum.owner_finalize_mcells_s", "Mcells/s"),
    ("protocol.kernels.allocs_per_call", "count"),
    // protocol.engine
    ("protocol.engine.round1_execute_ms", "ms"),
    ("protocol.engine.round2_execute_ms", "ms"),
    ("protocol.engine.owner_ms_per_query", "ms"),
    ("protocol.engine.server_ms_per_query", "ms"),
    ("protocol.engine.announcer_ms_per_query", "ms"),
    // protocol.shard / protocol.chunk
    ("protocol.shard.fanout_overhead_ms", "ms"),
    ("protocol.shard.dispatches_per_query", "count"),
    ("protocol.chunk.parallel_dispatches_per_query", "count"),
    // protocol.cache
    ("protocol.cache.hit_share", "share"),
    ("protocol.cache.invalidations_per_append", "count"),
    ("protocol.cache.warm_query_p50_ms", "ms"),
    ("protocol.cache.cold_query_p50_ms", "ms"),
    // protocol.plans
    ("protocol.plans.psi_p50_ms", "ms"),
    ("protocol.plans.psu_p50_ms", "ms"),
    ("protocol.plans.count_p50_ms", "ms"),
    ("protocol.plans.batch_p50_ms", "ms"),
    ("protocol.plans.psi_verified_p50_ms", "ms"),
    ("protocol.plans.psu_verified_p50_ms", "ms"),
    ("protocol.plans.count_verified_p50_ms", "ms"),
    ("protocol.plans.sum_verified_p50_ms", "ms"),
    ("protocol.plans.max_p50_ms", "ms"),
    ("protocol.plans.median_p50_ms", "ms"),
    // net.wire
    ("net.wire.encode_request_ms", "ms"),
    ("net.wire.decode_request_ms", "ms"),
    ("net.wire.encode_reply_ms", "ms"),
    ("net.wire.decode_reply_ms", "ms"),
    ("net.wire.request_bytes", "bytes"),
    ("net.wire.reply_bytes", "bytes"),
    ("net.wire.decode_allocs_per_frame", "count"),
    ("net.wire.small_frame_roundtrip_ns", "ns"),
    // net.transport
    ("net.transport.tcp_small_rtt_us", "us"),
    ("net.transport.tcp_large_mb_s", "MB/s"),
    ("net.transport.tcp_recv_allocs_per_frame", "count"),
    ("net.transport.channel_small_rtt_us", "us"),
    ("net.transport.channel_large_mb_s", "MB/s"),
    // net.mux
    ("net.mux.request_overhead_us", "us"),
    ("net.mux.admission_acquire_ns", "ns"),
    ("net.mux.rejected_replies", "count"),
    // net.cluster
    ("net.cluster.stage_sum_ms", "ms"),
    ("net.cluster.unattributed_share", "share"),
    ("net.cluster.msgs_per_query", "count"),
    ("net.cluster.router_bytes_per_query", "bytes"),
    ("net.cluster.announcer_bytes_per_query", "bytes"),
    ("net.cluster.upload_mb_s", "MB/s"),
    // net.registry
    ("net.registry.attach_ms", "ms"),
    ("net.registry.heal_ms", "ms"),
    ("net.registry.failovers", "count"),
    ("net.registry.promotions", "count"),
    ("net.registry.replayed_records", "count"),
    // storage / workload
    ("storage.store.put_mb_s", "MB/s"),
    ("storage.store.fetch_mb_s", "MB/s"),
    ("storage.store.disk_bytes_per_user_byte", "ratio"),
    ("storage.codec.encode_mb_s", "MB/s"),
    ("storage.codec.decode_mb_s", "MB/s"),
    ("workload.lineitem.generate_mrows_s", "Mrows/s"),
    ("workload.outsource.owner_mcells_s", "Mcells/s"),
    // proc / bench
    ("proc.allocs_per_query", "count"),
    ("proc.alloc_mb_per_query", "MB"),
    ("proc.ctx_switches_per_query", "count"),
    ("proc.threads_peak", "count"),
    ("query_quiet_ms", "ms"),
    ("query_p50_raw_ms", "ms"),
    ("queries_per_s_raw", "1/s"),
    ("bench.rep_spread_query_p50", "share"),
    ("bench.trace_overhead_share", "share"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit a metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name).map(|m| m.unit).unwrap_or_else(|| {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let contract_e2e = END_TO_END.iter().filter(|m| m.bounded).map(|m| m.name);
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(contract_e2e)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        // The workload-specific end-to-end metrics live in the per-layer
        // list of the contract.
        for m in END_TO_END.iter().filter(|m| !m.bounded) {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == m.name), "{}", m.name);
        }
    }

    #[test]
    fn bounds_stay_within_the_caps() {
        // The driver takes no bound above 25 % and wants set-up time to
        // have the widest. The issue asked for 15 % at most; what the
        // driver bounds takes 20 % (README, "Noise").
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let unbounded = END_TO_END.iter().filter(|m| !m.bounded);
        assert!(unbounded.into_iter().all(|m| m.bound <= 0.15));
        let setup = end_to_end("setup_s").expect("the driver requires it");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is the contract the driver reads; it must name
    /// exactly what this file names.
    #[test]
    fn benchmark_json_matches() {
        // Relative to this file, so it holds in both builds: as the root
        // package's example and as the package of its own.
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> &str {
            let from = json.find(&format!("\"{key}\"")).expect(key);
            let rest = &json[from..];
            &rest[..rest.find(']').expect("section closes")]
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\":")
                .skip(1)
                .map(|part| part.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        assert_eq!(names(section("workloads")), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.bounded)
            .map(|m| m.name)
            .collect();
        assert_eq!(names(section("end_to_end")), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(section("per_layer")), layers);
        for m in END_TO_END.iter().filter(|m| m.bounded) {
            assert!(
                section("end_to_end").contains(&format!("\"bound\": {}", m.bound)),
                "bound of {}",
                m.name
            );
        }
    }
}
