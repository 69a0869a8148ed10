# PRISM development tasks. Run `just --list` for a summary.
# Everything works fully offline: external deps are vendored under vendor/.

# Run the standard verification suite (what CI runs).
ci: fmt-check clippy phase1-once build test test-release doc bench-check

# Build every workspace target in release mode.
build:
    cargo build --release --workspace --all-targets

# Run unit tests, integration suites, and doctests.
test:
    cargo test -q --workspace

# The arithmetic suites again, optimised: the division-free fast paths
# rest on `debug_assert!`ed invariants (checked by `test`) and on wrapping
# overflow (how the shipped build behaves), so both profiles must pass.
# `prism_net` too: the benchmark and every deployment run release builds,
# and its chaos-timing and mux-interleaving suites are timing-sensitive.
test-release:
    cargo test --release -q -p prism_core -p prism_protocol -p prism_net

# Formatting gate.
fmt-check:
    cargo fmt --all --check

# Apply formatting.
fmt:
    cargo fmt --all

# Lint gate. The only allowed lints are the two documented in the root
# Cargo.toml [workspace.lints.clippy] block (see DESIGN.md "Lint policy").
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Phase 1 is single-sourced: only `prism_protocol::tables` may permute a
# plaintext column with PF_db1/PF_db2 on its way to the servers. Fails if
# a harness (test, example, bench, workload, or the in-memory driver)
# grows its own copy of the outsourcing routine again.
phase1-once:
    ! git grep -nE 'db[12]\.apply\(' -- 'crates/*/tests' tests examples crates/bench crates/workload crates/protocol/src/driver.rs ':!examples/benchmark'

# Non-test vs test Rust line counts per crate (vendor/ and
# examples/benchmark/ excluded), the one table simplicity PRs quote. In a
# file outside tests/ and benches/, everything from the first top-level
# `#[cfg(test)]` on counts as test code.
loc:
    #!/usr/bin/env sh
    git ls-files -z '*.rs' ':!vendor' ':!examples/benchmark' | xargs -0 awk '
        FNR == 1 {
            crate = "prism (root)"
            if (split(FILENAME, p, "/") > 2 && p[1] == "crates") crate = p[2]
            test = FILENAME ~ /(^|\/)(tests|benches)\//
        }
        /^#\[cfg\(test\)\]/ { test = 1 }
        { n[crate, test]++; seen[crate] = 1 }
        END { for (c in seen) printf "%-14s %8d %8d\n", c, n[c, 0], n[c, 1] }
    ' | sort | awk '
        BEGIN { printf "%-14s %8s %8s\n", "crate", "non-test", "test" }
        { print; a += $(NF - 1); b += $NF }
        END { printf "%-14s %8d %8d  (all: %d)\n", "total", a, b, a + b }
    '

# API docs must build without warnings (broken intra-doc links fail CI).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Compile the criterion benches without running them.
bench-check:
    cargo bench --no-run

# Smoke-test the measurement stack: compile the criterion benches and run
# exp_harness on the smallest config grid (seconds, not minutes). The
# `shard` experiment sweeps shard counts {1,2,4,8} on the 1M-cell config
# and writes BENCH_shard.json; `netmax` runs max/median over the networked
# deployment (channel + TCP, announcer as a fourth node) and writes
# BENCH_netmax.json; `cache` runs the repeat-query PSI-round cache sweep
# and writes BENCH_cache.json — the sweep *asserts* at least one cache
# hit, so a cache regression fails the smoke run; `stream` runs the
# streaming-append sweep (hourly delta uploads against warm windowed
# re-checks) and writes BENCH_stream.json — the sweep *asserts* every
# post-append re-check replays both rounds from the cache, and the grep
# re-checks at least one warm-range hit landed after an append; `serve`
# drives N ∈ {1,4,16} concurrent query streams through the session
# multiplexer
# (asserting every concurrent answer matches serial) and writes
# BENCH_serve.json; `hotpath` times the per-row server kernels in both
# their Vec-baseline and flat in-place forms (counting allocations per
# warm call) and writes BENCH_hotpath.json; `failover` kills a shard
# worker on the elastic TCP deployment at rf=1 (replay heal) and rf=2
# (replica-promotion heal, zero upload-log replay), times both heals
# (asserting the healed answers match the pre-kill answers exactly) and
# writes BENCH_failover.json (all seven JSONs are uploaded as CI
# artifacts).
bench-smoke: bench-check
    cargo run --release -p prism_bench --bin exp_harness -- exp1 sharegen shard netmax cache stream serve hotpath failover --scale small
    grep -q '"total_cache_hits": [1-9]' BENCH_cache.json
    grep -q '"warm_hits_after_append": [1-9]' BENCH_stream.json
    grep -q '"queries_per_second"' BENCH_serve.json
    grep -q '"max_speedup"' BENCH_hotpath.json
    grep -q '"failovers": 1' BENCH_failover.json
    grep -q '"heal": "promotion"' BENCH_failover.json

# Compare the working tree with its parent commit on one BENCHMARK.json
# workload: alternating pairs at --seed 42 --seconds 20 --trace 0 plus one
# pair on a held-out seed; prints medians, quartiles and pairs won for the
# six end-to-end metrics (see scripts/bench-pair.sh for the parent choice).
bench-pair workload pairs="10":
    scripts/bench-pair.sh {{workload}} {{pairs}}

# Run the full criterion bench suite (small fixed sizes, minutes).
bench:
    cargo bench

# Regenerate the paper's tables/figures at small scale (seconds).
experiments:
    cargo run --release -p prism_bench --bin exp_harness -- all --scale small

# Run all four examples.
examples:
    cargo run -q --release --example quickstart
    cargo run -q --release --example ad_conversion
    cargo run -q --release --example syndromic_surveillance
    cargo run -q --release --example distributed_deployment
