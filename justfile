# PRISM development tasks. Run `just --list` for a summary.
# Everything works fully offline: external deps are vendored under vendor/.

# Run the standard verification suite (what CI runs).
ci: fmt-check clippy phase1-once one-fanout one-facade poly-table-once build test test-release doc bench-check

# Build every workspace target in release mode.
build:
    cargo build --release --workspace --all-targets

# Run unit tests, integration suites, and doctests.
test:
    cargo test -q --workspace

# The arithmetic suites again, optimised: the division-free fast paths
# rest on `debug_assert!`ed invariants (checked by `test`) and on wrapping
# overflow (how the shipped build behaves — the Barrett reducer's quotient
# estimate and correction wrap by design), so both profiles must pass: the
# `arith` / `perm` oracle proptests and `parallel_dispatch` (which divides
# a 2^19-cell round and compares it with the serial one) run here too.
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
    ! git grep -nE 'db[12]\.apply\(' -- 'crates/*/tests/**' tests examples crates/bench crates/workload crates/protocol/src/driver.rs ':!examples/benchmark'

# A server round divides its rows once: `chunk` is the only module of
# `prism_protocol` that spawns threads. Fails if another module grows its
# own spawn site (a per-shard or per-item fan-out nested in the round)
# again.
one-fanout:
    ! git grep -n 'thread::scope\|thread::spawn' -- crates/protocol/src ':!crates/protocol/src/chunk.rs'

# One owner-side facade, `driver::Cluster`, over any deployment. Fails if
# `crates/net/src` names a query again (a `pub fn psi*`/`psu*` other than
# the two batch shims the repo benchmark pins), or if a test or example
# goes back to sharing and uploading raw columns by hand instead of
# `Cluster::over`. Allow-list: the one `owner_columns` helper of
# `crates/net/tests/shard_e2e.rs`, for its two wire-level cases that
# compare *how* columns are shipped (`bulk_upload_cuts_phase1_…`,
# `bulk_and_per_column_uploads_store_identically`).
one-facade:
    ! git grep -nE 'pub fn ps[iu]' -- crates/net/src | grep -vE 'pub fn psi_query_batch(_range)?\('
    ! git grep -nE '(owner_uploads|share_owner)\(' -- crates/net/tests tests examples ':!examples/benchmark' | grep -v '^crates/net/tests/shard_e2e.rs:'
    test "$(git grep -cE '(owner_uploads|share_owner)\(' -- crates/net/tests/shard_e2e.rs | cut -d: -f2)" = 1

# One F-table per parameter set: outside tests and benches, only the owner
# view's cache (`OwnerParams::poly_table` in `params.rs`) calls
# `OrderPolynomial::table` (`polynomial.rs` defines it and tests it).
# Fails if a facade, plan or harness builds its own table again.
poly-table-once:
    ! git grep -nE '\.table\(' -- 'crates/*/src/**' src examples ':!examples/benchmark' ':!crates/protocol/src/params.rs' ':!crates/core/src/polynomial.rs'

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

# Smoke-test both measurement surfaces: the criterion benches compile,
# exp_harness regenerates the paper's artifacts on the smallest grid
# (~3 min; Exp 2's 30-50-owner max/median rows are most of it), and the
# repo benchmark (BENCHMARK.json; see examples/benchmark/README.md) runs
# every workload at 1/20 domains with spans on (~6 s) — it exits non-zero
# on any answer that differs from the plaintext oracle, any dropped reply,
# and a worker kill that does not heal as exactly one failover.
bench-smoke: bench-check
    cargo run --release -p prism_bench --bin exp_harness -- all --scale small
    cargo run --release --offline --example benchmark -- all --quick --trace

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
