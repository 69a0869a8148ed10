# PRISM development tasks. Run `just --list` for a summary.
# Everything works fully offline: external deps are vendored under vendor/.

# Run the standard verification suite (what CI runs).
ci: fmt-check clippy phase1-once one-fanout one-facade poly-table-once one-executor one-column-per-kind one-bringup one-metrics append-in-place sleep-free one-pool one-message-table one-domain-rule build test test-release doc

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
# `prism_storage` too: a corrupt column header fails differently in the two
# profiles, and the codec's block loops only matter optimised.
test-release:
    cargo test --release -q -p prism_core -p prism_protocol -p prism_net -p prism_storage

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

# The "exists once" guards (Phase 1, the server-round fan-out, the owner
# facade, the F-table, the round executor, one stored column per kind,
# the bring-up path, the counter vocabulary, in-place appends, sleep-free
# heal waits, one row-buffer pool, one message table, one domain
# rulebook); scripts/guards.sh says what each one keeps single.
phase1-once:
    scripts/guards.sh phase1-once

one-fanout:
    scripts/guards.sh one-fanout

one-facade:
    scripts/guards.sh one-facade

poly-table-once:
    scripts/guards.sh poly-table-once

one-executor:
    scripts/guards.sh one-executor

one-column-per-kind:
    scripts/guards.sh one-column-per-kind

one-bringup:
    scripts/guards.sh one-bringup

one-metrics:
    scripts/guards.sh one-metrics

append-in-place:
    scripts/guards.sh append-in-place

sleep-free:
    scripts/guards.sh sleep-free

one-pool:
    scripts/guards.sh one-pool

one-message-table:
    scripts/guards.sh one-message-table

one-domain-rule:
    scripts/guards.sh one-domain-rule

# Non-test vs test Rust line counts per crate (vendor/ and
# examples/benchmark/ excluded), the one table simplicity PRs quote. In a
# file outside tests/, everything from the first top-level
# `#[cfg(test)]` on counts as test code.
loc:
    #!/usr/bin/env sh
    git ls-files -z '*.rs' ':!vendor' ':!examples/benchmark' | xargs -0 awk '
        FNR == 1 {
            crate = "prism (root)"
            if (split(FILENAME, p, "/") > 2 && p[1] == "crates") crate = p[2]
            test = FILENAME ~ /(^|\/)tests\//
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

# Smoke-test both measurement surfaces: exp_harness regenerates the
# paper's artifacts on the smallest grid (~3 min; Exp 2's 30-50-owner
# max/median rows are most of it), and the repo benchmark (BENCHMARK.json;
# see examples/benchmark/README.md) runs every workload at 1/20 domains
# with spans on (~6 s) — it exits non-zero on any answer that differs from
# the plaintext oracle, any dropped reply, and a worker kill that does not
# heal as exactly one failover.
bench-smoke:
    cargo run --release -p prism_bench --bin exp_harness -- all --scale small
    cargo run --release --offline --example benchmark -- all --quick --trace

# Compare the working tree with its parent commit on one BENCHMARK.json
# workload: alternating pairs at --seed 42 --seconds 20 --trace 0 plus one
# pair on a held-out seed; prints medians, quartiles and pairs won for the
# six end-to-end metrics (see scripts/bench-pair.sh for the parent choice).
bench-pair workload pairs="10":
    scripts/bench-pair.sh {{workload}} {{pairs}}

# Regenerate the paper's tables/figures at small scale (seconds).
experiments:
    cargo run --release -p prism_bench --bin exp_harness -- all --scale small

# Run all four examples.
examples:
    cargo run -q --release --example quickstart
    cargo run -q --release --example ad_conversion
    cargo run -q --release --example syndromic_surveillance
    cargo run -q --release --example distributed_deployment
