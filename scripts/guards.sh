#!/usr/bin/env sh
# The "exists once" guards: each fails, printing the offending lines, when
# a second copy of something the design keeps in one place appears.
#
#   scripts/guards.sh <guard>   one of the guards below
#   scripts/guards.sh all       every guard; fails if any fails
#
# `just <guard>` and CI's guards step both run this file.
set -eu
cd "$(git rev-parse --show-toplevel)"

# Phase 1 is single-sourced: only `prism_protocol::tables` may permute a
# plaintext column with PF_db1/PF_db2 on its way to the servers. Fails if
# a harness (test, example, bench, workload, or the in-memory driver)
# grows its own copy of the outsourcing routine again. A git pathspec glob
# must match the whole path, hence `'crates/*/tests/**'`.
phase1_once() {
    ! git grep -nE 'db[12]\.apply\(' -- 'crates/*/tests/**' tests examples crates/bench \
        crates/workload crates/protocol/src/driver.rs ':!examples/benchmark'
}

# A server round divides its rows once: `chunk` is the only module of
# `prism_protocol` that spawns threads. Fails if another module grows its
# own spawn site (a per-shard or per-item fan-out nested in the round)
# again.
one_fanout() {
    ! git grep -n 'thread::scope\|thread::spawn' -- crates/protocol/src \
        ':!crates/protocol/src/chunk.rs'
}

# One owner-side facade, `driver::Cluster`, over any deployment. Fails if
# `crates/net/src` names a query again (a `pub fn psi*`/`psu*` other than
# the two batch shims the repo benchmark pins), or if a test or example
# goes back to sharing and uploading raw columns by hand instead of
# `Cluster::over`. Allow-list: the one `owner_columns` helper of
# `crates/net/tests/shard_e2e.rs`, for its two wire-level cases that
# compare *how* columns are shipped (`bulk_upload_cuts_phase1_…`,
# `bulk_and_per_column_uploads_store_identically`).
one_facade() {
    ! git grep -nE 'pub fn ps[iu]' -- crates/net/src |
        grep -vE 'pub fn psi_query_batch(_range)?\(' || return 1
    ! git grep -nE '(owner_uploads|share_owner)\(' -- crates/net/tests tests examples \
        ':!examples/benchmark' | grep -v '^crates/net/tests/shard_e2e.rs:' || return 1
    test "$(git grep -cE '(owner_uploads|share_owner)\(' -- crates/net/tests/shard_e2e.rs |
        cut -d: -f2)" = 1
}

# One F-table per parameter set: outside tests and benches, only the owner
# view's cache (`OwnerParams::poly_table` in `params.rs`) calls
# `OrderPolynomial::table` (`polynomial.rs` defines it and tests it).
# Fails if a facade, plan or harness builds its own table again.
poly_table_once() {
    ! git grep -nE '\.table\(' -- 'crates/*/src/**' src examples ':!examples/benchmark' \
        ':!crates/protocol/src/params.rs' ':!crates/core/src/polynomial.rs'
}

GUARDS="phase1-once one-fanout one-facade poly-table-once"

run() {
    case "$1" in
        phase1-once) phase1_once ;;
        one-fanout) one_fanout ;;
        one-facade) one_facade ;;
        poly-table-once) poly_table_once ;;
        *)
            echo "usage: scripts/guards.sh <all | $(echo "$GUARDS" | tr ' ' '|')>" >&2
            exit 2
            ;;
    esac
}

guard=${1:-}
if [ "$guard" = all ]; then
    failed=""
    for g in $GUARDS; do
        run "$g" || failed="$failed $g"
    done
    if [ -n "$failed" ]; then
        echo "failed guards:$failed" >&2
        exit 1
    fi
else
    run "$guard" || { echo "guard $guard failed" >&2; exit 1; }
fi
