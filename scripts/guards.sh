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

# Query rounds run on the serving loop's round executor
# (`crates/net/src/executor.rs`): above its tests, `router.rs` starts no
# thread. Fails if a node or router loop goes back to a thread per round.
one_executor() {
    ! sed '/^#\[cfg(test)\]/q' crates/net/src/router.rs | grep -n 'thread::spawn'
}

# A server keeps one column per kind: `Stored` in `engine.rs` holds the
# owners' sum beside per-owner row counts and epochs, never an owner's
# shares, and no write subtracts shares back out of the sum (an update is
# a fold of a difference). So does each elastic domain's replay log, which
# is the engine's `ReplayLog` over that store: above its tests, no file of
# `crates/net/src` may keep shares per owner (an `OwnerRecord`, a
# `shares: Vec<u64>` field, or `Vec<u64>` keyed by a `u32`/`usize` owner)
# or add shares in a ring by hand (`%` and `+` on one line, or a core add
# kernel). Fails if `Stored` holds a `Vec<Vec<u64>>` again, if `engine.rs`
# calls `sub_assign_mod`, or on any such line in `crates/net/src`.
one_column_per_kind() {
    ! sed -n '/^struct Stored {/,/^}/p' crates/protocol/src/engine.rs |
        grep -n 'Vec<Vec<u64>>' || return 1
    ! grep -n 'sub_assign_mod' crates/protocol/src/engine.rs || return 1
    status=0
    for f in $(git ls-files 'crates/net/src/*.rs'); do
        sed '/^#\[cfg(test)\]/q' "$f" | grep -nE \
            'OwnerRecord|shares: *Vec<u64>|(u32|usize), *Vec<u64>|%[^;]*\+|\+[^;]*%|(add|fold_canonical)_mod\(' |
            sed "s|^|$f:|" | grep . && status=1
    done
    return "$status"
}

# One bring-up path: `ClusterListener::start` brings up every cluster,
# a fixed roster or an attached one. Outside `router.rs` (whose unit tests
# drive the loops by hand), `node_loop`, `domain_loop` and `announcer_loop`
# are each called from exactly one place in `crates/net/src`: the spawn
# helpers and `start` in `registry.rs`. Fails, printing the call lines, if
# a second constructor wires a loop by hand again.
one_bringup() {
    status=0
    for loop in node_loop domain_loop announcer_loop; do
        sites=$(git grep -nE "(^|[^[:alnum:]_])$loop\(" -- crates/net/src \
            ':!crates/net/src/router.rs' |
            grep -vE "fn $loop\(|^[^:]+:[0-9]+:[[:space:]]*//") || true
        if [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 1 ]; then
            printf '%s\n' "$sites"
            status=1
        fi
    done
    return "$status"
}

# One counter vocabulary, counted once: every count the system keeps is a
# `prism_protocol::metrics::Counter`, tallied per round or query in a
# `Counts` and cumulatively in the deployment's one `Metrics`; the control
# plane logs typed `ControlEvent`s in a bounded ring. Fails on a
# `struct ExecMeters` or a `fn meters(` in any crate, on a
# `Mutex<Vec<String>>` field in `crates/net/src`, or on an `AtomicU64`
# field above the tests of a file in `crates/net/src` or
# `crates/protocol/src` other than `metrics.rs`, unless it is an id or
# sequence allocator (`query_seq`, `wide_seq`, `corr`, `next_node`, `seq`),
# the failover attribution mark (`failover_mark`) or one of `LinkStats`'
# per-edge byte meters (`bytes_sent`, `msgs_sent`), which a `Counter`
# cannot index.
one_metrics() {
    ! git grep -nE 'struct ExecMeters|fn meters\(' -- 'crates/*/src/**' || return 1
    ! git grep -nE 'Mutex<Vec<String>>' -- crates/net/src || return 1
    allowed='query_seq|wide_seq|corr|next_node|seq|failover_mark|bytes_sent|msgs_sent'
    status=0
    for f in $(git ls-files 'crates/net/src/*.rs' 'crates/protocol/src/*.rs'); do
        [ "$f" = crates/protocol/src/metrics.rs ] && continue
        sed '/^#\[cfg(test)\]/q' "$f" | grep -nE '^[[:space:]]*(pub(\([a-z]+\))? )?[a-z_0-9]+: *AtomicU64,' |
            grep -vE "^[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?($allowed): *AtomicU64," |
            sed "s|^|$f:|" | grep . && status=1
    done
    return "$status"
}

# An append costs what it adds: a delta upload grows every permutation in
# place (`Permutation::extend_block`, copy-on-write), never by building a
# domain-sized copy. Fails on a `pf_*.concat(` or `family.concat(` call in
# `crates/*/src`, on a `fn concat` in `perm.rs` above its tests, or on a
# `ServerNode::new(` inside a `Message::DeltaUpload` arm of `router.rs`
# (the storage-less wide node is built once and growth never touches it).
append_in_place() {
    ! git grep -nE '(pf_[a-z0-9]+|family)\.concat\(' -- 'crates/*/src/**' || return 1
    ! sed '/^#\[cfg(test)\]/q' crates/core/src/perm.rs | grep -n 'fn concat' |
        sed 's|^|crates/core/src/perm.rs:|' | grep . || return 1
    ! sed '/^#\[cfg(test)\]/q' crates/net/src/router.rs | awk '
        /^[[:space:]]*Message::DeltaUpload \{$/ { arm = 1 }
        arm && /Message::SetTamper/ { arm = 0 }
        arm && /ServerNode::new\(/ { print "crates/net/src/router.rs:" NR ":" $0 }' | grep .
}

# Heals are waited on, not slept through: a test or example that waits
# for the control plane blocks on its events (`NodeRegistry::wait_event`)
# or on a query thread's signal, never on the clock. Fails on a `sleep(`
# under `crates/net/tests` or in `examples/distributed_deployment.rs`.
sleep_free() {
    ! git grep -n 'sleep(' -- crates/net/tests examples/distributed_deployment.rs
}

# One row-buffer pool, and messages that move instead of being copied:
# `prism_protocol::pool` is the process's only pool of row buffers, an
# in-process link hands the receiver the sender's own message, and non-test
# code in `crates/net/src` sends only messages it is done with, owned
# (`Link::send_owned`; the borrowed `Link::send` clones on a channel link).
# Fails if `received_copy` or a `pooled_copy`/`pooled_copies` helper comes
# back, on a `static` holding row buffers (a `Vec<Vec<u64>>` or a `…Pool`
# type) or a mutexed list of them (a per-node arena, `Mutex<Vec<Vec<u64>>>`)
# in a crate's `src` outside `crates/protocol/src/pool.rs`, or on a
# borrowed send (`.send(&…)`, `send_raw(&…)`) above the tests of a file in
# `crates/net/src`.
one_pool() {
    ! git grep -nE 'received_copy|pooled_cop(y|ies)' -- 'crates/*/src/**' \
        'crates/*/tests/**' src tests examples || return 1
    ! git grep -nE 'static [A-Z_0-9]+ *:.*(Vec<Vec<u64>>|Pool[^A-Za-z0-9_])|Mutex<Vec<Vec<u64>>>' -- \
        'crates/*/src/**' src | grep -v '^crates/protocol/src/pool.rs:' || return 1
    status=0
    for f in $(git ls-files 'crates/net/src/*.rs'); do
        sed '/^#\[cfg(test)\]/q' "$f" | grep -nE '\.send(_raw)?\(&' |
            sed "s|^|$f:|" | grep . && status=1
    done
    return "$status"
}

# One message table: `crates/net/src/wire.rs` declares each message's tag,
# fields, buffers and edges once and generates the codec from it. Fails if
# its code above the tests pairs a variant with a tag byte by hand
# (`N => Message::…`, `Message::… => N`, a `put_u8(N)`), or reads a
# frame's bytes past the checked integer codecs (a bare `.get_u8(`,
# `.get_u32_le(`, `.get_u64_le(`). Every serving loop admits only its own
# edges (`router::recv_admitted`): also fails on an `other =>` or `_ =>`
# arm in `node_loop`, `domain_loop`, `announcer_loop` or `handle_attach`,
# which would serve or drop whatever else arrives.
one_message_table() {
    ! sed '/^#\[cfg(test)\]/q' crates/net/src/wire.rs | grep -nE \
        '^[[:space:]]*[0-9]+[[:space:]]*=>.*Message|Message::[A-Za-z]+.*=>[[:space:]]*[0-9]|put_u8\([0-9]|\.get_u(8|16|32|64)(_le)?\(' |
        sed 's|^|crates/net/src/wire.rs:|' | grep . || return 1
    status=0
    for site in router:node_loop router:domain_loop cluster:announcer_loop registry:handle_attach; do
        f=crates/net/src/${site%%:*}.rs
        awk -v fn="fn ${site#*:}\\(" -v f="$f" '
            $0 ~ fn { inside = 1 }
            inside && /(^|[^[:alnum:]_])(other|_)[[:space:]]*=>/ { print f ":" NR ":" $0 }
            inside && /^}/ { inside = 0 }' "$f" | grep . && status=1
    done
    return "$status"
}

# One domain rulebook: `prism_protocol::shard::Domain` cuts, fold-checks
# and grows every server domain — a `ServerNode`, a `ShardedNode` and the
# wire router alike. Fails on an `extend_block(` or `truncate_block(` in
# `crates/*/src` outside the one growth site (`Domain::delta` in
# `shard.rs`), the owner side's `Setup::grow` in `params.rs` and `perm.rs`,
# which defines them; on a `fn cut_columns`, `fn check_columns`,
# `fn grow_domain` or `fn ungrow` back in `router.rs`; and on an
# `open_new` in `shard.rs` (every deployment grows its last range).
one_domain_rule() {
    status=0
    for f in $(git grep -lE '(extend|truncate)_block\(' -- 'crates/*/src/**' \
        ':!crates/core/src/perm.rs'); do
        case "$f" in
            crates/protocol/src/shard.rs) site='fn delta<' ;;
            crates/protocol/src/params.rs) site='fn grow\(' ;;
            *) site='' ;;
        esac
        awk -v site="$site" -v f="$f" '
            site != "" && $0 ~ site { inside = 1; match($0, /^[[:space:]]*/); end = substr($0, 1, RLENGTH) "}" }
            !inside && /(extend|truncate)_block\(/ { print f ":" NR ":" $0 }
            inside && $0 == end { inside = 0 }' "$f" | grep . && status=1
    done
    ! git grep -nE 'fn (cut_columns|check_columns|grow_domain|ungrow)[^[:alnum:]_]' -- \
        crates/net/src/router.rs || return 1
    ! git grep -n 'open_new' -- crates/protocol/src/shard.rs || return 1
    return "$status"
}

GUARDS="phase1-once one-fanout one-facade poly-table-once one-executor one-column-per-kind one-bringup one-metrics append-in-place sleep-free one-pool one-message-table one-domain-rule"

run() {
    case "$1" in
        phase1-once) phase1_once ;;
        one-fanout) one_fanout ;;
        one-facade) one_facade ;;
        poly-table-once) poly_table_once ;;
        one-executor) one_executor ;;
        one-column-per-kind) one_column_per_kind ;;
        one-bringup) one_bringup ;;
        one-metrics) one_metrics ;;
        append-in-place) append_in_place ;;
        sleep-free) sleep_free ;;
        one-pool) one_pool ;;
        one-message-table) one_message_table ;;
        one-domain-rule) one_domain_rule ;;
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
