#!/usr/bin/env sh
# Parent-versus-change comparison of one BENCHMARK.json workload, the way
# choosing-metrics §8 asks for it: alternating pairs, medians, quartiles,
# pairs won and the median gap over the parent's inter-quartile range (the
# two halves of the claim rule), one pair on a held-out seed, and one traced
# pair whose exact counts and per-layer timings say where a difference sits.
#
#   scripts/bench-pair.sh <workload> [pairs=10] [parent]
#
# `parent` is a git ref (default: HEAD when the working tree has changes,
# else HEAD~1), checked out into a throw-away worktree under target/, or a
# directory that already holds the parent's files. Both sides are built
# and run with the command in BENCHMARK.json, each from its own checkout.
set -eu

workload=${1:?usage: bench-pair.sh <workload> [pairs=10] [parent ref or directory]}
pairs=${2:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -ge 3 ]; then
    parent=$3
elif git diff --quiet HEAD; then
    parent=HEAD~1
else
    parent=HEAD
fi

out="$root/target/bench-pair"
mkdir -p "$out"
rm -f "$out"/*.json
if [ -d "$parent" ]; then
    parent_dir=$(cd "$parent" && pwd)
else
    parent_dir="$out/parent"
    git worktree remove --force "$parent_dir" 2>/dev/null || true
    git worktree add --quiet --detach "$parent_dir" "$parent"
    trap 'git worktree remove --force "$parent_dir"' EXIT
fi

# BENCHMARK.json's "command", run from the root of a checkout.
bench() {
    (cd "$1" && shift && cargo run --release --offline --quiet \
        --manifest-path examples/benchmark/Cargo.toml -- "$@")
}

for side in "$parent_dir" "$root"; do
    echo "building $side" >&2
    (cd "$side" && cargo build --release --offline --quiet \
        --manifest-path examples/benchmark/Cargo.toml)
done

# run <seed> <tag> <first> <second> [trace=0]: one pair, each side's result
# line (the last stdout line) kept as <tag>.<side>.json.
run() {
    for side in "$3" "$4"; do
        if [ "$side" = parent ]; then dir=$parent_dir; else dir=$root; fi
        bench "$dir" --workload "$workload" --seed "$1" --seconds 20 --trace "${5:-0}" \
            2>/dev/null | tail -n 1 >"$out/$2.$side.json"
    done
}

i=1
while [ "$i" -le "$pairs" ]; do
    echo "pair $i/$pairs (seed 42)" >&2
    if [ $((i % 2)) -eq 1 ]; then run 42 "pair$i" parent change; else run 42 "pair$i" change parent; fi
    i=$((i + 1))
done
echo "held-out pair (seed 7)" >&2
run 7 heldout change parent
echo "traced pair (seed 42, --trace 1)" >&2
run 42 traced parent change 1

# value <file> <metric>, to four significant digits
value() {
    sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p" "$1" | awk '{ printf "%.4g\n", $1 }'
}

# quartiles: q1 median q3 of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.4g %.4g %.4g", q(0.25), q(0.5), q(0.75) }'
}

echo
echo "$workload: $pairs alternating pairs at --seed 42 --seconds 20 --trace 0, parent = $parent"
printf '%-18s %-30s %-30s %s\n' metric "parent q1/median/q3" "change q1/median/q3" "pairs won by change"
for metric in setup_s query_p50_ms queries_per_s cpu_ms_per_query peak_rss_mb rounds_per_query; do
    higher=0
    [ "$metric" = queries_per_s ] && higher=1
    won=0
    tied=0
    i=1
    : >"$out/parent.$metric"
    : >"$out/change.$metric"
    while [ "$i" -le "$pairs" ]; do
        p=$(value "$out/pair$i.parent.json" "$metric")
        c=$(value "$out/pair$i.change.json" "$metric")
        echo "$p" >>"$out/parent.$metric"
        echo "$c" >>"$out/change.$metric"
        case $(awk -v p="$p" -v c="$c" -v h="$higher" \
            'BEGIN { if (p == c) print "tie"; else if ((c < p) != (h == 1)) print "won"; else print "lost" }') in
        won) won=$((won + 1)) ;;
        tie) tied=$((tied + 1)) ;;
        esac
        i=$((i + 1))
    done
    pq=$(quartiles <"$out/parent.$metric")
    cq=$(quartiles <"$out/change.$metric")
    # The claim rule's second half: the medians' gap over the parent's IQR.
    gap=$(echo "$pq $cq" | awk '{ iqr = $3 - $1; d = $5 - $2; if (d < 0) d = -d
        if (iqr > 0) printf "%.1f", d / iqr; else print (d > 0 ? "inf" : "0") }')
    printf '%-18s %-30s %-30s %s/%s (%s tied), gap %s x parent IQR; held-out seed 7: %s -> %s\n' "$metric" \
        "$pq" "$cq" \
        "$won" "$pairs" "$tied" "$gap" \
        "$(value "$out/heldout.parent.json" "$metric")" "$(value "$out/heldout.change.json" "$metric")"
done

echo
echo "one traced pair at --seed 42 --seconds 20 --trace 1 (counts repeat exactly; timings are one run each)"
printf '%-50s %-14s %s\n' metric parent change
for metric in proc.alloc_mb_per_query proc.allocs_per_query \
    protocol.chunk.parallel_dispatches_per_query protocol.shard.dispatches_per_query \
    protocol.kernels.allocs_per_call wire_bytes_per_query \
    protocol.engine.owner_ms_per_query protocol.engine.server_ms_per_query \
    protocol.engine.announcer_ms_per_query \
    protocol.plans.psi_p50_ms protocol.plans.psu_p50_ms protocol.plans.count_p50_ms \
    protocol.plans.batch_p50_ms protocol.plans.psi_verified_p50_ms \
    protocol.plans.psu_verified_p50_ms protocol.plans.count_verified_p50_ms \
    protocol.plans.sum_verified_p50_ms protocol.plans.max_p50_ms protocol.plans.median_p50_ms \
    net.cluster.announcer_bytes_per_query \
    protocol.cache.warm_query_p50_ms protocol.cache.cold_query_p50_ms \
    protocol.cache.hit_share append_p50_ms net.cluster.msgs_per_query \
    net.transport.channel_large_mb_s; do
    printf '%-50s %-14s %s\n' "$metric" \
        "$(value "$out/traced.parent.json" "$metric")" "$(value "$out/traced.change.json" "$metric")"
done
failed=$(cat "$out"/*.change.json | grep -c '"failed": [1-9]' || true)
echo "change runs with failed operations: $failed (every result line is kept under target/bench-pair/)"
