#!/usr/bin/env bash
# Regenerates the committed serving benchmarks with the release binary:
#
#   BENCH_serve.json  closed loop, 8 connections, 800 searches at
#                     eps 0.5/1/2/5 against one `warptree serve`
#                     (2 workers) over a 40 x 150 stock corpus (seed 7);
#   BENCH_shard.json  open loop at 60 req/s, 4 connections, 300
#                     searches at eps 2.5/5 through `warptree
#                     shard-coordinator` over 1, 2 and 3 shard servers
#                     (120 x 150 stock corpus, seed 7).
#
# Usage: scripts/bench_serving.sh [OUT_DIR]   (default: the repo root)
# Needs `cargo build --release` first, and python3 to assemble the
# shard curve.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root}
wt=$root/target/release/warptree
tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

# start VAR LOG BANNER CMD...: runs CMD in the background, waits for
# its banner line and stores the address it announces in VAR. (Not a
# command substitution: the background pid must reach `pids` here.)
start() {
    local var=$1 log=$2 banner=$3
    shift 3
    "$@" > "$log" 2>&1 &
    pids+=($!)
    for _ in $(seq 1 200); do
        if grep -q "^$banner" "$log" 2>/dev/null; then
            printf -v "$var" '%s' "$(head -1 "$log" | sed 's/.* on //')"
            return
        fi
        sleep 0.05
    done
    echo "no banner in $log" >&2
    cat "$log" >&2
    exit 1
}

# --- BENCH_serve.json ------------------------------------------------
"$wt" gen --out "$tmp/serve.csv" --sequences 40 --len 150 --seed 7 > /dev/null
"$wt" build --input "$tmp/serve.csv" --out-dir "$tmp/serve-idx" --categories 16 > /dev/null
start addr "$tmp/serve.log" serving "$wt" serve "$tmp/serve-idx" --addr 127.0.0.1:0 --workers 2
"$wt" bench-client --addr "$addr" --input "$tmp/serve.csv" --connections 8 \
    --requests 800 --epsilons 0.5,1,2,5 --out "$out/BENCH_serve.json"

# --- BENCH_shard.json ------------------------------------------------
"$wt" gen --out "$tmp/shard.csv" --sequences 120 --len 150 --seed 7 > /dev/null
for n in 1 2 3; do
    cluster=$tmp/cluster-$n
    "$wt" shard-init --input "$tmp/shard.csv" --out-dir "$cluster" --shards "$n" > /dev/null
    addrs=()
    for i in $(seq 0 $((n - 1))); do
        dir=$(printf '%s/shard-%04d' "$cluster" "$i")
        start shard "$tmp/s$n-$i.log" serving "$wt" serve "$dir" --addr 127.0.0.1:0
        addrs+=("$shard")
    done
    start coord "$tmp/c$n.log" coordinating "$wt" shard-coordinator "$cluster" \
        --shards "$(IFS=,; echo "${addrs[*]}")" --addr 127.0.0.1:0
    "$wt" bench-client --addr "$coord" --input "$tmp/shard.csv" --mode open --rate 60 \
        --connections 4 --requests 300 --queries 16 --epsilons 2.5,5 \
        --out "$tmp/shard-$n.json"
done

python3 - "$tmp" "$out/BENCH_shard.json" <<'PY'
import json, sys
tmp, out = sys.argv[1], sys.argv[2]
doc = {
    "bench": "shard_scaling",
    "note": "Open-loop (coordinated-omission-aware) arrival schedule at a fixed aggregate rate against a scatter-gather coordinator fronting N shard servers; single-host run, so shards contend for the same cores and the curve measures coordinator overhead and tail behaviour, not ideal speedup. Regenerate with scripts/bench_serving.sh.",
    "corpus": {"sequences": 120, "len": 150, "seed": 7},
    "workload": {"mode": "open", "rate_rps": 60.0, "queries": 16,
                 "connections": 4, "epsilons": [2.5, 5.0]},
    "curve": [{"shards": n, "report": json.load(open(f"{tmp}/shard-{n}.json"))}
              for n in (1, 2, 3)],
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY
echo "wrote $out/BENCH_serve.json and $out/BENCH_shard.json"
