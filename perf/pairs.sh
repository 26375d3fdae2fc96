#!/usr/bin/env bash
# Paired runs of two builds of the repo benchmark harness on one workload.
#
#   perf/pairs.sh <parent-harness> <change-harness> <workload> <pairs> <seconds>
#
# Pair k runs both harnesses untraced at seed 11 + k for <seconds> each,
# the parent first on even k and the change first on odd k, so neither
# side always inherits the other's page cache and allocator leftovers.
# Progress goes to stderr, one line per pair; stdout is one JSON object:
# every pair's ns_per_event / setup_s / peak_rss_mib / digest / failed
# operations, and per metric the sign count (pairs the change won, lost,
# tied), both medians and both quartile pairs — what BENCHMARK.json's
# rule reads: a gain needs nine of ten pairs and a median gap wider than
# the parent's own quartile distance.
#
# Build each harness from its own checkout first, e.g.
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
set -euo pipefail

if [ "$#" -ne 5 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Runs that report failed operations still count (the summary carries the
# share); a harness that cannot run at all stops the script.
run() { # <harness> <seed> <out>
    "$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 >"$3" || [ -s "$3" ]
}

for ((k = 0; k < pairs; k++)); do
    seed=$((11 + k))
    if ((k % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        run "$bin" "$seed" "$tmp/$k.$side"
    done
    echo "pair $k seed $seed first ${order%% *}:" \
        "$(grep -h " ns_per_event " "$tmp/$k.parent" "$tmp/$k.change" | awk '{printf "%s ", $3}')" >&2
done

python3 - "$tmp" "$workload" "$pairs" "$seconds" <<'PY'
import json, statistics, sys

tmp, workload, pairs, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
METRICS = ["ns_per_event", "setup_s", "peak_rss_mib"]


def read(path):
    lines = open(path).read().splitlines()
    last = json.loads(lines[-1])
    digest = next(l.split()[2] for l in lines if l.split()[1:2] == ["digest"])
    row = {m: last["metrics"][m]["value"] for m in METRICS}
    row.update(digest=digest, attempted=last["attempted"], failed=last["failed"])
    return row


rows = []
for k in range(pairs):
    rows.append({
        "seed": 11 + k,
        "first": "parent" if k % 2 == 0 else "change",
        "parent": read(f"{tmp}/{k}.parent"),
        "change": read(f"{tmp}/{k}.change"),
    })


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


summary = {}
for m in METRICS:
    p = [r["parent"][m] for r in rows]
    c = [r["change"][m] for r in rows]
    summary[m] = {
        "change_lower": sum(b < a for a, b in zip(p, c)),
        "parent_lower": sum(a < b for a, b in zip(p, c)),
        "ties": sum(a == b for a, b in zip(p, c)),
        "parent": spread(p),
        "change": spread(c),
    }
json.dump({
    "workload": workload,
    "seconds": seconds,
    "pairs": rows,
    "summary": summary,
    "digests_equal": all(r["parent"]["digest"] == r["change"]["digest"] for r in rows),
    "failed": {s: sum(r[s]["failed"] for r in rows) for s in ("parent", "change")},
}, sys.stdout, indent=1)
print()
PY
