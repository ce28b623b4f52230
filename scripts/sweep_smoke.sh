#!/usr/bin/env bash
# sweep_smoke.sh — end-to-end smoke test of POST /sweeps with the REAL
# binaries. One hscserve process with an on-disk cache serves a batch
# sweep from hscsweep; a second hscserve process opened on the same
# cache directory serves the repeat. The script proves
#
#   1. the server's per-cell results are byte-identical to an in-process
#      run of the same sweep (content-addressed determinism end to end),
#   2. a repeat of the sweep on the second process is served ≥90% from
#      the shared cache directory without re-simulating,
#   3. those hits came from disk (engine.cache.disk_hits > 0 on the
#      second process's /metrics): results cross processes through the
#      directory alone.
#
# Run from the repository root with no arguments; CI runs it on every
# push. BENCH, SCALE and BASE_PORT override the defaults.
set -euo pipefail

BENCH=${BENCH:-bs}
SCALE=${SCALE:-1}
BASE_PORT=${BASE_PORT:-18091}
WORK=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

start_server() { # url, then extra hscserve flags
  local url=$1
  shift
  "$WORK/hscserve" -addr "${url#http://}" -workers 2 "$@" 2>>"$WORK/server.log" &
  PIDS+=($!)
  for _ in $(seq 1 50); do
    curl -sf "$url/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "FAIL: hscserve at $url never came up" >&2
  cat "$WORK/server.log" >&2
  exit 1
}

echo "== building binaries"
go build -o "$WORK/hscserve" ./cmd/hscserve
go build -o "$WORK/hscsweep" ./cmd/hscsweep

echo "== in-process reference sweep ($BENCH, scale $SCALE)"
"$WORK/hscsweep" -bench "$BENCH" -scale "$SCALE" -dump "$WORK/ref.tsv" >/dev/null

CACHE="$WORK/cache"
URL1="http://127.0.0.1:$BASE_PORT"
URL2="http://127.0.0.1:$((BASE_PORT + 1))"

echo "== batch sweep via $URL1 (cache $CACHE)"
start_server "$URL1" -cache "$CACHE"
"$WORK/hscsweep" -server "$URL1" -bench "$BENCH" -scale "$SCALE" \
  -dump "$WORK/server.tsv" | tail -1

echo "== byte-identity: server vs in-process"
cmp "$WORK/ref.tsv" "$WORK/server.tsv" || {
  echo "FAIL: server results differ from the in-process run" >&2
  exit 1
}

echo "== repeat sweep via a second process on the same cache directory ($URL2)"
start_server "$URL2" -cache "$CACHE"
"$WORK/hscsweep" -server "$URL2" -bench "$BENCH" -scale "$SCALE" \
  -dump "$WORK/repeat.tsv" | tee "$WORK/repeat.out" | tail -1
cmp "$WORK/ref.tsv" "$WORK/repeat.tsv" || {
  echo "FAIL: repeat-sweep results differ" >&2
  exit 1
}
summary=$(grep -E '^server: ' "$WORK/repeat.out" | tail -1)
total=$(echo "$summary" | sed -n 's/^server: \([0-9]*\) cells.*/\1/p')
cached=$(echo "$summary" | sed -n 's/.* \([0-9]*\) served from cache.*/\1/p')
if [ -z "$total" ] || [ -z "$cached" ]; then
  echo "FAIL: could not parse sweep summary: $summary" >&2
  exit 1
fi
if [ $((cached * 10)) -lt $((total * 9)) ]; then
  echo "FAIL: repeat sweep only $cached/$total cells cached (<90%)" >&2
  exit 1
fi
echo "repeat sweep: $cached/$total cells served from cache"

disk_hits=$(curl -sf "$URL2/metrics" | awk '$1 == "engine.cache.disk_hits" {print $2}')
if [ -z "$disk_hits" ] || [ "$disk_hits" -eq 0 ]; then
  echo "FAIL: second process shows no engine.cache.disk_hits" >&2
  curl -sf "$URL2/metrics" >&2 || true
  exit 1
fi
echo "second process disk hits: $disk_hits"

echo "PASS: sweep smoke (byte-identical, repeat served from the shared cache directory)"
