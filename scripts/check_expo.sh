#!/usr/bin/env bash
# CI smoke check for the exposition server (docs/OBSERVABILITY.md):
# starts `rps_tool serve --durable group` (the serving engine behind a
# group-commit WAL, so /healthz has both its engine and its durable
# source) on an ephemeral port with the slow-query log armed and an
# event-log sink attached, scrapes every endpoint while the serve
# workload runs, and validates the live /metrics.json scrape with
# scripts/check_metrics_schema.py --url. Fails if any endpoint is
# unreachable, malformed, or missing its contract fields.
#
# Usage: scripts/check_expo.sh [build-dir]   (default: build/release)
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build/release}
tool="$build_dir/tools/rps_tool"
if [ ! -x "$tool" ]; then
  echo "check_expo.sh: $tool not built" >&2
  exit 2
fi

work=$(mktemp -d)
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
  [ -n "$serve_pid" ] && wait "$serve_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

port_file="$work/port"
"$tool" serve --shape 32x32 --port 0 --port-file "$port_file" \
  --duration-s 2 --readers 1 --slow-query-us 1 \
  --event-log "$work/events.jsonl" --durable group --dir "$work/durable" \
  > "$work/serve.log" 2>&1 &
serve_pid=$!

# Wait for the port file (the server writes it after binding).
for _ in $(seq 1 50); do
  [ -s "$port_file" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "check_expo.sh: serve exited early:" >&2
    cat "$work/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -s "$port_file" ] || { echo "check_expo.sh: no port file" >&2; exit 1; }
port=$(cat "$port_file")
base="http://127.0.0.1:$port"

fetch() {
  python3 -c '
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    sys.stdout.write(r.read().decode("utf-8"))
' "$1"
}

require() {  # require <haystack-file> <needle> <what>
  grep -q -- "$2" "$1" || {
    echo "check_expo.sh: FAIL: $3 ($2 not found)" >&2
    exit 1
  }
}

fetch "$base/healthz" > "$work/healthz"
require "$work/healthz" '"status":"ok"' "/healthz status"
require "$work/healthz" '"engine"' "/healthz engine source"
require "$work/healthz" '"durable"' "/healthz durable source"

fetch "$base/varz" > "$work/varz"
require "$work/varz" '"pid":' "/varz pid"
require "$work/varz" '"event_log"' "/varz event_log block"

fetch "$base/metrics" > "$work/metrics"
require "$work/metrics" '^# TYPE rps_' "/metrics Prometheus text"

fetch "$base/debug/slow" > "$work/slow"
require "$work/slow" '"spans":\[' "/debug/slow span trees"
require "$work/slow" '"op":"engine\.' "/debug/slow serving-engine records"

# The live JSON exposition, validated by the schema checker itself
# (structure only: the serve workload does not touch every subsystem
# the offline rps_tool metrics workload covers).
python3 scripts/check_metrics_schema.py --structure-only \
  --url "$base/metrics.json"

# The wide-event sink received well-formed JSONL.
wait "$serve_pid"
serve_pid=""
[ -s "$work/events.jsonl" ] || {
  echo "check_expo.sh: FAIL: event log is empty" >&2
  exit 1
}
head -1 "$work/events.jsonl" | grep -q '"trace_id":' || {
  echo "check_expo.sh: FAIL: event log line missing trace_id" >&2
  exit 1
}

echo "check_expo.sh: OK (port $port, $(wc -l < "$work/events.jsonl") wide events)"
