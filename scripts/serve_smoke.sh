#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the gangsimd service binary.
#
# Boots gangsimd on a random port with a fresh state dir, submits a two-run
# sweep over HTTP, polls it to completion, and asserts each served result
# is identical (modulo JSON formatting) to what the gangsim CLI produces
# for the same spec — the service must add durability, not change results.
# An event-capturing run then checks the trace store path: the
# store-served /events?run= stream and an offline `store dump` of the
# daemon's store must both be byte-equal to the JSONL golden the gangsim
# CLI wrote for the same spec. Finally SIGTERMs the daemon and asserts it
# drains and exits 0.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

$GO build -o "$workdir/gangsim" ./cmd/gangsim
$GO build -o "$workdir/gangsimd" ./cmd/gangsimd
$GO build -o "$workdir/store" ./cmd/store

spec() {
    cat <<EOF
{"seed":$1,"nodes":1,"memoryMB":8,"policy":"so/ao/ai/bg","quantum":"1s","jobs":[
 {"name":"a","footprintMB":4,"iterations":40,"touchCostUs":50},
 {"name":"b","footprintMB":4,"iterations":40,"touchCostUs":50}]}
EOF
}
spec 21 > "$workdir/spec1.json"
spec 22 > "$workdir/spec2.json"

# CLI goldens: the same specs run directly, results canonicalised with jq.
# spec1 also records its event stream as the JSONL golden for the trace
# store checks below.
"$workdir/gangsim" -config "$workdir/spec1.json" -json -events "$workdir/golden1.jsonl" | jq -S . > "$workdir/golden1.json"
"$workdir/gangsim" -config "$workdir/spec2.json" -json | jq -S . > "$workdir/golden2.json"

"$workdir/gangsimd" -addr 127.0.0.1:0 -dir "$workdir/state" -drain-grace 30s \
    2> "$workdir/daemon.log" &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$workdir/daemon.log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "gangsimd died at startup:"; cat "$workdir/daemon.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "gangsimd never reported its address"; cat "$workdir/daemon.log"; exit 1; }
echo "serve-smoke: gangsimd on $addr"

jq -n --slurpfile a "$workdir/spec1.json" --slurpfile b "$workdir/spec2.json" \
    '{kind:"sweep", specs:[$a[0], $b[0]]}' > "$workdir/submit.json"
parent=$(curl -sSf -X POST "http://$addr/jobs" --data-binary @"$workdir/submit.json" | jq -r .id)
echo "serve-smoke: submitted sweep $parent"

state=""
for _ in $(seq 1 300); do
    state=$(curl -sSf "http://$addr/jobs/$parent" | jq -r .state)
    [ "$state" = done ] && break
    [ "$state" = dead ] && { echo "sweep dead-lettered:"; curl -s "http://$addr/jobs/$parent" | jq .; exit 1; }
    sleep 0.2
done
[ "$state" = done ] || { echo "sweep stuck in state '$state'"; exit 1; }

curl -sSf "http://$addr/jobs/$parent" | jq -S '.result[0].result' > "$workdir/served1.json"
curl -sSf "http://$addr/jobs/$parent" | jq -S '.result[1].result' > "$workdir/served2.json"
diff -u "$workdir/golden1.json" "$workdir/served1.json" \
    || { echo "served result 1 differs from CLI golden"; exit 1; }
diff -u "$workdir/golden2.json" "$workdir/served2.json" \
    || { echo "served result 2 differs from CLI golden"; exit 1; }
echo "serve-smoke: served results match CLI goldens"

# Trace store: an event-capturing run's history is persisted as indexed
# binary segments under the daemon's state dir. Both the store-served
# /events?run= stream and an offline `store dump` of the same run must be
# byte-identical to the JSONL the gangsim CLI wrote for the same spec.
jq -n --slurpfile s "$workdir/spec1.json" '{kind:"run", spec:$s[0], events:true}' > "$workdir/submit4.json"
evjob=$(curl -sSf -X POST "http://$addr/jobs" --data-binary @"$workdir/submit4.json" | jq -r .id)
echo "serve-smoke: submitted event-capturing run $evjob"
state=""
for _ in $(seq 1 300); do
    state=$(curl -sSf "http://$addr/jobs/$evjob" | jq -r .state)
    [ "$state" = done ] && break
    [ "$state" = dead ] && { echo "event run dead-lettered:"; curl -s "http://$addr/jobs/$evjob" | jq .; exit 1; }
    sleep 0.2
done
[ "$state" = done ] || { echo "event run stuck in state '$state'"; exit 1; }

curl -sSf "http://$addr/events?run=$evjob" > "$workdir/served.jsonl"
cmp "$workdir/golden1.jsonl" "$workdir/served.jsonl" \
    || { echo "store-served /events stream differs from CLI JSONL golden"; exit 1; }
"$workdir/store" dump "$workdir/state/store" "$evjob" -o "$workdir/dump.jsonl"
cmp "$workdir/golden1.jsonl" "$workdir/dump.jsonl" \
    || { echo "store dump differs from CLI JSONL golden"; exit 1; }
"$workdir/store" runs "$workdir/state/store" | grep -q "$evjob" \
    || { echo "store runs does not list $evjob"; exit 1; }
# A bounded range query must be a strict prefix filter of the full stream.
curl -sSf "http://$addr/events?run=$evjob&to=2s" > "$workdir/served_head.jsonl"
head -n "$(wc -l < "$workdir/served_head.jsonl")" "$workdir/golden1.jsonl" \
    | cmp - "$workdir/served_head.jsonl" \
    || { echo "ranged /events stream is not a prefix of the golden"; exit 1; }
[ -s "$workdir/served_head.jsonl" ] || { echo "ranged /events stream is empty"; exit 1; }
echo "serve-smoke: trace store round-trips the CLI event golden (dump + /events)"

curl -sSf "http://$addr/metrics" | grep -q gangsimd_queue_depth \
    || { echo "/metrics missing queue depth"; exit 1; }
curl -sSf "http://$addr/healthz" | jq -e '.status == "ok"' > /dev/null

kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || { echo "gangsimd exited $rc on SIGTERM (want clean drain):"; cat "$workdir/daemon.log"; exit 1; }
grep -q drained "$workdir/daemon.log" || { echo "daemon log missing drain marker"; cat "$workdir/daemon.log"; exit 1; }
echo "serve-smoke: SIGTERM drained cleanly (exit 0)"
