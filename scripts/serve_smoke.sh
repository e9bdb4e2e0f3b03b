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
# CLI wrote for the same spec. A `curl -N /events` started before the
# sweep captures the queue-event stream; after the daemon drains on SIGTERM
# and exits 0, curl must have exited by itself (the event hub ended the
# stream) and the capture must show every child enqueued, leased and
# completed, and the sweep parent finalized. The next stage checks that a
# kill -9 loses nothing: a sweep of two 1.5 s runs goes to a daemon with
# two workers, which is SIGKILLed once both runs are leased and restarted
# on the same state dir; recovery must revert both leases, and the sweep
# must finish with every run done on its first attempt (crashes 1) and
# equal to the CLI golden. A last stage submits more than 16 MiB of
# events, the cap on one queue record, as one sweep on a fresh state dir: the parent must finalize, the drain must leave the
# queue's journal and checkpoint under 1 MiB, and after a restart every
# child's result and /events stream must still match the CLI goldens.
# Each passing step prints one ✓ line.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}

workdir=$(mktemp -d)
daemon_pid=""
curl_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
    [ -n "$curl_pid" ] && kill -9 "$curl_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

$GO build -o "$workdir/gangsim" ./cmd/gangsim
$GO build -o "$workdir/gangsimd" ./cmd/gangsimd
$GO build -o "$workdir/store" ./cmd/store
echo "✓ binaries built"

# start_daemon DIR [FLAG...] boots gangsimd over the state dir DIR with
# any further flags, logging to DIR.log, and sets daemon_pid and addr.
start_daemon() {
    "$workdir/gangsimd" -addr 127.0.0.1:0 -dir "$1" -drain-grace 30s "${@:2}" 2> "$1.log" &
    daemon_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1.log" | head -1)
        [ -n "$addr" ] && return 0
        kill -0 "$daemon_pid" 2>/dev/null || { echo "gangsimd died at startup:"; cat "$1.log"; exit 1; }
        sleep 0.1
    done
    echo "gangsimd never reported its address"; cat "$1.log"; exit 1
}

# stop_daemon DIR sends SIGTERM and requires a clean drain: exit 0 and the
# drain marker in DIR.log.
stop_daemon() {
    kill -TERM "$daemon_pid"
    local rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    [ "$rc" -eq 0 ] || { echo "gangsimd exited $rc on SIGTERM (want clean drain):"; cat "$1.log"; exit 1; }
    grep -q drained "$1.log" || { echo "daemon log missing drain marker"; cat "$1.log"; exit 1; }
}

# wait_done JOB WHAT polls the job list until JOB is done, and fails if it
# dead-letters or is still unfinished after a minute.
wait_done() {
    local state=""
    for _ in $(seq 1 300); do
        state=$(curl -sSf "http://$addr/jobs" | jq -r --arg id "$1" '.jobs[] | select(.id == $id) | .state')
        [ "$state" = done ] && return 0
        [ "$state" = dead ] && { echo "$2 dead-lettered:"; curl -s "http://$addr/jobs" | jq --arg id "$1" '.jobs[] | select(.id == $id)'; exit 1; }
        sleep 0.2
    done
    echo "$2 stuck in state '$state'"; exit 1
}

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
echo "✓ CLI goldens written"

start_daemon "$workdir/state"
echo "✓ gangsimd listening on $addr"

# Follow the queue-event stream from before the first submission until the
# daemon drains.
curl -sSN "http://$addr/events" > "$workdir/queue.ndjson" &
curl_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/queue.ndjson" ] && break
    sleep 0.1
done
[ -s "$workdir/queue.ndjson" ] || { echo "GET /events delivered nothing"; exit 1; }
echo "✓ GET /events streaming"

jq -n --slurpfile a "$workdir/spec1.json" --slurpfile b "$workdir/spec2.json" \
    '{kind:"sweep", specs:[$a[0], $b[0]]}' > "$workdir/submit.json"
parent=$(curl -sSf -X POST "http://$addr/jobs" --data-binary @"$workdir/submit.json" | jq -r .id)
echo "✓ submitted sweep $parent"
wait_done "$parent" sweep
echo "✓ sweep done"

curl -sSf "http://$addr/jobs/$parent" | jq -S '.result[0].result' > "$workdir/served1.json"
curl -sSf "http://$addr/jobs/$parent" | jq -S '.result[1].result' > "$workdir/served2.json"
diff -u "$workdir/golden1.json" "$workdir/served1.json" \
    || { echo "served result 1 differs from CLI golden"; exit 1; }
diff -u "$workdir/golden2.json" "$workdir/served2.json" \
    || { echo "served result 2 differs from CLI golden"; exit 1; }
echo "✓ served results match CLI goldens"

# Trace store: an event-capturing run's history is persisted as indexed
# binary segments under the daemon's state dir. Both the store-served
# /events?run= stream and an offline `store dump` of the same run must be
# byte-identical to the JSONL the gangsim CLI wrote for the same spec.
jq -n --slurpfile s "$workdir/spec1.json" '{kind:"run", spec:$s[0], events:true}' > "$workdir/submit4.json"
evjob=$(curl -sSf -X POST "http://$addr/jobs" --data-binary @"$workdir/submit4.json" | jq -r .id)
echo "✓ submitted event-capturing run $evjob"
wait_done "$evjob" "event run"

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
echo "✓ trace store round-trips the CLI event golden (dump + /events)"

curl -sSf "http://$addr/metrics" | grep -q gangsimd_queue_depth \
    || { echo "/metrics missing queue depth"; exit 1; }
curl -sSf "http://$addr/healthz" | jq -e '.status == "ok"' > /dev/null
echo "✓ /metrics and /healthz answer"
children=$(curl -sSf "http://$addr/jobs/$parent" | jq -r '.children[].id')
[ "$(echo "$children" | wc -w)" -eq 2 ] || { echo "sweep has children '$children', want 2"; exit 1; }

stop_daemon "$workdir/state"
echo "✓ SIGTERM drained cleanly (exit 0)"

# The drain closes the event hub, which ends every /events stream: curl
# must exit by itself, and cleanly (a cut connection exits non-zero).
for _ in $(seq 1 50); do
    kill -0 "$curl_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$curl_pid" 2>/dev/null; then
    echo "GET /events still open after the drain"; exit 1
fi
rc=0
wait "$curl_pid" || rc=$?
curl_pid=""
[ "$rc" -eq 0 ] || { echo "GET /events ended with curl exit $rc, want a clean end of stream"; exit 1; }
echo "✓ drain ended the /events stream"

has_event() { # job kind
    jq -se --arg job "$1" --arg kind "$2" 'any(.[]; .job == $job and .kind == $kind)' \
        "$workdir/queue.ndjson" > /dev/null
}
for child in $children; do
    for kind in enqueued leased completed; do
        has_event "$child" "$kind" || { echo "/events lacks $kind for child $child"; exit 1; }
    done
done
has_event "$parent" finalized || { echo "/events lacks finalized for sweep $parent"; exit 1; }
echo "✓ /events showed each child enqueued, leased and completed, and the sweep finalized"

# kill -9 mid-sweep. With no lease expiry, a crash is the only way a lease
# ends without a verdict short of a failing disk; a restart must revert it
# without charging an attempt and run the job again to the same result.
cat > "$workdir/kill.json" <<'EOF'
{"seed":5,"nodes":4,"memoryMB":64,"policy":"orig","quantum":"2s","jobs":[
 {"name":"a","footprintMB":40,"iterations":3000,"touchCostUs":50},
 {"name":"b","footprintMB":40,"iterations":3000,"touchCostUs":50}]}
EOF
"$workdir/gangsim" -config "$workdir/kill.json" -json | jq -S . > "$workdir/kill.golden.json"
echo "✓ CLI golden written for the kill -9 stage"

start_daemon "$workdir/kill" -workers 2
jq -n --slurpfile s "$workdir/kill.json" '{kind:"sweep", specs:[$s[0], $s[0]]}' > "$workdir/submit_kill.json"
victim=$(curl -sSf -X POST "http://$addr/jobs" --data-binary @"$workdir/submit_kill.json" | jq -r .id)
echo "✓ submitted sweep $victim to two workers"
leased=0
for _ in $(seq 1 100); do
    leased=$(curl -sSf "http://$addr/jobs" | jq --arg id "$victim" '[.jobs[] | select(.parent == $id and .state == "leased")] | length')
    [ "$leased" -eq 2 ] && break
    sleep 0.05
done
[ "$leased" -eq 2 ] || { echo "sweep $victim has $leased leased children, want 2"; exit 1; }
echo "✓ both children leased"
{ kill -9 "$daemon_pid"; wait "$daemon_pid"; } 2>/dev/null || true
daemon_pid=""
start_daemon "$workdir/kill" -workers 2
grep -q "revertedLeases=2" "$workdir/kill.log" || { echo "restart did not revert 2 leases:"; cat "$workdir/kill.log"; exit 1; }
echo "✓ kill -9 and restart on $addr: revertedLeases=2"
wait_done "$victim" "sweep after kill -9"
echo "✓ parent done"
curl -sSf "http://$addr/jobs" | jq -e --arg id "$victim" \
    '[.jobs[] | select(.parent == $id)] | length == 2 and all(.state == "done" and .attempts == 0 and .crashes == 1)' > /dev/null \
    || { echo "children after kill -9:"; curl -s "http://$addr/jobs" | jq --arg id "$victim" '.jobs[] | select(.parent == $id)'; exit 1; }
echo "✓ every child done with attempts 0 and crashes 1"
for kid in $(curl -sSf "http://$addr/jobs" | jq -r --arg id "$victim" '.jobs[] | select(.parent == $id) | .id'); do
    curl -sSf "http://$addr/jobs/$kid" | jq -S .result.result | diff -u "$workdir/kill.golden.json" - \
        || { echo "child $kid result differs from the CLI golden"; exit 1; }
done
echo "✓ every child's result matches the CLI golden"
stop_daemon "$workdir/kill"
echo "✓ SIGTERM drained cleanly (exit 0)"

# More than 16 MiB of events: the five class B orig pairs of Figure 7 as
# one event-capturing sweep (about 17 MB of JSONL). Each spec sets the
# pair up as gangsim -app does: memory locked down to the model's
# available size (AvailMB in internal/workload), a 5m quantum and
# working-set hints; its CLI result must equal gangsim -app's.
pairs=(LU:238 SP:400 CG:450 IS:380 MG:560)
bytes=0
for pair in "${pairs[@]}"; do
    app=${pair%:*}
    jq -n --arg app "$app" --argjson locked $((1024 - ${pair#*:})) \
        '{seed:1, nodes:1, memoryMB:1024, lockedMB:$locked, policy:"orig", quantum:"5m",
          jobs:[{name:"\($app)-1", app:$app, class:"B", hintWS:true},
                {name:"\($app)-2", app:$app, class:"B", hintWS:true}]}' > "$workdir/$app.json"
    "$workdir/gangsim" -config "$workdir/$app.json" -json -events "$workdir/$app.jsonl" | jq -S . > "$workdir/$app.golden.json"
    "$workdir/gangsim" -app "$app" -class B -policy orig -json | jq -S . \
        | diff -u "$workdir/$app.golden.json" - || { echo "$app spec differs from gangsim -app"; exit 1; }
    bytes=$((bytes + $(stat -c %s "$workdir/$app.jsonl")))
done
[ "$bytes" -gt $((16 << 20)) ] || { echo "the pairs' events hold $bytes bytes, want over 16 MiB"; exit 1; }
echo "✓ class B orig pair goldens written ($bytes bytes of events)"

start_daemon "$workdir/big"
jq -n '{kind:"sweep", events:true, specs:[inputs]}' \
    "$workdir/LU.json" "$workdir/SP.json" "$workdir/CG.json" "$workdir/IS.json" "$workdir/MG.json" > "$workdir/submit_big.json"
big=$(curl -sSf -X POST "http://$addr/jobs" --data-binary @"$workdir/submit_big.json" | jq -r .id)
echo "✓ submitted event-capturing sweep $big on a fresh state dir"
wait_done "$big" "event-capturing sweep"
echo "✓ parent done"
mapfile -t kids < <(curl -sSf "http://$addr/jobs" | jq -r --arg id "$big" '.jobs[] | select(.parent == $id) | .id')
[ "${#kids[@]}" -eq 5 ] || { echo "sweep has ${#kids[@]} children, want 5"; exit 1; }
stop_daemon "$workdir/big"
echo "✓ SIGTERM drained cleanly (exit 0)"
qbytes=$(( $(stat -c %s "$workdir/big/queue.journal") + $(stat -c %s "$workdir/big/queue.checkpoint") ))
[ "$qbytes" -lt $((1 << 20)) ] || { echo "queue journal and checkpoint hold $qbytes bytes, want under 1 MiB"; exit 1; }
echo "✓ queue journal and checkpoint hold $qbytes bytes"

start_daemon "$workdir/big"
echo "✓ gangsimd restarted on $addr"
for i in "${!kids[@]}"; do
    app=${pairs[$i]%:*}
    curl -sSf "http://$addr/jobs/${kids[$i]}" | jq -S .result.result \
        | diff -u "$workdir/$app.golden.json" - || { echo "$app result differs from its CLI golden"; exit 1; }
done
echo "✓ every child's result matches its CLI golden"
for i in "${!kids[@]}"; do
    app=${pairs[$i]%:*}
    curl -sSf "http://$addr/events?run=${kids[$i]}" | cmp "$workdir/$app.jsonl" - \
        || { echo "$app /events stream differs from its CLI JSONL golden"; exit 1; }
done
echo "✓ every child's /events stream matches its CLI JSONL golden"
stop_daemon "$workdir/big"
