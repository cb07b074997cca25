#!/usr/bin/env bash
# resume-smoke.sh — kill -9 a wmmd mid-job and assert the restarted
# server resumes the job from its checkpoints and finishes it.  Three
# legs share one data directory: a run, a litmus campaign and a
# fence-strategy optimizer job.  The campaign's canonical JSON and the
# optimizer's canonical report must be byte-identical to the same specs
# run on an uninterrupted plain wmmd.
#
# This is the out-of-process counterpart of TestCrashResumeDeterminism,
# TestCrashResumeCampaign and TestCrashResumeOptimize: the Go tests
# simulate the crash with a graceful Shutdown (which deliberately
# writes no terminal record); this script kills the real binary with
# SIGKILL, so the whole chain — fsynced checkpoints, torn tails,
# startup replay — is exercised against an actual dead process.
#
# All API interaction goes through wmmctl (the typed wmm/client), not
# hand-rolled curl/sed: the smoke test exercises the same client real
# consumers use.
set -euo pipefail

ADDR="127.0.0.1:8351"
ADDR_REF="127.0.0.1:8352"
BASE="http://$ADDR"
DATA="$(mktemp -d)"
PID=""
REF=""
trap 'kill -9 $PID $REF 2>/dev/null || true; rm -rf "$DATA"' EXIT

go build -o "$DATA/wmmd" ./cmd/wmmd
go build -o "$DATA/wmmctl" ./cmd/wmmctl
CTL="$DATA/wmmctl -server $BASE"

# start N launches the durable wmmd, logging to wmmd-N.log.
start() {
  LOG="$DATA/wmmd-$1.log"
  "$DATA/wmmd" -addr "$ADDR" -data "$DATA/runs" >"$LOG" 2>&1 &
  PID=$!
  $CTL -timeout 30s ready || { echo "resume-smoke: wmmd start $1 never became ready" >&2; cat "$LOG" >&2; exit 1; }
}

# has_rec REC ID: the store's log segments hold a REC record for job ID.
has_rec() { grep -qs "\"rec\":\"$1\",\"id\":\"$2\"" "$DATA"/runs/*.log; }

# crash ID: wait for the job's first durable checkpoint, then kill -9
# the server while the job is still running.
crash() {
  for _ in $(seq 1 300); do
    if has_rec experiment "$1"; then break; fi
    sleep 0.1
  done
  has_rec experiment "$1" || { echo "resume-smoke: $1: no checkpoint before timeout" >&2; cat "$LOG" >&2; exit 1; }
  kill -9 "$PID"
  wait "$PID" 2>/dev/null || true
  if has_rec end "$1"; then
    echo "resume-smoke: $1 finished before the kill; nothing to resume" >&2
    exit 1
  fi
}

# restart N: start again over the same data directory; the interrupted
# job must be resumed.
restart() {
  start "$1"
  grep -q "1 interrupted jobs resumed" "$LOG" || { echo "resume-smoke: restart $1 did not resume" >&2; cat "$LOG" >&2; exit 1; }
}

# --- Leg 1: a run. ----------------------------------------------------
start 1
# fig4 is quick and checkpoints early; ext-c11 takes far longer — the
# kill lands while it is still running.
RUN=$($CTL submit '{"experiments":["fig4","ext-c11"],"short":true,"samples":1,"seed":3,"parallel":2}')
[ -n "$RUN" ] || { echo "resume-smoke: no run id" >&2; exit 1; }
crash "$RUN"
restart 2

if ! $CTL -timeout 15m wait "$RUN"; then
  echo "resume-smoke: resumed run did not finish cleanly" >&2
  $CTL status "$RUN" >&2 || true
  exit 1
fi

STATUS=$($CTL status "$RUN")
echo "$STATUS" | grep -q '"resumed": *true' || { echo "resume-smoke: run not marked resumed" >&2; exit 1; }
echo "$STATUS" | grep -q '"completed": *2' || { echo "resume-smoke: run incomplete: $STATUS" >&2; exit 1; }

# --- Leg 2: a litmus campaign, one shard in flight at a time. --------
LITMUS='{"arch":"armv8","gen_seed":7,"count":500,"trials":2,"seed":3,"shard_size":50,"parallel":1}'
CAMP=$($CTL litmus-submit "$LITMUS")
crash "$CAMP"
restart 3
$CTL -timeout 15m litmus-wait "$CAMP" || { echo "resume-smoke: resumed campaign failed" >&2; cat "$LOG" >&2; exit 1; }
$CTL litmus-canonical "$CAMP" > "$DATA/litmus-resumed.json"

# --- Leg 3: an optimizer job, one cell in flight at a time. ----------
OPTIMIZE='{"platform":"jvm","arch":"armv8","strategies":["jdk8-barriers","jdk9-acqrel"],"samples":3,"fit_costs":[8,32],"workload":{"max_cycles":60000},"seed":7,"parallel":1}'
JOB=$($CTL optimize-submit "$OPTIMIZE")
crash "$JOB"
restart 4
$CTL -timeout 10m optimize-wait "$JOB" || { echo "resume-smoke: resumed optimizer job failed" >&2; cat "$LOG" >&2; exit 1; }
$CTL optimize-report "$JOB" > "$DATA/optimize-resumed.json"

# --- The same specs, uninterrupted, on a plain wmmd. ------------------
"$DATA/wmmd" -addr "$ADDR_REF" >"$DATA/ref.log" 2>&1 &
REF=$!
REFCTL="$DATA/wmmctl -server http://$ADDR_REF"
$REFCTL -timeout 30s ready || { echo "resume-smoke: reference wmmd never became ready" >&2; cat "$DATA/ref.log" >&2; exit 1; }
ID=$($REFCTL litmus-submit "$LITMUS")
$REFCTL -timeout 15m litmus-wait "$ID" || { echo "resume-smoke: reference campaign failed" >&2; exit 1; }
$REFCTL litmus-canonical "$ID" > "$DATA/litmus-ref.json"
ID=$($REFCTL optimize-submit "$OPTIMIZE")
$REFCTL -timeout 10m optimize-wait "$ID" || { echo "resume-smoke: reference optimizer job failed" >&2; exit 1; }
$REFCTL optimize-report "$ID" > "$DATA/optimize-ref.json"

for kind in litmus optimize; do
  if ! diff -q "$DATA/$kind-ref.json" "$DATA/$kind-resumed.json" >/dev/null; then
    echo "resume-smoke: resumed $kind job diverged from the uninterrupted one" >&2
    diff "$DATA/$kind-ref.json" "$DATA/$kind-resumed.json" >&2 || true
    exit 1
  fi
done

echo "resume-smoke: ok ($RUN, $CAMP and $JOB resumed after SIGKILL and completed; canonical JSON identical to uninterrupted)"
