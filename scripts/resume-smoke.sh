#!/usr/bin/env bash
# resume-smoke.sh — kill -9 a wmmd mid-run and assert the restarted
# server resumes the run from its checkpoint and finishes it.
#
# This is the out-of-process counterpart of TestCrashResumeDeterminism:
# the Go test simulates the crash with a graceful Shutdown (which
# deliberately writes no terminal record); this script kills the real
# binary with SIGKILL, so the whole chain — fsynced checkpoints, torn
# tails, startup replay — is exercised against an actual dead process.
#
# All API interaction goes through wmmctl (the typed wmm/client), not
# hand-rolled curl/sed: the smoke test exercises the same client real
# consumers use.
set -euo pipefail

ADDR="127.0.0.1:8351"
BASE="http://$ADDR"
DATA="$(mktemp -d)"
LOG="$DATA/wmmd.log"
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$DATA"' EXIT

go build -o "$DATA/wmmd" ./cmd/wmmd
go build -o "$DATA/wmmctl" ./cmd/wmmctl
CTL="$DATA/wmmctl -server $BASE"

"$DATA/wmmd" -addr "$ADDR" -data "$DATA/runs" >>"$LOG" 2>&1 &
PID=$!
$CTL -timeout 30s ready || { echo "resume-smoke: wmmd never became ready" >&2; cat "$LOG" >&2; exit 1; }

# fig4 is quick and checkpoints early; ext-c11 takes far longer — the
# kill lands while it is still running.
RUN=$($CTL submit '{"experiments":["fig4","ext-c11"],"short":true,"samples":1,"seed":3,"parallel":2}')
[ -n "$RUN" ] || { echo "resume-smoke: no run id" >&2; exit 1; }

# Wait for the run's first durable checkpoint in the store's log
# segments, then crash hard.
has_rec() { grep -qs "\"rec\":\"$1\",\"id\":\"$RUN\"" "$DATA"/runs/seg-*.log; }
for _ in $(seq 1 300); do
  if has_rec experiment; then break; fi
  sleep 0.2
done
has_rec experiment || { echo "resume-smoke: no checkpoint before timeout" >&2; cat "$LOG" >&2; exit 1; }
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

if has_rec end; then
  echo "resume-smoke: run finished before the kill; nothing to resume" >&2
  exit 1
fi

# Restart over the same data directory: the run must resume and finish.
"$DATA/wmmd" -addr "$ADDR" -data "$DATA/runs" >>"$LOG" 2>&1 &
PID=$!
$CTL -timeout 30s ready || { echo "resume-smoke: restarted wmmd never became ready" >&2; cat "$LOG" >&2; exit 1; }
grep -q "1 interrupted runs resumed" "$LOG" || { echo "resume-smoke: restart did not resume" >&2; cat "$LOG" >&2; exit 1; }

if ! $CTL -timeout 15m wait "$RUN"; then
  echo "resume-smoke: resumed run did not finish cleanly" >&2
  $CTL status "$RUN" >&2 || true
  exit 1
fi

STATUS=$($CTL status "$RUN")
echo "$STATUS" | grep -q '"resumed": *true' || { echo "resume-smoke: run not marked resumed" >&2; exit 1; }
echo "$STATUS" | grep -q '"completed": *2' || { echo "resume-smoke: run incomplete: $STATUS" >&2; exit 1; }

echo "resume-smoke: ok ($RUN resumed after SIGKILL and completed)"
