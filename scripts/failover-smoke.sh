#!/usr/bin/env bash
# failover-smoke.sh — kill -9 the active HA coordinator with work in
# flight and assert the standby takes over the lease, resumes the run,
# and finishes it byte-identical to an uninterrupted local run.
#
# This is the out-of-process counterpart of TestHAFailover plus
# TestCrashResumeDeterminism in one: two real wmmd processes in -ha mode
# share one -addr and one -data directory (segment store), two real
# wmmworker processes execute the jobs, and wmmctl — through the typed
# client's 503/dial retry — rides out the failover window without any
# special-casing.  The final assertion is the strongest one the system
# offers: the canonical JSON of the failed-over run diffs clean against
# the same spec executed on a plain single-process wmmd.
set -euo pipefail

ADDR="127.0.0.1:8357"        # shared by leader and standby; only the leader binds
OPS_A="127.0.0.1:8358"
OPS_B="127.0.0.1:8359"
ADDR_REF="127.0.0.1:8360"
DATA="$(mktemp -d)"
LOG_A="$DATA/node-a.log"
LOG_B="$DATA/node-b.log"
LOG="$DATA/smoke.log"
PIDS=()
trap 'kill -9 "${PIDS[@]}" 2>/dev/null || true; rm -rf "$DATA"' EXIT

go build -o "$DATA/wmmd" ./cmd/wmmd
go build -o "$DATA/wmmworker" ./cmd/wmmworker
go build -o "$DATA/wmmctl" ./cmd/wmmctl
CTL="$DATA/wmmctl -server http://$ADDR"

# fig4 finishes quickly and checkpoints; ext-c11 takes far longer, so
# the kill lands while it is still in flight.
SPEC='{"experiments":["fig4","ext-c11"],"short":true,"samples":1,"seed":3,"parallel":2}'

# role OPS_URL — the "role" field of an ops endpoint's /readyz, or
# "down" when the process does not answer.
role() {
  # No -f: a standby's /readyz is a 503 whose body carries the role.
  curl -sS --max-time 2 "http://$1/readyz" 2>/dev/null \
    | sed -n 's/.*"role": *"\([a-z]*\)".*/\1/p' || true
}

# --- Reference: the same spec on a plain, uninterrupted wmmd. --------
"$DATA/wmmd" -addr "$ADDR_REF" >>"$LOG" 2>&1 &
PIDS+=($!)
"$DATA/wmmctl" -server "http://$ADDR_REF" -timeout 30s ready \
  || { echo "failover-smoke: reference wmmd never became ready" >&2; cat "$LOG" >&2; exit 1; }
RUN_REF=$("$DATA/wmmctl" -server "http://$ADDR_REF" submit "$SPEC")
"$DATA/wmmctl" -server "http://$ADDR_REF" -timeout 15m wait "$RUN_REF" \
  || { echo "failover-smoke: reference run failed" >&2; exit 1; }
"$DATA/wmmctl" -server "http://$ADDR_REF" canonical "$RUN_REF" > "$DATA/ref.json"

# --- HA pair over one shared segment store, plus two workers. --------
# -max-batch 1 splits the two jobs across the two workers, so fig4's
# result uploads (and checkpoints) while ext-c11 is still in flight.
HA_FLAGS="-data $DATA/runs -ha -ha-ttl 1s -local-slots -1 -lease-ttl 2s -max-batch 1"
"$DATA/wmmd" $HA_FLAGS -addr "$ADDR" -ha-id node-a -ops-addr "$OPS_A" >>"$LOG_A" 2>&1 &
PID_A=$!
PIDS+=($PID_A)
$CTL -timeout 30s ready \
  || { echo "failover-smoke: node-a never became leader" >&2; cat "$LOG_A" >&2; exit 1; }

"$DATA/wmmd" $HA_FLAGS -addr "$ADDR" -ha-id node-b -ops-addr "$OPS_B" >>"$LOG_B" 2>&1 &
PIDS+=($!)

# The pair must agree on who leads before we inject the fault.
[ "$(role "$OPS_A")" = "leader" ] || { echo "failover-smoke: node-a ops does not report leader" >&2; exit 1; }
for _ in $(seq 1 50); do
  [ "$(role "$OPS_B")" = "standby" ] && break
  sleep 0.2
done
[ "$(role "$OPS_B")" = "standby" ] || { echo "failover-smoke: node-b never reported standby" >&2; cat "$LOG_B" >&2; exit 1; }

"$DATA/wmmworker" -coordinator "http://$ADDR" -id smoke-w1 -poll 100ms >>"$LOG" 2>&1 &
PIDS+=($!)
"$DATA/wmmworker" -coordinator "http://$ADDR" -id smoke-w2 -poll 100ms >>"$LOG" 2>&1 &
PIDS+=($!)

RUN=$($CTL submit "$SPEC")
[ -n "$RUN" ] || { echo "failover-smoke: no run id" >&2; exit 1; }

# Wait until fig4 is checkpointed but ext-c11 is still running, then
# kill the leader dead — no shutdown, no lease release.
for _ in $(seq 1 600); do
  ST=$($CTL status "$RUN" 2>/dev/null || true)
  if echo "$ST" | grep -q '"completed": *1'; then break; fi
  sleep 0.2
done
echo "$ST" | grep -q '"completed": *1' \
  || { echo "failover-smoke: run made no progress before timeout" >&2; cat "$LOG_A" >&2; exit 1; }
echo "$ST" | grep -q '"state": *"running"' \
  || { echo "failover-smoke: run finished before the kill; nothing to fail over" >&2; exit 1; }
kill -9 "$PID_A"
wait "$PID_A" 2>/dev/null || true

# The standby must notice the dead lease, take over, and resume the
# interrupted run from its checkpoint.
TOOK_OVER=
for _ in $(seq 1 150); do
  if [ "$(role "$OPS_B")" = "leader" ]; then TOOK_OVER=1; break; fi
  sleep 0.2
done
[ -n "$TOOK_OVER" ] || { echo "failover-smoke: node-b never took over" >&2; cat "$LOG_B" >&2; exit 1; }
grep -q "interrupted jobs resumed" "$LOG_B" \
  || { echo "failover-smoke: node-b did not replay the store on promotion" >&2; cat "$LOG_B" >&2; exit 1; }

# wmmctl rides out the window on the SAME shared address: the client
# retries refused connections and 503s with capped backoff.
if ! $CTL -timeout 15m wait "$RUN"; then
  echo "failover-smoke: run did not finish after failover" >&2
  $CTL status "$RUN" >&2 || true
  cat "$LOG_B" >&2
  exit 1
fi
STATUS=$($CTL status "$RUN")
echo "$STATUS" | grep -q '"resumed": *true' \
  || { echo "failover-smoke: run not marked resumed on the new leader" >&2; exit 1; }

# --- The acceptance criterion: byte-identical canonical JSON. --------
$CTL canonical "$RUN" > "$DATA/ha.json"
if ! diff -q "$DATA/ref.json" "$DATA/ha.json" >/dev/null; then
  echo "failover-smoke: canonical JSON diverged between uninterrupted and failed-over execution" >&2
  diff "$DATA/ref.json" "$DATA/ha.json" >&2 || true
  exit 1
fi

echo "failover-smoke: ok ($RUN survived kill -9 of the leader; node-b resumed it, canonical JSON identical)"
