#!/usr/bin/env bash
# fencing-smoke.sh — three-node HA soak for the lease fencing token:
# repeatedly kill -9 the coordinator with work in flight, restart the
# victim as a standby, then freeze the final-round leader with SIGSTOP
# until a rival claims the lease and assert the thawed process refuses
# to keep serving — it must exit 3 (deposed), never write as a zombie.
# The run's canonical JSON must come out byte-identical to the same
# spec executed on an uninterrupted single-process wmmd.
#
# Unlike failover-smoke.sh (two nodes sharing one -addr), every node
# here binds its own address: a SIGSTOPped leader still holds its
# listening socket, so a shared address would block the successor's
# bind and turn the fencing scenario into a bind-retry scenario.  Each
# node executes locally (-local-slots 2, no separate workers), so the
# kills land on the process actually computing samples.
set -euo pipefail

API=(127.0.0.1:8370 127.0.0.1:8371 127.0.0.1:8372)
OPS=(127.0.0.1:8373 127.0.0.1:8374 127.0.0.1:8375)
ADDR_REF="127.0.0.1:8376"
DATA="$(mktemp -d)"
LOG="$DATA/smoke.log"
PID=("" "" "")
cleanup() {
  local p
  for p in "${PID[@]}" "${REF_PID:-}"; do
    if [ -n "$p" ]; then kill -9 "$p" 2>/dev/null || true; fi
  done
  rm -rf "$DATA"
}
trap cleanup EXIT

go build -o "$DATA/wmmd" ./cmd/wmmd
go build -o "$DATA/wmmctl" ./cmd/wmmctl

# fig4 finishes and checkpoints quickly; ext-c11 keeps samples in
# flight long enough for the kill loop to interrupt it repeatedly.
SPEC='{"experiments":["fig4","ext-c11"],"short":true,"samples":2,"seed":3,"parallel":2}'
HA_FLAGS="-data $DATA/runs -ha -ha-ttl 1s -local-slots 2 -max-batch 1"

# role OPS_ADDR — "leader", "standby", or "" when the process is down
# or stopped (curl times out against a SIGSTOPped listener).
role() {
  curl -sS --max-time 2 "http://$1/readyz" 2>/dev/null \
    | sed -n 's/.*"role": *"\([a-z]*\)".*/\1/p' || true
}

start_node() { # start_node IDX
  local i=$1
  "$DATA/wmmd" $HA_FLAGS -addr "${API[$i]}" -ops-addr "${OPS[$i]}" \
    -ha-id "node-$i" >>"$DATA/node-$i.log" 2>&1 &
  PID[$i]=$!
}

# leader_idx [EXCLUDE] — poll up to 30s for any node (other than
# EXCLUDE) to report leader; prints its index.
leader_idx() {
  local exclude="${1:--1}" i
  for _ in $(seq 1 150); do
    for i in 0 1 2; do
      [ "$i" = "$exclude" ] && continue
      if [ "$(role "${OPS[$i]}")" = "leader" ]; then echo "$i"; return 0; fi
    done
    sleep 0.2
  done
  echo "fencing-smoke: no leader emerged within 30s" >&2
  for i in 0 1 2; do tail -5 "$DATA/node-$i.log" >&2 || true; done
  return 1
}

# --- Reference: the same spec, one plain process, never interrupted. --
"$DATA/wmmd" -addr "$ADDR_REF" >>"$LOG" 2>&1 &
REF_PID=$!
"$DATA/wmmctl" -server "http://$ADDR_REF" -timeout 30s ready \
  || { echo "fencing-smoke: reference wmmd never became ready" >&2; cat "$LOG" >&2; exit 1; }
RUN_REF=$("$DATA/wmmctl" -server "http://$ADDR_REF" submit "$SPEC")
"$DATA/wmmctl" -server "http://$ADDR_REF" -timeout 15m wait "$RUN_REF" \
  || { echo "fencing-smoke: reference run failed" >&2; exit 1; }
"$DATA/wmmctl" -server "http://$ADDR_REF" canonical "$RUN_REF" > "$DATA/ref.json"
kill -9 "$REF_PID" 2>/dev/null || true

# --- Three-node cluster over one shared segment store. ---------------
for i in 0 1 2; do start_node "$i"; done
LEAD=$(leader_idx)
CTL="$DATA/wmmctl -server http://${API[$LEAD]}"
$CTL -timeout 30s ready \
  || { echo "fencing-smoke: node-$LEAD ops says leader but API not ready" >&2; exit 1; }

RUN=$($CTL submit "$SPEC")
[ -n "$RUN" ] || { echo "fencing-smoke: no run id" >&2; exit 1; }
for _ in $(seq 1 600); do
  ST=$($CTL status "$RUN" 2>/dev/null || true)
  if echo "$ST" | grep -q '"completed": *1'; then break; fi
  sleep 0.2
done
echo "$ST" | grep -q '"completed": *1' \
  || { echo "fencing-smoke: run made no progress before the first kill" >&2; cat "$DATA/node-$LEAD.log" >&2; exit 1; }

# --- Kill loop: two rounds of kill -9 + restart-as-standby. ----------
for round in 1 2; do
  echo "fencing-smoke: round $round — kill -9 node-$LEAD (leader)"
  kill -9 "${PID[$LEAD]}"
  wait "${PID[$LEAD]}" 2>/dev/null || true
  VICTIM=$LEAD
  LEAD=$(leader_idx "$VICTIM")
  CTL="$DATA/wmmctl -server http://${API[$LEAD]}"
  $CTL -timeout 60s ready \
    || { echo "fencing-smoke: new leader node-$LEAD API not ready" >&2; cat "$DATA/node-$LEAD.log" >&2; exit 1; }
  grep -q "interrupted jobs resumed" "$DATA/node-$LEAD.log" \
    || { echo "fencing-smoke: node-$LEAD promoted without replaying the store" >&2; cat "$DATA/node-$LEAD.log" >&2; exit 1; }
  start_node "$VICTIM"   # rejoin as standby for the next round
done

# --- Fencing round: freeze the leader instead of killing it. ---------
# A SIGSTOPped process holds the lease without renewing — the live-lock
# variant of a crash, and exactly the stall the fencing token exists
# for.  After a standby claims the next term, the thawed process must
# depose itself (fenced write or superseded renewal, whichever fires
# first) and exit 3, the same code a deposed leader uses everywhere.
echo "fencing-smoke: freezing node-$LEAD (leader) with SIGSTOP"
kill -STOP "${PID[$LEAD]}"
FROZEN=$LEAD
LEAD=$(leader_idx "$FROZEN")
CTL="$DATA/wmmctl -server http://${API[$LEAD]}"
$CTL -timeout 60s ready \
  || { echo "fencing-smoke: post-freeze leader node-$LEAD not ready" >&2; exit 1; }

kill -CONT "${PID[$FROZEN]}"
RC=0
wait "${PID[$FROZEN]}" || RC=$?
[ "$RC" -eq 3 ] \
  || { echo "fencing-smoke: thawed ex-leader node-$FROZEN exited $RC, want 3 (deposed)" >&2; cat "$DATA/node-$FROZEN.log" >&2; exit 1; }
grep -q "deposed" "$DATA/node-$FROZEN.log" \
  || { echo "fencing-smoke: node-$FROZEN exit 3 without a deposal log line" >&2; cat "$DATA/node-$FROZEN.log" >&2; exit 1; }
PID[$FROZEN]=""

# --- The run must still finish, correctly. ---------------------------
if ! $CTL -timeout 15m wait "$RUN"; then
  echo "fencing-smoke: run did not finish after the soak" >&2
  $CTL status "$RUN" >&2 || true
  cat "$DATA/node-$LEAD.log" >&2
  exit 1
fi
$CTL canonical "$RUN" > "$DATA/soak.json"
if ! diff -q "$DATA/ref.json" "$DATA/soak.json" >/dev/null; then
  echo "fencing-smoke: canonical JSON diverged after 2 kills + 1 freeze" >&2
  diff "$DATA/ref.json" "$DATA/soak.json" >&2 || true
  exit 1
fi

# --- Instrumentation: one scrape shows role, term and fence counts. --
METRICS=$(curl -sS --max-time 5 "http://${API[$LEAD]}/metrics")
echo "$METRICS" | grep -q '^wmm_ha_leader 1$' \
  || { echo "fencing-smoke: final leader does not export wmm_ha_leader 1" >&2; exit 1; }
TERM=$(echo "$METRICS" | sed -n 's/^wmm_ha_term \([0-9.]*\)$/\1/p')
[ -n "$TERM" ] && [ "${TERM%.*}" -ge 3 ] \
  || { echo "fencing-smoke: wmm_ha_term = '$TERM' after three takeovers, want >= 3" >&2; exit 1; }
echo "$METRICS" | grep -q '^wmm_ha_promotions_total ' \
  || { echo "fencing-smoke: wmm_ha_promotions_total missing from /metrics" >&2; exit 1; }
echo "$METRICS" | grep -q '^wmm_store_fenced_writes_total ' \
  || { echo "fencing-smoke: wmm_store_fenced_writes_total missing from /metrics" >&2; exit 1; }

echo "fencing-smoke: ok ($RUN survived 2x kill -9 + SIGSTOP takeover; frozen leader exited 3; canonical JSON identical; final term $TERM)"
