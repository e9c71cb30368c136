#!/usr/bin/env bash
# Sharded-serving smoke (ctest: shard_smoke; CI: shard-smoke): three
# qtserved workers behind qtrouterd on ephemeral ports.
#
# What it proves, all via qtclient --verify (byte-for-byte snapshot
# comparison against a local replay twin):
#   1. The router is bit-invisible across all four algorithms, with
#      --migrate-every forcing live migrations mid-run (qtclient
#      --expect-migration fails if the router never moved a session).
#   2. Killing a worker mid-run is survivable: the dead shard's parked
#      images + replay logs reconstruct its sessions on the survivors,
#      and the post-kill rounds still verify bit-exact.
#   3. Shutdown drains the whole fleet (router and workers exit 0).
#
# Usage: shard_smoke.sh <qtserved> <qtrouterd> <qtclient>
set -euo pipefail

# Resolve to absolute paths: the smoke runs out of a temp directory.
QTSERVED=$(readlink -f "$1")
QTROUTERD=$(readlink -f "$2")
QTCLIENT=$(readlink -f "$3")

WORK=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

WORKER_PIDS=()
for i in 1 2 3; do
  "$QTSERVED" --port=0 --port-file="w$i.port" \
    --max-hot=8 --workers=2 --max-queue=256 &
  WORKER_PIDS+=($!)
done
for i in 1 2 3; do
  for _ in $(seq 100); do [ -s "w$i.port" ] && break; sleep 0.1; done
  [ -s "w$i.port" ] || { echo "shard_smoke: worker $i never published a port"; exit 1; }
done

SHARDS="127.0.0.1:$(cat w1.port),127.0.0.1:$(cat w2.port),127.0.0.1:$(cat w3.port)"
# migrate-every counts Step REQUESTS per session (not samples); the
# clients below send 4 per session, so 2 forces a hop mid-run.
"$QTROUTERD" --shards="$SHARDS" --port=0 --port-file=router.port \
  --migrate-every=2 --checkpoint-every=8 &
ROUTER=$!
for _ in $(seq 100); do [ -s router.port ] && break; sleep 0.1; done
[ -s router.port ] || { echo "shard_smoke: router never published a port"; exit 1; }
RPORT=$(cat router.port)

# 1. All four algorithms through the router, migrations forced.
for algo in q_learning sarsa expected_sarsa double_q; do
  "$QTCLIENT" --shards="127.0.0.1:$RPORT" \
    --sessions=64 --rounds=4 --steps=128 --algorithm="$algo" \
    --verify --expect-migration
done

# 2. Kill worker 3 halfway through a verified run: failover must be
#    bit-exact for both the failed-over sessions and everyone else.
"$QTCLIENT" --shards="127.0.0.1:$RPORT" \
  --sessions=32 --rounds=4 --steps=128 --algorithm=q_learning \
  --verify --mid-run-cmd="kill ${WORKER_PIDS[2]}"

# 3. Clean fleet-wide shutdown: the router exits 0, and every surviving
#    worker exits 0 on the relayed Shutdown by itself (none is left for
#    the cleanup trap to kill).
"$QTCLIENT" --shards="127.0.0.1:$RPORT" \
  --sessions=1 --rounds=1 --steps=32 --shutdown
wait "$ROUTER"
for pid in "${WORKER_PIDS[0]}" "${WORKER_PIDS[1]}"; do
  for _ in $(seq 100); do kill -0 "$pid" 2>/dev/null || break; sleep 0.1; done
  if kill -0 "$pid" 2>/dev/null; then
    echo "shard_smoke: worker $pid never saw the relayed Shutdown"
    exit 1
  fi
  wait "$pid" || { echo "shard_smoke: worker $pid exited non-zero"; exit 1; }
done
echo "shard_smoke: OK"
