#!/bin/sh
# Smoke the serve daemon over a real unix socket: N concurrent clients
# drive the same conversation through `ppd connect`, every response
# must carry the id of its request, the flowback and replay answers
# must be byte-identical to the one-shot CLI, and SIGTERM must shut the
# daemon down cleanly — socket removed, no orphan process. CI runs this
# so the transport layer (accept loop, per-connection threads, signal
# path) stays exercised, not just the in-process dispatcher. Every
# client also debugs an order-tier recording of the same run first, so
# the clients race on the one reconstruction the daemon keeps for it.
set -eu

PPD=${PPD:-_build/default/bin/ppd_cli.exe}
CLIENTS=${CLIENTS:-8}

dir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

"$PPD" example fig61 >"$dir/fig61.mpl"
"$PPD" log "$dir/fig61.mpl" --save "$dir/fig61.seg" >/dev/null
"$PPD" log "$dir/fig61.mpl" --save "$dir/order.seg" --log-mode order >/dev/null

# the answers the daemon must reproduce byte for byte
for log in fig61 order; do
  "$PPD" flowback "$dir/fig61.mpl" --load "$dir/$log.seg" --depth 2 >"$dir/flowback.$log"
  "$PPD" replay "$dir/fig61.mpl" --load "$dir/$log.seg" >"$dir/replay.$log"
done

sock="$dir/ppd.sock"
"$PPD" serve --socket "$sock" -j 2 2>"$dir/daemon.log" &
daemon_pid=$!

# wait for the socket to appear
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve-smoke: daemon never bound $sock" >&2
    cat "$dir/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done

# N concurrent clients, each a full conversation over ppd connect.
# (wait on their pids specifically: a bare `wait` would also wait on
# the daemon, which only exits on SIGTERM)
client_pids=""
n=0
while [ "$n" -lt "$CLIENTS" ]; do
  n=$((n + 1))
  {
    printf '%s\n' \
      "{\"id\":1,\"method\":\"ping\"}" \
      "{\"id\":2,\"method\":\"open\",\"params\":{\"log\":\"$dir/order.seg\",\"program\":\"$dir/fig61.mpl\"}}" \
      "{\"id\":3,\"method\":\"flowback\",\"params\":{\"handle\":1,\"depth\":2}}" \
      "{\"id\":4,\"method\":\"replay\",\"params\":{\"handle\":1}}" \
      "{\"id\":5,\"method\":\"open\",\"params\":{\"log\":\"$dir/fig61.seg\",\"program\":\"$dir/fig61.mpl\"}}" \
      "{\"id\":6,\"method\":\"flowback\",\"params\":{\"handle\":2,\"depth\":2}}" \
      "{\"id\":7,\"method\":\"replay\",\"params\":{\"handle\":2}}" \
      "{\"id\":8,\"method\":\"close\",\"params\":{\"handle\":1}}" \
      "{\"id\":9,\"method\":\"close\",\"params\":{\"handle\":2}}" |
      "$PPD" connect --socket "$sock" >"$dir/client$n.out"
  } &
  client_pids="$client_pids $!"
done
for pid in $client_pids; do
  wait "$pid"
done

# every client: 9 id-matched responses, none an error, and the
# flowback/replay outputs on both logs byte-match the one-shot CLI
n=0
while [ "$n" -lt "$CLIENTS" ]; do
  n=$((n + 1))
  python3 - "$dir/client$n.out" "$dir" <<'EOF'
import json, sys
out, d = sys.argv[1], sys.argv[2]
lines = [json.loads(l) for l in open(out)]
assert [r["id"] for r in lines] == list(range(1, 10)), f"{out}: ids {[r['id'] for r in lines]}"
for r in lines:
    assert "error" not in r, f"{out}: unexpected error response {r}"
for i, what in [(2, "flowback.order"), (3, "replay.order"),
                (5, "flowback.fig61"), (6, "replay.fig61")]:
    assert lines[i]["result"]["output"] == open(f"{d}/{what}").read(), f"{out}: {what} differs"
EOF
done
echo "serve-smoke: $CLIENTS concurrent clients, all responses id-matched and byte-identical on both tiers"

# clean shutdown on SIGTERM: process exits, socket file removed
kill -TERM "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve-smoke: daemon ignored SIGTERM" >&2
    exit 1
  fi
  sleep 0.1
done
daemon_pid=""
if [ -e "$sock" ]; then
  echo "serve-smoke: daemon leaked its socket file $sock" >&2
  exit 1
fi
grep -q "stopped (pool drained, socket removed)" "$dir/daemon.log" || {
  echo "serve-smoke: daemon did not report a clean stop" >&2
  cat "$dir/daemon.log" >&2
  exit 1
}

echo "serve-smoke: clean SIGTERM shutdown, no leaked socket"
