#!/bin/sh
# Chaos sweep: prove the degraded-mode contract under every crash and
# fault shape the injection substrate can produce.
#
#  1. Truncate a saved v2 segment at EVERY byte offset: fsck and
#     `log stats` must exit 0/4/6 (never crash), and a --degraded
#     --load flowback over the remains must exit 0.
#  2. Kill the streaming log sink at every byte offset (injected crash
#     in the writer): exactly that many bytes reach disk, and the
#     durable prefix always recovers.
#  3. A seeded fault matrix over the other injection points: bit flips
#     are caught by fsck, read faults and replay-budget exhaustion
#     degrade to holes, and a transient pool fault leaves the -j4
#     replay dump byte-identical to a clean -j1 run.
#  4. The same truncation contract over an order-tier log (sync order +
#     checkpoint frames + tier footer), and cross-tier flowback
#     identity on the intact file.
#  5. Survivability: `ppd log repair` salvages every damage shape, and
#     a SIGKILLed daemon resumes and re-answers byte-identically.
#  6. Racy executions: a race that changes control flow makes e-block
#     replay diverge from the log, which is PPD062 (exit 8), or a
#     "replay diverged" hole under --degraded, in both tiers and at
#     -j1 and -j4.
#
# No invocation anywhere in the sweep may exit 125 (an uncaught
# exception): every ppd run goes through the [ppd] wrapper below,
# which records one, and the sweep fails at the end if any did.
# Every damage report must carry the EXACT absolute offset of the
# enclosing frame start: re-truncating at the reported offset must
# report damage at that same offset (or none) — never an offset that
# was relative to a frame payload.
set -eu

PPD=${PPD:-_build/default/bin/ppd_cli.exe}

# Run ppd, recording an exit 125 to a file, so that runs inside
# pipelines and command substitutions are caught too.
ppd() {
  rc=0
  "$PPD" "$@" || rc=$?
  if [ "$rc" -eq 125 ]; then
    echo "ppd $*" >>"$dir/exit125"
    echo "chaos: ppd $* exited 125 (uncaught exception)" >&2
  fi
  return "$rc"
}

# First damage offset fsck reports for a file, or -1 when clean.
damage_offset() {
  ppd fsck "$1" 2>/dev/null | python3 -c '
import json, sys
d = json.load(sys.stdin)
print(d["damage"][0]["offset"] if d["damage"] else -1)' 2>/dev/null || echo -1
}

# The exact-offset contract for one truncated file $1 cut at $2 bytes.
check_damage_offset() {
  o=$(damage_offset "$1")
  if [ "$o" -lt 0 ]; then return 0; fi
  if [ "$o" -gt "$2" ]; then
    echo "chaos: damage offset $o beyond the $2-byte cut" >&2
    exit 1
  fi
  head -c "$o" "$1" >"$dir/recut.log"
  o2=$(damage_offset "$dir/recut.log")
  if [ "$o2" -ne -1 ] && [ "$o2" -ne "$o" ]; then
    echo "chaos: damage offset $o is not a frame start (re-cut reports $o2)" >&2
    exit 1
  fi
}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

ppd example fig61 >"$dir/fig61.mpl"
ppd log "$dir/fig61.mpl" --save "$dir/run.log" >/dev/null
size=$(wc -c <"$dir/run.log")

# -------------------------------------------------------------------
# 1. Exhaustive truncation sweep.
# -------------------------------------------------------------------
k=0
while [ "$k" -lt "$size" ]; do
  head -c "$k" "$dir/run.log" >"$dir/cut.log"

  set +e
  ppd fsck "$dir/cut.log" >/dev/null 2>&1
  fsck_code=$?
  ppd log stats "$dir/cut.log" >/dev/null 2>&1
  stats_code=$?
  ppd flowback "$dir/fig61.mpl" --load "$dir/cut.log" --degraded \
    >/dev/null 2>&1
  flow_code=$?
  set -e

  case "$fsck_code" in
  0 | 4 | 6) ;;
  *)
    echo "chaos: fsck exited $fsck_code on a $k-byte truncation" >&2
    exit 1
    ;;
  esac
  case "$stats_code" in
  0 | 4 | 6) ;;
  *)
    echo "chaos: log stats exited $stats_code on a $k-byte truncation" >&2
    exit 1
    ;;
  esac
  # a full v2 magic means the salvage path must carry flowback to a
  # clean exit; shorter prefixes are PPD050 (exit 6)
  if [ "$k" -ge 8 ]; then
    if [ "$flow_code" -ne 0 ]; then
      echo "chaos: degraded flowback exited $flow_code on a $k-byte truncation" >&2
      exit 1
    fi
  elif [ "$flow_code" -ne 6 ]; then
    echo "chaos: expected PPD050 (exit 6) on a $k-byte file, got $flow_code" >&2
    exit 1
  fi

  check_damage_offset "$dir/cut.log" "$k"

  k=$((k + 1))
done
echo "chaos: truncation sweep ok ($size cut points)"

# -------------------------------------------------------------------
# 2. Sink-crash sweep: kill the logger mid-write at every byte.
# -------------------------------------------------------------------
k=9
while [ "$k" -lt "$size" ]; do
  ppd log "$dir/fig61.mpl" --save "$dir/crash.log" \
    --fault "trace.sink:$k" >/dev/null
  got=$(wc -c <"$dir/crash.log")
  if [ "$got" -ne "$k" ]; then
    echo "chaos: sink crash at byte $k left $got bytes on disk" >&2
    exit 1
  fi
  set +e
  ppd fsck "$dir/crash.log" >/dev/null
  fsck_code=$?
  ppd flowback "$dir/fig61.mpl" --load "$dir/crash.log" --degraded \
    >/dev/null
  flow_code=$?
  set -e
  if [ "$fsck_code" -ne 4 ] && [ "$fsck_code" -ne 0 ]; then
    echo "chaos: fsck exited $fsck_code after a sink crash at byte $k" >&2
    exit 1
  fi
  if [ "$flow_code" -ne 0 ]; then
    echo "chaos: degraded flowback exited $flow_code after a sink crash at byte $k" >&2
    exit 1
  fi
  # sweep every offset for small logs; stride for big ones to bound CI time
  k=$((k + 7))
done
echo "chaos: sink-crash sweep ok"

# -------------------------------------------------------------------
# 3. Seeded fault matrix.
# -------------------------------------------------------------------

# a flipped bit in a page payload must be caught by fsck (exit 4)
ppd log "$dir/fig61.mpl" --save "$dir/flip.log" \
  --fault store.segment.write:2:flip --fault-seed 7 >/dev/null
set +e
ppd fsck "$dir/flip.log" >/dev/null
code=$?
set -e
if [ "$code" -ne 4 ]; then
  echo "chaos: fsck missed an injected bit flip (exit $code)" >&2
  exit 1
fi

# a damaged page read degrades to an explicit hole, never a crash
ppd flowback "$dir/fig61.mpl" --load "$dir/run.log" --degraded \
  --fault store.segment.read:1 >"$dir/holes.out"
grep -q "history unavailable" "$dir/holes.out" || {
  echo "chaos: degraded flowback did not report the hole" >&2
  exit 1
}

# replay-budget exhaustion degrades to a hole too
ppd flowback "$dir/fig61.mpl" --degraded --max-replay-steps 1 \
  >"$dir/budget.out"
grep -q "history unavailable" "$dir/budget.out" || {
  echo "chaos: watchdog hole missing from degraded flowback" >&2
  exit 1
}

# ... and is PPD060 (exit 7) outside degraded mode
set +e
ppd flowback "$dir/fig61.mpl" --max-replay-steps 1 >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 7 ]; then
  echo "chaos: expected PPD060/exit 7 from the watchdog, got $code" >&2
  exit 1
fi

# a transient pool fault is retried: -j4 under fault == clean -j1
ppd replay "$dir/fig61.mpl" --dump -j 1 >"$dir/clean.out"
ppd replay "$dir/fig61.mpl" --dump -j 4 \
  --fault exec.pool.task:1 >"$dir/faulted.out"
cmp "$dir/clean.out" "$dir/faulted.out" || {
  echo "chaos: transient pool fault changed the replay output" >&2
  exit 1
}

echo "chaos: fault matrix ok (flip, read, budget, transient)"

# -------------------------------------------------------------------
# 4. Order-tier sweep: sync order + checkpoints + tier footer obey the
#    same truncation contract, and debugging the intact order log
#    gives byte-identical answers to the content log.
# -------------------------------------------------------------------
ppd log "$dir/fig61.mpl" --save "$dir/order.log" --log-mode order \
  --ckpt-every 8 >/dev/null

# line 1 of `flowback --load` names the log file, so compare from line 2
ppd flowback "$dir/fig61.mpl" --load "$dir/run.log" \
  | tail -n +2 >"$dir/fb.content.out"
ppd flowback "$dir/fig61.mpl" --load "$dir/order.log" \
  | tail -n +2 >"$dir/fb.order.out"
cmp "$dir/fb.content.out" "$dir/fb.order.out" || {
  echo "chaos: order-tier flowback differs from the content tier" >&2
  exit 1
}

osize=$(wc -c <"$dir/order.log")
k=0
while [ "$k" -lt "$osize" ]; do
  head -c "$k" "$dir/order.log" >"$dir/ocut.log"

  set +e
  ppd fsck "$dir/ocut.log" >/dev/null 2>&1
  fsck_code=$?
  ppd log stats "$dir/ocut.log" >/dev/null 2>&1
  stats_code=$?
  ppd flowback "$dir/fig61.mpl" --load "$dir/ocut.log" --degraded \
    >/dev/null 2>&1
  flow_code=$?
  set -e

  case "$fsck_code" in
  0 | 4 | 6) ;;
  *)
    echo "chaos: fsck exited $fsck_code on a $k-byte order truncation" >&2
    exit 1
    ;;
  esac
  case "$stats_code" in
  0 | 4 | 6) ;;
  *)
    echo "chaos: log stats exited $stats_code on a $k-byte order truncation" >&2
    exit 1
    ;;
  esac
  # a salvaged order prefix either debugs degraded (0), is too short to
  # carry the magic (PPD050, 6), or keeps enough footer to demand a
  # reconstruction the partial sync skeleton fails (PPD061, 8) — it
  # must never crash
  case "$flow_code" in
  0 | 6 | 8) ;;
  *)
    echo "chaos: degraded flowback exited $flow_code on a $k-byte order truncation" >&2
    exit 1
    ;;
  esac

  check_damage_offset "$dir/ocut.log" "$k"

  k=$((k + 1))
done
echo "chaos: order-tier truncation sweep ok ($osize cut points)"

# -------------------------------------------------------------------
# 5. Survivability: `ppd log repair` must salvage every damage shape
#    above into a file that fscks clean, and a SIGKILLed daemon must
#    come back with --resume and re-answer byte-identically.
# -------------------------------------------------------------------

# repair the flip artifact: bytes are lost (exit 4), the output is clean
set +e
ppd log repair "$dir/flip.log" -o "$dir/flip.repaired" >/dev/null
code=$?
set -e
if [ "$code" -ne 4 ]; then
  echo "chaos: repair of the flip artifact exited $code (want 4)" >&2
  exit 1
fi
ppd fsck "$dir/flip.repaired" >/dev/null || {
  echo "chaos: repaired flip artifact does not fsck clean" >&2
  exit 1
}

# repair a mid-page truncation: clean prefix kept, output clean
head -c $((size / 2)) "$dir/run.log" >"$dir/half.log"
set +e
ppd log repair "$dir/half.log" -o "$dir/half.repaired" >/dev/null
code=$?
set -e
case "$code" in
0 | 4) ;;
*)
  echo "chaos: repair of a truncated log exited $code" >&2
  exit 1
  ;;
esac
ppd fsck "$dir/half.repaired" >/dev/null || {
  echo "chaos: repaired truncation does not fsck clean" >&2
  exit 1
}

# repairing the intact log drops nothing and the repaired file answers
# the same bytes
ppd log repair "$dir/run.log" -o "$dir/run.repaired" >/dev/null || {
  echo "chaos: repair of an intact log did not exit 0" >&2
  exit 1
}
ppd flowback "$dir/fig61.mpl" --load "$dir/run.repaired" \
  | tail -n +2 >"$dir/fb.repaired.out"
cmp "$dir/fb.content.out" "$dir/fb.repaired.out" || {
  echo "chaos: repaired log changed the flowback answer" >&2
  exit 1
}
echo "chaos: repair ok (flip, truncation, intact identity)"

# daemon SIGKILL -> --resume -> attach -> byte-identical re-query
sock="$dir/ppd.sock"
journal="$dir/journal.jsonl"
ppd flowback "$dir/fig61.mpl" --load "$dir/run.log" --depth 2 \
  >"$dir/fb.oneshot"
"$PPD" serve --socket "$sock" -j 2 --journal "$journal" \
  2>"$dir/daemon.log" &
daemon_pid=$!
trap 'kill -9 "$daemon_pid" 2>/dev/null || true; rm -rf "$dir"' EXIT
k=0
while [ ! -S "$sock" ]; do
  k=$((k + 1))
  [ "$k" -gt 100 ] && { echo "chaos: daemon never bound $sock" >&2; exit 1; }
  sleep 0.1
done

{
  printf '%s\n' \
    "{\"id\":1,\"method\":\"open\",\"params\":{\"log\":\"$dir/run.log\",\"program\":\"$dir/fig61.mpl\"}}" \
    "{\"id\":2,\"method\":\"flowback\",\"params\":{\"handle\":1,\"depth\":2}}"
  sleep 30
} | "$PPD" connect --socket "$sock" >"$dir/before.out" 2>/dev/null &
client_pid=$!
k=0
while [ "$(wc -l <"$dir/before.out")" -lt 2 ]; do
  k=$((k + 1))
  [ "$k" -gt 100 ] && { echo "chaos: daemon session never answered" >&2; exit 1; }
  sleep 0.1
done

kill -9 "$daemon_pid" 2>/dev/null
wait "$daemon_pid" 2>/dev/null || true
kill -9 "$client_pid" 2>/dev/null || true
rm -f "$sock"

"$PPD" serve --socket "$sock" -j 2 --resume "$journal" \
  2>>"$dir/daemon.log" &
daemon_pid=$!
k=0
while [ ! -S "$sock" ]; do
  k=$((k + 1))
  [ "$k" -gt 100 ] && { echo "chaos: resumed daemon never bound $sock" >&2; exit 1; }
  sleep 0.1
done

sid=$(python3 - "$journal" <<'PYEOF'
import json, sys
live = {}
for line in open(sys.argv[1]):
    try:
        ev = json.loads(line)
    except ValueError:
        break
    e, sid = ev.get("ev"), ev.get("sid")
    if e == "open":
        live.setdefault(sid, set()).add(ev["handle"])
    elif e == "close":
        live.get(sid, set()).discard(ev["handle"])
    elif e == "end":
        live.pop(sid, None)
print([s for s, hs in live.items() if hs][-1])
PYEOF
)
printf '%s\n' \
  "{\"id\":1,\"method\":\"attach\",\"params\":{\"session\":$sid}}" \
  '{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}' |
  ppd connect --socket "$sock" >"$dir/after.out"
python3 - "$dir/before.out" "$dir/after.out" "$dir/fb.oneshot" <<'PYEOF'
import json, sys
before = [json.loads(l) for l in open(sys.argv[1])]
after = [json.loads(l) for l in open(sys.argv[2])]
oneshot = open(sys.argv[3]).read()
for r in before + after:
    assert "error" not in r, f"protocol error: {r}"
assert before[1]["result"]["output"] == oneshot, "pre-kill answer differs from one-shot CLI"
assert after[1]["result"]["output"] == oneshot, "post-resume answer differs from one-shot CLI"
PYEOF
kill -TERM "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "chaos: daemon SIGKILL -> --resume -> byte-identical re-query ok"

# -------------------------------------------------------------------
# 6. Racy executions. E-block replay is faithful only for race-free
#    runs: under random:3 the writer's store lands after the reader's
#    prelog, so the reader's replay takes the other branch and
#    diverges from the log.
# -------------------------------------------------------------------
cat >"$dir/race.mpl" <<'EOF'
shared int g = 0;
func writer(x) { g = g + 12; return x; }
func reader(x) { var b = g; if (b != 0) { print(b); } return x; }
func main() { var p1 = spawn reader(1); var p2 = spawn writer(2); join(p1); join(p2); }
EOF
ppd log "$dir/race.mpl" --sched random:3 --save "$dir/race.content" >/dev/null
ppd log "$dir/race.mpl" --sched random:3 --log-mode order \
  --save "$dir/race.order" >/dev/null
for tier in content order; do
  for j in 1 4; do
    set +e
    ppd replay "$dir/race.mpl" --load "$dir/race.$tier" -j "$j" \
      >/dev/null 2>"$dir/race.err"
    code=$?
    set -e
    if [ "$code" -ne 8 ] || ! grep -q '^PPD062 error' "$dir/race.err"; then
      echo "chaos: racy $tier replay at -j$j exited $code without PPD062" >&2
      exit 1
    fi
    ppd replay "$dir/race.mpl" --load "$dir/race.$tier" -j "$j" --degraded \
      >"$dir/race.out" || {
      echo "chaos: degraded racy $tier replay at -j$j did not exit 0" >&2
      exit 1
    }
    grep -q "replay diverged" "$dir/race.out" || {
      echo "chaos: degraded racy $tier replay at -j$j shows no hole" >&2
      exit 1
    }
  done
done
echo "chaos: racy executions ok (PPD062 / exit 8, degraded hole)"

if [ -s "$dir/exit125" ]; then
  echo "chaos: uncaught exceptions (exit 125):" >&2
  cat "$dir/exit125" >&2
  exit 1
fi
echo "chaos: no invocation exited 125"
