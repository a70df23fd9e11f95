#!/bin/sh
# Exercise the ppd verify-log exit-code contract on a freshly saved v2
# segment: 0 for a clean file, 4 for detected damage (mid-page
# truncation), 6 for a file that is not a PPD log at all, and 6 with
# PPD050 for a log of the retired v1 format, which is refused rather
# than misread. CI runs this so the crash-recovery paths stay wired to
# their documented exits.
set -eu

PPD=${PPD:-_build/default/bin/ppd_cli.exe}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$PPD" example fig61 >"$dir/fig61.mpl"
"$PPD" log "$dir/fig61.mpl" --save "$dir/run.log" >/dev/null

"$PPD" verify-log "$dir/run.log"

head -c 150 "$dir/run.log" >"$dir/cut.log"
set +e
"$PPD" verify-log "$dir/cut.log"
code=$?
set -e
if [ "$code" -ne 4 ]; then
  echo "verify-log: expected exit 4 on a truncated segment, got $code" >&2
  exit 1
fi
# salvage still recovers the complete pages before the cut
"$PPD" log stats "$dir/cut.log"

echo garbage >"$dir/bad.log"
set +e
"$PPD" verify-log "$dir/bad.log"
code=$?
set -e
if [ "$code" -ne 6 ]; then
  echo "verify-log: expected exit 6 on a non-log file, got $code" >&2
  exit 1
fi

printf 'PPDLOG1\n' >"$dir/v1.log"
set +e
out=$("$PPD" verify-log "$dir/v1.log" 2>&1)
code=$?
set -e
if [ "$code" -ne 6 ]; then
  echo "verify-log: expected exit 6 on a v1 log, got $code" >&2
  exit 1
fi
case "$out" in
  PPD050*) ;;
  *)
    echo "verify-log: expected PPD050 on a v1 log, got: $out" >&2
    exit 1
    ;;
esac

echo "verify-log: exit-code contract holds (0 clean, 4 damaged, 6 not a log or v1)"
