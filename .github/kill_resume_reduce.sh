#!/usr/bin/env bash
# SIGKILL a journaling reduction mid-run, resume it, and diff it against an
# uninterrupted run: journal and result must be byte-identical.  Every
# process the killed reduction had forked (pool workers, probe children)
# must exit within 5 s of the kill.
#
# Usage: .github/kill_resume_reduce.sh NAME [extra reduce flags...]
#   Writes /tmp/NAME.jsonl (killed, then resumed), /tmp/NAME_clean.jsonl,
#   /tmp/resumed.json and /tmp/uninterrupted.json; run from the repo root.
set -euxo pipefail
name="$1"
shift
export PYTHONPATH=src
journal="/tmp/${name}.jsonl"
clean="/tmp/${name}_clean.jsonl"

descendants() {  # every process forked under $1, recursively
  local child
  for child in $(pgrep -P "$1" || true); do
    echo "$child"
    descendants "$child"
  done
}

running() {  # is $1 still running (neither gone nor a zombie)?
  local state
  state=$(sed 's/.*) //' "/proc/$1/stat" 2>/dev/null | cut -d' ' -f1) || return 1
  [ -n "$state" ] && [ "$state" != Z ]
}

reduce() {
  python -c "import sys; from repro.cli import reduce_main; sys.exit(
      reduce_main(sys.argv[1:]))" /tmp/variant.json --target SwiftShader "$@"
}

# A known bug-triggering (reference, seed): arith_mix_0 @ seed 0 crashes
# SwiftShader with a 47-transformation sequence.
python -c "from repro.cli import fuzz_main; fuzz_main(
    ['arith_mix_0', '--seed', '0', '--out', '/tmp/variant.json'])" > /dev/null

# --probe-delay slows probes so the kill lands mid-reduction; the python
# process itself must be the background job so SIGKILL hits it (a shell
# function wrapper would make $! a subshell).
python -c "import sys; from repro.cli import reduce_main; sys.exit(
    reduce_main(sys.argv[1:]))" /tmp/variant.json --target SwiftShader \
  --probe-delay 0.05 "$@" --reduce-journal "$journal" &
pid=$!
until [ -f "$journal" ] && [ "$(wc -l < "$journal")" -ge 8 ]; do
  if ! kill -0 "$pid" 2>/dev/null; then break; fi
  sleep 0.05
done
children=$(descendants "$pid")
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
echo "journaled verdicts before the kill: $(wc -l < "$journal")"
echo "processes forked by the killed reduction:" $children
for _ in $(seq 50); do
  survivors=""
  for child in $children; do
    if running "$child"; then survivors="$survivors $child"; fi
  done
  if [ -z "$survivors" ]; then break; fi
  sleep 0.1
done
if [ -n "$survivors" ]; then
  echo "still running 5 s after the kill:$survivors" >&2
  exit 1
fi

# Resume the killed reduction; run an uninterrupted one beside it.
reduce "$@" --reduce-journal "$journal" --resume --out-json /tmp/resumed.json > /dev/null
reduce "$@" --reduce-journal "$clean" --out-json /tmp/uninterrupted.json > /dev/null
# Both the journal and the result must be byte-identical.
diff "$journal" "$clean"
diff /tmp/resumed.json /tmp/uninterrupted.json
