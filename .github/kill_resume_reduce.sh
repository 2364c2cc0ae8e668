#!/usr/bin/env bash
# SIGKILL a journaling reduction mid-run, resume it, and diff it against an
# uninterrupted run: journal and result must be byte-identical.
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
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
echo "journaled verdicts before the kill: $(wc -l < "$journal")"

# Resume the killed reduction; run an uninterrupted one beside it.
reduce "$@" --reduce-journal "$journal" --resume --out-json /tmp/resumed.json > /dev/null
reduce "$@" --reduce-journal "$clean" --out-json /tmp/uninterrupted.json > /dev/null
# Both the journal and the result must be byte-identical.
diff "$journal" "$clean"
diff /tmp/resumed.json /tmp/uninterrupted.json
