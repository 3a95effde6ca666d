#!/bin/sh
# Repo check: build, tests, dune-file formatting. Run before every push.
set -e
cd "$(dirname "$0")"
dune build
dune runtest
dune build @fmt
dune exec bench/main.exe -- --smoke
# Telemetry smoke: a traced parallel compile must produce parseable
# Chrome-trace JSON with at least one event.
trace=/tmp/pagc_trace_smoke.json
dune exec bin/pagc.exe -- --machines 3 --trace "$trace" --report \
  examples/primes.pas -o /tmp/pagc_trace_smoke.s 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$trace" >/dev/null
  python3 -c "import json,sys; es=json.load(open('$trace'))['traceEvents']; sys.exit(0 if len(es)>0 else 1)"
else
  grep -q '"traceEvents"' "$trace"
fi
# Work-stealing schedule smoke: the steal schedule must emit the same
# assembly as the sequential compile, modulo L<n>/P<n> label numbering
# (label draws depend on the per-machine uid stripes).
dune exec bin/pagc.exe -- examples/primes.pas -o /tmp/pagc_seq_smoke.s 2>/dev/null
dune exec bin/pagc.exe -- --machines 3 --schedule steal \
  examples/primes.pas -o /tmp/pagc_steal_smoke.s 2>/dev/null
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_seq_smoke.s > /tmp/pagc_seq_smoke.masked
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_steal_smoke.s > /tmp/pagc_steal_smoke.masked
cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_steal_smoke.masked
# Multi-tenant service smoke: three tenants over two simulated machines;
# pagc exits nonzero unless every tenant's resident code matches a
# from-scratch compile.
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve >/dev/null
# Batched-edit smoke: the serve loop with merged waves and an interactive
# edit session applying its script in batched waves must both end with
# every resident masked-equal to a from-scratch compile (pagc exits
# nonzero otherwise).
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve \
  --batch-edits 4 >/dev/null
dune exec bin/pagc.exe -- --machines 3 --batch-edits 2 \
  --edit-session examples/primes.edits examples/primes.pas >/dev/null
# Edits under faults: the batched wave runs behind the reliable-delivery
# layer, and pagc exits nonzero unless every resident matches a
# from-scratch compile.
dune exec bin/pagc.exe -- --machines 4 --batch-edits 2 \
  --faults drop=0.1,dup=0.1 \
  --edit-session examples/primes.edits examples/primes.pas >/dev/null
# Golden edit-session transcripts: each report (per-edit cones, wire bytes,
# retransmits and virtual-time latency, which all follow from the split
# plans and the edit deltas) must match its committed copy byte for byte.
# The single-edit wave under drops also exercises reliable delivery.
golden() {
  expected=examples/primes.edits.$1.expected
  shift
  dune exec bin/pagc.exe -- "$@" \
    --edit-session examples/primes.edits examples/primes.pas \
    2>/tmp/pagc_golden.err >/dev/null
  cmp /tmp/pagc_golden.err "$expected"
}
golden m3 --machines 3
golden m3-drop --machines 3 --faults drop=0.2
golden m4-batch2 --machines 4 --batch-edits 2
golden m6 --machines 6
# Golden --report transcripts on the simulator: virtual times, per-machine
# rows, wire totals and metrics of a from-scratch parallel compile under
# the combined, all-dynamic and DAG steal schedules and under drops must
# match their committed copies byte for byte.
report_golden() {
  expected=examples/primes.report.$1.expected
  shift
  dune exec bin/pagc.exe -- --machines 3 "$@" --report examples/primes.pas \
    -o /tmp/pagc_report_golden.s 2>/tmp/pagc_report_golden.err >/dev/null
  cmp /tmp/pagc_report_golden.err "$expected"
}
report_golden m3
report_golden dynamic --schedule dynamic
report_golden steal-dag --schedule steal --dag
report_golden drop --faults drop=0.1
# Help text renders cleanly: no cmdliner doc-markup errors on stderr.
dune exec bin/pagc.exe -- --help=plain >/dev/null 2>/tmp/pagc_help.err
if [ -s /tmp/pagc_help.err ]; then
  echo "check.sh: pagc --help wrote to stderr:" >&2
  cat /tmp/pagc_help.err >&2
  exit 1
fi
# A circular attribute grammar ends in a typed diagnostic and exit 1.
status=0
dune exec bin/agrun.exe -- examples/circular.ag 1 >/dev/null \
  2>/tmp/agrun_circular.err || status=$?
if [ "$status" -ne 1 ] || \
  ! grep -q '^error: circular attribute dependencies: ' /tmp/agrun_circular.err
then
  echo "check.sh: agrun on a circular spec: exit $status" >&2
  cat /tmp/agrun_circular.err >&2
  exit 1
fi
# DAG evaluation smoke: the DAG-native steal schedule must emit the same
# masked assembly as the sequential compile, and --explain on a DAG run
# must verify the class-level provenance (occurrence fan-out edges)
# against the reference dependency closure.
dune exec bin/pagc.exe -- --dag --machines 3 --schedule steal \
  examples/primes.pas -o /tmp/pagc_dag_smoke.s 2>/dev/null
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_dag_smoke.s > /tmp/pagc_dag_smoke.masked
cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_dag_smoke.masked
dune exec bin/pagc.exe -- --dag --machines 3 --schedule steal \
  --explain root.code examples/primes.pas >/dev/null 2>&1
# Static-schedule sharing (subtree memo + wire interning) must emit the
# same masked assembly as the sequential compile too.
dune exec bin/pagc.exe -- --dag --machines 3 \
  examples/primes.pas -o /tmp/pagc_dag_static_smoke.s 2>/dev/null
sed 's/[LP][0-9][0-9]*/X/g' /tmp/pagc_dag_static_smoke.s > /tmp/pagc_dag_static_smoke.masked
cmp /tmp/pagc_seq_smoke.masked /tmp/pagc_dag_static_smoke.masked
# A DAG-sharing service on real domains: tenants intern concurrently, and
# every resident must still match a from-scratch compile.
dune exec bin/pagc.exe -- --serve examples/three_tenants.serve --dag \
  --transport domains >/dev/null
# --dag is the only sharing switch: the retired flags are usage errors.
for flag in --hashcons --no-hashcons --no-dag; do
  if dune exec bin/pagc.exe -- "$flag" examples/primes.pas >/dev/null 2>&1; then
    echo "check.sh: pagc accepted retired flag $flag" >&2
    exit 1
  fi
done
# Provenance smoke: --explain exits nonzero unless the recorded slice
# equals the reference engine's dependency closure; --profile-json must
# produce parseable JSON with a critical path no longer than the makespan.
dune exec bin/pagc.exe -- --machines 4 --explain root.code \
  examples/primes.pas >/dev/null 2>&1
profile=/tmp/pagc_profile_smoke.json
dune exec bin/pagc.exe -- --machines 4 --profile-json "$profile" \
  examples/primes.pas -o /tmp/pagc_profile_smoke.s 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; p=json.load(open('$profile')); sys.exit(0 if 0 < p['critical_s'] <= p['makespan_s'] else 1)"
else
  grep -q '"critical_s"' "$profile"
fi
# Benchmark smoke: every workload prints every declared metric and reports
# a correct run (the benchmark drives Runner, Session and Static_eval).
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/smoke.py
fi
echo "check.sh: all green"
