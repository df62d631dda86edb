#!/bin/sh
# Single-command tier-1 + lint gate: build, unit/property tests, vodlint,
# docs, and the metrics-registry check.
# Run from the repo root (or any subdirectory; dune finds the root).
set -eu

echo "== dune build =="
dune build
echo "== dune runtest =="
dune runtest
echo "== dune build @doc (odoc comments must parse) =="
# The libraries are private, so their docs build under @doc-private;
# @doc is kept alongside for the day a package stanza appears. odoc is
# not part of the minimal toolchain image — CI installs it and runs
# this for real; locally the step degrades to a skip note.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc @doc-private
else
  echo "   (odoc not installed; skipping — CI runs this step)"
fi
echo "== dune build @lint (project mode: effect + units/hot-path + protocol analysis) =="
dune build @lint
echo "== vodlint --project (explicit, against the checked-in baseline) =="
dune exec --no-print-directory bin/vodlint.exe -- --project \
  --baseline .vodlint-baseline --units-decl units.decl \
  --protocols-decl protocols.decl --forbid-stale
echo "== units.decl stale-declaration check =="
# Every `Module.name` declared in units.decl must still exist as a
# `val name` in the module's .mli somewhere under lib/ — otherwise the
# declaration is dead weight (the value was renamed or removed) and the
# units analysis silently stops covering it.
decl_status=0
for qual in $(grep -vE '^[[:space:]]*(#|$)' units.decl | awk '{print $1}'); do
  mod=${qual%%.*}
  name=${qual#*.}
  file=$(printf '%s' "$mod" | tr 'A-Z' 'a-z').mli
  mli=$(find lib -name "$file" | head -n 1)
  if [ -z "$mli" ]; then
    echo "FAIL: units.decl declares '$qual' but no $file exists under lib/" >&2
    decl_status=1
  elif ! grep -qE "^[[:space:]]*val[[:space:]]+$name[[:space:]:]" "$mli"; then
    echo "FAIL: units.decl declares '$qual' but $mli has no 'val $name'" >&2
    decl_status=1
  fi
done
[ "$decl_status" -eq 0 ] || exit 1
echo "== protocols.decl stale-declaration check =="
# Same contract for the protocol declarations: every qualified
# `Module.name` appearing in an acquire=/release=/handoff=/bracket=
# field must still exist as a `val name` in the module's .mli under
# lib/. Dotless names (open_out, close_in, ...) are stdlib and exempt.
proto_status=0
for qual in $(grep -vE '^[[:space:]]*(#|$)' protocols.decl \
  | tr ' \t' '\n\n' | grep '=' | cut -d= -f2 | tr ',' '\n' | grep '\.'); do
  mod=${qual%%.*}
  name=${qual#*.}
  file=$(printf '%s' "$mod" | tr 'A-Z' 'a-z').mli
  mli=$(find lib -name "$file" | head -n 1)
  if [ -z "$mli" ]; then
    echo "FAIL: protocols.decl declares '$qual' but no $file exists under lib/" >&2
    proto_status=1
  elif ! grep -qE "^[[:space:]]*val[[:space:]]+$name[[:space:]:]" "$mli"; then
    echo "FAIL: protocols.decl declares '$qual' but $mli has no 'val $name'" >&2
    proto_status=1
  fi
done
[ "$proto_status" -eq 0 ] || exit 1
echo "== EPF determinism smoke: --jobs 1 vs --jobs 4 =="
# A small end-to-end solve must produce byte-identical output at any
# job count (the pool's determinism contract). The "time" line is the
# one legitimately nondeterministic row; strip it before diffing.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
for j in 1 4; do
  dune exec --no-print-directory bin/vodopt.exe -- solve \
    --videos 120 --days 7 --requests-per-video 6 --passes 12 --jobs "$j" \
    --metrics "$smoke_dir/metrics$j.json" \
    | grep -v '^time' > "$smoke_dir/jobs$j.out"
done
if ! diff -u "$smoke_dir/jobs1.out" "$smoke_dir/jobs4.out"; then
  echo "FAIL: solver output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
# The metrics exports must agree too, modulo the documented exclusions
# (timing keys, scheduler telemetry, and the mem/* RSS gauges — see
# METRICS.md, "Determinism and --jobs invariance").
for j in 1 4; do
  grep -vE '_seconds|"pool/sched/|"mem/' "$smoke_dir/metrics$j.json" \
    > "$smoke_dir/metrics$j.inv"
done
if ! diff -u "$smoke_dir/metrics1.inv" "$smoke_dir/metrics4.inv"; then
  echo "FAIL: non-time metrics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "== Benders determinism smoke: --jobs 1 vs --jobs 4 =="
# The cutting-plane backend shares the pool's determinism contract: cut
# generation and bound sweeps fan out through the pool, the master LP
# and the rounding sweep are sequential, so the report must be
# byte-identical at any job count.
for j in 1 4; do
  dune exec --no-print-directory bin/vodopt.exe -- solve \
    --topology ebone --videos 150 --days 7 --requests-per-video 6 \
    --disk 4 --passes 20 --solver benders --jobs "$j" \
    --metrics "$smoke_dir/benders_metrics$j.json" \
    | grep -v '^time' > "$smoke_dir/benders$j.out"
done
if ! diff -u "$smoke_dir/benders1.out" "$smoke_dir/benders4.out"; then
  echo "FAIL: benders output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
for j in 1 4; do
  grep -vE '_seconds|"pool/sched/|"mem/' "$smoke_dir/benders_metrics$j.json" \
    > "$smoke_dir/benders_metrics$j.inv"
done
if ! diff -u "$smoke_dir/benders_metrics1.inv" "$smoke_dir/benders_metrics4.inv"; then
  echo "FAIL: non-time benders metrics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "== solve output vs recorded placements (EPF, Benders and simplex, --jobs 1) =="
# The --jobs 1 smoke reports above, and millisecond simplex and Benders
# solves on the 4-VHO ring of tools/golden/ring4.edges (disks and links
# both bind, so the rounded placements carry a nonzero violation, and
# the Benders master keeps link rows that can fill), must match the
# committed recordings in tools/golden/ byte for byte (time line
# stripped): a kernel change that moves an objective, a bound, a
# violation or a copy count fails here. Re-record them only for a
# deliberate change of results.
for s in simplex benders; do
  dune exec --no-print-directory bin/vodopt.exe -- solve --solver "$s" \
    --topology-file tools/golden/ring4.edges --videos 8 --days 7 \
    --requests-per-video 20 --disk 2 --link 5 --jobs 1 \
    | grep -v '^time' > "$smoke_dir/${s}_ring4.out"
done
check_recorded() { # $1 = committed recording, $2 = fresh report
  if ! diff -u "$1" "$2"; then
    echo "FAIL: vodopt output differs from $1" >&2
    exit 1
  fi
}
check_recorded tools/golden/vodopt_solve_epf.out "$smoke_dir/jobs1.out"
check_recorded tools/golden/vodopt_solve_benders.out "$smoke_dir/benders1.out"
check_recorded tools/golden/vodopt_solve_simplex.out "$smoke_dir/simplex_ring4.out"
check_recorded tools/golden/vodopt_solve_benders_ring4.out "$smoke_dir/benders_ring4.out"
echo "== batch MIP simulate vs recorded report (--jobs 1) =="
# The batch MIP pipeline end to end: three weekly placement updates, a
# VHO outage (days 8.8-15.4) across the day-14 update, 25 Mb/s playout
# links that saturate, and VHO 0 as origin, so the VHO-down,
# no-capacity, failover and origin paths all fire. The report (no
# timing line) must match the committed recording byte for byte.
dune exec --no-print-directory bin/vodopt.exe -- simulate \
  --videos 150 --days 22 --requests-per-video 12 --passes 10 \
  --faults single-vho:3 --link-capacity 25 --origin 0 --jobs 1 \
  > "$smoke_dir/simulate_mip.out"
check_recorded tools/golden/vodopt_simulate_mip.out "$smoke_dir/simulate_mip.out"
echo "== trace analytics and online daemon vs recorded reports (--jobs 1) =="
# The trace analytics report on a generated trace, and again after a CSV
# round trip through --trace-out/--trace (the loader reads back exactly
# the rows the saver wrote, so the report does not move), and a daemon
# run with 12-hour ticks, warm starts, a migration budget that defers
# deltas and a fault replan (day 9.80) must match the committed
# recordings byte for byte. Neither report carries a timing line.
dune exec --no-print-directory bin/vodopt.exe -- stats --videos 200 --days 14 \
  > "$smoke_dir/stats.out"
check_recorded tools/golden/vodopt_stats.out "$smoke_dir/stats.out"
dune exec --no-print-directory bin/vodopt.exe -- stats --videos 200 --days 14 \
  --trace-out "$smoke_dir/trace.csv" > /dev/null
dune exec --no-print-directory bin/vodopt.exe -- stats --videos 200 --days 14 \
  --trace "$smoke_dir/trace.csv" > "$smoke_dir/stats_csv.out"
check_recorded tools/golden/vodopt_stats.out "$smoke_dir/stats_csv.out"
dune exec --no-print-directory bin/vodopt.exe -- serve \
  --videos 100 --days 14 --requests-per-video 5 --passes 10 \
  --update-hours 12 --budget 30 --faults single-vho --link-capacity 400 \
  --jobs 1 > "$smoke_dir/serve.out"
check_recorded tools/golden/vodopt_serve.out "$smoke_dir/serve.out"
echo "== solve metric key names vs recorded (EPF and Benders, --jobs 1) =="
# The benchmark's per-layer metrics read the phase/solve/* timers and the
# epf/decomp counters by name (bench/perf/layers.ml): a renamed or
# re-nested key would silently read as zero there. The sorted key names
# of the --jobs 1 smokes' metrics must match tools/golden/*.keys.
for s in epf benders; do
  case $s in epf) m=metrics1 ;; benders) m=benders_metrics1 ;; esac
  grep -oE '^  "[^"]+"' "$smoke_dir/$m.json" | tr -d ' "' | LC_ALL=C sort \
    > "$smoke_dir/$s.keys"
  if ! diff -u "tools/golden/vodopt_solve_$s.keys" "$smoke_dir/$s.keys"; then
    echo "FAIL: $s solve metric key names differ from tools/golden/vodopt_solve_$s.keys" >&2
    exit 1
  fi
done
echo "== EPF vs Benders rounded-cost agreement =="
# On a loosely-capacitated quick instance both backends must land on
# nearly the same rounded cost (within 2 x epsilon relative) — this
# pins the two solvers to each other end to end through Solve.solve,
# not just to their own histories.
for s in epf benders; do
  dune exec --no-print-directory bin/vodopt.exe -- solve \
    --topology ebone --videos 200 --days 7 --requests-per-video 6 \
    --disk 8 --passes 60 --solver "$s" \
    | sed -n 's/^MIP objective *\([0-9.]*\).*/\1/p' > "$smoke_dir/cost_$s"
done
awk -v a="$(cat "$smoke_dir/cost_epf")" -v b="$(cat "$smoke_dir/cost_benders")" \
  'BEGIN {
     if (a == "" || b == "") { print "FAIL: missing MIP objective line"; exit 1 }
     d = (a > b ? a - b : b - a) / b;
     printf "   EPF %s vs Benders %s (rel diff %.4f, bound 0.02)\n", a, b, d;
     if (d > 0.02) { print "FAIL: backends disagree beyond 2 x epsilon"; exit 1 }
   }' || exit 1
echo "== fault playout determinism smoke: --jobs 1 vs --jobs 4 =="
# The resilience playout (fault schedule + capacity-aware failover) must
# be byte-identical at any job count, like the solver above; its console
# report carries no timing line, so the whole stdout diffs directly. The
# trace comes from the sharded generator (Tracegen.generate), so this
# also pins that generator's --jobs invariance end to end.
for j in 1 4; do
  dune exec --no-print-directory bin/vodopt.exe -- simulate \
    --scheme lru --videos 150 --days 14 --requests-per-video 5 \
    --faults single-vho --link-capacity 400 --jobs "$j" \
    --metrics "$smoke_dir/fault_metrics$j.json" \
    > "$smoke_dir/fault$j.out"
done
if ! diff -u "$smoke_dir/fault1.out" "$smoke_dir/fault4.out"; then
  echo "FAIL: fault playout differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
for j in 1 4; do
  grep -vE '_seconds|"pool/sched/|"mem/' "$smoke_dir/fault_metrics$j.json" \
    > "$smoke_dir/fault_metrics$j.inv"
done
if ! diff -u "$smoke_dir/fault_metrics1.inv" "$smoke_dir/fault_metrics4.inv"; then
  echo "FAIL: non-time fault metrics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "== scale-tier list drift: bench --help vs EXPERIMENTS.md =="
# One authoritative tier list, quoted in two places; both must carry
# every tier (a new tier added to bench/common.ml without its docs
# fails here).
tiers='VOD_SCALE=quick|default|full|huge'
dune exec --no-print-directory bench/main.exe -- --help \
  | grep -qF "$tiers" || {
  echo "FAIL: bench --help does not list '$tiers'" >&2
  exit 1
}
grep -qF "$tiers" EXPERIMENTS.md || {
  echo "FAIL: EXPERIMENTS.md does not list '$tiers'" >&2
  exit 1
}
echo "== daemon determinism smoke: --jobs 1 vs --jobs 4 =="
# The online re-placement daemon (continuous replans, warm starts,
# migration budget, fault reaction) must also be byte-identical at any
# job count; the serve report carries no timing line.
for j in 1 4; do
  dune exec --no-print-directory bin/vodopt.exe -- serve \
    --videos 100 --days 10 --requests-per-video 5 --passes 10 \
    --update-hours 12 --budget 150 --faults single-vho --link-capacity 400 \
    --jobs "$j" --metrics "$smoke_dir/daemon_metrics$j.json" \
    > "$smoke_dir/daemon$j.out"
done
if ! diff -u "$smoke_dir/daemon1.out" "$smoke_dir/daemon4.out"; then
  echo "FAIL: daemon output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
for j in 1 4; do
  grep -vE '_seconds|"pool/sched/|"mem/' "$smoke_dir/daemon_metrics$j.json" \
    > "$smoke_dir/daemon_metrics$j.inv"
done
if ! diff -u "$smoke_dir/daemon_metrics1.inv" "$smoke_dir/daemon_metrics4.inv"; then
  echo "FAIL: non-time daemon metrics differ between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "== daemon bench exhibit (quick scale, checkpointed) =="
# The continuous-vs-batch exhibit must run end to end at quick scale;
# --checkpoint exercises the resumable-exhibit path and leaves the
# per-exhibit metrics JSON behind for the registry check below.
VOD_SCALE=quick dune exec --no-print-directory bench/main.exe -- daemon \
  --checkpoint "$smoke_dir/ckpt" > /dev/null
[ -f "$smoke_dir/ckpt/daemon.metrics.json" ] || {
  echo "FAIL: daemon exhibit left no checkpoint metrics" >&2
  exit 1
}
echo "== decomp bench exhibit (quick scale, checkpointed) =="
# The solver-backend race (exact-LP anchor + Benders-vs-EPF convergence)
# must run end to end at quick scale; its checkpointed metrics feed the
# registry check below so the decomp/* keys stay documented.
VOD_SCALE=quick dune exec --no-print-directory bench/main.exe -- decomp \
  --checkpoint "$smoke_dir/ckpt" > /dev/null
[ -f "$smoke_dir/ckpt/decomp.metrics.json" ] || {
  echo "FAIL: decomp exhibit left no checkpoint metrics" >&2
  exit 1
}
echo "== bench metrics vs METRICS.md registry =="
# Run one quick-scale bench exhibit with --metrics and check every
# emitted key is documented. Normalize instance-specific name parts to
# the registry's placeholders before the lookup, so a new undocumented
# (or misspelled) metric name fails the gate.
VOD_SCALE=quick dune exec --no-print-directory bench/main.exe -- table3 \
  --metrics "$smoke_dir/bench_metrics.json" > /dev/null
sed -n '/<!-- registry:begin/,/registry:end -->/p' METRICS.md \
  | grep -oE '^\| `[^`]+`' | sed 's/^| `//; s/`$//' > "$smoke_dir/registry.txt"
# The fault, daemon and benders smokes above exported the serving-loop,
# daemon and decomposition keys; validate them too, along with the
# checkpointed daemon and decomp exhibits' registries.
keys=$(grep -hoE '^  "[^"]+"' "$smoke_dir/bench_metrics.json" \
  "$smoke_dir/fault_metrics1.json" "$smoke_dir/daemon_metrics1.json" \
  "$smoke_dir/benders_metrics1.json" "$smoke_dir/ckpt/daemon.metrics.json" \
  "$smoke_dir/ckpt/decomp.metrics.json" | tr -d ' "')
[ -n "$keys" ] || { echo "FAIL: bench --metrics emitted no keys" >&2; exit 1; }
status=0
for key in $keys; do
  norm=$(printf '%s\n' "$key" | sed -E '
    s#^phase/bench/([a-z0-9]+)/#phase/#;
    s#^phase/bench/[a-z0-9]+_seconds$#phase/bench/<exhibit>_seconds#;
    s#^pool/sched/domain[0-9]+_busy_seconds$#pool/sched/domain<slot>_busy_seconds#;
    s#^huge/[a-z]+_seconds$#huge/<step>_seconds#;
    s#^cache/(lru|lfu|lrfu)/#cache/<policy>/#')
  if ! grep -qxF "$norm" "$smoke_dir/registry.txt"; then
    echo "FAIL: metric '$key' (registry form '$norm') is not in METRICS.md" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] || exit 1
echo "== all checks passed =="
