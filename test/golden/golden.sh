#!/bin/sh
# Prints the outputs that a behaviour-preserving change must leave
# byte-identical: every registered experiment's quick summary, the
# full-size motivation experiment and claim check, the chaos reports
# of the default, partition and domain plans under ANU and under the
# round-robin baseline (the domain plan with its post-recovery
# re-deal), the crash-point sweep, the ledger fsck of the domain and
# partition runs, the trace-report of three traced runs (fault-free
# streaming, server crashes, partitions), windowed trace-reports of a
# domain-fault run around each domain fault edge, the checksums of the
# raw trace, metrics and telemetry files of two fault-free and four
# faulty runs, and the output of every example program.  Any command
# that exits non-zero fails the whole run.
#
# Usage: golden.sh SHDISK_SIM EXAMPLES_DIR
set -eu
sim=$1
examples=$2

step() {
  echo "=== shdisk-sim $* ==="
  "$sim" "$@"
  echo
}

step list
for id in $("$sim" list); do
  step run "$id" --quick --summary
done
step motivation
step validate
step chaos --seed 42 --duration short --policy anu
step chaos --seed 42 --duration short --plan partition --policy anu
step chaos --seed 42 --duration short --plan domain --policy anu
step chaos --seed 42 --duration short --policy round-robin
step chaos --seed 42 --duration short --plan partition --policy round-robin
step chaos --seed 42 --duration short --plan domain \
  --policy round-robin-rebalance
step explore --seed 42 --plan partition --policy anu
step fsck --seed 42 --duration short --plan domain --policy anu
step fsck --seed 42 --duration short --plan partition --policy anu

# Each traced run writes to the same relative path, so the report
# header names the same file on every host.
traced() {
  step run "$@" --summary --trace-jsonl trace.jsonl
  step trace-report trace.jsonl
  rm -f trace.jsonl
}

traced fig6-stream --requests 20000
traced failure-recovery-chaos --quick
traced partition-chaos --quick

# Domain faults, one window per edge: the rack0 partition (cut at
# 1800 s, healed at 3300 s) and the rack1 crash (at 4500 s, recovered
# at 6200 s).
step run domain-failure-collateral --quick --summary --trace-jsonl trace.jsonl
for window in "1799 1801" "3300 3300" "4499 4501" "6200 6200"; do
  set -- $window
  step trace-report trace.jsonl --from "$1" --to "$2"
done
rm -f trace.jsonl

# The raw observer files, pinned byte for byte by their checksums: the
# JSONL and Chrome traces, the metrics snapshot and the telemetry
# snapshot.  The faulty runs pin what crashes, partitions and domain
# failures do to every request, not only the summary.
raw() {
  echo "=== shdisk-sim run $* (raw observer files) ==="
  "$sim" run "$@" --summary --trace-jsonl trace.jsonl --trace trace.json \
    --metrics-json metrics.json --telemetry-json telemetry.json >/dev/null
  cksum trace.jsonl trace.json metrics.json telemetry.json
  rm -f trace.jsonl trace.json metrics.json telemetry.json
  echo
}

raw fig6 --quick
raw fig6-stream --requests 20000
raw failure-recovery --quick
raw failure-recovery-chaos --quick
raw partition-chaos --quick
raw domain-failure-collateral --quick

# The example programs, which drive the library API directly.
for ex in quickstart heterogeneous_cluster failover elastic_provisioning \
  trace_replay; do
  echo "=== example $ex ==="
  "$examples/$ex.exe"
  echo
done
