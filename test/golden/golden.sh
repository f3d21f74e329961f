#!/bin/sh
# Prints the outputs that a behaviour-preserving change must leave
# byte-identical: every registered experiment's quick summary, the
# chaos reports of the default, partition and domain plans, the
# crash-point sweep, the ledger fsck of the domain and partition
# runs, and the trace-report of three traced runs (fault-free
# streaming, server crashes, partitions).  Any command that exits
# non-zero fails the whole run.
#
# Usage: golden.sh SHDISK_SIM
set -eu
sim=$1

step() {
  echo "=== shdisk-sim $* ==="
  "$sim" "$@"
  echo
}

step list
for id in $("$sim" list); do
  step run "$id" --quick --summary
done
step chaos --seed 42 --duration short --policy anu
step chaos --seed 42 --duration short --plan partition --policy anu
step chaos --seed 42 --duration short --plan domain --policy anu
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
