#!/bin/sh
# Prints the outputs that a behaviour-preserving change must leave
# byte-identical: every registered experiment's quick summary, the
# chaos reports of the default, partition and domain plans, the
# crash-point sweep, and the ledger fsck of the domain and partition
# runs.  Any command that exits non-zero fails the whole run.
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
