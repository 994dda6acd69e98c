#!/usr/bin/env bash
# Verifies the dataset determinism contract end to end with the real CLI:
# v6 bytes are a pure function of the config — identical across
# MSAMP_THREADS, and identical whether written whole (`fleet`) or as
# shards generated in separate processes with different thread counts and
# folded back with `msampctl merge` — and the mapped readers (`report`,
# `query`) emit byte-identical stdout over every copy.
#
#   scripts/check_view_determinism.sh [build-dir]     # default: build
#   ARGS="--racks 8 --hours 4 --samples 300" scripts/check_view_determinism.sh
#
# The default scale is big enough to cross the busy hour (exemplar
# selection, rack classification) yet regenerates in seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
ARGS=${ARGS:-"--racks 6 --hours 8 --samples 200"}
MSAMPCTL="$PWD/$BUILD/tools/msampctl"
[ -x "$MSAMPCTL" ] || { echo "error: $MSAMPCTL not built"; exit 1; }

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

same() {  # same <reference> <copy> <what>
  if ! cmp "$1" "$2"; then
    echo "MISMATCH: $3"
    exit 1
  fi
}

echo "== whole day across thread counts"
for t in 1 3 4; do
  MSAMP_THREADS=$t "$MSAMPCTL" fleet $ARGS --out t$t.bin > /dev/null
done
same t1.bin t4.bin "v6 bytes differ between MSAMP_THREADS 1 and 4"
same t1.bin t3.bin "v6 bytes differ between MSAMP_THREADS 1 and 3"

echo "== two shards (2/3 threads), merged"
MSAMP_THREADS=2 "$MSAMPCTL" fleet $ARGS --shard 0/2 --out a0.bin > /dev/null
MSAMP_THREADS=3 "$MSAMPCTL" fleet $ARGS --shard 1/2 --out a1.bin > /dev/null
"$MSAMPCTL" merge a0.bin a1.bin --out merged2.bin > /dev/null
same t1.bin merged2.bin "two merged shards differ from the whole day"

echo "== three shards (1/4/2 threads), merged"
MSAMP_THREADS=1 "$MSAMPCTL" fleet $ARGS --shard 0/3 --out b0.bin > /dev/null
MSAMP_THREADS=4 "$MSAMPCTL" fleet $ARGS --shard 1/3 --out b1.bin > /dev/null
MSAMP_THREADS=2 "$MSAMPCTL" fleet $ARGS --shard 2/3 --out b2.bin > /dev/null
"$MSAMPCTL" merge b0.bin b1.bin b2.bin --out merged3.bin > /dev/null
same t3.bin merged3.bin "three merged shards differ from the whole day at 3 threads"

echo "== mapped readers emit identical tables over every copy"
for cmd in "report" "query" "query --what windows --limit 0" \
           "query --region A --what bursts --limit 0"; do
  "$MSAMPCTL" $cmd --dataset t1.bin > ref.txt
  for ds in t3.bin t4.bin merged2.bin merged3.bin; do
    "$MSAMPCTL" $cmd --dataset "$ds" > got.txt
    if ! cmp -s ref.txt got.txt; then
      echo "MISMATCH: '$cmd' output differs between t1.bin and $ds"
      exit 1
    fi
  done
done
echo "VIEW DETERMINISM OK ($ARGS)"
