#!/usr/bin/env bash
# Verifies the determinism contracts end to end with the real binaries, from
# three tables:
#
#   RUNS     msampctl runs that write a dataset: the whole day at several
#            thread counts, 2- and 3-way `--shard I/N` splits (a different
#            thread count per shard) folded back with `merge`, and the
#            cluster orchestrator (worker processes, spill sinks, streaming
#            merge), fault-free and with injected worker kills
#            (--fault-rate, deterministic, test-only).
#   SAME     pairs of those files that must be byte-identical (`cmp`); the
#            mapped readers in READERS must then print identical tables over
#            the reference and every copy.
#   BENCHES  benches that fan windows out over bench::parallel_windows:
#            stdout and the bench_out/ tree must be identical for every
#            MSAMP_THREADS in THREADS.
#
#   scripts/check_determinism.sh [build-dir]     # default: build
#   ARGS="--racks 8 --hours 4 --samples 300" scripts/check_determinism.sh
#   THREADS="1 4 7" BENCHES="bench_ablation_fabric" scripts/check_determinism.sh
#
# The default day is big enough to cross the busy hour (exemplar selection,
# rack classification) yet regenerates in seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
ARGS=${ARGS:-"--racks 6 --hours 8 --samples 200"}
THREADS=${THREADS:-"1 4"}
BIN="$PWD/$BUILD"
MSAMPCTL="$BIN/tools/msampctl"
[ -x "$MSAMPCTL" ] || { echo "error: $MSAMPCTL not built"; exit 1; }

# <output> <environment, or -> <msampctl command>; %DAY stands for $ARGS.
RUNS='
t1.bin       MSAMP_THREADS=1  fleet %DAY
t3.bin       MSAMP_THREADS=3  fleet %DAY
t4.bin       MSAMP_THREADS=4  fleet %DAY
f2.bin       -                fleet %DAY --threads 2
a0.bin       MSAMP_THREADS=2  fleet %DAY --shard 0/2
a1.bin       MSAMP_THREADS=3  fleet %DAY --shard 1/2
merged2.bin  -                merge a0.bin a1.bin
b0.bin       MSAMP_THREADS=1  fleet %DAY --shard 0/3
b1.bin       MSAMP_THREADS=4  fleet %DAY --shard 1/3
b2.bin       MSAMP_THREADS=2  fleet %DAY --shard 2/3
merged3.bin  -                merge b0.bin b1.bin b2.bin
cluster.bin  -                cluster %DAY --threads 2 --workers 3
faulted.bin  -                cluster %DAY --threads 2 --workers 3 --fault-rate 0.3 --retry-base-ms 10
'

# <reference> <copy>: v6 bytes must match.
SAME='
t1.bin  t4.bin
t1.bin  t3.bin
t1.bin  merged2.bin
t3.bin  merged3.bin
f2.bin  cluster.bin
f2.bin  faulted.bin
'

READERS=(
  "report"
  "query"
  "query --what windows --limit 0"
  "query --region A --what bursts --limit 0"
)

BENCHES=${BENCHES:-"
  bench_crosscheck_fluid_vs_packet
  bench_crosscheck_packet_incast
  bench_crosscheck_switch_vs_host
  bench_validation_stability
  bench_ablation_cc_compare
  bench_ablation_buffer_policies
  bench_ablation_ecn_threshold
  bench_ablation_fabric
  bench_ablation_asic_generations
  bench_ablation_gro_inflation
"}

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== datasets ($ARGS)"
mkdir "$scratch/day"
cd "$scratch/day"
while read -r out envs cmd rest; do
  [ -n "$out" ] || continue
  [ "$envs" = - ] && envs=
  if ! env $envs "$MSAMPCTL" "$cmd" ${rest//%DAY/$ARGS} --out "$out" \
      > /dev/null 2> "$out.log"; then
    echo "FAILED: $envs msampctl $cmd ${rest//%DAY/$ARGS} --out $out"
    cat "$out.log"
    exit 1
  fi
done <<< "$RUNS"

while read -r ref copy; do
  [ -n "$ref" ] || continue
  if ! cmp "$ref" "$copy"; then
    echo "MISMATCH: $copy differs from $ref"
    cat "$copy.log"
    exit 1
  fi
  echo "ok: $copy == $ref"
  for reader in "${READERS[@]}"; do
    "$MSAMPCTL" $reader --dataset "$ref" > ref.txt
    "$MSAMPCTL" $reader --dataset "$copy" > got.txt
    if ! cmp -s ref.txt got.txt; then
      echo "MISMATCH: '$reader' output differs between $ref and $copy"
      exit 1
    fi
  done
done <<< "$SAME"

echo "== benches (MSAMP_THREADS in {$THREADS})"
for bench in $BENCHES; do
  bin="$BIN/bench/$bench"
  [ -x "$bin" ] || { echo "error: $bin not built"; exit 1; }
  ref=""
  for t in $THREADS; do
    dir="$scratch/${bench}_t${t}"
    mkdir -p "$dir"
    (cd "$dir" && MSAMP_THREADS="$t" "$bin" > stdout.txt)
    if [ -z "$ref" ]; then
      ref="$dir"
    elif ! diff -r "$ref" "$dir" > /dev/null; then
      echo "MISMATCH: $bench differs between MSAMP_THREADS=${THREADS%% *} and $t"
      diff -r "$ref" "$dir" | head -20
      exit 1
    fi
  done
  echo "ok: $bench"
done

echo "DETERMINISM OK"
