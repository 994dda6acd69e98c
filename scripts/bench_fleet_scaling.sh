#!/usr/bin/env bash
# Measures serial-vs-parallel fleet dataset generation — wall-clock, user
# and sys CPU, and minor page faults — and cross-checks byte-identity
# between thread counts.  Regenerates the
# numbers behind the speedup table in docs/PERFORMANCE.md:
#
#   scripts/bench_fleet_scaling.sh                    # 96 + 1000 racks
#   RACKS=96 THREADS="1 4" scripts/bench_fleet_scaling.sh
#
# Each (racks, threads) cell is one full two-region measurement day
# (24 hours x 700 samples by default) through `msampctl fleet`.
#
# CPU and faults come from getrusage(RUSAGE_CHILDREN) in a small python3
# wrapper (time(1) is not installed everywhere).  Besides the CSV on
# stdout, each run overwrites BENCH_fleet_scaling.json with the same rows
# plus the host's core count, the SIMD path the run's
# kernels routed to (`msampctl version`'s simd-active), and the pool's lock
# contention rate at each thread count (from bench_pool_contention, null
# when that binary isn't built).  The committed file's git history is the
# perf trajectory future re-anchors read (docs/OBSERVABILITY.md).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-build/tools/msampctl}
CONTENTION_BIN=${CONTENTION_BIN:-build/bench/bench_pool_contention}
RACKS=${RACKS:-"96 1000"}
THREADS=${THREADS:-"1 2 4 8"}
HOURS=${HOURS:-24}
SAMPLES=${SAMPLES:-700}
JSON=${JSON:-BENCH_fleet_scaling.json}

[ -x "$BIN" ] || { echo "error: $BIN not built (run cmake --build build)"; exit 1; }

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# The SIMD path the kernels route to: perf rows are only comparable across
# runs that took the same path (docs/SIMD.md).
simd_path=$("$BIN" version | awk '$1 == "simd-active" { print $2 }')
[ -n "$simd_path" ] || simd_path=unknown

# Refresh the contention table first (bench_out/pool_contention.csv) so
# each thread count's lock rate can ride along in the JSON rows.
contention_csv=""
if [ -x "$CONTENTION_BIN" ]; then
  "$CONTENTION_BIN" > /dev/null
  contention_csv="bench_out/pool_contention.csv"
fi

# Lock contention rate for a thread count, or the literal string `null`.
contention_rate() {
  local t="$1"
  [ -n "$contention_csv" ] && [ -f "$contention_csv" ] || { echo null; return; }
  awk -F, -v t="$t" 'NR > 1 && $1 == t { print $4; found = 1 } END { if (!found) print "null" }' \
      "$contention_csv"
}

# Runs a command with its stdout discarded and prints
# "<wall s> <user s> <sys s> <minor faults>" for it.
measure() {
  python3 - "$@" <<'PY'
import resource, subprocess, sys, time
t0 = time.monotonic()
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
wall = time.monotonic() - t0
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(f"{wall:.3f} {ru.ru_utime:.3f} {ru.ru_stime:.3f} {ru.ru_minflt}")
PY
}

rows=""
echo "racks_per_region,threads,seconds,user_s,sys_s,minor_faults"
for r in $RACKS; do
  ref=""
  for t in $THREADS; do
    ds="$out/ds_${r}_${t}.bin"
    read -r secs user sys faults < <(measure "$BIN" fleet --racks "$r" \
        --hours "$HOURS" --samples "$SAMPLES" --threads "$t" --out "$ds")
    echo "$r,$t,$secs,$user,$sys,$faults"
    rate=$(contention_rate "$t")
    row=$(printf '{"racks_per_region": %s, "threads": %s, "seconds": %s, "user_s": %s, "sys_s": %s, "minor_faults": %s, "lock_contention_rate": %s}' \
                 "$r" "$t" "$secs" "$user" "$sys" "$faults" "$rate")
    rows="${rows:+$rows,$'\n'    }$row"
    # Determinism contract: every thread count must produce the same bytes.
    if [ -z "$ref" ]; then
      ref="$ds"
    else
      cmp -s "$ref" "$ds" || { echo "BYTE MISMATCH: $ref vs $ds"; exit 1; }
      rm -f "$ds"
    fi
  done
done

cat > "$JSON" <<EOF
{
  "bench": "fleet_scaling",
  "hours": $HOURS,
  "samples_per_run": $SAMPLES,
  "host_cores": $(nproc),
  "simd_path": "$simd_path",
  "rows": [
    $rows
  ]
}
EOF
echo "wrote $JSON" >&2
