#!/usr/bin/env bash
# Full local check: configure, build (warnings as errors), run the test
# suite, the static-analysis and format lanes, a ThreadSanitizer lane over
# the concurrency-bearing fleet/util targets, then regenerate every
# table/figure of the paper (CSV output under bench_out/).
set -euo pipefail
cd "$(dirname "$0")/.."

# Ninja when available, the platform default generator otherwise (the
# 1-core reference container ships only make).
GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

cmake -B build "${GEN[@]}" -DMSAMP_WERROR=ON
cmake --build build
ctest --test-dir build --output-on-failure

# Static-analysis lane: msamp_lint (project invariants: determinism bans,
# output-path iteration order, wire-format hygiene, fingerprint coverage)
# plus clang-tidy when installed.  Skip with MSAMP_SKIP_LINT=1 /
# MSAMP_SKIP_TIDY=1.
scripts/check_lint.sh build

# Format lane: .clang-format enforced via --dry-run -Werror.  Skip with
# MSAMP_SKIP_FORMAT=1.
scripts/check_format.sh

# Docs lane: every msampctl subcommand documented, markdown cross-links
# resolve, the policy handbook stays linked.  Skip with MSAMP_SKIP_DOCS=1.
scripts/check_docs.sh build

# TSan lane: a second build tree with -DMSAMP_TSAN=ON, running the thread
# pool, parallel fleet runner, and the rest of the fleet/util suites under
# ThreadSanitizer.  Skip with MSAMP_SKIP_TSAN=1 (e.g. on toolchains
# without libtsan).
if [ "${MSAMP_SKIP_TSAN:-0}" != "1" ]; then
  cmake -B build-tsan "${GEN[@]}" -DMSAMP_TSAN=ON
  cmake --build build-tsan --target msamp_tests msamp_lint
  ctest --test-dir build-tsan --output-on-failure \
    -R '^(ThreadPool|FleetParallel|FleetRunner|FleetConfig|FluidRack|Dataset|DatasetView|Shard|SpillSink|Merge|Aggregate|Worker|Coordinator|Rng|Lint|BufferPolicy|Simd)'
fi

# ASan+UBSan lane: a third build tree with -DMSAMP_ASAN=ON, running the
# byte-level parsers — dataset (de)serialization including the hostile-blob
# hardening tests, and the msampctl flag-parser/CLI tests — plus the
# util::Table arena's offset arithmetic, the run-wise aggregates, and the
# packet simulator (sim::Callback's placement-new inline storage, the
# event heap's slot indices) with the net/transport/sampler suites that
# drive it, with AddressSanitizer and UBSan watching the bounds checks.
# Skip with MSAMP_SKIP_ASAN=1.
if [ "${MSAMP_SKIP_ASAN:-0}" != "1" ]; then
  cmake -B build-asan "${GEN[@]}" -DMSAMP_ASAN=ON
  cmake --build build-asan --target msamp_tests msampctl msamp_lint
  ctest --test-dir build-asan --output-on-failure \
    -R '^(Dataset|DatasetView|FleetConfig|Shard|SpillSink|ThreadPool|Merge|Protocol|Flags|Table|FormatDouble|FormatBytes|Aggregate|cli_usage|cli_pipeline|cli_cluster|cli_query|cli_sweep|cli_version|Lint|Simd|Simulator|Callback|NicFixture|TcpFixture|SwitchFixture|SamplerFixture|Host|Rack|Validation)'
fi

# Determinism: v6 bytes identical across MSAMP_THREADS, to 2- and 3-way
# `msampctl fleet --shard I/N` runs merged back, and to `msampctl cluster`
# with and without injected worker kills; the mapped readers (`report`,
# `query`) print identical tables over every copy; the parallelized benches
# emit identical stdout and bench_out/ CSVs for any MSAMP_THREADS.
scripts/check_determinism.sh build

for b in build/bench/bench_*; do
  echo "== $b"
  "$b"
done
for e in build/examples/*; do
  [ -x "$e" ] && { echo "== $e"; "$e" > /dev/null; }
done
echo "ALL CHECKS PASSED"
