#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds the
library, msampctl and the measuring program (perfbench/measure) under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.

Workloads (BENCHMARK.json says why each exists):
  fleet_day    in-process run_fleet day on nproc-1 lanes -> Dataset::save
  cluster_day  the same day through cluster::Coordinator, 1-thread workers
  query_mix    closed-loop client over a day built during set-up
  packet_rack  a panel of racks at packet level (sim/net/transport +
               Samplers), nproc-1 lanes

--trace 0 measures the end-to-end metrics; --trace 1 runs the traced
breakdown and reports per-layer metrics.  Every metric is printed with its
unit and sample count, then the output checks and provenance; the last line
of stdout is one JSON object {correct, attempted, failed, metrics}.  The
output checks (dataset digests, query answers, packet statistics) are also
compared with every earlier run in the same build directory, so a run whose
outputs drift from the first run at the same seed fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_day", "cluster_day", "query_mix", "packet_rack")

# Result metric -> the perfbench metric it is read from, per workload.  A
# workload's unit of work is a rack-window (fleet_day, cluster_day), a query
# (query_mix) or a megabyte of simulated traffic delivered (packet_rack:
# per byte rather than per simulated millisecond, because how much traffic a
# seed's racks offer varies far more than what each byte costs to simulate;
# simulated ms/s is printed beside it).
END_TO_END = {
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "throughput_per_s": {
        "fleet_day": "windows_per_s",
        "cluster_day": "windows_per_s",
        "query_mix": "queries_per_s",
        "packet_rack": "sim_mb_per_s",
    },
    "cpu_ms_per_unit": {
        "fleet_day": "cpu_ms_per_window",
        "cluster_day": "cpu_ms_per_window",
        "query_mix": "cpu_ms_per_query",
        "packet_rack": "cpu_ms_per_sim_mb",
    },
}
# Per-layer metrics every workload's traced run measures.
PER_LAYER = {
    "core.combine_runs_ms": "core.combine_runs_ms.p50",
    "analysis.contention_ms": "analysis.contention_ms.p50",
    "analysis.bursts_ms": "analysis.bursts_ms.p50",
    "util.cpu_util": "util.cpu_util",
    "trace.overhead_pct": "trace.overhead_pct",
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench and msampctl."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout)
            raise SystemExit("perfbench: cmake configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        log(r.stdout[-20000:])
        raise SystemExit("perfbench: build failed")
    perfbench = os.path.join(build_dir, "perfbench")
    msampctl = os.path.join(build_dir, "msamp_tools", "msampctl")
    for path in (perfbench, msampctl):
        if not os.access(path, os.X_OK):
            raise SystemExit("perfbench: build produced no " + path)
    return perfbench, msampctl


def run_child(cmd, timeout):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: %s timed out after %ds"
                         % (os.path.basename(cmd[0]), timeout))
    finally:
        try:  # reap anything the child left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def source_digest(tops=("src", "tools", "perfbench")):
    """Digest of the sources under `tops` (the checkout need not be a git
    repository)."""
    h = hashlib.sha256()
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def provenance(msampctl, build_dir):
    affinity = sorted(os.sched_getaffinity(0))
    prov = {
        "nproc": len(affinity),
        "cpus_online": os.cpu_count(),
        "affinity": ",".join(map(str, affinity)),
        "pinned": len(affinity) < (os.cpu_count() or len(affinity)),
        "commit": commit(),
        "source_digest": source_digest(),
    }
    code, out = run_child([msampctl, "version"], 30)
    for line in out.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2 and parts[0] in (
                "compiler", "optimized", "simd-active", "simd-detected",
                "wire-version", "model-version"):
            prov[parts[0]] = parts[1].strip()
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                prov["build_type"] = line.split("=", 1)[1].strip()
    return prov


def compare_with_history(state_path, result, seed, workload, bench_digest):
    """Output checks must equal those of every earlier run at this seed and
    benchmark definition (`bench_digest`, the digest of perfbench/): the
    day's dataset digest is shared by fleet_day, cluster_day and query_mix;
    the packet statistics by every packet_rack run."""
    try:
        with open(state_path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    failures = []
    for name, value in sorted(result["checks"].items()):
        key = "%s/seed=%d/%s" % (bench_digest, seed, name)
        if key in state and state[key]["value"] != value:
            failures.append("%s=%s differs from %s, first seen on %s (delete "
                            "%s after a deliberate model change)"
                            % (name, value, state[key]["value"],
                               state[key]["workload"], state_path))
        state.setdefault(key, {"value": value, "workload": workload})
    tmp = state_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, state_path)
    return failures


def fmt(v):
    return "%.6g" % v


def terminate(signum, _frame):
    """Turns SIGTERM into an exception, so run_child's clean-up kills the
    measuring program's process group before this process exits."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/msampctl.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("perfbench: %s not found; run from a checkout of the "
                "repository" % needed)
            return 2

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    t0 = time.monotonic()
    perfbench, msampctl = build(build_dir)
    log("perfbench: build ready in %.1fs" % (time.monotonic() - t0))

    work_dir = os.path.join(build_dir, "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    prov = provenance(msampctl, build_dir)

    code, out = run_child(
        [perfbench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir, "--msampctl", msampctl], RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit("perfbench: measuring program exited %d without a "
                         "result" % code)
    result = json.loads(lines[-1])
    prov["lanes"] = result["lanes"]

    failures = list(result["failures"])
    history = compare_with_history(
        os.path.join(build_dir, "checks.json"), result, args.seed,
        args.workload, source_digest(("perfbench",)))
    failures += history
    attempted = result["attempted"] + len(result["checks"])
    failed = result["failed"] + len(history)

    m = result["metrics"]
    if args.trace:
        wanted = PER_LAYER
    else:
        wanted = {name: src[args.workload] for name, src in END_TO_END.items()}
    metrics = {}
    for name, src in wanted.items():
        if src not in m:
            failures.append("perfbench did not report " + src)
            failed += 1
            continue
        metrics[name] = {"value": m[src]["value"], "unit": m[src]["unit"]}

    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()))
    print("%-44s %16s  %-6s %8s" % ("metric", "value", "unit", "samples"))
    for name in sorted(m):
        print("%-44s %16s  %-6s %8d" % (name, fmt(m[name]["value"]),
                                        m[name]["unit"], m[name]["samples"]))
    print("error_rate (incl. output checks): %s of %d operations failed"
          % (failed, attempted))
    for name, value in sorted(result["checks"].items()):
        print("check %s = %s" % (name, value))
    for f in failures:
        print("FAILED: " + f)
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
