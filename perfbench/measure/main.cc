// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload fleet_day|cluster_day|query_mix|packet_rack
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             --msampctl PATH
//
// The workloads keep at most nproc threads or processes busy: `lanes`, the
// CPUs this process may run on (sched_getaffinity) less one for the sink
// consumer thread or the coordinator.
// Runs one workload and prints one JSON object on stdout: its metrics
// (name, value, unit, sample count), the output-check values and any
// failures.  perfbench/run.py builds this program, runs it and turns the
// object into the benchmark's result line.
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --msampctl PATH\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--msampctl") {
        opt.msampctl = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (opt.work_dir.empty() || opt.seconds <= 0) {
    usage("--work-dir and a positive --seconds are required");
  }
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  opt.lanes = std::max(1, nproc - 1);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  std::filesystem::create_directories(opt.work_dir);
  perfbench::Report report;
  try {
    if (opt.workload == "fleet_day") {
      perfbench::run_fleet_day(opt, report);
    } else if (opt.workload == "cluster_day") {
      perfbench::run_cluster_day(opt, report);
    } else if (opt.workload == "query_mix") {
      perfbench::run_query_mix(opt, report);
    } else if (opt.workload == "packet_rack") {
      perfbench::run_packet_rack(opt, report);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  std::cout << report.to_json(opt) << std::endl;
  return 0;
}
