// The four benchmark workloads.  Each fills `report` with its metrics
// (end-to-end when untraced, per-layer when `opt.trace`) and the output
// checks, and counts every attempted operation.
#pragma once

#include "common.h"

namespace perfbench {

void run_fleet_day(const Options& opt, Report& report);
void run_cluster_day(const Options& opt, Report& report);
void run_query_mix(const Options& opt, Report& report);
void run_packet_rack(const Options& opt, Report& report);

}  // namespace perfbench
