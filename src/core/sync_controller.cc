#include "core/sync_controller.h"

#include <algorithm>

namespace msamp::core {

SyncRun combine_runs(const std::vector<RunRecord>& records) {
  SyncRun out;
  combine_runs(records, out);
  return out;
}

void combine_runs(const std::vector<RunRecord>& records, SyncRun& out) {
  out.grid_start = -1;
  out.interval = records.empty() ? sim::kMillisecond : records.front().interval;
  out.hosts.clear();

  // Common window across the records that actually started: SyncMillisampler
  // trims to the overlapping interval (§5: the average trimmed run is 1.85s
  // of a nominal 2s).
  sim::SimTime latest_start = -1;
  sim::SimTime earliest_end = -1;
  bool any = false;
  for (const auto& r : records) {
    if (!r.valid()) continue;
    const sim::SimTime end = r.start + r.duration();
    if (!any) {
      latest_start = r.start;
      earliest_end = end;
      any = true;
    } else {
      latest_start = std::max(latest_start, r.start);
      earliest_end = std::min(earliest_end, end);
    }
  }
  const auto n = any && earliest_end > latest_start
                     ? static_cast<std::size_t>((earliest_end - latest_start) /
                                                out.interval)
                     : std::size_t{0};
  if (n == 0) {
    out.series.clear();
    return;
  }
  out.grid_start = latest_start;
  out.series.resize(records.size());
  for (std::size_t s = 0; s < records.size(); ++s) {
    out.hosts.push_back(records[s].host);
    // An idle server's (invalid) record aligns to a true all-zero series.
    align_series(records[s], out.grid_start, n, out.series[s]);
  }
}

bool SyncController::collect(sim::SimDuration interval,
                             sim::SimDuration lead_time, Done done) {
  if (pending_ || samplers_.empty()) return false;
  pending_ = true;
  done_ = std::move(done);
  records_.clear();
  records_.resize(samplers_.size());
  outstanding_ = samplers_.size();

  simulator_.schedule_in(lead_time, [this, interval] {
    for (std::size_t i = 0; i < samplers_.size(); ++i) {
      const bool ok = samplers_[i]->start_run(
          interval, [this, i](const RunRecord& record) {
            records_[i] = record;
            if (--outstanding_ == 0) {
              pending_ = false;
              if (done_) {
                auto cb = std::move(done_);
                done_ = nullptr;
                cb(combine_runs(records_));
              }
            }
          });
      if (!ok) {
        // A periodic run was still active despite the lead time; count the
        // server as idle rather than deadlocking the collection.
        records_[i] = RunRecord{};
        records_[i].host = samplers_[i]->host().id();
        if (--outstanding_ == 0) {
          pending_ = false;
          if (done_) {
            auto cb = std::move(done_);
            done_ = nullptr;
            cb(combine_runs(records_));
          }
        }
      }
    }
  });
  return true;
}

}  // namespace msamp::core
