#include "fleet/aggregate.h"

#include <algorithm>
#include <span>

namespace msamp::fleet {
namespace {

bool passes(const BurstColumns& bursts, std::size_t i, BurstFilter filter) {
  switch (filter) {
    case BurstFilter::kAll:
      return true;
    case BurstFilter::kContended:
      return bursts.contended[i] != 0;
    case BurstFilter::kNonContended:
      return bursts.contended[i] == 0;
  }
  return true;
}

/// Rows per block in the branch-free loops below: a fixed trip count the
/// compiler vectorizes at -O2.
constexpr std::size_t kBlock = 16;

/// Sum of a uint8 column over rows [begin, end).
long column_sum(std::span<const std::uint8_t> col, std::size_t begin,
                std::size_t end) {
  long total = 0;
  std::size_t i = begin;
  for (; i + kBlock <= end; i += kBlock) {
    unsigned block = 0;  // at most 16 * 255: no overflow
    for (std::size_t k = 0; k < kBlock; ++k) block += col[i + k];
    total += block;
  }
  for (; i < end; ++i) total += col[i];
  return total;
}

/// Calls `fn(begin, end, cls)` for each maximal run [begin, end) of
/// consecutive burst rows sharing (region, rack_id), `cls` being the run's
/// class: one class lookup per run rather than per row.  Exact for any row
/// order, since every row of a run has the same class.
template <typename Fn>
void for_each_class_run(const BurstColumns& bursts, const ClassMap& classes,
                        Fn&& fn) {
  const std::size_t n = bursts.size();
  const std::uint32_t* racks = bursts.rack_id.data();
  const std::uint8_t* regions = bursts.region.data();
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    const std::uint8_t region = regions[begin];
    const std::uint32_t rack_id = racks[begin];
    end = begin + 1;
    // Whole blocks first, with a branch-free compare the compiler can
    // vectorize; runs are a window's bursts, hundreds of rows long.
    while (end + kBlock <= n) {
      std::uint32_t rack_diff = 0;
      std::uint8_t region_diff = 0;
      for (std::size_t k = 0; k < kBlock; ++k) {
        rack_diff |= racks[end + k] ^ rack_id;
      }
      for (std::size_t k = 0; k < kBlock; ++k) {
        region_diff |= static_cast<std::uint8_t>(regions[end + k] ^ region);
      }
      if ((rack_diff | region_diff) != 0) break;
      end += kBlock;
    }
    while (end < n && racks[end] == rack_id && regions[end] == region) {
      ++end;
    }
    fn(begin, end, burst_class(region, rack_id, classes));
  }
}

}  // namespace

ClassMap build_class_map(const DatasetView& view) {
  const RackInfoColumns& racks = view.racks();
  ClassMap out;
  out.reserve(racks.size());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    out[racks.rack_id[i]] =
        static_cast<analysis::RackClass>(racks.rack_class[i]);
  }
  return out;
}

analysis::RackClass burst_class(std::uint8_t region, std::uint32_t rack_id,
                                const ClassMap& classes) {
  if (region == static_cast<std::uint8_t>(workload::RegionId::kRegB)) {
    return analysis::RackClass::kRegB;
  }
  const auto it = classes.find(rack_id);
  return it == classes.end() ? analysis::RackClass::kRegATypical : it->second;
}

std::array<ClassBurstStats, analysis::kNumRackClasses> table2_summary(
    const DatasetView& view, const ClassMap& classes) {
  const BurstColumns& bursts = view.bursts();
  std::array<ClassBurstStats, analysis::kNumRackClasses> out{};
  for_each_class_run(bursts, classes, [&](std::size_t begin, std::size_t end,
                                          analysis::RackClass cls) {
    auto& stats = out[static_cast<std::size_t>(cls)];
    stats.bursts += static_cast<long>(end - begin);
    stats.contended += column_sum(bursts.contended, begin, end);
    stats.lossy += column_sum(bursts.lossy, begin, end);
  });
  return out;
}

std::vector<LossBucket> loss_by_contention(const DatasetView& view,
                                           const ClassMap& classes,
                                           analysis::RackClass rack_class,
                                           int bin_width, int max_contention) {
  const int bins = std::max(1, max_contention / std::max(bin_width, 1));
  std::vector<LossBucket> out(static_cast<std::size_t>(bins));
  for (int b = 0; b < bins; ++b) {
    out[static_cast<std::size_t>(b)].lo = b * bin_width;
    out[static_cast<std::size_t>(b)].hi = (b + 1) * bin_width;
  }
  const BurstColumns& bursts = view.bursts();
  for_each_class_run(bursts, classes, [&](std::size_t begin, std::size_t end,
                                          analysis::RackClass cls) {
    if (cls != rack_class) return;
    for (std::size_t i = begin; i < end; ++i) {
      const int bin =
          std::min(bursts.max_contention[i] / bin_width, bins - 1);
      auto& bucket = out[static_cast<std::size_t>(bin)];
      ++bucket.bursts;
      bucket.lossy += bursts.lossy[i];
    }
  });
  return out;
}

std::vector<LossBucket> loss_by_length(const DatasetView& view,
                                       const ClassMap& classes,
                                       analysis::RackClass rack_class,
                                       BurstFilter filter, int max_len_ms) {
  std::vector<LossBucket> out(static_cast<std::size_t>(std::max(max_len_ms, 1)));
  for (int len = 1; len <= max_len_ms; ++len) {
    out[static_cast<std::size_t>(len - 1)].lo = len;
    out[static_cast<std::size_t>(len - 1)].hi = len + 1;
  }
  const BurstColumns& bursts = view.bursts();
  for_each_class_run(bursts, classes, [&](std::size_t begin, std::size_t end,
                                          analysis::RackClass cls) {
    if (cls != rack_class) return;
    for (std::size_t i = begin; i < end; ++i) {
      if (!passes(bursts, i, filter)) continue;
      const int len = std::clamp<int>(bursts.len_ms[i], 1, max_len_ms);
      auto& bucket = out[static_cast<std::size_t>(len - 1)];
      ++bucket.bursts;
      bucket.lossy += bursts.lossy[i];
    }
  });
  return out;
}

std::vector<LossBucket> loss_by_connections(const DatasetView& view,
                                            const ClassMap& classes,
                                            analysis::RackClass rack_class,
                                            BurstFilter filter, int bin_width,
                                            int num_bins) {
  std::vector<LossBucket> out(static_cast<std::size_t>(std::max(num_bins, 1)));
  for (int b = 0; b < num_bins; ++b) {
    out[static_cast<std::size_t>(b)].lo = b * bin_width;
    out[static_cast<std::size_t>(b)].hi = (b + 1) * bin_width;
  }
  const BurstColumns& bursts = view.bursts();
  for_each_class_run(bursts, classes, [&](std::size_t begin, std::size_t end,
                                          analysis::RackClass cls) {
    if (cls != rack_class) return;
    for (std::size_t i = begin; i < end; ++i) {
      if (!passes(bursts, i, filter)) continue;
      const int bin = std::min(
          static_cast<int>(bursts.avg_conns[i]) / bin_width, num_bins - 1);
      auto& bucket = out[static_cast<std::size_t>(bin)];
      ++bucket.bursts;
      bucket.lossy += bursts.lossy[i];
    }
  });
  return out;
}

std::vector<double> busy_hour_contention(const DatasetView& view,
                                         workload::RegionId region,
                                         int busy_hour) {
  const RackRunColumns& runs = view.rack_runs();
  std::vector<double> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs.region[i] == static_cast<std::uint8_t>(region) &&
        runs.hour[i] == busy_hour) {
      out.push_back(runs.avg_contention[i]);
    }
  }
  return out;
}

}  // namespace msamp::fleet
