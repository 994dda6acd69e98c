// Tests for the dataset-level aggregation library (fleet/aggregate).
// Aggregations consume a DatasetView, so the hand-rolled fixture is
// serialized to a v6 blob and attached — the same read path production
// uses.
#include "fleet/aggregate.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::fleet {
namespace {

BurstRecord burst(std::uint32_t rack, int region, int len, double conns,
                  int max_contention, bool lossy) {
  BurstRecord b;
  b.rack_id = rack;
  b.region = static_cast<std::uint8_t>(region);
  b.len_ms = static_cast<std::uint16_t>(len);
  b.avg_conns = static_cast<float>(conns);
  b.max_contention = static_cast<std::uint16_t>(max_contention);
  b.contended = max_contention >= 2 ? 1 : 0;
  b.lossy = lossy ? 1 : 0;
  return b;
}

Dataset make_dataset() {
  Dataset ds;
  // Canonical scale so the v6 blob validates: 2 racks per region x 2
  // hours = 8 windows, 4 racks.
  ds.config.racks_per_region = 2;
  ds.config.hours = 2;
  ds.window_begin = 0;
  ds.window_end = 8;
  // Rack 1: RegA typical; rack 2: RegA high; racks 3-4: RegB.
  for (std::uint32_t id : {1u, 2u, 3u, 4u}) {
    RackInfo info;
    info.rack_id = id;
    info.region = id >= 3 ? 1 : 0;
    info.rack_class = static_cast<std::uint8_t>(
        id == 2 ? analysis::RackClass::kRegAHigh
                : (id >= 3 ? analysis::RackClass::kRegB
                           : analysis::RackClass::kRegATypical));
    ds.racks.push_back(info);
  }
  // Typical: 4 bursts (1 lossy, 2 contended).
  ds.bursts.push_back(burst(1, 0, 1, 5, 1, false));
  ds.bursts.push_back(burst(1, 0, 3, 25, 4, true));
  ds.bursts.push_back(burst(1, 0, 8, 55, 6, false));
  ds.bursts.push_back(burst(1, 0, 2, 10, 1, false));
  // High: 2 bursts, all contended, none lossy.
  ds.bursts.push_back(burst(2, 0, 5, 8, 12, false));
  ds.bursts.push_back(burst(2, 0, 6, 9, 15, false));
  // RegB: 1 contended lossy burst.
  ds.bursts.push_back(burst(3, 1, 4, 40, 7, true));

  // Rack runs across two hours, region split.
  for (int hour : {5, 6}) {
    for (std::uint32_t id : {1u, 2u, 3u}) {
      RackRunRecord rr;
      rr.rack_id = id;
      rr.region = id == 3 ? 1 : 0;
      rr.hour = static_cast<std::uint8_t>(hour);
      rr.avg_contention = static_cast<float>(id) + (hour == 6 ? 0.5f : 0.0f);
      ds.rack_runs.push_back(rr);
    }
  }

  // Window directory: 8 windows; the first 6 carry the rack runs (one
  // each, vector order), window 0 carries every burst.  The aggregations
  // scan whole columns, so the partition is free-form as long as the
  // totals tie out.
  ds.window_counts.assign(8, WindowCounts{});
  for (int w = 0; w < 6; ++w) ds.window_counts[w].has_run = 1;
  ds.window_counts[0].bursts = static_cast<std::uint32_t>(ds.bursts.size());
  return ds;
}

/// The fixture every test reads through: the dataset above, serialized
/// to v6 and attached as a zero-copy view.
struct Fixture {
  Dataset ds = make_dataset();
  std::vector<std::uint8_t> blob = ds.serialize();
  DatasetView view;

  Fixture() {
    const auto st = DatasetView::attach(blob.data(), blob.size(), &view);
    EXPECT_TRUE(st) << st.to_string();
  }
};

TEST(Aggregate, ClassMapAndBurstClass) {
  const Fixture f;
  const ClassMap classes = build_class_map(f.view);
  EXPECT_EQ(classes.at(1), analysis::RackClass::kRegATypical);
  EXPECT_EQ(classes.at(2), analysis::RackClass::kRegAHigh);
  EXPECT_EQ(burst_class(f.ds.bursts[0], classes),
            analysis::RackClass::kRegATypical);
  EXPECT_EQ(burst_class(f.ds.bursts[4], classes),
            analysis::RackClass::kRegAHigh);
  EXPECT_EQ(burst_class(f.ds.bursts[6], classes), analysis::RackClass::kRegB);
  // Unknown RegA rack defaults to typical.
  BurstRecord stray = f.ds.bursts[0];
  stray.rack_id = 999;
  EXPECT_EQ(burst_class(stray, classes), analysis::RackClass::kRegATypical);
}

TEST(Aggregate, Table2Summary) {
  const Fixture f;
  const auto summary = table2_summary(f.view, build_class_map(f.view));
  const auto& typical =
      summary[static_cast<std::size_t>(analysis::RackClass::kRegATypical)];
  EXPECT_EQ(typical.bursts, 4);
  EXPECT_EQ(typical.contended, 2);
  EXPECT_EQ(typical.lossy, 1);
  EXPECT_DOUBLE_EQ(typical.pct_contended(), 50.0);
  EXPECT_DOUBLE_EQ(typical.pct_lossy(), 25.0);
  const auto& high =
      summary[static_cast<std::size_t>(analysis::RackClass::kRegAHigh)];
  EXPECT_EQ(high.bursts, 2);
  EXPECT_DOUBLE_EQ(high.pct_contended(), 100.0);
  EXPECT_DOUBLE_EQ(high.pct_lossy(), 0.0);
  const auto& regb =
      summary[static_cast<std::size_t>(analysis::RackClass::kRegB)];
  EXPECT_EQ(regb.bursts, 1);
  EXPECT_DOUBLE_EQ(regb.pct_lossy(), 100.0);
}

TEST(Aggregate, EmptyStatsAreZero) {
  ClassBurstStats empty;
  EXPECT_DOUBLE_EQ(empty.pct_contended(), 0.0);
  EXPECT_DOUBLE_EQ(empty.pct_lossy(), 0.0);
}

TEST(Aggregate, LossByContention) {
  const Fixture f;
  const auto curve = loss_by_contention(f.view, build_class_map(f.view),
                                        analysis::RackClass::kRegATypical,
                                        /*bin_width=*/3, /*max=*/9);
  ASSERT_EQ(curve.size(), 3u);
  // Contention 1,1 -> bin 0; 4 -> bin 1; 6 -> bin 2.
  EXPECT_EQ(curve[0].bursts, 2);
  EXPECT_EQ(curve[0].lossy, 0);
  EXPECT_EQ(curve[1].bursts, 1);
  EXPECT_EQ(curve[1].lossy, 1);
  EXPECT_DOUBLE_EQ(curve[1].pct_lossy(), 100.0);
  EXPECT_EQ(curve[2].bursts, 1);
}

TEST(Aggregate, LossByContentionClampsOverflow) {
  const Fixture f;
  const auto curve =
      loss_by_contention(f.view, build_class_map(f.view),
                         analysis::RackClass::kRegAHigh, 3, 9);
  // Contentions 12 and 15 clamp into the last bin.
  EXPECT_EQ(curve.back().bursts, 2);
}

TEST(Aggregate, LossByLengthAndFilter) {
  const Fixture f;
  const ClassMap classes = build_class_map(f.view);
  const auto all = loss_by_length(f.view, classes,
                                  analysis::RackClass::kRegATypical,
                                  BurstFilter::kAll, 10);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[0].bursts, 1);  // the 1ms burst
  EXPECT_EQ(all[2].bursts, 1);  // the 3ms lossy burst
  EXPECT_EQ(all[2].lossy, 1);

  const auto contended = loss_by_length(
      f.view, classes, analysis::RackClass::kRegATypical,
      BurstFilter::kContended, 10);
  EXPECT_EQ(contended[0].bursts, 0);  // the 1ms burst was not contended
  EXPECT_EQ(contended[2].bursts, 1);

  const auto non = loss_by_length(f.view, classes,
                                  analysis::RackClass::kRegATypical,
                                  BurstFilter::kNonContended, 10);
  EXPECT_EQ(non[0].bursts, 1);
  EXPECT_EQ(non[2].bursts, 0);
}

TEST(Aggregate, LossByConnections) {
  const Fixture f;
  const auto curve = loss_by_connections(
      f.view, build_class_map(f.view), analysis::RackClass::kRegATypical,
      BurstFilter::kAll, /*bin_width=*/10, /*num_bins=*/6);
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_EQ(curve[0].bursts, 1);  // conns 5
  EXPECT_EQ(curve[1].bursts, 1);  // conns 10
  EXPECT_EQ(curve[2].bursts, 1);  // conns 25
  EXPECT_EQ(curve[2].lossy, 1);
  EXPECT_EQ(curve[5].bursts, 1);  // conns 55 clamps into last bin
}

TEST(Aggregate, BusyHourContention) {
  const Fixture f;
  const auto rega =
      busy_hour_contention(f.view, workload::RegionId::kRegA, 6);
  ASSERT_EQ(rega.size(), 2u);  // racks 1 and 2
  EXPECT_FLOAT_EQ(static_cast<float>(rega[0]), 1.5f);
  EXPECT_FLOAT_EQ(static_cast<float>(rega[1]), 2.5f);
  const auto regb =
      busy_hour_contention(f.view, workload::RegionId::kRegB, 6);
  ASSERT_EQ(regb.size(), 1u);
  EXPECT_FLOAT_EQ(static_cast<float>(regb[0]), 3.5f);
}

/// Per-row reference aggregates: one burst_class lookup per row, as the
/// aggregations were first written.
struct Reference {
  const BurstColumns& b;
  const ClassMap& classes;

  bool in(std::size_t i, analysis::RackClass cls, BurstFilter filter) const {
    if (burst_class(b.region[i], b.rack_id[i], classes) != cls) return false;
    return filter == BurstFilter::kAll ||
           (filter == BurstFilter::kContended) == (b.contended[i] != 0);
  }

  std::array<ClassBurstStats, analysis::kNumRackClasses> table2() const {
    std::array<ClassBurstStats, analysis::kNumRackClasses> out{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      auto& s = out[static_cast<std::size_t>(
          burst_class(b.region[i], b.rack_id[i], classes))];
      ++s.bursts;
      s.contended += b.contended[i];
      s.lossy += b.lossy[i];
    }
    return out;
  }

  /// Bursts and lossy bursts per bin, `bin_of` mapping a row to its bin.
  template <typename BinOf>
  std::vector<std::pair<long, long>> curve(analysis::RackClass cls,
                                           BurstFilter filter, int bins,
                                           BinOf bin_of) const {
    std::vector<std::pair<long, long>> out(static_cast<std::size_t>(bins));
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!in(i, cls, filter)) continue;
      auto& bucket = out[static_cast<std::size_t>(bin_of(i))];
      ++bucket.first;
      bucket.second += b.lossy[i];
    }
    return out;
  }
};

std::vector<std::pair<long, long>> counts(
    const std::vector<LossBucket>& curve) {
  std::vector<std::pair<long, long>> out;
  for (const auto& bucket : curve) {
    out.emplace_back(bucket.bursts, bucket.lossy);
  }
  return out;
}

/// Burst rows interleaving racks and regions: A1, A2, A1, a RegB row, A1,
/// RegB rows carrying RegA rack ids (1 and 2), a RegA row of a rack absent
/// from the rack table, then seeded random rows over the same ids.
Dataset make_interleaved_dataset() {
  Dataset ds = make_dataset();
  ds.bursts.clear();
  util::Rng rng(7);
  const auto add = [&](std::uint32_t rack, int region) {
    ds.bursts.push_back(burst(rack, region,
                              static_cast<int>(rng.uniform_int(26)),
                              rng.uniform(0.0, 90.0),
                              static_cast<int>(rng.uniform_int(40)),
                              rng.bernoulli(0.3)));
  };
  for (const auto& [rack, region] :
       std::vector<std::pair<std::uint32_t, int>>{{1, 0},
                                                  {2, 0},
                                                  {1, 0},
                                                  {3, 1},
                                                  {1, 0},
                                                  {1, 1},
                                                  {1, 1},
                                                  {2, 1},
                                                  {2, 0},
                                                  {999, 0},
                                                  {4, 1}}) {
    add(rack, region);
  }
  const std::uint32_t ids[] = {1, 2, 3, 4, 999};
  for (int i = 0; i < 200; ++i) {
    // Runs of 1-4 rows of one (rack, region), so both run boundaries and
    // multi-row runs occur throughout.
    const std::uint32_t rack = ids[rng.uniform_int(5)];
    const int region = static_cast<int>(rng.uniform_int(2));
    for (auto n = rng.uniform_int(4) + 1; n > 0; --n) add(rack, region);
  }
  ds.window_counts[0].bursts = static_cast<std::uint32_t>(ds.bursts.size());
  return ds;
}

/// Every aggregate over `view`, for every class, filter and bin width,
/// equals the per-row reference; returns the answers for comparison
/// across row orders.
std::vector<std::vector<std::pair<long, long>>> check_against_reference(
    const DatasetView& view) {
  const ClassMap classes = build_class_map(view);
  const Reference ref{view.bursts(), classes};
  std::vector<std::vector<std::pair<long, long>>> answers;

  const auto t2 = table2_summary(view, classes);
  const auto t2_ref = ref.table2();
  std::vector<std::pair<long, long>> t2_answer;
  for (int c = 0; c < analysis::kNumRackClasses; ++c) {
    const auto& got = t2[static_cast<std::size_t>(c)];
    const auto& want = t2_ref[static_cast<std::size_t>(c)];
    EXPECT_EQ(got.bursts, want.bursts) << "class " << c;
    EXPECT_EQ(got.contended, want.contended) << "class " << c;
    EXPECT_EQ(got.lossy, want.lossy) << "class " << c;
    t2_answer.emplace_back(got.bursts, got.contended * 1000 + got.lossy);
  }
  answers.push_back(t2_answer);

  const BurstColumns& b = view.bursts();
  for (int c = 0; c < analysis::kNumRackClasses; ++c) {
    const auto cls = static_cast<analysis::RackClass>(c);
    for (int width : {1, 2, 3, 7}) {
      for (int max_contention : {1, 9, 32}) {
        const int bins = std::max(1, max_contention / width);
        const auto got =
            counts(loss_by_contention(view, classes, cls, width,
                                      max_contention));
        EXPECT_EQ(got, ref.curve(cls, BurstFilter::kAll, bins,
                                 [&](std::size_t i) {
                                   return std::min(
                                       b.max_contention[i] / width, bins - 1);
                                 }))
            << "contention class " << c << " width " << width;
        answers.push_back(got);
      }
    }
    for (auto filter : {BurstFilter::kAll, BurstFilter::kContended,
                        BurstFilter::kNonContended}) {
      for (int max_len : {1, 10, 20}) {
        const auto got =
            counts(loss_by_length(view, classes, cls, filter, max_len));
        EXPECT_EQ(got, ref.curve(cls, filter, max_len, [&](std::size_t i) {
          return std::clamp<int>(b.len_ms[i], 1, max_len) - 1;
        })) << "length class " << c << " max " << max_len;
        answers.push_back(got);
      }
      for (int width : {1, 5, 10}) {
        for (int num_bins : {1, 16}) {
          const auto got = counts(
              loss_by_connections(view, classes, cls, filter, width, num_bins));
          EXPECT_EQ(got,
                    ref.curve(cls, filter, num_bins, [&](std::size_t i) {
                      return std::min(
                          static_cast<int>(b.avg_conns[i]) / width,
                          num_bins - 1);
                    }))
              << "connections class " << c << " width " << width;
          answers.push_back(got);
        }
      }
    }
  }
  return answers;
}

TEST(Aggregate, RunWiseClassificationMatchesPerRowReference) {
  Dataset ds = make_interleaved_dataset();
  const auto blob = ds.serialize();
  DatasetView view;
  ASSERT_TRUE(DatasetView::attach(blob.data(), blob.size(), &view));
  // The RegB rows with RegA rack ids count as RegB.
  const auto t2 = table2_summary(view, build_class_map(view));
  long total = 0;
  for (const auto& s : t2) total += s.bursts;
  EXPECT_EQ(total, static_cast<long>(ds.bursts.size()));
  const auto answers = check_against_reference(view);

  // Row order does not change any answer.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Dataset shuffled = ds;
    util::Rng rng(seed);
    rng.shuffle(shuffled.bursts);
    const auto shuffled_blob = shuffled.serialize();
    DatasetView shuffled_view;
    ASSERT_TRUE(DatasetView::attach(shuffled_blob.data(),
                                    shuffled_blob.size(), &shuffled_view));
    EXPECT_EQ(check_against_reference(shuffled_view), answers)
        << "shuffle seed " << seed;
  }
}

}  // namespace
}  // namespace msamp::fleet
