// Tests for the millisecond-granularity fluid rack simulator.
#include "fleet/fluid_rack.h"

#include <cstring>

#include <gtest/gtest.h>

#include "analysis/contention.h"

namespace msamp::fleet {
namespace {

workload::RackMeta make_rack(int servers, workload::TaskKind kind,
                             double intensity = 1.0, bool ml_dense = false) {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.ml_dense = ml_dense;
  rack.intensity = intensity;
  rack.server_service.assign(static_cast<std::size_t>(servers), 0);
  rack.server_kind.assign(static_cast<std::size_t>(servers), kind);
  return rack;
}

FleetConfig small_config() {
  FleetConfig cfg;
  cfg.samples_per_run = 200;
  cfg.warmup_ms = 20;
  return cfg;
}

TEST(FluidRack, ProducesAlignedSyncRun) {
  const auto rack = make_rack(8, workload::TaskKind::kWeb);
  const FleetConfig cfg = small_config();
  FluidRack fluid(rack, cfg, /*hour=*/6, util::Rng(1));
  const FluidRackResult res = fluid.run();
  EXPECT_EQ(res.sync.num_servers(), 8u);
  // Background traffic keeps every host latched near the window start, so
  // trimming loses at most a couple of samples.
  EXPECT_GE(res.sync.num_samples(), 195u);
  EXPECT_LE(res.sync.num_samples(),
            static_cast<std::size_t>(cfg.samples_per_run));
  EXPECT_EQ(res.sync.interval, sim::kMillisecond);
}

TEST(FluidRack, ByteConservation) {
  const auto rack = make_rack(16, workload::TaskKind::kCache, 1.5);
  FluidRack fluid(rack, small_config(), 6, util::Rng(2));
  const FluidRackResult res = fluid.run();
  EXPECT_GT(res.offered_bytes, 0);
  // Delivered + dropped cannot exceed offered (residual queue remains).
  EXPECT_LE(res.delivered_bytes + res.drop_bytes, res.offered_bytes * 101 / 100);
  EXPECT_GE(res.delivered_bytes, 0);
  EXPECT_GE(res.drop_bytes, 0);
  EXPECT_LE(res.ecn_bytes, res.delivered_bytes);
}

TEST(FluidRack, DeliveredNeverExceedsLineRate) {
  const auto rack = make_rack(8, workload::TaskKind::kCache, 3.0);
  const FleetConfig cfg = small_config();
  FluidRack fluid(rack, cfg, 6, util::Rng(3));
  const FluidRackResult res = fluid.run();
  const std::int64_t line =
      static_cast<std::int64_t>(cfg.line_rate_gbps * 1e9 / 8.0 / 1000.0);
  for (const auto& series : res.sync.series) {
    for (const auto& s : series) {
      EXPECT_LE(s.in_bytes, line + line / 50);  // interpolation slack
      EXPECT_GE(s.in_bytes, 0);
      EXPECT_LE(s.in_retx_bytes, s.in_bytes);
      EXPECT_LE(s.in_ecn_bytes, s.in_bytes);
    }
  }
}

TEST(FluidRack, MlDenseRackHasHigherContention) {
  const FleetConfig cfg = small_config();
  FluidRack sparse(make_rack(46, workload::TaskKind::kQuiet), cfg, 6,
                   util::Rng(4));
  FluidRack dense(make_rack(46, workload::TaskKind::kMlTraining), cfg, 6,
                  util::Rng(4));
  const auto rs = sparse.run();
  const auto rd = dense.run();
  const auto cs = analysis::summarize_contention(
      analysis::contention_series(rs.sync, cfg.burst_config()));
  const auto cd = analysis::summarize_contention(
      analysis::contention_series(rd.sync, cfg.burst_config()));
  EXPECT_GT(cd.avg, 3.0 * std::max(cs.avg, 0.05));
}

TEST(FluidRack, OverloadProducesDropsAndRetx) {
  // Very high intensity cache rack: bound to overflow DT limits.
  const auto rack = make_rack(24, workload::TaskKind::kCache, 4.0);
  FluidRack fluid(rack, small_config(), 6, util::Rng(5));
  const auto res = fluid.run();
  EXPECT_GT(res.drop_bytes, 0);
  // Drops repair as retransmissions visible to Millisampler.
  std::int64_t retx = 0;
  for (const auto& series : res.sync.series) {
    for (const auto& s : series) retx += s.in_retx_bytes;
  }
  EXPECT_GT(retx, 0);
}

TEST(FluidRack, EcnMarksAppearUnderLoad) {
  // Cache tasks have the heaviest overload tail: queues must cross the
  // 120KB ECN threshold somewhere in the window.
  const auto rack = make_rack(32, workload::TaskKind::kCache, 3.0);
  FluidRack fluid(rack, small_config(), 6, util::Rng(6));
  const auto res = fluid.run();
  EXPECT_GT(res.ecn_bytes, 0);
}

TEST(FluidRack, QuietRackSeesAlmostNoLoss) {
  const auto rack = make_rack(46, workload::TaskKind::kQuiet, 0.5);
  FluidRack fluid(rack, small_config(), 2, util::Rng(7));
  const auto res = fluid.run();
  EXPECT_LT(static_cast<double>(res.drop_bytes),
            0.001 * static_cast<double>(std::max<std::int64_t>(
                        res.offered_bytes, 1)));
}

TEST(FluidRack, DeterministicForSeed) {
  const auto rack = make_rack(8, workload::TaskKind::kWeb);
  FluidRack a(rack, small_config(), 6, util::Rng(8));
  FluidRack b(rack, small_config(), 6, util::Rng(8));
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.offered_bytes, rb.offered_bytes);
  EXPECT_EQ(ra.drop_bytes, rb.drop_bytes);
  ASSERT_EQ(ra.sync.num_samples(), rb.sync.num_samples());
  for (std::size_t s = 0; s < ra.sync.num_servers(); ++s) {
    for (std::size_t k = 0; k < ra.sync.num_samples(); ++k) {
      ASSERT_EQ(ra.sync.series[s][k].in_bytes, rb.sync.series[s][k].in_bytes);
    }
  }
}

/// Field-by-field (bitwise for the series) equality of two window results.
void expect_same_result(const FluidRackResult& got,
                        const FluidRackResult& want) {
  EXPECT_EQ(got.offered_bytes, want.offered_bytes);
  EXPECT_EQ(got.delivered_bytes, want.delivered_bytes);
  EXPECT_EQ(got.drop_bytes, want.drop_bytes);
  EXPECT_EQ(got.ecn_bytes, want.ecn_bytes);
  EXPECT_EQ(got.fabric_drop_bytes, want.fabric_drop_bytes);
  EXPECT_EQ(got.sync.grid_start, want.sync.grid_start);
  EXPECT_EQ(got.sync.interval, want.sync.interval);
  EXPECT_EQ(got.sync.hosts, want.sync.hosts);
  ASSERT_EQ(got.sync.num_servers(), want.sync.num_servers());
  for (std::size_t s = 0; s < want.sync.num_servers(); ++s) {
    const auto& a = got.sync.series[s];
    const auto& b = want.sync.series[s];
    ASSERT_EQ(a.size(), b.size()) << "server " << s;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), b.size() * sizeof(b[0])), 0)
        << "server " << s;
  }
}

TEST(FluidRack, ReusedWorkspaceMatchesFreshRuns) {
  // Windows of different shapes back to back through one workspace — more
  // servers, then fewer, fabric on and off, a loud rack before a quiet
  // one — must each equal a run in a fresh workspace: no filter row,
  // read-out, aligned series or step column may carry over.
  FleetConfig fabric = small_config();
  fabric.fabric.enabled = true;
  fabric.fabric.uplink_gbps = 40.0;
  FleetConfig longer = small_config();
  longer.samples_per_run = 260;
  struct Window {
    workload::RackMeta rack;
    FleetConfig cfg;
    int hour;
    std::uint64_t seed;
  };
  const std::vector<Window> windows = {
      {make_rack(24, workload::TaskKind::kCache, 4.0), fabric, 6, 21},
      {make_rack(8, workload::TaskKind::kWeb), small_config(), 3, 22},
      {make_rack(46, workload::TaskKind::kQuiet, 0.5), longer, 2, 23},
      {make_rack(16, workload::TaskKind::kMlTraining), small_config(), 6, 24},
  };
  FluidWorkspace ws;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const Window& w = windows[i];
    const FluidRackResult fresh =
        FluidRack(w.rack, w.cfg, w.hour, util::Rng(w.seed)).run();
    FluidRack reused(w.rack, w.cfg, w.hour, util::Rng(w.seed));
    expect_same_result(reused.run(ws), fresh);
  }
}

TEST(FluidRackPolicy, StaticPartitionLosesMore) {
  const auto rack = make_rack(24, workload::TaskKind::kCache, 2.5);
  FleetConfig dt_cfg = small_config();
  FleetConfig sp_cfg = small_config();
  sp_cfg.buffer.policy = net::BufferPolicy::kStaticPartition;
  FluidRack dt(rack, dt_cfg, 6, util::Rng(21));
  FluidRack sp(rack, sp_cfg, 6, util::Rng(21));
  const auto rd = dt.run();
  const auto rs = sp.run();
  EXPECT_GT(rs.drop_bytes, rd.drop_bytes);
}

TEST(FluidRackPolicy, CompleteSharingAbsorbsMore) {
  const auto rack = make_rack(24, workload::TaskKind::kCache, 2.5);
  FleetConfig dt_cfg = small_config();
  FleetConfig cs_cfg = small_config();
  cs_cfg.buffer.policy = net::BufferPolicy::kCompleteSharing;
  FluidRack dt(rack, dt_cfg, 6, util::Rng(22));
  FluidRack cs(rack, cs_cfg, 6, util::Rng(22));
  const auto rd = dt.run();
  const auto rc = cs.run();
  EXPECT_LE(rc.drop_bytes, rd.drop_bytes);
}

TEST(FluidRackPolicy, BurstAbsorbNoWorseThanDt) {
  const auto rack = make_rack(24, workload::TaskKind::kWeb, 2.5);
  FleetConfig dt_cfg = small_config();
  FleetConfig ba_cfg = small_config();
  ba_cfg.buffer.policy = net::BufferPolicy::kBurstAbsorbDt;
  FluidRack dt(rack, dt_cfg, 6, util::Rng(23));
  FluidRack ba(rack, ba_cfg, 6, util::Rng(23));
  const auto rd = dt.run();
  const auto rb = ba.run();
  EXPECT_LE(rb.drop_bytes, rd.drop_bytes * 11 / 10);
}

TEST(FluidRackFabric, DisabledByDefaultNoFabricDrops) {
  const auto rack = make_rack(24, workload::TaskKind::kCache, 3.0);
  FluidRack fluid(rack, small_config(), 6, util::Rng(31));
  EXPECT_EQ(fluid.run().fabric_drop_bytes, 0);
}

TEST(FluidRackFabric, ConservationHolds) {
  const auto rack = make_rack(46, workload::TaskKind::kMlTraining, 1.6);
  FleetConfig cfg = small_config();
  cfg.fabric.enabled = true;
  FluidRack fluid(rack, cfg, 6, util::Rng(32));
  const auto res = fluid.run();
  // Offered counts post-fabric arrivals; fabric drops were removed first.
  EXPECT_LE(res.delivered_bytes + res.drop_bytes,
            res.offered_bytes + res.offered_bytes / 100);
  EXPECT_GE(res.fabric_drop_bytes, 0);
}

TEST(FluidRackFabric, UplinkCapProducesFabricDrops) {
  // 92 servers at heavy ML load offer far more than a 100G trunk.
  const auto rack = make_rack(92, workload::TaskKind::kMlTraining, 2.5);
  FleetConfig cfg = small_config();
  cfg.fabric.enabled = true;
  cfg.fabric.uplink_gbps = 100.0;
  FluidRack fluid(rack, cfg, 6, util::Rng(33));
  const auto res = fluid.run();
  EXPECT_GT(res.fabric_drop_bytes, 0);
}

TEST(FluidRackFabric, SmoothingReducesTorLossUnderDenseLoad) {
  const auto rack = make_rack(92, workload::TaskKind::kMlTraining, 1.6);
  FleetConfig off_cfg = small_config();
  FleetConfig on_cfg = small_config();
  on_cfg.fabric.enabled = true;
  FluidRack off(rack, off_cfg, 6, util::Rng(34));
  FluidRack on(rack, on_cfg, 6, util::Rng(34));
  const auto r_off = off.run();
  const auto r_on = on.run();
  // Smoothed arrivals must not increase ToR discards.
  EXPECT_LE(r_on.drop_bytes, r_off.drop_bytes + r_off.drop_bytes / 5 + 1500);
}

TEST(FluidRack, ConnectionEstimatesPopulated) {
  const auto rack = make_rack(8, workload::TaskKind::kCache);
  FluidRack fluid(rack, small_config(), 6, util::Rng(9));
  const auto res = fluid.run();
  double max_conns = 0;
  for (const auto& series : res.sync.series) {
    for (const auto& s : series) max_conns = std::max(max_conns, s.connections);
  }
  EXPECT_GT(max_conns, 5.0);  // sketch estimates flow through the pipeline
}

/// Property sweep: conservation and measurement invariants must hold for
/// every (task kind, buffer policy) combination.
class FluidInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FluidInvariantTest, ConservationAndBounds) {
  const auto kind = static_cast<workload::TaskKind>(std::get<0>(GetParam()));
  const auto policy = static_cast<net::BufferPolicy>(std::get<1>(GetParam()));
  const auto rack = make_rack(16, kind, 1.8);
  FleetConfig cfg = small_config();
  cfg.buffer.policy = policy;
  FluidRack fluid(rack, cfg, 6, util::Rng(77));
  const auto res = fluid.run();

  // Byte conservation with residual-queue slack.
  EXPECT_GE(res.offered_bytes, 0);
  EXPECT_LE(res.delivered_bytes + res.drop_bytes,
            res.offered_bytes + res.offered_bytes / 100);
  EXPECT_LE(res.ecn_bytes, res.delivered_bytes);

  // Measured series stay within physical bounds.
  const std::int64_t line =
      static_cast<std::int64_t>(cfg.line_rate_gbps * 1e9 / 8.0 / 1000.0);
  std::int64_t measured = 0;
  for (const auto& series : res.sync.series) {
    for (const auto& s : series) {
      EXPECT_GE(s.in_bytes, 0);
      EXPECT_LE(s.in_bytes, line + line / 50);
      EXPECT_LE(s.in_retx_bytes, s.in_bytes);
      EXPECT_LE(s.in_ecn_bytes, s.in_bytes);
      EXPECT_GE(s.connections, 0.0);
      measured += s.in_bytes;
    }
  }
  // The samplers saw (almost) everything delivered in the window — minus
  // trim loss at the edges, never more than delivered.
  EXPECT_LE(measured, res.delivered_bytes + 16 * 2 * line);
  EXPECT_GE(measured, res.delivered_bytes / 2);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndPolicies, FluidInvariantTest,
    ::testing::Combine(::testing::Range(0, workload::kNumTaskKinds),
                       ::testing::Range(0, 4)));

}  // namespace
}  // namespace msamp::fleet
