// Tests for dataset record serialization, including byte-level hardening
// of deserialize() against truncated, mutated, and hostile blobs.
#include "fleet/dataset.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "fleet/dataset_view.h"
#include "fleet/fleet_runner.h"
#include "fleet/merge.h"
#include "fleet/spill_sink.h"
#include "fleet/wire.h"

namespace msamp::fleet {
namespace {

Dataset sample_dataset() {
  Dataset ds;
  ds.fingerprint = 0xabcdef;
  // A consistent (hand-built) shard header: one rack per region and one
  // hour -> two canonical windows, of which the first produced records.
  ds.config.racks_per_region = 1;
  ds.config.hours = 1;
  ds.window_begin = 0;
  ds.window_end = 2;
  ds.window_counts.push_back({/*has_run=*/1, /*server_runs=*/1,
                              /*bursts=*/1});
  ds.window_counts.push_back({});
  RackInfo rack;
  rack.rack_id = 3;
  rack.region = 0;
  rack.ml_dense = 1;
  rack.distinct_tasks = 8;
  rack.dominant_share = 0.8f;
  rack.busy_hour_avg_contention = 7.5f;
  rack.rack_class = static_cast<std::uint8_t>(analysis::RackClass::kRegAHigh);
  ds.racks.push_back(rack);
  // v6 requires the complete canonical table: one RegB rack rounds out
  // the 2 * racks_per_region entries.
  RackInfo regb;
  regb.rack_id = 4;
  regb.region = 1;
  regb.rack_class = static_cast<std::uint8_t>(analysis::RackClass::kRegB);
  ds.racks.push_back(regb);

  RackRunRecord rr;
  rr.rack_id = 3;
  rr.hour = 6;
  rr.avg_contention = 7.25f;
  rr.p90_contention = 12;
  rr.usable = 1;
  rr.in_bytes = 1e9;
  rr.drop_bytes = 1e5;
  ds.rack_runs.push_back(rr);

  ServerRunRecord sr;
  sr.rack_id = 3;
  sr.bursty = 1;
  sr.bursts_per_sec = 7.5f;
  ds.server_runs.push_back(sr);

  BurstRecord b;
  b.rack_id = 3;
  b.len_ms = 4;
  b.volume_bytes = 1.8e6f;
  b.max_contention = 9;
  b.contended = 1;
  b.lossy = 1;
  ds.bursts.push_back(b);

  ds.low_contention_example.rack_id = 1;
  ds.low_contention_example.num_servers = 2;
  ds.low_contention_example.num_samples = 3;
  ds.low_contention_example.raster = {1, 0, 0, 0, 1, 0};
  ds.low_contention_example.contention = {1, 1, 0};
  ds.high_contention_example.rack_id = 2;
  return ds;
}

TEST(Dataset, SerializeRoundTrip) {
  const Dataset ds = sample_dataset();
  Dataset copy;
  ASSERT_TRUE(copy.deserialize(ds.serialize()));
  EXPECT_EQ(copy.fingerprint, ds.fingerprint);
  ASSERT_EQ(copy.racks.size(), 2u);
  EXPECT_EQ(copy.racks[0].rack_id, 3u);
  EXPECT_EQ(copy.racks[0].ml_dense, 1);
  EXPECT_FLOAT_EQ(copy.racks[0].busy_hour_avg_contention, 7.5f);
  ASSERT_EQ(copy.rack_runs.size(), 1u);
  EXPECT_FLOAT_EQ(copy.rack_runs[0].avg_contention, 7.25f);
  EXPECT_DOUBLE_EQ(copy.rack_runs[0].in_bytes, 1e9);
  ASSERT_EQ(copy.server_runs.size(), 1u);
  EXPECT_FLOAT_EQ(copy.server_runs[0].bursts_per_sec, 7.5f);
  ASSERT_EQ(copy.bursts.size(), 1u);
  EXPECT_EQ(copy.bursts[0].max_contention, 9);
  EXPECT_EQ(copy.bursts[0].lossy, 1);
  EXPECT_EQ(copy.low_contention_example.raster,
            ds.low_contention_example.raster);
  EXPECT_EQ(copy.low_contention_example.contention,
            ds.low_contention_example.contention);
}

/// A real (small) generated dataset, so the hardening tests mutate blobs
/// with genuine record counts, exemplars, and trailing structure.
const std::vector<std::uint8_t>& real_blob() {
  static const std::vector<std::uint8_t> blob = [] {
    FleetConfig cfg;
    cfg.racks_per_region = 2;
    cfg.servers_per_rack = 16;
    cfg.hours = 2;
    cfg.samples_per_run = 60;
    cfg.warmup_ms = 5;
    cfg.threads = 1;
    return run_fleet(cfg).serialize();
  }();
  return blob;
}

TEST(Dataset, RejectsCorruption) {
  auto blob = sample_dataset().serialize();
  Dataset ds;
  blob[0] ^= 0x1;
  EXPECT_FALSE(ds.deserialize(blob));
}

TEST(Dataset, RejectsTruncation) {
  auto blob = sample_dataset().serialize();
  blob.resize(blob.size() / 2);
  Dataset ds;
  EXPECT_FALSE(ds.deserialize(blob));
}

TEST(Dataset, RejectsTrailingGarbage) {
  auto blob = sample_dataset().serialize();
  blob.push_back(7);
  Dataset ds;
  EXPECT_FALSE(ds.deserialize(blob));
}

TEST(Dataset, SaveThenOpenMapped) {
  const std::string path = "test_dataset_tmp/ds.bin";
  const Dataset ds = sample_dataset();
  ASSERT_TRUE(ds.save(path));
  DatasetView view;
  const auto st = Dataset::open_mapped(path, &view);
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_EQ(view.fingerprint(), ds.fingerprint);
  EXPECT_EQ(view.bursts().size(), ds.bursts.size());
  const Dataset loaded = Dataset::from_view(view);
  EXPECT_EQ(loaded.fingerprint, ds.fingerprint);
  EXPECT_EQ(loaded.bursts.size(), ds.bursts.size());
  view.close();
  std::filesystem::remove_all("test_dataset_tmp");
}

TEST(Dataset, LoadMissingFileFails) {
  DatasetView view;
  EXPECT_FALSE(Dataset::open_mapped("does/not/exist.bin", &view));
}

TEST(Dataset, LoadDirectoryFails) {
  // On Linux a directory can be opened for reading; the loader must fail
  // cleanly rather than map or size anything from it.
  DatasetView view;
  EXPECT_FALSE(Dataset::open_mapped(".", &view));
}

TEST(Dataset, RealBlobRoundTrips) {
  Dataset ds;
  ASSERT_TRUE(ds.deserialize(real_blob()));
  EXPECT_EQ(ds.serialize(), real_blob());
  EXPECT_FALSE(ds.rack_runs.empty());
  EXPECT_FALSE(ds.server_runs.empty());
}

TEST(Dataset, RejectsTruncationAtEveryLength) {
  const auto& blob = real_blob();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    Dataset ds;
    const std::vector<std::uint8_t> prefix(blob.begin(),
                                           blob.begin() + cut);
    EXPECT_FALSE(ds.deserialize(prefix)) << "cut=" << cut;
  }
}

TEST(Dataset, RejectsTrailingGarbageOnRealBlob) {
  auto blob = real_blob();
  blob.push_back(0);
  Dataset ds;
  EXPECT_FALSE(ds.deserialize(blob));
}

TEST(Dataset, RejectsWrongMagicAndVersion) {
  {
    auto blob = real_blob();
    blob[0] ^= 0xff;  // magic
    Dataset ds;
    EXPECT_FALSE(ds.deserialize(blob));
  }
  {
    auto blob = real_blob();
    blob[4] ^= 0xff;  // version
    Dataset ds;
    EXPECT_FALSE(ds.deserialize(blob));
  }
}

/// Byte offset of the shard header in a v6 fixed prefix: it follows
/// magic u32, version u32, fingerprint u64, and the serialized config.
std::size_t shard_header_off() { return 16 + wire::config_wire_size(); }

TEST(Dataset, RejectsOversizedRecordCounts) {
  // An adversarial or corrupted record count must fail the layout check
  // (the recomputed column offsets no longer match the section directory
  // or the file size), not drive a huge resize/memcpy.  The four record
  // counts sit right after the shard header's window range.
  const std::size_t counts_off = shard_header_off() + 4 + 4 + 8 + 8;
  for (std::size_t field = 0; field < 4; ++field) {
    for (std::uint64_t hostile :
         {std::uint64_t{0x7fffffffffffffffULL}, std::uint64_t{1} << 32,
          std::uint64_t{0xffffffffffffffffULL}}) {
      auto blob = real_blob();
      std::memcpy(blob.data() + counts_off + 8 * field, &hostile,
                  sizeof(hostile));
      Dataset ds;
      EXPECT_FALSE(ds.deserialize(blob))
          << "field=" << field << " len=" << hostile;
    }
  }
}

TEST(Dataset, RejectsTamperedShardHeader) {
  // The shard header: index u32, count u32, window_begin u64,
  // window_end u64.
  const std::size_t shard_off = shard_header_off();
  {
    // count = 0 is never a valid spec.
    auto blob = real_blob();
    const std::uint32_t zero = 0;
    std::memcpy(blob.data() + shard_off + 4, &zero, sizeof(zero));
    Dataset ds;
    EXPECT_FALSE(ds.deserialize(blob));
  }
  {
    // index >= count.
    auto blob = real_blob();
    const std::uint32_t idx = 1;
    std::memcpy(blob.data() + shard_off, &idx, sizeof(idx));
    Dataset ds;
    EXPECT_FALSE(ds.deserialize(blob));
  }
  {
    // A window range that is not the canonical slice for (shard, config).
    auto blob = real_blob();
    std::uint64_t end = 0;
    std::memcpy(&end, blob.data() + shard_off + 16, sizeof(end));
    ++end;
    std::memcpy(blob.data() + shard_off + 16, &end, sizeof(end));
    Dataset ds;
    EXPECT_FALSE(ds.deserialize(blob));
  }
}

TEST(Dataset, RejectsWindowCountRecordMismatch) {
  // Inflate one window's burst count in the window directory: the
  // per-window counts no longer sum to the section's record count and
  // the parse must fail.
  auto blob = real_blob();
  wire::V6Header h;
  wire::V6Layout lay;
  ASSERT_TRUE(wire::read_header_v6(blob.data(), blob.size(), blob.size(),
                                   &h, &lay));
  const std::uint64_t bursts_col = lay.columns[wire::kSecWindows][2];
  std::uint32_t bursts = 0;
  std::memcpy(&bursts, blob.data() + bursts_col, sizeof(bursts));
  ++bursts;
  std::memcpy(blob.data() + bursts_col, &bursts, sizeof(bursts));
  Dataset ds;
  EXPECT_FALSE(ds.deserialize(blob));
}

TEST(Dataset, PartialShardRoundTrips) {
  // A partial shard is a first-class file: header preserved byte for byte.
  FleetConfig cfg;
  cfg.racks_per_region = 2;
  cfg.servers_per_rack = 12;
  cfg.hours = 2;
  cfg.samples_per_run = 50;
  cfg.warmup_ms = 5;
  cfg.threads = 1;
  const ShardSpec shard{1, 3};
  DatasetBuilder builder(cfg, shard);
  run_fleet(cfg, shard, builder);
  const Dataset ds = builder.take();
  EXPECT_EQ(ds.shard.index, 1u);
  EXPECT_EQ(ds.shard.count, 3u);
  Dataset copy;
  ASSERT_TRUE(copy.deserialize(ds.serialize()));
  EXPECT_EQ(copy.shard.index, 1u);
  EXPECT_EQ(copy.shard.count, 3u);
  EXPECT_EQ(copy.window_begin, ds.window_begin);
  EXPECT_EQ(copy.window_end, ds.window_end);
  EXPECT_EQ(copy.serialize(), ds.serialize());
}

TEST(Dataset, SingleByteMutationsNeverCrash) {
  // Any byte-level mutation must either parse (content changes that stay
  // structurally valid) or return false — never read out of bounds or
  // throw.  Run under the ASan/UBSan lane this is a real fuzz of the
  // reader's bounds checks.
  const auto& blob = real_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    auto mutated = blob;
    mutated[i] ^= 0xa5;
    Dataset ds;
    (void)ds.deserialize(mutated);
  }
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

TEST(Dataset, GoldenV6Digest) {
  // Pins the v6 bytes themselves: every writer (serialize, SpillSink,
  // merge_shards) shares one encoder, so comparing them with each other
  // cannot catch a layout drift.  Seven hours reach the busy hour, where
  // the Figure 5 exemplars are captured.
  FleetConfig cfg;
  cfg.seed = 2;
  cfg.racks_per_region = 3;
  cfg.hours = 7;
  cfg.samples_per_run = 60;
  cfg.warmup_ms = 5;
  cfg.threads = 2;
  const Dataset day = run_fleet(cfg);
  ASSERT_NE(day.low_contention_example.num_samples, 0);
  ASSERT_NE(day.high_contention_example.num_samples, 0);
  const auto blob = day.serialize();
  constexpr std::uint64_t kDayDigest = 0x15bc8b687b95b544ULL;
  constexpr std::size_t kDayBytes = 293772;
  EXPECT_EQ(blob.size(), kDayBytes);
  EXPECT_EQ(fnv1a64(blob.data(), blob.size()), kDayDigest);

  const std::filesystem::path dir = "test_dataset_golden_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    const auto path = (dir / "spill.bin").string();
    SpillSink sink(cfg, ShardSpec{}, path);
    run_fleet(cfg, ShardSpec{}, sink);
    ASSERT_TRUE(sink.finalize());
    const auto bytes = read_bytes(path);
    EXPECT_EQ(bytes.size(), kDayBytes);
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), kDayDigest);
  }
  std::vector<std::string> shards;
  for (std::uint32_t i = 0; i < 3; ++i) {
    shards.push_back((dir / ("shard" + std::to_string(i) + ".bin")).string());
    SpillSink sink(cfg, ShardSpec{i, 3}, shards.back(), /*chunk_bytes=*/64);
    run_fleet(cfg, ShardSpec{i, 3}, sink);
    ASSERT_TRUE(sink.finalize());
  }
  {
    // A partial shard: shard-local offsets, unclassified rack table.
    constexpr std::uint64_t kShardDigest = 0xbca2ac4bee8694f3ULL;
    constexpr std::size_t kShardBytes = 213048;
    const auto bytes = read_bytes(shards[1]);
    EXPECT_EQ(bytes.size(), kShardBytes);
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), kShardDigest);
  }
  {
    const auto path = (dir / "merged.bin").string();
    ASSERT_TRUE(merge_shards(shards, path));
    const auto bytes = read_bytes(path);
    EXPECT_EQ(bytes.size(), kDayBytes);
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), kDayDigest);
  }
  std::filesystem::remove_all(dir);
}

TEST(Dataset, ClassLookup) {
  const Dataset ds = sample_dataset();
  EXPECT_EQ(ds.class_of(3), analysis::RackClass::kRegAHigh);
  // Unknown racks default to typical.
  EXPECT_EQ(ds.class_of(999), analysis::RackClass::kRegATypical);
}

TEST(FleetConfig, FingerprintSensitivity) {
  FleetConfig a, b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.seed = 43;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.racks_per_region = 7;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.buffer.alpha = 2.0;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // Knobs that reshape the simulated traffic or the measurement pipeline
  // must re-key the cache too (each was once missing from the hash).
  b = a;
  b.rtt_ms = 0.25;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.mss = 9000;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.buffer.reserve_per_queue += 1024;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.loss.rtt_shift_samples += 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.loss.lag_samples += 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.clocks.offset_stddev *= 2;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // Execution detail: the thread count must NOT re-key the cache.
  b = a;
  b.threads = 7;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace msamp::fleet
