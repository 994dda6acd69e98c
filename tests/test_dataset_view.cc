// Tests for the zero-copy DatasetView read path: mmap lifecycle, hostile
// truncation/tamper input at the v6 segment boundaries, mapped-vs-loaded
// parity, per-window iteration, and fail-closed rejection of the retired
// v4/v5 layouts.
#include "fleet/dataset_view.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_runner.h"
#include "fleet/spill_sink.h"
#include "fleet/wire.h"

namespace msamp::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig small_day() {
  FleetConfig cfg;
  cfg.racks_per_region = 2;
  cfg.servers_per_rack = 16;
  cfg.hours = 2;
  cfg.samples_per_run = 60;
  cfg.warmup_ms = 5;
  cfg.threads = 1;
  return cfg;
}

/// A real (small) generated day, shared across tests.
const Dataset& small_dataset() {
  static const Dataset ds = run_fleet(small_day());
  return ds;
}

const std::vector<std::uint8_t>& small_blob() {
  static const std::vector<std::uint8_t> blob = small_dataset().serialize();
  return blob;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::current_path() / ("view_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(DatasetView, MmapLifecycle) {
  const fs::path dir = fresh_dir("lifecycle");
  const fs::path path = dir / "ds.bin";
  ASSERT_TRUE(small_dataset().save(path.string()));

  DatasetView view;
  EXPECT_FALSE(view.ok());
  const auto st = DatasetView::open(path.string(), &view);
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_TRUE(view.ok());
  EXPECT_EQ(view.path(), path.string());
  EXPECT_EQ(view.mapped_bytes(), fs::file_size(path));
  EXPECT_EQ(view.fingerprint(), small_dataset().fingerprint);

  // The mapping survives a move; the source is left empty.
  DatasetView moved = std::move(view);
  EXPECT_TRUE(moved.ok());
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(moved.bursts().size(), small_dataset().bursts.size());

  // Unlinking the open file is fine on POSIX: the mapping holds the pages.
  fs::remove(path);
  EXPECT_EQ(moved.racks().size(), small_dataset().racks.size());

  moved.close();
  EXPECT_FALSE(moved.ok());
  moved.close();  // idempotent
  fs::remove_all(dir);
}

TEST(DatasetView, OpenMissingOrDirectoryFails) {
  DatasetView view;
  EXPECT_FALSE(DatasetView::open("does/not/exist.bin", &view));
  EXPECT_FALSE(view.ok());
  EXPECT_FALSE(DatasetView::open(".", &view));
  EXPECT_FALSE(view.ok());
}

TEST(DatasetView, MappedEqualsAttached) {
  // A file opened through mmap and the same bytes attached in memory
  // describe identical datasets.
  const fs::path dir = fresh_dir("parity");
  const fs::path path = dir / "ds.bin";
  write_file(path, small_blob());

  DatasetView mapped, attached;
  ASSERT_TRUE(DatasetView::open(path.string(), &mapped));
  ASSERT_TRUE(
      DatasetView::attach(small_blob().data(), small_blob().size(), &attached));
  const Dataset a = Dataset::from_view(mapped);
  const Dataset b = Dataset::from_view(attached);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.serialize(), small_blob());
  mapped.close();
  fs::remove_all(dir);
}

TEST(DatasetView, ColumnsMatchTheRowRecords) {
  const Dataset& ds = small_dataset();
  DatasetView view;
  ASSERT_TRUE(
      DatasetView::attach(small_blob().data(), small_blob().size(), &view));

  ASSERT_EQ(view.bursts().size(), ds.bursts.size());
  for (std::size_t i = 0; i < ds.bursts.size(); ++i) {
    EXPECT_EQ(view.bursts().rack_id[i], ds.bursts[i].rack_id);
    EXPECT_EQ(view.bursts().len_ms[i], ds.bursts[i].len_ms);
    EXPECT_EQ(view.bursts().lossy[i], ds.bursts[i].lossy);
    EXPECT_FLOAT_EQ(view.bursts().avg_conns[i], ds.bursts[i].avg_conns);
  }
  ASSERT_EQ(view.rack_runs().size(), ds.rack_runs.size());
  for (std::size_t i = 0; i < ds.rack_runs.size(); ++i) {
    EXPECT_EQ(view.rack_runs().hour[i], ds.rack_runs[i].hour);
    EXPECT_FLOAT_EQ(view.rack_runs().avg_contention[i],
                    ds.rack_runs[i].avg_contention);
    EXPECT_DOUBLE_EQ(view.rack_runs().drop_bytes[i],
                     ds.rack_runs[i].drop_bytes);
  }
  ASSERT_EQ(view.server_runs().size(), ds.server_runs.size());
  for (std::size_t i = 0; i < ds.server_runs.size(); ++i) {
    EXPECT_EQ(view.server_runs().bursty[i], ds.server_runs[i].bursty);
    EXPECT_FLOAT_EQ(view.server_runs().bursts_per_sec[i],
                    ds.server_runs[i].bursts_per_sec);
  }
  ASSERT_EQ(view.racks().size(), ds.racks.size());
  for (std::size_t i = 0; i < ds.racks.size(); ++i) {
    EXPECT_EQ(view.racks().rack_id[i], ds.racks[i].rack_id);
    EXPECT_EQ(view.racks().rack_class[i], ds.racks[i].rack_class);
    EXPECT_EQ(view.class_of(ds.racks[i].rack_id), ds.class_of(ds.racks[i].rack_id));
  }
  EXPECT_EQ(view.low_contention_example().raster,
            ds.low_contention_example.raster);
  EXPECT_EQ(view.high_contention_example().contention,
            ds.high_contention_example.contention);
}

TEST(DatasetView, RejectsTruncationAtEverySegmentBoundary) {
  // Cutting the file exactly at (and one byte around) each column's start
  // must always be rejected: the directory promises bytes that are gone.
  const auto& blob = small_blob();
  wire::V6Header h;
  wire::V6Layout lay;
  ASSERT_TRUE(
      wire::read_header_v6(blob.data(), blob.size(), blob.size(), &h, &lay));

  std::vector<std::uint64_t> cuts = {0, 1, lay.header_bytes - 1,
                                     lay.header_bytes, blob.size() - 1};
  for (const auto& cols : lay.columns) {
    for (std::uint64_t off : cols) {
      cuts.push_back(off - 1);
      cuts.push_back(off);
      cuts.push_back(off + 1);
    }
  }
  const fs::path dir = fresh_dir("truncate");
  const fs::path path = dir / "cut.bin";
  for (std::uint64_t cut : cuts) {
    ASSERT_LT(cut, blob.size());
    const std::vector<std::uint8_t> prefix(blob.begin(), blob.begin() + cut);
    DatasetView attached;
    EXPECT_FALSE(DatasetView::attach(prefix.data(), prefix.size(), &attached))
        << "cut=" << cut;
    write_file(path, prefix);
    DatasetView mapped;
    EXPECT_FALSE(DatasetView::open(path.string(), &mapped)) << "cut=" << cut;
  }
  // Trailing garbage past the layout end is rejected too.
  auto longer = blob;
  longer.push_back(0);
  DatasetView view;
  EXPECT_FALSE(DatasetView::attach(longer.data(), longer.size(), &view));
  fs::remove_all(dir);
}

TEST(DatasetView, HeaderAndDirectoryTamperNeverCrashes) {
  // Byte-level fuzz of everything the validator reads structurally: the
  // fixed header and the whole window-directory section.  Every mutation
  // must either fail cleanly or yield a self-consistent view.
  const auto& blob = small_blob();
  wire::V6Header h;
  wire::V6Layout lay;
  ASSERT_TRUE(
      wire::read_header_v6(blob.data(), blob.size(), blob.size(), &h, &lay));
  const std::uint64_t fuzz_end =
      lay.dir[wire::kSecWindows].offset + lay.dir[wire::kSecWindows].bytes;
  for (std::uint64_t i = 0; i < fuzz_end; ++i) {
    auto mutated = blob;
    mutated[static_cast<std::size_t>(i)] ^= 0xa5;
    DatasetView view;
    if (DatasetView::attach(mutated.data(), mutated.size(), &view)) {
      // Still-valid content change: the window directory must still sum
      // to the section counts.
      std::uint64_t bursts = 0;
      for (std::size_t w = 0; w < view.num_windows(); ++w) {
        bursts += view.windows().bursts[w];
      }
      EXPECT_EQ(bursts, view.bursts().size()) << "byte=" << i;
    }
  }
}

TEST(DatasetView, WindowSlicesTileTheColumns) {
  const Dataset& ds = small_dataset();
  DatasetView view;
  ASSERT_TRUE(
      DatasetView::attach(small_blob().data(), small_blob().size(), &view));
  ASSERT_EQ(view.num_windows(), ds.window_counts.size());

  std::size_t runs = 0, servers = 0, bursts = 0;
  for (std::size_t w = 0; w < view.num_windows(); ++w) {
    const WindowView win = view.window(w);
    EXPECT_EQ(win.index, view.window_begin() + w);
    const WindowKey key = view.key_of(win.index);
    EXPECT_EQ(win.key.region, key.region);
    EXPECT_EQ(win.key.hour, key.hour);
    EXPECT_EQ(win.key.rack_id, key.rack_id);

    // The slice starts exactly where the previous windows ended: windows
    // tile the record columns with no gaps and no overlap.
    EXPECT_EQ(view.windows().run_off[w], runs);
    EXPECT_EQ(view.windows().server_off[w], servers);
    EXPECT_EQ(view.windows().burst_off[w], bursts);
    EXPECT_EQ(win.rack_run.size(), win.has_run ? 1u : 0u);

    if (win.has_run) {
      const RackRunRecord rec = win.rack_run[0];
      EXPECT_EQ(rec.rack_id, ds.rack_runs[runs].rack_id);
      EXPECT_EQ(rec.hour, win.key.hour);
      EXPECT_EQ(rec.region, win.key.region);
    }
    for (std::size_t i = 0; i < win.bursts.size(); ++i) {
      EXPECT_EQ(win.bursts.rack_id[i], ds.bursts[bursts + i].rack_id);
      EXPECT_EQ(win.bursts.hour[i], win.key.hour);
    }
    for (std::size_t i = 0; i < win.server_runs.size(); ++i) {
      EXPECT_EQ(win.server_runs.rack_id[i],
                ds.server_runs[servers + i].rack_id);
    }
    const WindowCounts c = win.counts();
    runs += c.has_run ? 1 : 0;
    servers += c.server_runs;
    bursts += c.bursts;
  }
  EXPECT_EQ(runs, view.rack_runs().size());
  EXPECT_EQ(servers, view.server_runs().size());
  EXPECT_EQ(bursts, view.bursts().size());
}

TEST(DatasetView, IteratesWindowsLargerThanTheSpillChunk) {
  // A SpillSink-written day at a 64-byte chunk: every window's records far
  // exceed the flush granularity, and the mapped per-window slices must
  // still tile the columns exactly as the whole-blob writer's do.
  const fs::path dir = fresh_dir("chunk");
  const fs::path path = dir / "ds.bin";
  const FleetConfig cfg = small_day();
  SpillSink sink(cfg, ShardSpec{}, path.string(), /*chunk_bytes=*/64);
  run_fleet(cfg, ShardSpec{}, sink);
  const auto st = sink.finalize();
  ASSERT_TRUE(st) << st.to_string();

  DatasetView view;
  ASSERT_TRUE(Dataset::open_mapped(path.string(), &view));
  EXPECT_EQ(Dataset::from_view(view).serialize(), small_blob());
  std::uint64_t bursts = 0;
  for (std::size_t w = 0; w < view.num_windows(); ++w) {
    bursts += view.window(w).bursts.size();
  }
  EXPECT_EQ(bursts, small_dataset().bursts.size());
  view.close();
  fs::remove_all(dir);
}

TEST(DatasetView, AttachRejectsMisalignedBase) {
  // The zero-copy column spans reinterpret the base as u64/double arrays;
  // a deliberately offset copy of a valid blob must fail closed with a
  // Status (not UB), since no alignment can be assumed for attach().
  const auto& blob = small_blob();
  std::vector<std::uint8_t> shifted(blob.size() + 1);
  std::copy(blob.begin(), blob.end(), shifted.begin() + 1);
  DatasetView view;
  const auto st = DatasetView::attach(shifted.data() + 1, blob.size(), &view);
  EXPECT_FALSE(st);
  EXPECT_NE(st.to_string().find("aligned"), std::string::npos)
      << st.to_string();
  // The same bytes at an aligned base still open fine.
  DatasetView ok;
  EXPECT_TRUE(DatasetView::attach(blob.data(), blob.size(), &ok));
}

TEST(DatasetView, RejectsLegacyVersionHeaders) {
  // v4/v5 row-wise files have no reader any more: a header claiming
  // either version fails closed, mapped or attached, with the version in
  // the message (msampctl report/query print it and exit non-zero).
  const fs::path dir = fresh_dir("legacy");
  for (std::uint32_t version : {4u, 5u}) {
    auto blob = small_blob();
    std::memcpy(blob.data() + 4, &version, sizeof(version));
    const std::string want =
        "unsupported dataset version " + std::to_string(version);
    DatasetView view;
    const auto attached = DatasetView::attach(blob.data(), blob.size(), &view);
    EXPECT_FALSE(attached);
    EXPECT_NE(attached.to_string().find(want), std::string::npos)
        << attached.to_string();
    const fs::path path = dir / ("v" + std::to_string(version) + ".bin");
    write_file(path, blob);
    const auto opened = Dataset::open_mapped(path.string(), &view);
    EXPECT_FALSE(opened);
    EXPECT_FALSE(view.ok());
    EXPECT_NE(opened.to_string().find(want), std::string::npos)
        << opened.to_string();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msamp::fleet
