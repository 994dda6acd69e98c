// SpillSink: the disk-backed WindowSink.  DatasetBuilder (fleet/shard.h)
// accumulates a whole shard's records in RAM before `Dataset::save`
// writes them out; SpillSink instead streams each completed window's
// server runs and bursts to per-COLUMN spill files as `run_fleet` hands
// them over (wire::ColumnSpill), keeping a generation process's peak RSS
// at a few spill-chunk buffers plus the shard's head: the per-window count
// table, the rack runs (at most one per window) and at most two
// exemplars — never the shard's bulky records.  `finalize()` hands the
// head and the spills to the format's one encoder (fleet/wire.h), so the
// file is byte-identical to `DatasetBuilder` + `Dataset::save` by
// construction (tests/test_spill_sink.cc still byte-compares them), and
// is written via the same atomic rename: a crashed or killed process
// never leaves a partial output file, only spill temps that the next
// attempt truncates — which is what makes cluster worker retries
// idempotent.
#pragma once

#include <cstddef>
#include <string>

#include "fleet/shard.h"
#include "fleet/wire.h"
#include "util/status.h"

namespace msamp::fleet {

class SpillSink final : public WindowSink {
 public:
  /// Total spill-buffer flush budget: bounds the sum of the in-RAM
  /// per-column buffers and the copy buffer `finalize()` streams the
  /// spill files through (the encoder's own output buffer is a fixed
  /// wire::ColumnOut::kChunkBytes).
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 20;

  /// Streams `shard`'s windows toward `out_path`.  Spill temps live next
  /// to the output (`<out_path>.spill-*`); an existing temp from a
  /// crashed attempt is truncated, so retries are idempotent.  Throws
  /// std::invalid_argument on an invalid shard, std::runtime_error when
  /// the spill files cannot be opened.
  SpillSink(const FleetConfig& config, ShardSpec shard, std::string out_path,
            std::size_t chunk_bytes = kDefaultChunkBytes);

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  /// Windows must arrive in canonical order with no gaps (the runner
  /// guarantees this); anything else throws std::logic_error.
  void on_window(std::size_t window, WindowRecords&& records) override;

  /// Writes the v6 file to `out_path` via atomic rename and deletes the
  /// spill temps.  Call once, after `run_fleet` completed the whole shard
  /// range (else std::logic_error).  Returns an error Status (with path
  /// and reason) on I/O failure.
  util::Status finalize();

  const std::string& out_path() const { return out_; }

 private:
  std::string out_;
  Dataset head_;  ///< everything but the server runs and bursts
  wire::ColumnSpill spill_;
  bool finalized_ = false;
};

}  // namespace msamp::fleet
