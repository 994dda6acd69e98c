#include "fleet/spill_sink.h"

#include <stdexcept>
#include <utility>

namespace msamp::fleet {

SpillSink::SpillSink(const FleetConfig& config, ShardSpec shard,
                     std::string out_path, std::size_t chunk_bytes)
    : out_(std::move(out_path)),
      head_(shard_head(config, shard)),
      spill_(out_ + ".spill", chunk_bytes) {}

void SpillSink::on_window(std::size_t window, WindowRecords&& records) {
  add_window(head_, window, records);
  spill_.append(records.server_runs, records.bursts);
}

util::Status SpillSink::finalize() {
  if (finalized_ || head_.window_counts.size() !=
                        static_cast<std::size_t>(head_.window_end -
                                                 head_.window_begin)) {
    throw std::logic_error(
        finalized_ ? "SpillSink: finalize() called twice"
                   : "SpillSink: finalize() before the shard's window range "
                     "completed");
  }
  finalized_ = true;
  // A full-range shard carries the busy-hour classification, exactly as
  // DatasetBuilder::take().
  if (head_.shard.full_range()) finalize_classification(head_);
  auto st = wire::write_file(out_, head_, spill_);
  spill_.remove();
  return st;
}

}  // namespace msamp::fleet
