#include "fleet/wire.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace msamp::fleet::wire {
namespace {

// --- columnar field appenders ------------------------------------------
// Column order must match the width tables in wire.h and the column spans
// DatasetView hands out.  `Out` is a Writer (spill buffers) or ColumnOut.

template <typename Out>
void put_column(Out& w, const RackInfo& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.ml_dense); return;
    case 3: w.put(v.distinct_tasks); return;
    case 4: w.put(v.dominant_share); return;
    case 5: w.put(v.intensity); return;
    case 6: w.put(v.busy_hour_avg_contention); return;
    case 7: w.put(v.rack_class); return;
    default: std::abort();
  }
}

template <typename Out>
void put_column(Out& w, const RackRunRecord& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.hour); return;
    case 3: w.put(v.usable); return;
    case 4: w.put(v.avg_contention); return;
    case 5: w.put(v.min_active_contention); return;
    case 6: w.put(v.p90_contention); return;
    case 7: w.put(v.max_contention); return;
    case 8: w.put(v.in_bytes); return;
    case 9: w.put(v.drop_bytes); return;
    case 10: w.put(v.ecn_bytes); return;
    default: std::abort();
  }
}

template <typename Out>
void put_column(Out& w, const ServerRunRecord& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.hour); return;
    case 3: w.put(v.bursty); return;
    case 4: w.put(v.avg_util); return;
    case 5: w.put(v.util_inside); return;
    case 6: w.put(v.util_outside); return;
    case 7: w.put(v.bursts_per_sec); return;
    case 8: w.put(v.conns_inside); return;
    case 9: w.put(v.conns_outside); return;
    default: std::abort();
  }
}

template <typename Out>
void put_column(Out& w, const BurstRecord& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.hour); return;
    case 3: w.put(v.len_ms); return;
    case 4: w.put(v.volume_bytes); return;
    case 5: w.put(v.max_contention); return;
    case 6: w.put(v.avg_conns); return;
    case 7: w.put(v.contended); return;
    case 8: w.put(v.lossy); return;
    default: std::abort();
  }
}

void put_exemplar(Writer& w, const ExemplarRun& e) {
  w.put(e.rack_id);
  w.put(e.avg_contention);
  w.put(e.num_servers);
  w.put(e.num_samples);
  w.put_vec(e.raster);
  w.put_vec(e.contention);
}

V6Layout v6_layout(const SectionCounts& counts) {
  struct Spec {
    std::size_t n_cols;
    const std::size_t* widths;
    std::uint64_t count;
  };
  const Spec specs[] = {
      {kWindowDirCols, kWindowDirWidths, counts.windows},
      {kRackCols, kRackWidths, counts.racks},
      {kRackRunCols, kRackRunWidths, counts.rack_runs},
      {kServerRunCols, kServerRunWidths, counts.server_runs},
      {kBurstCols, kBurstWidths, counts.bursts},
  };
  V6Layout lay;
  lay.header_bytes = header_bytes_v6();
  std::uint64_t cursor = lay.header_bytes;
  for (std::size_t s = 0; s < std::size(specs); ++s) {
    auto& cols = lay.columns[s];
    cols.resize(specs[s].n_cols);
    for (std::size_t c = 0; c < specs[s].n_cols; ++c) {
      cursor = align_segment(cursor);
      cols[c] = cursor;
      cursor += specs[s].count * specs[s].widths[c];
    }
    lay.dir[s].offset = cols.front();
    lay.dir[s].bytes = cursor - cols.front();
  }
  cursor = align_segment(cursor);
  lay.columns[kSecExemplars] = {cursor};
  lay.dir[kSecExemplars] = {cursor, counts.exemplar_bytes};
  lay.file_bytes = cursor + counts.exemplar_bytes;
  return lay;
}

void put_header_v6(Writer& w, const V6Header& h) {
  w.put(kMagic);
  w.put(kVersion);
  w.put(h.fingerprint);
  put_config(w, h.config);
  w.put(h.shard.index);
  w.put(h.shard.count);
  w.put(h.window_begin);
  w.put(h.window_end);
  w.put(h.counts.racks);
  w.put(h.counts.rack_runs);
  w.put(h.counts.server_runs);
  w.put(h.counts.bursts);
  for (const auto& d : h.dir) {
    w.put(d.offset);
    w.put(d.bytes);
  }
}

const std::size_t* widths_of(Section section) {
  return section == kSecServerRuns ? kServerRunWidths : kBurstWidths;
}

/// Writes the columns of an in-RAM record section, each on its page.
template <typename Record>
void put_section(ColumnOut& out, const std::vector<Record>& records,
                 const std::vector<std::uint64_t>& cols) {
  for (std::size_t c = 0; c < cols.size(); ++c) {
    out.pad_to(cols[c]);
    for (const auto& rec : records) put_column(out, rec, c);
  }
}

/// The server runs and bursts of an owned Dataset.
class RecordColumns final : public BulkColumns {
 public:
  explicit RecordColumns(const Dataset& ds) : ds_(ds) {}
  std::uint64_t rows(Section section) const override {
    return section == kSecServerRuns ? ds_.server_runs.size()
                                     : ds_.bursts.size();
  }
  util::Status write(Section section, std::size_t col,
                     ColumnOut& out) override {
    if (section == kSecServerRuns) {
      for (const auto& rec : ds_.server_runs) put_column(out, rec, col);
    } else {
      for (const auto& rec : ds_.bursts) put_column(out, rec, col);
    }
    return util::Status::ok();
  }

 private:
  const Dataset& ds_;
};

/// The encoder: header, window directory, rack and rack-run sections from
/// `head`, the bulky sections from `bulk`, then the exemplars.
util::Status encode_into(ColumnOut& out, const Dataset& head,
                         BulkColumns& bulk) {
  Writer exemplars;
  put_exemplar(exemplars, head.low_contention_example);
  put_exemplar(exemplars, head.high_contention_example);

  V6Header h;
  h.fingerprint = head.fingerprint;
  h.config = head.config;
  h.shard = head.shard;
  h.window_begin = head.window_begin;
  h.window_end = head.window_end;
  h.counts.windows = head.window_counts.size();
  h.counts.racks = head.racks.size();
  h.counts.rack_runs = head.rack_runs.size();
  h.counts.server_runs = bulk.rows(kSecServerRuns);
  h.counts.bursts = bulk.rows(kSecBursts);
  h.counts.exemplar_bytes = exemplars.out.size();
  const V6Layout lay = v6_layout(h.counts);
  h.dir = lay.dir;
  out.reserve(lay.file_bytes);
  {
    Writer w;
    put_header_v6(w, h);
    out.write(w.out.data(), w.out.size());
  }

  // Window directory: the count columns, then the running record offsets
  // (prefix sums over the counts; the first window starts at 0).
  const auto& wcols = lay.columns[kSecWindows];
  const auto dir_column = [&](std::size_t c, auto value) {
    out.pad_to(wcols[c]);
    for (const WindowCounts& wc : head.window_counts) out.put(value(wc));
  };
  const auto offset_column = [&](std::size_t c, auto count) {
    out.pad_to(wcols[c]);
    std::uint64_t off = 0;
    for (const WindowCounts& wc : head.window_counts) {
      out.put(off);
      off += count(wc);
    }
  };
  dir_column(0, [](const WindowCounts& c) { return c.has_run; });
  dir_column(1, [](const WindowCounts& c) { return c.server_runs; });
  dir_column(2, [](const WindowCounts& c) { return c.bursts; });
  offset_column(3, [](const WindowCounts& c) {
    return static_cast<std::uint64_t>(c.has_run != 0 ? 1 : 0);
  });
  offset_column(4, [](const WindowCounts& c) {
    return static_cast<std::uint64_t>(c.server_runs);
  });
  offset_column(5, [](const WindowCounts& c) {
    return static_cast<std::uint64_t>(c.bursts);
  });

  put_section(out, head.racks, lay.columns[kSecRacks]);
  put_section(out, head.rack_runs, lay.columns[kSecRackRuns]);

  for (const Section s : {kSecServerRuns, kSecBursts}) {
    const auto& cols = lay.columns[s];
    for (std::size_t c = 0; c < cols.size(); ++c) {
      out.pad_to(cols[c]);
      if (auto st = bulk.write(s, c, out); !st) return st;
      if (out.pos() != cols[c] + bulk.rows(s) * widths_of(s)[c]) {
        return util::Status::error(
            "column " + std::to_string(c) + " of section " +
                std::to_string(s) + " disagrees with its record count",
            {}, static_cast<std::int64_t>(cols[c]));
      }
    }
  }

  out.pad_to(lay.columns[kSecExemplars][0]);
  out.write(exemplars.out.data(), exemplars.out.size());
  if (!out.flush()) return util::Status::error("write failed");
  if (out.pos() != lay.file_bytes) {  // layout is the law
    return util::Status::error("encoded size disagrees with the layout");
  }
  return util::Status::ok();
}

}  // namespace

// --- config / exemplar codecs ------------------------------------------

void put_config(Writer& w, const FleetConfig& c) {
  w.put(c.seed);
  w.put(static_cast<std::int32_t>(c.racks_per_region));
  w.put(static_cast<std::int32_t>(c.servers_per_rack));
  w.put(static_cast<std::int32_t>(c.hours));
  w.put(static_cast<std::int32_t>(c.samples_per_run));
  w.put(static_cast<std::int32_t>(c.warmup_ms));
  w.put(c.line_rate_gbps);
  w.put(c.buffer.total_bytes);
  w.put(static_cast<std::int32_t>(c.buffer.quadrants));
  w.put(c.buffer.reserve_per_queue);
  w.put(c.buffer.alpha);
  w.put(c.buffer.ecn_threshold);
  w.put(static_cast<std::uint8_t>(c.buffer.policy));
  w.put(c.buffer.burst_alpha_boost);
  w.put(c.buffer.delay.target_delay_ms);
  w.put(c.buffer.delay.min_gain);
  w.put(c.buffer.delay.max_gain);
  w.put(c.buffer.delay.drain_gbps);
  w.put(c.rtt_ms);
  w.put(static_cast<std::int64_t>(c.mss));
  w.put(static_cast<std::uint8_t>(c.fabric.enabled ? 1 : 0));
  w.put(c.fabric.uplink_gbps);
  w.put(c.fabric.smoothing);
  w.put(static_cast<std::int32_t>(c.filter_cpus));
  w.put(static_cast<std::int64_t>(c.clocks.offset_stddev));
  w.put(static_cast<std::int64_t>(c.clocks.offset_max));
  w.put(static_cast<std::int32_t>(c.loss.rtt_shift_samples));
  w.put(static_cast<std::int32_t>(c.loss.lag_samples));
  w.put(c.classify.high_threshold);
}

bool get_config(Reader& r, FleetConfig* c) {
  std::int32_t racks = 0, servers = 0, hours = 0, samples = 0, warmup = 0;
  std::int32_t quadrants = 0, filter_cpus = 0, rtt_shift = 0, lag = 0;
  std::uint8_t policy = 0, fabric_enabled = 0;
  std::int64_t mss = 0, stddev = 0, offmax = 0;
  if (!(r.get(&c->seed) && r.get(&racks) && r.get(&servers) &&
        r.get(&hours) && r.get(&samples) && r.get(&warmup) &&
        r.get(&c->line_rate_gbps) && r.get(&c->buffer.total_bytes) &&
        r.get(&quadrants) && r.get(&c->buffer.reserve_per_queue) &&
        r.get(&c->buffer.alpha) && r.get(&c->buffer.ecn_threshold) &&
        r.get(&policy) && r.get(&c->buffer.burst_alpha_boost) &&
        r.get(&c->buffer.delay.target_delay_ms) &&
        r.get(&c->buffer.delay.min_gain) &&
        r.get(&c->buffer.delay.max_gain) &&
        r.get(&c->buffer.delay.drain_gbps) && r.get(&c->rtt_ms) &&
        r.get(&mss) && r.get(&fabric_enabled) &&
        r.get(&c->fabric.uplink_gbps) && r.get(&c->fabric.smoothing) &&
        r.get(&filter_cpus) && r.get(&stddev) && r.get(&offmax) &&
        r.get(&rtt_shift) && r.get(&lag) &&
        r.get(&c->classify.high_threshold))) {
    return false;
  }
  // The scale fields size window ranges and allocations downstream; reject
  // negatives (and an out-of-range policy byte) as corruption up front.
  if (racks < 0 || servers < 0 || hours < 0 || samples < 0 || warmup < 0) {
    return false;
  }
  if (policy > static_cast<std::uint8_t>(net::BufferPolicy::kDelayDriven)) {
    return false;
  }
  c->racks_per_region = racks;
  c->servers_per_rack = servers;
  c->hours = hours;
  c->samples_per_run = samples;
  c->warmup_ms = warmup;
  c->buffer.quadrants = quadrants;
  c->buffer.policy = static_cast<net::BufferPolicy>(policy);
  c->mss = mss;
  c->fabric.enabled = fabric_enabled != 0;
  c->filter_cpus = filter_cpus;
  c->clocks.offset_stddev = stddev;
  c->clocks.offset_max = offmax;
  c->loss.rtt_shift_samples = rtt_shift;
  c->loss.lag_samples = lag;
  c->threads = 0;  // execution detail; never travels with data
  return true;
}

bool get_exemplar(Reader& r, ExemplarRun* e) {
  return r.get(&e->rack_id) && r.get(&e->avg_contention) &&
         r.get(&e->num_servers) && r.get(&e->num_samples) &&
         r.get_vec(&e->raster) && r.get_vec(&e->contention);
}

// --- v6 header ----------------------------------------------------------

std::size_t config_wire_size() {
  Writer w;
  put_config(w, FleetConfig{});
  return w.out.size();
}

std::size_t header_bytes_v6() {
  // magic, version, fingerprint, config, shard index/count, window range,
  // four record-count u64s, section directory.
  return 4 + 4 + 8 + config_wire_size() + 4 + 4 + 8 + 8 + 4 * 8 +
         kNumSections * 16;
}

util::Status read_header_v6(const std::uint8_t* data, std::size_t available,
                            std::uint64_t file_size, V6Header* h,
                            V6Layout* layout) {
  const std::size_t need = header_bytes_v6();
  if (available < need || file_size < need) {
    return util::Status::error(
        "truncated header: need " + std::to_string(need) + " bytes, have " +
            std::to_string(file_size < available ? file_size : available),
        {}, static_cast<std::int64_t>(file_size));
  }
  Reader r(data, need);
  std::uint32_t magic = 0, version = 0;
  if (!r.get(&magic) || magic != kMagic) {
    return util::Status::error("not a dataset file (bad magic)", {}, 0);
  }
  if (!r.get(&version)) return util::Status::error("truncated header", {}, 4);
  if (version != kVersion) {
    return util::Status::error(
        "unsupported dataset version " + std::to_string(version), {}, 4);
  }
  if (!r.get(&h->fingerprint)) {
    return util::Status::error("truncated header", {}, 8);
  }
  if (!get_config(r, &h->config)) {
    return util::Status::error("corrupt serialized FleetConfig", {}, 16);
  }
  if (!r.get(&h->shard.index) || !r.get(&h->shard.count) ||
      !h->shard.valid()) {
    return util::Status::error("invalid shard header", {},
                               static_cast<std::int64_t>(r.pos));
  }
  if (!r.get(&h->window_begin) || !r.get(&h->window_end)) {
    return util::Status::error("truncated header", {},
                               static_cast<std::int64_t>(r.pos));
  }
  // The shard's window range must be exactly what the canonical balanced
  // partition assigns it for this config's day.
  const std::uint64_t total =
      2ull * static_cast<std::uint64_t>(h->config.racks_per_region) *
      static_cast<std::uint64_t>(h->config.hours);
  if (h->window_begin !=
          h->shard.begin(static_cast<std::size_t>(total)) ||
      h->window_end != h->shard.end(static_cast<std::size_t>(total))) {
    return util::Status::error(
        "window range is not the canonical slice for shard " +
            std::to_string(h->shard.index) + "/" +
            std::to_string(h->shard.count),
        {}, static_cast<std::int64_t>(r.pos));
  }
  h->counts.windows = h->window_end - h->window_begin;
  if (!r.get(&h->counts.racks) || !r.get(&h->counts.rack_runs) ||
      !r.get(&h->counts.server_runs) || !r.get(&h->counts.bursts)) {
    return util::Status::error("truncated header", {},
                               static_cast<std::int64_t>(r.pos));
  }
  // Every shard carries the complete rack table; the window keying of the
  // view (rack = index % total_racks) depends on it.
  if (h->counts.racks !=
      2ull * static_cast<std::uint64_t>(h->config.racks_per_region)) {
    return util::Status::error(
        "rack table has " + std::to_string(h->counts.racks) +
            " entries, expected " +
            std::to_string(2ull * static_cast<std::uint64_t>(
                                      h->config.racks_per_region)),
        {}, static_cast<std::int64_t>(r.pos));
  }
  // Each record type has at least one 1-byte column, so any genuine count
  // is bounded by the file size; reject hostile counts before they can
  // overflow the layout arithmetic below.
  if (h->counts.windows > file_size || h->counts.racks > file_size ||
      h->counts.rack_runs > file_size || h->counts.server_runs > file_size ||
      h->counts.bursts > file_size) {
    return util::Status::error("record count exceeds file size", {},
                               static_cast<std::int64_t>(r.pos));
  }
  const std::int64_t dir_pos = static_cast<std::int64_t>(r.pos);
  for (auto& d : h->dir) {
    if (!r.get(&d.offset) || !r.get(&d.bytes)) {
      return util::Status::error("truncated header", {},
                                 static_cast<std::int64_t>(r.pos));
    }
  }
  h->counts.exemplar_bytes = h->dir[kSecExemplars].bytes;
  if (h->counts.exemplar_bytes > file_size) {
    return util::Status::error("exemplar section exceeds file size", {},
                               dir_pos);
  }
  // The directory must match the layout the counts imply — v6 layout is a
  // pure function of the counts, so any disagreement is corruption.
  *layout = v6_layout(h->counts);
  for (std::size_t s = 0; s < kNumSections; ++s) {
    if (h->dir[s].offset != layout->dir[s].offset ||
        h->dir[s].bytes != layout->dir[s].bytes) {
      return util::Status::error(
          "section directory entry " + std::to_string(s) +
              " disagrees with the layout implied by the record counts",
          {}, dir_pos);
    }
  }
  if (layout->file_bytes != file_size) {
    return util::Status::error(
        "file is " + std::to_string(file_size) + " bytes, layout needs " +
            std::to_string(layout->file_bytes),
        {}, static_cast<std::int64_t>(file_size));
  }
  return util::Status::ok();
}

// --- ColumnOut ------------------------------------------------------------

ColumnOut::ColumnOut(std::ofstream* file) : file_(file) {
  if (file_ != nullptr) buf_.out.reserve(kChunkBytes + kSegmentAlign);
}

void ColumnOut::reserve(std::uint64_t bytes) {
  if (file_ == nullptr) buf_.out.reserve(static_cast<std::size_t>(bytes));
}

void ColumnOut::write(const void* data, std::size_t n) {
  if (n == 0) return;
  if (file_ == nullptr) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.out.insert(buf_.out.end(), p, p + n);
    return;
  }
  flush();
  file_->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  flushed_ += n;
}

void ColumnOut::pad_to(std::uint64_t target) {
  // Columns are laid out strictly forward; a backward pad means the layout
  // arithmetic and the encoder disagree, which must never ship.
  if (pos() > target) std::abort();
  buf_.out.resize(buf_.out.size() + static_cast<std::size_t>(target - pos()));
  if (file_ != nullptr && buf_.out.size() >= kChunkBytes) flush();
}

bool ColumnOut::flush() {
  if (file_ == nullptr) return true;
  if (!buf_.out.empty()) {
    file_->write(reinterpret_cast<const char*>(buf_.out.data()),
                 static_cast<std::streamsize>(buf_.out.size()));
    flushed_ += buf_.out.size();
    buf_.out.clear();
  }
  return static_cast<bool>(*file_);
}

// --- ColumnSpill ----------------------------------------------------------

ColumnSpill::ColumnSpill(const std::string& prefix, std::size_t chunk_bytes)
    : chunk_bytes_(std::max<std::size_t>(chunk_bytes, 64)),
      col_chunk_bytes_(std::max<std::size_t>(
          chunk_bytes_ / (kServerRunCols + kBurstCols), 64)),
      servers_(kServerRunCols),
      bursts_(kBurstCols) {
  std::error_code ec;
  const auto parent = std::filesystem::path(prefix).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const auto open = [&](std::vector<Spill>& spills, const char* name) {
    for (std::size_t c = 0; c < spills.size(); ++c) {
      Spill& s = spills[c];
      s.path = prefix + "-" + name + "-c" + std::to_string(c);
      s.file.open(s.path, std::ios::binary | std::ios::trunc);
      if (!s.file) {
        throw std::runtime_error("cannot open spill file " + s.path.string());
      }
    }
  };
  open(servers_, "servers");
  open(bursts_, "bursts");
}

ColumnSpill::~ColumnSpill() { remove(); }

void ColumnSpill::remove() {
  std::error_code ec;
  for (auto* spills : {&servers_, &bursts_}) {
    for (Spill& s : *spills) {
      if (s.file.is_open()) s.file.close();
      std::filesystem::remove(s.path, ec);
    }
  }
}

std::vector<ColumnSpill::Spill>& ColumnSpill::spills(Section section) {
  return section == kSecServerRuns ? servers_ : bursts_;
}

void ColumnSpill::flush(Spill& s) {
  if (s.buf.out.empty()) return;
  s.file.write(reinterpret_cast<const char*>(s.buf.out.data()),
               static_cast<std::streamsize>(s.buf.out.size()));
  s.buf.out.clear();
}

void ColumnSpill::append(const std::vector<ServerRunRecord>& server_runs,
                         const std::vector<BurstRecord>& bursts) {
  for (std::size_t c = 0; c < servers_.size(); ++c) {
    for (const auto& r : server_runs) put_column(servers_[c].buf, r, c);
    if (servers_[c].buf.out.size() >= col_chunk_bytes_) flush(servers_[c]);
  }
  for (std::size_t c = 0; c < bursts_.size(); ++c) {
    for (const auto& b : bursts) put_column(bursts_[c].buf, b, c);
    if (bursts_[c].buf.out.size() >= col_chunk_bytes_) flush(bursts_[c]);
  }
  server_rows_ += server_runs.size();
  burst_rows_ += bursts.size();
}

std::uint64_t ColumnSpill::rows(Section section) const {
  return section == kSecServerRuns ? server_rows_ : burst_rows_;
}

util::Status ColumnSpill::write(Section section, std::size_t col,
                                ColumnOut& out) {
  Spill& s = spills(section)[col];
  flush(s);
  s.file.close();
  if (s.file.fail()) {
    return util::Status::error("cannot write spill file", s.path.string());
  }
  // Non-throwing file_size: a spill file that vanished (or sits on a flaky
  // mount) must surface as an error Status, not as a filesystem_error
  // unwinding through the worker.
  const std::uint64_t bytes = rows(section) * widths_of(section)[col];
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(s.path, ec);
  if (ec || size != bytes) {
    return util::Status::error(
        "spill file size disagrees with its record count", s.path.string());
  }
  std::ifstream in(s.path, std::ios::binary);
  std::vector<char> buf(static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(bytes, 1),
                              chunk_bytes_)));
  for (std::uint64_t left = bytes; left > 0;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, buf.size()));
    if (!in.read(buf.data(), static_cast<std::streamsize>(n))) {
      return util::Status::error("cannot read spill file", s.path.string());
    }
    out.write(buf.data(), n);
    left -= n;
  }
  return util::Status::ok();
}

// --- ShardColumns ---------------------------------------------------------

ShardColumns::ShardColumns(std::span<const DatasetView> shards)
    : shards_(shards) {
  // The exemplar bytes are left out: that section comes after every
  // record column, so it moves none of the offsets read here.
  layouts_.reserve(shards.size());
  for (const DatasetView& s : shards) {
    SectionCounts counts;
    counts.windows = s.num_windows();
    counts.racks = s.racks().size();
    counts.rack_runs = s.rack_runs().size();
    counts.server_runs = s.server_runs().size();
    counts.bursts = s.bursts().size();
    layouts_.push_back(v6_layout(counts));
  }
}

std::uint64_t ShardColumns::rows(Section section) const {
  std::uint64_t n = 0;
  for (const DatasetView& s : shards_) {
    n += section == kSecServerRuns ? s.server_runs().size()
                                   : s.bursts().size();
  }
  return n;
}

util::Status ShardColumns::write(Section section, std::size_t col,
                                 ColumnOut& out) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const DatasetView& s = shards_[i];
    const std::uint64_t n = section == kSecServerRuns
                                ? s.server_runs().size()
                                : s.bursts().size();
    out.write(s.data() + layouts_[i].columns[section][col],
              static_cast<std::size_t>(n * widths_of(section)[col]));
  }
  return util::Status::ok();
}

// --- entry points ---------------------------------------------------------

std::vector<std::uint8_t> encode(const Dataset& ds) {
  ColumnOut out;
  RecordColumns bulk(ds);
  // In memory nothing can fail but the layout arithmetic itself.
  if (!encode_into(out, ds, bulk)) std::abort();
  return out.take();
}

util::Status write_file(const std::string& path, const Dataset& ds) {
  RecordColumns bulk(ds);
  return write_file(path, ds, bulk);
}

util::Status write_file(const std::string& path, const Dataset& head,
                        BulkColumns& bulk) {
  std::error_code ec;
  const std::filesystem::path target(path);
  const auto parent = target.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::filesystem::path tmp = target;
  tmp += ".tmp";
  std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
  if (!file) {
    return util::Status::error("cannot open temp file for writing",
                               tmp.string());
  }
  ColumnOut out(&file);
  util::Status st = encode_into(out, head, bulk);
  file.close();
  if (st && !file) st = util::Status::error("write failed");
  if (st) {
    std::filesystem::rename(tmp, target, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      return util::Status::error("cannot rename over output: " + ec.message(),
                                 path);
    }
    return st;
  }
  std::filesystem::remove(tmp, ec);
  return st.path().empty() ? st.with_path(tmp.string()) : st;
}

}  // namespace msamp::fleet::wire
