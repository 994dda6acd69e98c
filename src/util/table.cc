#include "util/table.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace msamp::util {
namespace {

/// Appends printf("%.*f", precision, value) to `out`.  std::to_chars with
/// an explicit precision is specified to print exactly what printf does
/// (a negative precision included).
void append_fixed(std::string& out, double value, int precision) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), value,
                         std::chars_format::fixed, precision);
  if (r.ec == std::errc{}) {
    out.append(buf, static_cast<std::size_t>(r.ptr - buf));
    return;
  }
  // Room for the longest text: a sign, DBL_MAX's 309 integer digits, the
  // point and the decimals (6 when the precision is negative).
  const std::size_t at = out.size();
  const std::size_t decimals =
      precision < 0 ? 6 : static_cast<std::size_t>(precision);
  out.resize(at + 311 + decimals);
  r = std::to_chars(out.data() + at, out.data() + out.size(), value,
                    std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(r.ptr - out.data()));
}

template <typename Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

}  // namespace

std::string format_double(double value, int precision) {
  std::string out;
  append_fixed(out, value, precision);
  return out;
}

std::string format_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  std::string out = format_double(bytes, 2);
  out += units[u];
  return out;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  row_begin_.push_back(cell_end_.size());
  return *this;
}

Table& Table::end_cell() {
  if (row_begin_.empty()) row_begin_.push_back(0);
  cell_end_.push_back(arena_.size());
  return *this;
}

Table& Table::cell(std::string_view value) {
  arena_.append(value);
  return end_cell();
}

Table& Table::cell(double value, int precision) {
  append_fixed(arena_, value, precision);
  return end_cell();
}

Table& Table::cell(long long value) {
  append_integer(arena_, value);
  return end_cell();
}

Table& Table::cell(unsigned long long value) {
  append_integer(arena_, value);
  return end_cell();
}

Table& Table::add_row(std::initializer_list<std::string> cells) {
  row();
  for (const auto& c : cells) cell(std::string_view(c));
  return *this;
}

void Table::print(std::ostream& os) const {
  const std::size_t cols = headers_.size();
  std::vector<std::size_t> widths(cols, 0);
  for (std::size_t c = 0; c < cols; ++c) widths[c] = headers_[c].size();
  for (std::size_t r = 0; r < rows(); ++r) {
    const std::size_t first = row_begin_[r];
    const std::size_t n = std::min(row_end(r) - first, cols);
    for (std::size_t c = 0; c < n; ++c) {
      widths[c] = std::max(widths[c], cell_text(first + c).size());
    }
  }
  // Every line, the separator included, is the same length: two blanks
  // and a padded cell per column, then the newline.
  std::size_t line = 1;
  for (auto w : widths) line += w + 2;
  std::string out((rows() + 2) * line, ' ');
  char* p = out.data();
  const auto put = [&](std::size_t c, std::string_view text) {
    std::memcpy(p + 2, text.data(), text.size());
    p += widths[c] + 2;
  };
  for (std::size_t c = 0; c < cols; ++c) put(c, headers_[c]);
  *p++ = '\n';
  std::fill(p, p + line - 1, '-');
  p += line - 1;
  *p++ = '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    const std::size_t first = row_begin_[r];
    const std::size_t n = std::min(row_end(r) - first, cols);
    for (std::size_t c = 0; c < n; ++c) put(c, cell_text(first + c));
    for (std::size_t c = n; c < cols; ++c) p += widths[c] + 2;
    *p++ = '\n';
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void Table::write_csv(std::ostream& os) const {
  std::string out;
  out.reserve(arena_.size() + cell_end_.size() + rows() + 64);
  const auto put = [&out](std::string_view s) {
    if (s.find_first_of(",\"\n") == std::string_view::npos) {
      out.append(s);
      return;
    }
    out += '"';
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
  };
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ',';
    put(headers_[c]);
  }
  out += '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t i = row_begin_[r]; i < row_end(r); ++i) {
      if (i != row_begin_[r]) out += ',';
      put(cell_text(i));
    }
    out += '\n';
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

bool Table::write_csv_file(const std::string& path) const {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out);
  return static_cast<bool>(out);
}

}  // namespace msamp::util
