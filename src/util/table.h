// Tabular output used by every bench binary: aligned console tables plus
// optional CSV export, so each bench prints the same rows/series the paper
// reports and leaves a machine-readable copy behind.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace msamp::util {

/// A simple column-aligned table. Cells are text; numeric helpers format
/// with sensible defaults. Every cell's bytes live back to back in one
/// arena, so filling a row allocates nothing per cell, and `print` /
/// `write_csv` build their whole output in one buffer and write it once.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent `cell` calls fill it left to right.
  Table& row();

  /// Appends a preformatted cell to the current row.  A cell before any
  /// `row()` starts the first row.
  Table& cell(std::string_view value);
  Table& cell(const char* value) { return cell(std::string_view(value)); }
  Table& cell(std::string value) { return cell(std::string_view(value)); }

  /// Appends a formatted numeric cell (fixed, `precision` decimals).
  Table& cell(double value, int precision = 2);

  /// Appends an integer cell.
  Table& cell(long long value);
  Table& cell(unsigned long long value);
  Table& cell(int value) { return cell(static_cast<long long>(value)); }
  Table& cell(long value) { return cell(static_cast<long long>(value)); }
  Table& cell(std::size_t value) {
    return cell(static_cast<unsigned long long>(value));
  }

  /// Convenience: appends a full row at once.
  Table& add_row(std::initializer_list<std::string> cells);

  std::size_t rows() const noexcept { return row_begin_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }

  /// Writes the table with aligned columns and a header separator.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

  /// Writes CSV to `path`; creates parent directories if missing.
  /// Returns false (without throwing) if the file cannot be opened.
  bool write_csv_file(const std::string& path) const;

 private:
  /// Closes the cell whose bytes were just appended to the arena.
  Table& end_cell();
  /// Text of cell `i` (cells are numbered across rows).
  std::string_view cell_text(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : cell_end_[i - 1];
    return std::string_view(arena_).substr(begin, cell_end_[i] - begin);
  }
  /// One past the last cell of row `r`.
  std::size_t row_end(std::size_t r) const noexcept {
    return r + 1 < row_begin_.size() ? row_begin_[r + 1] : cell_end_.size();
  }

  std::vector<std::string> headers_;
  std::string arena_;                   ///< every cell's bytes, in order
  std::vector<std::size_t> cell_end_;   ///< arena offset past each cell
  std::vector<std::size_t> row_begin_;  ///< index of each row's first cell
};

/// Formats a double with `precision` decimals (shared by Table and plots).
std::string format_double(double value, int precision);

/// Formats a byte count human-readably (e.g. "1.8MB"), as the paper quotes
/// burst volumes.
std::string format_bytes(double bytes);

}  // namespace msamp::util
