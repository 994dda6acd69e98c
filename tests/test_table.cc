// Tests for the table/CSV output helpers.
#include "util/table.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::util {
namespace {

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("a").cell(1.5, 1);
  t.row().cell("long-name").cell(22.25, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("22.25"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CellTypes) {
  Table t({"a", "b", "c", "d"});
  t.row().cell(std::string("x")).cell(3.14159, 3).cell(42).cell(
      static_cast<std::size_t>(7));
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b,c,d\nx,3.142,42,7\n");
}

TEST(Table, AddRowInitializer) {
  Table t({"x", "y"});
  t.add_row({"1", "2"}).add_row({"3", "4"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, CsvQuoting) {
  Table t({"v"});
  t.row().cell("a,b");
  t.row().cell("say \"hi\"");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST(Table, WriteCsvFileCreatesDirectories) {
  const std::string dir = "test_table_tmp_dir";
  const std::string path = dir + "/sub/out.csv";
  Table t({"h"});
  t.row().cell("v");
  ASSERT_TRUE(t.write_csv_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h");
  in.close();
  std::filesystem::remove_all(dir);
}

/// Pins the exact `print` and `write_csv` bytes of `t`.
void expect_bytes(const Table& t, const std::string& print,
                  const std::string& csv) {
  std::ostringstream p, c;
  t.print(p);
  t.write_csv(c);
  EXPECT_EQ(p.str(), print);
  EXPECT_EQ(c.str(), csv);
}

TEST(Table, GoldenShortRowIsBlankPadded) {
  Table t({"a", "bb"});
  t.row().cell("x");
  t.row().cell("1").cell("2");
  expect_bytes(t,
               "  a  bb\n"
               "-------\n"
               "  x    \n"
               "  1  2 \n",
               "a,bb\nx\n1,2\n");
}

TEST(Table, GoldenExtraCellsDroppedByPrintKeptByCsv) {
  Table t({"h"});
  t.row().cell("a").cell("extra-long-cell").cell(7);
  expect_bytes(t,
               "  h\n"
               "---\n"
               "  a\n",
               "h\na,extra-long-cell,7\n");
}

TEST(Table, GoldenCellBeforeRowStartsARow) {
  Table t({"c1", "c2"});
  t.cell("v").cell(3);
  EXPECT_EQ(t.rows(), 1u);
  expect_bytes(t,
               "  c1  c2\n"
               "--------\n"
               "  v   3 \n",
               "c1,c2\nv,3\n");
}

TEST(Table, GoldenNoRows) {
  const Table t({"x", "yy"});
  EXPECT_EQ(t.rows(), 0u);
  expect_bytes(t, "  x  yy\n-------\n", "x,yy\n");
}

TEST(Table, GoldenEmptyRowAndNoColumns) {
  Table t({"k"});
  t.row();
  expect_bytes(t, "  k\n---\n   \n", "k\n\n");
  Table none({});
  none.row().cell("z");
  expect_bytes(none, "\n\n\n", "\nz\n");
}

TEST(Table, GoldenCellsWiderThanHeader) {
  Table t({"n", "v"});
  t.row().cell("wide-cell").cell(1234567.0, 1);
  t.row().cell("s").cell(2.0, 1);
  expect_bytes(t,
               "  n          v        \n"
               "----------------------\n"
               "  wide-cell  1234567.0\n"
               "  s          2.0      \n",
               "n,v\nwide-cell,1234567.0\ns,2.0\n");
}

TEST(Table, GoldenExtremeNumbers) {
  Table t({"ll", "ull", "nan", "inf", "-inf", "-0"});
  t.row()
      .cell(std::numeric_limits<long long>::min())
      .cell(std::numeric_limits<unsigned long long>::max())
      .cell(std::numeric_limits<double>::quiet_NaN())
      .cell(std::numeric_limits<double>::infinity())
      .cell(-std::numeric_limits<double>::infinity())
      .cell(-0.0);
  expect_bytes(t,
               "  ll                    ull                   nan  inf  "
               "-inf  -0   \n" +
                   std::string(67, '-') + "\n" +
               "  -9223372036854775808  18446744073709551615  nan  inf  "
               "-inf  -0.00\n",
               "ll,ull,nan,inf,-inf,-0\n"
               "-9223372036854775808,18446744073709551615,nan,inf,-inf,"
               "-0.00\n");
}

TEST(Table, GoldenPrecisionZeroAndSeventeen) {
  Table t({"p0", "p17"});
  t.row().cell(2.5, 0).cell(0.1, 17);
  t.row().cell(3.5, 0).cell(-1.0 / 3.0, 17);
  expect_bytes(t,
               "  p0  p17                 \n"
               "--------------------------\n"
               "  2   0.10000000000000001 \n"
               "  4   -0.33333333333333331\n",
               "p0,p17\n2,0.10000000000000001\n4,-0.33333333333333331\n");
}

TEST(Table, GoldenCsvQuotesNewlines) {
  Table t({"a,b", "c"});
  t.row().cell("line1\nline2").cell("\"");
  expect_bytes(t,
               "  a,b          c\n"
               "----------------\n"
               "  line1\nline2  \"\n",
               "\"a,b\",c\n\"line1\nline2\",\"\"\"\"\n");
}

/// The reference algorithm: a row-of-strings model with the original
/// print/write_csv loops, numbers formatted by snprintf/std::to_string.
struct ReferenceTable {
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;

  void cell(std::string v) {
    if (rows.empty()) rows.emplace_back();
    rows.back().push_back(std::move(v));
  }

  std::string print() const {
    std::vector<std::size_t> widths(headers.size(), 0);
    for (std::size_t c = 0; c < headers.size(); ++c) {
      widths[c] = headers[c].size();
    }
    for (const auto& r : rows) {
      for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], r[c].size());
      }
    }
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < widths.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string{};
        os << "  " << v << std::string(widths[c] - v.size(), ' ');
      }
      os << '\n';
    };
    emit(headers);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto& r : rows) emit(r);
    return os.str();
  }

  std::string csv() const {
    auto quote = [](const std::string& s) {
      if (s.find_first_of(",\"\n") == std::string::npos) return s;
      std::string out = "\"";
      for (char ch : s) {
        if (ch == '"') out += '"';
        out += ch;
      }
      out += '"';
      return out;
    };
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c) os << ',';
        os << quote(cells[c]);
      }
      os << '\n';
    };
    emit(headers);
    for (const auto& r : rows) emit(r);
    return os.str();
  }
};

/// printf("%.*f") into a buffer sized for the result.
std::string printf_fixed(double v, int precision) {
  const int n = std::snprintf(nullptr, 0, "%.*f", precision, v);
  std::vector<char> buf(static_cast<std::size_t>(n) + 1);
  const int written =
      std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
  return std::string(buf.data(), static_cast<std::size_t>(written));
}

std::string random_text(Rng& rng) {
  static constexpr char kAlphabet[] = "ab Z9,\"\n-.";
  std::string s(rng.uniform_int(12), ' ');
  for (char& ch : s) ch = kAlphabet[rng.uniform_int(sizeof(kAlphabet) - 1)];
  return s;
}

double random_double(Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
    case 2:
      return rng.bernoulli(0.5) ? 0.0 : -0.0;
    case 3:
      return std::ldexp(rng.uniform(-1.0, 1.0),
                        static_cast<int>(rng.uniform_int(80)) - 60);
    default:
      return rng.uniform(-1e12, 1e12);
  }
}

TEST(Table, PropertyMatchesReferenceAlgorithm) {
  Rng rng(20261017);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::string> headers(rng.uniform_int(6));
    for (auto& h : headers) h = random_text(rng);
    ReferenceTable ref{headers, {}};
    Table t(headers);
    const auto rows = rng.uniform_int(9);
    for (std::uint64_t r = 0; r < rows; ++r) {
      // Sometimes skip row() on the first row: cell() must start one.
      if (r > 0 || rng.bernoulli(0.8)) {
        t.row();
        ref.rows.emplace_back();
      }
      const auto cells = rng.uniform_int(headers.size() + 3);
      for (std::uint64_t c = 0; c < cells; ++c) {
        switch (rng.uniform_int(4)) {
          case 0: {
            const std::string s = random_text(rng);
            t.cell(s);
            ref.cell(s);
            break;
          }
          case 1: {
            const double v = random_double(rng);
            const int precision = static_cast<int>(rng.uniform_int(19));
            t.cell(v, precision);
            ref.cell(printf_fixed(v, precision));
            break;
          }
          case 2: {
            const auto v = static_cast<long long>(rng.next());
            t.cell(v);
            ref.cell(std::to_string(v));
            break;
          }
          default: {
            const auto v = static_cast<unsigned long long>(rng.next()) >>
                           rng.uniform_int(64);
            t.cell(v);
            ref.cell(std::to_string(v));
            break;
          }
        }
      }
    }
    if (rng.bernoulli(0.2)) {
      t.add_row({"p,q", "r"});
      ref.rows.push_back({"p,q", "r"});
    }
    ASSERT_EQ(t.rows(), ref.rows.size()) << "trial " << trial;
    std::ostringstream p, c;
    t.print(p);
    t.write_csv(c);
    ASSERT_EQ(p.str(), ref.print()) << "trial " << trial;
    ASSERT_EQ(c.str(), ref.csv()) << "trial " << trial;
  }
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-2.5, 1), "-2.5");
}

TEST(FormatDouble, HugeValuesAreNotTruncated) {
  for (double v : {1e70, -1e300, DBL_MAX, -DBL_MAX}) {
    EXPECT_EQ(format_double(v, 2), printf_fixed(v, 2)) << v;
  }
  EXPECT_EQ(format_double(1e70, 2).size(), 74u);
  EXPECT_EQ(format_double(DBL_MAX, 2).size(), 312u);
}

TEST(FormatDouble, LargePrecisionIsNotTruncated) {
  EXPECT_EQ(format_double(0.1, 80), printf_fixed(0.1, 80));
  EXPECT_EQ(format_double(-DBL_MAX, 400), printf_fixed(-DBL_MAX, 400));
  EXPECT_EQ(format_double(DBL_TRUE_MIN, 1100),
            printf_fixed(DBL_TRUE_MIN, 1100));
}

TEST(FormatDouble, MatchesPrintfOnEdgeCases) {
  for (double v : {0.0, -0.0, 0.5, 2.5, -2.5, 1e-300, DBL_MIN, DBL_TRUE_MIN,
                   123456789.125, std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN()}) {
    for (int precision : {-3, -1, 0, 1, 2, 6, 17, 25}) {
      EXPECT_EQ(format_double(v, precision), printf_fixed(v, precision))
          << v << " at precision " << precision;
    }
  }
}

TEST(FormatBytes, HugeValuesAreNotTruncated) {
  for (double v : {1e70, 1e300, DBL_MAX}) {
    const double tb = v / 1024.0 / 1024.0 / 1024.0 / 1024.0;
    EXPECT_EQ(format_bytes(v), printf_fixed(tb, 2) + "TB") << v;
  }
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(format_bytes(512), "512.00B");
  EXPECT_EQ(format_bytes(2048), "2.00KB");
  EXPECT_EQ(format_bytes(1.8 * 1024 * 1024), "1.80MB");
  EXPECT_EQ(format_bytes(3.0 * 1024 * 1024 * 1024), "3.00GB");
}

}  // namespace
}  // namespace msamp::util
