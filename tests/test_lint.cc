// msamp_lint rule-engine tests: every rule gets a violating and a clean
// fixture, plus the suppression-comment and allowlist paths, asserting
// exact `file:line: rule-id` findings.  Fixtures live in raw strings —
// the lexer strips string literals, so scanning this file with the real
// binary can never trip on its own fixtures.
#include "lint/rules.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/report.h"

namespace {

using msamp::lint::check_fingerprint_coverage;
using msamp::lint::check_include_layering;
using msamp::lint::FileRole;
using msamp::lint::Finding;
using msamp::lint::index_source;
using msamp::lint::layer_rank;
using msamp::lint::lint_source;
using msamp::lint::parse_struct_fields;
using msamp::lint::StructSource;
using msamp::lint::TreeIndex;
using msamp::lint::TypeCat;

std::vector<std::string> locations(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const auto& f : findings) {
    out.push_back(f.file + ":" + std::to_string(f.line) + ": " + f.rule);
  }
  return out;
}

TEST(LintLexer, StringsCommentsAndPreprocessorAreInvisible) {
  const char* src = R"(#include <ctime>
// a comment mentioning rand() and time()
const char* s = "rand() time() getenv() std::random_device";
const char* r = R"x(rand() inside a raw string)x";
int safe = 1;
)";
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_TRUE(findings.empty()) << msamp::lint::to_string(findings.front());
}

TEST(LintNondet, RandIsFlaggedWithExactLocation) {
  const char* src = R"(int f() {
  return rand();
}
)";
  const auto findings = lint_source("src/core/fixture.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:2: nondet-random"}));
}

TEST(LintNondet, RandomDeviceIsFlagged) {
  const char* src = R"(#include <random>
std::random_device rd;
)";
  const auto findings = lint_source("src/workload/fixture.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-random");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintNondet, SeededProjectRngIsClean) {
  const char* src = R"(double f(msamp::util::Rng& rng) {
  return rng.uniform();
}
)";
  EXPECT_TRUE(lint_source("src/workload/fixture.cc", src).empty());
}

TEST(LintNondet, WallClockTimeIsFlagged) {
  const char* src = R"(long f() {
  long t = time(nullptr);
  auto now = std::chrono::steady_clock::now();
  return t + now.time_since_epoch().count();
}
)";
  const auto findings = lint_source("src/analysis/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "src/analysis/fixture.cc:2: nondet-time",
                "src/analysis/fixture.cc:3: nondet-time"}));
}

TEST(LintNondet, SimulatedTimeHelpersAreClean) {
  const char* src = R"(double f(msamp::sim::SimDuration d) {
  return msamp::sim::to_ms(d);
}
)";
  EXPECT_TRUE(lint_source("src/analysis/fixture.cc", src).empty());
}

TEST(LintNondet, MemberNamedTimeIsNotAFreeCall) {
  const char* src = R"(double f(const Sample& s) {
  return s.time() + obj->time();
}
)";
  EXPECT_TRUE(lint_source("src/core/fixture.cc", src).empty());
}

TEST(LintNondet, GetenvOutsideAllowlistIsFlagged) {
  const char* src = R"(const char* f() {
  return std::getenv("MSAMP_THREADS");
}
)";
  const auto findings = lint_source("src/fleet/fixture.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-getenv");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintNondet, GetenvAllowlistCoversDocumentedReaders) {
  const char* src = R"(const char* f() {
  return std::getenv("MSAMP_THREADS");
}
)";
  // The documented MSAMP_* readers pass by path classification...
  EXPECT_TRUE(lint_source("src/util/thread_pool.cc", src).empty());
  EXPECT_TRUE(lint_source("bench/common.cc", src).empty());
  // ...and any role can be granted explicitly (as the tests' own role is).
  FileRole role;
  role.getenv_allowed = true;
  EXPECT_TRUE(lint_source("src/fleet/fixture.cc", src, &role).empty());
}

TEST(LintNondet, RngImplementationFilesAreExempt) {
  const char* src = R"(unsigned f() {
  std::random_device rd;
  return rd();
}
)";
  EXPECT_TRUE(lint_source("src/util/rng.cc", src).empty());
  ASSERT_FALSE(lint_source("src/util/stats.cc", src).empty());
}

TEST(LintSuppression, AllowCommentSilencesExactlyThatRule) {
  const char* src = R"(int f() {
  int a = rand();  // msamp-lint: allow(nondet-random)
  int b = rand();  // msamp-lint: allow(nondet-time) -- wrong rule
  return a + b;
}
)";
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:3: nondet-random"}));
}

TEST(LintSuppression, AllowAllSilencesEveryRuleOnTheLine) {
  const char* src = R"(long f() {
  return time(nullptr) + rand();  // msamp-lint: allow(all)
}
)";
  EXPECT_TRUE(lint_source("src/core/fixture.cc", src).empty());
}

TEST(LintUnordered, RangeForOverUnorderedMapInOutputPathIsFlagged) {
  const char* src = R"(#include <unordered_map>
void emit(std::ostream& os) {
  std::unordered_map<int, double> per_rack;
  for (const auto& [rack, v] : per_rack) {
    os << rack << "," << v << "\n";
  }
}
)";
  const auto findings = lint_source("bench/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"bench/fixture.cc:4: unordered-iter"}));
}

TEST(LintUnordered, OrderedContainersAreClean) {
  const char* src = R"(#include <map>
void emit(std::ostream& os) {
  std::map<int, double> per_rack;
  for (const auto& [rack, v] : per_rack) {
    os << rack << "," << v << "\n";
  }
}
)";
  EXPECT_TRUE(lint_source("bench/fixture.cc", src).empty());
}

TEST(LintUnordered, UsingAliasDoesNotHideTheContainer) {
  const char* src = R"(using ClassMap = std::unordered_map<int, int>;
void emit(const ClassMap& classes) {
  for (const auto& kv : classes) {
    (void)kv;
  }
}
)";
  const auto findings = lint_source("src/fleet/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/fleet/fixture.cc:3: unordered-iter"}));
}

TEST(LintUnordered, LookupsWithoutIterationAreClean) {
  const char* src = R"(#include <unordered_map>
int count(const std::vector<int>& xs) {
  std::unordered_map<int, int> counts;
  int best = 0;
  for (int x : xs) best = std::max(best, ++counts[x]);
  return best;
}
)";
  EXPECT_TRUE(lint_source("src/fleet/fixture.cc", src).empty());
}

TEST(LintUnordered, RuleOnlyAppliesToOutputPaths) {
  const char* src = R"(#include <unordered_map>
void walk() {
  std::unordered_map<int, int> m;
  for (const auto& kv : m) {
    (void)kv;
  }
}
)";
  // Same snippet: flagged in a CSV-emitting bench, tolerated in a
  // simulation-internal file where order never reaches any output.
  EXPECT_FALSE(lint_source("bench/fixture.cc", src).empty());
  EXPECT_TRUE(lint_source("src/net/fixture.cc", src).empty());
}

TEST(LintNondet, SchedulerClockFileMayReadTheWallClock) {
  // The cluster coordinator's monotonic clock is the one sanctioned
  // wall-clock reader: stall timeouts and retry backoff never reach
  // dataset bytes.  The identical snippet is flagged anywhere else.
  const char* src = R"(long long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
)";
  EXPECT_TRUE(lint_source("src/cluster/process.cc", src).empty());
  EXPECT_FALSE(lint_source("src/cluster/coordinator.cc", src).empty());
  FileRole role;
  role.wallclock_allowed = true;
  EXPECT_TRUE(lint_source("src/core/fixture.cc", src, &role).empty());
}

TEST(LintFloatKey, DoubleKeyedMapInOutputPathIsFlagged) {
  const char* src = R"(#include <map>
void emit(std::ostream& os) {
  std::map<double, int> by_rate;
  for (const auto& [rate, n] : by_rate) {
    os << rate << "," << n << "\n";
  }
}
)";
  const auto findings = lint_source("bench/fixture.cc", src);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "float-key");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintFloatKey, FloatSetAndUnorderedMapAreFlagged) {
  const char* src = R"(#include <set>
#include <unordered_map>
std::set<float> cutoffs;
std::unordered_map<double, int> hist;
)";
  const auto findings = lint_source("src/fleet/fixture.cc", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "float-key");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].rule, "float-key");
  EXPECT_EQ(findings[1].line, 4);
}

TEST(LintFloatKey, IntegerKeysAndFloatValuesAreClean) {
  // Float *values* are fine; only the key position orders the output.
  const char* src = R"(#include <map>
std::map<int, double> per_rack;
std::map<std::uint64_t, float> per_window;
)";
  EXPECT_TRUE(lint_source("bench/fixture.cc", src).empty());
}

TEST(LintFloatKey, ComparisonsAreNotTemplateArguments) {
  // `a < b` followed by `double` tokens elsewhere must not parse as a
  // container instantiation.
  const char* src = R"(#include <map>
bool f(const std::map<int, int>& m, int a, int b) {
  double x = a < b ? 1.0 : 2.0;
  return m.count(a) != 0 && x > 0;
}
)";
  EXPECT_TRUE(lint_source("bench/fixture.cc", src).empty());
}

TEST(LintFloatKey, RuleOnlyAppliesToOutputPaths) {
  const char* src = R"(#include <map>
std::map<double, int> internal_thresholds;
)";
  EXPECT_FALSE(lint_source("src/fleet/fixture.cc", src).empty());
  EXPECT_TRUE(lint_source("src/net/fixture.cc", src).empty());
}

TEST(LintWire, StructSizeofInDatasetCodecIsFlagged) {
  const char* src = R"(void put(std::vector<unsigned char>& out, const RackInfo& r) {
  out.resize(out.size() + sizeof(RackInfo));
  std::memcpy(out.data(), &r, sizeof(RackInfo));
}
)";
  const auto findings = lint_source("src/fleet/dataset.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/fleet/dataset.cc:2: wire-struct-copy",
                                      "src/fleet/dataset.cc:3: wire-struct-copy"}));
}

TEST(LintWire, ScalarTemplateSizeofIsClean) {
  const char* src = R"(template <typename T>
void put(std::vector<unsigned char>& out, const T& v) {
  static_assert(!std::is_class_v<T>);
  out.resize(out.size() + sizeof(T));
  std::memcpy(out.data(), &v, sizeof(T));
}
)";
  EXPECT_TRUE(lint_source("src/fleet/dataset.cc", src).empty());
}

TEST(LintWire, RuleIsScopedToTheWireFormatFiles) {
  const char* src = R"(std::size_t f() { return sizeof(RackInfo); }
)";
  // fleet_runner.cc never touches serialized bytes; merge.cc and
  // spill_sink.cc do, so the same snippet is flagged there.
  EXPECT_TRUE(lint_source("src/fleet/fleet_runner.cc", src).empty());
  EXPECT_FALSE(lint_source("src/fleet/merge.cc", src).empty());
  EXPECT_FALSE(lint_source("src/fleet/spill_sink.cc", src).empty());
}

TEST(LintCounters, CounterReadInOutputPathIsFlagged) {
  const char* src = R"(void emit_rows() {
  const auto s = pool.contention_snapshot();
  csv << s.cas_retries;
}
)";
  const auto findings = lint_source("src/fleet/fleet_runner.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "src/fleet/fleet_runner.cc:2: counters-not-in-output"}));
  // Same snippet trips in every other output path: the cluster
  // orchestrator, ordinary benches, and the CLI.
  EXPECT_FALSE(lint_source("src/cluster/worker.cc", src).empty());
  EXPECT_FALSE(lint_source("bench/bench_table1_dataset.cc", src).empty());
  EXPECT_FALSE(lint_source("tools/msampctl.cc", src).empty());
}

TEST(LintCounters, NamingTheCounterTypesIsFlaggedToo) {
  const char* src = R"(#include "util/contention_counters.h"
msamp::util::ContentionSnapshot grab();
void keep(const msamp::util::ContentionCounters& c);
)";
  const auto findings = lint_source("src/fleet/merge.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "src/fleet/merge.cc:2: counters-not-in-output",
                "src/fleet/merge.cc:3: counters-not-in-output"}));
}

TEST(LintCounters, SanctionedBenchAndNonOutputPathsAreClean) {
  const char* src = R"(void report() {
  const auto s = pool.contention_snapshot();
  table.cell(s.lock_contention_rate(), 4);
}
)";
  // The one sanctioned reader: the contention bench itself.
  EXPECT_TRUE(lint_source("bench/bench_pool_contention.cc", src).empty());
  // Non-output paths (the instrumented components, their tests) may of
  // course name their own counters.
  EXPECT_TRUE(lint_source("src/util/thread_pool.cc", src).empty());
  EXPECT_TRUE(lint_source("src/util/contention_counters.h", src).empty());
  EXPECT_TRUE(lint_source("tests/test_thread_pool.cc", src).empty());
}

TEST(LintCounters, SuppressionCommentSilencesTheRule) {
  const char* src = R"(void debug_dump() {
  auto s = pool.contention_snapshot();  // msamp-lint: allow(counters-not-in-output)
  log(s.waits);
}
)";
  EXPECT_TRUE(lint_source("src/fleet/fleet_runner.cc", src).empty());
}

// --- fingerprint coverage ----------------------------------------------

constexpr const char* kConfigHeader = R"(#pragma once
struct NestedConfig {
  double alpha = 1.0;
  int quadrants = 4;
};
struct TestConfig {
  unsigned long seed = 42;
  int racks = 96;
  int threads = 0;  // fingerprint-exempt: execution detail, never data
  NestedConfig buffer{};
  double helper() const { return alpha_sum(); }
  unsigned long fingerprint() const;
};
)";

TEST(LintFingerprint, ParsesFieldsTypesAndExemptions) {
  const auto fields = parse_struct_fields(kConfigHeader, "TestConfig");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].name, "seed");
  EXPECT_EQ(fields[1].name, "racks");
  EXPECT_EQ(fields[2].name, "threads");
  EXPECT_TRUE(fields[2].exempt);
  EXPECT_EQ(fields[3].name, "buffer");
  EXPECT_EQ(fields[3].type, "NestedConfig");
  EXPECT_FALSE(fields[0].exempt);
}

TEST(LintFingerprint, FullyHashedConfigIsClean) {
  const char* impl = R"(unsigned long TestConfig::fingerprint() const {
  unsigned long h = seed;
  h = step(h, racks);
  h = step(h, buffer.alpha);
  h = step(h, buffer.quadrants);
  return h;
}
)";
  const std::vector<StructSource> structs = {
      {"TestConfig", "fixture/config.h", kConfigHeader},
      {"NestedConfig", "fixture/config.h", kConfigHeader}};
  const auto findings = check_fingerprint_coverage(structs, "TestConfig",
                                                   "fixture/impl.cc", impl);
  EXPECT_TRUE(findings.empty()) << msamp::lint::to_string(findings.front());
}

TEST(LintFingerprint, MissingTopLevelAndNestedFieldsAreFlagged) {
  // `racks` dropped entirely; `buffer.quadrants` dropped from the nested
  // struct — exactly the PR 3 bug class (fingerprint() silently omitting
  // fields so two differing configs share a cache file).
  const char* impl = R"(unsigned long TestConfig::fingerprint() const {
  unsigned long h = seed;
  h = step(h, buffer.alpha);
  return h;
}
)";
  const std::vector<StructSource> structs = {
      {"TestConfig", "fixture/config.h", kConfigHeader},
      {"NestedConfig", "fixture/config.h", kConfigHeader}};
  const auto findings = check_fingerprint_coverage(structs, "TestConfig",
                                                   "fixture/impl.cc", impl);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "fixture/config.h:4: fingerprint-coverage",
                "fixture/config.h:8: fingerprint-coverage"}));
  // The nested finding names the full member chain.
  EXPECT_NE(findings[0].message.find("buffer.quadrants"), std::string::npos);
}

TEST(LintFingerprint, ExemptFieldNeedsNoHashStep) {
  // `threads` is absent from the body but carries the exempt comment.
  const char* impl = R"(unsigned long TestConfig::fingerprint() const {
  unsigned long h = seed;
  h = step(h, racks);
  h = step(h, buffer.alpha);
  h = step(h, buffer.quadrants);
  return h;
}
)";
  const std::vector<StructSource> structs = {
      {"TestConfig", "fixture/config.h", kConfigHeader},
      {"NestedConfig", "fixture/config.h", kConfigHeader}};
  EXPECT_TRUE(check_fingerprint_coverage(structs, "TestConfig",
                                         "fixture/impl.cc", impl)
                  .empty());
}

TEST(LintFingerprint, MissingDefinitionIsItselfAFinding) {
  const std::vector<StructSource> structs = {
      {"TestConfig", "fixture/config.h", kConfigHeader}};
  const auto findings = check_fingerprint_coverage(
      structs, "TestConfig", "fixture/impl.cc", "int unrelated() { return 1; }");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "fingerprint-coverage");
}

// --- lexer regressions (v2) --------------------------------------------

TEST(LintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  // `1'000` once lexed as the number 1 followed by an unterminated char
  // literal, which swallowed the rest of the line — including real
  // findings after it.
  const char* src = R"(long f() {
  const long usec = 1'000; return usec + rand();
}
)";
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:2: nondet-random"}));
}

TEST(LintLexer, MultiSeparatorLiteralsStayOneNumber) {
  const char* src = R"(constexpr long kNsPerMs = 1'000'000;
int noisy = rand();
)";
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:2: nondet-random"}));
}

TEST(LintLexer, RawStringCustomDelimitersAreHonored) {
  // `R"del(...)del"` must close at its custom delimiter, not at the first
  // `)"` — and the nondet calls inside it are string bytes, not code.
  const char* src =
      R"outer(const char* s = R"del(rand() time(nullptr) )" )del";
int noisy = rand();
)outer";
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:2: nondet-random"}));
}

TEST(LintLexer, LineContinuationExtendsLineComments) {
  // Phase-2 splicing joins a `//` comment ending in a backslash with the
  // next line, so the spliced code is comment text, not tokens.
  const char* continued =
      "int f() {\n"
      "  // this comment continues \\\n"
      "  int x = rand();\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/fixture.cc", continued).empty());
  // Without the backslash the identical call is real code again.
  const char* plain =
      "int f() {\n"
      "  // this comment does not continue\n"
      "  int x = rand();\n"
      "  return x;\n"
      "}\n";
  const auto findings = lint_source("src/core/fixture.cc", plain);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:3: nondet-random"}));
}

// --- float-accum-order -------------------------------------------------

TEST(LintFloatAccum, CompoundAdditionInLoopInOutputPathIsFlagged) {
  const char* src = R"(double total(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum;
}
)";
  const auto findings = lint_source("bench/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"bench/fixture.cc:4: float-accum-order"}));
}

TEST(LintFloatAccum, CanonicalHelpersAndIntegerTalliesAreClean) {
  const char* src = R"(double total(const std::vector<double>& xs) {
  long over = 0;
  for (double x : xs) {
    over += x > 0.5 ? 1 : 0;
  }
  const double sum = msamp::util::canonical_sum(xs);
  return sum + static_cast<double>(over);
}
)";
  EXPECT_TRUE(lint_source("bench/fixture.cc", src).empty());
}

TEST(LintFloatAccum, LoopHeaderInductionAndOneShotAdditionsAreClean) {
  // Flow-aware: the `t += step` induction lives in the loop *header*, and
  // the `acc += step` below is a one-shot addition outside any loop —
  // neither is an order-sensitive reduction.
  const char* src = R"(double ramp(double step) {
  double acc = 0.0;
  for (double t = 0.0; t < 1.0; t += step) {
    use(t);
  }
  acc += step;
  return acc;
}
)";
  EXPECT_TRUE(lint_source("bench/fixture.cc", src).empty());
}

TEST(LintFloatAccum, RuleOnlyAppliesToOutputPaths) {
  const char* src = R"(double f(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum;
}
)";
  EXPECT_FALSE(lint_source("bench/fixture.cc", src).empty());
  // Simulation-internal state never reaches emitted bytes directly.
  EXPECT_TRUE(lint_source("src/net/fixture.cc", src).empty());
}

TEST(LintFloatAccum, SuppressionCommentSilencesTheRule) {
  const char* src = R"(double f(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) {
    sum += x;  // msamp-lint: allow(float-accum-order) -- fixture
  }
  return sum;
}
)";
  EXPECT_TRUE(lint_source("bench/fixture.cc", src).empty());
}

TEST(LintFloatAccum, HeaderDeclaredMemberResolvesThroughTheIndex) {
  const char* header = R"(#pragma once
#include <vector>
struct Reducer {
  double acc = 0.0;
  void fold(const std::vector<double>& xs);
};
)";
  const char* impl = R"(#include "fleet/reducer.h"
void Reducer::fold(const std::vector<double>& xs) {
  for (double x : xs) {
    acc += x;
  }
}
)";
  // Single-file view (the v1 limit): the type of `acc` is invisible from
  // the .cc alone, so nothing fires.
  EXPECT_TRUE(lint_source("src/fleet/reducer.cc", impl).empty());
  // With the pass-1 index the header's `double acc` resolves.
  TreeIndex index;
  index.add(index_source("src/fleet/reducer.h", header));
  index.add(index_source("src/fleet/reducer.cc", impl));
  index.link();
  const auto findings =
      lint_source("src/fleet/reducer.cc", impl, nullptr, &index);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "src/fleet/reducer.cc:4: float-accum-order"}));
}

// --- unordered-iter v2: cross-header resolution ------------------------

TEST(LintUnordered, CrossHeaderMemberResolvesThroughTheIndex) {
  const char* header = R"(#pragma once
#include <unordered_map>
struct Agg {
  std::unordered_map<int, double> per_rack;
};
)";
  const char* impl = R"(#include "fleet/agg.h"
void emit(const Agg& a, std::ostream& os) {
  for (const auto& kv : a.per_rack) {
    os << kv.second;
  }
}
)";
  // The documented v1 known-limit: per-file analysis provably misses the
  // member declared in another header...
  EXPECT_TRUE(lint_source("src/fleet/agg.cc", impl).empty());
  // ...and the tree index closes it.
  TreeIndex index;
  index.add(index_source("src/fleet/agg.h", header));
  index.add(index_source("src/fleet/agg.cc", impl));
  index.link();
  const auto findings = lint_source("src/fleet/agg.cc", impl, nullptr, &index);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/fleet/agg.cc:3: unordered-iter"}));
}

TEST(LintIndex, AliasesChaseAcrossHeadersAndCategoriesResolve) {
  const char* base = R"(#pragma once
#include <unordered_map>
using RackMap = std::unordered_map<int, double>;
)";
  const char* mid = R"(#pragma once
#include "fleet/base.h"
using ClassMap = RackMap;
)";
  const char* user = R"(#include "fleet/mid.h"
ClassMap classes;
double weight;
int* counter;
)";
  TreeIndex index;
  index.add(index_source("src/fleet/base.h", base));
  index.add(index_source("src/fleet/mid.h", mid));
  index.add(index_source("src/fleet/user.cc", user));
  index.link();
  // Two alias hops across two headers end at an unordered container.
  EXPECT_EQ(index.category_of("src/fleet/user.cc", "classes"),
            TypeCat::kUnordered);
  EXPECT_EQ(index.category_of("src/fleet/user.cc", "weight"), TypeCat::kFloat);
  // Pointer declarators are not float accumulators (pointer arithmetic).
  EXPECT_EQ(index.category_of("src/fleet/user.cc", "counter"),
            TypeCat::kOther);
  EXPECT_EQ(index.category_of("src/fleet/user.cc", "unknown"),
            TypeCat::kOther);
}

// --- table-output ------------------------------------------------------

TEST(LintTableOutput, RawStreamsInBenchBinariesAreFlagged) {
  const char* src = R"(#include <fstream>
int main() {
  std::ofstream out("series.csv");
  printf("%d\n", 1);
  return 0;
}
)";
  const auto findings = lint_source("bench/bench_fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"bench/bench_fixture.cc:3: table-output",
                                      "bench/bench_fixture.cc:4: table-output"}));
}

TEST(LintTableOutput, TableAndCoutAreClean) {
  const char* src = R"(int main() {
  msamp::util::Table t({"a", "b"});
  t.row().cell(1).cell(2);
  bench::emit_table("fixture", t);
  std::cout << "done\n";
  return 0;
}
)";
  EXPECT_TRUE(lint_source("bench/bench_fixture.cc", src).empty());
}

TEST(LintTableOutput, RuleIsScopedToBenchBinaries) {
  const char* src = R"(#include <fstream>
void dump() { std::ofstream out("x.csv"); }
)";
  EXPECT_FALSE(lint_source("bench/bench_fixture.cc", src).empty());
  // The dataset writer, the CLI, and shared bench infrastructure write
  // real files legitimately.
  EXPECT_TRUE(lint_source("src/fleet/dataset.cc", src).empty());
  EXPECT_TRUE(lint_source("tools/msampctl.cc", src).empty());
  EXPECT_TRUE(lint_source("bench/common.cc", src).empty());
}

TEST(LintTableOutput, MemberCallsNamedLikeWritersAreClean) {
  const char* src = R"(void f(Logger& log) {
  log.printf("not the libc printf");
}
)";
  EXPECT_TRUE(lint_source("bench/bench_fixture.cc", src).empty());
}

// --- include-layering --------------------------------------------------

TEST(LintLayering, LayerRanksMatchTheMeasuredDag) {
  EXPECT_LT(layer_rank("src/util/stats.h"), layer_rank("src/net/rack.h"));
  EXPECT_EQ(layer_rank("src/net/rack.h"), layer_rank("src/core/sampler.h"));
  EXPECT_LT(layer_rank("src/net/rack.h"),
            layer_rank("src/workload/diurnal.h"));
  EXPECT_LT(layer_rank("src/workload/diurnal.h"),
            layer_rank("src/analysis/contention.h"));
  EXPECT_LT(layer_rank("src/analysis/contention.h"),
            layer_rank("src/fleet/config.h"));
  EXPECT_LT(layer_rank("src/fleet/config.h"),
            layer_rank("src/cluster/sweep.h"));
  EXPECT_LT(layer_rank("src/cluster/sweep.h"), layer_rank("bench/common.h"));
}

TEST(LintLayering, UpwardIncludeIsFlagged) {
  TreeIndex index;
  index.add(index_source("src/util/helper.h", R"(#pragma once
#include "fleet/config.h"
)"));
  index.add(index_source("src/fleet/config.h", "#pragma once\n"));
  index.link();
  const auto findings = check_include_layering(index);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "src/util/helper.h:2: include-layering"}));
}

TEST(LintLayering, DownwardAndSameLayerIncludesAreClean) {
  TreeIndex index;
  index.add(index_source("src/fleet/config.h", R"(#pragma once
#include "analysis/contention.h"
#include "util/stats.h"
)"));
  index.add(index_source("src/analysis/contention.h", R"(#pragma once
#include "util/stats.h"
)"));
  index.add(index_source("src/util/stats.h", "#pragma once\n"));
  index.add(index_source("src/net/rack.h", R"(#pragma once
#include "core/sampler.h"
)"));
  index.add(index_source("src/core/sampler.h", "#pragma once\n"));
  index.link();
  EXPECT_TRUE(check_include_layering(index).empty());
}

TEST(LintLayering, IncludeCycleIsFlaggedOnceAtSmallestMember) {
  TreeIndex index;
  index.add(index_source("src/core/a.h", R"(#pragma once
#include "core/b.h"
)"));
  index.add(index_source("src/core/b.h", R"(#pragma once
#include "core/a.h"
)"));
  index.link();
  const auto findings = check_include_layering(index);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/a.h");
  EXPECT_EQ(findings[0].rule, "include-layering");
  EXPECT_NE(findings[0].message.find("src/core/a.h <-> src/core/b.h"),
            std::string::npos);
}

// --- nondet coverage of tests/ and examples/ ---------------------------

TEST(LintNondet, TestsAndExamplesAreCovered) {
  const char* src = R"(int f() { return rand(); }
)";
  EXPECT_FALSE(lint_source("tests/test_fixture.cc", src).empty());
  EXPECT_FALSE(lint_source("examples/demo.cc", src).empty());
}

TEST(LintNondet, EnvReaderTestsAreTheDocumentedAllowlist) {
  const char* src = R"(const char* v = std::getenv("MSAMP_THREADS");
)";
  // The allowlist names exactly the tests that exercise the documented
  // MSAMP_* readers (docs/STATIC_ANALYSIS.md).
  EXPECT_TRUE(lint_source("tests/test_thread_pool.cc", src).empty());
  EXPECT_TRUE(lint_source("tests/test_fleet_parallel.cc", src).empty());
  EXPECT_TRUE(lint_source("tests/test_buffer_policy.cc", src).empty());
  EXPECT_FALSE(lint_source("tests/test_stats.cc", src).empty());
  EXPECT_FALSE(lint_source("examples/demo.cc", src).empty());
}

// --- report: JSON + baseline -------------------------------------------

TEST(LintReport, JsonSchemaAndEscaping) {
  const std::vector<Finding> fs = {
      {"src/a.cc", 3, "nondet-random", "uses \"rand\"\nhere"},
      {"src/b.cc", 1, "float-accum-order", "tab\there"}};
  const std::string json = msamp::lint::to_json(fs, 2);
  EXPECT_NE(json.find("\"schema\": \"msamp-lint-report/2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"files\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"float-accum-order\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"nondet-random\": 1"), std::string::npos);
  EXPECT_NE(json.find("uses \\\"rand\\\"\\nhere"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
}

TEST(LintReport, EmptyReportHasExactBytes) {
  // The determinism ctest compares raw report files, so even the empty
  // report's bytes are part of the contract.
  EXPECT_EQ(msamp::lint::to_json({}, 0),
            "{\n  \"schema\": \"msamp-lint-report/2\",\n  \"files\": 0,\n"
            "  \"counts\": {},\n  \"findings\": []\n}\n");
}

TEST(LintReport, BaselineRoundTripAndStaleDetection) {
  const std::vector<Finding> fs = {
      {"src/a.cc", 3, "nondet-random", "m1"},
      {"src/a.cc", 3, "nondet-random", "m1"},  // duplicate: multiset
      {"src/b.cc", 9, "unordered-iter", "m2"}};
  const std::string text = msamp::lint::to_baseline(fs);
  const auto entries = msamp::lint::parse_baseline(text);
  ASSERT_EQ(entries.size(), 3u);  // the header comments are dropped
  auto work = fs;
  EXPECT_TRUE(msamp::lint::apply_baseline(work, entries).empty());
  EXPECT_TRUE(work.empty());
  // After one duplicate is fixed, its baseline entry is reported stale.
  work = {fs[0], fs[2]};
  const auto stale = msamp::lint::apply_baseline(work, entries);
  EXPECT_TRUE(work.empty());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], msamp::lint::to_string(fs[0]));
}

TEST(LintReport, BaselineIgnoresCommentsAndBlankLines) {
  const auto entries = msamp::lint::parse_baseline(
      "# comment\n\nsrc/a.cc:1: r: m\n   \n# another\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "src/a.cc:1: r: m");
}

TEST(LintIntrinsics, RawIntrinsicsOutsideSimdAreFlagged) {
  const char* src = R"(#include <immintrin.h>
void f(long long* d) {
  __m256i v = _mm256_loadu_si256((const __m256i*)d);
  (void)v;
}
)";
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "src/core/fixture.cc:1: intrinsics-only-in-simd",
                "src/core/fixture.cc:3: intrinsics-only-in-simd",
                "src/core/fixture.cc:3: intrinsics-only-in-simd",
                "src/core/fixture.cc:3: intrinsics-only-in-simd"}));
}

TEST(LintIntrinsics, NeonHeaderAndIdentifiersAreFlagged) {
  const char* src = R"(#include <arm_neon.h>
void f(unsigned long long* d) {
  vst1q_u64(d, vld1q_u64(d));
}
)";
  const auto findings = lint_source("bench/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{
                "bench/fixture.cc:1: intrinsics-only-in-simd",
                "bench/fixture.cc:3: intrinsics-only-in-simd",
                "bench/fixture.cc:3: intrinsics-only-in-simd"}));
}

TEST(LintIntrinsics, SimdSubsystemIsTheAllowlist) {
  const char* src = R"(#include <smmintrin.h>
void g(unsigned long long* d) {
  __m128i v = _mm_loadu_si128((const __m128i*)d);
  _mm_storeu_si128((__m128i*)d, v);
}
)";
  EXPECT_TRUE(lint_source("src/util/simd/kernels_sse4.cc", src).empty());
  EXPECT_TRUE(lint_source("src/util/simd/simd_internal.h", src).empty());
}

TEST(LintIntrinsics, CleanCodeAndLookalikeIdentifiersPass) {
  // Identifiers that merely resemble intrinsic names (no reserved
  // prefix) and ordinary vector code must not trip the rule.
  const char* src = R"(#include <vector>
int vaddr = 0;
int mm_total(const std::vector<int>& v) {
  int acc = 0;
  for (int x : v) acc += x;
  return acc + vaddr;
}
)";
  EXPECT_TRUE(lint_source("src/core/fixture.cc", src).empty());
}

TEST(LintIntrinsics, SuppressionCommentIsHonored) {
  const char* src = R"(void f() {
  __m128i v;  // msamp-lint: allow(intrinsics-only-in-simd) doc example
}
)";
  EXPECT_TRUE(lint_source("src/core/fixture.cc", src).empty());
}

TEST(LintIntrinsics, GetenvAllowedInSimdDispatch) {
  const char* src = R"(#include <cstdlib>
const char* f() { return std::getenv("MSAMP_SIMD"); }
)";
  EXPECT_TRUE(lint_source("src/util/simd/dispatch.cc", src).empty());
  const auto findings = lint_source("src/core/fixture.cc", src);
  EXPECT_EQ(locations(findings),
            (std::vector<std::string>{"src/core/fixture.cc:2: nondet-getenv"}));
}

}  // namespace
