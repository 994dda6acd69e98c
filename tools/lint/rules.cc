#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <set>
#include <string>

#include "lint/index.h"

namespace msamp::lint {
namespace {

using Tokens = std::vector<Token>;

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

const Token* at(const Tokens& toks, std::size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

// Identifiers that produce nondeterministic values.  The sanctioned
// sources are util::Rng (seeded, forkable by key) and sim::SimTime; see
// docs/STATIC_ANALYSIS.md.
const std::set<std::string, std::less<>> kRandomCalls = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "erand48"};
const std::set<std::string, std::less<>> kRandomTypes = {"random_device"};
const std::set<std::string, std::less<>> kTimeCalls = {
    "time",          "clock",        "gettimeofday",
    "clock_gettime", "timespec_get", "ftime"};
const std::set<std::string, std::less<>> kTimeTypes = {
    "system_clock", "steady_clock", "high_resolution_clock"};
const std::set<std::string, std::less<>> kEnvCalls = {"getenv",
                                                      "secure_getenv"};
const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
// Every associative container whose key participates in ordering or
// hashing; a float/double key in one of these makes lookup and iteration
// depend on rounding, which must never feed emitted bytes.
const std::set<std::string, std::less<>> kKeyedContainers = {
    "map",           "multimap",      "set",
    "multiset",      "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset"};
const std::set<std::string, std::less<>> kFloatTypes = {"float", "double"};
// Raw output primitives a bench_* binary must not touch: CSV and stdout
// bytes flow through util::Table so the determinism checks see them all.
const std::set<std::string, std::less<>> kRawWriteCalls = {
    "printf", "fprintf", "fputs", "fputc", "fwrite", "fopen", "puts"};
// Vendor intrinsic headers (x86 *mmintrin family + Arm NEON/SVE): outside
// src/util/simd/ these mean a vector loop with no scalar twin, no forced-
// path test, and no byte-identity check — see docs/SIMD.md.
const std::set<std::string, std::less<>> kIntrinsicHeaders = {
    "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
    "pmmintrin.h", "tmmintrin.h", "smmintrin.h", "nmmintrin.h",
    "wmmintrin.h", "ammintrin.h", "arm_neon.h",  "arm_sve.h"};
// Common intrinsic identifier prefixes: the x86 `_mm`/`_mm256`/`_mm512`
// families and vector types, plus the NEON q-register operation names.
const char* const kIntrinsicPrefixes[] = {
    "_mm_",   "_mm256_", "_mm512_", "__m128", "__m256",  "__m512",
    "vld1",   "vst1",    "vaddq",   "vsubq",  "vmulq",   "vandq",
    "vorrq",  "veorq",   "vceqq",   "vcgtq",  "vcgeq",   "vcltq",
    "vminq",  "vmaxq",   "vdupq",   "vgetq",  "vsetq",   "vbslq",
    "vqaddq", "vqsubq",  "vshlq",   "vshrq",  "vpaddq",  "vaddvq",
    "vreinterpretq", "vmovq", "vcntq"};

bool is_intrinsic_ident(std::string_view text) {
  for (const char* prefix : kIntrinsicPrefixes) {
    const std::string_view p(prefix);
    if (text.size() >= p.size() && text.substr(0, p.size()) == p) return true;
  }
  return false;
}

// The contention-observability surface (util/contention_counters.h).
// Merely *naming* any of these in an output-path file is a finding: the
// counters tally execution (which lane won a CAS, how often a trylock
// failed), and execution must never influence emitted bytes.
const std::set<std::string, std::less<>> kCounterIdents = {
    "ContentionCounters", "ContentionSnapshot", "contention_snapshot"};

// True when tokens[i] is a *free or std::-qualified call* of the named
// function: `name(` not reached through `.`, `->`, or a non-std `::`
// qualifier (so `sim::time_of(...)`-style project helpers never trip).
bool is_free_call(const Tokens& toks, std::size_t i) {
  const Token* next = at(toks, i + 1);
  if (!next || !is_punct(*next, "(")) return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) return false;
  if (is_punct(prev, "::")) {
    return i >= 2 && is_ident(toks[i - 2], "std");
  }
  return true;
}

void flag(std::vector<Finding>& out, std::string_view path, int line,
          std::string_view rule, std::string message) {
  out.push_back({std::string(path), line, std::string(rule),
                 std::move(message)});
}

void check_nondeterminism(const Tokens& toks, std::string_view path,
                          const FileRole& role, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (kRandomCalls.count(t.text) && is_free_call(toks, i)) {
      flag(out, path, t.line, "nondet-random",
           "call to '" + t.text + "' — use util::Rng (seeded, forkable)");
    } else if (kRandomTypes.count(t.text)) {
      flag(out, path, t.line, "nondet-random",
           "'std::" + t.text + "' — use util::Rng (seeded, forkable)");
    } else if (!role.wallclock_allowed && kTimeCalls.count(t.text) &&
               is_free_call(toks, i)) {
      flag(out, path, t.line, "nondet-time",
           "call to '" + t.text + "' — use sim::SimTime for simulated time");
    } else if (!role.wallclock_allowed && kTimeTypes.count(t.text)) {
      flag(out, path, t.line, "nondet-time",
           "'std::chrono::" + t.text +
               "' — wall clocks change the output between runs; use "
               "sim::SimTime (scheduling code: cluster::steady_now_ms)");
    } else if (!role.getenv_allowed && kEnvCalls.count(t.text) &&
               is_free_call(toks, i)) {
      flag(out, path, t.line, "nondet-getenv",
           "call to '" + t.text +
               "' outside the documented MSAMP_* readers "
               "(util/thread_pool.cc, util/simd/dispatch.cc, "
               "bench/common.cc)");
    }
  }
}

// Raw intrinsics outside src/util/simd/. Two scans: the lexer strips
// preprocessor lines from the token stream, so banned `#include <...>`
// directives are found by a raw line scan (the `#` must be the first
// non-blank character, exactly like index.cc's include scan, so an
// include spelled inside a string literal never matches); identifiers are
// matched from the token stream, where string/comment contents are
// already invisible.
void check_intrinsics(std::string_view src, const Tokens& toks,
                      std::string_view path, std::vector<Finding>& out) {
  int line = 1;
  std::size_t pos = 0;
  while (pos < src.size()) {
    std::size_t eol = src.find('\n', pos);
    if (eol == std::string_view::npos) eol = src.size();
    std::string_view l = src.substr(pos, eol - pos);
    std::size_t i = 0;
    while (i < l.size() && (l[i] == ' ' || l[i] == '\t')) ++i;
    if (i < l.size() && l[i] == '#') {
      ++i;
      while (i < l.size() && (l[i] == ' ' || l[i] == '\t')) ++i;
      if (l.substr(i, 7) == "include") {
        const std::size_t open = l.find('<', i + 7);
        const std::size_t close =
            open == std::string_view::npos ? open : l.find('>', open + 1);
        if (close != std::string_view::npos) {
          const std::string_view header =
              l.substr(open + 1, close - open - 1);
          if (kIntrinsicHeaders.count(header)) {
            flag(out, path, line, "intrinsics-only-in-simd",
                 "#include <" + std::string(header) +
                     "> outside src/util/simd/ — go through the "
                     "util::simd dispatch layer (docs/SIMD.md)");
          }
        }
      }
    }
    pos = eol + 1;
    ++line;
  }
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdentifier && is_intrinsic_ident(t.text)) {
      flag(out, path, t.line, "intrinsics-only-in-simd",
           "raw intrinsic '" + t.text +
               "' outside src/util/simd/ — go through the util::simd "
               "dispatch layer (docs/SIMD.md)");
    }
  }
}

// Skips a balanced template-argument list with toks[i] on `<`; returns the
// index one past the matching `>`, or i when the angles never balance.
std::size_t skip_angles(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (is_punct(toks[j], "<")) ++depth;
    if (is_punct(toks[j], ">")) {
      if (--depth == 0) return j + 1;
    }
    // A `;` inside an unbalanced angle run means `<` was a comparison.
    if (is_punct(toks[j], ";")) return i;
  }
  return i;
}

// Marks every token inside a loop *body* (not the `for`/`while` header —
// an induction-variable `t += step` there is iteration control, not a
// reduction).  Brace bodies mark to the matching `}`; brace-less bodies
// mark to the statement's `;` at paren depth 0.
std::vector<char> mark_loop_bodies(const Tokens& toks) {
  std::vector<char> in_loop(toks.size(), 0);
  const auto matching_brace = [&](std::size_t open) {
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
      if (is_punct(toks[j], "{")) ++depth;
      if (is_punct(toks[j], "}") && --depth == 0) return j;
    }
    return toks.size();
  };
  const auto mark = [&](std::size_t a, std::size_t b) {
    for (std::size_t k = a; k < b && k < toks.size(); ++k) in_loop[k] = 1;
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    std::size_t body = 0;
    if ((is_ident(toks[i], "for") || is_ident(toks[i], "while")) &&
        is_punct(toks[i + 1], "(")) {
      int depth = 1;
      std::size_t j = i + 2;
      while (j < toks.size() && depth > 0) {
        if (is_punct(toks[j], "(")) ++depth;
        if (is_punct(toks[j], ")")) --depth;
        ++j;
      }
      body = j;  // one past the closing `)`
    } else if (is_ident(toks[i], "do") && is_punct(toks[i + 1], "{")) {
      body = i + 1;
    } else {
      continue;
    }
    if (body >= toks.size()) continue;
    if (is_punct(toks[body], "{")) {
      mark(body + 1, matching_brace(body));
    } else {
      int parens = 0;
      for (std::size_t k = body; k < toks.size(); ++k) {
        if (is_punct(toks[k], "(")) ++parens;
        if (is_punct(toks[k], ")")) --parens;
        if (parens == 0 && is_punct(toks[k], ";")) {
          mark(body, k);
          break;
        }
      }
    }
  }
  return in_loop;
}

// float-accum-order: a compound accumulation (`+=`, `-=`, `*=`) whose
// target resolves to float/double — through the cross-file index, so a
// `double` member declared in a header is seen from its .cc — inside a
// loop body.  Sequential source order is only canonical until the
// compiler's vectorization or FMA-contraction choices differ; reductions
// that reach emitted bytes go through the util::stats canonical-order
// helpers instead (docs/STATIC_ANALYSIS.md, docs/PERFORMANCE.md).
void check_float_accumulation(const Tokens& toks, std::string_view path,
                              const TreeIndex& index,
                              std::vector<Finding>& out) {
  const std::vector<char> in_loop = mark_loop_bodies(toks);
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const bool compound = (is_punct(toks[i], "+") || is_punct(toks[i], "-") ||
                           is_punct(toks[i], "*")) &&
                          is_punct(toks[i + 1], "=");
    if (!compound || !in_loop[i]) continue;
    const Token& lhs = toks[i - 1];
    if (lhs.kind != TokKind::kIdentifier) continue;  // e.g. `x++ == y`
    // `==` after the operator means comparison (`a +== b` cannot occur,
    // but `a *= =` never does either; guard anyway).
    if (const Token* n = at(toks, i + 2); n && is_punct(*n, "=")) continue;
    if (index.category_of(path, lhs.text) != TypeCat::kFloat) continue;
    flag(out, path, lhs.line, "float-accum-order",
         "float accumulation '" + lhs.text +
             " " + toks[i].text + "=' in a loop in an output path — the "
             "accumulation order reaches the emitted bytes once "
             "vectorization/FMA choices differ; reduce through the "
             "util::stats canonical-order helpers (canonical_sum / "
             "canonical_sum_over / StreamingStats)");
  }
}

// table-output: bench binaries write their CSVs and tables through
// util::Table (bench::emit_table), never raw streams — that is how the
// byte-identity checks can diff every emitted file.
void check_table_output(const Tokens& toks, std::string_view path,
                        std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "ofstream") {
      flag(out, path, t.line, "table-output",
           "raw 'ofstream' in a bench binary — emit CSV through "
           "util::Table (bench::emit_table / Table::write_csv_file) so the "
           "determinism checks see the bytes");
    } else if (kRawWriteCalls.count(t.text) && is_free_call(toks, i)) {
      flag(out, path, t.line, "table-output",
           "raw '" + t.text +
               "' in a bench binary — tables and CSVs go through "
               "util::Table (bench::emit_table), stdout prose through "
               "std::cout");
    }
  }
}

void check_unordered_iteration(const Tokens& toks, std::string_view path,
                               const TreeIndex& index,
                               std::vector<Finding>& out) {
  // Pass A: using-aliases whose target is an unordered container
  // (e.g. `using ClassMap = std::unordered_map<...>;`).
  std::set<std::string, std::less<>> alias_types;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], "using")) continue;
    const Token* name = at(toks, i + 1);
    if (!name || name->kind != TokKind::kIdentifier ||
        !is_punct(toks[i + 2], "=")) {
      continue;
    }
    for (std::size_t j = i + 3; j < toks.size() && !is_punct(toks[j], ";");
         ++j) {
      if (toks[j].kind == TokKind::kIdentifier &&
          kUnorderedTypes.count(toks[j].text)) {
        alias_types.insert(name->text);
        break;
      }
    }
  }

  // Pass B: names of variables (or data members) declared with an
  // unordered container type, in this file.
  std::set<std::string, std::less<>> unordered_vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool is_container = kUnorderedTypes.count(t.text) > 0;
    const bool is_alias = alias_types.count(t.text) > 0;
    if (!is_container && !is_alias) continue;
    std::size_t j = i + 1;
    if (const Token* n = at(toks, j); n && is_punct(*n, "<")) {
      j = skip_angles(toks, j);
      if (j == i + 1) continue;  // comparison, not a template id
    }
    while (const Token* n = at(toks, j)) {
      if (is_punct(*n, "&") || is_punct(*n, "*") || is_ident(*n, "const")) {
        ++j;
      } else {
        break;
      }
    }
    const Token* name = at(toks, j);
    if (!name || name->kind != TokKind::kIdentifier) continue;
    // `type name(` declares a function returning the container, not a
    // variable; `using X = type;` was handled in pass A.
    if (const Token* after = at(toks, j + 1);
        after && is_punct(*after, "(")) {
      continue;
    }
    unordered_vars.insert(name->text);
  }

  // Pass C: range-based for loops whose range expression names an
  // unordered container type, alias, or variable.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    int depth = 1;
    std::size_t colon = 0;
    std::size_t j = i + 2;
    for (; j < toks.size() && depth > 0; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) --depth;
      if (depth == 1 && colon == 0 && is_punct(toks[j], ":")) colon = j;
    }
    if (colon == 0) continue;  // classic for loop
    for (std::size_t k = colon + 1; k < j - 1; ++k) {
      const Token& r = toks[k];
      if (r.kind != TokKind::kIdentifier) continue;
      // The per-file passes above see declarations in this file; the
      // tree index additionally resolves members and aliases declared in
      // any header of this file's include closure (the v1 known-limit).
      if (kUnorderedTypes.count(r.text) || alias_types.count(r.text) ||
          unordered_vars.count(r.text) ||
          index.category_of(path, r.text) == TypeCat::kUnordered ||
          index.head_category(path, r.text) == TypeCat::kUnordered) {
        flag(out, path, toks[i].line, "unordered-iter",
             "range-for over unordered container '" + r.text +
                 "' in an output path — iteration order is unspecified and "
                 "reaches the emitted bytes; iterate a sorted view instead");
        break;
      }
    }
  }
}

void check_float_keys(const Tokens& toks, std::string_view path,
                      std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier || !kKeyedContainers.count(t.text) ||
        !is_punct(toks[i + 1], "<")) {
      continue;
    }
    // Scan the first template argument (the key type), at angle depth 1.
    // A `;` before the angles balance means `<` was a comparison.
    int depth = 1;
    for (std::size_t j = i + 2; j < toks.size(); ++j) {
      const Token& a = toks[j];
      if (is_punct(a, "<")) ++depth;
      if (is_punct(a, ">") && --depth == 0) break;
      if (is_punct(a, ";")) break;
      if (depth == 1 && is_punct(a, ",")) break;
      if (a.kind == TokKind::kIdentifier && kFloatTypes.count(a.text)) {
        flag(out, path, t.line, "float-key",
             "'" + t.text + "' keyed on '" + a.text +
                 "' in an output path — float keys order and compare by "
                 "rounding-sensitive bits; quantize to an integer key "
                 "before it can reach the emitted bytes");
        break;
      }
    }
  }
}

void check_wire_format(const Tokens& toks, std::string_view path,
                       std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], "sizeof") || !is_punct(toks[i + 1], "(")) continue;
    const Token& arg = toks[i + 2];
    if (arg.kind != TokKind::kIdentifier || !is_punct(toks[i + 3], ")")) {
      continue;
    }
    // Project record types are CamelCase; single capitals are template
    // parameters (whose non-class-ness the codecs static_assert).
    if (arg.text.size() > 1 &&
        std::isupper(static_cast<unsigned char>(arg.text[0]))) {
      flag(out, path, toks[i].line, "wire-struct-copy",
           "'sizeof(" + arg.text +
               ")' in the wire-format codec — records must be serialized "
               "field by field (struct padding must never reach the file)");
    }
  }
}

void check_counter_reads(const Tokens& toks, std::string_view path,
                         std::vector<Finding>& out) {
  for (const Token& t : toks) {
    if (t.kind != TokKind::kIdentifier || !kCounterIdents.count(t.text)) {
      continue;
    }
    flag(out, path, t.line, "counters-not-in-output",
         "'" + t.text +
             "' in an output path — contention counters measure execution "
             "and must never feed emitted bytes; the sanctioned reader is "
             "bench/bench_pool_contention.cc (docs/OBSERVABILITY.md)");
  }
}

bool comment_suppresses(const LexOutput& lexed, int line,
                        const std::string& rule) {
  const auto it = lexed.comments.find(line);
  if (it == lexed.comments.end()) return false;
  const std::string& c = it->second;
  if (c.find("msamp-lint:") == std::string::npos) return false;
  return c.find("allow(" + rule + ")") != std::string::npos ||
         c.find("allow(all)") != std::string::npos;
}

// The exempt marker may sit on the declaration line or anywhere in the
// contiguous comment block directly above it.
bool comment_exempts_fingerprint(const LexOutput& lexed, int line) {
  for (int l = line;; --l) {
    const auto it = lexed.comments.find(l);
    if (it == lexed.comments.end()) return false;
    if (it->second.find("fingerprint-exempt:") != std::string::npos) {
      return true;
    }
    if (l < line - 100) return false;  // defensive bound
  }
}

}  // namespace

std::string to_string(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
         f.message;
}

FileRole classify_path(std::string_view path) {
  FileRole role;
  const auto is = [&](std::string_view p) { return path == p; };
  const auto under = [&](std::string_view dir) {
    return path.substr(0, dir.size()) == dir;
  };
  // The sanctioned primitives themselves: util::Rng wraps the generator,
  // sim/time.h defines simulated time.
  role.nondet_exempt =
      is("src/sim/time.h") || is("src/util/rng.h") || is("src/util/rng.cc");
  // The documented MSAMP_* environment readers (MSAMP_THREADS,
  // MSAMP_DATASET, and MSAMP_SIMD) plus the tests that exercise them.
  role.getenv_allowed = is("src/util/thread_pool.cc") ||
                        is("src/util/simd/dispatch.cc") ||
                        is("bench/common.cc") ||
                        is("tests/test_thread_pool.cc") ||
                        is("tests/test_fleet_parallel.cc") ||
                        is("tests/test_buffer_policy.cc");
  // The cluster scheduler's clock: stall timeouts and retry backoff need
  // real elapsed time; process.cc concentrates every wall-clock read so
  // nothing else in src/cluster/ can touch one.
  role.wallclock_allowed = is("src/cluster/process.cc");
  // Everything whose iteration order can reach emitted bytes: the fleet
  // serialization/reduction layer, the cluster orchestrator (shard paths
  // and the merged dataset), every bench (stdout tables + CSVs), the
  // table/plot writers, the CSV trace writer, and the CLI.
  role.output_path = under("src/fleet/") || under("src/cluster/") ||
                     under("bench/") ||
                     is("src/util/table.cc") || is("src/util/table.h") ||
                     is("src/util/ascii_plot.cc") ||
                     is("src/util/ascii_plot.h") ||
                     is("src/analysis/trace_io.cc") ||
                     is("src/analysis/trace_io.h") ||
                     is("tools/msampctl.cc");
  // The dataset encoder (wire.h/.cc) and every file that feeds it
  // records: Dataset::serialize/save, the spill sink, and the merge.
  role.wire_format = is("src/fleet/dataset.cc") || is("src/fleet/wire.h") ||
                     is("src/fleet/wire.cc") ||
                     is("src/fleet/spill_sink.cc") ||
                     is("src/fleet/merge.cc");
  // Counter reads are banned exactly where output bytes are produced —
  // except the one bench whose whole point is printing the counters (its
  // CSV is deliberately absent from check_bench_determinism.sh).
  role.counters_banned =
      role.output_path && !is("bench/bench_pool_contention.cc");
  // Every bench binary routes its tables and CSVs through util::Table;
  // common.cc is shared infrastructure (its stderr diagnostics are not
  // table bytes) and the contention bench prints through Table already.
  role.table_output = under("bench/bench_");
  // The one home for raw intrinsics: the dispatch layer's per-ISA kernel
  // translation units.
  role.intrinsics_allowed = under("src/util/simd/");
  return role;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view src,
                                 const FileRole* role,
                                 const TreeIndex* index) {
  const FileRole derived = role ? *role : classify_path(path);
  const LexOutput lexed = lex(src);
  // Without a tree-wide index, resolve against this file alone (local
  // declarations and aliases still work; cross-header ones do not).
  std::optional<TreeIndex> own;
  if (!index) {
    own.emplace();
    own->add(index_source(path, src));
    own->link();
    index = &*own;
  }
  std::vector<Finding> findings;
  if (!derived.nondet_exempt) {
    check_nondeterminism(lexed.tokens, path, derived, findings);
  }
  if (derived.output_path) {
    check_unordered_iteration(lexed.tokens, path, *index, findings);
    check_float_keys(lexed.tokens, path, findings);
    check_float_accumulation(lexed.tokens, path, *index, findings);
  }
  if (derived.table_output) {
    check_table_output(lexed.tokens, path, findings);
  }
  if (derived.wire_format) {
    check_wire_format(lexed.tokens, path, findings);
  }
  if (derived.counters_banned) {
    check_counter_reads(lexed.tokens, path, findings);
  }
  if (!derived.intrinsics_allowed) {
    check_intrinsics(src, lexed.tokens, path, findings);
  }
  std::erase_if(findings, [&](const Finding& f) {
    return comment_suppresses(lexed, f.line, f.rule);
  });
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<StructField> parse_struct_fields(std::string_view header_src,
                                             std::string_view struct_name) {
  const LexOutput lexed = lex(header_src);
  const Tokens& toks = lexed.tokens;
  std::vector<StructField> fields;

  // Find `struct <name> ... {` (skipping forward declarations).
  std::size_t body = 0;
  for (std::size_t i = 0; i + 1 < toks.size() && body == 0; ++i) {
    if (!is_ident(toks[i], "struct") || !is_ident(toks[i + 1], struct_name)) {
      continue;
    }
    for (std::size_t j = i + 2; j < toks.size(); ++j) {
      if (is_punct(toks[j], "{")) {
        body = j + 1;
        break;
      }
      if (is_punct(toks[j], ";")) break;  // forward declaration
    }
  }
  if (body == 0) return fields;

  // Walk the struct body at brace depth 1, accumulating one declaration at
  // a time.  A `}` that closes back to depth 1 ends a member function
  // (its declarator has a top-level `(` before any `=`); otherwise the
  // braces belonged to a default initializer and the declaration continues
  // to its `;`.
  const auto is_function_decl = [&](const std::vector<std::size_t>& decl) {
    for (const std::size_t k : decl) {
      if (is_punct(toks[k], "=")) return false;
      if (is_punct(toks[k], "(")) return true;
    }
    return false;
  };
  const auto process_decl = [&](const std::vector<std::size_t>& decl) {
    if (decl.empty() || is_function_decl(decl)) return;
    static const std::set<std::string, std::less<>> kSkipLead = {
        "using", "typedef", "friend", "static", "template",
        "public", "private", "protected", "enum", "struct", "class"};
    if (kSkipLead.count(toks[decl.front()].text)) return;
    // The field name is the identifier just before `=`, a brace
    // initializer, or the terminating `;`.
    std::size_t stop = decl.size();
    for (std::size_t k = 0; k < decl.size(); ++k) {
      if (is_punct(toks[decl[k]], "=") || is_punct(toks[decl[k]], "{")) {
        stop = k;
        break;
      }
    }
    std::size_t name_idx = decl.size();
    for (std::size_t k = stop; k-- > 0;) {
      if (toks[decl[k]].kind == TokKind::kIdentifier) {
        name_idx = k;
        break;
      }
    }
    if (name_idx >= decl.size()) return;
    StructField f;
    const Token& name = toks[decl[name_idx]];
    f.name = name.text;
    f.line = name.line;
    f.exempt = comment_exempts_fingerprint(lexed, name.line);
    for (std::size_t k = name_idx; k-- > 0;) {
      if (toks[decl[k]].kind == TokKind::kIdentifier) {
        f.type = toks[decl[k]].text;
        break;
      }
    }
    fields.push_back(std::move(f));
  };

  int depth = 1;
  std::vector<std::size_t> decl;
  for (std::size_t i = body; i < toks.size() && depth > 0; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      ++depth;
      decl.push_back(i);
      continue;
    }
    if (is_punct(t, "}")) {
      --depth;
      if (depth == 0) break;
      if (depth == 1 && is_function_decl(decl)) {
        decl.clear();
      } else {
        decl.push_back(i);
      }
      continue;
    }
    if (depth == 1 && is_punct(t, ";")) {
      process_decl(decl);
      decl.clear();
      continue;
    }
    decl.push_back(i);
  }
  return fields;
}

std::vector<Finding> check_fingerprint_coverage(
    const std::vector<StructSource>& structs, std::string_view root_struct,
    std::string_view impl_path, std::string_view impl_src) {
  std::vector<Finding> findings;

  const StructSource* root = nullptr;
  for (const auto& s : structs) {
    if (s.name == root_struct) root = &s;
  }
  if (!root) {
    findings.push_back({std::string(impl_path), 1, "fingerprint-coverage",
                        "struct '" + std::string(root_struct) +
                            "' not found in the given headers"});
    return findings;
  }

  // Locate the body of `fingerprint() const { ... }` in the impl.
  const LexOutput impl = lex(impl_src);
  const Tokens& toks = impl.tokens;
  std::size_t begin = 0, end = 0;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], "fingerprint") || !is_punct(toks[i + 1], "(") ||
        !is_punct(toks[i + 2], ")")) {
      continue;
    }
    std::size_t j = i + 3;
    if (is_ident(toks[j], "const")) ++j;
    if (!is_punct(toks[j], "{")) continue;
    int depth = 1;
    begin = j + 1;
    for (std::size_t k = begin; k < toks.size(); ++k) {
      if (is_punct(toks[k], "{")) ++depth;
      if (is_punct(toks[k], "}") && --depth == 0) {
        end = k;
        break;
      }
    }
    break;
  }
  if (end == 0) {
    findings.push_back(
        {std::string(impl_path), 1, "fingerprint-coverage",
         "definition of '" + std::string(root_struct) +
             "::fingerprint() const' not found in " + std::string(impl_path)});
    return findings;
  }

  // True when the member chain (e.g. {"buffer", "reserve_per_queue"})
  // appears in the body as `buffer.reserve_per_queue`.
  const auto chain_in_body = [&](const std::vector<std::string>& chain) {
    for (std::size_t i = begin; i < end; ++i) {
      if (!is_ident(toks[i], chain.front())) continue;
      std::size_t j = i;
      bool ok = true;
      for (std::size_t c = 1; c < chain.size(); ++c) {
        if (j + 2 >= end || !is_punct(toks[j + 1], ".") ||
            !is_ident(toks[j + 2], chain[c])) {
          ok = false;
          break;
        }
        j += 2;
      }
      if (ok) return true;
    }
    return false;
  };

  // Walk the root struct, recursing into fields whose type is itself a
  // known config struct, so nested knobs (the PR 3 bug class:
  // buffer.reserve_per_queue et al.) each need their own hash step.
  const auto find_struct = [&](const std::string& name) -> const StructSource* {
    for (const auto& s : structs) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  struct Frame {
    const StructSource* src;
    std::vector<std::string> chain;
  };
  std::vector<Frame> work{{root, {}}};
  std::set<std::string> on_path;  // cycle guard
  while (!work.empty()) {
    Frame frame = std::move(work.back());
    work.pop_back();
    for (const StructField& f :
         parse_struct_fields(frame.src->header_src, frame.src->name)) {
      if (f.exempt) continue;
      std::vector<std::string> chain = frame.chain;
      chain.push_back(f.name);
      const StructSource* nested = find_struct(f.type);
      if (nested && !on_path.count(f.type)) {
        on_path.insert(f.type);
        work.push_back({nested, std::move(chain)});
        continue;
      }
      if (!chain_in_body(chain)) {
        std::string dotted = chain.front();
        for (std::size_t c = 1; c < chain.size(); ++c) {
          dotted += "." + chain[c];
        }
        findings.push_back(
            {frame.src->header_path, f.line, "fingerprint-coverage",
             std::string(root_struct) + " field '" + dotted +
                 "' is not hashed in fingerprint() (" +
                 std::string(impl_path) +
                 ") and has no '// fingerprint-exempt:' comment"});
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

}  // namespace msamp::lint
