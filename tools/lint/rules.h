// msamp_lint rule engine: project invariants that generic tooling cannot
// express, run over the token stream from lint/lexer.h.  The rules and
// the reasons they exist are documented in docs/STATIC_ANALYSIS.md.
//
// Rule ids (stable; used in findings and in suppression comments):
//   nondet-random         rand()/srand()/std::random_device & friends
//   nondet-time           time()/clock()/std::chrono::*_clock wall clocks
//                         outside the sanctioned scheduler clock
//   nondet-getenv         getenv outside the documented MSAMP_* readers
//   unordered-iter        range-for over unordered containers in output
//                         paths (serialization / reduction / CSV emitters)
//   float-key             float/double-keyed map/set in output paths
//   wire-struct-copy      whole-struct memcpy/sizeof in the wire format
//   fingerprint-coverage  FleetConfig field missing from fingerprint()
//   counters-not-in-output  contention-counter reads (ContentionCounters,
//                         ContentionSnapshot, contention_snapshot) in
//                         output paths — the counters measure execution,
//                         and execution must never reach emitted bytes;
//                         the one sanctioned reader is
//                         bench/bench_pool_contention.cc
//   float-accum-order     float/double compound accumulation (`+=`, `-=`,
//                         `*=`) inside a loop in an output path — the
//                         accumulation order reaches the emitted bytes
//                         the moment vectorization or FMA contraction
//                         differs, so reductions go through the
//                         util::stats canonical-order helpers
//                         (canonical_sum / canonical_sum_over /
//                         StreamingStats).  Flow-aware: only loop bodies
//                         count (loop headers and one-shot additions do
//                         not), and the accumulator's type resolves
//                         through the cross-file index, so a `double`
//                         member declared in a header is seen from its
//                         .cc.
//   table-output          raw output primitives (ofstream, printf/fprintf/
//                         fopen/fwrite/puts) in a bench_* binary — every
//                         bench emits its CSV through util::Table
//                         (bench::emit_table), so the byte-identity checks
//                         see every emitted file
//   intrinsics-only-in-simd  raw SIMD intrinsics outside src/util/simd/ —
//                         `#include <immintrin.h>`/`<arm_neon.h>` (and the
//                         other vendor intrinsic headers) or `_mm*`/
//                         `__m128/256/512*`/`vld1q_*`-style identifiers.
//                         Raw intrinsics live behind the util::simd
//                         dispatch layer so every vector loop has a scalar
//                         twin, a forced-path test, and a byte-identity
//                         check (docs/SIMD.md)
//   include-layering      tree-level rule (lint/index.h): an include of a
//                         higher layer, or any include cycle
//
// unordered-iter is index-aware since v2: a member declared
// `std::unordered_map` (possibly behind a `using` alias) in one header
// and iterated in another file resolves through the TreeIndex — the v1
// per-file known-limit.
//
// A finding on line L is suppressed by a comment on that line containing
// `msamp-lint: allow(<rule-id>)` (or `allow(all)`), with a one-line
// justification after the marker.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace msamp::lint {

class TreeIndex;  // lint/index.h — the pass-1 cross-file symbol index

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Formats a finding as `file:line: rule-id: message`.
std::string to_string(const Finding& f);

/// What a file is allowed to do; derived from its repo-relative path by
/// classify_path(), overridable in tests.
struct FileRole {
  /// Implementation of the sanctioned randomness/time primitives
  /// (src/util/rng.*, src/sim/time.h): nondeterminism rules are off.
  bool nondet_exempt = false;
  /// Documented MSAMP_* environment readers: getenv is allowed.
  bool getenv_allowed = false;
  /// The cluster scheduler's monotonic clock (src/cluster/process.cc):
  /// wall-clock reads are allowed — stall timeouts and retry backoff are
  /// execution detail that never reaches dataset bytes.
  bool wallclock_allowed = false;
  /// Serialization, reduction, or CSV-emitting file: iteration order
  /// reaches the output bytes, so unordered-container range-fors and
  /// float-keyed associative containers are banned.
  bool output_path = false;
  /// Dataset writer (src/fleet/wire.{h,cc} and the files that call its
  /// encoder): whole-struct copies are banned; records must be serialized
  /// field by field.
  bool wire_format = false;
  /// Output-path file that is NOT the sanctioned contention-bench:
  /// naming ContentionCounters / ContentionSnapshot / contention_snapshot
  /// is banned, so an execution-dependent tally can never be folded into
  /// emitted bytes (docs/OBSERVABILITY.md).
  bool counters_banned = false;
  /// bench_* binary: CSV/stdout bytes must flow through util::Table, so
  /// raw ofstream/printf emitters are banned (`table-output`).
  bool table_output = false;
  /// The util::simd subsystem (src/util/simd/): the one place raw
  /// intrinsic headers and `_mm*`/`vld1q_*` identifiers may appear.
  bool intrinsics_allowed = false;
};

/// Derives the role from a repo-relative path (forward slashes).
FileRole classify_path(std::string_view path);

/// Runs every per-file rule over `src`.  `path` is used for reporting and,
/// when `role` is null, for classification.  `index` is the pass-1
/// tree-wide symbol index; when null, a single-file index is built from
/// `src` alone (local declarations still resolve, cross-header ones do
/// not).  When provided, the index must already contain `path`.
std::vector<Finding> lint_source(std::string_view path, std::string_view src,
                                 const FileRole* role = nullptr,
                                 const TreeIndex* index = nullptr);

// --- fingerprint coverage ----------------------------------------------

/// One data member parsed from a struct declaration.
struct StructField {
  std::string name;
  std::string type;  ///< last identifier of the declared type
  int line = 0;
  bool exempt = false;  ///< `// fingerprint-exempt:` on the decl (or above)
};

/// Parses the data members of `struct struct_name { ... };` out of header
/// source.  Member functions, using-aliases, and static members are
/// skipped.  Returns empty if the struct is not found.
std::vector<StructField> parse_struct_fields(std::string_view header_src,
                                             std::string_view struct_name);

/// A struct the coverage check knows how to parse: its name and the
/// header it lives in.
struct StructSource {
  std::string name;
  std::string header_path;
  std::string header_src;
};

/// Checks that every field of `root_struct` (recursing into fields whose
/// type is itself in `structs`) is either named in the body of
/// `fingerprint()` inside `impl_src` (nested fields as `outer.inner`
/// member chains) or carries a `// fingerprint-exempt:` comment.
std::vector<Finding> check_fingerprint_coverage(
    const std::vector<StructSource>& structs, std::string_view root_struct,
    std::string_view impl_path, std::string_view impl_src);

}  // namespace msamp::lint
