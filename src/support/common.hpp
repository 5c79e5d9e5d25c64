// Basic shared types and assertion helpers for the rpt library.
//
// Everything in the feasibility logic uses unsigned 64-bit integers: the
// paper assumes integer request counts, and integer arithmetic keeps the
// validators exact (no epsilon comparisons). Distances are integers too;
// "no distance constraint" is the sentinel kNoDistanceLimit.
//
// Ownership/thread-safety: this header defines only value types, constants,
// and the RPT_REQUIRE/RPT_CHECK assertion macros (which throw
// InvalidArgument / InternalError); nothing here holds state, so everything
// is safe from any thread. Determinism: integer-only arithmetic is the
// foundation of the repo-wide bit-identical-reports contract.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>

namespace rpt {

/// Number of requests issued / served per time unit.
using Requests = std::uint64_t;

/// Edge length / path distance in the tree (integral, per the paper's
/// integral-weight instances; any rational instance can be scaled).
using Distance = std::uint64_t;

/// Sentinel meaning "no distance constraint" (dmax = +inf). Large enough that
/// any sum of real edge lengths stays strictly below it; tree validation
/// rejects edges >= kDistanceCap so sums cannot overflow or reach the
/// sentinel.
inline constexpr Distance kNoDistanceLimit = std::numeric_limits<Distance>::max();

/// Upper bound on a single edge length accepted by the tree builder. Keeps
/// root-to-leaf sums far away from kNoDistanceLimit even on pathological
/// depth (2^40 * 2^20 < 2^63).
inline constexpr Distance kDistanceCap = Distance{1} << 40;

/// Exception thrown on precondition violations in public API entry points.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when an internal invariant is broken (a bug in rpt).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] void ThrowInternal(const char* expr, std::source_location loc);
[[noreturn]] void ThrowInvalid(std::string message);
}  // namespace detail

/// Always-on internal invariant check (cheap checks only). Unlike assert()
/// this fires in release builds too: the exact solvers and property tests
/// rely on algorithm invariants being enforced.
#define RPT_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::rpt::detail::ThrowInternal(#expr, std::source_location::current()); \
    }                                                                       \
  } while (false)

/// Precondition check on public API arguments; throws InvalidArgument.
#define RPT_REQUIRE(expr, message)            \
  do {                                        \
    if (!(expr)) {                            \
      ::rpt::detail::ThrowInvalid((message)); \
    }                                         \
  } while (false)

/// Saturating addition for distances: adding anything to the "infinite"
/// sentinel stays infinite, and sums are capped below overflow.
[[nodiscard]] constexpr Distance SaturatingAdd(Distance a, Distance b) noexcept {
  if (a == kNoDistanceLimit || b == kNoDistanceLimit) return kNoDistanceLimit;
  const Distance sum = a + b;
  return (sum < a) ? kNoDistanceLimit : sum;
}

/// Ceiling division for positive integers; used for lower bounds ceil(R/W).
[[nodiscard]] constexpr std::uint64_t CeilDiv(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0 : (num + den - 1) / den;
}

/// Human-readable dmax label: "inf" for the no-limit sentinel. Shared by the
/// benches so group names stay consistent across their JSON reports.
[[nodiscard]] inline std::string DmaxLabel(Distance dmax) {
  return dmax == kNoDistanceLimit ? std::string("inf") : std::to_string(dmax);
}

/// Deterministic double formatting for JSON/CSV output ("%.9g"): enough
/// digits to round-trip aggregate means, same string on every run with the
/// same inputs. The one formatter behind BatchReport's JSON and any section
/// spliced into it (e.g. bench_serve's serve_qps), so the numbers in
/// one file never mix float formats.
[[nodiscard]] std::string FormatCompactDouble(double value);

}  // namespace rpt
