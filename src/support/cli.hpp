// Tiny command-line flag parser for example/bench binaries.
//
// Supports --name=value and --name value forms plus boolean switches.
// Unknown flags raise InvalidArgument so typos fail loudly.
//
// Ownership: a Cli owns its declared flags and parsed values; accessors
// return copies. Thread-safety: none — declare, Parse(), and read from the
// main thread before spawning workers (every binary here does exactly
// that). Determinism: parsing is a pure function of argv; GetUint rejects
// negative values instead of wrapping them into ~2^64, so flag misuse fails
// loudly rather than silently changing workloads.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rpt {

/// Parsed command line. Declare flags up front with defaults, then Parse().
class Cli {
 public:
  /// binary_name is used in the --help text.
  Cli(std::string binary_name, std::string description);

  /// Declares an integer flag with a default value.
  void AddInt(const std::string& name, std::int64_t default_value, const std::string& help);

  /// Declares a string flag with a default value.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);

  /// Declares a boolean switch (false unless present or given =true/=false).
  void AddBool(const std::string& name, bool default_value, const std::string& help);

  /// Parses argv. Returns false if --help was requested (help printed).
  /// Throws InvalidArgument on unknown flags or malformed values.
  [[nodiscard]] bool Parse(int argc, const char* const* argv);

  /// Typed accessors; flag must have been declared with the matching type.
  [[nodiscard]] std::int64_t GetInt(const std::string& name) const;
  [[nodiscard]] std::string GetString(const std::string& name) const;
  [[nodiscard]] bool GetBool(const std::string& name) const;

  /// Reads an integer flag that must be non-negative (and at most
  /// `max_value`); throws InvalidArgument with a clear message otherwise.
  /// Use this instead of casting GetInt() to an unsigned type — the cast
  /// silently turns `--seeds -1` into ~2^64.
  [[nodiscard]] std::uint64_t GetUint(
      const std::string& name,
      std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max()) const;

 private:
  enum class Kind { kInt, kString, kBool };
  struct Flag {
    Kind kind;
    std::string value;
    std::string help;
  };
  const Flag& Find(const std::string& name, Kind kind) const;
  void PrintHelp() const;

  std::string binary_name_;
  std::string description_;
  std::map<std::string, Flag> flags_;
};

/// Shared flags of every BatchRunner-backed binary.
struct BatchFlags {
  std::size_t threads = 0;  ///< worker threads; 0 = hardware concurrency
  std::size_t seeds = 0;    ///< seeds (cells) per sweep configuration
};

/// Declares the standard --threads / --seeds flags on a Cli.
void AddBatchFlags(Cli& cli, std::int64_t default_seeds = 50);

/// Declares --seeds alone, for benches whose cells run on one batch worker.
void AddSeedsFlag(Cli& cli, std::int64_t default_seeds);

/// Reads --seeds; throws InvalidArgument unless it is positive.
[[nodiscard]] std::size_t GetSeedsFlag(const Cli& cli);

/// Reads the flags declared by AddBatchFlags; throws InvalidArgument when
/// --threads is negative or --seeds is not positive.
[[nodiscard]] BatchFlags GetBatchFlags(const Cli& cli);

}  // namespace rpt
