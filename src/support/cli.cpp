#include "support/cli.hpp"

#include <charconv>
#include <cstdio>

#include "support/common.hpp"

namespace rpt {

Cli::Cli(std::string binary_name, std::string description)
    : binary_name_(std::move(binary_name)), description_(std::move(description)) {}

void Cli::AddInt(const std::string& name, std::int64_t default_value, const std::string& help) {
  flags_[name] = Flag{Kind::kInt, std::to_string(default_value), help};
}

void Cli::AddString(const std::string& name, const std::string& default_value,
                    const std::string& help) {
  flags_[name] = Flag{Kind::kString, default_value, help};
}

void Cli::AddBool(const std::string& name, bool default_value, const std::string& help) {
  flags_[name] = Flag{Kind::kBool, default_value ? "true" : "false", help};
}

bool Cli::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return false;
    }
    RPT_REQUIRE(arg.rfind("--", 0) == 0, "Cli: expected --flag, got: " + arg);
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    RPT_REQUIRE(it != flags_.end(), "Cli: unknown flag --" + name);
    Flag& flag = it->second;
    if (!value.has_value()) {
      if (flag.kind == Kind::kBool) {
        value = "true";
      } else {
        RPT_REQUIRE(i + 1 < argc, "Cli: flag --" + name + " requires a value");
        value = argv[++i];
      }
    }
    if (flag.kind == Kind::kInt) {
      std::int64_t parsed = 0;
      const char* begin = value->data();
      const char* end = begin + value->size();
      const auto [ptr, ec] = std::from_chars(begin, end, parsed);
      RPT_REQUIRE(ec == std::errc{} && ptr == end, "Cli: flag --" + name + " expects an integer");
      flag.value = std::to_string(parsed);
    } else if (flag.kind == Kind::kBool) {
      RPT_REQUIRE(*value == "true" || *value == "false",
                  "Cli: flag --" + name + " expects true/false");
      flag.value = *value;
    } else {
      flag.value = *value;
    }
  }
  return true;
}

const Cli::Flag& Cli::Find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  RPT_REQUIRE(it != flags_.end(), "Cli: flag not declared: " + name);
  RPT_REQUIRE(it->second.kind == kind, "Cli: flag type mismatch: " + name);
  return it->second;
}

std::int64_t Cli::GetInt(const std::string& name) const {
  return std::stoll(Find(name, Kind::kInt).value);
}

std::string Cli::GetString(const std::string& name) const {
  return Find(name, Kind::kString).value;
}

bool Cli::GetBool(const std::string& name) const { return Find(name, Kind::kBool).value == "true"; }

std::uint64_t Cli::GetUint(const std::string& name, std::uint64_t max_value) const {
  const std::int64_t value = GetInt(name);
  RPT_REQUIRE(value >= 0,
              "Cli: flag --" + name + " must be >= 0, got " + std::to_string(value));
  RPT_REQUIRE(static_cast<std::uint64_t>(value) <= max_value,
              "Cli: flag --" + name + " must be <= " + std::to_string(max_value) + ", got " +
                  std::to_string(value));
  return static_cast<std::uint64_t>(value);
}

void AddBatchFlags(Cli& cli, std::int64_t default_seeds) {
  cli.AddInt("threads", 0, "worker threads for the batch engine; 0 = hardware concurrency");
  AddSeedsFlag(cli, default_seeds);
}

void AddSeedsFlag(Cli& cli, std::int64_t default_seeds) {
  cli.AddInt("seeds", default_seeds, "seeds (instances) per sweep configuration");
}

std::size_t GetSeedsFlag(const Cli& cli) {
  const std::uint64_t seeds = cli.GetUint("seeds");
  RPT_REQUIRE(seeds > 0, "Cli: --seeds must be > 0");
  return static_cast<std::size_t>(seeds);
}

BatchFlags GetBatchFlags(const Cli& cli) {
  const std::uint64_t threads = cli.GetUint("threads");
  return BatchFlags{static_cast<std::size_t>(threads), GetSeedsFlag(cli)};
}

void Cli::PrintHelp() const {
  std::printf("%s — %s\n\nFlags:\n", binary_name_.c_str(), description_.c_str());
  for (const auto& [name, flag] : flags_) {
    std::printf("  --%-24s %s (default: %s)\n", name.c_str(), flag.help.c_str(),
                flag.value.c_str());
  }
}

}  // namespace rpt
