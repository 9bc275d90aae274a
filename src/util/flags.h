#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace laps {

/// Minimal command-line flag parser for the bench/example binaries.
///
/// Accepts `--name=value` and boolean `--name`. Unknown
/// flags are an error (typos in experiment parameters should fail loudly,
/// not silently run the default), and so is a value its getter cannot read
/// whole: the getters throw std::invalid_argument naming the flag and the
/// value. A flag given twice throws at construction, naming it, instead of
/// keeping one of the values. No binary reads an argument that is not a
/// flag, so finish() rejects any argument that does not start with `--` (a
/// bare `seconds=0.5`, a single-dash `-jobs=4`).
///
///   Flags flags(argc, argv);
///   const double secs  = flags.get_double("seconds", 2.0);
///   const bool   full  = flags.get_bool("full", false);
///   flags.finish();  // rejects unconsumed (unknown) flags
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// String flag with default.
  std::string get_string(const std::string& name, const std::string& def);
  /// Integer flag with default (accepts decimal and 0x hex).
  std::int64_t get_int(const std::string& name, std::int64_t def);
  /// Non-negative integer flag with default (a count, size or seed);
  /// rejects a negative value instead of wrapping it.
  std::uint64_t get_uint(const std::string& name, std::uint64_t def);
  /// Finite floating-point flag with default.
  double get_double(const std::string& name, double def);
  /// Boolean flag: `--name`, `--name=true/false/1/0/yes/no/on/off`.
  /// Default `def`.
  bool get_bool(const std::string& name, bool def);
  /// Comma-separated list of names drawn from `valid` (`--traces=a,b`):
  /// "all" expands to `valid`, the given order is kept and empty items are
  /// skipped. An unknown name throws std::invalid_argument naming it and
  /// listing `valid`, and so does a list that names nothing, so a typo
  /// fails before any work starts.
  std::vector<std::string> get_list(const std::string& name,
                                    const std::string& def,
                                    const std::vector<std::string>& valid);

  /// True if the flag appeared on the command line.
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Every flag given, by name, with its value ("" for a bare `--name`).
  const std::map<std::string, std::string>& values() const { return values_; }

  /// Throws std::runtime_error listing any flag that was given but never
  /// consumed by a get_*() call — i.e., a typo — or, failing that, every
  /// argument that is not a flag.
  void finish() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> stray_;  ///< arguments without a leading `--`
};

}  // namespace laps
