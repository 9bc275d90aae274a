#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "sim/scheduler.h"

namespace laps {

/// Thrown for any malformed or unknown `--scheduler` spec. The message
/// always names the offending token and lists what *would* have been valid
/// (scheduler names, or the scheduler's parameter set), so a typo on the
/// command line fails fast with the fix in the error text.
class SchedulerSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// String-spec scheduler registry — the single factory behind every
/// `--scheduler` flag, bench table, and example main.
///
/// Grammar:
///
///     spec  := name [ ':' param ( ',' param )* ]
///     param := key '=' value
///
/// e.g. `laps:afc=64,idle_th=5us,power=1`. Values are integers, decimals,
/// booleans (1/0/true/false/on/off/yes/no), or durations with an optional
/// ns/us/ms/s suffix (bare duration numbers are nanoseconds). Unknown
/// scheduler names, unknown keys, duplicate keys, and unparseable values
/// all throw SchedulerSpecError.
///
/// Registered names (see scheduler_spec_help() for the parameter sets):
///   fcfs, hash, afs, adaptive, adaptive-afd, batch, oracle, laps,
///   hash-migrate, afs-power
std::unique_ptr<Scheduler> make_scheduler(const std::string& spec);

/// All registered scheduler names, in help order.
std::vector<std::string> scheduler_names();

/// Multi-line human-readable catalog: one line per scheduler with its
/// display name and parameter set. Embedded in --help and error messages.
std::string scheduler_spec_help();

/// Wraps a spec as an experiment SchedulerSpec. `display` overrides the
/// table/artifact name; empty derives it from the instance's name() (so
/// registry-built grids keep the exact display names the hand-written
/// lambda tables produced). One instance is built at once, so a bad spec
/// fails here; the factory parses the spec as given on every call, giving
/// every job a fresh scheduler instance.
SchedulerSpec make_scheduler_spec(const std::string& spec,
                                  std::string display = "");

/// Parses a semicolon-separated spec list (semicolons, because parameter
/// lists contain commas): `fcfs;laps:afc=64;afs`. Empty segments are
/// rejected; an empty list string yields an empty vector.
std::vector<SchedulerSpec> parse_scheduler_list(const std::string& list);

}  // namespace laps
