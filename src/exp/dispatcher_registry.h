#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"

namespace laps {

/// Thrown for any malformed or unknown `--dispatch` spec. Same fail-fast
/// contract as SchedulerSpecError: the message names the offending token
/// and lists what *would* have been valid.
class DispatcherSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// String-spec dispatcher registry — the factory behind the `--dispatch`
/// flag and the cluster bench grids. Speaks the same grammar as the
/// scheduler registry (the machinery is literally shared: exp/spec_lang.h):
///
///     spec  := name [ ':' param ( ',' param )* ]
///     param := key '=' value
///
/// Registered names (an unknown-parameter error lists a dispatcher's
/// parameter set):
///   pass     — everything to one shard (`shard=K`); the shards=1
///              identity front end
///   rr       — packet-level round robin (reorder-maximizing baseline)
///   rss      — Toeplitz-hash receive-side scaling (flows never move)
///   fdir     — Flow Director signature table (`slots=4096`): collisions
///              evict and re-insert on the least-loaded shard
///   affinity — A-TFN-style flow affinity (`th=32,drain=1`): migrate an
///              overloaded flow only when it has nothing in flight
///   load     — least-loaded with immediate migration (`th=32`)
std::unique_ptr<Dispatcher> make_dispatcher(const std::string& spec);

/// All registered dispatcher names, in registry order.
std::vector<std::string> dispatcher_names();

/// A named dispatcher factory for grid tables: `display` is the row label
/// (empty derives it from the instance's name()); `make` yields a fresh
/// instance per run.
struct DispatcherSpec {
  std::string display;
  std::function<std::unique_ptr<Dispatcher>()> make;
};

/// Wraps a spec as a DispatcherSpec. One instance is built at once, so a
/// bad spec fails at table-build time; the factory parses the spec as given
/// on every call.
DispatcherSpec make_dispatcher_spec(const std::string& spec,
                                    std::string display = "");

/// Parses a semicolon-separated spec list: `rss;fdir:slots=512;affinity`.
/// Empty segments are rejected; an empty list string yields an empty
/// vector.
std::vector<DispatcherSpec> parse_dispatcher_list(const std::string& list);

}  // namespace laps
