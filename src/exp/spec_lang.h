#pragma once

// Shared grammar machinery behind the string-spec registries: the scheduler
// registry (--scheduler, exp/scheduler_registry.h) and the dispatcher
// registry (--dispatch, exp/dispatcher_registry.h). Both speak the same
// `name[:key=value,...]` grammar with the same fail-fast error contract
// (unknown names/parameters rejected listing the valid set). Hoisting the
// parser and the typed parameter accessors here keeps the registries
// structurally incapable of diverging on grammar or error style.
//
// Everything error-throwing is templated on the registry's exception type
// and takes the registry's `kind` word ("scheduler", "dispatcher") so the
// messages read exactly as each registry's callers expect — the scheduler
// registry's errors stayed byte-identical through the hoist (asserted by
// registry_test).

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "util/duration.h"
#include "util/time.h"

namespace laps::spec {

using ParamMap = std::map<std::string, std::string>;

struct ParsedSpec {
  std::string name;
  ParamMap params;
};

/// Splits `name[:key=value,...]` into name + parameter map. Throws Error on
/// an empty name, a malformed `key=value` token, or a duplicate key.
template <typename Error>
ParsedSpec parse_spec(const std::string& spec, const char* kind) {
  ParsedSpec out;
  const std::size_t colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (out.name.empty()) {
    throw Error("empty " + std::string(kind) + " name in spec '" + spec +
                "'");
  }
  if (colon == std::string::npos) return out;

  const std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    std::size_t comma = rest.find(',', pos);
    if (comma == std::string::npos) comma = rest.size();
    const std::string token = rest.substr(pos, comma - pos);
    const std::size_t eq = token.find('=');
    if (token.empty() || eq == 0 || eq == std::string::npos) {
      throw Error("malformed parameter '" + token + "' in spec '" + spec +
                  "' (expected key=value)");
    }
    const std::string key = token.substr(0, eq);
    if (!out.params.emplace(key, token.substr(eq + 1)).second) {
      throw Error("duplicate parameter '" + key + "' in spec '" + spec +
                  "'");
    }
    pos = comma + 1;
  }
  return out;
}

template <typename Error>
std::uint64_t parse_u64(const char* kind, const std::string& name,
                        const std::string& key, const std::string& value) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw Error(std::string(kind) + " '" + name + "': parameter '" + key +
                "' wants a non-negative integer, got '" + value + "'");
  }
  return parsed;
}

template <typename Error>
double parse_double(const char* kind, const std::string& name,
                    const std::string& key, const std::string& value) {
  double parsed = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw Error(std::string(kind) + " '" + name + "': parameter '" + key +
                "' wants a number, got '" + value + "'");
  }
  if (!std::isfinite(parsed)) {
    throw Error(std::string(kind) + " '" + name + "': parameter '" + key +
                "' wants a finite number, got '" + value + "'");
  }
  return parsed;
}

template <typename Error>
bool parse_bool(const char* kind, const std::string& name,
                const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "0" || value == "false" || value == "off" || value == "no") {
    return false;
  }
  throw Error(std::string(kind) + " '" + name + "': parameter '" + key +
              "' wants a boolean (1/0/true/false), got '" + value + "'");
}

template <typename Error>
TimeNs parse_duration(const char* kind, const std::string& name,
                      const std::string& key, const std::string& value) {
  // The suffix grammar lives in util::parse_duration (shared with the
  // harness --telemetry flag); only the exception type is ours.
  try {
    return util::parse_duration(
        std::string(kind) + " '" + name + "': parameter '" + key + "'",
        value);
  } catch (const std::invalid_argument& e) {
    throw Error(e.what());
  }
}

/// Typed accessors over a parsed parameter map. Every key the entry
/// understands is consumed by a getter; finish() then rejects leftovers,
/// listing the full valid set — the fail-fast contract for typos.
template <typename Error>
class Params {
 public:
  Params(const char* kind, std::string name, ParamMap params)
      : kind_(kind), name_(std::move(name)), params_(std::move(params)) {}

  std::uint64_t get_u64(const char* key, std::uint64_t def) {
    const std::string* v = consume(key);
    return v ? parse_u64<Error>(kind_, name_, key, *v) : def;
  }
  std::size_t get_size(const char* key, std::size_t def) {
    return static_cast<std::size_t>(get_u64(key, def));
  }
  std::uint32_t get_u32(const char* key, std::uint32_t def) {
    const std::uint64_t v = get_u64(key, def);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw Error(std::string(kind_) + " '" + name_ + "': parameter '" + key +
                  "' wants an integer <= 4294967295, got '" +
                  std::to_string(v) + "'");
    }
    return static_cast<std::uint32_t>(v);
  }
  double get_double(const char* key, double def) {
    const std::string* v = consume(key);
    return v ? parse_double<Error>(kind_, name_, key, *v) : def;
  }
  bool get_bool(const char* key, bool def) {
    const std::string* v = consume(key);
    return v ? parse_bool<Error>(kind_, name_, key, *v) : def;
  }
  TimeNs get_duration(const char* key, TimeNs def) {
    const std::string* v = consume(key);
    return v ? parse_duration<Error>(kind_, name_, key, *v) : def;
  }

  /// Rejects a given value that parsed but is out of range, e.g.
  /// `reject("sample", "a probability in [0, 1]")`.
  [[noreturn]] void reject(const char* key, const std::string& want) const {
    const auto it = params_.find(key);
    throw Error(std::string(kind_) + " '" + name_ + "': parameter '" + key +
                "' wants " + want + ", got '" +
                (it == params_.end() ? std::string() : it->second) + "'");
  }

  /// Rejects any parameter no getter asked for.
  void finish() const {
    for (const auto& [key, value] : params_) {
      if (known_.count(key) != 0) continue;
      std::ostringstream msg;
      msg << kind_ << " '" << name_ << "': unknown parameter '" << key
          << "'; valid parameters:";
      if (known_.empty()) {
        msg << " (none)";
      } else {
        for (const std::string& k : known_) msg << ' ' << k;
      }
      throw Error(msg.str());
    }
  }

 private:
  const std::string* consume(const char* key) {
    known_.insert(key);
    const auto it = params_.find(key);
    return it == params_.end() ? nullptr : &it->second;
  }

  const char* kind_;
  std::string name_;
  ParamMap params_;
  std::set<std::string> known_;  // ordered, so error text is stable
};

}  // namespace laps::spec
