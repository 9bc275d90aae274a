#include "util/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace laps {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + value + "'");
}

/// strtoll/strtod skip leading blanks, stop at the first character they
/// cannot read and flag an out-of-range value in errno; a flag value must
/// be read whole, with nothing around it, and in range.
bool read_whole(const std::string& value, const char* end) {
  return !value.empty() &&
         !std::isspace(static_cast<unsigned char>(value.front())) &&
         end == value.c_str() + value.size() && errno != ERANGE;
}

std::int64_t parse_int(const std::string& name, const std::string& value,
                       const char* expected) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 0);
  if (!read_whole(value, end)) bad_value(name, value, expected);
  return v;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      stray_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    // Bare `--name` is boolean true. Values always use `--name=value`, so a
    // flag never swallows the argument after it.
    const auto eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    // A second value would silently replace the first.
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("--" + name +
                                  " given more than once; give it once");
    }
  }
}

std::string Flags::get_string(const std::string& name, const std::string& def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return parse_int(name, it->second, "an integer");
}

std::uint64_t Flags::get_uint(const std::string& name, std::uint64_t def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  constexpr const char* kExpected = "a non-negative integer";
  const std::int64_t v = parse_int(name, it->second, kExpected);
  if (v < 0) bad_value(name, it->second, kExpected);
  return static_cast<std::uint64_t>(v);
}

double Flags::get_double(const std::string& name, double def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (!read_whole(value, end) || !std::isfinite(v)) {
    bad_value(name, value, "a finite number");
  }
  return v;
}

bool Flags::get_bool(const std::string& name, bool def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_value(name, v, "true/false, 1/0, yes/no or on/off");
}

std::vector<std::string> Flags::get_list(
    const std::string& name, const std::string& def,
    const std::vector<std::string>& valid) {
  const std::string value = get_string(name, def);
  if (value == "all") return valid;
  auto reject = [&](const std::string& why) {
    std::string msg = "--" + name + ": " + why + "; valid:";
    for (const std::string& v : valid) msg += " " + v;
    throw std::invalid_argument(msg + " (or all)");
  };
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (std::find(valid.begin(), valid.end(), item) == valid.end()) {
      reject("unknown value '" + item + "'");
    }
    out.push_back(item);
  }
  if (out.empty()) reject("empty list");
  return out;
}

void Flags::finish() const {
  std::string unknown;
  for (const auto& [name, _] : values_) {
    if (!consumed_.count(name)) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (!unknown.empty()) {
    throw std::runtime_error("unknown flag(s): " + unknown);
  }
  if (!stray_.empty()) {
    std::string stray;
    for (const std::string& arg : stray_) {
      if (!stray.empty()) stray += ", ";
      stray += "'" + arg + "'";
    }
    throw std::runtime_error("stray argument(s): " + stray +
                             "; flags take the form --name=value");
  }
}

}  // namespace laps
