#include "util/flags.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace laps {

Flags::Flags(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      // Bare `--name` is boolean true. Values always use `--name=value` so
      // a flag can never accidentally swallow a positional argument.
      values_[arg] = "";
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
  return std::strtoll(it->second.c_str(), nullptr, 0);
}

double Flags::get_double(const std::string& name, double def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool def) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return v.empty() || v == "1" || v == "true" || v == "yes" || v == "on";
}

std::vector<std::string> Flags::get_list(
    const std::string& name, const std::string& def,
    const std::vector<std::string>& valid) {
  const std::string value = get_string(name, def);
  if (value == "all") return valid;
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (std::find(valid.begin(), valid.end(), item) == valid.end()) {
      std::string msg = "--" + name + ": unknown value '" + item + "'; valid:";
      for (const std::string& v : valid) msg += " " + v;
      throw std::invalid_argument(msg + " (or all)");
    }
    out.push_back(item);
  }
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
}

}  // namespace laps
