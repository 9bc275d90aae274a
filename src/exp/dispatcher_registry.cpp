#include "exp/dispatcher_registry.h"

#include <sstream>

#include "cluster/dispatchers.h"
#include "exp/spec_lang.h"

namespace laps {
namespace {

using ParsedSpec = spec::ParsedSpec;

ParsedSpec parse_spec(const std::string& s) {
  return spec::parse_spec<DispatcherSpecError>(s, "dispatcher");
}

class Params : public spec::Params<DispatcherSpecError> {
 public:
  Params(std::string dispatcher, spec::ParamMap params)
      : spec::Params<DispatcherSpecError>("dispatcher",
                                         std::move(dispatcher),
                                         std::move(params)) {}
};

struct Entry {
  const char* name;
  std::unique_ptr<Dispatcher> (*make)(Params&);
};

const Entry kRegistry[] = {
    {"pass",
     [](Params& p) -> std::unique_ptr<Dispatcher> {
       const std::uint32_t shard = p.get_u32("shard", 0);
       p.finish();
       return std::make_unique<PassDispatcher>(shard);
     }},
    {"rr",
     [](Params& p) -> std::unique_ptr<Dispatcher> {
       p.finish();
       return std::make_unique<RoundRobinDispatcher>();
     }},
    {"rss",
     [](Params& p) -> std::unique_ptr<Dispatcher> {
       p.finish();
       return std::make_unique<RssDispatcher>();
     }},
    {"fdir",
     [](Params& p) -> std::unique_ptr<Dispatcher> {
       const std::size_t slots = p.get_size("slots", 4096);
       if (slots == 0) {
         throw DispatcherSpecError(
             "dispatcher 'fdir': parameter 'slots' must be positive");
       }
       p.finish();
       return std::make_unique<FlowDirectorDispatcher>(slots);
     }},
    {"affinity",
     [](Params& p) -> std::unique_ptr<Dispatcher> {
       const std::uint64_t th = p.get_u64("th", 32);
       const bool drain = p.get_bool("drain", true);
       p.finish();
       return std::make_unique<AffinityDispatcher>(th, drain);
     }},
    {"load",
     [](Params& p) -> std::unique_ptr<Dispatcher> {
       const std::uint64_t th = p.get_u64("th", 32);
       p.finish();
       return std::make_unique<LeastLoadedDispatcher>(th);
     }},
};

const Entry& find_entry(const std::string& name, const std::string& spec) {
  for (const Entry& entry : kRegistry) {
    if (name == entry.name) return entry;
  }
  std::ostringstream msg;
  msg << "unknown dispatcher '" << name << "' in spec '" << spec
      << "'; valid dispatchers:";
  for (const Entry& entry : kRegistry) msg << ' ' << entry.name;
  throw DispatcherSpecError(msg.str());
}

}  // namespace

std::unique_ptr<Dispatcher> make_dispatcher(const std::string& spec) {
  ParsedSpec parsed = parse_spec(spec);
  const Entry& entry = find_entry(parsed.name, spec);
  Params params(parsed.name, std::move(parsed.params));
  return entry.make(params);
}

std::vector<std::string> dispatcher_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

DispatcherSpec make_dispatcher_spec(const std::string& spec,
                                    std::string display) {
  // Build one instance now, so a bad spec fails at table-build time, not
  // mid-grid; it also supplies the display name.
  const auto instance = make_dispatcher(spec);
  if (display.empty()) display = instance->name();
  return DispatcherSpec{
      std::move(display),
      [spec]() { return make_dispatcher(spec); },
  };
}

std::vector<DispatcherSpec> parse_dispatcher_list(const std::string& list) {
  std::vector<DispatcherSpec> specs;
  if (list.empty()) return specs;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t semi = list.find(';', pos);
    if (semi == std::string::npos) semi = list.size();
    const std::string spec = list.substr(pos, semi - pos);
    if (spec.empty()) {
      throw DispatcherSpecError(
          "empty dispatcher spec in list '" + list +
          "' (specs are separated by ';', e.g. 'rss;fdir:slots=512')");
    }
    specs.push_back(make_dispatcher_spec(spec));
    pos = semi + 1;
  }
  return specs;
}

}  // namespace laps
