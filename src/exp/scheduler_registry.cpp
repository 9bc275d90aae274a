#include "exp/scheduler_registry.h"

#include <sstream>

#include "baselines/adaptive_hash.h"
#include "baselines/afs.h"
#include "baselines/batch.h"
#include "baselines/fcfs.h"
#include "baselines/hybrids.h"
#include "baselines/oracle_topk.h"
#include "baselines/static_hash.h"
#include "core/laps.h"
#include "exp/spec_lang.h"

namespace laps {
namespace {

// The grammar machinery (spec parsing, typed parameter accessors) is shared
// with the dispatcher registry — see exp/spec_lang.h. These aliases bind it
// to this registry's error type and "scheduler" message prefix; the error
// text is byte-identical to the pre-hoist registry (asserted by
// registry_test).

using ParsedSpec = spec::ParsedSpec;

ParsedSpec parse_spec(const std::string& s) {
  return spec::parse_spec<SchedulerSpecError>(s, "scheduler");
}

class Params : public spec::Params<SchedulerSpecError> {
 public:
  Params(std::string scheduler, spec::ParamMap params)
      : spec::Params<SchedulerSpecError>("scheduler", std::move(scheduler),
                                        std::move(params)) {}
};

// ------------------------------------------------ parameters shared by kinds

AdaptiveHashScheduler::Options parse_adaptive(Params& p) {
  AdaptiveHashScheduler::Options cfg;
  cfg.period = p.get_u64("period", cfg.period);
  cfg.slack = p.get_double("slack", cfg.slack);
  cfg.max_moves_per_period = p.get_size("moves", cfg.max_moves_per_period);
  cfg.num_buckets = p.get_size("buckets", cfg.num_buckets);
  return cfg;  // caller finishes (adaptive-afd layers more keys on top)
}

void parse_afd(Params& p, AfdConfig& cfg) {
  cfg.afc_entries = p.get_size("afc", cfg.afc_entries);
  cfg.annex_entries = p.get_size("annex", cfg.annex_entries);
  cfg.promote_threshold = p.get_u64("promote", cfg.promote_threshold);
  cfg.sample_probability = p.get_double("sample", cfg.sample_probability);
  cfg.aging_period = p.get_u64("aging", cfg.aging_period);
  cfg.require_beat_afc_min = p.get_bool("beat_min", cfg.require_beat_afc_min);
}

// ---------------------------------------------------------------- registry
//
// Each entry's factory reads its parameters in a fixed order (so the first
// bad value named in an error is stable), then finish() rejects leftovers.

struct Entry {
  const char* name;
  const char* params;  // help text: parameter list (or "-")
  std::unique_ptr<Scheduler> (*make)(Params&);
};

const Entry kRegistry[] = {
    {"fcfs", "-",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       p.finish();
       return std::make_unique<FcfsScheduler>();
     }},
    {"hash", "buckets",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const std::size_t buckets = p.get_size("buckets", 0);
       p.finish();
       return std::make_unique<StaticHashScheduler>(buckets);
     }},
    {"afs", "high_th, buckets, cooldown",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const std::uint32_t high_th = p.get_u32("high_th", 24);
       const std::size_t buckets = p.get_size("buckets", 0);
       const std::uint64_t cooldown = p.get_u64("cooldown", 2048);
       p.finish();
       return std::make_unique<AfsScheduler>(high_th, buckets, cooldown);
     }},
    {"adaptive", "period, slack, moves, buckets",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const auto cfg = parse_adaptive(p);
       p.finish();
       return std::make_unique<AdaptiveHashScheduler>(cfg);
     }},
    {"adaptive-afd",
     "period, slack, moves, buckets, afc, annex, promote, sample, aging, "
     "beat_min, high_th, pins",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       CombinedAdaptiveScheduler::CombinedOptions cfg;
       cfg.adaptive = parse_adaptive(p);
       parse_afd(p, cfg.afd);
       cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
       cfg.migration_table_capacity =
           p.get_size("pins", cfg.migration_table_capacity);
       p.finish();
       return std::make_unique<CombinedAdaptiveScheduler>(cfg);
     }},
    {"batch", "batch",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const std::uint32_t batch = p.get_u32("batch", 32);
       p.finish();
       return std::make_unique<BatchScheduler>(batch);
     }},
    {"oracle", "k, high_th, refresh, buckets",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       const std::size_t k = p.get_size("k", 16);
       const std::uint32_t high_th = p.get_u32("high_th", 24);
       const std::uint64_t refresh = p.get_u64("refresh", 8192);
       const std::size_t buckets = p.get_size("buckets", 0);
       p.finish();
       return std::make_unique<OracleTopKScheduler>(k, high_th, refresh,
                                                    buckets);
     }},
    {"laps",
     "services, high_th, idle_th, pins, min_cores, power, sleep_after, "
     "wake_wm, consolidate_window, consolidate_wm, consolidate_backoff, "
     "entries, afc, annex, promote, sample, aging, beat_min",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       LapsConfig cfg;
       cfg.num_services = p.get_size("services", cfg.num_services);
       cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
       cfg.idle_th = p.get_duration("idle_th", cfg.idle_th);
       cfg.migration_table_capacity =
           p.get_size("pins", cfg.migration_table_capacity);
       cfg.min_cores_per_service =
           p.get_size("min_cores", cfg.min_cores_per_service);
       cfg.power_gating = p.get_bool("power", cfg.power_gating);
       cfg.sleep_after = p.get_duration("sleep_after", cfg.sleep_after);
       cfg.wake_watermark = p.get_u32("wake_wm", cfg.wake_watermark);
       cfg.consolidate_window =
           p.get_u64("consolidate_window", cfg.consolidate_window);
       cfg.consolidate_watermark =
           p.get_u32("consolidate_wm", cfg.consolidate_watermark);
       cfg.consolidate_backoff =
           p.get_duration("consolidate_backoff", cfg.consolidate_backoff);
       cfg.entries_per_core = p.get_size("entries", cfg.entries_per_core);
       parse_afd(p, cfg.afd);
       p.finish();
       return std::make_unique<LapsScheduler>(cfg);
     }},
    {"hash-migrate",
     "buckets, afc, annex, promote, sample, aging, beat_min, high_th, pins",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       HashMigrateScheduler::Options cfg;
       cfg.num_buckets = p.get_size("buckets", cfg.num_buckets);
       parse_afd(p, cfg.afd);
       cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
       cfg.migration_table_capacity =
           p.get_size("pins", cfg.migration_table_capacity);
       p.finish();
       return std::make_unique<HashMigrateScheduler>(cfg);
     }},
    {"afs-power",
     "high_th, buckets, cooldown, idle_th, wake_wm, sleep_after, "
     "consolidate_window, consolidate_wm, consolidate_backoff, min_unparked",
     [](Params& p) -> std::unique_ptr<Scheduler> {
       AfsPowerScheduler::Options cfg;
       cfg.high_thresh = p.get_u32("high_th", cfg.high_thresh);
       cfg.num_buckets = p.get_size("buckets", cfg.num_buckets);
       cfg.shift_cooldown = p.get_u64("cooldown", cfg.shift_cooldown);
       cfg.idle_th = p.get_duration("idle_th", cfg.idle_th);
       cfg.wake_watermark = p.get_u32("wake_wm", cfg.wake_watermark);
       cfg.power.sleep_after =
           p.get_duration("sleep_after", cfg.power.sleep_after);
       cfg.power.consolidate_window =
           p.get_u64("consolidate_window", cfg.power.consolidate_window);
       cfg.power.consolidate_watermark =
           p.get_u32("consolidate_wm", cfg.power.consolidate_watermark);
       cfg.power.consolidate_backoff =
           p.get_duration("consolidate_backoff", cfg.power.consolidate_backoff);
       cfg.power.min_unparked =
           p.get_size("min_unparked", cfg.power.min_unparked);
       p.finish();
       return std::make_unique<AfsPowerScheduler>(cfg);
     }},
};

const Entry& find_entry(const std::string& name, const std::string& spec) {
  for (const Entry& entry : kRegistry) {
    if (name == entry.name) return entry;
  }
  std::ostringstream msg;
  msg << "unknown scheduler '" << name << "' in spec '" << spec
      << "'; valid schedulers:";
  for (const Entry& entry : kRegistry) msg << ' ' << entry.name;
  throw SchedulerSpecError(msg.str());
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& spec) {
  ParsedSpec parsed = parse_spec(spec);
  const Entry& entry = find_entry(parsed.name, spec);
  Params params(parsed.name, std::move(parsed.params));
  return entry.make(params);
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

std::string scheduler_spec_help() {
  std::ostringstream out;
  out << "scheduler specs: name[:key=value,...]  (durations take ns/us/ms/s "
         "suffixes)\n";
  for (const Entry& entry : kRegistry) {
    // A throwaway instance supplies the display name shown in tables.
    Params probe(entry.name, {});
    const auto instance = entry.make(probe);
    out << "  " << entry.name << " (" << instance->name()
        << "): " << entry.params << "\n";
  }
  return out.str();
}

SchedulerSpec make_scheduler_spec(const std::string& spec,
                                  std::string display) {
  // Build one instance now, so a bad spec fails at table-build time, not
  // mid-grid on a worker thread; it also supplies the display name.
  const auto instance = make_scheduler(spec);
  if (display.empty()) display = instance->name();
  return SchedulerSpec{
      std::move(display),
      [spec]() { return make_scheduler(spec); },
  };
}

std::vector<SchedulerSpec> parse_scheduler_list(const std::string& list) {
  std::vector<SchedulerSpec> specs;
  if (list.empty()) return specs;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t semi = list.find(';', pos);
    if (semi == std::string::npos) semi = list.size();
    const std::string spec = list.substr(pos, semi - pos);
    if (spec.empty()) {
      throw SchedulerSpecError(
          "empty scheduler spec in list '" + list +
          "' (specs are separated by ';', e.g. 'fcfs;laps:afc=64')");
    }
    specs.push_back(make_scheduler_spec(spec));
    pos = semi + 1;
  }
  return specs;
}

}  // namespace laps
