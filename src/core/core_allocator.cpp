#include "core/core_allocator.h"

#include <algorithm>
#include <stdexcept>

namespace laps {

CoreAllocator::CoreAllocator(std::size_t num_cores, std::size_t num_services,
                             std::size_t min_cores)
    : min_cores_(min_cores) {
  if (num_services == 0) {
    throw std::invalid_argument("CoreAllocator: no services");
  }
  if (num_cores < num_services) {
    throw std::invalid_argument("CoreAllocator: fewer cores than services");
  }
  if (min_cores == 0) {
    throw std::invalid_argument("CoreAllocator: min_cores must be >= 1");
  }
  owner_.resize(num_cores);
  cores_of_.resize(num_services);
  // Reserved up front so marking, unmarking and core transfers never
  // allocate on the scheduler's per-packet path.
  for (auto& cores : cores_of_) cores.reserve(num_cores);
  surplus_.reserve(num_cores);
  surplus_flag_.assign(num_cores, 0);
  offline_.assign(num_cores, 0);
  // Contiguous, as-even-as-possible split (16/4 -> 4 each, the paper's
  // "at initialization, cores are equally divided among services").
  for (std::size_t c = 0; c < num_cores; ++c) {
    const std::size_t service = c * num_services / num_cores;
    owner_[c] = service;
    cores_of_[service].push_back(static_cast<CoreId>(c));
  }
}

void CoreAllocator::mark_surplus(CoreId core, TimeNs now) {
  if (core >= owner_.size()) {
    throw std::out_of_range("CoreAllocator: bad core id");
  }
  if (offline_[core] != 0) return;  // a dead core has no spare capacity
  if (surplus_flag_[core] != 0) return;
  surplus_.push_back(Surplus{core, now});
  surplus_flag_[core] = 1;
}

void CoreAllocator::drop_surplus(CoreId core) {
  surplus_.erase(std::find_if(
      surplus_.begin(), surplus_.end(),
      [core](const Surplus& s) { return s.core == core; }));
  surplus_flag_[core] = 0;
}

std::optional<CoreId> CoreAllocator::grant_core(std::size_t service) {
  if (service >= cores_of_.size()) {
    throw std::out_of_range("CoreAllocator: bad service id");
  }
  // Longest-marked eligible core: marked earliest, owned by another
  // service, and its owner keeps at least min_cores cores after donating.
  auto best = surplus_.end();
  for (auto it = surplus_.begin(); it != surplus_.end(); ++it) {
    const std::size_t victim = owner_[it->core];
    if (victim == service) continue;
    // Victim viability counts *online* cores: a service whose spare cores
    // are all dead is not a donor. Identical to size() with no faults.
    if (online_of(victim) <= min_cores_) continue;
    if (best == surplus_.end() || it->since < best->since) best = it;
  }
  if (best == surplus_.end()) return std::nullopt;

  const CoreId core = best->core;
  surplus_.erase(best);
  surplus_flag_[core] = 0;
  const std::size_t victim = owner_[core];
  auto& victim_cores = cores_of_[victim];
  victim_cores.erase(std::find(victim_cores.begin(), victim_cores.end(), core));
  owner_[core] = service;
  cores_of_[service].push_back(core);
  ++transfers_;
  return core;
}

void CoreAllocator::set_offline(CoreId core) {
  if (core >= owner_.size()) {
    throw std::out_of_range("CoreAllocator: bad core id");
  }
  if (offline_[core] != 0) return;
  offline_[core] = 1;
  unmark_surplus(core);
}

void CoreAllocator::set_online(CoreId core) {
  if (core >= owner_.size()) {
    throw std::out_of_range("CoreAllocator: bad core id");
  }
  offline_[core] = 0;
}

std::size_t CoreAllocator::online_of(std::size_t service) const {
  std::size_t n = 0;
  for (const CoreId c : cores_of_.at(service)) n += offline_[c] == 0 ? 1 : 0;
  return n;
}

std::optional<CoreId> CoreAllocator::grant_any(std::size_t service) {
  if (service >= cores_of_.size()) {
    throw std::out_of_range("CoreAllocator: bad service id");
  }
  // Donor: the other service with the most online cores, required to keep
  // at least one so the theft never black-holes the donor instead.
  std::size_t donor = cores_of_.size();
  std::size_t donor_online = 1;
  for (std::size_t s = 0; s < cores_of_.size(); ++s) {
    if (s == service) continue;
    const std::size_t online = online_of(s);
    if (online > donor_online) {
      donor = s;
      donor_online = online;
    }
  }
  if (donor == cores_of_.size()) return std::nullopt;

  // Prefer a surplus (idle) core of the donor; otherwise its most recently
  // granted online core.
  CoreId core = owner_.size();
  for (const Surplus& s : surplus_) {
    if (owner_[s.core] == donor) {
      core = s.core;
      break;
    }
  }
  if (core == owner_.size()) {
    const auto& donor_cores = cores_of_[donor];
    for (auto it = donor_cores.rbegin(); it != donor_cores.rend(); ++it) {
      if (offline_[*it] == 0) {
        core = *it;
        break;
      }
    }
  }
  unmark_surplus(core);
  auto& donor_cores = cores_of_[donor];
  donor_cores.erase(std::find(donor_cores.begin(), donor_cores.end(), core));
  owner_[core] = service;
  cores_of_[service].push_back(core);
  ++transfers_;
  return core;
}

}  // namespace laps
