#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/scheduler.h"
#include "util/time.h"

namespace laps {

/// Dynamic core-to-service ownership with the paper's surplus-core protocol
/// (Sec. III-C/III-D):
///
///  * at initialization cores are divided equally among services;
///  * a core idle for `idle_th` is *marked surplus* but stays allocated to
///    its service (cheap to reclaim — no context switch);
///  * a service that runs out of capacity requests a core; the allocator
///    grants the core that has been surplus the longest ("least utility for
///    the victim service"), never starving a service below `min_cores`.
class CoreAllocator {
 public:
  /// `num_cores` cores split contiguously and as evenly as possible among
  /// `num_services` services. Requires num_cores >= num_services so every
  /// service starts with at least one core.
  CoreAllocator(std::size_t num_cores, std::size_t num_services,
                std::size_t min_cores = 1);

  /// Owning service of a core.
  std::size_t owner(CoreId core) const { return owner_.at(core); }

  /// Cores currently owned by a service, in grant order.
  const std::vector<CoreId>& cores_of(std::size_t service) const {
    return cores_of_.at(service);
  }

  /// Marks a core surplus at `now`; no-op if already marked. Must be owned.
  void mark_surplus(CoreId core, TimeNs now);

  /// Clears a surplus mark (the owning service touched the core again).
  /// No-op if not marked. Returns true if a mark was cleared.
  bool unmark_surplus(CoreId core) {
    if (surplus_flag_[core] == 0) return false;
    drop_surplus(core);
    return true;
  }

  bool is_surplus(CoreId core) const { return surplus_flag_.at(core) != 0; }

  /// Number of cores currently marked surplus.
  std::size_t surplus_count() const { return surplus_.size(); }

  /// Grants `service` the longest-surplus core owned by a *different*
  /// service whose owner would keep at least `min_cores` cores. Transfers
  /// ownership and clears the mark. Returns nullopt when no eligible core
  /// exists — the paper's "all cores overloaded" case, where packets simply
  /// keep dropping until traffic subsides.
  std::optional<CoreId> grant_core(std::size_t service);

  std::size_t num_cores() const { return owner_.size(); }
  std::size_t num_services() const { return cores_of_.size(); }

  /// Total ownership transfers so far (reported as reallocations).
  std::uint64_t transfers() const { return transfers_; }

  /// Marks a core failed: it keeps its owner (so recovery restores the
  /// allocation) but stops being grantable and loses any surplus mark.
  /// Fault-injection only; no-op if already offline.
  void set_offline(CoreId core);

  /// Clears the failed mark. No-op if online.
  void set_online(CoreId core);

  bool is_offline(CoreId core) const { return offline_.at(core) != 0; }

  /// Cores of `service` that are not offline — the capacity it can
  /// actually run packets on.
  std::size_t online_of(std::size_t service) const;

  /// Emergency grant for fault recovery: when a dead core must be replaced
  /// and no surplus donor exists, takes an online core from the service
  /// with the most online cores (which must keep at least one). Unlike
  /// grant_core this may take a busy, never-surplus core and may dip below
  /// min_cores — losing a core beats black-holing a service's traffic.
  /// Returns nullopt only when no other service has two online cores.
  std::optional<CoreId> grant_any(std::size_t service);

 private:
  struct Surplus {
    CoreId core;
    TimeNs since;
  };

  /// Removes a marked core from the surplus pool.
  void drop_surplus(CoreId core);

  std::vector<std::size_t> owner_;
  std::vector<std::vector<CoreId>> cores_of_;
  // Marked cores in marking order (grants scan it for the longest-marked
  // eligible core); surplus_flag_ answers the per-packet "is this core
  // marked" without the scan.
  std::vector<Surplus> surplus_;
  std::vector<std::uint8_t> surplus_flag_;
  std::vector<std::uint8_t> offline_;
  std::size_t min_cores_;
  std::uint64_t transfers_ = 0;
};

}  // namespace laps
