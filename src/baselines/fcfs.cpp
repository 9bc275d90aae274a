#include "baselines/fcfs.h"

namespace laps {

CoreId FcfsScheduler::schedule(const SimPacket& pkt, const NpuView& view) {
  static_cast<void>(pkt);
  const std::span<const CoreView> cores = view.cores();
  CoreId best = 0;
  std::uint32_t best_load = ~0u;
  // Start the scan at a rotating offset so equally-loaded cores share
  // traffic instead of core 0 absorbing every tie.
  bool have = false;
  std::size_t c = rr_;
  for (std::size_t i = 0; i < num_cores_; ++i, ++c) {
    if (c == num_cores_) c = 0;
    if (live_.is_down(static_cast<CoreId>(c))) continue;
    const std::uint32_t load = cores[c].load();
    if (!have || load < best_load) {
      have = true;
      best_load = load;
      best = static_cast<CoreId>(c);
      if (load == 0) break;
    }
  }
  // Every core down: any answer is a drop; the engine accounts it.
  rr_ = best + 1 == num_cores_ ? 0 : best + 1;
  return best;
}

}  // namespace laps
