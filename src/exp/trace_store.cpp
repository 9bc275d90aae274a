#include "exp/trace_store.h"

#include <utility>

namespace laps {

void TraceStore::register_trace(
    const std::string& name,
    std::function<std::shared_ptr<TraceSource>()> factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  registered_[name] = std::move(factory);
}

std::shared_ptr<TraceSource> TraceStore::open(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (auto reg = registered_.find(name); reg != registered_.end()) {
    const auto factory = reg->second;
    lock.unlock();  // a factory may be slow (a capture) or open traces
    return factory();
  }
  auto model = models_.find(name);
  if (model == models_.end()) {
    // make_trace throws std::out_of_range for an unknown name.
    model = models_.emplace(name, make_trace(name)).first;
  }
  return std::make_shared<SyntheticTrace>(*model->second);
}

std::function<std::shared_ptr<TraceSource>(const std::string&)>
TraceStore::factory() {
  return [this](const std::string& name) { return open(name); };
}

}  // namespace laps
