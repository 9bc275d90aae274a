#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "trace/packet_record.h"
#include "trace/synthetic.h"

namespace laps {

/// Opens named traces for the jobs of an experiment plan, building each
/// registry trace's model once.
///
/// Every run reads its traces from the first record (packet headers come
/// from the trace, arrival times from the Holt-Winters model), and a
/// synthetic trace's records are cheap to generate again once its Zipf
/// table exists. So the store keeps one unread SyntheticTrace per registry
/// name, and every `open` returns a fresh copy of it: the copies share the
/// Zipf table and each generates its own records. Thread-safe.
class TraceStore {
 public:
  /// A fresh stream over the named trace: a name registered with
  /// `register_trace` (its factory is called on every open), else a
  /// registry name (throws std::out_of_range for an unknown one).
  std::shared_ptr<TraceSource> open(const std::string& name);

  /// Adds a custom source factory under `name` (tests, pcap files).
  void register_trace(const std::string& name,
                      std::function<std::shared_ptr<TraceSource>()> factory);

  /// Adapter for ScenarioOptions::trace_factory.
  std::function<std::shared_ptr<TraceSource>(const std::string&)> factory();

 private:
  std::mutex mutex_;
  std::map<std::string, std::function<std::shared_ptr<TraceSource>()>>
      registered_;
  std::map<std::string, std::unique_ptr<const SyntheticTrace>> models_;
};

}  // namespace laps
