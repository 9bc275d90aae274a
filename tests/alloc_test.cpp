// Steady-state heap-allocation check for the LAPS decision path. This
// binary replaces the global operator new with a counting wrapper around
// malloc, warms an AFD and a LAPS scheduler up, and asserts that the next
// 100k detector accesses and 100k scheduling decisions allocate nothing:
// the AFD caches and migration tables are fixed-size arrays, and the
// allocator's surplus bookkeeping is reserved up front.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "cache/afd.h"
#include "core/laps.h"
#include "trace/synthetic.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// GCC flags free() of a pointer that reached operator delete even inside
// the replacement pair itself, where malloc/free is exactly the contract.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace laps {
namespace {

constexpr int kWarmup = 100'000;
constexpr int kMeasured = 100'000;

std::vector<std::uint64_t> trace_keys(const char* name, int count) {
  const auto trace = make_trace(name);
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) keys.push_back(trace->next()->tuple.key64());
  return keys;
}

// caida1 makes the annex insert-heavy (evictions on most accesses), auck1
// hit-heavy; aging exercises age_halve on both caches.
TEST(AllocFree, AfdAccessInSteadyState) {
  for (const char* trace : {"caida1", "auck1"}) {
    const auto keys = trace_keys(trace, kWarmup + kMeasured);
    AfdConfig aging = LapsConfig::make_default_afd();
    aging.aging_period = 4096;
    for (const AfdConfig& cfg : {LapsConfig::make_default_afd(), aging}) {
      Afd afd(cfg);
      for (int i = 0; i < kWarmup; ++i) afd.access(keys[i]);
      const std::uint64_t before = g_allocations.load();
      for (int i = kWarmup; i < kWarmup + kMeasured; ++i) afd.access(keys[i]);
      const std::uint64_t allocated = g_allocations.load() - before;
      EXPECT_EQ(allocated, 0u) << trace << " aging=" << cfg.aging_period;
    }
  }
}

class FixedView final : public NpuView {
 public:
  TimeNs now() const override { return now_; }
  std::span<const CoreView> cores() const override { return cores_; }
  std::uint32_t queue_capacity() const override { return 32; }

  TimeNs now_ = from_us(500);
  std::vector<CoreView> cores_ = std::vector<CoreView>(16);
};

class NullSink final : public SchedEventSink {
 public:
  void sched_event(const SchedEvent&) override { ++events; }
  std::uint64_t events = 0;
};

// A fixed view where every service has an overloaded core (aggressive flows
// hashed there migrate and get pinned, filling and FIFO-evicting the
// migration tables), a long-idle core (surplus-marked, unmarked when a
// packet lands on it, re-marked on the next decision's rescan) and busy
// cores, but no service is fully overloaded.
TEST(AllocFree, LapsScheduleInSteadyState) {
  FixedView view;
  for (std::size_t c = 0; c < view.cores_.size(); ++c) {
    CoreView& v = view.cores_[c];
    switch (c % 4) {
      case 0: v = CoreView{30, true, -1}; break;  // overloaded
      case 1: v = CoreView{0, false, 0}; break;   // idle since t = 0
      default: v = CoreView{static_cast<std::uint32_t>(c % 7), true, -1};
    }
  }
  const auto keys = trace_keys("auck1", kWarmup + kMeasured);

  LapsConfig cfg;
  cfg.migration_table_capacity = 64;
  LapsScheduler laps(cfg);
  NullSink sink;
  laps.set_event_sink(&sink);
  laps.attach(view.cores_.size());

  auto decide = [&](int i) {
    SimPacket pkt;
    pkt.tuple.src_ip = static_cast<std::uint32_t>(keys[i]);
    pkt.tuple.dst_ip = static_cast<std::uint32_t>(keys[i] >> 32);
    pkt.tuple.protocol = 6;
    pkt.service = static_cast<ServicePath>(keys[i] % cfg.num_services);
    laps.schedule(pkt, view);
  };
  for (int i = 0; i < kWarmup; ++i) decide(i);
  const std::uint64_t before = g_allocations.load();
  for (int i = kWarmup; i < kWarmup + kMeasured; ++i) decide(i);
  const std::uint64_t allocated = g_allocations.load() - before;
  EXPECT_EQ(allocated, 0u);

  // The window exercised the paths it claims to: migrations happened and
  // no decision needed a core from another service.
  const auto stats = laps.extra_stats();
  EXPECT_GT(stats.at("aggressive_migrations"), 0.0);
  EXPECT_EQ(stats.at("core_requests"), 0.0);
  EXPECT_GT(sink.events, 0u);
}

}  // namespace
}  // namespace laps
