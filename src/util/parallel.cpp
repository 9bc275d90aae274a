#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

namespace laps {

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;  // guarded by error_mutex
  std::exception_ptr error;     // guarded by error_mutex
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> helpers;
  const std::size_t threads = std::min(jobs, n);
  if (threads > 1) {
    helpers.reserve(threads - 1);
    try {
      while (helpers.size() + 1 < threads) helpers.emplace_back(worker);
    } catch (const std::system_error&) {
      // The system refused another thread: the ones already started and
      // the caller still claim every index.
    }
  }
  worker();
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace laps
