#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

namespace laps {

/// Resolves a user-facing `--jobs` value: 0 -> hardware concurrency
/// (minimum 1), anything else unchanged.
std::size_t resolve_jobs(std::size_t jobs);

/// Runs `fn(0) .. fn(n-1)` on `min(jobs, n)` threads, the caller among
/// them; each thread claims the next index from one shared counter until
/// none is left. `jobs <= 1` or `n <= 1` runs inline and starts no thread
/// (pass `--jobs` values through resolve_jobs first). `fn` must be safe to
/// call concurrently for distinct indices.
///
/// A throwing index does not stop the others: every index runs, and then
/// the exception of the lowest index that threw is rethrown.
void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for that collects `fn(i)` into a vector in index order, so the
/// result (and any output built from it) does not depend on how the work
/// interleaved.
template <class Fn>
auto parallel_index_map(std::size_t jobs, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<R>, "parallel_index_map needs a result type");
  std::vector<std::optional<R>> slots(n);
  parallel_for(jobs, n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace laps
