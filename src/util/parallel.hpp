// parallel_for / parallel_map on top of the shared process-lifetime
// ThreadPool.
//
// Both primitives are *deterministic by construction*: every index writes
// only its own output slot, so results are identical to the serial loop for
// any thread count. Work is handed out through an atomic cursor (dynamic
// scheduling) — cheap tasks don't idle workers behind an expensive one, and
// because results land by index, the schedule never shows in the output.
//
// No pool is constructed per call: strands are spawned into a TaskGroup on
// shared_pool(), which spawns its workers once and reuses them for the life
// of the process. The calling thread runs one strand itself and then helps
// with the group's remaining strands in wait(), so a call makes progress
// even when every shared worker is busy. Calls nest: a parallel_for inside
// a strand fans out again, and since a waiter only helps its own group the
// nesting cannot deadlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace patchwork::util {

/// Invoke fn(i) for every i in [0, n), fanned out over `threads` strands
/// (default: thread_count()), one of which runs on the calling thread.
/// Blocks until all indices complete. The first exception thrown by any
/// fn(i) is rethrown on the calling thread. Runs serially when
/// threads <= 1 or n <= 1.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t threads = thread_count()) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t strands = threads < n ? threads : n;
  std::atomic<std::size_t> cursor{0};
  auto run_strand = [&cursor, n, &fn] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  ThreadPool& pool = shared_pool();
  pool.ensure_size(strands - 1);  // The caller itself runs the last strand.
  TaskGroup group(pool);
  for (std::size_t w = 0; w + 1 < strands; ++w) group.spawn(run_strand);
  std::exception_ptr first_error;
  try {
    run_strand();
  } catch (...) {
    first_error = std::current_exception();
  }
  // Drain every strand before rethrowing so no task outlives the frame the
  // closures point into.
  try {
    group.wait();
  } catch (...) {
    if (!first_error) first_error = std::current_exception();
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Map fn over `items`, preserving input order in the result vector.
/// The result type must be default-constructible (slots are pre-allocated
/// so workers never contend on the output container).
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn,
                  std::size_t threads = thread_count())
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> out(
      items.size());
  parallel_for(
      items.size(), [&](std::size_t i) { out[i] = fn(items[i]); }, threads);
  return out;
}

}  // namespace patchwork::util
