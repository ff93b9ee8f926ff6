// Shared pieces of the epoch benchmark: timing, sample statistics, the
// metric sheet a run prints, and the operation ledger (attempted/failed).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace epochbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}

/// Time one call in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return ms_since(t0);
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Process CPU time (user + system, all threads) in seconds.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

inline std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// CPU seconds burnt per wall second per worker while `fn` ran: 1.0 means
/// every worker was busy the whole time.
template <typename Fn>
double cpu_util(std::size_t workers, Fn&& fn, double* wall_ms = nullptr) {
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  fn();
  const double wall = seconds_since(t0);
  if (wall_ms != nullptr) *wall_ms = wall * 1e3;
  const double cpu = process_cpu_s() - cpu0;
  return wall > 0.0 ? cpu / (wall * static_cast<double>(workers)) : 0.0;
}

/// Attempted/failed operation counts, kept per kind for the log and
/// summed for the result line.
class Ledger {
 public:
  void add(const std::string& kind, std::uint64_t attempted,
           std::uint64_t failed = 0) {
    Entry& e = entries_[kind];
    e.attempted += attempted;
    e.failed += failed;
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [kind, e] : entries_) n += e.attempted;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [kind, e] : entries_) n += e.failed;
    return n;
  }
  struct Entry {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace epochbench
