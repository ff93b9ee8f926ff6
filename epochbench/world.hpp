// Workload definitions and the simulated FABRIC world a profiling epoch
// runs against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/environment.hpp"
#include "sim/clock.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/activity_model.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"
#include "util/rng.hpp"

namespace epochbench {

namespace pw = patchwork;

/// What one profiling epoch covers: the federation's shape and the
/// profiler configuration every site runs with.
struct ProfileShape {
  pw::testbed::FederationSpec federation;
  pw::core::ProfilerConfig config;
  /// When > 0, site 0 keeps this many dedicated NICs and every other site
  /// keeps one (the rest go to a foreign slice): one hot site then holds
  /// most of the samples.
  std::size_t hot_site_nics = 0;
  /// Seed of the federation layout and site workload profiles. Fixed per
  /// workload so every --seed profiles the same amount of work; --seed
  /// drives the run's own random streams (port choice, frame content).
  std::uint64_t layout_seed = 0;
};

/// The archive federation a session builds and queries.
struct ArchiveShape {
  std::size_t origins = 4;
  std::size_t days = 60;       ///< Daily records per origin.
  std::size_t queries = 130;   ///< Query steps per session.
};

struct Workload {
  std::string name;
  ProfileShape profile;
  ArchiveShape archive;
  /// One round runs this many epochs, then this many archive sessions.
  std::size_t epochs_per_round = 1;
  std::size_t sessions_per_round = 1;
};

std::optional<Workload> find_workload(std::string_view name);

/// Workers the benchmark runs with: min(4, hardware threads).
std::size_t bench_workers();

/// A simulated FABRIC deployment: clock, federation, telemetry, traffic,
/// and the environment that binds them. Built from the workload's layout
/// seed and the run seed, then warmed up so MFlib has rate history.
class World {
 public:
  World(const ProfileShape& shape, std::uint64_t run_seed);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  pw::core::Environment& env() { return env_; }
  pw::testbed::Federation& federation() { return fed_; }

  double federation_ms() const { return federation_ms_; }
  double warmup_ms() const { return warmup_ms_; }

 private:
  pw::util::Rng layout_rng_;
  pw::util::Rng run_rng_;
  pw::sim::Clock clock_;
  pw::testbed::ActivityModel activity_;
  double federation_ms_ = 0.0;
  pw::testbed::Federation fed_;
  pw::telemetry::MfLib mflib_;
  pw::traffic::TrafficEngine traffic_;
  pw::core::Environment env_;
  double warmup_ms_ = 0.0;
};

}  // namespace epochbench
