#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "testing/env_fixture.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

ProfilerConfig quick_config() {
  ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 1;
  config.plan.runs_per_cycle = 1;
  config.plan.sample_interval = 5 * util::kMinute;
  config.plan.max_frames_per_sample = 300;
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  return config;
}

/// Render every pending sample of `profiler` in the order `order` lists
/// them, sample k from `Rng(seed).split(k)`, then commit in sample order.
void render_and_commit(SiteProfiler& profiler, std::uint64_t seed,
                       const std::vector<std::size_t>& order) {
  const util::Rng base(seed);
  std::vector<analysis::RawCapture> rendered(order.size());
  for (std::size_t k : order) {
    util::Rng sample_rng = base.split(k);
    rendered[k] = profiler.render_sample(k, sample_rng);
  }
  profiler.commit_rendered(std::move(rendered));
}

std::vector<std::size_t> ascending(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(SiteProfiler, SetupGrantsInstancesAndMirrorSlots) {
  World world(1);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{0}, quick_config());
  const SetupResult setup = profiler.setup();
  ASSERT_TRUE(setup.ok);
  EXPECT_GT(setup.instances_granted, 0u);
  EXPECT_EQ(setup.backoffs_used, 0u);
  // Each instance's dedicated NIC is dual-port.
  EXPECT_EQ(profiler.monitored_port_slots(), 2 * setup.instances_granted);
  EXPECT_GT(profiler.storage_budget(), 0u);
}

TEST(SiteProfiler, SetupFailsOnTeachingSite) {
  World world(1);
  // Find the teaching site (no dedicated NICs).
  for (testbed::SiteId id : world.fed.site_ids()) {
    if (!world.fed.site(id).teaching_only()) continue;
    SiteProfiler profiler(world.env, id, quick_config());
    const SetupResult setup = profiler.setup();
    EXPECT_FALSE(setup.ok);
    EXPECT_EQ(setup.error, testbed::AllocError::kNoDedicatedNic);
    EXPECT_EQ(profiler.run(), RunOutcome::kFailed);
    return;
  }
  FAIL() << "no teaching site";
}

TEST(SiteProfiler, BackoffShrinksRequestUnderScarcity) {
  World world(2);
  world.warm_up_telemetry();
  // Pre-allocate all but one dedicated NIC to someone else, then ask for
  // more instances than can fit.
  testbed::Site& site = world.fed.site(testbed::SiteId{0});
  auto nics = site.available_nics(testbed::NicKind::kDedicatedConnectX);
  ASSERT_GE(nics.size(), 2u);
  for (std::size_t i = 0; i + 1 < nics.size(); ++i) {
    site.mutable_nic(nics[i]).allocated_to = testbed::SliceId{999};
  }
  ProfilerConfig config = quick_config();
  config.desired_instances = 3;
  config.max_backoffs = 5;
  SiteProfiler profiler(world.env, testbed::SiteId{0}, config);
  const SetupResult setup = profiler.setup();
  ASSERT_TRUE(setup.ok);
  EXPECT_EQ(setup.instances_granted, 1u);
  EXPECT_EQ(setup.backoffs_used, 2u);
  // Scaled-down completion counts as degraded, not success (Fig. 10).
  EXPECT_EQ(profiler.run(), RunOutcome::kDegraded);
}

TEST(SiteProfiler, RunProducesCapturesWithLogs) {
  World world(3);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{1}, quick_config());
  ASSERT_TRUE(profiler.setup().ok);
  const RunOutcome outcome = profiler.run();
  EXPECT_EQ(outcome, RunOutcome::kSuccess);
  render_and_commit(profiler, 99, ascending(profiler.pending_sample_count()));
  EXPECT_EQ(profiler.pending_sample_count(), 0u);
  auto captures = profiler.gather();
  ASSERT_FALSE(captures.empty());
  for (const auto& c : captures) {
    EXPECT_EQ(c.site, world.fed.site(testbed::SiteId{1}).name());
    EXPECT_EQ(c.duration, quick_config().plan.sample_duration);
    EXPECT_FALSE(c.pcap.empty());
  }
  // The instance log went along with the first capture.
  EXPECT_GT(captures.front().logs.records().size(), 0u);
  profiler.teardown();
}

TEST(SiteProfiler, MirrorsActiveDuringRunAndClearedByTeardown) {
  World world(4);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{2}, quick_config());
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  testbed::Site& site = world.fed.site(testbed::SiteId{2});
  EXPECT_FALSE(site.tor().mirrors().empty());
  profiler.teardown();
  EXPECT_TRUE(site.tor().mirrors().empty());
  // NICs returned.
  EXPECT_GT(site.count_available_nics(testbed::NicKind::kDedicatedConnectX),
            0u);
}

TEST(SiteProfiler, CrashProbabilityYieldsIncomplete) {
  World world(5);
  world.warm_up_telemetry();
  ProfilerConfig config = quick_config();
  config.crash_probability = 1.0;
  SiteProfiler profiler(world.env, testbed::SiteId{0}, config);
  ASSERT_TRUE(profiler.setup().ok);
  EXPECT_EQ(profiler.run(), RunOutcome::kIncomplete);
  EXPECT_GT(profiler.log().count_containing("watchdog"), 0u);
}

TEST(SiteProfiler, PortCyclingChangesMirroredPorts) {
  World world(6);
  world.warm_up_telemetry();
  ProfilerConfig config = quick_config();
  config.plan.cycles = 4;
  config.desired_instances = 1;
  SiteProfiler profiler(world.env, testbed::SiteId{1}, config);
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  // The log must show at least one retarget beyond the initial mirrors
  // (two slots, four cycles: cycling should move at least once).
  EXPECT_GE(profiler.log().count_containing("cycle: mirroring"), 3u);
  profiler.teardown();
}

TEST(SiteProfiler, SamplesRecordOfferedAndCaptured) {
  World world(7);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{3}, quick_config());
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  EXPECT_GT(profiler.log().count_containing("sample c"), 0u);
}

TEST(SiteProfiler, RenderOrderDoesNotChangeCommittedBytes) {
  // render_sample is addressed by sample index, so rendering the pending
  // samples in reverse (as a worker pool may) and committing them must give
  // the same captures AND the same instance log as ascending order.
  ProfilerConfig config = quick_config();
  config.plan.samples_per_run = 3;  // Several pending samples per slot.

  World forward_world(11);
  forward_world.warm_up_telemetry();
  SiteProfiler forward(forward_world.env, testbed::SiteId{2}, config);
  ASSERT_TRUE(forward.setup().ok);
  forward.run();

  World reverse_world(11);
  reverse_world.warm_up_telemetry();
  SiteProfiler reverse(reverse_world.env, testbed::SiteId{2}, config);
  ASSERT_TRUE(reverse.setup().ok);
  reverse.run();

  const std::size_t n = forward.pending_sample_count();
  ASSERT_GT(n, 1u);
  ASSERT_EQ(n, reverse.pending_sample_count());
  std::vector<std::size_t> descending = ascending(n);
  std::reverse(descending.begin(), descending.end());
  render_and_commit(forward, 12345, ascending(n));
  render_and_commit(reverse, 12345, descending);

  // Instance logs match record-for-record (commit replays the per-sample
  // summaries in sample order).
  const auto& la = forward.log().records();
  const auto& lb = reverse.log().records();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].time, lb[i].time) << "log " << i;
    EXPECT_EQ(la[i].message, lb[i].message) << "log " << i;
  }

  const std::vector<analysis::RawCapture> ca = forward.gather();
  const std::vector<analysis::RawCapture> cb = reverse.gather();
  ASSERT_EQ(ca.size(), n);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].port, cb[i].port) << "capture " << i;
    EXPECT_EQ(ca[i].start, cb[i].start) << "capture " << i;
    EXPECT_TRUE(ca[i].pcap == cb[i].pcap)
        << "capture " << i << " pcap bytes differ";
  }
}

}  // namespace
}  // namespace patchwork::core
