// Sharded two-phase flow aggregation contract: aggregate_flows() must
// produce exactly the same map — every key, every field — whether the
// files form one chunk (serial) or many (parallel), at any thread count.
// Shard assignment is keyed by FlowKeyHash % kShards and every
// FlowAggregate field merges commutatively, so the content cannot depend
// on chunking or scheduling.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"
#include "testing/fixtures.hpp"
#include "util/parallel.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

/// Many files, many sites, flows recurring across samples so cross-sample
/// stitching (samples counting, first/last_seen spans) has real work.
std::vector<AcapFile> stitched_profile() {
  std::vector<RawCapture> captures;
  for (int site = 0; site < 5; ++site) {
    for (int sample = 0; sample < 4; ++sample) {
      std::vector<net::Frame> frames;
      for (int f = 0; f < 60 + site * 11 + sample * 5; ++f) {
        const auto a = static_cast<std::uint8_t>(1 + (f + site) % 7);
        const auto b = static_cast<std::uint8_t>(8 + f % 5);
        frames.push_back(tcp_frame(
            a, b, static_cast<std::uint16_t>(1000 + f % 17),
            static_cast<std::uint16_t>(f % 3 ? 443 : 8080),
            64 + static_cast<std::size_t>((f * 131) % 1400),
            static_cast<util::Nanos>(f) * util::kMillisecond,
            static_cast<std::uint16_t>(200 + site)));
      }
      captures.push_back(make_capture("S" + std::to_string(site),
                                      static_cast<std::uint32_t>(sample),
                                      frames,
                                      sample * 7 * util::kMinute));
    }
  }
  return digest_all(captures, nullptr);
}

void expect_flow_maps_equal(
    const std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>& a,
    const std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>& b,
    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [key, agg] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << label << ": missing " << key.to_string();
    EXPECT_EQ(agg.frames, it->second.frames) << label << key.to_string();
    EXPECT_EQ(agg.wire_bytes, it->second.wire_bytes)
        << label << key.to_string();
    EXPECT_EQ(agg.first_seen, it->second.first_seen)
        << label << key.to_string();
    EXPECT_EQ(agg.last_seen, it->second.last_seen)
        << label << key.to_string();
    EXPECT_EQ(agg.rst_frames, it->second.rst_frames)
        << label << key.to_string();
    EXPECT_EQ(agg.samples, it->second.samples) << label << key.to_string();
  }
}

TEST(AggregateShards, ShardedMatchesSingleMapAtEveryThreadCount) {
  ThreadCountGuard guard;
  const std::vector<AcapFile> files = stitched_profile();
  ASSERT_GT(files.size(), 1u);

  util::set_thread_count(0);  // Serial one-chunk reference.
  const auto reference = aggregate_flows(files);
  EXPECT_GT(reference.size(), 1u);

  for (std::size_t threads :
       {std::size_t{2}, std::size_t{3}, std::size_t{8}, std::size_t{32}}) {
    util::set_thread_count(threads);
    const auto sharded = aggregate_flows(files);
    expect_flow_maps_equal(reference, sharded,
                           "threads=" + std::to_string(threads) + " ");
  }
}

TEST(AggregateShards, SingleFileFallsBackToSerial) {
  ThreadCountGuard guard;
  std::vector<AcapFile> files = stitched_profile();
  files.resize(1);
  util::set_thread_count(0);
  const auto serial = aggregate_flows(files);
  util::set_thread_count(8);
  const auto parallel = aggregate_flows(files);
  expect_flow_maps_equal(serial, parallel, "single-file ");
}

TEST(AggregateShards, MoreThreadsThanFiles) {
  ThreadCountGuard guard;
  std::vector<AcapFile> files = stitched_profile();
  files.resize(3);
  util::set_thread_count(0);
  const auto serial = aggregate_flows(files);
  util::set_thread_count(16);  // chunks must clamp to files.size().
  const auto sharded = aggregate_flows(files);
  expect_flow_maps_equal(serial, sharded, "clamped-chunks ");
}

}  // namespace
}  // namespace patchwork::analysis
