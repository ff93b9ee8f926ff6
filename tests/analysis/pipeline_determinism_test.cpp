// The parallel pipeline's contract: output is byte-identical to the serial
// path for every thread count. These tests pin PATCHWORK_THREADS-equivalent
// modes (0 = serial fallback, then 1, 2, 8 workers) and compare every CSV
// byte and every stat counter.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "testing/fixtures.hpp"
#include "util/parallel.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

/// Restores env/hardware thread resolution when a test scope exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

/// `samples_at(site)` samples for each of `sites` sites.
template <typename SamplesAt>
std::vector<RawCapture> site_profile(int sites, SamplesAt samples_at) {
  std::vector<RawCapture> captures;
  for (int site = 0; site < sites; ++site) {
    for (int sample = 0; sample < samples_at(site); ++sample) {
      std::vector<net::Frame> frames;
      for (int f = 0; f < 40 + site * 7 + sample * 3; ++f) {
        const auto a = static_cast<std::uint8_t>(1 + (f + site) % 5);
        const auto b = static_cast<std::uint8_t>(6 + f % 4);
        frames.push_back(tcp_frame(
            a, b, static_cast<std::uint16_t>(1000 + f % 13),
            static_cast<std::uint16_t>(f % 2 ? 443 : 5201),
            64 + static_cast<std::size_t>((f * 97) % 1800),
            static_cast<util::Nanos>(f) * util::kMillisecond,
            static_cast<std::uint16_t>(100 + site)));
      }
      captures.push_back(make_capture("S" + std::to_string(site),
                                      static_cast<std::uint32_t>(sample),
                                      frames,
                                      sample * 10 * util::kMinute));
    }
  }
  return captures;
}

/// Several sites, uneven sample sizes, repeated flows across samples so
/// flow stitching and per-site analyses all have real work to do.
std::vector<RawCapture> multi_site_profile() {
  return site_profile(6, [](int) { return 3; });
}

/// One hot site holding 18 of the 20 files.
std::vector<RawCapture> hot_site_profile() {
  return site_profile(3, [](int site) { return site == 1 ? 18 : 1; });
}

void expect_sizes_identical(const FrameSizeResult& a, const FrameSizeResult& b,
                            const std::string& label) {
  EXPECT_EQ(a.frames, b.frames) << label;
  ASSERT_EQ(a.histogram.bucket_count(), b.histogram.bucket_count()) << label;
  for (std::size_t i = 0; i < a.histogram.bucket_count(); ++i) {
    EXPECT_EQ(a.histogram.bucket(i), b.histogram.bucket(i)) << label << i;
  }
  EXPECT_EQ(a.histogram.underflow(), b.histogram.underflow()) << label;
  EXPECT_EQ(a.histogram.overflow(), b.histogram.overflow()) << label;
  EXPECT_EQ(a.histogram.total(), b.histogram.total()) << label;
}

void expect_reports_identical(const ProfileReport& a, const ProfileReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.digest_stats.frames, b.digest_stats.frames) << label;
  EXPECT_EQ(a.digest_stats.bad_records, b.digest_stats.bad_records) << label;
  EXPECT_EQ(a.digest_stats.truncated_frames, b.digest_stats.truncated_frames)
      << label;
  EXPECT_EQ(a.digest_stats.malformed_frames, b.digest_stats.malformed_frames)
      << label;
  EXPECT_EQ(a.distinct_flows, b.distinct_flows) << label;
  EXPECT_EQ(a.largest_flow_bytes, b.largest_flow_bytes) << label;
  ASSERT_EQ(a.site_loads.size(), b.site_loads.size()) << label;
  for (std::size_t i = 0; i < a.site_loads.size(); ++i) {
    const SiteLoad& x = a.site_loads[i];
    const SiteLoad& y = b.site_loads[i];
    EXPECT_EQ(x.site, y.site) << label << i;
    EXPECT_EQ(x.samples, y.samples) << label << x.site;
    EXPECT_EQ(x.frames, y.frames) << label << x.site;
    EXPECT_EQ(x.wire_bytes, y.wire_bytes) << label << x.site;
    EXPECT_EQ(x.pcap_bytes, y.pcap_bytes) << label << x.site;
    EXPECT_EQ(x.switch_drops_suspected, y.switch_drops_suspected)
        << label << x.site;
  }
  ASSERT_EQ(a.site_frame_sizes.size(), b.site_frame_sizes.size()) << label;
  for (const auto& [site, sizes] : a.site_frame_sizes) {
    ASSERT_TRUE(b.site_frame_sizes.count(site)) << label << ": " << site;
    expect_sizes_identical(sizes, b.site_frame_sizes.at(site),
                           label + ": " + site + " ");
  }
  ASSERT_EQ(a.csv_files.size(), b.csv_files.size()) << label;
  for (const auto& [name, bytes] : a.csv_files) {
    ASSERT_TRUE(b.csv_files.count(name)) << label << ": " << name;
    EXPECT_EQ(bytes, b.csv_files.at(name))
        << label << ": " << name << " differs";
  }
}

TEST(PipelineDeterminism, IdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  std::vector<RawCapture> two_files = multi_site_profile();
  two_files.resize(2);  // Fewer files than the 8-worker case has workers.
  const std::vector<std::pair<std::string, std::vector<RawCapture>>>
      profiles = {{"multi_site", multi_site_profile()},
                  {"hot_site", hot_site_profile()},
                  {"two_files", two_files},
                  {"empty", {}}};

  for (const auto& [name, profile] : profiles) {
    util::set_thread_count(0);  // Serial reference.
    const ProfileReport reference = run_pipeline(profile);
    if (!profile.empty()) {
      EXPECT_GT(reference.digest_stats.frames, 0u) << name;
    }

    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      util::set_thread_count(threads);
      const ProfileReport parallel = run_pipeline(profile);
      expect_reports_identical(
          reference, parallel,
          name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(PipelineDeterminism, DigestAllMatchesSerialOrderAndStats) {
  ThreadCountGuard guard;
  const std::vector<RawCapture> profile = multi_site_profile();

  util::set_thread_count(0);
  DigestStats serial_stats;
  const std::vector<AcapFile> serial = digest_all(profile, &serial_stats);

  util::set_thread_count(8);
  DigestStats parallel_stats;
  const std::vector<AcapFile> parallel = digest_all(profile, &parallel_stats);

  EXPECT_EQ(serial_stats.frames, parallel_stats.frames);
  EXPECT_EQ(serial_stats.bad_records, parallel_stats.bad_records);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].site, parallel[i].site) << i;
    EXPECT_EQ(serial[i].port, parallel[i].port) << i;
    ASSERT_EQ(serial[i].records.size(), parallel[i].records.size()) << i;
    for (std::size_t r = 0; r < serial[i].records.size(); ++r) {
      EXPECT_EQ(serial[i].records[r].stack, parallel[i].records[r].stack);
      EXPECT_EQ(serial[i].records[r].wire_length,
                parallel[i].records[r].wire_length);
      EXPECT_EQ(serial[i].records[r].flow, parallel[i].records[r].flow);
    }
  }
}

TEST(PipelineDeterminism, RepeatedParallelRunsAgree) {
  ThreadCountGuard guard;
  const std::vector<RawCapture> profile = multi_site_profile();
  util::set_thread_count(4);
  const ProfileReport first = run_pipeline(profile);
  const ProfileReport second = run_pipeline(profile);
  expect_reports_identical(first, second, "repeat");
}

}  // namespace
}  // namespace patchwork::analysis
