// The Analyze step's one walk (ProfileTally) against the per-analysis
// reference functions: run_pipeline must report exactly what each
// analyze_* function computes on its own over the same digested files, and
// tallies of adjacent file runs must merge into the tally of the whole run.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/report.hpp"
#include "testing/fixtures.hpp"
#include "util/parallel.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

/// A frame with the given tags (vlan/mpls 0 = absent) over UDP.
net::Frame udp_frame(std::uint8_t a, std::uint8_t b, std::uint16_t vlan,
                     std::uint32_t mpls, std::size_t size, util::Nanos ts) {
  net::FrameBuilder builder;
  builder.ethernet(net::MacAddress::from_id(a), net::MacAddress::from_id(b));
  if (vlan != 0) builder.vlan(vlan);
  if (mpls != 0) builder.mpls(mpls);
  builder
      .ipv4(net::Ipv4Address::from_octets(10, 1, 0, a),
            net::Ipv4Address::from_octets(10, 1, 0, b))
      .udp(static_cast<std::uint16_t>(5000 + a), 53)
      .payload(8)
      .pad_to(size);
  return builder.build(ts);
}

/// Several sites, one hot site holding most of the files, a capture whose
/// pcap cannot be read, untagged / VLAN-only / MPLS-only / VLAN+MPLS
/// frames, TCP control flags, a jumbo tail, frames cut by the snaplen, and
/// flows that recur across samples and sites.
std::vector<RawCapture> mixed_profile() {
  using namespace net::tcp_flags;
  std::vector<RawCapture> captures;
  const std::vector<std::pair<std::string, int>> sites = {
      {"HOT", 12}, {"S1", 2}, {"S2", 1}, {"S3", 2}};
  for (const auto& [site, samples] : sites) {
    for (int sample = 0; sample < samples; ++sample) {
      std::vector<net::Frame> frames;
      const int n = 25 + 9 * sample + static_cast<int>(site.size());
      for (int f = 0; f < n; ++f) {
        const auto a = static_cast<std::uint8_t>(1 + (f + sample) % 6);
        const auto b = static_cast<std::uint8_t>(7 + f % 3);
        const std::size_t size = 64 + static_cast<std::size_t>(f) * 211 % 9000;
        const util::Nanos ts = f * util::kMillisecond;
        const std::uint8_t flags[] = {kSyn, kAck, kAck | kPsh, kFin | kAck,
                                      kRst, kSyn | kAck};
        switch (f % 5) {
          case 0:
            frames.push_back(udp_frame(a, b, 0, 0, size, ts));
            break;
          case 1:
            frames.push_back(udp_frame(a, b, 300, 0, size, ts));
            break;
          case 2:
            frames.push_back(udp_frame(a, b, 0, 17000, size, ts));
            break;
          default:
            frames.push_back(tcp_frame(
                a, b, static_cast<std::uint16_t>(1000 + f % 4), 443, size, ts,
                100, flags[f % 6]));
        }
      }
      // Odd HOT samples, the last one included, keep only 40 bytes: the
      // snaplen cuts into the IP header, so HOT sees fewer protocols and
      // shallower stacks in them.
      const std::uint32_t snaplen = site == "HOT" && sample % 2 ? 40 : 9216;
      RawCapture capture =
          make_capture(site, static_cast<std::uint32_t>(sample), frames,
                       sample * 10 * util::kMinute, snaplen);
      capture.switch_drops_suspected = static_cast<std::uint64_t>(sample);
      captures.push_back(std::move(capture));
    }
  }
  RawCapture unreadable;
  unreadable.site = "S2";
  unreadable.start = 30 * util::kMinute;
  unreadable.pcap = {0xde, 0xad, 0xbe, 0xef};
  captures.insert(captures.begin() + 5, std::move(unreadable));
  return captures;
}

void expect_sizes_equal(const FrameSizeResult& a, const FrameSizeResult& b,
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

void expect_flows_equal(
    const std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>& a,
    const std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>& b,
    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [key, agg] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << label << key.to_string();
    EXPECT_EQ(agg.frames, it->second.frames) << label << key.to_string();
    EXPECT_EQ(agg.wire_bytes, it->second.wire_bytes) << label;
    EXPECT_EQ(agg.first_seen, it->second.first_seen) << label;
    EXPECT_EQ(agg.last_seen, it->second.last_seen) << label;
    EXPECT_EQ(agg.rst_frames, it->second.rst_frames) << label;
    EXPECT_EQ(agg.samples, it->second.samples) << label;
  }
}

void expect_samples_equal(const std::vector<SampleFlowCount>& a,
                          const std::vector<SampleFlowCount>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site, b[i].site) << label << i;
    EXPECT_EQ(a[i].start, b[i].start) << label << i;
    EXPECT_EQ(a[i].flows, b[i].flows) << label << i;
  }
}

void expect_loads_equal(const SiteLoad& a, const SiteLoad& b,
                        const std::string& label) {
  EXPECT_EQ(a.site, b.site) << label;
  EXPECT_EQ(a.samples, b.samples) << label << a.site;
  EXPECT_EQ(a.frames, b.frames) << label << a.site;
  EXPECT_EQ(a.wire_bytes, b.wire_bytes) << label << a.site;
  EXPECT_EQ(a.pcap_bytes, b.pcap_bytes) << label << a.site;
  EXPECT_EQ(a.switch_drops_suspected, b.switch_drops_suspected)
      << label << a.site;
}

void expect_tallies_equal(const ProfileTally& a, const ProfileTally& b,
                          const std::string& label) {
  expect_sizes_equal(a.frame_sizes, b.frame_sizes, label + " frame_sizes ");
  EXPECT_EQ(a.header_occurrence.frames, b.header_occurrence.frames) << label;
  EXPECT_EQ(a.header_occurrence.occurrences, b.header_occurrence.occurrences)
      << label;
  EXPECT_EQ(a.tcp_control.tcp_frames, b.tcp_control.tcp_frames) << label;
  EXPECT_EQ(a.tcp_control.syn, b.tcp_control.syn) << label;
  EXPECT_EQ(a.tcp_control.fin, b.tcp_control.fin) << label;
  EXPECT_EQ(a.tcp_control.rst, b.tcp_control.rst) << label;
  EXPECT_EQ(a.tcp_control.pure_ack, b.tcp_control.pure_ack) << label;
  EXPECT_EQ(a.tagging.frames, b.tagging.frames) << label;
  EXPECT_EQ(a.tagging.vlan_tagged, b.tagging.vlan_tagged) << label;
  EXPECT_EQ(a.tagging.mpls_tagged, b.tagging.mpls_tagged) << label;
  EXPECT_EQ(a.tagging.both_tagged, b.tagging.both_tagged) << label;
  EXPECT_EQ(a.tagging.untagged, b.tagging.untagged) << label;
  EXPECT_EQ(a.stack_counts, b.stack_counts) << label;
  expect_samples_equal(a.flows_per_sample, b.flows_per_sample, label);
  ASSERT_EQ(a.site_loads.size(), b.site_loads.size()) << label;
  for (const auto& [site, load] : a.site_loads) {
    ASSERT_TRUE(b.site_loads.count(site)) << label << site;
    expect_loads_equal(load, b.site_loads.at(site), label);
  }
  ASSERT_EQ(a.site_frame_sizes.size(), b.site_frame_sizes.size()) << label;
  for (const auto& [site, sizes] : a.site_frame_sizes) {
    ASSERT_TRUE(b.site_frame_sizes.count(site)) << label << site;
    expect_sizes_equal(sizes, b.site_frame_sizes.at(site), label + site);
  }
  ASSERT_EQ(a.site_variety.size(), b.site_variety.size()) << label;
  for (const auto& [site, variety] : a.site_variety) {
    ASSERT_TRUE(b.site_variety.count(site)) << label << site;
    EXPECT_EQ(variety.protocols, b.site_variety.at(site).protocols)
        << label << site;
    EXPECT_EQ(variety.deepest_stack, b.site_variety.at(site).deepest_stack)
        << label << site;
  }
  expect_flows_equal(a.flows, b.flows, label + " flows ");
}

TEST(ProfileTally, ProfileExercisesEveryAnalysis) {
  const std::vector<RawCapture> captures = mixed_profile();
  DigestStats stats;
  const std::vector<AcapFile> files = digest_all(captures, &stats);
  EXPECT_EQ(stats.bad_records, 1u);
  EXPECT_GT(stats.truncated_frames, 0u);
  EXPECT_TRUE(files[5].records.empty());
  const TaggingResult tagging = analyze_tagging(files);
  EXPECT_GT(tagging.untagged, 0u);
  EXPECT_GT(tagging.both_tagged, 0u);
  EXPECT_GT(tagging.vlan_tagged, tagging.both_tagged);
  EXPECT_GT(tagging.mpls_tagged, tagging.both_tagged);
  const TcpControlResult tcp = analyze_tcp_control(files);
  EXPECT_GT(tcp.syn, 0u);
  EXPECT_GT(tcp.fin, 0u);
  EXPECT_GT(tcp.rst, 0u);
  EXPECT_GT(analyze_frame_sizes(files).jumbo_fraction(), 0.0);
  std::size_t hot = 0;
  for (const AcapFile& f : files) hot += f.site == "HOT";
  EXPECT_GT(hot * 2, files.size());
}

TEST(ProfileTally, RunPipelineMatchesPerAnalysisReferences) {
  ThreadCountGuard guard;
  const std::vector<RawCapture> captures = mixed_profile();
  util::set_thread_count(0);
  const std::vector<AcapFile> files = digest_all(captures);

  // References: each analysis on its own over the same digested files.
  const FrameSizeResult frame_sizes = analyze_frame_sizes(files);
  const HeaderOccurrenceResult occurrence = analyze_header_occurrence(files);
  const std::vector<SiteHeaderVariety> variety =
      analyze_site_header_variety(files);
  const std::vector<SampleFlowCount> per_sample =
      analyze_flows_per_sample(files);
  const TcpControlResult tcp = analyze_tcp_control(files);
  const TaggingResult tagging = analyze_tagging(files);
  const std::vector<StackCount> top = analyze_top_stacks(files);
  const auto flows = aggregate_flows(files);
  const FlowDistributionResult distribution = analyze_flow_distribution(flows);
  std::map<std::string, SiteLoad> loads;
  std::map<std::string, FrameSizeResult> site_sizes;
  for (std::size_t i = 0; i < files.size(); ++i) {
    SiteLoad& load = loads[files[i].site];
    load.site = files[i].site;
    ++load.samples;
    load.frames += files[i].records.size();
    for (const AcapRecord& r : files[i].records) {
      load.wire_bytes += r.wire_length;
    }
    load.pcap_bytes += captures[i].pcap.size();
    load.switch_drops_suspected += files[i].switch_drops_suspected;
    site_sizes[files[i].site] = analyze_frame_sizes_site(files, files[i].site);
  }

  for (std::size_t threads :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{64}}) {
    util::set_thread_count(threads);
    const std::string label = "threads=" + std::to_string(threads) + " ";
    const ProfileReport report = run_pipeline(captures);

    expect_sizes_equal(report.frame_sizes, frame_sizes, label);
    EXPECT_EQ(report.header_occurrence.frames, occurrence.frames) << label;
    EXPECT_EQ(report.header_occurrence.occurrences, occurrence.occurrences)
        << label;
    ASSERT_EQ(report.site_variety.size(), variety.size()) << label;
    for (std::size_t i = 0; i < variety.size(); ++i) {
      EXPECT_EQ(report.site_variety[i].site, variety[i].site) << label;
      EXPECT_EQ(report.site_variety[i].distinct_headers,
                variety[i].distinct_headers)
          << label << variety[i].site;
      EXPECT_EQ(report.site_variety[i].deepest_stack,
                variety[i].deepest_stack)
          << label << variety[i].site;
    }
    expect_samples_equal(report.flows_per_sample, per_sample, label);
    EXPECT_EQ(report.tcp_control.tcp_frames, tcp.tcp_frames) << label;
    EXPECT_EQ(report.tcp_control.syn, tcp.syn) << label;
    EXPECT_EQ(report.tcp_control.fin, tcp.fin) << label;
    EXPECT_EQ(report.tcp_control.rst, tcp.rst) << label;
    EXPECT_EQ(report.tcp_control.pure_ack, tcp.pure_ack) << label;
    EXPECT_EQ(report.tagging.frames, tagging.frames) << label;
    EXPECT_EQ(report.tagging.vlan_tagged, tagging.vlan_tagged) << label;
    EXPECT_EQ(report.tagging.mpls_tagged, tagging.mpls_tagged) << label;
    EXPECT_EQ(report.tagging.both_tagged, tagging.both_tagged) << label;
    EXPECT_EQ(report.tagging.untagged, tagging.untagged) << label;
    ASSERT_EQ(report.top_stacks.size(), top.size()) << label;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(report.top_stacks[i].stack, top[i].stack) << label << i;
      EXPECT_EQ(report.top_stacks[i].frames, top[i].frames) << label << i;
      EXPECT_DOUBLE_EQ(report.top_stacks[i].fraction, top[i].fraction)
          << label << i;
    }
    expect_flows_equal(report.flow_aggregates, flows, label);
    EXPECT_EQ(report.distinct_flows, flows.size()) << label;
    EXPECT_EQ(report.largest_flow_bytes, distribution.largest_flow_bytes)
        << label;
    EXPECT_EQ(report.flow_distribution.flows, distribution.flows) << label;
    EXPECT_DOUBLE_EQ(report.flow_distribution.p99_flow_bytes,
                     distribution.p99_flow_bytes)
        << label;
    ASSERT_EQ(report.site_loads.size(), loads.size()) << label;
    std::size_t i = 0;
    for (const auto& [site, load] : loads) {
      expect_loads_equal(report.site_loads[i++], load, label);
    }
    ASSERT_EQ(report.site_frame_sizes.size(), site_sizes.size()) << label;
    for (const auto& [site, sizes] : site_sizes) {
      ASSERT_TRUE(report.site_frame_sizes.count(site)) << label << site;
      expect_sizes_equal(report.site_frame_sizes.at(site), sizes,
                         label + site + " ");
    }
    std::ostringstream csv;
    write_site_frame_size_csv(csv, site_sizes);
    EXPECT_EQ(report.csv_files.at("site_frame_sizes.csv"), csv.str())
        << label;
  }
}

TEST(ProfileTally, SplitAtEveryBoundaryMergesToOneTally) {
  ThreadCountGuard guard;
  const std::vector<RawCapture> captures = mixed_profile();
  util::set_thread_count(0);
  const std::vector<AcapFile> files = digest_all(captures);

  ProfileTally whole;
  for (std::size_t i = 0; i < files.size(); ++i) {
    whole.add(files[i], captures[i].pcap.size());
  }
  for (std::size_t split = 0; split <= files.size(); ++split) {
    ProfileTally head;
    ProfileTally tail;
    for (std::size_t i = 0; i < files.size(); ++i) {
      (i < split ? head : tail).add(files[i], captures[i].pcap.size());
    }
    head.merge(std::move(tail));
    expect_tallies_equal(head, whole, "split=" + std::to_string(split));
  }

  for (std::size_t threads :
       {std::size_t{0}, std::size_t{2}, std::size_t{5}, std::size_t{64}}) {
    util::set_thread_count(threads);
    expect_tallies_equal(ProfileTally(files, captures), whole,
                         "chunked threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace patchwork::analysis
