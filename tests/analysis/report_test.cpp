#include "analysis/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/digest.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

std::vector<AcapFile> two_site_files() {
  std::vector<RawCapture> captures;
  captures.push_back(make_capture(
      "S1", 0, {tcp_frame(1, 2, 1, 443, 1900), tcp_frame(1, 2, 3, 443, 80)}));
  captures.push_back(make_capture("S2", 0, {tcp_frame(3, 4, 5, 22, 300)}));
  return digest_all(captures);
}

std::size_t line_count(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(Report, FrameSizeCsvHasOneRowPerBucket) {
  const auto files = two_site_files();
  std::ostringstream os;
  write_frame_size_csv(os, analyze_frame_sizes(files));
  // Header + one row per bucket.
  EXPECT_EQ(line_count(os.str()),
            1 + paper_frame_size_edges().size() - 1);
  EXPECT_NE(os.str().find("bucket_lo"), std::string::npos);
}

TEST(Report, SiteFrameSizeCsvCoversAllSites) {
  const auto files = two_site_files();
  std::ostringstream os;
  write_site_frame_size_csv(os, {{"S1", analyze_frame_sizes_site(files, "S1")},
                                 {"S2", analyze_frame_sizes_site(files, "S2")}});
  EXPECT_NE(os.str().find("S1"), std::string::npos);
  EXPECT_NE(os.str().find("S2"), std::string::npos);
}

TEST(Report, HeaderOccurrenceSkipsAbsentProtocols) {
  const auto files = two_site_files();
  std::ostringstream os;
  write_header_occurrence_csv(os, analyze_header_occurrence(files));
  EXPECT_NE(os.str().find("ipv4"), std::string::npos);
  EXPECT_EQ(os.str().find("icmp"), std::string::npos);
}

TEST(Report, SiteVarietyCsv) {
  const auto files = two_site_files();
  std::ostringstream os;
  write_site_variety_csv(os, analyze_site_header_variety(files));
  EXPECT_EQ(line_count(os.str()), 3u);  // Header + two sites.
}

TEST(Report, FlowsPerSampleCsv) {
  const auto files = two_site_files();
  std::ostringstream os;
  write_flows_per_sample_csv(os, analyze_flows_per_sample(files));
  EXPECT_EQ(line_count(os.str()), 3u);
}

TEST(Report, FlowAggregateCsvSortedByBytes) {
  const auto files = two_site_files();
  std::ostringstream os;
  write_flow_aggregate_csv(os, aggregate_flows(files));
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 4u);  // Header + 3 flows.
  // Largest flow (1900 B) appears before the smallest (80 B): compare
  // positions of their byte counts.
  EXPECT_LT(out.find("1900"), out.find(",80,"));
}

TEST(Report, TcpControlAndTaggingCsv) {
  const auto files = two_site_files();
  std::ostringstream os1, os2;
  write_tcp_control_csv(os1, analyze_tcp_control(files));
  write_tagging_csv(os2, analyze_tagging(files));
  EXPECT_NE(os1.str().find("tcp_frames,3"), std::string::npos);
  EXPECT_NE(os2.str().find("vlan_tagged,3"), std::string::npos);
}

}  // namespace
}  // namespace patchwork::analysis
