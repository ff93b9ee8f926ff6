// The Analyze step (Section 6.2.4): "a diverse set of analyses — for
// example, to characterize frame sizes, the types of headers observed in
// the captures, and classify flows".
//
// Each analysis consumes AcapFiles and produces a plain result struct; the
// Process step (report.hpp) turns results into CSV.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/acap.hpp"
#include "analysis/digest.hpp"
#include "util/histogram.hpp"

namespace patchwork::analysis {

// --- Frame sizes (Fig. 15 and the Section 8.2 aggregate) -----------------

/// The paper's frame-size buckets. The final bucket extends to the jumbo
/// maximum; 1519-2047 is the bucket that dominates FABRIC traffic.
std::vector<double> paper_frame_size_edges();

struct FrameSizeResult {
  util::Histogram histogram = util::Histogram(paper_frame_size_edges());
  std::uint64_t frames = 0;

  double fraction_in(double lo) const;  ///< Fraction of bucket starting at lo.
  double jumbo_fraction() const;        ///< Frames > 1518 B.
};

FrameSizeResult analyze_frame_sizes(const std::vector<AcapFile>& files);
FrameSizeResult analyze_frame_sizes_site(const std::vector<AcapFile>& files,
                                         const std::string& site);

// --- Header occurrence (Fig. 12) -----------------------------------------

struct HeaderOccurrenceResult {
  std::uint64_t frames = 0;
  /// Total occurrences per protocol (Ethernet can exceed `frames` because
  /// pseudowire/VXLAN frames carry Ethernet twice).
  std::array<std::uint64_t, net::kProtocolCount> occurrences{};

  double percent(net::Protocol p) const;
};

HeaderOccurrenceResult analyze_header_occurrence(
    const std::vector<AcapFile>& files);

// --- Per-site header variety (Fig. 11) ------------------------------------

struct SiteHeaderVariety {
  std::string site;
  std::size_t distinct_headers = 0;  ///< y1-axis of Fig. 11.
  std::size_t deepest_stack = 0;     ///< y2-axis of Fig. 11.
};

std::vector<SiteHeaderVariety> analyze_site_header_variety(
    const std::vector<AcapFile>& files);

// --- Flows (Fig. 13 and the flow-size aggregation) ------------------------

struct SampleFlowCount {
  std::string site;
  util::Nanos start = 0;
  std::size_t flows = 0;
};

/// Distinct flows in each sample (each AcapFile is one sample window).
std::vector<SampleFlowCount> analyze_flows_per_sample(
    const std::vector<AcapFile>& files);

struct FlowAggregate {
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;  ///< Sum of original frame lengths.
  util::Nanos first_seen = 0;
  util::Nanos last_seen = 0;
  std::uint32_t rst_frames = 0;
  std::uint32_t samples = 0;  ///< Distinct samples the flow appeared in.
};

/// Cross-sample flow stitching: "we also analyzed across samples to piece
/// together flow snippets and aggregate their packets."
std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash> aggregate_flows(
    const std::vector<AcapFile>& files);

// --- Flow size & duration distributions (Section 4's profile definition:
// "the sizes and durations of flows") -----------------------------------

struct FlowDistributionResult {
  std::uint64_t flows = 0;
  /// Log-decade byte buckets: [1,10), [10,100), ... aggregated flow bytes.
  util::Histogram size_histogram = util::Histogram(
      {1, 10, 100, 1000, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11});
  /// Observed flow spans in seconds (snippet first-seen to last-seen).
  util::Histogram duration_histogram =
      util::Histogram({0, 1, 5, 20, 60, 300, 1800, 7200, 86400});
  std::uint64_t largest_flow_bytes = 0;
  // Size quantiles, computed with one sort via util::percentiles (the
  // flow-size tail is what Section 4 calls heavy; p95/p99 locate it).
  double median_flow_bytes = 0.0;
  double p95_flow_bytes = 0.0;
  double p99_flow_bytes = 0.0;
};

FlowDistributionResult analyze_flow_distribution(
    const std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>& flows);

// --- TCP control information (Section 4: e.g. RST-flagged packets) --------

struct TcpControlResult {
  std::uint64_t tcp_frames = 0;
  std::uint64_t syn = 0;
  std::uint64_t fin = 0;
  std::uint64_t rst = 0;
  std::uint64_t pure_ack = 0;  ///< ACK set, no payload on the wire.
};

TcpControlResult analyze_tcp_control(const std::vector<AcapFile>& files);

// --- Typical encapsulation stacks (Section 8.2's examples) -----------------

struct StackCount {
  std::string stack;  ///< e.g. "eth/vlan/mpls/mpls/pw/eth/ipv4/tcp/tls".
  std::uint64_t frames = 0;
  double fraction = 0.0;  ///< Of all frames.
};

/// The `k` most frequent abstract header stacks — the data behind the
/// paper's "examples of typical encapsulations include ..." passage.
std::vector<StackCount> analyze_top_stacks(const std::vector<AcapFile>& files,
                                           std::size_t k = 10);

// --- Encapsulation / tagging (Fig. 12's VLAN/MPLS finding) ----------------

struct TaggingResult {
  std::uint64_t frames = 0;
  std::uint64_t vlan_tagged = 0;
  std::uint64_t mpls_tagged = 0;
  std::uint64_t both_tagged = 0;
  std::uint64_t untagged = 0;
};

TaggingResult analyze_tagging(const std::vector<AcapFile>& files);

// --- Every analysis above in one walk over the records ---------------------

/// One site's capture-volume accounting for a run: how many sample
/// windows it contributed, what hit the wire, and what survived to pcap.
struct SiteLoad {
  std::string site;
  std::uint64_t samples = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t pcap_bytes = 0;
  std::uint64_t switch_drops_suspected = 0;
};

/// The partial results of every analysis over a run of files, each record
/// folded once into all of them (the per-analysis functions above fold the
/// same per-record steps and are its reference). Tallies of adjacent runs
/// merge, in file order, into the tally of the whole run.
struct ProfileTally {
  /// Protocols seen at a site (truncated/malformed excluded) and its
  /// deepest stack: SiteHeaderVariety's distinct_headers is the count of
  /// `protocols`.
  struct Variety {
    std::bitset<net::kProtocolCount> protocols;
    std::size_t deepest_stack = 0;
  };

  FrameSizeResult frame_sizes;
  HeaderOccurrenceResult header_occurrence;
  TcpControlResult tcp_control;
  TaggingResult tagging;
  /// Frames per abstract header stack.
  std::map<std::vector<net::Protocol>, std::uint64_t> stack_counts;
  std::vector<SampleFlowCount> flows_per_sample;  ///< In file order.
  std::map<std::string, SiteLoad> site_loads;
  std::map<std::string, FrameSizeResult> site_frame_sizes;
  std::map<std::string, Variety> site_variety;
  /// Flows stitched across the tallied samples.
  std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash> flows;

  ProfileTally() = default;
  /// Tally `files`, digested from `captures` position for position, in
  /// contiguous chunks on the analysis pool (`PATCHWORK_THREADS` workers).
  /// The chunks merge in chunk order; their flow maps merge through the
  /// same fixed shards as aggregate_flows, so the result is identical at
  /// any thread count.
  ProfileTally(const std::vector<AcapFile>& files,
               const std::vector<RawCapture>& captures);

  /// Fold one sample in; `pcap_bytes` is the size of its raw pcap.
  void add(const AcapFile& file, std::uint64_t pcap_bytes);
  /// Fold in `next`, the tally of the files that follow this tally's.
  void merge(ProfileTally&& next);

  /// The `k` most frequent stacks, selected from the summed counts.
  std::vector<StackCount> top_stacks(std::size_t k = 10) const;
};

}  // namespace patchwork::analysis
