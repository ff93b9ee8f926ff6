// End-to-end offline analysis pipeline (Fig. 9):
//   gathered captures -> Digest -> Analyze -> Process (CSV).
//
// This is the phase that runs *outside* the testbed, after the coordinator
// has downloaded the compressed captures and logs. The Analyze step is one
// walk over the records (ProfileTally) that groups them by site as it
// goes; the Index step (analysis/index.hpp) serves callers that read only
// some of the files.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"

namespace patchwork::analysis {

struct ProfileReport {
  DigestStats digest_stats;
  FrameSizeResult frame_sizes;
  HeaderOccurrenceResult header_occurrence;
  std::vector<SiteHeaderVariety> site_variety;
  std::vector<SampleFlowCount> flows_per_sample;
  TcpControlResult tcp_control;
  TaggingResult tagging;
  std::vector<StackCount> top_stacks;
  FlowDistributionResult flow_distribution;
  std::uint64_t distinct_flows = 0;
  std::uint64_t largest_flow_bytes = 0;
  /// Stitched cross-sample flow aggregates (the flow_aggregate.csv data,
  /// kept for consumers like the archive's top-flow summary).
  std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash> flow_aggregates;
  /// Per-site accounting, sorted by site name.
  std::vector<SiteLoad> site_loads;
  /// Per-site frame-size distributions, keyed by site.
  std::map<std::string, FrameSizeResult> site_frame_sizes;
  /// CSV outputs of the Process step, keyed by file name.
  std::map<std::string, std::string> csv_files;
};

/// Run the full pipeline over a gathered profile.
ProfileReport run_pipeline(const std::vector<RawCapture>& captures);

/// Digest only, for callers that index the files or run analyses
/// selectively.
struct DigestedProfile {
  std::vector<AcapFile> files;
  DigestStats stats;
};
DigestedProfile digest_profile(const std::vector<RawCapture>& captures);

}  // namespace patchwork::analysis
