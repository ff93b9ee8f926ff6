// Output checks computed apart from the program: a pcap walk written here
// from the file format, and the space-saving bound of the epoch record's
// top-flow sketch against the exact per-flow totals.
#pragma once

#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "archive/record.hpp"
#include "core/coordinator.hpp"

namespace epochbench {

namespace pw = patchwork;

/// Walk every capture's pcap bytes: count well-formed records, demand
/// incl_len <= snaplen and incl_len <= orig_len, and compare the counts
/// with the digest's frame total and each site's frame load (whose sum
/// must be that total). Appends a line per disagreement to `failures`.
void check_pcaps(const pw::core::ProfileRun& run,
                 const pw::analysis::ProfileReport& report,
                 std::uint32_t snaplen, std::vector<std::string>& failures);

/// Every sketch entry must bracket the flow's exact byte total from
/// flow_aggregates: count - error <= true <= count.
void check_topk_bound(const pw::analysis::ProfileReport& report,
                      const pw::archive::TopFlowSketch& sketch,
                      std::vector<std::string>& failures);

}  // namespace epochbench
