#include "analysis/analyses.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace patchwork::analysis {

std::vector<double> paper_frame_size_edges() {
  return {64, 65, 128, 256, 512, 1024, 1519, 2048, 4096, 9217};
}

double FrameSizeResult::fraction_in(double lo) const {
  for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
    if (histogram.bucket_lo(i) == lo) return histogram.fraction(i);
  }
  return 0.0;
}

double FrameSizeResult::jumbo_fraction() const {
  if (frames == 0) return 0.0;
  std::uint64_t jumbo = 0;
  for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
    if (histogram.bucket_lo(i) >= 1519) jumbo += histogram.bucket(i);
  }
  jumbo += histogram.overflow();
  return static_cast<double>(jumbo) / static_cast<double>(frames);
}

namespace {

using FlowMap = std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>;

// Per-record steps: the one walk (ProfileTally::add) and every
// per-analysis reference function fold records through these same calls.

void count(FrameSizeResult& result, const AcapRecord& r) {
  result.histogram.add(static_cast<double>(r.wire_length));
  ++result.frames;
}

void count(HeaderOccurrenceResult& result, const AcapRecord& r) {
  ++result.frames;
  for (net::Protocol p : r.stack) {
    ++result.occurrences[static_cast<std::size_t>(p)];
  }
}

void count(ProfileTally::Variety& variety, const AcapRecord& r) {
  for (net::Protocol p : r.stack) {
    if (p != net::Protocol::kTruncated && p != net::Protocol::kMalformed) {
      variety.protocols.set(static_cast<std::size_t>(p));
    }
  }
  variety.deepest_stack = std::max(variety.deepest_stack, r.header_depth());
}

void count(TcpControlResult& result, const AcapRecord& r) {
  if (!r.has(net::Protocol::kTcp)) return;
  ++result.tcp_frames;
  using namespace net::tcp_flags;
  if (r.tcp_flags & kSyn) ++result.syn;
  if (r.tcp_flags & kFin) ++result.fin;
  if (r.tcp_flags & kRst) ++result.rst;
  // A pure ACK ends at the TCP header: nothing followed on the wire.
  if ((r.tcp_flags & kAck) && !(r.tcp_flags & (kSyn | kFin | kRst)) &&
      r.stack.back() == net::Protocol::kTcp) {
    ++result.pure_ack;
  }
}

void count(TaggingResult& result, const AcapRecord& r) {
  ++result.frames;
  const bool vlan = r.has(net::Protocol::kVlan);
  const bool mpls = r.has(net::Protocol::kMpls);
  if (vlan) ++result.vlan_tagged;
  if (mpls) ++result.mpls_tagged;
  if (vlan && mpls) ++result.both_tagged;
  if (!vlan && !mpls) ++result.untagged;
}

void count(std::map<std::vector<net::Protocol>, std::uint64_t>& stacks,
           const AcapRecord& r) {
  ++stacks[r.stack];
}

/// Fold a record into the flow map of the one sample that starts at
/// `start`: each flow in it counts that sample once.
void count(FlowMap& sample, const AcapRecord& r, util::Nanos start) {
  const util::Nanos seen = r.timestamp + start;
  FlowAggregate& agg = sample[r.flow];
  if (agg.frames == 0) {
    agg.first_seen = agg.last_seen = seen;
    agg.samples = 1;
  } else {
    agg.first_seen = std::min(agg.first_seen, seen);
    agg.last_seen = std::max(agg.last_seen, seen);
  }
  ++agg.frames;
  agg.wire_bytes += r.wire_length;
  if (r.tcp_flags & net::tcp_flags::kRst) ++agg.rst_frames;
}

/// Merge a partial aggregate of the same flow into `dst`. Every field is a
/// sum, min, or max, so the merged value is independent of merge order.
void merge_aggregate(FlowAggregate& dst, const FlowAggregate& src) {
  dst.first_seen = std::min(dst.first_seen, src.first_seen);
  dst.last_seen = std::max(dst.last_seen, src.last_seen);
  dst.frames += src.frames;
  dst.wire_bytes += src.wire_bytes;
  dst.rst_frames += src.rst_frames;
  dst.samples += src.samples;
}

/// Move every flow of `src` into `dst`. Flows `dst` lacks are spliced
/// over as nodes, never copied.
void merge_flows(FlowMap& dst, FlowMap src) {
  dst.merge(src);
  for (const auto& [key, agg] : src) merge_aggregate(dst[key], agg);
}

/// The distinct flows of one sample.
FlowMap sample_flows(const AcapFile& f) {
  FlowMap sample;
  for (const AcapRecord& r : f.records) count(sample, r, f.start);
  return sample;
}

/// Split [0, n) into contiguous chunks, one per analysis worker, and fold
/// each chunk's positions into its own partial result.
template <typename Partial, typename Fold>
std::vector<Partial> fold_chunks(std::size_t n, Fold&& fold) {
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(util::thread_count(), n));
  std::vector<Partial> partial(chunks);
  util::parallel_for(chunks, [&](std::size_t c) {
    for (std::size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
      fold(partial[c], i);
    }
  });
  return partial;
}

/// Sharded two-phase merge of per-chunk flow maps. Phase 1 moves each
/// chunk's flows into kFlowShards maps keyed by FlowKeyHash % kFlowShards.
/// Phase 2 merges shard s across all chunks (chunk order, one task per
/// shard — tasks never touch another task's shard, so no locks). The shard
/// count is fixed so the shard a flow lands in, and therefore the merged
/// content, is the same at any thread count; merge order cannot show in
/// the result anyway because every FlowAggregate field merges
/// commutatively.
FlowMap merge_flow_chunks(std::vector<FlowMap>& chunks) {
  constexpr std::size_t kFlowShards = 16;
  std::vector<std::array<FlowMap, kFlowShards>> shards(chunks.size());
  util::parallel_for(chunks.size(), [&](std::size_t c) {
    while (!chunks[c].empty()) {
      auto node = chunks[c].extract(chunks[c].begin());
      shards[c][FlowKeyHash{}(node.key()) % kFlowShards].insert(
          std::move(node));
    }
  });
  util::parallel_for(kFlowShards, [&](std::size_t s) {
    for (std::size_t c = 1; c < shards.size(); ++c) {
      merge_flows(shards[0][s], std::move(shards[c][s]));
    }
  });
  std::size_t total = 0;
  for (const FlowMap& shard : shards[0]) total += shard.size();
  FlowMap out(total);
  for (FlowMap& shard : shards[0]) out.merge(shard);
  return out;
}

std::vector<StackCount> select_top_stacks(
    const std::map<std::vector<net::Protocol>, std::uint64_t>& counts,
    std::size_t k) {
  std::uint64_t total = 0;
  for (const auto& [stack, n] : counts) total += n;
  std::vector<StackCount> out;
  for (const auto& [protocols, n] : counts) {
    std::string stack;
    for (net::Protocol p : protocols) {
      if (!stack.empty()) stack += '/';
      stack += net::to_string(p);
    }
    out.push_back(StackCount{
        stack, n,
        total ? static_cast<double>(n) / static_cast<double>(total) : 0.0});
  }
  std::sort(out.begin(), out.end(), [](const StackCount& a,
                                       const StackCount& b) {
    if (a.frames != b.frames) return a.frames > b.frames;
    return a.stack < b.stack;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

/// Fold every record of `files` (those of `site` only, when given) into a
/// fresh result.
template <typename Result>
Result count_all(const std::vector<AcapFile>& files,
                 const std::string* site = nullptr) {
  Result result;
  for (const AcapFile& f : files) {
    if (site && f.site != *site) continue;
    for (const AcapRecord& r : f.records) count(result, r);
  }
  return result;
}

}  // namespace

FrameSizeResult analyze_frame_sizes(const std::vector<AcapFile>& files) {
  return count_all<FrameSizeResult>(files);
}

FrameSizeResult analyze_frame_sizes_site(const std::vector<AcapFile>& files,
                                         const std::string& site) {
  return count_all<FrameSizeResult>(files, &site);
}

double HeaderOccurrenceResult::percent(net::Protocol p) const {
  if (frames == 0) return 0.0;
  return 100.0 *
         static_cast<double>(occurrences[static_cast<std::size_t>(p)]) /
         static_cast<double>(frames);
}

HeaderOccurrenceResult analyze_header_occurrence(
    const std::vector<AcapFile>& files) {
  return count_all<HeaderOccurrenceResult>(files);
}

std::vector<SiteHeaderVariety> analyze_site_header_variety(
    const std::vector<AcapFile>& files) {
  std::map<std::string, ProfileTally::Variety> sites;
  for (const AcapFile& f : files) {
    ProfileTally::Variety& variety = sites[f.site];
    for (const AcapRecord& r : f.records) count(variety, r);
  }
  std::vector<SiteHeaderVariety> out;
  for (const auto& [site, v] : sites) {
    out.push_back({site, v.protocols.count(), v.deepest_stack});
  }
  return out;
}

std::vector<SampleFlowCount> analyze_flows_per_sample(
    const std::vector<AcapFile>& files) {
  std::vector<SampleFlowCount> out;
  for (const AcapFile& f : files) {
    out.push_back(SampleFlowCount{f.site, f.start, sample_flows(f).size()});
  }
  return out;
}

std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash> aggregate_flows(
    const std::vector<AcapFile>& files) {
  std::vector<FlowMap> chunks =
      fold_chunks<FlowMap>(files.size(), [&](FlowMap& flows, std::size_t i) {
        merge_flows(flows, sample_flows(files[i]));
      });
  return merge_flow_chunks(chunks);
}

FlowDistributionResult analyze_flow_distribution(
    const std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>& flows) {
  FlowDistributionResult result;
  std::vector<double> sizes;
  sizes.reserve(flows.size());
  for (const auto& [key, agg] : flows) {
    ++result.flows;
    result.size_histogram.add(static_cast<double>(agg.wire_bytes));
    result.duration_histogram.add(
        util::to_seconds(agg.last_seen - agg.first_seen));
    result.largest_flow_bytes =
        std::max(result.largest_flow_bytes, agg.wire_bytes);
    sizes.push_back(static_cast<double>(agg.wire_bytes));
  }
  if (!sizes.empty()) {
    const double ps[] = {50.0, 95.0, 99.0};
    const std::vector<double> qs = util::percentiles(sizes, ps);
    result.median_flow_bytes = qs[0];
    result.p95_flow_bytes = qs[1];
    result.p99_flow_bytes = qs[2];
  }
  return result;
}

TcpControlResult analyze_tcp_control(const std::vector<AcapFile>& files) {
  return count_all<TcpControlResult>(files);
}

std::vector<StackCount> analyze_top_stacks(const std::vector<AcapFile>& files,
                                           std::size_t k) {
  return select_top_stacks(
      count_all<std::map<std::vector<net::Protocol>, std::uint64_t>>(files),
      k);
}

TaggingResult analyze_tagging(const std::vector<AcapFile>& files) {
  return count_all<TaggingResult>(files);
}

ProfileTally::ProfileTally(const std::vector<AcapFile>& files,
                           const std::vector<RawCapture>& captures) {
  std::vector<ProfileTally> chunks = fold_chunks<ProfileTally>(
      files.size(), [&](ProfileTally& tally, std::size_t i) {
        tally.add(files[i], captures[i].pcap.size());
      });
  std::vector<FlowMap> flow_chunks;
  for (ProfileTally& chunk : chunks) {
    flow_chunks.push_back(std::exchange(chunk.flows, {}));
    merge(std::move(chunk));
  }
  flows = merge_flow_chunks(flow_chunks);
}

void ProfileTally::add(const AcapFile& file, std::uint64_t pcap_bytes) {
  SiteLoad& load = site_loads[file.site];
  FrameSizeResult& site_sizes = site_frame_sizes[file.site];
  Variety& variety = site_variety[file.site];
  FlowMap sample;
  for (const AcapRecord& r : file.records) {
    count(frame_sizes, r);
    count(site_sizes, r);
    count(header_occurrence, r);
    count(variety, r);
    count(tcp_control, r);
    count(tagging, r);
    count(stack_counts, r);
    count(sample, r, file.start);
    load.wire_bytes += r.wire_length;
  }
  load.site = file.site;
  ++load.samples;
  load.frames += file.records.size();
  load.pcap_bytes += pcap_bytes;
  load.switch_drops_suspected += file.switch_drops_suspected;
  flows_per_sample.push_back(SampleFlowCount{file.site, file.start,
                                             sample.size()});
  merge_flows(flows, std::move(sample));
}

void ProfileTally::merge(ProfileTally&& next) {
  frame_sizes.histogram.merge(next.frame_sizes.histogram);
  frame_sizes.frames += next.frame_sizes.frames;
  header_occurrence.frames += next.header_occurrence.frames;
  for (std::size_t p = 0; p < net::kProtocolCount; ++p) {
    header_occurrence.occurrences[p] += next.header_occurrence.occurrences[p];
  }
  tcp_control.tcp_frames += next.tcp_control.tcp_frames;
  tcp_control.syn += next.tcp_control.syn;
  tcp_control.fin += next.tcp_control.fin;
  tcp_control.rst += next.tcp_control.rst;
  tcp_control.pure_ack += next.tcp_control.pure_ack;
  tagging.frames += next.tagging.frames;
  tagging.vlan_tagged += next.tagging.vlan_tagged;
  tagging.mpls_tagged += next.tagging.mpls_tagged;
  tagging.both_tagged += next.tagging.both_tagged;
  tagging.untagged += next.tagging.untagged;
  for (const auto& [stack, n] : next.stack_counts) stack_counts[stack] += n;
  std::move(next.flows_per_sample.begin(), next.flows_per_sample.end(),
            std::back_inserter(flows_per_sample));
  for (const auto& [site, src] : next.site_loads) {
    SiteLoad& dst = site_loads.try_emplace(site, SiteLoad{site}).first->second;
    dst.samples += src.samples;
    dst.frames += src.frames;
    dst.wire_bytes += src.wire_bytes;
    dst.pcap_bytes += src.pcap_bytes;
    dst.switch_drops_suspected += src.switch_drops_suspected;
  }
  for (const auto& [site, src] : next.site_frame_sizes) {
    site_frame_sizes[site].histogram.merge(src.histogram);
    site_frame_sizes[site].frames += src.frames;
  }
  for (const auto& [site, src] : next.site_variety) {
    Variety& dst = site_variety[site];
    dst.protocols |= src.protocols;
    dst.deepest_stack = std::max(dst.deepest_stack, src.deepest_stack);
  }
  merge_flows(flows, std::move(next.flows));
}

std::vector<StackCount> ProfileTally::top_stacks(std::size_t k) const {
  return select_top_stacks(stack_counts, k);
}

}  // namespace patchwork::analysis
