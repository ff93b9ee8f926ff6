#include "checks.hpp"

#include <cstdint>
#include <map>
#include <unordered_map>

namespace epochbench {

namespace {

/// Classic pcap, read straight from the format: a 24-byte global header
/// (magic, version, zone, sigfigs, snaplen, linktype) and per record a
/// 16-byte header (ts_sec, ts_frac, incl_len, orig_len) before incl_len
/// bytes. Either byte order.
struct PcapWalk {
  bool header_ok = false;
  std::uint32_t snaplen = 0;
  std::uint64_t records = 0;
  std::uint64_t oversized = 0;  ///< incl_len > snaplen or > orig_len.
  bool torn = false;            ///< A record runs past the end.
};

std::uint32_t read_u32(const std::uint8_t* p, bool swap) {
  const std::uint32_t le = static_cast<std::uint32_t>(p[0]) |
                           static_cast<std::uint32_t>(p[1]) << 8 |
                           static_cast<std::uint32_t>(p[2]) << 16 |
                           static_cast<std::uint32_t>(p[3]) << 24;
  if (!swap) return le;
  return (le >> 24) | ((le >> 8) & 0xff00u) | ((le << 8) & 0xff0000u) |
         (le << 24);
}

PcapWalk walk_pcap(const std::vector<std::uint8_t>& bytes) {
  PcapWalk w;
  if (bytes.size() < 24) return w;
  const std::uint32_t magic = read_u32(bytes.data(), false);
  bool swap = false;
  if (magic == 0xa1b2c3d4u || magic == 0xa1b23c4du) {
    swap = false;
  } else if (magic == 0xd4c3b2a1u || magic == 0x4d3cb2a1u) {
    swap = true;
  } else {
    return w;
  }
  w.header_ok = true;
  w.snaplen = read_u32(bytes.data() + 16, swap);
  std::size_t pos = 24;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 16) {
      w.torn = true;
      break;
    }
    const std::uint32_t incl = read_u32(bytes.data() + pos + 8, swap);
    const std::uint32_t orig = read_u32(bytes.data() + pos + 12, swap);
    pos += 16;
    if (bytes.size() - pos < incl) {
      w.torn = true;
      break;
    }
    if (incl > w.snaplen || incl > orig) ++w.oversized;
    ++w.records;
    pos += incl;
  }
  return w;
}

}  // namespace

void check_pcaps(const pw::core::ProfileRun& run,
                 const pw::analysis::ProfileReport& report,
                 std::uint32_t snaplen, std::vector<std::string>& failures) {
  std::uint64_t total = 0;
  std::map<std::string, std::uint64_t> per_site;
  for (std::size_t i = 0; i < run.captures.size(); ++i) {
    const pw::analysis::RawCapture& c = run.captures[i];
    const PcapWalk w = walk_pcap(c.pcap);
    const std::string where = "capture " + std::to_string(i) + " (" + c.site +
                              " p" + std::to_string(c.port) + ")";
    if (!w.header_ok) {
      failures.push_back(where + ": no pcap global header");
      continue;
    }
    if (w.torn) failures.push_back(where + ": record runs past the end");
    if (w.oversized > 0) {
      failures.push_back(where + ": " + std::to_string(w.oversized) +
                         " records with incl_len over snaplen or orig_len");
    }
    if (w.snaplen > snaplen) {
      failures.push_back(where + ": file snaplen " +
                         std::to_string(w.snaplen) + " over the configured " +
                         std::to_string(snaplen));
    }
    total += w.records;
    per_site[c.site] += w.records;
  }
  if (total != report.digest_stats.frames) {
    failures.push_back("pcap walk counts " + std::to_string(total) +
                       " records, digest_stats.frames is " +
                       std::to_string(report.digest_stats.frames));
  }
  std::uint64_t site_sum = 0;
  for (const pw::analysis::SiteLoad& load : report.site_loads) {
    site_sum += load.frames;
    const auto it = per_site.find(load.site);
    const std::uint64_t walked = it == per_site.end() ? 0 : it->second;
    if (walked != load.frames) {
      failures.push_back("site " + load.site + ": pcap walk counts " +
                         std::to_string(walked) + " frames, site load says " +
                         std::to_string(load.frames));
    }
  }
  if (site_sum != total) {
    failures.push_back("per-site frame loads sum to " +
                       std::to_string(site_sum) + ", pcap walk total is " +
                       std::to_string(total));
  }
}

void check_topk_bound(const pw::analysis::ProfileReport& report,
                      const pw::archive::TopFlowSketch& sketch,
                      std::vector<std::string>& failures) {
  std::unordered_map<std::string, std::uint64_t> exact;
  exact.reserve(report.flow_aggregates.size());
  for (const auto& [key, aggregate] : report.flow_aggregates) {
    exact[key.to_string()] += aggregate.wire_bytes;
  }
  if (sketch.size() == 0 && !exact.empty()) {
    failures.push_back("top-flow sketch is empty");
  }
  for (const pw::archive::TopFlowSketch::Entry& e : sketch.entries()) {
    const auto it = exact.find(e.key);
    const std::uint64_t truth = it == exact.end() ? 0 : it->second;
    if (e.error > e.count || e.count - e.error > truth || truth > e.count) {
      failures.push_back("sketch entry " + e.key + ": count " +
                         std::to_string(e.count) + " error " +
                         std::to_string(e.error) + " does not bracket " +
                         std::to_string(truth));
      return;
    }
  }
  // Space-saving keeps every flow heavier than its floor: the exact
  // top-K above the floor must all be present.
  std::unordered_map<std::string, bool> held;
  for (const auto& e : sketch.entries()) held[e.key] = true;
  for (const auto& [key, truth] : exact) {
    if (truth > sketch.floor() && !held.count(key)) {
      failures.push_back("flow " + key + " (" + std::to_string(truth) +
                         " bytes) is above the sketch floor " +
                         std::to_string(sketch.floor()) + " but missing");
      return;
    }
  }
}

}  // namespace epochbench
