#include "archive_session.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "archive/compactor.hpp"
#include "archive/federation.hpp"
#include "archive/query.hpp"
#include "archive/query_cache.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace epochbench {

namespace {

namespace ar = pw::archive;

// Every record summarises 600 flows of its origin's 4096 in a 256-entry
// sketch; one record is appended per eight queries; compaction targets a
// quarter of each archive's size.
constexpr std::size_t kFlowsPerRecord = 600;
constexpr std::size_t kFlowUniverse = 4096;
constexpr std::size_t kSketchCapacity = 256;
constexpr std::size_t kAppendEvery = 8;
constexpr double kCompactBudgetShare = 0.25;

/// One synthetic daily record, shaped like a real epoch: the paper's
/// frame-size buckets, eight site loads, protocol and tagging counts, and
/// a top-flow sketch summarising kFlowsPerRecord flows. The sketch is
/// built exactly (top `capacity` flows, floor = the largest count left
/// out), which is a valid space-saving state.
ar::EpochRecord make_record(std::uint64_t day, pw::util::Rng& rng) {
  ar::EpochRecord r;
  r.label = "day" + std::to_string(day);
  r.start_nanos = day * pw::util::kDay;
  r.duration_nanos = pw::util::kDay;
  r.offered_bps_sum = 1e12 + 1e9 * static_cast<double>(rng.uniform_u64(0, 97));
  r.samples = rng.uniform_u64(24, 72);
  r.frames = rng.uniform_u64(50000, 150000);
  r.pcap_bytes = r.frames * rng.uniform_u64(90, 200);
  r.frame_sizes.edges = {64, 65, 128, 256, 512, 1024, 1519, 2048, 4096, 9217};
  r.frame_sizes.counts.assign(r.frame_sizes.edges.size() - 1, 0);
  for (std::uint64_t& c : r.frame_sizes.counts) c = rng.uniform_u64(100, 20000);
  r.occurrence_frames = r.frames;
  r.protocol_occurrences.assign(pw::net::kProtocolCount, 0);
  for (std::uint64_t& c : r.protocol_occurrences) {
    c = rng.uniform_u64(0, r.frames);
  }
  r.tcp_frames = r.frames * 9 / 10;
  r.tcp_syn = r.tcp_frames / 50;
  r.tcp_pure_ack = r.tcp_frames / 3;
  r.tag_frames = r.frames;
  r.vlan_tagged = r.frames * 3 / 4;
  r.untagged = r.frames - r.vlan_tagged;
  r.flow_snippets = kFlowsPerRecord;
  for (int s = 0; s < 8; ++s) {
    ar::SiteEpochLoad load;
    load.site = "S" + std::to_string(s);
    load.samples = r.samples / 8;
    load.frames = r.frames / 8;
    load.wire_bytes = rng.uniform_u64(1 << 20, 1 << 28);
    load.pcap_bytes = r.pcap_bytes / 8;
    load.frame_sizes = r.frame_sizes;
    r.site_loads.push_back(std::move(load));
  }

  // Distinct keys: the first kFlowsPerRecord steps of a Fisher-Yates
  // shuffle of the origin's flow universe.
  std::vector<std::uint64_t> keys(kFlowUniverse);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<ar::TopFlowSketch::Entry> flows;
  flows.reserve(kFlowsPerRecord);
  for (std::size_t f = 0; f < kFlowsPerRecord; ++f) {
    std::swap(keys[f], keys[rng.uniform_u64(f, keys.size() - 1)]);
    flows.push_back({"flow" + std::to_string(keys[f]),
                     rng.uniform_u64(1000, 5000000), 0});
  }
  std::sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  std::uint64_t floor = 0;
  if (flows.size() > kSketchCapacity) {
    floor = flows[kSketchCapacity].count;
    flows.resize(kSketchCapacity);
  }
  r.top_flows =
      ar::TopFlowSketch::from_parts(kSketchCapacity, floor, flows);
  return r;
}

struct Sums {
  std::uint64_t frames = 0;
  std::uint64_t samples = 0;
  std::uint64_t pcap_bytes = 0;

  void add(const ar::EpochRecord& r) {
    frames += r.frames;
    samples += r.samples;
    pcap_bytes += r.pcap_bytes;
  }
  static Sums of(const ar::EpochRecord& r) {
    return {r.frames, r.samples, r.pcap_bytes};
  }
  bool operator==(const Sums&) const = default;
};

/// Sum of the generated records with epoch index in [from, to].
Sums window_sums(const std::vector<const ar::EpochRecord*>& written,
                 std::uint64_t from, std::uint64_t to) {
  Sums s;
  for (std::uint64_t e = from; e <= to && e < written.size(); ++e) {
    s.add(*written[e]);
  }
  return s;
}

/// Read an archive back and demand it opens clean (no corrupt blocks, no
/// damaged tail, nothing skipped).
bool open_clean(const std::string& path, std::vector<ar::EpochRecord>* out,
                double* open_ms = nullptr) {
  ar::ArchiveReader reader;
  ar::OpenError error = ar::OpenError::kNone;
  const double ms = time_ms([&] { error = reader.open(path); });
  if (open_ms != nullptr) *open_ms = ms;
  if (error != ar::OpenError::kNone || reader.corrupt_blocks() != 0 ||
      reader.damaged_tail() || reader.skipped_newer_blocks() != 0) {
    return false;
  }
  *out = reader.take_records();
  return true;
}

pw::obs::Counter& cache_counter(const char* name, const char* help) {
  return pw::obs::registry().counter(name, help, {},
                                     pw::obs::Determinism::kWallClock);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace

std::vector<OriginRecords> make_origin_records(const ArchiveShape& shape,
                                               std::uint64_t seed) {
  const std::size_t appends = shape.queries / kAppendEvery;
  const std::size_t extra_per_origin =
      (appends + shape.origins - 1) / shape.origins;
  std::vector<OriginRecords> out(shape.origins);
  const pw::util::Rng root(seed);
  for (std::size_t o = 0; o < shape.origins; ++o) {
    pw::util::Rng rng = root.split(o);
    out[o].origin = "testbed" + std::to_string(o);
    for (std::size_t d = 0; d < shape.days; ++d) {
      out[o].base.push_back(make_record(d, rng));
    }
    for (std::size_t d = 0; d < extra_per_origin; ++d) {
      out[o].extra.push_back(make_record(shape.days + d, rng));
    }
  }
  return out;
}

SessionTimes run_archive_session(const ArchiveShape& shape,
                                 const std::vector<OriginRecords>& origins,
                                 const std::string& dir,
                                 std::uint64_t round_seed, Ledger& ledger,
                                 std::vector<std::string>& failures,
                                 LayerSamples* layers) {
  SessionTimes times;
  const std::size_t n = origins.size();
  auto fail = [&](const std::string& what) { failures.push_back(what); };
  std::vector<std::string> paths(n);
  std::vector<ar::ArchiveWriter> writers(n);
  // written[o][e]: the record origin o's archive holds at epoch index e.
  std::vector<std::vector<const ar::EpochRecord*>> written(n);
  std::uint64_t bytes_written = 0;

  // 1. Daily appends into each origin's own archive.
  std::uint64_t append_failures = 0;
  const Clock::time_point t_append = Clock::now();
  for (std::size_t o = 0; o < n; ++o) {
    paths[o] = dir + "/" + origins[o].origin + ".pwa";
    if (writers[o].open(paths[o]) != ar::OpenError::kNone) {
      ++append_failures;
      continue;
    }
    for (const ar::EpochRecord& r : origins[o].base) {
      if (!writers[o].append(r)) ++append_failures;
      written[o].push_back(&r);
    }
  }
  times.append_s = seconds_since(t_append);
  times.appends = n * origins.front().base.size();
  ledger.add("archive_appends", times.appends, append_failures);

  // 2. Federate them.
  std::vector<ar::FederationInput> inputs;
  std::vector<std::uint64_t> merged_sizes(n);
  for (std::size_t o = 0; o < n; ++o) {
    inputs.push_back({paths[o], origins[o].origin});
    merged_sizes[o] = file_bytes(paths[o]);
    bytes_written += merged_sizes[o];
  }
  const std::string merged_path = dir + "/federated.pwa";
  ar::FederationResult merged;
  const Clock::time_point t_merge = Clock::now();
  merged = ar::merge_archives(inputs, merged_path);
  times.merge_s = seconds_since(t_merge);
  ledger.add("archive_merges", 1, merged.ok() ? 0 : 1);
  bytes_written += merged.bytes_written;
  {
    std::vector<ar::EpochRecord> records;
    double open_ms = 0.0;
    if (!open_clean(merged_path, &records, &open_ms)) {
      fail("merged archive does not open clean");
    }
    Sums expected;
    for (const auto& w : written) {
      for (const ar::EpochRecord* r : w) expected.add(*r);
    }
    Sums got;
    for (const ar::EpochRecord& r : records) got.add(r);
    if (got != expected) {
      fail("merged archive sums differ from the generated records");
    }
    if (!std::is_sorted(records.begin(), records.end(),
                        ar::federated_record_less)) {
      fail("merged records are not in federated_record_less order");
    }
    if (layers != nullptr) {
      (*layers)["archive.open_ms"].push_back(open_ms);
      (*layers)["archive.query_build_ms"].push_back(time_ms([&] {
        const ar::ArchiveQuery query(std::move(records));
        if (Sums::of(query.totals()) != expected) {
          fail("in-memory query totals differ from the generated records");
        }
      }));
    }
  }

  // 3. Windowed queries with appends landing in between. Three in eight
  // repeat one of four fixed windows per origin (QueryCache: hits until an
  // append changes the file); the rest ask a fresh window of the file.
  pw::util::Rng rng(round_seed);
  ar::QueryCache cache(64);
  auto& hits = cache_counter("patchwork_archive_query_cache_hits_total",
                             "Archive queries served from the cache");
  auto& misses = cache_counter("patchwork_archive_query_cache_misses_total",
                               "Archive queries that had to load the file");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  const std::uint64_t days = shape.days;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> repeated = {
      {0, std::min<std::uint64_t>(6, days - 1)},
      {days > 30 ? days - 30 : 0, days - 1},
      {0, days / 2},
      {days / 4, 3 * days / 4},
  };
  std::size_t next_extra = 0;
  std::uint64_t query_failures = 0;
  std::uint64_t extra_failures = 0;
  std::uint64_t extras = 0;
  for (std::size_t i = 0; i < shape.queries; ++i) {
    if (i % kAppendEvery == kAppendEvery - 1) {
      const std::size_t o = next_extra % n;
      const ar::EpochRecord& r = origins[o].extra.at(next_extra / n);
      bool ok = false;
      times.append_s += time_ms([&] { ok = writers[o].append(r); }) / 1e3;
      ++times.appends;
      ++extras;
      if (!ok) ++extra_failures;
      written[o].push_back(&r);
      ++next_extra;
    }
    const std::size_t o = i % n;
    const std::uint64_t held = written[o].size();
    ar::QueryWindow window;
    if (i % 8 < 3) {
      const auto& [from, to] = repeated[(i / n) % repeated.size()];
      window.from_epoch = from;
      window.to_epoch = to;
    } else {
      const std::uint64_t from = rng.uniform_u64(0, held - 1);
      window.from_epoch = from;
      window.to_epoch = std::min(held - 1, from + rng.uniform_u64(0, 60));
    }
    ar::OpenStatus status;
    Sums got;
    times.query_ms.push_back(time_ms([&] {
      got = i % 8 < 3
                ? Sums::of(cache.get(paths[o], window, &status)->totals())
                : Sums::of(ar::ArchiveQuery::from_file(paths[o], window,
                                                       &status)
                               .totals());
    }));
    if (!status.clean()) ++query_failures;
    if (got != window_sums(written[o], *window.from_epoch,
                           *window.to_epoch)) {
      fail("window sums differ on " + origins[o].origin + " [" +
           std::to_string(*window.from_epoch) + ", " +
           std::to_string(*window.to_epoch) + "]");
    }
  }
  ledger.add("archive_appends", extras, extra_failures);
  ledger.add("archive_queries", shape.queries, query_failures);
  if (layers != nullptr) {
    (*layers)["archive.cache_hits"].push_back(
        static_cast<double>(hits.value() - hits0));
    (*layers)["archive.cache_misses"].push_back(
        static_cast<double>(misses.value() - misses0));
  }

  // 4. Compact each origin to its budget, then GC.
  double compact_ms = 0.0, gc_ms = 0.0;
  std::uint64_t commit_failures = 0;
  for (std::size_t o = 0; o < n; ++o) {
    bytes_written += file_bytes(paths[o]) - merged_sizes[o];  // Extras.
    ar::CompactionOptions options;
    options.storage_budget_bytes = static_cast<std::uint64_t>(
        static_cast<double>(file_bytes(paths[o])) *
        kCompactBudgetShare);
    ar::CompactionResult compacted;
    const double c_ms = time_ms(
        [&] { compacted = ar::compact_archive(paths[o], options); });
    ar::CompactionResult collected;
    const double g_ms =
        time_ms([&] { collected = ar::gc_archive(paths[o]); });
    compact_ms += c_ms;
    gc_ms += g_ms;
    times.compact_s.push_back((c_ms + g_ms) / 1e3);
    commit_failures += (compacted.ok() && compacted.changed ? 0 : 1) +
                       (collected.ok() ? 0 : 1);
    bytes_written += compacted.bytes_appended + collected.bytes_after;

    // Window sums after compaction: a rollup overlapping a window counts
    // whole, so the oracle sums every generated record its span covers.
    std::vector<ar::EpochRecord> records;
    if (!open_clean(paths[o], &records)) {
      fail(origins[o].origin + " does not open clean after compaction");
      continue;
    }
    const std::uint64_t held = written[o].size();
    for (const auto& [from, to] : repeated) {
      ar::QueryWindow window;
      window.from_epoch = from;
      window.to_epoch = to;
      Sums want;
      for (const ar::EpochRecord& r : records) {
        if (r.last_epoch >= from && r.first_epoch <= to) {
          const Sums covered =
              window_sums(written[o], r.first_epoch, r.last_epoch);
          want.frames += covered.frames;
          want.samples += covered.samples;
          want.pcap_bytes += covered.pcap_bytes;
        }
      }
      const ar::ArchiveQuery query(records, window);
      if (Sums::of(query.totals()) != want) {
        fail("window sums differ after compaction on " + origins[o].origin);
      }
    }
    if (Sums::of(ar::ArchiveQuery(std::move(records)).totals()) !=
        window_sums(written[o], 0, held - 1)) {
      fail("archive totals changed by compaction on " + origins[o].origin);
    }
  }
  ledger.add("compaction_commits", 2 * n, commit_failures);
  if (layers != nullptr) {
    (*layers)["archive.merge_ms"].push_back(times.merge_s * 1e3);
    (*layers)["archive.compact_ms"].push_back(compact_ms);
    (*layers)["archive.gc_ms"].push_back(gc_ms);
    (*layers)["archive.bytes_written"].push_back(
        static_cast<double>(bytes_written));
  }
  return times;
}

}  // namespace epochbench
