// Patchwork epoch benchmark: profile the federation, analyse the captures,
// fold the result into the archive, and run a federated archive session —
// in rounds, for a fixed number of seconds, on one of three workloads.
//
//   epochbench --workload wide_mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 drives the traced
// replica and prints the per-layer metrics instead. The last line of
// stdout is one JSON object: correct, attempted, failed, metrics.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "archive/writer.hpp"
#include "archive_session.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "profiling.hpp"
#include "util/thread_pool.hpp"
#include "world.hpp"

namespace {

using namespace epochbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

/// The per-layer metrics, in print order. Each lists the unit; README.md
/// says which end-to-end metric it should move on which workload.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"core.control_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"core.render_sample_ms_p50", "ms"},
    {"core.render_sample_ms_p99", "ms"},
    {"core.render_sample_ms_sum", "ms"},
    {"core.render_cpu_util", "ratio"},
    {"pool.tasks", "count"},
    {"pool.steals", "count"},
    {"plan.ms", "ms"},
    {"plan.flows", "count"},
    {"synthesis.ms", "ms"},
    {"synthesis.frames_per_s", "frames/s"},
    {"capture.ms", "ms"},
    {"capture.frames_per_s", "frames/s"},
    {"capture.offered", "frames"},
    {"capture.dropped", "frames"},
    {"capture.captured", "frames"},
    {"compress.ms", "ms"},
    {"compress.mb_per_s", "MB/s"},
    {"decompress.ms", "ms"},
    {"compress.ratio", "ratio"},
    {"analysis.digest_ms", "ms"},
    {"analysis.digest_frames_per_s", "frames/s"},
    {"analysis.aggregate_flows_ms", "ms"},
    {"analysis.flows", "count"},
    {"analysis.analyses_ms", "ms"},
    {"analysis.pipeline_ms", "ms"},
    {"analysis.cpu_util", "ratio"},
    {"archive.extract_ms", "ms"},
    {"archive.sketch_inserts", "count"},
    {"archive.append_ms", "ms"},
    {"archive.open_ms", "ms"},
    {"archive.query_build_ms", "ms"},
    {"archive.cache_hits", "count"},
    {"archive.cache_misses", "count"},
    {"archive.merge_ms", "ms"},
    {"archive.compact_ms", "ms"},
    {"archive.gc_ms", "ms"},
    {"archive.bytes_written", "bytes"},
    {"testbed.federation_ms", "ms"},
    {"telemetry.warmup_ms", "ms"},
    {"proc.minor_faults", "count"},
    {"trace.overhead_pct", "%"},
};

/// Queries an untraced run times at least, so the p99 has ten beyond it.
constexpr std::size_t kMinQueries = 1000;

/// Samples of the end-to-end metrics, one entry per epoch or session.
struct EndToEnd {
  std::vector<double> setup_s, epoch_s, profile_fps, analysis_fps, record_fps,
      transfer_mb, append_per_s, query_ms, merge_s, compact_s;
  // Record throughput is taken over the whole run (all flows / all record
  // time): per epoch it falls into two clusters about 40% apart, and a
  // median of five or six epochs jumps between them.
  double record_flows = 0.0, record_s = 0.0;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& sheet) {
  std::cout << "\noperations:\n";
  for (const auto& [kind, e] : ledger.entries()) {
    std::cout << "  " << kind << ": " << e.attempted << " attempted, "
              << e.failed << " failed\n";
  }
  std::cout << "metrics:\n";
  for (const Metric& m : sheet) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted()
       << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : sheet) {
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// Book an epoch's operations and run its output checks.
void check_epoch(const Workload& w, const EpochResult& epoch,
                 Ledger& ledger, std::vector<std::string>& failures) {
  std::uint64_t failed_sites = 0;
  for (const pw::core::SiteRunReport& r : epoch.run.reports) {
    if (r.outcome == pw::core::RunOutcome::kFailed ||
        r.outcome == pw::core::RunOutcome::kIncomplete) {
      ++failed_sites;
    }
  }
  ledger.add("site_setups", epoch.run.reports.size(), failed_sites);
  ledger.add("samples_rendered", epoch.run.captures.size());
  ledger.add("record_appends", 1, epoch.append_ok ? 0 : 1);
  check_pcaps(epoch.run, epoch.report, w.profile.config.capture.snaplen,
              failures);
  check_topk_bound(epoch.report, epoch.top_flows, failures);
}

/// One line on the epoch's make-up, for the log.
void describe_epoch(const EpochResult& epoch) {
  std::uint64_t samples = 0, hottest = 0, pcap = 0;
  for (const pw::core::SiteRunReport& r : epoch.run.reports) {
    samples += r.samples;
    hottest = std::max<std::uint64_t>(hottest, r.samples);
    pcap += r.pcap_bytes;
  }
  std::cout << "epoch: " << epoch.run.reports.size() << " sites, " << samples
            << " samples (hottest site "
            << (samples ? 100 * hottest / samples : 0) << "%), "
            << epoch.report.digest_stats.frames << " frames, " << pcap / 1000000
            << " MB pcap, " << epoch.transfer_bytes / 1000000
            << " MB transferred, " << epoch.report.flow_aggregates.size()
            << " distinct flows\n";
  for (const pw::core::SiteRunReport& r : epoch.run.reports) {
    std::cout << "  " << r.site_name << ": " << r.instances << " instances, "
              << r.backoffs << " back-offs, " << r.samples << " samples\n";
  }
}

int run(const Options& opt) {
  const std::optional<Workload> found = find_workload(opt.workload);
  if (!found) {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }
  const Workload& w = *found;
  const std::size_t workers = bench_workers();
  const std::filesystem::path workdir =
      std::filesystem::path(".bench_build") / "epochbench-work" /
      (w.name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{workdir};
  std::cout << "workload " << w.name << ", seed " << opt.seed << ", "
            << workers << " workers, " << opt.seconds << " s"
            << (opt.trace ? ", traced" : "") << "\n";

  Ledger ledger;
  std::vector<std::string> failures;
  const std::vector<OriginRecords> origins =
      make_origin_records(w.archive, opt.seed);

  // Each epoch profiles its own world, seeded from (--seed, epoch index):
  // a run's median then spans several inputs, not one.
  const pw::util::Rng seeds(opt.seed);
  auto epoch_seed = [&](std::uint64_t index) {
    return seeds.split(index).bits();
  };

  // Reference epoch on one worker: the byte-identity oracle for the first
  // timed epoch, which has the same seed.
  pw::util::set_thread_count(1);
  std::vector<std::uint64_t> reference;
  {
    World world(w.profile, epoch_seed(1));
    pw::core::Coordinator coordinator(world.env(), w.profile.config);
    reference = pcap_fingerprint(coordinator.run_all_experiment());
  }
  pw::util::set_thread_count(workers);

  pw::archive::ArchiveWriter epochs;
  if (epochs.open((workdir / "epochs.pwa").string()) !=
      pw::archive::OpenError::kNone) {
    failures.push_back("cannot open the epoch archive");
  }

  // Warm-up: one untimed epoch and archive session pay the process's first
  // page faults and the pool's start-up.
  {
    World world(w.profile, epoch_seed(0));
    const EpochResult epoch = run_epoch(world, w.profile, epochs, 0, nullptr);
    check_epoch(w, epoch, ledger, failures);
    describe_epoch(epoch);
    const std::string dir = (workdir / "warmup").string();
    std::filesystem::create_directories(dir);
    run_archive_session(w.archive, origins, dir, epoch_seed(0), ledger,
                        failures, nullptr);
    std::filesystem::remove_all(dir);
  }

  EndToEnd e2e;
  LayerSamples layers;
  std::vector<double> traced_epoch_s;
  std::uint64_t index = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 1;; ++round) {
    const std::uint64_t faults0 = minor_faults();
    for (std::size_t e = 0; e < w.epochs_per_round; ++e) {
      const std::uint64_t seed = epoch_seed(++index);
      std::vector<std::uint64_t> fingerprint;
      {
        const Clock::time_point t0 = Clock::now();
        World world(w.profile, seed);
        e2e.setup_s.push_back(seconds_since(t0));
        layers["testbed.federation_ms"].push_back(world.federation_ms());
        layers["telemetry.warmup_ms"].push_back(world.warmup_ms());
        const EpochResult epoch =
            run_epoch(world, w.profile, epochs, index, nullptr);
        check_epoch(w, epoch, ledger, failures);
        fingerprint = pcap_fingerprint(epoch.run);
        if (index == 1 && fingerprint != reference) {
          failures.push_back("epoch 1 pcaps differ from the 1-worker run");
        }
        const double frames =
            static_cast<double>(epoch.report.digest_stats.frames);
        e2e.epoch_s.push_back(epoch.epoch_s());
        e2e.profile_fps.push_back(frames / epoch.profile_s);
        e2e.analysis_fps.push_back(frames / epoch.analysis_s);
        const double flows =
            static_cast<double>(epoch.report.flow_aggregates.size());
        e2e.record_fps.push_back(flows / (epoch.record_ms() / 1e3));
        e2e.record_flows += flows;
        e2e.record_s += epoch.record_ms() / 1e3;
        e2e.transfer_mb.push_back(
            static_cast<double>(epoch.transfer_bytes) / 1e6);
      }
      if (opt.trace && e == 0) {
        // The traced replica on the same world must give the same bytes.
        World world(w.profile, seed);
        const EpochResult epoch =
            run_epoch(world, w.profile, epochs, index, &layers);
        check_epoch(w, epoch, ledger, failures);
        if (pcap_fingerprint(epoch.run) != fingerprint) {
          failures.push_back("traced epoch pcaps differ from the untraced");
        }
        traced_epoch_s.push_back(epoch.epoch_s());
        const std::uint64_t bad_restores =
            trace_inner_layers(world, w.profile, epoch, seed, layers);
        ledger.add("decompressions", epoch.run.captures.size(), bad_restores);
      }
    }

    for (std::size_t k = 0; k < w.sessions_per_round; ++k) {
      const std::string dir = (workdir / ("round-" + std::to_string(round) +
                                          "-" + std::to_string(k)))
                                  .string();
      std::filesystem::create_directories(dir);
      const SessionTimes s = run_archive_session(
          w.archive, origins, dir, seeds.split(round, k).bits(), ledger,
          failures, opt.trace && k == 0 ? &layers : nullptr);
      std::filesystem::remove_all(dir);
      e2e.append_per_s.push_back(static_cast<double>(s.appends) /
                                 s.append_s);
      e2e.merge_s.push_back(s.merge_s);
      e2e.compact_s.insert(e2e.compact_s.end(), s.compact_s.begin(),
                           s.compact_s.end());
      e2e.query_ms.insert(e2e.query_ms.end(), s.query_ms.begin(),
                          s.query_ms.end());
    }
    layers["proc.minor_faults"].push_back(
        static_cast<double>(minor_faults() - faults0));
    std::cout << "round " << round << ": epoch " << e2e.epoch_s.back()
              << " s (profile " << e2e.profile_fps.back() << " frames/s, "
              << "analysis " << e2e.analysis_fps.back() << " frames/s, record "
              << e2e.record_fps.back() << " flows/s), archive appends "
              << e2e.append_per_s.back() << "/s, merge "
              << e2e.merge_s.back() << " s, compact " << e2e.compact_s.back()
              << " s\n";

    if (!failures.empty()) break;
    // The p99 needs enough queries behind it; the traced run prints none.
    if (round >= 3 && seconds_since(start) >= opt.seconds &&
        (opt.trace || e2e.query_ms.size() >= kMinQueries)) {
      break;
    }
  }

  std::vector<Metric> sheet;
  if (!opt.trace) {
    sheet = {
        {"setup_s", median(e2e.setup_s), "s"},
        {"epoch_s", median(e2e.epoch_s), "s"},
        {"profile_frames_per_s", median(e2e.profile_fps), "frames/s"},
        {"analysis_frames_per_s", median(e2e.analysis_fps), "frames/s"},
        {"record_flows_per_s", e2e.record_flows / e2e.record_s, "flows/s"},
        {"transfer_mb", median(e2e.transfer_mb), "MB"},
        {"archive_append_per_s", median(e2e.append_per_s), "records/s"},
        {"archive_query_ms", median(e2e.query_ms), "ms"},
        {"archive_query_p99_ms", quantile(e2e.query_ms, 0.99), "ms"},
        {"archive_merge_s", median(e2e.merge_s), "s"},
        {"archive_compact_s", median(e2e.compact_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const std::vector<double>& render = layers["core.render_sample_ms"];
    layers["core.render_sample_ms_p50"] = {quantile(render, 0.5)};
    layers["core.render_sample_ms_p99"] = {quantile(render, 0.99)};
    const double base = median(e2e.epoch_s);
    layers["trace.overhead_pct"] = {(median(traced_epoch_s) - base) / base *
                                    100.0};
    for (const auto& [name, unit] : kLayerMetrics) {
      sheet.push_back({name, median(layers[name]), unit});
    }
  }

  const bool correct = failures.empty();
  for (const std::string& f : failures) std::cerr << "CHECK FAILED: " << f
                                                  << "\n";
  print_result(correct, ledger, sheet);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: epochbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "epochbench: " << e.what() << "\n";
    return 1;
  }
}
