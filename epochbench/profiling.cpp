#include "profiling.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"
#include "analysis/epoch_extract.hpp"
#include "capture/session.hpp"
#include "common.hpp"
#include "core/profiler.hpp"
#include "flowsched/event_gen.hpp"
#include "net/frame_builder.hpp"
#include "net/frame_store.hpp"
#include "traffic/flowgen.hpp"
#include "util/compress.hpp"
#include "util/thread_pool.hpp"

namespace epochbench {

namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<pw::testbed::SiteId> production_sites(World& world) {
  std::vector<pw::testbed::SiteId> sites;
  for (pw::testbed::SiteId id : world.federation().site_ids()) {
    if (!world.federation().site(id).teaching_only()) sites.push_back(id);
  }
  return sites;
}

/// Coordinator::run_sites for all-experiment mode, step for step, with
/// each layer call timed. Same stream layout (one data-plane seed drawn
/// before any site touches the environment RNG, sample k of site s from
/// split(s, k)), so the pcaps equal run_all_experiment's.
pw::core::ProfileRun traced_profile(World& world,
                                    const pw::core::ProfilerConfig& config,
                                    LayerSamples& layers) {
  pw::core::Environment& env = world.env();
  const std::vector<pw::testbed::SiteId> sites = production_sites(world);
  const pw::util::Rng stream_root(env.rng().bits());

  struct SiteWork {
    std::unique_ptr<pw::core::SiteProfiler> profiler;
    pw::core::SiteRunReport report;
    bool sampled = false;
  };
  std::vector<SiteWork> work(sites.size());

  // Control plane: setup + run, serial in site order.
  layers["core.control_ms"].push_back(time_ms([&] {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      SiteWork& w = work[i];
      w.profiler =
          std::make_unique<pw::core::SiteProfiler>(env, sites[i], config);
      w.report.site = sites[i];
      w.report.site_name = world.federation().site(sites[i]).name();
      const pw::core::SetupResult setup = w.profiler->setup();
      w.report.instances = setup.instances_granted;
      w.report.backoffs = setup.backoffs_used;
      w.report.error = setup.error;
      if (!setup.ok) {
        w.report.outcome = pw::core::RunOutcome::kFailed;
        continue;
      }
      w.report.outcome = w.profiler->run();
      w.sampled = true;
    }
  }));

  // Data plane: one pool task per (site, sample), each rendering, then
  // compressing and restoring its pcap as the download does.
  struct Task {
    std::size_t site = 0;
    std::size_t sample = 0;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<pw::analysis::RawCapture>> rendered(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (!work[i].sampled) continue;
    const std::size_t n = work[i].profiler->pending_sample_count();
    rendered[i].resize(n);
    for (std::size_t k = 0; k < n; ++k) tasks.push_back({i, k});
  }
  std::vector<double> sample_ms(tasks.size());
  std::vector<std::uint64_t> transferred(tasks.size());
  auto render_one = [&](std::size_t t) {
    const Task& task = tasks[t];
    SiteWork& w = work[task.site];
    pw::analysis::RawCapture& slot = rendered[task.site][task.sample];
    pw::util::Rng rng = stream_root.split(sites[task.site].value, task.sample);
    sample_ms[t] =
        time_ms([&] { slot = w.profiler->render_sample(task.sample, rng); });
    if (!config.compress_transfers) {
      transferred[t] = slot.pcap.size();
      return;
    }
    static thread_local pw::util::Compressor t_compressor;
    const std::vector<std::uint8_t> wire = t_compressor.compress(slot.pcap);
    transferred[t] = wire.size();
    auto restored = pw::util::decompress(wire);
    if (restored.has_value()) slot.pcap = std::move(*restored);
  };
  const std::size_t threads = pw::util::thread_count();
  pw::util::ThreadPool& pool = pw::util::shared_pool();
  pool.reset_stats();
  const double util = cpu_util(threads, [&] {
    if (tasks.size() <= 1 || threads <= 1) {
      for (std::size_t t = 0; t < tasks.size(); ++t) render_one(t);
      return;
    }
    pool.ensure_size(threads - 1);
    pw::util::TaskGroup group(pool);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      group.spawn([&render_one, t] { render_one(t); });
    }
    group.wait();
  });
  const pw::util::PoolStats stats = pool.stats();
  layers["core.render_cpu_util"].push_back(util);
  layers["core.render_sample_ms_sum"].push_back(sum(sample_ms));
  for (double ms : sample_ms) layers["core.render_sample_ms"].push_back(ms);
  layers["pool.tasks"].push_back(static_cast<double>(stats.tasks_executed));
  layers["pool.steals"].push_back(static_cast<double>(stats.tasks_stolen));

  // Hand-back and teardown, serial in site order.
  pw::core::ProfileRun out;
  std::size_t t = 0;
  layers["core.merge_ms"].push_back(time_ms([&] {
    for (std::size_t i = 0; i < work.size(); ++i) {
      SiteWork& w = work[i];
      if (w.sampled) {
        for (const pw::analysis::RawCapture& c : rendered[i]) {
          w.report.pcap_bytes += c.pcap.size();
          w.report.transferred_bytes += transferred[t++];
        }
        w.profiler->commit_rendered(std::move(rendered[i]));
        std::vector<pw::analysis::RawCapture> captures =
            w.profiler->gather();
        w.report.samples = captures.size();
        std::move(captures.begin(), captures.end(),
                  std::back_inserter(out.captures));
        w.profiler->teardown();
      }
      out.reports.push_back(std::move(w.report));
    }
  }));
  return out;
}

}  // namespace

std::vector<std::uint64_t> pcap_fingerprint(const pw::core::ProfileRun& run) {
  std::vector<std::uint64_t> out;
  out.reserve(run.captures.size());
  for (const pw::analysis::RawCapture& c : run.captures) {
    out.push_back(fnv1a(c.pcap));
  }
  return out;
}

EpochResult run_epoch(World& world, const ProfileShape& shape,
                      pw::archive::ArchiveWriter& archive,
                      std::uint64_t epoch_index, LayerSamples* layers) {
  EpochResult out;
  const Clock::time_point t0 = Clock::now();
  if (layers == nullptr) {
    pw::core::Coordinator coordinator(world.env(), shape.config);
    out.run = coordinator.run_all_experiment();
  } else {
    out.run = traced_profile(world, shape.config, *layers);
  }
  out.profile_s = seconds_since(t0);
  for (const pw::core::SiteRunReport& r : out.run.reports) {
    out.transfer_bytes += r.transferred_bytes;
  }

  const std::size_t workers = pw::util::thread_count();
  double pipeline_ms = 0.0;
  const double util = cpu_util(workers, [&] {
    out.report = pw::analysis::run_pipeline(out.run.captures);
  }, &pipeline_ms);
  out.analysis_s = pipeline_ms / 1e3;

  pw::analysis::EpochMeta meta;
  meta.label = "epoch" + std::to_string(epoch_index);
  meta.start = world.env().clock().now();
  meta.duration = pw::util::kDay;
  pw::archive::EpochRecord record;
  out.extract_ms = time_ms(
      [&] { record = pw::analysis::extract_epoch_record(out.report, meta); });
  out.top_flows = record.top_flows;
  out.append_ms =
      time_ms([&] { out.append_ok = archive.append(std::move(record)); });

  if (layers != nullptr) {
    LayerSamples& l = *layers;
    l["analysis.pipeline_ms"].push_back(pipeline_ms);
    l["analysis.cpu_util"].push_back(util);
    l["archive.extract_ms"].push_back(out.extract_ms);
    l["archive.append_ms"].push_back(out.append_ms);
    l["archive.sketch_inserts"].push_back(
        static_cast<double>(out.report.flow_aggregates.size()));
  }
  return out;
}

std::uint64_t trace_inner_layers(World& world, const ProfileShape& shape,
                                 const EpochResult& epoch,
                                 std::uint64_t seed, LayerSamples& layers) {
  namespace tr = pw::traffic;
  const pw::core::ProfilerConfig& config = shape.config;
  pw::testbed::Federation& fed = world.federation();

  double plan_ms = 0.0, synth_ms = 0.0, capture_ms = 0.0;
  double compress_ms = 0.0, decompress_ms = 0.0;
  double flows = 0.0, synth_frames = 0.0, pcap_bytes = 0.0, wire_bytes = 0.0;
  double offered = 0.0, dropped = 0.0, captured = 0.0;
  std::uint64_t failed_restores = 0;
  pw::util::Compressor compressor;
  const pw::util::Rng root(seed);

  for (std::size_t i = 0; i < epoch.run.captures.size(); ++i) {
    const pw::analysis::RawCapture& sample = epoch.run.captures[i];
    pw::testbed::SiteId site_id{};
    for (pw::testbed::SiteId id : fed.site_ids()) {
      if (fed.site(id).name() == sample.site) site_id = id;
    }
    const pw::testbed::Site& site = fed.site(site_id);
    const pw::testbed::SwitchPort& port =
        site.tor().port(pw::testbed::PortId{sample.port});
    tr::WindowParams params;
    params.duration = config.plan.sample_duration;
    params.target_bps = port.tx_rate_bps() + port.rx_rate_bps();
    params.max_frames = config.plan.max_frames_per_sample;
    const tr::SiteWorkloadProfile& profile =
        world.env().traffic().profile(site_id);
    const pw::util::Rng rng = root.split(i);

    // Plan (the window's only sequential phase).
    pw::util::Rng plan_rng = rng.split(tr::kWindowPlanStream);
    tr::WindowPlan plan;
    plan_ms += time_ms([&] {
      plan = config.flow_model.model == pw::flowsched::FlowModel::kEvent
                 ? pw::flowsched::plan_event_window(plan_rng, profile, params,
                                                    config.flow_model)
                 : tr::plan_window(plan_rng, profile, params);
    });
    flows += static_cast<double>(plan.flow_count);

    // Synthesis: every unit whole, one builder, one arena.
    pw::net::FrameStore store;
    pw::net::FrameBuilder builder;
    std::vector<pw::util::RngBlock> draws;
    draws.reserve(plan.units.size());
    for (std::size_t u = 0; u < plan.units.size(); ++u) {
      draws.emplace_back(rng.split(tr::kWindowUnitStreamBase + u));
    }
    synth_ms += time_ms([&] {
      for (std::size_t u = 0; u < plan.units.size(); ++u) {
        tr::render_unit(plan.units[u], draws[u], params.duration, 0,
                        plan.units[u].frames, builder, store);
      }
    });
    synth_frames += static_cast<double>(store.size());

    // Capture, on the frames in time order as the mirror delivers them.
    std::vector<pw::net::FrameView> views;
    views.reserve(store.size());
    for (std::size_t f = 0; f < store.size(); ++f) {
      views.push_back(store.view(f));
    }
    std::stable_sort(views.begin(), views.end(),
                     [](const pw::net::FrameView& a,
                        const pw::net::FrameView& b) {
                       return a.timestamp < b.timestamp;
                     });
    pw::util::Rng capture_rng = rng.split(tr::kWindowCaptureStream);
    pw::capture::CaptureSession session(config.capture, pw::host::HostSpec{},
                                        capture_rng);
    pw::capture::CaptureResult result;
    capture_ms += time_ms([&] {
      result = session.run(std::span<const pw::net::FrameView>(views),
                           plan.offered_pps);
    });
    offered += static_cast<double>(result.stats.offered);
    dropped += static_cast<double>(result.stats.dropped_capacity);
    captured += static_cast<double>(result.stats.captured);

    // Transfer: compress at the site, restore at the coordinator.
    std::vector<std::uint8_t> wire;
    compress_ms += time_ms([&] { wire = compressor.compress(result.pcap); });
    std::optional<std::vector<std::uint8_t>> restored;
    decompress_ms +=
        time_ms([&] { restored = pw::util::decompress(wire); });
    if (!restored.has_value() || *restored != result.pcap) ++failed_restores;
    pcap_bytes += static_cast<double>(result.pcap.size());
    wire_bytes += static_cast<double>(wire.size());
  }
  layers["plan.ms"].push_back(plan_ms);
  layers["plan.flows"].push_back(flows);
  layers["synthesis.ms"].push_back(synth_ms);
  layers["synthesis.frames_per_s"].push_back(synth_frames / (synth_ms / 1e3));
  layers["capture.ms"].push_back(capture_ms);
  layers["capture.frames_per_s"].push_back(offered / (capture_ms / 1e3));
  layers["capture.offered"].push_back(offered);
  layers["capture.dropped"].push_back(dropped);
  layers["capture.captured"].push_back(captured);
  layers["compress.ms"].push_back(compress_ms);
  layers["compress.mb_per_s"].push_back(pcap_bytes / 1e6 /
                                        (compress_ms / 1e3));
  layers["decompress.ms"].push_back(decompress_ms);
  layers["compress.ratio"].push_back(pcap_bytes > 0 ? wire_bytes / pcap_bytes
                                                    : 0.0);

  // The offline pipeline's steps, one at a time on this thread's pool.
  namespace an = pw::analysis;
  std::vector<an::AcapFile> files;
  an::DigestStats digest_stats;
  const double digest_ms = time_ms(
      [&] { files = an::digest_all(epoch.run.captures, &digest_stats); });
  layers["analysis.digest_ms"].push_back(digest_ms);
  layers["analysis.digest_frames_per_s"].push_back(
      static_cast<double>(digest_stats.frames) / (digest_ms / 1e3));
  std::unordered_map<an::FlowKey, an::FlowAggregate, an::FlowKeyHash> agg;
  layers["analysis.aggregate_flows_ms"].push_back(
      time_ms([&] { agg = an::aggregate_flows(files); }));
  layers["analysis.flows"].push_back(static_cast<double>(agg.size()));
  layers["analysis.analyses_ms"].push_back(time_ms([&] {
    an::analyze_frame_sizes(files);
    an::analyze_header_occurrence(files);
    an::analyze_site_header_variety(files);
    an::analyze_flows_per_sample(files);
    an::analyze_tcp_control(files);
    an::analyze_tagging(files);
    an::analyze_top_stacks(files);
    an::analyze_flow_distribution(agg);
  }));
  return failed_restores;
}

}  // namespace epochbench
