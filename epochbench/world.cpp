#include "world.hpp"

#include <algorithm>
#include <thread>

#include "common.hpp"
#include "traffic/workload.hpp"

namespace epochbench {

namespace {

/// Every site allocates in every workload: no transient back-end failures
/// and no injected instance crashes, so no operation fails by chance.
pw::core::ProfilerConfig reliable_config() {
  pw::core::ProfilerConfig config;
  config.crash_probability = 0.0;
  config.allocator.backend_failure_rate = 0.0;
  config.compress_transfers = true;
  return config;
}

/// Pin the federation's random ranges so the site count, port count and
/// NIC count do not depend on any seed.
pw::testbed::FederationSpec fixed_federation(std::size_t sites,
                                             std::size_t nics,
                                             std::size_t downlinks = 24) {
  pw::testbed::FederationSpec spec;
  spec.sites = sites;
  spec.include_teaching_site = false;
  spec.min_uplinks = spec.max_uplinks = 2;
  spec.min_downlinks = spec.max_downlinks = downlinks;
  spec.min_dedicated_nics = spec.max_dedicated_nics = nics;
  return spec;
}

Workload wide_mix() {
  Workload w;
  w.name = "wide_mix";
  ProfileShape& p = w.profile;
  p.layout_seed = 0x77696465;  // "wide"
  p.federation = fixed_federation(10, 4);
  p.config = reliable_config();
  p.config.desired_instances = 1;  // One dedicated NIC per site.
  p.config.plan.cycles = 2;
  p.config.plan.runs_per_cycle = 2;
  p.config.plan.samples_per_run = 3;
  p.config.plan.max_frames_per_sample = 4000;
  p.config.capture.method = pw::capture::CaptureMethod::kTcpdump;
  p.config.capture.snaplen = 200;
  // Two sessions of the default small federation (4 origins x 60 days)
  // beside the epoch, so every archive operation is measured here too;
  // archive_federation is where it is large.
  w.sessions_per_round = 2;
  return w;
}

Workload hot_site_churn() {
  Workload w;
  w.name = "hot_site_churn";
  ProfileShape& p = w.profile;
  p.layout_seed = 0x686f74;  // "hot"
  // Eight NICs (sixteen mirror slots) at the hot site against one at the
  // other: the hot site renders 8 of every 9 samples. Forty downlinks
  // leave every slot a port to mirror.
  p.federation = fixed_federation(2, 8, 40);
  p.hot_site_nics = 8;
  p.config = reliable_config();
  p.config.desired_instances = 0;  // One instance per free NIC.
  p.config.plan.cycles = 2;
  p.config.plan.runs_per_cycle = 2;
  p.config.plan.samples_per_run = 3;
  p.config.plan.max_frames_per_sample = 4000;
  p.config.flow_model.model = pw::flowsched::FlowModel::kEvent;
  p.config.flow_model.flows_per_second = 40.0;
  p.config.flow_model.mean_flow_duration_s = 4.0;
  p.config.flow_model.zipf_param = 1.26;
  p.config.flow_model.flow_keys = 448;
  p.config.flow_model.churn_fpm = 600.0;
  p.config.capture.method = pw::capture::CaptureMethod::kFpgaDpdk;
  p.config.capture.cores = 5;
  p.config.capture.snaplen = 64;
  p.config.capture.anonymize = true;
  w.sessions_per_round = 2;
  return w;
}

Workload archive_federation() {
  Workload w;
  w.name = "archive_federation";
  // The epochs here are small (three sites, one NIC each, 36 samples of
  // at most 2000 frames), five to a round: the archive does most of the
  // round's work.
  ProfileShape& p = w.profile;
  p.layout_seed = 0x61726368;  // "arch"
  p.federation = fixed_federation(3, 1);
  p.config = reliable_config();
  p.config.desired_instances = 1;
  p.config.plan.cycles = 1;
  p.config.plan.runs_per_cycle = 2;
  p.config.plan.samples_per_run = 3;
  p.config.plan.max_frames_per_sample = 2000;
  w.epochs_per_round = 5;
  w.archive.origins = 8;
  w.archive.days = 365;
  w.archive.queries = 260;
  return w;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  for (Workload w : {wide_mix(), hot_site_churn(), archive_federation()}) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::size_t bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

namespace {

pw::testbed::Federation build_federation(const ProfileShape& shape,
                                         pw::util::Rng& rng) {
  pw::testbed::Federation fed =
      pw::testbed::make_fabric_like_federation(rng, shape.federation);
  if (shape.hot_site_nics > 0) {
    for (pw::testbed::SiteId id : fed.site_ids()) {
      pw::testbed::Site& site = fed.site(id);
      const auto nics =
          site.available_nics(pw::testbed::NicKind::kDedicatedConnectX);
      const std::size_t keep = id.value == 0 ? shape.hot_site_nics : 1;
      for (std::size_t i = keep; i < nics.size(); ++i) {
        site.mutable_nic(nics[i]).allocated_to = pw::testbed::SliceId{999};
      }
    }
  }
  return fed;
}

}  // namespace

World::World(const ProfileShape& shape, std::uint64_t run_seed)
    : layout_rng_(shape.layout_seed),
      run_rng_(run_seed),
      federation_ms_(0.0),
      fed_([&] {
        const Clock::time_point t0 = Clock::now();
        pw::testbed::Federation fed = build_federation(shape, layout_rng_);
        federation_ms_ = ms_since(t0);
        return fed;
      }()),
      mflib_(fed_),
      traffic_(fed_, activity_,
               pw::traffic::make_site_profiles(layout_rng_, fed_.site_count()),
               layout_rng_.fork()),
      env_(clock_, fed_, mflib_, traffic_, run_rng_) {
  warmup_ms_ = time_ms([&] { env_.advance(11 * pw::util::kMinute); });
}

}  // namespace epochbench
