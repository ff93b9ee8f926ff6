// One Patchwork epoch: profile the federation, run the offline pipeline on
// the gathered captures, and fold the result into the epoch archive.
//
// The untraced epoch calls the program the way a user does
// (Coordinator::run_all_experiment, run_pipeline, extract_epoch_record,
// ArchiveWriter::append) and is what the end-to-end metrics time. The
// traced epoch drives the same work through the layers' public functions
// — SiteProfiler's setup/run/render_sample/commit_rendered/gather/
// teardown in run_sites' order — so each call can be timed from here; its
// pcaps must still match the untraced epoch byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "archive/writer.hpp"
#include "core/coordinator.hpp"
#include "world.hpp"

namespace epochbench {

/// Per-layer samples of one traced run, keyed by metric name.
using LayerSamples = std::map<std::string, std::vector<double>>;

struct EpochResult {
  pw::core::ProfileRun run;
  pw::analysis::ProfileReport report;
  double profile_s = 0.0;   ///< run_all_experiment (or its traced replica).
  double analysis_s = 0.0;  ///< run_pipeline.
  double extract_ms = 0.0;
  double append_ms = 0.0;
  bool append_ok = false;
  std::uint64_t transfer_bytes = 0;  ///< Compressed download, all sites.
  pw::archive::TopFlowSketch top_flows;  ///< The appended record's sketch.

  double record_ms() const { return extract_ms + append_ms; }
  double epoch_s() const {
    return profile_s + analysis_s + record_ms() / 1e3;
  }
};

/// FNV-1a of each capture's pcap, in capture order: the byte-identity
/// fingerprint epochs are compared by.
std::vector<std::uint64_t> pcap_fingerprint(const pw::core::ProfileRun& run);

/// Profile, analyse and record one epoch on `world`. With `layers` set the
/// profile goes through the traced replica and the per-layer samples are
/// appended there.
EpochResult run_epoch(World& world, const ProfileShape& shape,
                      pw::archive::ArchiveWriter& archive,
                      std::uint64_t epoch_index, LayerSamples* layers);

/// Traced-run extras for a finished epoch: re-run the layers that only
/// execute inside SiteProfiler::render_sample (plan, synthesis, capture,
/// transfer compression) on windows of the epoch's shape, serially, and
/// time the offline pipeline's steps one by one. Returns the number of
/// decompressions that failed to restore the pcap.
std::uint64_t trace_inner_layers(World& world, const ProfileShape& shape,
                                 const EpochResult& epoch,
                                 std::uint64_t seed, LayerSamples& layers);

}  // namespace epochbench
