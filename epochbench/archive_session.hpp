// One round of archive work: per-origin daily archives are appended,
// federated with merge_archives, queried through QueryCache (repeated
// windows) and ArchiveQuery::from_file (fresh windows) while further
// appends land, then compacted to a storage budget and garbage-collected.
// Every answer is checked against the benchmark's own sums over the
// records it generated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/record.hpp"
#include "common.hpp"
#include "profiling.hpp"
#include "world.hpp"

namespace epochbench {

/// The generated records of one origin: `days` base records plus the
/// extra days appended between queries.
struct OriginRecords {
  std::string origin;
  std::vector<pw::archive::EpochRecord> base;
  std::vector<pw::archive::EpochRecord> extra;
};

/// Records for every origin, made from the seed (the same seed gives the
/// same records).
std::vector<OriginRecords> make_origin_records(const ArchiveShape& shape,
                                               std::uint64_t seed);

struct SessionTimes {
  double append_s = 0.0;
  std::uint64_t appends = 0;
  double merge_s = 0.0;
  std::vector<double> query_ms;
  /// Compaction plus GC, one entry per origin archive.
  std::vector<double> compact_s;
};

/// Run one round in `dir` (created empty by the caller). Appends failures
/// to `failures` and counts operations into `ledger`; with `layers` set,
/// also records the archive layer's per-call samples.
SessionTimes run_archive_session(const ArchiveShape& shape,
                                 const std::vector<OriginRecords>& origins,
                                 const std::string& dir,
                                 std::uint64_t round_seed, Ledger& ledger,
                                 std::vector<std::string>& failures,
                                 LayerSamples* layers);

}  // namespace epochbench
