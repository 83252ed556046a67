// Aggregated parallel output: M ranks per file, the paper's I/O layout.
//
// "For optimal I/O performance, the results from 128 nodes from Titan were
// aggregated in one file, resulting in 128 files containing 128 blocks
// each" (§4.1). Each aggregation group elects its lowest rank as the
// writer; the other ranks ship their particles to it over the
// communicator. The writer also drops a `<file>.done` trigger next to the
// finalized file — the sentinel the co-scheduling Listener polls for.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "io/cosmo_io.h"
#include "obs/obs.h"
#include "sim/decomposition.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::io {

struct AggregatedWriteResult {
  std::vector<std::filesystem::path> files;  ///< files this rank wrote
  std::uint64_t bytes_written = 0;           ///< by this rank
};

inline std::filesystem::path aggregated_file_path(
    const std::filesystem::path& base, int file_index) {
  return base.string() + "." + std::to_string(file_index) + ".cosmo";
}

inline std::filesystem::path trigger_path(const std::filesystem::path& file) {
  return file.string() + ".done";
}

/// Collectively writes each rank's particles, aggregating `ranks_per_file`
/// consecutive ranks into one multi-block file. Files are named
/// `<base>.<k>.cosmo`; a `.done` trigger is created after each finalize.
inline AggregatedWriteResult write_aggregated(comm::Comm& comm,
                                              const std::filesystem::path& base,
                                              const sim::ParticleSet& local,
                                              const CosmoIoInfo& info,
                                              int ranks_per_file) {
  COSMO_REQUIRE(ranks_per_file >= 1, "need at least one rank per file");
  COSMO_TRACE_SPAN_CAT("io.write_aggregated", "io");
  const int rank = comm.rank();
  const int group = rank / ranks_per_file;
  const int writer = group * ranks_per_file;
  const int group_end = std::min(writer + ranks_per_file, comm.size());

  AggregatedWriteResult result;
  constexpr int kTag = 9001;
  if (rank != writer) {
    std::vector<sim::PackedParticle> packed(local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
      packed[i] = sim::pack_particle(local, i);
    COSMO_COUNT("io.aggregation_sends", 1);
    comm.send<sim::PackedParticle>(writer, kTag, packed);
    return result;
  }

  CosmoIoWriter out(aggregated_file_path(base, group), info);
  out.write_block(local, static_cast<std::uint32_t>(rank));
  for (int r = writer + 1; r < group_end; ++r) {
    auto packed = comm.recv<sim::PackedParticle>(r, kTag);
    COSMO_COUNT("io.aggregation_fanin", 1);
    sim::ParticleSet p;
    p.reserve(packed.size());
    for (const auto& w : packed) sim::unpack_particle(w, p);
    out.write_block(p, static_cast<std::uint32_t>(r));
  }
  out.finalize();
  result.bytes_written = out.bytes_written();
  result.files.push_back(aggregated_file_path(base, group));
  // Trigger file: the Listener's poll target. Created only after the data
  // file is complete, so a Listener never reads a partial file.
  std::ofstream trigger(trigger_path(result.files.back()));
  trigger << "ok\n";
  return result;
}

/// Reads rank `rank`'s share of the blocks in files written by
/// write_aggregated: blocks are dealt round-robin over `size` ranks in file
/// order. Rank-local — no communication.
inline sim::ParticleSet read_aggregated_blocks(
    const std::vector<std::filesystem::path>& files, int rank, int size) {
  sim::ParticleSet mine;
  std::size_t block_counter = 0;
  for (const auto& f : files) {
    CosmoIoReader reader(f);
    for (std::uint32_t b = 0; b < reader.num_blocks(); ++b, ++block_counter) {
      if (static_cast<int>(block_counter % static_cast<std::size_t>(size)) !=
          rank)
        continue;
      mine.append(reader.read_block(b));
    }
  }
  return mine;
}

}  // namespace cosmo::io
