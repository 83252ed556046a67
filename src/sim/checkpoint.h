// Checkpoint / restart for the simulation.
//
// The paper's data-volume accounting explicitly sets aside "check-point
// restart files" (§1) — production HACC runs write them constantly, and the
// off-line analysis workflow's wait times only make sense because the
// simulation itself survives queue boundaries. Checkpoints reuse the
// CosmoIO block format: each rank's particles are one block, the scale
// factor rides in the header, so a restart reproduces the exact state (the
// leapfrog is deterministic given particles + a). Both directions run their
// rank-local file I/O under Comm::agree_or_throw, so one rank's failed read
// or write throws on every rank instead of hanging the others in the next
// collective.
#pragma once

#include <filesystem>

#include "comm/comm.h"
#include "io/aggregated.h"
#include "io/cosmo_io.h"
#include "obs/obs.h"
#include "sim/decomposition.h"
#include "sim/particles.h"
#include "util/error.h"

namespace cosmo::sim {

struct CheckpointState {
  ParticleSet particles;  ///< this rank's owned slab
  double a = 0.0;         ///< scale factor at the checkpoint
  std::uint64_t total_particles = 0;
};

/// Collectively writes a checkpoint (one aggregated file set under `base`).
inline void write_checkpoint(comm::Comm& comm,
                             const std::filesystem::path& base,
                             const ParticleSet& owned, double box, double a,
                             std::uint64_t total_particles,
                             int ranks_per_file = 4) {
  io::CosmoIoInfo info{box, a, total_particles, 0};
  comm.agree_or_throw("checkpoint write", [&] {
    io::write_aggregated(comm, base, owned, info, ranks_per_file);
  });
}

/// Collectively reads a checkpoint written by write_checkpoint with any
/// rank layout; particles land on their owner slabs for the *current*
/// communicator (restart on a different rank count is supported, as with
/// real HACC restarts).
inline CheckpointState read_checkpoint(comm::Comm& comm,
                                       const std::filesystem::path& base,
                                       double box, int writer_ranks,
                                       int ranks_per_file = 4) {
  COSMO_TRACE_SPAN_CAT("io.read_aggregated", "io");
  CheckpointState state;
  const int files = (writer_ranks + ranks_per_file - 1) / ranks_per_file;
  std::vector<std::filesystem::path> paths;
  for (int g = 0; g < files; ++g)
    paths.push_back(io::aggregated_file_path(base, g));
  ParticleSet mine;
  comm.agree_or_throw("checkpoint read", [&] {
    // Header info from the first file, then this rank's share of blocks.
    io::CosmoIoReader reader(paths.front());
    state.a = reader.info().scale_factor;
    state.total_particles = reader.info().total_particles;
    COSMO_REQUIRE(reader.info().box == box, "checkpoint box mismatch");
    mine = io::read_aggregated_blocks(paths, comm.rank(), comm.size());
  });
  state.particles =
      SlabDecomposition(comm.size(), box).redistribute(comm, std::move(mine));
  return state;
}

}  // namespace cosmo::sim
