// The workflow runner — Fig. 1 made executable.
//
// Five analysis workflows over the same simulation snapshot:
//
//   in-situ           all analysis in the simulation job; no I/O, no queue.
//   off-line          simulation writes Level 1; a separate full-size job
//                     reads, redistributes, and analyzes everything.
//   combined simple   in-situ halo finding + centers for halos ≤ threshold;
//                     particles of larger halos written as Level 2; a small
//                     off-line job centers them; catalogs are reconciled.
//   combined co-scheduled
//                     same data path, but the off-line job is submitted by
//                     the Listener the moment the Level 2 trigger file
//                     appears, overlapping the simulation.
//   combined in-transit
//                     Level 2 goes through the shared staging area (burst
//                     buffer) instead of the filesystem.
//
// Every variant runs as a sequence of real jobs (each an SPMD run over its
// own communicator — exactly like separate batch jobs), moves data through
// real files / staging buffers, and fills a phase ledger with measured
// wall-clock maxima across ranks: Sim / Analysis / Write on the simulation
// job and Read / Redistribute / Analysis / Write on the post-processing
// job — the rows of Table 4.
#pragma once

#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "core/split_tuner.h"
#include "faults/faults.h"
#include "io/aggregated.h"
#include "io/cosmo_io.h"
#include "obs/obs.h"
#include "sched/listener.h"
#include "sched/staging.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "util/retry.h"
#include "util/timer.h"

namespace cosmo::core {

enum class WorkflowKind {
  InSitu,
  OffLine,
  CombinedSimple,
  CombinedCoScheduled,
  CombinedInTransit,
};

inline const char* to_string(WorkflowKind k) {
  switch (k) {
    case WorkflowKind::InSitu:
      return "in-situ";
    case WorkflowKind::OffLine:
      return "off-line";
    case WorkflowKind::CombinedSimple:
      return "in-situ/off-line (simple)";
    case WorkflowKind::CombinedCoScheduled:
      return "in-situ/off-line (co-scheduled)";
    case WorkflowKind::CombinedInTransit:
      return "in-situ/off-line (in-transit)";
  }
  return "?";
}

struct WorkflowProblem {
  sim::SyntheticConfig universe;       ///< the snapshot under analysis
  int ranks = 4;                       ///< "simulation" job size
  int analysis_ranks = 2;              ///< combined post-processing job size
  int ranks_per_file = 2;              ///< Level 1 aggregation factor
  dpp::Backend backend = dpp::Backend::ThreadPool;
  /// Backend for the combined variants' off-line analysis job — the
  /// analysis cluster's hardware. ThreadPool models a GPU cluster
  /// (Moonlight/Titan); Serial models a CPU-only cluster (Rhea), which the
  /// paper found "slowed down the center finding considerably" (§4.2).
  dpp::Backend analysis_backend = dpp::Backend::ThreadPool;
  double linking_length = 0.25;
  std::size_t min_halo_size = 40;
  double overload = 2.0;               ///< must exceed the largest halo extent
  std::uint64_t threshold = 300000;    ///< in-situ/off-line split (combined)
  bool compute_so_mass = true;
  bool compute_subhalos = false;
  std::size_t subhalo_min_host = 5000;
  std::filesystem::path workdir;       ///< scratch for Level 1/2/3 files
  std::uint64_t staging_capacity = 1ull << 30;
};

struct PhaseTimes {
  // Simulation job (per-phase wall-clock, max over ranks).
  double sim = 0, analysis = 0, write = 0;
  // Post-processing job.
  double read = 0, redistribute = 0, post_analysis = 0, post_write = 0;
  // Per-rank in-situ breakdown (Table 2 / Fig. 4 / §4.2 inputs).
  // `other_per_rank` holds the remaining pipeline algorithms (SO mass,
  // subhalos) — with SO disabled it is the per-rank subhalo time.
  std::vector<double> find_per_rank, center_per_rank, other_per_rank;
  std::vector<double> post_center_per_rank;

  double sim_total() const { return sim + analysis + write; }
  double post_total() const {
    return read + redistribute + post_analysis + post_write;
  }
};

struct WorkflowResult {
  WorkflowKind kind = WorkflowKind::InSitu;
  stats::HaloCatalog catalog;  ///< the complete, reconciled Level 3 product
  PhaseTimes times;
  std::uint64_t level1_bytes = 0, level2_bytes = 0, level3_bytes = 0;
  std::uint64_t total_halos = 0, deferred_halos = 0;
  std::uint64_t listener_triggers = 0, listener_polls = 0;
  // Recovery bookkeeping (all zero on a fault-free run).
  std::uint64_t degraded_steps = 0;      ///< steps that fell back to in-situ
  std::uint64_t staging_fallbacks = 0;   ///< ranks routed Level 2 via files
  std::uint64_t dead_letter_submits = 0; ///< listener submits that gave up
  std::uint64_t submit_retries = 0;      ///< extra listener submit attempts
};

namespace detail {

/// Serialized form of a set of halos: [u64 n_halos] then per halo
/// [u64 count][PackedParticle × count]. Used for Level 2 staging buffers.
inline std::vector<std::byte> pack_halos(
    const std::vector<sim::ParticleSet>& halos) {
  std::uint64_t bytes = sizeof(std::uint64_t);
  for (const auto& h : halos)
    bytes += sizeof(std::uint64_t) + h.size() * sizeof(sim::PackedParticle);
  std::vector<std::byte> out(bytes);
  std::byte* p = out.data();
  const std::uint64_t n = halos.size();
  std::memcpy(p, &n, sizeof(n));
  p += sizeof(n);
  for (const auto& h : halos) {
    const std::uint64_t c = h.size();
    std::memcpy(p, &c, sizeof(c));
    p += sizeof(c);
    for (std::size_t i = 0; i < h.size(); ++i) {
      const sim::PackedParticle w = sim::pack_particle(h, i);
      std::memcpy(p, &w, sizeof(w));
      p += sizeof(w);
    }
  }
  return out;
}

inline std::vector<sim::ParticleSet> unpack_halos(
    std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  const std::byte* end = p + bytes.size();
  auto need = [&](std::size_t n) {
    COSMO_REQUIRE(p + n <= end, "truncated staged halo buffer");
  };
  std::uint64_t n = 0;
  need(sizeof(n));
  std::memcpy(&n, p, sizeof(n));
  p += sizeof(n);
  std::vector<sim::ParticleSet> halos(n);
  for (auto& h : halos) {
    std::uint64_t c = 0;
    need(sizeof(c));
    std::memcpy(&c, p, sizeof(c));
    p += sizeof(c);
    h.reserve(c);
    for (std::uint64_t i = 0; i < c; ++i) {
      sim::PackedParticle w;
      need(sizeof(w));
      std::memcpy(&w, p, sizeof(w));
      p += sizeof(w);
      sim::unpack_particle(w, h);
    }
  }
  return halos;
}

/// Shortest text that parses back to the same double (std::to_string keeps
/// six decimals: 1e-7 would read back as 0).
inline std::string round_trip_text(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Builds the CosmoTools config text for a workflow's analysis settings.
inline CosmoToolsConfig analysis_config(const WorkflowProblem& p,
                                        std::uint64_t threshold) {
  std::string text;
  text += "[halofinder]\n";
  text += "linking_length " + round_trip_text(p.linking_length) + "\n";
  text += "min_size " + std::to_string(p.min_halo_size) + "\n";
  text += "overload " + round_trip_text(p.overload) + "\n";
  text += "[centerfinder]\n";
  text += "threshold " + std::to_string(threshold) + "\n";
  text += "[somass]\n";
  text += std::string("enabled ") + (p.compute_so_mass ? "true" : "false") +
          "\n";
  text += "[subhalos]\n";
  text += std::string("enabled ") + (p.compute_subhalos ? "true" : "false") +
          "\n";
  text += "min_host " + std::to_string(p.subhalo_min_host) + "\n";
  return CosmoToolsConfig::parse(text);
}

/// Output of the simulation-side job on one rank.
struct SimJobOutput {
  stats::HaloCatalog catalog_part;            ///< in-situ Level 3 part
  std::vector<sim::ParticleSet> deferred;     ///< Level 2 halo particle sets
  std::vector<std::int64_t> deferred_ids;
  double find_s = 0, center_s = 0, other_s = 0;
};

/// Runs generation + the in-situ pipeline on one rank. threshold == 0 means
/// "center everything in-situ"; nonzero defers larger halos.
inline SimJobOutput run_insitu_pipeline(comm::Comm& c,
                                        const WorkflowProblem& p,
                                        std::uint64_t threshold,
                                        sim::ParticleSet& local,
                                        std::uint64_t total_particles) {
  sim::SlabDecomposition decomp(c.size(), p.universe.box);
  InSituAnalysisManager manager(c, decomp, p.universe.box, total_particles,
                                p.backend);
  register_halo_pipeline(manager);
  manager.configure(analysis_config(p, threshold));
  sim::StepContext step{1, 1, 1.0, 0.0};
  AnalysisContext ctx = manager.execute_step(step, local);

  SimJobOutput out;
  out.catalog_part = std::move(ctx.catalog);
  for (std::size_t d = 0; d < ctx.deferred_members.size(); ++d)
    out.deferred.push_back(
        ctx.fof->particles.select(ctx.deferred_members[d]));
  out.deferred_ids = std::move(ctx.deferred_ids);
  for (const auto& t : manager.timings()) {
    if (t.name == "halofinder")
      out.find_s += t.seconds;
    else if (t.name == "centerfinder")
      out.center_s += t.seconds;
    else
      out.other_s += t.seconds;
  }
  return out;
}

/// Off-line analysis of Level 2 halo particle sets (the "Moonlight" job):
/// LPT-balanced center finding (+ SO/subhalos when enabled). Returns the
/// off-line catalog part on rank 0; fills per-rank center seconds.
/// `backend` is the executing cluster's hardware — normally
/// p.analysis_backend, but a degraded step runs on the simulation side's
/// backend instead.
inline stats::HaloCatalog analyze_level2(
    comm::Comm& c, const WorkflowProblem& p, dpp::Backend backend,
    const std::vector<sim::ParticleSet>& halos, std::uint64_t total_particles,
    std::vector<double>& center_seconds_per_rank) {
  // Balance halos across analysis ranks by the n² cost model.
  std::vector<std::uint64_t> sizes(halos.size());
  for (std::size_t h = 0; h < halos.size(); ++h) sizes[h] = halos[h].size();
  CenterCostModel cost;  // relative weights only; coeff cancels in LPT
  auto assignment = balance_halos(sizes, static_cast<std::size_t>(c.size()),
                                  cost);

  halo::CenterConfig ccfg;
  ccfg.box = p.universe.box;
  halo::SoConfig scfg;
  scfg.particle_mass = 1.0;
  scfg.mean_density = static_cast<double>(total_particles) /
                      (p.universe.box * p.universe.box * p.universe.box);
  scfg.box = p.universe.box;
  halo::SubhaloConfig sub_cfg;
  sub_cfg.box = p.universe.box;

  WallTimer timer;
  const auto& my_halos = assignment[static_cast<std::size_t>(c.rank())];
  // One task per assigned halo (the LPT assignment balances across ranks;
  // the fan-out balances within the rank), appended in assignment order so
  // the catalog is identical on both backends.
  stats::HaloCatalog mine(my_halos.size());
  {
    COSMO_TRACE_SPAN_CAT("halo.centers", "halo");
    dpp::for_each_index(
        backend, my_halos.size(),
        [&](std::size_t k) {
          const sim::ParticleSet& h = halos[my_halos[k]];
          std::vector<std::uint32_t> members(h.size());
          std::iota(members.begin(), members.end(), 0u);
          const auto r = halo::mbp_center(backend, h, members, ccfg);
          stats::HaloRecord rec;
          // Halo id = minimum particle tag (the FOF id definition),
          // recoverable from the Level 2 block itself.
          rec.id = *std::min_element(h.tag.begin(), h.tag.end());
          rec.count = h.size();
          rec.cx = h.x[r.particle];
          rec.cy = h.y[r.particle];
          rec.cz = h.z[r.particle];
          rec.potential = static_cast<float>(r.potential);
          if (p.compute_so_mass) {
            const auto so =
                halo::so_mass(h, members, rec.cx, rec.cy, rec.cz, scfg);
            rec.so_mass = static_cast<float>(so.mass);
            rec.so_radius = static_cast<float>(so.radius);
          }
          if (p.compute_subhalos && h.size() > p.subhalo_min_host)
            rec.subhalos = static_cast<std::uint32_t>(
                halo::find_subhalos(h, members, sub_cfg).size());
          mine[k] = rec;
        },
        /*grain=*/1);
  }
  center_seconds_per_rank = c.allgather_value(timer.seconds());

  // Gather the off-line catalog onto rank 0.
  auto bytes = stats::catalog_to_bytes(mine);
  auto all = c.gatherv<std::byte>(bytes, 0);
  return c.rank() == 0 ? stats::catalog_from_bytes(all) : stats::HaloCatalog{};
}

/// Gathers per-rank catalog parts onto rank 0.
inline stats::HaloCatalog gather_catalog(comm::Comm& c,
                                         const stats::HaloCatalog& part) {
  auto bytes = stats::catalog_to_bytes(part);
  auto all = c.gatherv<std::byte>(bytes, 0);
  return c.rank() == 0 ? stats::catalog_from_bytes(all) : stats::HaloCatalog{};
}

inline void write_level3(const std::filesystem::path& path,
                         const stats::HaloCatalog& catalog,
                         std::uint64_t* bytes_out) {
  const auto bytes = stats::catalog_to_bytes(catalog);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  COSMO_REQUIRE(f.good(), "failed writing Level 3 catalog");
  if (bytes_out) *bytes_out = bytes.size();
}

}  // namespace detail

/// Runs the requested workflow end to end; returns the complete catalog and
/// the measured phase ledger. `problem.workdir` must exist and be writable.
WorkflowResult run_workflow(WorkflowKind kind, const WorkflowProblem& problem);

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

namespace detail {

/// Maximum of a local phase time across ranks, recorded on rank 0.
inline double phase_max(comm::Comm& c, double local) {
  return c.allreduce_value(local, comm::ReduceOp::Max);
}

struct Shared {
  std::mutex mutex;
  WorkflowResult result;
};

/// Writes producer rank `rank`'s Level 2 file `<base>.<rank>.cosmo`, one
/// block per deferred halo (the halo id is recoverable as the block's
/// minimum tag), then its `.done` trigger. A failed or partial write leaves
/// an unfinalized file the reader would reject, so the whole file is
/// written again from the start (the deferred halos are still in memory).
inline void write_level2_file(const std::filesystem::path& base, int rank,
                              double box,
                              const std::vector<sim::ParticleSet>& deferred) {
  const auto path = io::aggregated_file_path(base, rank);
  util::Retry retry;
  const auto outcome = retry.run("workflow.level2_write", [&] {
    io::CosmoIoWriter w(path, {box, 1.0, 0, 0});
    for (const auto& h : deferred)
      w.write_block(h, static_cast<std::uint32_t>(rank));
    w.finalize();
    return true;
  });
  COSMO_REQUIRE(outcome.success,
                "Level 2 write failed after retries: " + path.string());
  if (outcome.attempts > 1)
    COSMO_COUNT("workflow.write_retries",
                static_cast<std::uint64_t>(outcome.attempts - 1));
  std::ofstream trigger(io::trigger_path(path));
  trigger << "ok\n";
}

/// Appends the halos of producer rank `src`'s Level 2 file.
inline void read_level2_file(const std::filesystem::path& base, int src,
                             std::vector<sim::ParticleSet>& halos) {
  io::CosmoIoReader reader(io::aggregated_file_path(base, src));
  for (std::uint32_t b = 0; b < reader.num_blocks(); ++b)
    halos.push_back(reader.read_block(b));
}

/// What a post-processing job returns to run_workflow or run_campaign: its
/// catalog part (from rank 0) and the phase maxima of its Table 4 rows.
struct PostJob {
  stats::HaloCatalog catalog;
  double read = 0, redistribute = 0, analysis = 0;
  std::vector<double> center_per_rank;
};

/// The Level 2 analysis job: the combined variants' post job and their
/// degraded fallback, the campaign's per-step job and its post-drain
/// fallback. On `ranks` ranks with `backend`, each rank acquires the Level 2
/// halos of producer ranks src ≡ rank (mod ranks) through
/// `acquire(src, halos)`; once the ranks agree that every acquisition
/// succeeded, they share all halos and center them with analyze_level2.
/// Phases are timed under the phase.* spans in span category `cat`.
template <typename Acquire>
PostJob run_level2_job(const WorkflowProblem& p, int ranks,
                       dpp::Backend backend, const std::string& cat,
                       Acquire&& acquire) {
  PostJob job;
  comm::run_spmd(ranks, [&](comm::Comm& c) {
    std::vector<sim::ParticleSet> halos;
    double read_s = 0.0;
    c.agree_or_throw("Level 2 acquisition", [&] {
      obs::TimedSpan t_read("phase.read", cat);
      for (int src = c.rank(); src < p.ranks; src += c.size())
        acquire(src, halos);
      read_s = t_read.finish();
    });

    // "Redistribute": collect all halos onto every rank (they are then
    // LPT-assigned inside analyze_level2). Halo particle sets are shipped
    // whole — Level 2 communication.
    obs::TimedSpan t_redist("phase.redistribute", cat);
    std::vector<sim::ParticleSet> all_halos;
    std::vector<std::size_t> counts;
    const auto gathered = c.allgatherv<std::byte>(pack_halos(halos), &counts);
    // Segments concatenate in rank order; each is self-contained.
    std::size_t offset = 0;
    for (const auto len : counts) {
      const auto segment =
          std::span<const std::byte>(gathered).subspan(offset, len);
      for (auto& h : unpack_halos(segment)) all_halos.push_back(std::move(h));
      offset += len;
    }
    const double redist_s = t_redist.finish();

    obs::TimedSpan t_analysis("phase.post_analysis", cat);
    std::vector<double> center_per_rank;
    auto catalog = analyze_level2(c, p, backend, all_halos,
                                  sim::synthetic_total_particles(p.universe),
                                  center_per_rank);
    const double analysis_s = t_analysis.finish();
    const double read_max = phase_max(c, read_s);
    const double redist_max = phase_max(c, redist_s);
    const double analysis_max = phase_max(c, analysis_s);
    if (c.rank() == 0)
      job = {std::move(catalog), read_max, redist_max, analysis_max,
             std::move(center_per_rank)};
  });
  return job;
}

/// The off-line variant's full-size post job: reads Level 1 back through
/// the io layer, restores the slab decomposition, and runs the whole
/// analysis pipeline.
inline PostJob run_offline_job(const WorkflowProblem& p) {
  const std::string cat = to_string(WorkflowKind::OffLine);
  std::vector<std::filesystem::path> files;
  const int groups = (p.ranks + p.ranks_per_file - 1) / p.ranks_per_file;
  for (int g = 0; g < groups; ++g)
    files.push_back(io::aggregated_file_path(p.workdir / "level1", g));
  PostJob job;
  comm::run_spmd(p.ranks, [&](comm::Comm& c) {
    sim::ParticleSet mine;
    double read_s = 0.0;
    c.agree_or_throw("Level 1 read", [&] {
      obs::TimedSpan t_read("phase.read", cat);
      mine = io::read_aggregated_blocks(files, c.rank(), c.size());
      read_s = t_read.finish();
    });
    obs::TimedSpan t_redist("phase.redistribute", cat);
    sim::SlabDecomposition decomp(c.size(), p.universe.box);
    sim::ParticleSet owned = decomp.redistribute(c, std::move(mine));
    const double redist_s = t_redist.finish();

    obs::TimedSpan t_analysis("phase.post_analysis", cat);
    auto out = run_insitu_pipeline(c, p, 0, owned,
                                   sim::synthetic_total_particles(p.universe));
    const double analysis_s = t_analysis.finish();
    auto catalog = gather_catalog(c, out.catalog_part);
    auto center_all = c.allgather_value(out.center_s);
    const double read_max = phase_max(c, read_s);
    const double redist_max = phase_max(c, redist_s);
    const double analysis_max = phase_max(c, analysis_s);
    if (c.rank() == 0)
      job = {std::move(catalog), read_max, redist_max, analysis_max,
             std::move(center_all)};
  });
  return job;
}

/// The simulation-side job, common to all variants. For OffLine it writes
/// Level 1 and does no analysis; otherwise it runs the in-situ pipeline
/// with the given threshold and, when the threshold defers halos, emits
/// their Level 2 via `emit_level2` (filesystem or staging, variant-
/// dependent). Each write is agreed on before the gathers that follow it,
/// so a rank whose write failed for good fails the job on every rank.
template <typename EmitLevel2>
void simulation_job(const WorkflowProblem& p, WorkflowKind kind,
                    std::uint64_t threshold, Shared& shared,
                    EmitLevel2&& emit_level2) {
  const std::string cat = to_string(kind);
  comm::run_spmd(p.ranks, [&](comm::Comm& c) {
    obs::TimedSpan t_sim("phase.sim", cat);
    sim::Cosmology cosmo;
    auto universe = sim::generate_synthetic(c, cosmo, p.universe);
    const double sim_s = t_sim.finish();

    double analysis_s = 0.0, write_s = 0.0;
    SimJobOutput out;
    std::uint64_t level2_local = 0;

    if (kind == WorkflowKind::OffLine) {
      c.agree_or_throw("Level 1 write", [&] {
        obs::TimedSpan t_write("phase.write", cat);
        auto wr = io::write_aggregated(
            c, p.workdir / "level1", universe.local,
            {p.universe.box, 1.0, universe.total_particles, 0},
            p.ranks_per_file);
        write_s = t_write.finish();
        std::lock_guard lock(shared.mutex);
        shared.result.level1_bytes += wr.bytes_written;
      });
    } else {
      obs::TimedSpan t_analysis("phase.analysis", cat);
      out = run_insitu_pipeline(c, p, threshold, universe.local,
                                universe.total_particles);
      analysis_s = t_analysis.finish();
      for (const auto& h : out.deferred) level2_local += h.bytes();
      if (threshold != 0)
        c.agree_or_throw("Level 2 write", [&] {
          obs::TimedSpan t_write("phase.write", cat);
          emit_level2(c, out);
          write_s = t_write.finish();
        });
    }

    // Gather the in-situ catalog part and per-rank timings.
    auto catalog = gather_catalog(c, out.catalog_part);
    auto find_all = c.allgather_value(out.find_s);
    auto center_all = c.allgather_value(out.center_s);
    auto other_all = c.allgather_value(out.other_s);
    const double sim_max = phase_max(c, sim_s);
    const double analysis_max = phase_max(c, analysis_s);
    const double write_max = phase_max(c, write_s);
    const auto deferred_total = c.allreduce_value<std::uint64_t>(
        out.deferred.size(), comm::ReduceOp::Sum);
    const auto level2_total =
        c.allreduce_value<std::uint64_t>(level2_local, comm::ReduceOp::Sum);

    if (c.rank() == 0) {
      std::lock_guard lock(shared.mutex);
      auto& r = shared.result;
      r.times.sim = sim_max;
      r.times.analysis = analysis_max;
      r.times.write += write_max;
      r.times.find_per_rank = find_all;
      r.times.center_per_rank = center_all;
      r.times.other_per_rank = other_all;
      r.catalog = std::move(catalog);  // in-situ part
      r.deferred_halos = deferred_total;
      r.level2_bytes = level2_total;
    }
  });
}

}  // namespace detail

inline WorkflowResult run_workflow(WorkflowKind kind,
                                   const WorkflowProblem& problem) {
  namespace fs = std::filesystem;
  COSMO_REQUIRE(!problem.workdir.empty(), "workflow needs a workdir");
  fs::create_directories(problem.workdir);
  detail::Shared shared;
  WorkflowResult& r = shared.result;  // ranks write it under shared.mutex
  r.kind = kind;

  const std::uint64_t threshold =
      kind == WorkflowKind::InSitu || kind == WorkflowKind::OffLine
          ? 0
          : problem.threshold;

  // --- variant-specific Level 2 transport ----------------------------------
  const fs::path level2_base = problem.workdir / "level2";
  sched::StagingArea staging(problem.staging_capacity);
  // Producer ranks whose staging put failed and were routed through the
  // filesystem instead; the consumer reads their Level 2 from files.
  // Written under shared.mutex by the simulation job, read after it.
  std::set<int> staging_fallback_ranks;

  auto emit_to_files = [&](comm::Comm& c, detail::SimJobOutput& out) {
    detail::write_level2_file(level2_base, c.rank(), problem.universe.box,
                              out.deferred);
  };
  auto emit_to_staging = [&](comm::Comm& c, detail::SimJobOutput& out) {
    if (staging.put("level2.rank" + std::to_string(c.rank()),
                    detail::pack_halos(out.deferred)))
      return;
    // Burst buffer unavailable (capacity exhausted, closed, or injected
    // device failure): fall back to the filesystem — the overflow behaviour
    // the staging area documents — and tell the consumer where to look.
    COSMO_COUNT("workflow.staging_fallbacks", 1);
    emit_to_files(c, out);
    std::lock_guard lock(shared.mutex);
    ++r.staging_fallbacks;
    staging_fallback_ranks.insert(c.rank());
  };
  auto read_from_files = [&](int src, std::vector<sim::ParticleSet>& halos) {
    detail::read_level2_file(level2_base, src, halos);
  };
  // How long the in-transit consumer waits for a staged buffer before
  // treating the handoff as failed.
  constexpr std::chrono::milliseconds kStagingTakeTimeout{10000};
  // Takes a producer rank's staged buffer (blocking handoff); a rank whose
  // put fell back to the filesystem is read from its Level 2 file instead.
  auto take_from_staging = [&](int src, std::vector<sim::ParticleSet>& halos) {
    if (staging_fallback_ranks.count(src) != 0)
      return read_from_files(src, halos);
    const std::string name = "level2.rank" + std::to_string(src);
    auto buf = staging.take_blocking(name, kStagingTakeTimeout);
    if (!buf) {
      // Lost handoff (injected or timed out): the data may still be
      // resident — retry the take once before giving up.
      buf = staging.take(name);
      if (buf) COSMO_COUNT("workflow.staging_take_retries", 1);
    }
    COSMO_REQUIRE(buf.has_value(),
                  "staged Level 2 buffer missing: rank " + std::to_string(src));
    for (auto& h : detail::unpack_halos(*buf)) halos.push_back(std::move(h));
  };

  // --- co-scheduling listener (real, watching the workdir) ---------------
  std::unique_ptr<sched::Listener> listener;
  if (kind == WorkflowKind::CombinedCoScheduled) {
    listener = std::make_unique<sched::Listener>(
        sched::ListenerConfig{problem.workdir, ".done",
                              std::chrono::milliseconds(5)},
        [](const fs::path&) {});
    listener->start();
  }

  // --- simulation job ------------------------------------------------------
  if (kind == WorkflowKind::CombinedInTransit)
    detail::simulation_job(problem, kind, threshold, shared, emit_to_staging);
  else
    detail::simulation_job(problem, kind, threshold, shared, emit_to_files);

  bool degraded = false;
  if (listener) {
    listener->wait_for_triggers(static_cast<std::uint64_t>(problem.ranks),
                                std::chrono::milliseconds(5000));
    listener->stop();
    const auto stats = listener->stats();
    r.listener_triggers = stats.triggers;
    r.listener_polls = stats.polls;
    r.dead_letter_submits = stats.dead_letters;
    r.submit_retries = stats.submit_retries;
    // Co-scheduled analysis is unavailable when any trigger's submission
    // dead-lettered (failed permanently after retries) or triggers never
    // surfaced at all: degrade the step — the paper's own decision
    // structure — by running the deferred analysis on the simulation job's
    // resources instead.
    degraded = stats.dead_letters > 0 ||
               stats.triggers < static_cast<std::uint64_t>(problem.ranks);
  }
  if (kind == WorkflowKind::CombinedInTransit &&
      COSMO_FAULT_POINT("workflow.intransit_consumer")) {
    // The co-scheduled consumer died before the handoff; the staged data is
    // drained by the fallback job on the simulation side's resources.
    COSMO_COUNT("workflow.consumer_faults", 1);
    degraded = true;
  }

  // --- post-processing job -------------------------------------------------
  detail::PostJob post;
  if (kind == WorkflowKind::OffLine) {
    post = detail::run_offline_job(problem);
  } else if (kind != WorkflowKind::InSitu) {
    // Combined variants: small analysis job over Level 2. A degraded step
    // runs the same job on the simulation job's ranks and backend —
    // in-situ fallback — and records the downgrade.
    const int post_ranks = degraded ? problem.ranks : problem.analysis_ranks;
    const dpp::Backend post_backend =
        degraded ? problem.backend : problem.analysis_backend;
    std::optional<obs::ScopedSpan> degraded_span;
    if (degraded) {
      COSMO_COUNT("workflow.degraded", 1);
      r.degraded_steps = 1;
      degraded_span.emplace("workflow.degraded_step", "faults");
    }
    post = kind == WorkflowKind::CombinedInTransit
               ? detail::run_level2_job(problem, post_ranks, post_backend,
                                        to_string(kind), take_from_staging)
               : detail::run_level2_job(problem, post_ranks, post_backend,
                                        to_string(kind), read_from_files);
  }
  r.times.read = post.read;
  r.times.redistribute = post.redistribute;
  r.times.post_analysis = post.analysis;
  r.times.post_center_per_rank = std::move(post.center_per_rank);

  // --- Level 3: reconcile the in-situ and post-processing parts ------------
  // Timed as the simulation job's write for pure in-situ, as the post job's
  // write otherwise.
  const bool has_post_job = kind != WorkflowKind::InSitu;
  obs::TimedSpan t_write(has_post_job ? "phase.post_write" : "phase.write",
                         to_string(kind));
  r.catalog = stats::reconcile_catalogs(r.catalog, post.catalog);
  detail::write_level3(problem.workdir / "level3.catalog", r.catalog,
                       &r.level3_bytes);
  (has_post_job ? r.times.post_write : r.times.write) += t_write.finish();
  r.total_halos = r.catalog.size();
  return r;
}

}  // namespace cosmo::core
