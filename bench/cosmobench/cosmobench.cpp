// cosmobench — the one benchmark for the paper's workflows.
//
// Drives the system only through its public calls — core::run_workflow,
// core::run_campaign, and sim::Simulation::run with an
// InSituAnalysisManager step hook — times them from outside, and checks
// every catalog they return by its sorted-catalog CRC32. README.md holds
// the glossary of workloads and metrics, the golden CRCs, and how to
// compare two commits.
//
//   cosmobench --workload=<name> [--seed=<n>] [--seconds=<s>]
//              [--json=<file>] [--trace=<file>] [--workdir=<dir>]
//   cosmobench --all [--seed=<n>] [--seconds=<s>]
//   cosmobench --smoke | --self-test
//   cosmobench --setup-probe | --match=<n> --workload=<name> [--seed=<n>]
//
// The loop is closed: a unit starts after the previous one returns. A run
// does 5 set-up probes (fresh child processes, one at a time), one untimed
// warm-up round, then whole rounds until `--seconds` have passed. Tracing
// is off except in the traced rounds of --trace mode.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/campaign.h"
#include "core/cosmotools.h"
#include "core/workflows.h"
#include "dpp/thread_pool.h"
#include "obs/obs.h"
#include "sim/cosmology.h"
#include "sim/simulation.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/timer.h"

extern char** environ;

namespace {

using namespace cosmo;
namespace fs = std::filesystem;
using core::WorkflowKind;

constexpr std::uint64_t kDefaultSeed = 20151115;  // the Table 3/4 universe
constexpr int kRanks = 4;              // ranks per job: the host's 4 cores
constexpr int kSetupProbes = 5;        // set-up probes per run
constexpr double kDefaultSeconds = 18.0;
constexpr std::size_t kMinRounds = 3;  // a median needs a few rounds

enum class WorkloadId { VariantsMonster, OfflineBulk, CampaignCosched, PmInsitu };

struct WorkloadSpec {
  WorkloadId id;
  const char* name;
  std::uint32_t golden_crc;  ///< sorted-catalog CRC32 at kDefaultSeed
};

constexpr WorkloadSpec kWorkloads[] = {
    {WorkloadId::VariantsMonster, "variants_monster", 0x43638486u},
    {WorkloadId::OfflineBulk, "offline_bulk", 0x9a1d03c1u},
    {WorkloadId::CampaignCosched, "campaign_cosched", 0x48dfa761u},
    {WorkloadId::PmInsitu, "pm_insitu", 0xa46b8c37u},
};

const WorkloadSpec& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// --self-test: the next catalog fingerprinted gets one record flipped.
bool g_corrupt_next_catalog = false;

/// CRC32 of a catalog in id order, field by field (HaloRecord's tail
/// padding is not part of the product). Chain catalogs through `crc`.
std::uint32_t catalog_crc(stats::HaloCatalog catalog, std::uint32_t crc = 0) {
  if (g_corrupt_next_catalog && !catalog.empty()) {
    catalog.front().count ^= 1;
    g_corrupt_next_catalog = false;
  }
  stats::sort_catalog(catalog);
  auto feed = [&](const auto& v) { crc = cosmo::crc32(&v, sizeof v, crc); };
  feed(static_cast<std::uint64_t>(catalog.size()));
  for (const auto& r : catalog) {
    feed(r.id);
    feed(r.count);
    feed(r.cx);
    feed(r.cy);
    feed(r.cz);
    feed(r.potential);
    feed(r.so_mass);
    feed(r.so_radius);
    feed(r.concentration);
    feed(r.b_over_a);
    feed(r.c_over_a);
    feed(r.subhalos);
  }
  return crc;
}

/// Every unit of a run must reproduce one catalog CRC; at the default seed
/// that CRC must also equal the workload's golden value.
class CatalogGate {
 public:
  explicit CatalogGate(std::optional<std::uint32_t> golden) : golden_(golden) {}

  /// Empty when the catalog passes, else why it failed.
  std::string check(std::uint32_t crc) {
    if (golden_ && crc != *golden_)
      return format("catalog crc %08x, golden %08x", crc, *golden_);
    if (!first_) first_ = crc;
    if (crc != *first_)
      return format("catalog crc %08x, first unit of the run %08x", crc,
                    *first_);
    return {};
  }

  std::optional<std::uint32_t> crc() const { return first_; }

 private:
  std::optional<std::uint32_t> golden_;
  std::optional<std::uint32_t> first_;
};

std::uint64_t counter_total(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).total();
}

/// Fault and retry counters: any change across a unit fails it.
struct FaultCounters {
  std::uint64_t injected = 0, retries = 0;

  static FaultCounters now() {
    return {counter_total("faults.injected"),
            counter_total("retry.attempts") - counter_total("retry.successes")};
  }
};

std::string fault_check(const FaultCounters& before) {
  const FaultCounters after = FaultCounters::now();
  if (after.injected != before.injected || after.retries != before.retries)
    return format("faults injected %llu, retries %llu",
                  static_cast<unsigned long long>(after.injected - before.injected),
                  static_cast<unsigned long long>(after.retries - before.retries));
  return {};
}

// ---------------------------------------------------------------------------
// Ledger: units attempted/failed, timing samples, per-layer accumulators
// ---------------------------------------------------------------------------

struct Ledger {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> samples;  ///< metric → samples
  std::map<std::string, double> layer;  ///< per-layer sums over rounds

  void fail(const std::string& workload, std::size_t unit, std::string why) {
    ++failed;
    failures.push_back(format("%s#%zu: ", workload.c_str(), unit) + why);
    std::fprintf(stderr, "cosmobench: FAILED %s\n", failures.back().c_str());
  }

  void absorb_counts(const Ledger& other) {
    attempted += other.attempted;
    failed += other.failed;
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
  }
};

double max_over_min(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *lo > 0.0 ? *hi / *lo : 0.0;
}

// ---------------------------------------------------------------------------
// Inputs: problems, and the seed → universe mapping
// ---------------------------------------------------------------------------

/// Table 3/4's downscaled problem (one rare large halo dominates
/// centring), at 4 ranks so no job oversubscribes the host.
core::WorkflowProblem monster_problem(std::uint64_t universe_seed) {
  core::WorkflowProblem p;
  p.universe.box = 48.0;
  p.universe.seed = universe_seed;
  p.universe.halo_count = 60;
  p.universe.min_particles = 60;
  p.universe.max_particles = 26000;
  p.universe.background_particles = 12000;
  p.universe.subclump_fraction = 0.0;
  p.ranks = kRanks;
  p.analysis_ranks = 2;
  p.ranks_per_file = 2;
  p.linking_length = 0.32;
  p.min_halo_size = 40;
  p.overload = 3.0;
  p.threshold = 1200;
  p.compute_so_mass = true;
  p.compute_subhalos = false;
  return p;
}

/// Many modest halos in a large background: FOF, tree and data movement
/// dominate instead of centring.
core::WorkflowProblem bulk_problem(std::uint64_t universe_seed) {
  core::WorkflowProblem p = monster_problem(universe_seed);
  p.universe.box = 76.0;
  p.universe.halo_count = 1000;
  p.universe.min_particles = 60;
  p.universe.max_particles = 1500;
  p.universe.background_particles = 200000;
  p.threshold = 100;
  p.analysis_ranks = kRanks;
  return p;
}

/// Eight co-scheduled steps over universes of many medium halos, so every
/// step defers a comparable load (one monster per step would make each
/// step's cost, and so the drain, depend on the seed).
core::CampaignConfig campaign_config(std::uint64_t universe_seed) {
  core::CampaignConfig cfg;
  cfg.base = monster_problem(universe_seed);
  cfg.base.universe.halo_count = 160;
  cfg.base.universe.max_particles = 6000;
  cfg.timesteps = 8;
  cfg.growth_per_step = 1.3;
  return cfg;
}

sim::SimulationConfig pm_config(std::uint64_t seed) {
  sim::SimulationConfig cfg;
  cfg.ic.ng = 64;
  cfg.ic.box = 128.0;
  cfg.ic.z_init = 30.0;
  cfg.ic.seed = seed;
  cfg.z_final = 0.0;
  cfg.steps = 16;
  return cfg;
}

constexpr const char* kPmAnalysisConfig = R"(
[powerspectrum]
cadence 4
grid 64
bins 16

[halofinder]
cadence 4
linking_length 0.4
min_size 20
overload 4.0

[centerfinder]
cadence 4
threshold 0

[somass]
cadence 4

[subhalos]
enabled false
)";

/// The campaign's per-step universes, as core::run_campaign derives them.
std::vector<sim::SyntheticConfig> campaign_universes(
    const core::CampaignConfig& cfg) {
  std::vector<sim::SyntheticConfig> out(cfg.timesteps, cfg.base.universe);
  for (std::size_t s = 0; s < cfg.timesteps; ++s) {
    out[s].seed = cfg.base.universe.seed + s;
    out[s].max_particles = std::max(
        cfg.base.universe.min_particles,
        static_cast<std::size_t>(
            static_cast<double>(cfg.base.universe.max_particles) *
            std::pow(cfg.growth_per_step,
                     static_cast<double>(s) -
                         static_cast<double>(cfg.timesteps - 1))));
  }
  return out;
}

struct PlantedHalo {
  double n, x, y, z;
};

/// Replays the generator's catalog pass (as sim::synthetic_total_particles
/// does): halo sizes and centres, without sampling particles.
std::vector<PlantedHalo> planted_halos(const sim::SyntheticConfig& u) {
  Rng rng(u.seed, 0);
  std::vector<PlantedHalo> out(u.halo_count);
  for (auto& h : out) {
    h.n = static_cast<double>(static_cast<std::size_t>(sim::detail::powerlaw_mass(
        rng, static_cast<double>(u.min_particles),
        static_cast<double>(u.max_particles) + 0.999, u.mass_slope)));
    h.x = rng.uniform(0.0, u.box);
    h.y = rng.uniform(0.0, u.box);
    h.z = rng.uniform(0.0, u.box);
  }
  return out;
}

/// What analysing a universe costs, predicted from its planted catalog.
struct UniverseCost {
  double particles = 0;     ///< background included
  double largest = 0;       ///< the largest FOF group
  double deferred_n2 = 0;   ///< Σn² over groups above the split threshold
  double insitu_n2 = 0;     ///< Σn² over the other groups
  double busiest_slab = 0;  ///< halo particles planted in the fullest slab
  double face_share = 0;    ///< share of Σn² in groups straddling a box face
  double ghost_share = 0;   ///< share of Σn² a neighbouring rank links again
};

/// Halos whose spheres come within a linking length of each other are one
/// FOF group, so their sizes add before the O(n²) centring cost is priced.
/// A group straddling a face of the periodic box costs more per pair: the
/// centre finder's minimum-image fold branches unpredictably there. The
/// part of a halo within `overload` of a slab boundary is linked twice: by
/// its owner and, as ghosts, by the neighbouring rank.
UniverseCost universe_cost(const sim::SyntheticConfig& u,
                           const std::vector<PlantedHalo>& halos,
                           const core::WorkflowProblem& p) {
  UniverseCost cost;
  cost.particles = static_cast<double>(u.background_particles);
  for (const auto& h : halos) cost.particles += h.n;
  const sim::Cosmology cosmo;
  std::vector<double> radius(halos.size());
  for (std::size_t i = 0; i < halos.size(); ++i)
    radius[i] = sim::synthetic_halo_radius(
        cosmo, u.box, static_cast<std::uint64_t>(cost.particles),
        static_cast<std::size_t>(halos[i].n));
  std::vector<std::size_t> parent(halos.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto root = [&](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  auto gap = [&](double a, double b) {
    const double d = std::abs(a - b);
    return std::min(d, u.box - d);
  };
  for (std::size_t i = 0; i < halos.size(); ++i)
    for (std::size_t j = i + 1; j < halos.size(); ++j) {
      const double reach = radius[i] + radius[j] + p.linking_length;
      const double dx = gap(halos[i].x, halos[j].x);
      const double dy = gap(halos[i].y, halos[j].y);
      const double dz = gap(halos[i].z, halos[j].z);
      if (dx * dx + dy * dy + dz * dz < reach * reach)
        parent[root(i)] = root(j);
    }
  std::vector<double> group(halos.size(), 0.0);
  std::vector<std::uint8_t> on_face(halos.size(), 0);
  std::vector<double> slab(static_cast<std::size_t>(p.ranks), 0.0);
  const sim::SlabDecomposition decomp(p.ranks, u.box);
  double planted_n2 = 0.0, ghost_n2 = 0.0;
  for (std::size_t i = 0; i < halos.size(); ++i) {
    const auto& h = halos[i];
    group[root(i)] += h.n;
    for (const double c : {h.x, h.y, h.z})
      if (c < radius[i] || c > u.box - radius[i]) on_face[root(i)] = 1;
    slab[static_cast<std::size_t>(decomp.owner_of(h.z))] += h.n;
    double ghosted = 0.0;  // z-extent inside a boundary's overload band
    for (int b = 0; b <= p.ranks; ++b) {
      const double at = u.box * b / p.ranks;
      ghosted += std::max(0.0, std::min(h.z + radius[i], at + p.overload) -
                                   std::max(h.z - radius[i], at - p.overload));
    }
    planted_n2 += h.n * h.n;
    ghost_n2 += h.n * h.n * std::min(1.0, ghosted / (2.0 * radius[i]));
  }
  double face_n2 = 0.0;
  for (std::size_t g = 0; g < group.size(); ++g) {
    const double n = group[g];
    cost.largest = std::max(cost.largest, n);
    (n > static_cast<double>(p.threshold) ? cost.deferred_n2
                                          : cost.insitu_n2) += n * n;
    if (on_face[g]) face_n2 += n * n;
  }
  cost.busiest_slab = *std::max_element(slab.begin(), slab.end());
  cost.face_share = face_n2 / (cost.deferred_n2 + cost.insitu_n2);
  cost.ghost_share = ghost_n2 / planted_n2;
  return cost;
}

/// How closely a candidate's predicted cost must match the default seed's:
/// relative per component, absolute for the two shares.
struct CostTolerance {
  double particles, largest, deferred_n2, insitu_n2, busiest_slab, face_share,
      ghost_share;
};

/// What a synthetic workload generates from one universe seed: the problem,
/// its universes (the last decides the cost: for a campaign, the step that
/// drains last; earlier steps are matched on their totals) and the match
/// tolerance.
struct SyntheticInputs {
  core::WorkflowProblem problem;
  std::vector<sim::SyntheticConfig> universes;
  CostTolerance tolerance;
};

SyntheticInputs synthetic_inputs(WorkloadId id, std::uint64_t universe_seed) {
  switch (id) {
    case WorkloadId::VariantsMonster: {
      // One monster sets the time: pin it (size, Σn², where it sits) hard;
      // the small halos and the generator's balance matter little.
      const auto p = monster_problem(universe_seed);
      return {p, {p.universe}, {0.03, 0.01, 0.02, 0.15, 0.08, 0.02, 0.10}};
    }
    case WorkloadId::OfflineBulk: {
      // A thousand halos: the sums are steady; the largest barely matters.
      const auto p = bulk_problem(universe_seed);
      return {p, {p.universe}, {0.03, 0.10, 0.03, 0.10, 0.05, 0.03, 0.05}};
    }
    default: {
      // Eight steps average out what the last step's match leaves loose.
      const auto cfg = campaign_config(universe_seed);
      return {cfg.base, campaign_universes(cfg),
              {0.03, 0.15, 0.05, 0.15, 0.08, 0.08, 0.10}};
    }
  }
}

/// Whether a universe seed's predicted cost matches the default seed's
/// within the workload's tolerances.
class CostMatcher {
 public:
  explicit CostMatcher(WorkloadId id) : id_(id) {
    const SyntheticInputs in = synthetic_inputs(id, kDefaultSeed);
    tol_ = in.tolerance;
    for (const auto& u : in.universes) {
      ref_ = universe_cost(u, planted_halos(u), in.problem);
      ref_total_particles_ += ref_.particles;
      ref_total_deferred_ += ref_.deferred_n2;
    }
  }

  bool matches(std::uint64_t universe_seed) const {
    const SyntheticInputs in = synthetic_inputs(id_, universe_seed);
    const auto halos = planted_halos(in.universes.back());
    // Cheap rejections first: merging only grows groups and their Σn².
    double planted = static_cast<double>(in.universes.back().background_particles);
    double biggest = 0.0, deferred_n2 = 0.0;
    for (const auto& h : halos) {
      planted += h.n;
      biggest = std::max(biggest, h.n);
      if (h.n > static_cast<double>(in.problem.threshold))
        deferred_n2 += h.n * h.n;
    }
    if (!near(planted, ref_.particles, tol_.particles) ||
        biggest > (1.0 + tol_.largest) * ref_.largest ||
        deferred_n2 > (1.0 + tol_.deferred_n2) * ref_.deferred_n2)
      return false;
    const UniverseCost c = universe_cost(in.universes.back(), halos, in.problem);
    if (!near(c.largest, ref_.largest, tol_.largest) ||
        !near(c.deferred_n2, ref_.deferred_n2, tol_.deferred_n2) ||
        !near(c.insitu_n2, ref_.insitu_n2, tol_.insitu_n2) ||
        !near(c.busiest_slab, ref_.busiest_slab, tol_.busiest_slab) ||
        std::abs(c.face_share - ref_.face_share) > tol_.face_share ||
        std::abs(c.ghost_share - ref_.ghost_share) > tol_.ghost_share)
      return false;
    double total_particles = 0.0, total_deferred = 0.0;
    for (const auto& u : in.universes) {
      const UniverseCost uc = universe_cost(u, planted_halos(u), in.problem);
      total_particles += uc.particles;
      total_deferred += uc.deferred_n2;
    }
    return near(total_particles, ref_total_particles_, tol_.particles) &&
           near(total_deferred, ref_total_deferred_, tol_.deferred_n2);
  }

 private:
  static bool near(double a, double b, double t) {
    return std::abs(a - b) <= t * b;
  }

  WorkloadId id_;
  CostTolerance tol_{};
  UniverseCost ref_;  ///< the default seed's deciding universe
  double ref_total_particles_ = 0.0, ref_total_deferred_ = 0.0;
};

// The universes the seeds map to: `cosmobench --match=4 --seed=<s>
// --workload=<name>` for s = 1..4, the first 4 measured matches on each
// seed's candidate stream. Regenerate them when a workload or the
// generator changes; a stale entry stops the run.
constexpr std::uint64_t kMonsterUniverses[] = {
    0x142f3a5ef1538860ull, 0x40a2894526805832ull, 0x28579781918afcd0ull,
    0x237a74d6ce10f168ull, 0x4bb19b094db7ec62ull, 0x1cd65c4636aa78f1ull,
    0xe8f2c00c17c0eb42ull, 0x336e87f963de5735ull, 0xd29a6f34705f31acull,
    0x955b0c34a5247717ull, 0x2f95c1aa7012414bull, 0xc6c3887c1d127d2full,
    0x907c81370e908084ull, 0x9243570db03da510ull, 0xc68691ebb4c30ff0ull,
    0x4398b316cdc3c821ull,
};
constexpr std::uint64_t kBulkUniverses[] = {
    0xf902155aa328d575ull, 0x0804044fa2636993ull, 0x2f831ff2c7759802ull,
    0x8c4add0f84948114ull, 0x6cc5fb3fb11a5d01ull, 0xa9662154d1a88c84ull,
    0xa94a69a1c9201182ull, 0x3811f46a91c858e7ull, 0x95141a276e6117d8ull,
    0x4812ff0ebf73c9c0ull, 0xdaef28796934351dull, 0x6b1eea0848286245ull,
    0x75b53922c2f17d93ull, 0x177723c4e4bb5f81ull, 0x55c5c84d2e76cc45ull,
    0x912cee21c6d73803ull,
};
constexpr std::uint64_t kCampaignUniverses[] = {
    0xafe1963abc465006ull, 0x9e8384ab2e827816ull, 0x98bdd0beb4a0142full,
    0x65b3c3221f6d6263ull, 0x724a97358fed755aull, 0x3c902fb88197aac1ull,
    0x23a96ea8c558eb88ull, 0x05f31053bf5adcadull, 0xa1446eba90a4c90cull,
    0x6821a358103903f9ull, 0xe40899fe3bb97347ull, 0x44c75a1046051b05ull,
    0x855b5fba8ad47945ull, 0x6c463b2e62c29506ull, 0x946f045129b53ee1ull,
    0x7b9c1b10655b55ddull,
};

/// Maps --seed to the universe seed a synthetic workload runs. A heavy-
/// tailed mass function makes the O(n²) centring cost swing fifty-fold
/// between universes, and which halos merge, share a slab or straddle the
/// box moves it further. So a seed picks one of the workload's matched
/// universes — each predicted and measured to cost what the default seed's
/// does — and every seed measures the same workload with other particles.
/// The default seed maps to itself; pm_insitu uses the seed as its IC seed.
std::uint64_t universe_seed_for(WorkloadId id, std::uint64_t seed) {
  if (id == WorkloadId::PmInsitu || seed == kDefaultSeed) return seed;
  using Table = std::span<const std::uint64_t>;
  const Table table = id == WorkloadId::VariantsMonster ? Table(kMonsterUniverses)
                      : id == WorkloadId::OfflineBulk   ? Table(kBulkUniverses)
                                                        : Table(kCampaignUniverses);
  std::uint64_t state = seed;
  const std::uint64_t universe = table[splitmix64(state) % table.size()];
  COSMO_REQUIRE(CostMatcher(id).matches(universe),
                "stale universe table: regenerate it with --match");
  return universe;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload(const WorkloadSpec& spec, fs::path workdir, CatalogGate gate)
      : spec_(spec), workdir_(std::move(workdir)), gate_(gate) {}
  virtual ~Workload() = default;

  /// Runs round `round` — at most `max_units` units, rotated by round —
  /// appending samples and per-layer sums to `ledger`.
  virtual void run_round(std::size_t round, Ledger& ledger,
                         std::size_t max_units) = 0;

  std::optional<std::uint32_t> crc() const { return gate_.crc(); }

 protected:
  /// Runs one unit: counts it, catches what it throws, and fails it on any
  /// message `body` returns.
  void unit(Ledger& ledger, const std::function<std::string()>& body) {
    const std::size_t index = next_unit_++;
    ++ledger.attempted;
    obs::ScopedSpan span("bench.unit", std::string(spec_.name) + "#" +
                                           std::to_string(index));
    const FaultCounters before = FaultCounters::now();
    std::string why;
    try {
      why = body();
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (why.empty()) why = fault_check(before);
    if (!why.empty()) ledger.fail(spec_.name, index, why);
  }

  fs::path unit_dir(const std::string& label, std::size_t round) const {
    return workdir_ / (label + "." + std::to_string(round));
  }

  const WorkloadSpec& spec_;
  fs::path workdir_;
  CatalogGate gate_;
  std::size_t next_unit_ = 0;
};

struct Variant {
  WorkflowKind kind;
  const char* key;
};

/// Table 3/4: several workflow variants over one snapshot per round.
class VariantsWorkload : public Workload {
 public:
  VariantsWorkload(const WorkloadSpec& spec, fs::path workdir, CatalogGate gate,
                   core::WorkflowProblem problem, std::vector<Variant> variants)
      : Workload(spec, std::move(workdir), gate),
        problem_(std::move(problem)),
        variants_(std::move(variants)) {}

  void run_round(std::size_t round, Ledger& ledger,
                 std::size_t max_units) override {
    const std::size_t units = std::min(max_units, variants_.size());
    double round_s = 0.0, drain_s = 0.0;
    std::vector<double> post_imbalance;
    std::uint64_t failed_before = ledger.failed;
    for (std::size_t k = 0; k < units; ++k) {
      const Variant& v = variants_[(round + k) % variants_.size()];
      core::WorkflowProblem p = problem_;
      p.workdir = unit_dir(v.key, round);
      unit(ledger, [&]() -> std::string {
        WallTimer timer;
        const core::WorkflowResult r = core::run_workflow(v.kind, p);
        const double wall = timer.seconds();
        if (r.degraded_steps || r.staging_fallbacks || r.dead_letter_submits ||
            r.submit_retries)
          return std::string(v.key) + " took a recovery path";
        if (r.catalog.empty()) return std::string(v.key) + " catalog is empty";
        if (auto why = gate_.check(catalog_crc(r.catalog)); !why.empty())
          return std::string(v.key) + ": " + why;
        ledger.samples[std::string(v.key) + "_s"].push_back(wall);
        round_s += wall;
        drain_s += r.times.post_total();
        record_layers(v, r, ledger, post_imbalance);
        return {};
      });
      std::error_code ec;
      fs::remove_all(p.workdir, ec);
    }
    if (!post_imbalance.empty())
      ledger.layer["core.combined.post_center_imbalance"] +=
          mean(post_imbalance);
    if (units == variants_.size() && ledger.failed == failed_before) {
      ledger.samples["round_s"].push_back(round_s);
      ledger.samples["drain_s"].push_back(drain_s);
    }
  }

 private:
  static double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }

  static void record_layers(const Variant& v, const core::WorkflowResult& r,
                            Ledger& ledger,
                            std::vector<double>& post_imbalance) {
    const std::string cell = std::string("core.") + v.key + ".";
    const auto& t = r.times;
    const std::pair<const char*, double> phases[] = {
        {"sim", t.sim},   {"analysis", t.analysis},
        {"write", t.write}, {"read", t.read},
        {"redistribute", t.redistribute}, {"post_analysis", t.post_analysis}};
    for (const auto& [phase, seconds] : phases)
      ledger.layer[cell + phase + "_s"] += seconds;
    ledger.layer["core.deferred_halos"] += static_cast<double>(r.deferred_halos);
    ledger.layer["core.level1_mb"] += static_cast<double>(r.level1_bytes) * 1e-6;
    ledger.layer["core.level2_mb"] += static_cast<double>(r.level2_bytes) * 1e-6;
    ledger.layer["core.level3_kb"] += static_cast<double>(r.level3_bytes) * 1e-3;
    ledger.layer["core.catalog_halos"] += static_cast<double>(r.total_halos);
    if (v.kind == WorkflowKind::InSitu)
      ledger.layer["core.center_imbalance"] += max_over_min(t.center_per_rank);
    else if (v.kind != WorkflowKind::OffLine)
      post_imbalance.push_back(max_over_min(t.post_center_per_rank));
  }

  core::WorkflowProblem problem_;
  std::vector<Variant> variants_;
};

/// The production shape: a multi-step co-scheduled campaign per round.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const WorkloadSpec& spec, fs::path workdir, CatalogGate gate,
                   core::CampaignConfig config)
      : Workload(spec, std::move(workdir), gate), config_(std::move(config)) {}

  void run_round(std::size_t round, Ledger& ledger, std::size_t) override {
    core::CampaignConfig cfg = config_;
    cfg.base.workdir = unit_dir("campaign", round);
    unit(ledger, [&]() -> std::string {
      WallTimer timer;
      const core::CampaignResult r = core::run_campaign(cfg);
      const double wall = timer.seconds();
      if (r.degraded_steps || r.dead_letter_submits || r.analysis_job_failures)
        return "campaign took a recovery path";
      if (r.steps.size() != cfg.timesteps ||
          r.listener_triggers != cfg.timesteps)
        return format("campaign delivered %zu steps from %llu triggers",
                      r.steps.size(),
                      static_cast<unsigned long long>(r.listener_triggers));
      // Chaining the step CRCs makes the gate check every step's catalog.
      std::uint32_t crc = 0;
      double offline_s = 0.0, deferred = 0.0, halos = 0.0;
      for (const auto& s : r.steps) {
        if (s.degraded || s.catalog.empty())
          return format("step %zu degraded or empty", s.step);
        crc = catalog_crc(s.catalog, crc);
        offline_s += s.offline_analysis_s;
        deferred += static_cast<double>(s.deferred_halos);
        halos += static_cast<double>(s.catalog.size());
      }
      if (auto why = gate_.check(crc); !why.empty()) return why;
      ledger.samples["campaign_s"].push_back(wall);
      ledger.samples["round_s"].push_back(wall);
      ledger.samples["drain_s"].push_back(wall - r.sim_job_s);
      for (const auto& s : r.steps)
        ledger.samples["step_turnaround_s"].push_back(s.trigger_to_done_s);
      ledger.layer["core.campaign.sim_job_s"] += r.sim_job_s;
      ledger.layer["core.campaign.offline_analysis_s"] += offline_s;
      ledger.layer["core.max_concurrent_analysis"] +=
          static_cast<double>(r.max_concurrent_analysis);
      ledger.layer["core.deferred_halos"] += deferred;
      ledger.layer["core.catalog_halos"] += halos;
      return {};
    });
    std::error_code ec;
    fs::remove_all(cfg.base.workdir, ec);
  }

 private:
  core::CampaignConfig config_;
};

/// §3.1: the PM simulation calls the analysis manager once per step.
class PmWorkload : public Workload {
 public:
  PmWorkload(const WorkloadSpec& spec, fs::path workdir, CatalogGate gate,
             sim::SimulationConfig config)
      : Workload(spec, std::move(workdir), gate), config_(config) {}

  void run_round(std::size_t, Ledger& ledger, std::size_t) override {
    // What each rank saw; each rank thread writes only its own slot.
    struct RankLog {
      std::vector<double> step_s;  ///< hook return → next hook entry
      double hook_s = 0.0, final_hook_s = 0.0;
      std::map<std::string, double> algorithm_s;
      stats::HaloCatalog final_catalog;
      std::uint64_t halos = 0;
      bool spectra_ok = true;
    };
    std::vector<RankLog> logs(kRanks);
    const std::string cat = std::string(spec_.name) + "#" +
                            std::to_string(next_unit_);
    unit(ledger, [&]() -> std::string {
      WallTimer timer;
      comm::run_spmd(kRanks, [&](comm::Comm& c) {
        RankLog& log = logs[static_cast<std::size_t>(c.rank())];
        sim::Cosmology cosmo;
        sim::Simulation simulation(c, cosmo, config_);
        sim::SlabDecomposition decomp(c.size(), config_.ic.box);
        core::InSituAnalysisManager manager(
            c, decomp, config_.ic.box,
            static_cast<std::uint64_t>(simulation.global_particles()));
        manager.add(std::make_unique<core::PowerSpectrumAlgorithm>());
        core::register_halo_pipeline(manager);
        manager.configure(core::CosmoToolsConfig::parse(kPmAnalysisConfig));

        std::optional<obs::ScopedSpan> segment;
        auto last_exit = std::chrono::steady_clock::now();
        simulation.run([&](const sim::StepContext& step,
                           sim::ParticleSet& particles) {
          const auto entry = std::chrono::steady_clock::now();
          segment.reset();
          if (step.step > 1)
            log.step_s.push_back(
                std::chrono::duration<double>(entry - last_exit).count());
          {
            obs::ScopedSpan hook("bench.hook", cat);
            core::AnalysisContext ctx = manager.execute_step(step, particles);
            if (ctx.fof) {  // an analysis step: halos and a spectrum
              log.halos += ctx.catalog.size();
              const bool finite =
                  !ctx.spectra.empty() && !ctx.spectra.back().power.empty() &&
                  std::all_of(ctx.spectra.back().power.begin(),
                              ctx.spectra.back().power.end(),
                              [](double p) { return std::isfinite(p); });
              log.spectra_ok = log.spectra_ok && finite;
            }
            if (step.step == step.total_steps)
              log.final_catalog = std::move(ctx.catalog);
          }
          last_exit = std::chrono::steady_clock::now();
          const double hook_s =
              std::chrono::duration<double>(last_exit - entry).count();
          log.hook_s += hook_s;
          if (step.step == step.total_steps)
            log.final_hook_s = hook_s;
          else
            segment.emplace("bench.pm_segment", cat);
        });
        for (const auto& t : manager.timings()) log.algorithm_s[t.name] += t.seconds;
      });
      const double wall = timer.seconds();

      stats::HaloCatalog catalog;
      for (const auto& log : logs) {
        if (!log.spectra_ok) return "power spectrum missing or not finite";
        catalog.insert(catalog.end(), log.final_catalog.begin(),
                       log.final_catalog.end());
      }
      if (catalog.empty()) return "final catalog is empty";
      if (auto why = gate_.check(catalog_crc(catalog)); !why.empty())
        return why;

      // Per step, the slowest rank sets the pace.
      const std::size_t steps = logs.front().step_s.size();
      for (std::size_t s = 0; s < steps; ++s) {
        double worst = 0.0;
        for (const auto& log : logs) worst = std::max(worst, log.step_s.at(s));
        ledger.samples["pm_step_s"].push_back(worst);
      }
      double hook_s = 0.0, drain_s = 0.0, halos = 0.0;
      std::vector<double> center_s;
      for (const auto& log : logs) {
        hook_s = std::max(hook_s, log.hook_s);
        drain_s = std::max(drain_s, log.final_hook_s);
        halos += static_cast<double>(log.halos);
        center_s.push_back(log.algorithm_s.count("centerfinder")
                               ? log.algorithm_s.at("centerfinder")
                               : 0.0);
        for (const auto& [name, seconds] : log.algorithm_s)
          ledger.layer["core.manager." + name + "_s"] += seconds;
      }
      ledger.samples["pm_run_s"].push_back(wall);
      ledger.samples["round_s"].push_back(wall);
      ledger.samples["insitu_hook_s"].push_back(hook_s);
      ledger.samples["drain_s"].push_back(drain_s);
      ledger.layer["core.catalog_halos"] += halos;
      ledger.layer["core.center_imbalance"] += max_over_min(center_s);
      return {};
    });
  }

 private:
  sim::SimulationConfig config_;
};

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        std::uint64_t seed,
                                        std::uint64_t universe_seed,
                                        const fs::path& workdir) {
  const CatalogGate gate(seed == kDefaultSeed
                             ? std::optional<std::uint32_t>(spec.golden_crc)
                             : std::nullopt);
  switch (spec.id) {
    case WorkloadId::VariantsMonster:
      return std::make_unique<VariantsWorkload>(
          spec, workdir, gate, monster_problem(universe_seed),
          std::vector<Variant>{{WorkflowKind::InSitu, "insitu"},
                               {WorkflowKind::OffLine, "offline"},
                               {WorkflowKind::CombinedSimple, "simple"},
                               {WorkflowKind::CombinedCoScheduled, "cosched"},
                               {WorkflowKind::CombinedInTransit, "intransit"}});
    case WorkloadId::OfflineBulk:
      return std::make_unique<VariantsWorkload>(
          spec, workdir, gate, bulk_problem(universe_seed),
          std::vector<Variant>{{WorkflowKind::InSitu, "insitu"},
                               {WorkflowKind::OffLine, "offline"},
                               {WorkflowKind::CombinedInTransit, "intransit"}});
    case WorkloadId::CampaignCosched:
      return std::make_unique<CampaignWorkload>(
          spec, workdir, gate, campaign_config(universe_seed));
    case WorkloadId::PmInsitu:
      return std::make_unique<PmWorkload>(spec, workdir, gate,
                                          pm_config(universe_seed));
  }
  throw std::logic_error("unhandled workload");
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it,
/// p(1 − 10/n): the 11th-largest sample (the largest when n ≤ 10).
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t n;
};

// ---------------------------------------------------------------------------
// Child processes: set-up probes and --all
// ---------------------------------------------------------------------------

/// Re-executes this binary (/proc/self/exe) with `args` and waits for it.
/// Returns its exit status; `captured` receives its stdout when non-null.
int run_self(const std::vector<std::string>& args, std::string* captured) {
  std::vector<std::string> storage = {"cosmobench"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipefd[2] = {-1, -1};
  if (captured && pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (captured) {
    posix_spawn_file_actions_addclose(&actions, pipefd[0]);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipefd[1]);
  }
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (captured) close(pipefd[1]);
  if (rc != 0) {
    if (captured) close(pipefd[0]);
    throw std::runtime_error("posix_spawn failed");
  }
  if (captured) {
    char buf[4096];
    for (;;) {
      const ssize_t got = read(pipefd[0], buf, sizeof buf);
      if (got > 0) {
        captured->append(buf, static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EINTR) {
        break;
      }
    }
    close(pipefd[0]);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the trace and the counters
// ---------------------------------------------------------------------------

/// Counters the per-layer metrics read, as deltas over the traced rounds.
constexpr const char* kLayerCounters[] = {
    "comm.bytes_sent", "comm.msgs_sent", "comm.recv_wait_us",
    "comm.payload_reuse", "comm.barrier", "comm.bcast", "comm.reduce",
    "comm.gatherv", "comm.alltoallv", "comm.scan", "comm.alltoallv_sessions",
    "comm.a2a_blocks_overlapped", "dpp.dispatches", "dpp.dispatch_wait_us",
    "dpp.steals", "dpp.chunks_run", "dpp.chunks_helped", "dpp.serial_runs",
    "halo.fof_halos", "io.bytes_written", "io.bytes_read",
    "io.crc_validations", "sched.listener_polls", "sched.listener_triggers",
    "sched.staging_bytes", "sched.staging_takes", "faults.injected",
    "retry.attempts", "retry.successes"};

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kLayerCounters) out[name] = counter_total(name);
  return out;
}

/// Self time per span name (duration minus same-thread children, by
/// Span::tid/depth) and the total rank time (spmd.rank spans).
struct SpanTotals {
  std::map<std::string, double> self_s;
  double rank_s = 0.0;
};

SpanTotals span_totals(const std::vector<obs::Span>& spans) {
  std::map<int, std::vector<const obs::Span*>> by_thread;
  for (const auto& s : spans) by_thread[s.tid].push_back(&s);
  SpanTotals out;
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const obs::Span* a, const obs::Span* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->depth < b->depth;
    });
    std::vector<double> self(list.size());
    std::vector<std::size_t> open;  // indices of the enclosing spans
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::Span& s = *list[i];
      self[i] = s.seconds();
      while (!open.empty() && list[open.back()]->depth >= s.depth)
        open.pop_back();
      if (!open.empty() && list[open.back()]->depth == s.depth - 1)
        self[open.back()] -= s.seconds();
      open.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      out.self_s[list[i]->name] += self[i];
      if (list[i]->name == "spmd.rank") out.rank_s += list[i]->seconds();
    }
  }
  return out;
}

/// The per-layer metrics, per traced round. Time is reported as a share of
/// rank time (`_frac`), so a layer a workload never enters reads 0 there.
std::vector<Metric> layer_metrics(const SpanTotals& spans,
                                  const std::map<std::string, std::uint64_t>& d,
                                  const Ledger& traced, double rounds,
                                  double overhead_frac, std::uint64_t dropped) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit, static_cast<std::uint64_t>(rounds)});
  };
  auto per_round = [&](const char* counter) {
    return static_cast<double>(d.at(counter)) / rounds;
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto self = [&](const char* name) {
    const auto it = spans.self_s.find(name);
    return it == spans.self_s.end() ? 0.0 : it->second;
  };
  auto frac = [&](double seconds) { return ratio(seconds, spans.rank_s); };
  auto layer = [&](const std::string& name) {
    const auto it = traced.layer.find(name);
    return it == traced.layer.end() ? 0.0 : it->second / rounds;
  };

  // core: the data products and balance every workload reports...
  add("core.deferred_halos", layer("core.deferred_halos"), "count");
  add("core.level1_mb", layer("core.level1_mb"), "MB");
  add("core.level2_mb", layer("core.level2_mb"), "MB");
  add("core.level3_kb", layer("core.level3_kb"), "KB");
  add("core.center_imbalance", layer("core.center_imbalance"), "ratio");
  add("core.max_concurrent_analysis", layer("core.max_concurrent_analysis"),
      "count");
  add("core.manager.powerspectrum_frac",
      frac(layer("core.manager.powerspectrum_s") * rounds), "frac");
  // ...and the workload's own ledgers: Table 4 cells, campaign totals,
  // manager timings (seconds per round).
  for (const auto& [name, value] : traced.layer)
    if (name.ends_with("_s") || name.ends_with("post_center_imbalance"))
      add(name, value / rounds, name.ends_with("_s") ? "s" : "ratio");

  // sim
  add("sim.generate_frac", frac(self("phase.sim")), "frac");
  add("sim.deposit_frac", frac(self("sim.deposit")), "frac");
  add("sim.solve_frac", frac(self("sim.solve")), "frac");
  add("sim.accel_frac", frac(self("sim.accel")), "frac");
  add("sim.step_self_frac", frac(self("sim.step")), "frac");
  // fft
  add("fft.rows_frac", frac(self("fft.rows")), "frac");
  add("fft.pack_frac", frac(self("fft.pack")), "frac");
  add("fft.exchange_frac", frac(self("fft.exchange")), "frac");
  add("fft.unpack_frac", frac(self("fft.unpack")), "frac");
  add("fft.overlap_frac",
      ratio(static_cast<double>(d.at("comm.a2a_blocks_overlapped")),
            static_cast<double>(d.at("comm.alltoallv_sessions")) * (kRanks - 1)),
      "frac");
  // comm
  add("comm.bytes_sent_mb", per_round("comm.bytes_sent") * 1e-6, "MB");
  add("comm.msgs_sent", per_round("comm.msgs_sent"), "count");
  add("comm.recv_wait_frac",
      frac(static_cast<double>(d.at("comm.recv_wait_us")) * 1e-6), "frac");
  add("comm.collectives",
      per_round("comm.barrier") + per_round("comm.bcast") +
          per_round("comm.reduce") + per_round("comm.gatherv") +
          per_round("comm.alltoallv") + per_round("comm.scan"),
      "count");
  add("comm.payload_reuse_frac",
      ratio(static_cast<double>(d.at("comm.payload_reuse")),
            static_cast<double>(d.at("comm.msgs_sent"))),
      "frac");
  add("core.redistribute_frac", frac(self("phase.redistribute")), "frac");
  // dpp
  add("dpp.dispatches", per_round("dpp.dispatches"), "count");
  add("dpp.dispatch_wait_frac",
      frac(static_cast<double>(d.at("dpp.dispatch_wait_us")) * 1e-6), "frac");
  add("dpp.steals", per_round("dpp.steals"), "count");
  add("dpp.helped_frac",
      ratio(static_cast<double>(d.at("dpp.chunks_helped")),
            static_cast<double>(d.at("dpp.chunks_run"))),
      "frac");
  add("dpp.serial_runs", per_round("dpp.serial_runs"), "count");
  // halo
  add("halo.fof_frac", frac(self("halo.fof")), "frac");
  add("halo.tree_frac", frac(self("halo.tree")), "frac");
  add("halo.centers_frac", frac(self("halo.centers")), "frac");
  add("halo.properties_frac", frac(self("halo.properties")), "frac");
  add("halo.fof_halos", per_round("halo.fof_halos"), "count");
  add("halo.dup_frac",
      1.0 - ratio(layer("core.catalog_halos"), per_round("halo.fof_halos")),
      "frac");
  // io
  add("io.bytes_written_mb", per_round("io.bytes_written") * 1e-6, "MB");
  add("io.bytes_read_mb", per_round("io.bytes_read") * 1e-6, "MB");
  add("io.write_frac",
      frac(self("phase.write") + self("phase.post_write") +
           self("io.write_aggregated")),
      "frac");
  add("io.read_frac", frac(self("phase.read") + self("io.read_aggregated")),
      "frac");
  add("io.crc_validations", per_round("io.crc_validations"), "count");
  // sched
  add("sched.listener_polls", per_round("sched.listener_polls"), "count");
  add("sched.polls_per_trigger",
      ratio(static_cast<double>(d.at("sched.listener_polls")),
            static_cast<double>(d.at("sched.listener_triggers"))),
      "ratio");
  add("sched.staging_mb", per_round("sched.staging_bytes") * 1e-6, "MB");
  add("sched.staging_takes", per_round("sched.staging_takes"), "count");
  // faults
  add("faults.injected", static_cast<double>(d.at("faults.injected")), "count");
  add("retry.retries",
      static_cast<double>(d.at("retry.attempts") - d.at("retry.successes")),
      "count");
  // obs
  add("obs.overhead_frac", overhead_frac, "frac");
  add("obs.dropped_spans", static_cast<double>(dropped), "count");
  add("obs.untraced_frac", frac(self("spmd.rank")), "frac");
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += format("\\u%04x", c);
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  return std::isfinite(v) ? format("%.17g", v) : "null";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Host and build facts every result carries.
std::string metadata_json() {
#ifdef COSMOBENCH_BUILD_TYPE
  const char* build_type = COSMOBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef COSMO_FAULTS_DISABLED
  const bool faults_disabled = true;
#else
  const bool faults_disabled = false;
#endif
  return format(
             "{\"nproc\": %ld, \"pool_workers\": %zu, \"ranks_per_job\": %d, ",
             sysconf(_SC_NPROCESSORS_ONLN),
             dpp::ThreadPool::instance().workers(), kRanks) +
         "\"cpu_model\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__) +
         ", \"build_type\": " + json_string(build_type) +
         ", \"obs_disabled\": " + (obs::kObsEnabled ? "false" : "true") +
         ", \"faults_disabled\": " + (faults_disabled ? "true" : "false") +
         "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    out += (i ? ",\n    " : "\n    ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           format(", \"n\": %llu}", static_cast<unsigned long long>(m.n));
  }
  return out + "\n  }";
}

void print_metrics(const std::string& workload,
                   const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("%s %s %.9g %s n=%llu\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<unsigned long long>(m.n));
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  fs::path json, trace, workdir;
  bool all = false, smoke = false, self_test = false, setup_probe = false;
  std::uint64_t match = 0;
  std::optional<std::int64_t> probe_child_t0;
};

/// The unit workdirs live under one root, removed when the run ends.
class WorkRoot {
 public:
  explicit WorkRoot(fs::path root)
      : root_(root.empty() ? fs::current_path() /
                                 ("cosmobench_work." + std::to_string(getpid()))
                           : std::move(root)) {
    fs::create_directories(root_);
  }
  WorkRoot(const WorkRoot&) = delete;
  WorkRoot& operator=(const WorkRoot&) = delete;
  ~WorkRoot() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  const fs::path& path() const { return root_; }

 private:
  fs::path root_;
};

/// Child of the set-up probe: one unit in a fresh process, then the time
/// since the parent's spawn on stdout.
int run_probe_child(const Options& opt) {
  const WorkloadSpec& spec = find_workload(opt.workload);
  WorkRoot root(opt.workdir);
  auto workload = make_workload(spec, opt.seed,
                                universe_seed_for(spec.id, opt.seed),
                                root.path());
  Ledger ledger;
  workload->run_round(0, ledger, 1);
  const double setup_s =
      static_cast<double>(steady_ns() - *opt.probe_child_t0) * 1e-9;
  if (ledger.failed) return 1;
  std::printf("setup_s %.17g\n", setup_s);
  return 0;
}

/// kSetupProbes fresh child processes, one at a time: each reports the time
/// from its spawn to the end of its first unit.
std::vector<double> setup_probes(const Options& opt, const fs::path& root,
                                 Ledger& ledger) {
  std::vector<double> out;
  for (int i = 0; i < kSetupProbes; ++i) {
    ++ledger.attempted;
    std::string captured;
    const std::int64_t t0 = steady_ns();
    const int rc = run_self(
        {"--probe-child=" + std::to_string(t0), "--workload=" + opt.workload,
         "--seed=" + std::to_string(opt.seed),
         "--workdir=" + (root / ("probe." + std::to_string(i))).string()},
        &captured);
    double value = 0.0;
    if (rc != 0 || std::sscanf(captured.c_str(), "setup_s %lf", &value) != 1) {
      ledger.fail(opt.workload, 0, format("set-up probe %d exited %d", i, rc));
      continue;
    }
    out.push_back(value);
  }
  return out;
}

/// Closed loop: whole rounds until `seconds` have passed (at least
/// kMinRounds). Returns the next round index.
std::size_t measure(Workload& workload, std::size_t first_round,
                    double seconds, std::size_t min_rounds, Ledger& ledger) {
  WallTimer elapsed;
  std::size_t round = first_round;
  while (round - first_round < min_rounds || elapsed.seconds() < seconds)
    workload.run_round(round++, ledger, SIZE_MAX);
  return round;
}

std::vector<Metric> end_to_end_metrics(const Ledger& ledger,
                                       const std::vector<double>& setup,
                                       std::uint64_t attempted,
                                       std::uint64_t failed) {
  std::vector<Metric> out;
  for (const char* name : {"round_s", "drain_s"}) {
    const auto it = ledger.samples.find(name);
    const std::vector<double> none;
    const auto& samples = it == ledger.samples.end() ? none : it->second;
    out.push_back({name, median(samples), "s", samples.size()});
  }
  for (const auto& [name, samples] : ledger.samples) {
    if (name == "round_s" || name == "drain_s") continue;
    if (name == "step_turnaround_s") {
      out.push_back({"step_turnaround_p50_s", median(samples), "s", samples.size()});
      out.push_back({"step_turnaround_tail_s", tail(samples), "s", samples.size()});
    } else {
      out.push_back({name, median(samples), "s", samples.size()});
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.push_back({"setup_s", median(setup), "s", setup.size()});
  out.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                 "MB", 1});
  out.push_back({"failed_frac",
                 attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                 "ratio", attempted});
  return out;
}

int run_workload(const Options& opt) {
  const WorkloadSpec& spec = find_workload(opt.workload);
  const std::uint64_t universe_seed = universe_seed_for(spec.id, opt.seed);
  WorkRoot root(opt.workdir);
  Ledger counts;  // attempted/failed across probes, warm-up and measurement

  std::vector<double> setup;
  if (opt.setup_probe || opt.trace.empty())
    setup = setup_probes(opt, root.path(), counts);
  if (opt.setup_probe) {
    print_metrics(spec.name, {{"setup_s", median(setup), "s", setup.size()}});
    return counts.failed ? 1 : 0;
  }

  auto workload = make_workload(spec, opt.seed, universe_seed, root.path());
  Ledger warmup;
  workload->run_round(0, warmup, SIZE_MAX);
  counts.absorb_counts(warmup);

  std::vector<Metric> metrics;
  std::vector<Metric> layers;
  std::map<std::string, double> span_self_s;
  std::map<std::string, std::vector<double>> samples = {{"setup_s", setup}};
  if (opt.trace.empty()) {
    Ledger ledger;
    measure(*workload, 1, opt.seconds, kMinRounds, ledger);
    counts.absorb_counts(ledger);
    metrics = end_to_end_metrics(ledger, setup, counts.attempted, counts.failed);
    samples.insert(ledger.samples.begin(), ledger.samples.end());
  } else {
    // Half the time untraced (the overhead baseline), half traced.
    Ledger baseline, traced;
    const std::size_t next =
        measure(*workload, 1, opt.seconds / 2, 2, baseline);
    auto& tracer = obs::Tracer::instance();
    tracer.clear();
    const auto before = counter_snapshot();
    tracer.set_enabled(true);
    const std::size_t end = measure(*workload, next, opt.seconds / 2, 1, traced);
    tracer.set_enabled(false);
    const auto after = counter_snapshot();
    std::map<std::string, std::uint64_t> delta;
    for (const auto& [name, v] : after) delta[name] = v - before.at(name);
    const SpanTotals spans = span_totals(tracer.snapshot());
    const double rounds = static_cast<double>(end - next);
    const double base = median(baseline.samples["round_s"]);
    const double overhead =
        base > 0.0 ? median(traced.samples["round_s"]) / base - 1.0 : 0.0;
    layers = layer_metrics(spans, delta, traced, rounds, overhead,
                           tracer.dropped());
    for (const auto& [name, s] : spans.self_s) span_self_s[name] = s / rounds;
    counts.absorb_counts(baseline);
    counts.absorb_counts(traced);
    metrics = end_to_end_metrics(baseline, {}, counts.attempted, counts.failed);
    if (!tracer.export_chrome_trace_file(opt.trace))
      counts.fail(spec.name, 0, "failed to write the trace " + opt.trace.string());
  }

  print_metrics(spec.name, metrics);
  print_metrics(spec.name, layers);
  if (!opt.json.empty()) {
    std::ofstream f(opt.json, std::ios::trunc);
    f << "{\n  \"workload\": " << json_string(spec.name)
      << ",\n  \"seed\": " << opt.seed
      << ",\n  \"universe_seed\": " << universe_seed
      << ",\n  \"seconds\": " << json_number(opt.seconds)
      << ",\n  \"traced\": " << (opt.trace.empty() ? "false" : "true")
      << ",\n  \"metadata\": " << metadata_json()
      << ",\n  \"catalog_crc\": "
      << (workload->crc() ? json_string(format("%08x", *workload->crc()))
                          : std::string("null"))
      << ",\n  \"correct\": " << (counts.failed ? "false" : "true")
      << ",\n  \"attempted\": " << counts.attempted
      << ",\n  \"failed\": " << counts.failed << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < counts.failures.size(); ++i)
      f << (i ? ", " : "") << json_string(counts.failures[i]);
    f << "],\n  \"metrics\": " << metrics_json(metrics)
      << ",\n  \"layers\": " << metrics_json(layers)
      << ",\n  \"span_self_s\": {";
    bool first = true;
    for (const auto& [name, s] : span_self_s) {
      f << (first ? "\n    " : ",\n    ") << json_string(name) << ": "
        << json_number(s);
      first = false;
    }
    f << "\n  },\n  \"samples\": {";
    first = true;
    for (const auto& [name, values] : samples) {
      f << (first ? "\n    " : ",\n    ") << json_string(name) << ": [";
      for (std::size_t i = 0; i < values.size(); ++i)
        f << (i ? ", " : "") << json_number(values[i]);
      f << "]";
      first = false;
    }
    f << "\n  }\n}\n";
    if (!f.good())
      counts.fail(spec.name, 0, "failed to write " + opt.json.string());
  }
  return counts.failed ? 1 : 0;
}

/// --match=<n>: prints the first n universes on --seed's candidate stream
/// that match the default seed's twice — in predicted cost (CostMatcher)
/// and in measured round wall — as entries for the universe tables. The
/// prediction leaves a spread of about ±15% in measured cost, so each
/// predicted match runs kMatchPairs rounds alternated with the default
/// universe's in this one process, which cancels host drift slower than a
/// round, and is kept when the median ratio of its round to the mean of
/// the two reference rounds around it is within kMatchTolerance of 1.
int run_match(const Options& opt) {
  constexpr int kMatchPairs = 6;
  constexpr double kMatchTolerance = 0.025;
  const WorkloadSpec& spec = find_workload(opt.workload);
  const CostMatcher matcher(spec.id);
  WorkRoot root(opt.workdir);
  auto reference = make_workload(spec, kDefaultSeed, kDefaultSeed,
                                 root.path() / "reference");
  std::size_t reference_round = 0;
  auto round_s = [](Workload& w, std::size_t round) {
    Ledger ledger;
    w.run_round(round, ledger, SIZE_MAX);
    if (ledger.failed) throw std::runtime_error(ledger.failures.front());
    return ledger.samples.at("round_s").back();
  };
  round_s(*reference, reference_round++);  // warm-up
  std::uint64_t stream = opt.seed;
  for (std::uint64_t found = 0; found < opt.match;) {
    const std::uint64_t cand = splitmix64(stream);
    if (!matcher.matches(cand)) continue;
    auto candidate = make_workload(spec, cand, cand, root.path() / "candidate");
    double before = round_s(*reference, reference_round++);
    std::vector<double> ratios;
    for (int i = 0; i < kMatchPairs; ++i) {
      const double cand_s = round_s(*candidate, static_cast<std::size_t>(i));
      const double after = round_s(*reference, reference_round++);
      ratios.push_back(cand_s / (0.5 * (before + after)));
      before = after;
    }
    const double ratio = median(ratios);
    const bool kept = std::abs(ratio - 1.0) <= kMatchTolerance;
    std::fprintf(stderr, "cosmobench: universe 0x%016llx measures %.3f of the "
                 "default's%s\n", static_cast<unsigned long long>(cand), ratio,
                 kept ? "" : ", dropped");
    if (!kept) continue;
    std::printf("    0x%016llxull,\n", static_cast<unsigned long long>(cand));
    std::fflush(stdout);
    ++found;
  }
  return 0;
}

/// --smoke / --self-test: one round per workload at the default seed,
/// correctness only — no timing claims.
int run_smoke(const Options& opt) {
  WorkRoot root(opt.workdir);
  std::uint64_t failed = 0;
  for (const auto& spec : kWorkloads) {
    if (opt.self_test && spec.id != WorkloadId::VariantsMonster) continue;
    g_corrupt_next_catalog = opt.self_test;
    auto workload = make_workload(spec, kDefaultSeed, kDefaultSeed, root.path());
    Ledger ledger;
    workload->run_round(0, ledger, SIZE_MAX);
    failed += ledger.failed;
    std::printf("%s smoke units=%llu failed=%llu crc=%s\n", spec.name,
                static_cast<unsigned long long>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed),
                workload->crc() ? format("%08x", *workload->crc()).c_str()
                                : "none");
  }
  if (opt.self_test)
    std::printf(failed ? "self-test: corrupted catalog detected\n"
                       : "self-test: corrupted catalog NOT detected\n");
  return failed ? 1 : 0;
}

/// --all: each workload in its own child process, one after another.
int run_all(const Options& opt) {
  int status = 0;
  for (const auto& spec : kWorkloads) {
    std::vector<std::string> args = {
        std::string("--workload=") + spec.name,
        "--seed=" + std::to_string(opt.seed),
        format("--seconds=%.17g", opt.seconds)};
    if (!opt.workdir.empty())
      args.push_back("--workdir=" + (opt.workdir / spec.name).string());
    if (run_self(args, nullptr) != 0) status = 1;
  }
  return status;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--json") opt.json = value;
    else if (key == "--trace") opt.trace = value;
    else if (key == "--workdir") opt.workdir = value;
    else if (key == "--probe-child") opt.probe_child_t0 = std::stoll(value);
    else if (key == "--match") opt.match = std::stoull(value);
    else if (a == "--all") opt.all = true;
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--self-test") opt.self_test = true;
    else if (a == "--setup-probe") opt.setup_probe = true;
    else throw std::invalid_argument("unknown argument '" + a + "'");
  }
  const bool needs_workload = !(opt.all || opt.smoke || opt.self_test);
  if (needs_workload) find_workload(opt.workload);
  if (opt.seconds <= 0.0)
    throw std::invalid_argument("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(COSMO_TSAN) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "cosmobench: refusing to run a ThreadSanitizer build "
               "(COSMO_TSAN); its timings say nothing about the system\n");
  return 2;
#endif
  obs::Tracer::instance().set_enabled(false);
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "cosmobench: %s\nusage: cosmobench --workload=<name> "
                 "[--seed=<n>] [--seconds=<s>] [--json=<file>] "
                 "[--trace=<file>] [--workdir=<dir>]\n"
                 "       cosmobench --all | --smoke | --self-test\n"
                 "       cosmobench --setup-probe | --match=<n> "
                 "--workload=<name> [--seed=<n>]\nworkloads:",
                 e.what());
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    if (opt.all) return run_all(opt);
    if (opt.smoke || opt.self_test) return run_smoke(opt);
    if (opt.probe_child_t0) return run_probe_child(opt);
    if (opt.match) return run_match(opt);
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosmobench: %s\n", e.what());
    return 1;
  }
}
