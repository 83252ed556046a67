// Integration tests: all five workflow variants end to end on a small
// synthetic universe. The central invariant — the reason the combined
// workflow is *correct*, not just cheaper — is that every variant produces
// the same complete halo catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/workflows.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::core;
namespace fs = std::filesystem;

WorkflowProblem small_problem(const std::string& tag) {
  WorkflowProblem p;
  p.universe.box = 32.0;
  p.universe.seed = 4242;
  p.universe.halo_count = 20;
  p.universe.min_particles = 60;
  p.universe.max_particles = 2500;
  p.universe.background_particles = 600;
  p.universe.subclump_fraction = 0.0;
  p.ranks = 4;
  p.analysis_ranks = 2;
  p.ranks_per_file = 2;
  p.linking_length = 0.3;
  p.min_halo_size = 40;
  p.overload = 2.5;
  p.threshold = 150;  // several found (FOF-core) halos exceed this
  p.compute_so_mass = true;
  p.compute_subhalos = false;
  p.workdir = fs::temp_directory_path() /
              ("wf_" + std::to_string(::getpid()) + "_" + tag);
  return p;
}

void expect_same_catalog(const stats::HaloCatalog& a,
                         const stats::HaloCatalog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_FLOAT_EQ(a[i].cx, b[i].cx);
    EXPECT_FLOAT_EQ(a[i].cy, b[i].cy);
    EXPECT_FLOAT_EQ(a[i].cz, b[i].cz);
    EXPECT_FLOAT_EQ(a[i].potential, b[i].potential);
    EXPECT_FLOAT_EQ(a[i].so_mass, b[i].so_mass);
  }
}

class WorkflowEnd2End : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& d : dirs_) {
      std::error_code ec;
      fs::remove_all(d, ec);
    }
  }
  WorkflowProblem make(const std::string& tag) {
    auto p = small_problem(tag + "_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name());
    dirs_.push_back(p.workdir);
    return p;
  }
  std::vector<fs::path> dirs_;
};

TEST_F(WorkflowEnd2End, InSituProducesCompleteCatalog) {
  auto p = make("insitu");
  auto r = run_workflow(WorkflowKind::InSitu, p);
  EXPECT_GT(r.catalog.size(), 5u);
  EXPECT_EQ(r.deferred_halos, 0u);
  EXPECT_EQ(r.level1_bytes, 0u);  // no Level 1 I/O in-situ
  EXPECT_EQ(r.level2_bytes, 0u);
  EXPECT_GT(r.level3_bytes, 0u);
  EXPECT_GT(r.times.sim, 0.0);
  EXPECT_GT(r.times.analysis, 0.0);
  EXPECT_EQ(r.times.read, 0.0);
  EXPECT_EQ(r.times.redistribute, 0.0);
  // Catalog sorted by id, unique.
  for (std::size_t i = 1; i < r.catalog.size(); ++i)
    EXPECT_LT(r.catalog[i - 1].id, r.catalog[i].id);
  EXPECT_EQ(r.times.find_per_rank.size(), 4u);
  EXPECT_EQ(r.times.center_per_rank.size(), 4u);
}

TEST_F(WorkflowEnd2End, OffLineMatchesInSitu) {
  auto pi = make("ref");
  auto ri = run_workflow(WorkflowKind::InSitu, pi);
  auto po = make("offline");
  auto ro = run_workflow(WorkflowKind::OffLine, po);
  expect_same_catalog(ri.catalog, ro.catalog);
  EXPECT_GT(ro.level1_bytes, 0u);  // paid the full Level 1 I/O
  EXPECT_GT(ro.times.read, 0.0);
  EXPECT_GT(ro.times.redistribute, 0.0);
  EXPECT_GT(ro.times.post_analysis, 0.0);
  EXPECT_EQ(ro.times.analysis, 0.0);  // no in-situ analysis
}

TEST_F(WorkflowEnd2End, CombinedSimpleMatchesInSitu) {
  auto pi = make("ref");
  auto ri = run_workflow(WorkflowKind::InSitu, pi);
  auto pc = make("combined");
  auto rc = run_workflow(WorkflowKind::CombinedSimple, pc);
  expect_same_catalog(ri.catalog, rc.catalog);
  EXPECT_GT(rc.deferred_halos, 0u) << "test problem must defer some halos";
  EXPECT_GT(rc.level2_bytes, 0u);
  EXPECT_EQ(rc.level1_bytes, 0u);  // combined never writes Level 1
  // Level 2 is a reduction of Level 1.
  const std::uint64_t level1 =
      sim::synthetic_total_particles(pc.universe) *
      sim::ParticleSet::kBytesPerParticle;
  EXPECT_LT(rc.level2_bytes, level1);
  EXPECT_GT(rc.times.post_analysis, 0.0);
}

TEST_F(WorkflowEnd2End, CombinedCoScheduledMatchesAndListens) {
  auto pi = make("ref");
  auto ri = run_workflow(WorkflowKind::InSitu, pi);
  auto pc = make("cosched");
  auto rc = run_workflow(WorkflowKind::CombinedCoScheduled, pc);
  expect_same_catalog(ri.catalog, rc.catalog);
  // The listener saw one trigger per simulation rank's Level 2 file.
  EXPECT_EQ(rc.listener_triggers, static_cast<std::uint64_t>(pc.ranks));
  EXPECT_GT(rc.listener_polls, 0u);
}

TEST_F(WorkflowEnd2End, CombinedInTransitMatchesWithoutLevel2Files) {
  auto pi = make("ref");
  auto ri = run_workflow(WorkflowKind::InSitu, pi);
  auto pc = make("intransit");
  auto rc = run_workflow(WorkflowKind::CombinedInTransit, pc);
  expect_same_catalog(ri.catalog, rc.catalog);
  // No Level 2 files were written (data went through the staging area).
  bool found_level2_file = false;
  for (const auto& e : fs::directory_iterator(pc.workdir))
    if (e.path().string().find("level2") != std::string::npos)
      found_level2_file = true;
  EXPECT_FALSE(found_level2_file);
  EXPECT_GT(rc.level2_bytes, 0u);  // ...but Level 2 data still moved
}

TEST_F(WorkflowEnd2End, ThresholdControlsDeferredWork) {
  auto p_low = make("low");
  p_low.threshold = 100;  // defer almost everything
  auto r_low = run_workflow(WorkflowKind::CombinedSimple, p_low);
  auto p_high = make("high");
  p_high.threshold = 100000;  // defer nothing
  auto r_high = run_workflow(WorkflowKind::CombinedSimple, p_high);
  EXPECT_GT(r_low.deferred_halos, r_high.deferred_halos);
  EXPECT_EQ(r_high.deferred_halos, 0u);
  expect_same_catalog(r_low.catalog, r_high.catalog);
}

TEST_F(WorkflowEnd2End, InSituCenterTimeDominatedByBigHalos) {
  // The load-imbalance story: per-rank center time spread must exceed the
  // find time spread when a monster halo exists (Table 2's signature).
  // Wall-clock per-rank times are noisy on a loaded host — the shared
  // work-stealing pool lets a light rank's dispatch interleave with the
  // monster's chunks, occasionally inflating the cheap ranks — so retry a
  // few times before declaring the imbalance gone.
  double cmax = 0.0, cmin = 0.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto p = make("imbalance" + std::to_string(attempt));
    // Seed 4392's twelve draws hold one monster (3,958 planted, 3,238 found
    // by FOF: brute-force centring, below kAStarMinMembers) among halos of
    // at most 271 found members; the default seed's largest found halo has
    // 169, which leaves only scheduling noise to measure.
    p.universe.seed = 4392;
    p.universe.halo_count = 12;
    p.universe.max_particles = 4000;
    p.threshold = 0;
    auto r = run_workflow(WorkflowKind::InSitu, p);
    std::vector<std::uint64_t> sizes;
    for (const auto& h : r.catalog) sizes.push_back(h.count);
    std::sort(sizes.rbegin(), sizes.rend());
    ASSERT_GE(sizes.size(), 2u);
    ASSERT_GE(sizes[0], 3000u) << "the universe must hold the monster";
    ASSERT_LT(sizes[1], 300u) << "every other halo must be small";
    const auto& center = r.times.center_per_rank;
    ASSERT_EQ(center.size(), 4u);
    cmax = *std::max_element(center.begin(), center.end());
    cmin = *std::min_element(center.begin(), center.end());
    if (cmax > 2.0 * (cmin + 1e-4)) break;
  }
  EXPECT_GT(cmax, cmin) << "center finding should be imbalanced";
  EXPECT_GT(cmax, 2.0 * (cmin + 1e-4));
}

TEST_F(WorkflowEnd2End, LedgerConsistentWithTracerForAllVariants) {
  // The reported PhaseTimes and the tracer's phase spans are the same
  // measurement (TimedSpan::finish feeds both), so the ledger must be
  // reconstructible from the trace: per-rank phases reduce by max (the
  // paper's node maxima), rank-less phases (the in-situ Level 3 write on
  // the driver thread) add on top.
  const WorkflowKind kinds[] = {
      WorkflowKind::InSitu, WorkflowKind::OffLine, WorkflowKind::CombinedSimple,
      WorkflowKind::CombinedCoScheduled, WorkflowKind::CombinedInTransit};
  for (const auto kind : kinds) {
    SCOPED_TRACE(to_string(kind));
    auto p = make(std::string("ledger_") +
                  std::to_string(static_cast<int>(kind)));
#ifndef COSMO_OBS_DISABLED
    obs::Tracer::instance().set_enabled(true);
    obs::Tracer::instance().clear();
#endif
    auto r = run_workflow(kind, p);
    EXPECT_GT(r.times.sim, 0.0);
    EXPECT_GT(r.catalog.size(), 0u);
#ifndef COSMO_OBS_DISABLED
    const auto spans = obs::Tracer::instance().snapshot();
    const std::string cat = to_string(kind);
    // max over rank spans + sum of rank-less spans for one phase name.
    auto from_trace = [&](const std::string& phase) {
      double rank_max = 0.0, rankless_sum = 0.0;
      std::size_t n = 0;
      for (const auto& s : spans) {
        if (s.cat != cat || s.name != phase) continue;
        ++n;
        if (s.rank >= 0)
          rank_max = std::max(rank_max, s.seconds());
        else
          rankless_sum += s.seconds();
      }
      return std::pair<double, std::size_t>(rank_max + rankless_sum, n);
    };
    constexpr double kTol = 1e-4;  // finish() sub-µs clock-tick fallback
    const struct {
      const char* phase;
      double ledger;
    } rows[] = {
        {"phase.sim", r.times.sim},
        {"phase.analysis", r.times.analysis},
        {"phase.write", r.times.write},
        {"phase.read", r.times.read},
        {"phase.redistribute", r.times.redistribute},
        {"phase.post_analysis", r.times.post_analysis},
        {"phase.post_write", r.times.post_write},
    };
    double trace_total = 0.0, ledger_total = 0.0;
    for (const auto& row : rows) {
      const auto [derived, count] = from_trace(row.phase);
      SCOPED_TRACE(row.phase);
      if (row.ledger > 0.0)
        EXPECT_GT(count, 0u) << "ledger has time but trace has no span";
      EXPECT_NEAR(derived, row.ledger, kTol);
      trace_total += derived;
      ledger_total += row.ledger;
    }
    // The grand totals agree too (the Table 4 row sums).
    EXPECT_NEAR(trace_total, ledger_total, 7 * kTol);
    EXPECT_NEAR(ledger_total, r.times.sim_total() + r.times.post_total(),
                1e-9);
    // Every rank of the simulation job produced a phase.sim span.
    const auto [_, sim_spans] = from_trace("phase.sim");
    EXPECT_EQ(sim_spans, static_cast<std::size_t>(p.ranks));
#endif
  }
}

TEST_F(WorkflowEnd2End, SubhalosReportedWhenEnabled) {
  auto p = make("subhalos");
  p.universe.halo_count = 4;
  p.universe.min_particles = 5200;
  p.universe.max_particles = 8000;
  p.universe.background_particles = 0;
  p.universe.subclump_fraction = 0.25;
  p.universe.subclump_min_host = 5000;
  p.compute_subhalos = true;
  p.subhalo_min_host = 5000;
  p.threshold = 0;
  p.overload = 3.5;
  auto r = run_workflow(WorkflowKind::InSitu, p);
  std::uint32_t subs = 0;
  for (const auto& rec : r.catalog) subs += rec.subhalos;
  EXPECT_GT(subs, 0u) << "planted substructure not reported in catalog";
}

TEST(AnalysisConfig, InSituAndLevel2SubhalosAgree) {
  // A host with a planted subclump whose members fly apart: unbinding
  // strips the clump, so the subhalo count depends on the velocity scale.
  // The in-situ algorithm (configured from analysis_config's [subhalos]
  // section) and the Level 2 analysis must count the same.
  WorkflowProblem p;
  p.universe.box = 10.0;
  p.linking_length = 0.5;
  p.compute_so_mass = false;
  p.compute_subhalos = true;
  p.subhalo_min_host = 1000;
  Rng rng(59);
  sim::ParticleSet host;
  for (int i = 0; i < 1500; ++i)
    host.push_back(static_cast<float>(rng.normal(5.0, 0.5)),
                   static_cast<float>(rng.normal(5.0, 0.5)),
                   static_cast<float>(rng.normal(5.0, 0.5)), 0, 0, 0, i);
  for (int i = 0; i < 120; ++i)
    host.push_back(static_cast<float>(rng.normal(6.2, 0.05)),
                   static_cast<float>(rng.normal(5.0, 0.05)),
                   static_cast<float>(rng.normal(5.0, 0.05)),
                   static_cast<float>(rng.normal(0.0, 1e4)),
                   static_cast<float>(rng.normal(0.0, 1e4)),
                   static_cast<float>(rng.normal(0.0, 1e4)), 10000 + i);
  comm::run_spmd(1, [&](comm::Comm& c) {
    halo::FofConfig fcfg;
    fcfg.linking_length = p.linking_length;
    fcfg.min_size = p.min_halo_size;
    const auto fof = halo::fof_find(
        host, halo::Periodicity::all(p.universe.box), fcfg);
    ASSERT_EQ(fof.size(), 1u);
    const auto& members = fof[0].members;
    ASSERT_GT(members.size(), p.subhalo_min_host);

    // The clump is found only with unbinding off.
    halo::SubhaloConfig bound;
    bound.box = p.universe.box;
    bound.velocity_scale = 0.0;
    halo::SubhaloConfig unbound = bound;
    unbound.velocity_scale = halo::SubhaloConfig{}.velocity_scale;
    ASSERT_LT(halo::find_subhalos(host, members, unbound).size(),
              halo::find_subhalos(host, members, bound).size());

    auto local = host;
    const auto insitu =
        core::detail::run_insitu_pipeline(c, p, 0, local, host.size());
    ASSERT_EQ(insitu.catalog_part.size(), 1u);
    std::vector<double> seconds;
    const auto level2 = core::detail::analyze_level2(
        c, p, dpp::Backend::Serial, {host.select(members)}, host.size(),
        seconds);
    ASSERT_EQ(level2.size(), 1u);
    EXPECT_EQ(insitu.catalog_part[0].subhalos, level2[0].subhalos);
  });
}

TEST(AnalysisConfig, DoublesRoundTripBitForBit) {
  WorkflowProblem p;
  for (const auto& [ll, overload] :
       {std::pair{0.123456789, 2.0000000001}, std::pair{1e-7, 3e-9},
        std::pair{0.32, 3.0}}) {
    p.linking_length = ll;
    p.overload = overload;
    const auto cfg = core::detail::analysis_config(p, 0);
    const auto& fof = cfg.section("halofinder");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fof.get_double("linking_length", -1)),
              std::bit_cast<std::uint64_t>(ll))
        << ll;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fof.get_double("overload", -1)),
              std::bit_cast<std::uint64_t>(overload))
        << overload;
  }
}

}  // namespace
