// Tests for the multi-timestep campaign, merger trees, checkpoints, and
// the density imaging (Fig. 2 product).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>

#include "core/campaign.h"
#include "io/image.h"
#include "sim/checkpoint.h"
#include "sim/ic.h"
#include "sim/pm_solver.h"
#include "stats/merger_tree.h"

namespace {

using namespace cosmo;
namespace fs = std::filesystem;

// ----------------------------------------------------------------- campaign

core::CampaignConfig small_campaign(const std::string& tag) {
  core::CampaignConfig cfg;
  cfg.base.universe.box = 32.0;
  cfg.base.universe.seed = 777;
  cfg.base.universe.halo_count = 12;
  cfg.base.universe.min_particles = 60;
  cfg.base.universe.max_particles = 1500;
  cfg.base.universe.background_particles = 300;
  cfg.base.universe.subclump_fraction = 0.0;
  cfg.base.ranks = 2;
  cfg.base.analysis_ranks = 2;
  cfg.base.linking_length = 0.3;
  cfg.base.overload = 2.5;
  cfg.base.threshold = 150;
  cfg.base.compute_so_mass = false;
  cfg.base.workdir = fs::temp_directory_path() /
                     ("campaign_" + std::to_string(::getpid()) + "_" + tag);
  cfg.timesteps = 3;
  cfg.growth_per_step = 1.5;
  return cfg;
}

TEST(Campaign, RunsAllStepsWithCompleteCatalogs) {
  auto cfg = small_campaign("basic");
  auto r = core::run_campaign(cfg);
  ASSERT_EQ(r.steps.size(), 3u);
  EXPECT_EQ(r.listener_triggers, 3u);
  for (const auto& s : r.steps) {
    EXPECT_GT(s.catalog.size(), 3u) << "step " << s.step;
    EXPECT_GT(s.insitu_analysis_s, 0.0);
    // Catalogs are sorted and id-unique (reconciliation succeeded).
    for (std::size_t i = 1; i < s.catalog.size(); ++i)
      EXPECT_LT(s.catalog[i - 1].id, s.catalog[i].id);
  }
  // Clustering grows in configuration: the final step's universe caps halo
  // mass at the base maximum, earlier steps lower (the per-step catalogs
  // themselves are noisy draws, so assert on total deferred work instead:
  // at least one step deferred something past the threshold).
  std::uint64_t total_deferred = 0;
  for (const auto& s : r.steps) total_deferred += s.deferred_halos;
  EXPECT_GT(total_deferred, 0u);
  EXPECT_GE(r.max_concurrent_analysis, 1u);
  fs::remove_all(cfg.base.workdir);
}

TEST(Campaign, MatchesPerStepInSituReference) {
  // Every step's reconciled catalog must equal a fresh full-in-situ run on
  // the same universe (the campaign-wide correctness invariant).
  auto cfg = small_campaign("ref");
  auto r = core::run_campaign(cfg);
  for (std::size_t s = 0; s < cfg.timesteps; ++s) {
    core::WorkflowProblem p = cfg.base;
    p.universe.seed = cfg.base.universe.seed + s;
    p.universe.max_particles = static_cast<std::size_t>(
        static_cast<double>(cfg.base.universe.max_particles) *
        std::pow(cfg.growth_per_step,
                 static_cast<double>(s) -
                     static_cast<double>(cfg.timesteps - 1)));
    if (p.universe.max_particles < p.universe.min_particles)
      p.universe.max_particles = p.universe.min_particles;
    p.threshold = 0;
    p.workdir = cfg.base.workdir.string() + "_ref" + std::to_string(s);
    auto ref = core::run_workflow(core::WorkflowKind::InSitu, p);
    fs::remove_all(p.workdir);
    ASSERT_EQ(r.steps[s].catalog.size(), ref.catalog.size()) << "step " << s;
    for (std::size_t i = 0; i < ref.catalog.size(); ++i) {
      EXPECT_EQ(r.steps[s].catalog[i].id, ref.catalog[i].id);
      EXPECT_EQ(r.steps[s].catalog[i].count, ref.catalog[i].count);
      EXPECT_FLOAT_EQ(r.steps[s].catalog[i].cx, ref.catalog[i].cx);
    }
  }
  fs::remove_all(cfg.base.workdir);
}

// Runs `earlier_steps` campaign steps at seed 777 in a workdir, then the
// 3-step campaign at seed 778 in the same workdir. Each step must give,
// bit for bit, the catalog the 3-step campaign gives in a fresh workdir.
void expect_rerun_matches_fresh(std::size_t earlier_steps,
                                const std::string& tag) {
  auto used = small_campaign(tag + "_used");
  used.timesteps = earlier_steps;
  core::run_campaign(used);
  EXPECT_TRUE(fs::exists(used.base.workdir /
                         ("level2.step" + std::to_string(earlier_steps - 1) +
                          ".alldone")));
  used.timesteps = 3;
  used.base.universe.seed = 778;
  const auto got = core::run_campaign(used);
  auto fresh = small_campaign(tag + "_fresh");
  fresh.base.universe.seed = 778;
  const auto want = core::run_campaign(fresh);
  fs::remove_all(used.base.workdir);
  fs::remove_all(fresh.base.workdir);
  EXPECT_EQ(got.analysis_job_failures, 0u);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t s = 0; s < want.steps.size(); ++s) {
    const auto& g = got.steps[s];
    const auto& w = want.steps[s];
    EXPECT_FALSE(g.degraded) << "step " << s;
    EXPECT_EQ(g.deferred_halos, w.deferred_halos) << "step " << s;
    ASSERT_EQ(g.catalog.size(), w.catalog.size()) << "step " << s;
    for (std::size_t i = 0; i < w.catalog.size(); ++i) {
      EXPECT_EQ(g.catalog[i].id, w.catalog[i].id) << "step " << s;
      EXPECT_EQ(g.catalog[i].count, w.catalog[i].count) << "step " << s;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(g.catalog[i].potential),
                std::bit_cast<std::uint32_t>(w.catalog[i].potential))
          << "step " << s << " halo " << w.catalog[i].id;
    }
  }
}

// The earlier run's step triggers are still in the workdir. Seen at start,
// they would fold its Level 2 halos into this run's catalogs, and the
// listener would then ignore the real triggers.
TEST(Campaign, RerunInUsedWorkdirMatchesFreshRun) {
  expect_rerun_matches_fresh(3, "rerun");
}

// A longer earlier campaign also leaves a trigger for a step past this
// run's last; it must launch no analysis job.
TEST(Campaign, ShorterRerunIgnoresTriggersPastItsLastStep) {
  expect_rerun_matches_fresh(4, "shorter");
}

TEST(Campaign, RequiresSplitThreshold) {
  auto cfg = small_campaign("nothreshold");
  cfg.base.threshold = 0;
  EXPECT_THROW(core::run_campaign(cfg), Error);
}

// -------------------------------------------------------------- merger tree

TEST(MergerTree, LinksByPluralityOverlap) {
  stats::MergerTreeBuilder b;
  b.add_snapshot(0, {{10, {1, 2, 3, 4}}, {20, {5, 6, 7}}});
  // Halo 10 keeps most tags in halo 30; halo 20's tags also land in 30:
  // a merger.
  b.add_snapshot(1, {{30, {1, 2, 3, 5, 6, 7, 8}}, {40, {4}}});
  b.build();
  EXPECT_EQ(b.descendant(0, 10), 30);
  EXPECT_EQ(b.descendant(0, 20), 30);
  auto prog = b.progenitors(1, 30);
  std::sort(prog.begin(), prog.end());
  EXPECT_EQ(prog, (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(b.mergers_at(1), 1u);
  EXPECT_TRUE(b.progenitors(1, 40).empty());  // 1 shared particle < plurality? no:
  // halo 40 holds tag 4 only; halo 10's plurality went to 30, so 40 has no
  // progenitor link.
}

TEST(MergerTree, DissolvedHaloHasNoDescendant) {
  stats::MergerTreeBuilder b;
  b.add_snapshot(0, {{10, {1, 2, 3}}});
  b.add_snapshot(1, {{20, {100, 101, 102}}});  // unrelated tags
  b.build();
  EXPECT_EQ(b.descendant(0, 10), -1);
}

TEST(MergerTree, MainBranchFollowsChain) {
  stats::MergerTreeBuilder b;
  b.add_snapshot(0, {{1, {1, 2, 3}}});
  b.add_snapshot(1, {{2, {1, 2, 3, 4}}});
  b.add_snapshot(2, {{3, {1, 2, 3, 4, 5}}});
  b.build();
  auto branch = b.main_branch(0, 1);
  ASSERT_EQ(branch.size(), 3u);
  EXPECT_EQ(branch[0], (std::pair<std::size_t, std::int64_t>{0, 1}));
  EXPECT_EQ(branch[1], (std::pair<std::size_t, std::int64_t>{1, 2}));
  EXPECT_EQ(branch[2], (std::pair<std::size_t, std::int64_t>{2, 3}));
}

TEST(MergerTree, RejectsOutOfOrderSnapshots) {
  stats::MergerTreeBuilder b;
  b.add_snapshot(2, {});
  EXPECT_THROW(b.add_snapshot(1, {}), Error);
}

TEST(MergerTree, TracksGrowingSyntheticHalo) {
  // Two synthetic "snapshots": the same halo tags, second step adds mass
  // (accretion) and a second halo merges in.
  stats::MergerTreeBuilder b;
  std::vector<std::int64_t> halo_a, halo_b;
  for (int i = 0; i < 100; ++i) halo_a.push_back(i);
  for (int i = 200; i < 260; ++i) halo_b.push_back(i);
  b.add_snapshot(0, {{0, halo_a}, {200, halo_b}});
  std::vector<std::int64_t> merged = halo_a;
  merged.insert(merged.end(), halo_b.begin(), halo_b.end());
  for (int i = 300; i < 330; ++i) merged.push_back(i);  // accreted
  b.add_snapshot(1, {{0, merged}});
  b.build();
  EXPECT_EQ(b.descendant(0, 0), 0);
  EXPECT_EQ(b.descendant(0, 200), 0);
  EXPECT_EQ(b.mergers_at(1), 1u);
  ASSERT_EQ(b.links().size(), 2u);
  EXPECT_EQ(b.links()[0].shared_particles, 100u);
}

// -------------------------------------------------------------- checkpoints

TEST(Checkpoint, RestartReproducesStraightRunExactly) {
  const std::size_t ng = 16;
  const double box = 32.0;
  const auto dir = fs::temp_directory_path() /
                   ("ckpt_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  sim::IcConfig ic;
  ic.ng = ng;
  ic.box = box;
  ic.z_init = 20.0;
  ic.seed = 5;
  const double a0 = sim::Cosmology::a_of_z(ic.z_init);
  const double da = (1.0 - a0) / 8.0;

  // Straight run: 8 steps.
  std::vector<std::tuple<std::int64_t, float, float, float>> straight;
  comm::run_spmd(2, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::PmSolver pm(c, cosmo, ng, box);
    auto p = sim::zeldovich_ics(c, cosmo, ic);
    double a = a0;
    for (int s = 0; s < 8; ++s, a += da)
      p = pm.step(std::move(p), a, da, ng * ng * ng);
    static std::mutex m;
    std::lock_guard lock(m);
    for (std::size_t i = 0; i < p.size(); ++i)
      straight.emplace_back(p.tag[i], p.x[i], p.y[i], p.z[i]);
  });
  std::sort(straight.begin(), straight.end());

  // Run 4 steps, checkpoint, restart (on a different rank count!), run 4.
  comm::run_spmd(2, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    sim::PmSolver pm(c, cosmo, ng, box);
    auto p = sim::zeldovich_ics(c, cosmo, ic);
    double a = a0;
    for (int s = 0; s < 4; ++s, a += da)
      p = pm.step(std::move(p), a, da, ng * ng * ng);
    sim::write_checkpoint(c, dir / "ckpt", p, box, a, ng * ng * ng, 2);
  });

  std::vector<std::tuple<std::int64_t, float, float, float>> restarted;
  comm::run_spmd(4, [&](comm::Comm& c) {  // restart on 4 ranks
    sim::Cosmology cosmo;
    sim::PmSolver pm(c, cosmo, ng, box);
    auto state = sim::read_checkpoint(c, dir / "ckpt", box, 2, 2);
    EXPECT_NEAR(state.a, a0 + 4 * da, 1e-12);
    EXPECT_EQ(state.total_particles, ng * ng * ng);
    auto p = std::move(state.particles);
    double a = state.a;
    for (int s = 0; s < 4; ++s, a += da)
      p = pm.step(std::move(p), a, da, ng * ng * ng);
    static std::mutex m;
    std::lock_guard lock(m);
    for (std::size_t i = 0; i < p.size(); ++i)
      restarted.emplace_back(p.tag[i], p.x[i], p.y[i], p.z[i]);
  });
  std::sort(restarted.begin(), restarted.end());

  ASSERT_EQ(straight.size(), restarted.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < straight.size(); ++i)
    if (straight[i] != restarted[i]) ++mismatches;
  // The leapfrog is deterministic; the only tolerated difference is
  // summation-order noise in the FFT transpose across rank counts — which
  // does not exist because the FFT is deterministic per mode. Require exact.
  EXPECT_EQ(mismatches, 0u);
  fs::remove_all(dir);
}

TEST(Checkpoint, BoxMismatchIsRejected) {
  const auto dir = fs::temp_directory_path() /
                   ("ckpt_box_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  comm::run_spmd(1, [&](comm::Comm& c) {
    sim::ParticleSet p;
    p.push_back(1, 1, 1, 0, 0, 0, 0);
    sim::write_checkpoint(c, dir / "ckpt", p, 32.0, 0.5, 1, 1);
    EXPECT_THROW(sim::read_checkpoint(c, dir / "ckpt", 64.0, 1, 1), Error);
  });
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ imaging

TEST(DensityImage, DepositAndToneMap) {
  io::DensityImage img(16, 16);
  img.deposit(0.5, 0.5);
  img.deposit(0.5, 0.5);
  img.deposit(0.05, 0.05);
  img.deposit(-0.1, 0.5);  // outside: ignored
  img.deposit(1.0, 0.5);   // outside: ignored
  EXPECT_DOUBLE_EQ(img.at(8, 8), 2.0);
  EXPECT_DOUBLE_EQ(img.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(img.at(15, 8), 0.0);
}

TEST(DensityImage, PgmRoundTripHeader) {
  const auto path = fs::temp_directory_path() /
                    ("img_" + std::to_string(::getpid()) + ".pgm");
  io::DensityImage img(8, 4);
  img.deposit(0.5, 0.5, 10.0);
  img.write_pgm(path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  std::size_t w, h, maxval;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 8u);
  EXPECT_EQ(h, 4u);
  EXPECT_EQ(maxval, 255u);
  in.get();  // newline
  std::vector<char> pixels(32);
  in.read(pixels.data(), 32);
  EXPECT_TRUE(in.good());
  fs::remove(path);
}

TEST(DensityImage, ProjectionShowsClusteredKnot) {
  // A dense blob must produce a bright pixel region against dark background.
  Rng rng(9);
  sim::ParticleSet p;
  for (int i = 0; i < 2000; ++i)
    p.push_back(static_cast<float>(rng.normal(16, 0.4)),
                static_cast<float>(rng.normal(16, 0.4)),
                static_cast<float>(rng.uniform(0, 32)), 0, 0, 0, i);
  auto img = io::project_region(p, 0, 32, 0, 32, 64);
  double center_mass = 0, corner_mass = 0;
  for (std::size_t y = 28; y < 36; ++y)
    for (std::size_t x = 28; x < 36; ++x) center_mass += img.at(x, y);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x) corner_mass += img.at(x, y);
  EXPECT_GT(center_mass, 100.0 * (corner_mass + 1.0));
  const auto art = img.ascii_art(16, 8);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 8);
}

}  // namespace
