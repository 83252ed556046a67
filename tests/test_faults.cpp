// Fault-injection test suite: every injection site exercised per layer, each
// asserting both the recovery outcome AND the emitted metrics; plus the
// replay acceptance test — a pinned-seed fault plan re-runs bit-identically
// (same injected faults, same retry counts, same degradation decisions, same
// final ledger).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "core/campaign.h"
#include "core/workflows.h"
#include "faults/faults.h"
#include "io/cosmo_io.h"
#include "io/fs_model.h"
#include "obs/obs.h"
#include "sched/batch_scheduler.h"
#include "sched/listener.h"
#include "sched/staging.h"
#include "sim/checkpoint.h"
#include "stats/catalog.h"
#include "util/crc32.h"
#include "util/error.h"

namespace {

using namespace cosmo;
using namespace cosmo::core;
namespace fs = std::filesystem;

std::uint64_t counter_total(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name).total();
}

/// Metric delta helper: records totals at construction, reports growth.
class CounterDelta {
 public:
  explicit CounterDelta(std::string name)
      : name_(std::move(name)), before_(counter_total(name_)) {}
  std::uint64_t get() const { return counter_total(name_) - before_; }

 private:
  std::string name_;
  std::uint64_t before_;
};

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
  p.threshold = 150;  // several halos exceed this → Level 2 is non-trivial
  p.compute_so_mass = true;
  p.compute_subhalos = false;
  p.workdir = fs::temp_directory_path() /
              ("faults_" + std::to_string(::getpid()) + "_" + tag);
  return p;
}

/// Field-wise catalog equality (FLOAT_EQ tolerance) — right for comparing a
/// degraded run against a fault-free reference, where the analysis ran on
/// different ranks/backends but must find the same physics.
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

std::uint32_t file_crc32(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.good()) << p;
  std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  return cosmo::crc32(bytes.data(), bytes.size());
}

class FaultTest : public ::testing::Test {
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
  fs::path make_dir(const std::string& tag) {
    auto d = fs::temp_directory_path() /
             ("faults_" + std::to_string(::getpid()) + "_" + tag + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(d);
    dirs_.push_back(d);
    return d;
  }
  std::vector<fs::path> dirs_;
};

// ---------------------------------------------------------------------------
// Plan mechanics
// ---------------------------------------------------------------------------

TEST(FaultPlan, ScheduledInjectionFiresAtExactOccurrence) {
  faults::Plan plan(1);
  plan.schedule(faults::at("unit.site", 2));
  faults::ScopedPlan armed(plan);
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(faults::should_inject("unit.site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false}));
  const auto log = plan.injections();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].site, "unit.site");
  EXPECT_EQ(log[0].occurrence, 2u);
  EXPECT_EQ(log[0].rank, -1);  // main thread is rank-less
}

TEST(FaultPlan, RateOneFiresUntilCapThenStops) {
  faults::Plan plan(2);
  plan.set_rate("unit.capped", 1.0, 3);
  faults::ScopedPlan armed(plan);
  CounterDelta injected("faults.injected");
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    if (faults::should_inject("unit.capped")) ++fired;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(plan.injected_total(), 3u);
  EXPECT_EQ(injected.get(), 3u);
}

TEST(FaultPlan, UnconfiguredSiteAndDisarmedPlanNeverInject) {
  // No plan armed at all:
  EXPECT_FALSE(faults::should_inject("unit.anything"));
  // Plan armed but site not configured:
  faults::Plan plan(3);
  plan.set_rate("unit.other", 1.0);
  faults::ScopedPlan armed(plan);
  EXPECT_FALSE(faults::should_inject("unit.not_configured"));
  EXPECT_EQ(plan.injected_total(), 0u);
}

TEST(FaultPlan, SameSeedReplaysIdenticalLog) {
  auto run_sequence = [](faults::Plan& plan) {
    faults::ScopedPlan armed(plan);
    for (int i = 0; i < 200; ++i) (void)faults::should_inject("unit.coin");
  };
  faults::Plan a(77), b(77), c(78);
  for (auto* p : {&a, &b, &c}) p->set_rate("unit.coin", 0.25);
  run_sequence(a);
  run_sequence(b);
  run_sequence(c);
  EXPECT_EQ(a.injections(), b.injections());
  EXPECT_GT(a.injected_total(), 20u);  // ~50 expected of 200
  EXPECT_LT(a.injected_total(), 100u);
  EXPECT_NE(a.injections(), c.injections());  // different seed, different plan
}

TEST(FaultPlan, ParamRoundTripsAndFallsBack) {
  faults::Plan plan(4);
  plan.set_param("unit.param", 42);
  faults::ScopedPlan armed(plan);
  EXPECT_EQ(faults::site_param("unit.param", 7), 42u);
  EXPECT_EQ(faults::site_param("unit.no_param", 7), 7u);
}

TEST(FaultPlan, JitterIsPureAndBounded) {
  for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
    const auto j = faults::Plan::jitter_for(99, "unit.jitter", attempt, 10);
    EXPECT_LT(j, 10u);
    EXPECT_EQ(j, faults::Plan::jitter_for(99, "unit.jitter", attempt, 10));
  }
  EXPECT_EQ(faults::Plan::jitter_for(99, "unit.jitter", 0, 1), 0u);
  EXPECT_EQ(faults::Plan::jitter_for(99, "unit.jitter", 0, 0), 0u);
}

// ---------------------------------------------------------------------------
// comm: dropped / delayed payload delivery
// ---------------------------------------------------------------------------

TEST(CommFaults, DroppedDeliveryIsRedeliveredTransparently) {
  faults::Plan plan(11);
  plan.schedule(faults::at("comm.send", 0, 0));  // rank 0's first send
  faults::ScopedPlan armed(plan);
  CounterDelta drops("comm.delivery_drops"), redeliveries("comm.redeliveries");
  comm::run_spmd(2, [](comm::Comm& c) {
    if (c.rank() == 0)
      c.send_value<int>(1, 7, 99);
    else
      EXPECT_EQ((c.recv_value<int>(0, 7)), 99);
  });
  EXPECT_EQ(drops.get(), 1u);
  EXPECT_EQ(redeliveries.get(), 1u);
  ASSERT_EQ(plan.injections().size(), 1u);
  EXPECT_EQ(plan.injections()[0].site, "comm.send");
  EXPECT_EQ(plan.injections()[0].rank, 0);
}

TEST(CommFaults, PermanentDeliveryLossThrowsAfterRedeliveryBudget) {
  faults::Plan plan(12);
  plan.schedule(faults::at("comm.send", 0, 0));
  for (std::uint64_t occ = 0;
       occ < static_cast<std::uint64_t>(comm::Comm::kMaxRedeliveries); ++occ)
    plan.schedule(faults::at("comm.redeliver", occ, 0));
  faults::ScopedPlan armed(plan);
  CounterDelta drops("comm.delivery_drops");
  // Single-rank self-send: the failure surfaces on the sending rank with no
  // peer left blocked in recv.
  EXPECT_THROW(
      comm::run_spmd(1, [](comm::Comm& c) { c.send_value<int>(0, 1, 5); }),
      Error);
  // Initial drop + every redelivery dropped.
  EXPECT_EQ(drops.get(),
            1u + static_cast<std::uint64_t>(comm::Comm::kMaxRedeliveries));
}

TEST(CommFaults, DelayedSendsStillDeliverCorrectly) {
  faults::Plan plan(13);
  plan.set_rate("comm.delay", 1.0);
  plan.set_param("comm.delay", 1);  // 1 ms per send, keep the test fast
  faults::ScopedPlan armed(plan);
  CounterDelta delayed("comm.delayed_sends");
  comm::run_spmd(4, [](comm::Comm& c) {
    const int sum = c.allreduce_value(c.rank() + 1, comm::ReduceOp::Sum);
    EXPECT_EQ(sum, 10);
  });
  EXPECT_GT(delayed.get(), 0u);
}

TEST(CommFaults, CollectivesSurviveRandomDrops) {
  faults::Plan plan(14);
  plan.set_rate("comm.send", 0.2);  // redelivery absorbs every drop
  faults::ScopedPlan armed(plan);
  comm::run_spmd(4, [](comm::Comm& c) {
    for (int round = 0; round < 5; ++round) {
      const int sum = c.allreduce_value(c.rank(), comm::ReduceOp::Sum);
      EXPECT_EQ(sum, 6);
      auto all = c.allgather_value(c.rank() * 10);
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(all[r], r * 10);
    }
  });
  EXPECT_GT(plan.injected_total(), 0u) << "rate 0.2 should have fired";
}

// ---------------------------------------------------------------------------
// io: failed / partial / slow writes, failed reads, degraded filesystem
// ---------------------------------------------------------------------------

TEST_F(FaultTest, WriteFailThrowsAndCounts) {
  const auto dir = make_dir("io");
  faults::Plan plan(21);
  plan.schedule(faults::at("io.write_fail", 0));
  faults::ScopedPlan armed(plan);
  CounterDelta faults_seen("io.write_faults");
  io::CosmoIoWriter w(dir / "fail.cosmo", {32.0, 1.0, 16, 0});
  sim::ParticleSet p(16);
  EXPECT_THROW(w.write_block(p), Error);
  EXPECT_EQ(faults_seen.get(), 1u);
}

TEST_F(FaultTest, PartialWriteLeavesFileTheReaderRejects) {
  const auto dir = make_dir("io");
  const auto path = dir / "partial.cosmo";
  faults::Plan plan(22);
  plan.schedule(faults::at("io.write_partial", 0));
  faults::ScopedPlan armed(plan);
  CounterDelta faults_seen("io.write_faults");
  {
    io::CosmoIoWriter w(path, {32.0, 1.0, 16, 0});
    sim::ParticleSet p(16);
    EXPECT_THROW(w.write_block(p), Error);
    // Writer destroyed unfinalized: table_offset stays 0.
  }
  EXPECT_EQ(faults_seen.get(), 1u);
  EXPECT_TRUE(fs::exists(path)) << "partial write leaves bytes on disk";
  EXPECT_THROW({ io::CosmoIoReader r(path); }, Error)
      << "reader must reject an unfinalized file";
}

TEST_F(FaultTest, SlowWriteLandsAndIsCounted) {
  const auto dir = make_dir("io");
  const auto path = dir / "slow.cosmo";
  faults::Plan plan(23);
  plan.set_rate("io.write_slow", 1.0);
  plan.set_param("io.write_slow", 1);
  faults::ScopedPlan armed(plan);
  CounterDelta slow("io.slow_writes");
  {
    io::CosmoIoWriter w(path, {32.0, 1.0, 8, 0});
    sim::ParticleSet p(8);
    for (std::size_t i = 0; i < p.size(); ++i)
      p.tag[i] = static_cast<std::int64_t>(i);
    w.write_block(p);
    w.finalize();
  }
  EXPECT_EQ(slow.get(), 1u);
  io::CosmoIoReader r(path);  // slow ≠ broken: the file is valid
  ASSERT_EQ(r.num_blocks(), 1u);
  EXPECT_EQ(r.read_block(0).size(), 8u);
}

TEST_F(FaultTest, ReadFailThrowsAndCounts) {
  const auto dir = make_dir("io");
  const auto path = dir / "read.cosmo";
  {
    io::CosmoIoWriter w(path, {32.0, 1.0, 8, 0});
    sim::ParticleSet p(8);
    w.write_block(p);
    w.finalize();
  }
  faults::Plan plan(24);
  plan.schedule(faults::at("io.read_fail", 0));
  faults::ScopedPlan armed(plan);
  CounterDelta faults_seen("io.read_faults");
  io::CosmoIoReader r(path);
  EXPECT_THROW(r.read_block(0), Error);
  EXPECT_EQ(faults_seen.get(), 1u);
  EXPECT_EQ(r.read_block(0).size(), 8u) << "next attempt succeeds";
}

TEST(IoFaults, DegradedFilesystemMultipliesModeledTime) {
  io::FilesystemModel model{1.0e9, 1.0};
  const double nominal = model.write_seconds(1000000000);  // 1 + 1 = 2 s
  faults::Plan plan(25);
  plan.set_rate("fs.degraded", 1.0);
  plan.set_param("fs.degraded", 10);
  faults::ScopedPlan armed(plan);
  CounterDelta degraded("io.fs_degraded");
  EXPECT_DOUBLE_EQ(model.write_seconds(1000000000), nominal * 10.0);
  EXPECT_DOUBLE_EQ(model.read_seconds(1000000000), nominal * 10.0);
  EXPECT_EQ(degraded.get(), 2u);
}

// ---------------------------------------------------------------------------
// sched::Listener: missed polls, submit retry, dead letters
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ListenerSubmitRetryAbsorbsTransientFailure) {
  const auto dir = make_dir("listener");
  faults::Plan plan(31);
  plan.schedule(faults::at("listener.submit", 0));  // first attempt bounces
  faults::ScopedPlan armed(plan);
  CounterDelta retries("sched.listener_submit_retries");
  CounterDelta dead("sched.listener_dead_letters");
  std::atomic<int> submitted{0};
  sched::Listener listener({dir, ".done", std::chrono::milliseconds(2)},
                           [&](const fs::path&) { ++submitted; });
  listener.start();
  std::ofstream(dir / "out.done") << "ok\n";
  ASSERT_TRUE(listener.wait_for_triggers(1, std::chrono::milliseconds(2000)));
  listener.stop();
  const auto stats = listener.stats();
  EXPECT_EQ(submitted.load(), 1);
  EXPECT_EQ(stats.triggers, 1u);
  EXPECT_EQ(stats.submit_retries, 1u);
  EXPECT_EQ(stats.dead_letters, 0u);
  EXPECT_EQ(retries.get(), 1u);
  EXPECT_EQ(dead.get(), 0u);
}

TEST_F(FaultTest, ListenerPermanentSubmitFailureIsDeadLettered) {
  const auto dir = make_dir("listener");
  faults::Plan plan(32);
  plan.set_rate("listener.submit", 1.0);  // every attempt fails
  faults::ScopedPlan armed(plan);
  CounterDelta dead("sched.listener_dead_letters");
  std::atomic<int> submitted{0};
  sched::Listener listener({dir, ".done", std::chrono::milliseconds(2)},
                           [&](const fs::path&) { ++submitted; });
  listener.start();
  const auto trigger = dir / "out.done";
  std::ofstream(trigger) << "ok\n";
  ASSERT_TRUE(listener.wait_for_triggers(1, std::chrono::milliseconds(2000)));
  listener.stop();
  const auto stats = listener.stats();
  EXPECT_EQ(submitted.load(), 0) << "callback must never run";
  EXPECT_EQ(stats.dead_letters, 1u);
  EXPECT_EQ(stats.submit_retries, 2u) << "3 attempts = 2 retries";
  const auto letters = listener.dead_letters();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0], trigger);
  EXPECT_EQ(dead.get(), 1u);
}

TEST_F(FaultTest, ListenerMissedPollsDelayButDoNotLoseTriggers) {
  const auto dir = make_dir("listener");
  std::ofstream(dir / "early.done") << "ok\n";  // present before the listener
  faults::Plan plan(33);
  plan.schedule(faults::at("listener.poll", 0));  // first two sweeps fail
  plan.schedule(faults::at("listener.poll", 1));
  faults::ScopedPlan armed(plan);
  CounterDelta missed("sched.listener_missed_polls");
  std::atomic<int> submitted{0};
  sched::Listener listener({dir, ".done", std::chrono::milliseconds(2)},
                           [&](const fs::path&) { ++submitted; });
  listener.start();
  ASSERT_TRUE(listener.wait_for_triggers(1, std::chrono::milliseconds(2000)));
  listener.stop();
  const auto stats = listener.stats();
  EXPECT_EQ(submitted.load(), 1);
  EXPECT_EQ(stats.triggers, 1u);
  EXPECT_EQ(stats.missed_polls, 2u);
  EXPECT_EQ(missed.get(), 2u);
}

// ---------------------------------------------------------------------------
// sched::StagingArea: device faults, lost handoffs, dead consumer
// ---------------------------------------------------------------------------

TEST(StagingFaults, InjectedDeviceFaultRejectsPutDespiteCapacity) {
  sched::StagingArea area(1 << 20);
  faults::Plan plan(41);
  plan.set_rate("staging.put", 1.0);
  faults::ScopedPlan armed(plan);
  CounterDelta device("sched.staging_faults"), rejects("sched.staging_rejects");
  EXPECT_FALSE(area.put("a", std::vector<std::byte>(64)));
  EXPECT_EQ(area.used_bytes(), 0u);
  EXPECT_EQ(device.get(), 1u);
  EXPECT_EQ(rejects.get(), 1u);
}

TEST(StagingFaults, LostHandoffCanBeRecoveredByPlainTake) {
  sched::StagingArea area(1 << 20);
  ASSERT_TRUE(area.put("a", std::vector<std::byte>(64)));
  faults::Plan plan(42);
  plan.schedule(faults::at("staging.take", 0));
  faults::ScopedPlan armed(plan);
  CounterDelta lost("sched.staging_take_faults");
  // The injected lost handoff returns empty even though the data is there…
  EXPECT_FALSE(
      area.take_blocking("a", std::chrono::milliseconds(50)).has_value());
  EXPECT_EQ(lost.get(), 1u);
  // …so the buffer is still resident and a plain take recovers it.
  auto buf = area.take("a");
  ASSERT_TRUE(buf.has_value());
  EXPECT_EQ(buf->size(), 64u);
}

TEST(StagingFaults, ClosedAreaRejectsPutsAndReleasesBlockedTakers) {
  sched::StagingArea area(1 << 20);
  CounterDelta closed("sched.staging_closed");
  std::optional<std::vector<std::byte>> taken;
  std::thread consumer([&] {
    taken = area.take_blocking("never", std::chrono::milliseconds(5000));
  });
  area.close();  // dead consumer / torn-down device
  consumer.join();
  EXPECT_FALSE(taken.has_value()) << "close must wake the blocked taker";
  EXPECT_TRUE(area.closed());
  EXPECT_FALSE(area.put("a", std::vector<std::byte>(8)));
  EXPECT_EQ(closed.get(), 1u);
}

// ---------------------------------------------------------------------------
// sched::BatchScheduler: job failure and requeue
// ---------------------------------------------------------------------------

TEST(BatchFaults, FailedJobIsRequeuedAndBilledPerAttempt) {
  faults::Plan plan(51);
  plan.schedule(faults::at("batch.job", 0));  // first completion check fails
  faults::ScopedPlan armed(plan);
  CounterDelta failed("sched.jobs_failed"), requeued("sched.jobs_requeued");
  sched::MachineProfile m{"Test", 16, 1.0, 1.0, true, {}};
  sched::BatchScheduler s(m);
  const auto id = s.submit("analysis", 4, 100.0, 0.0);
  s.run_to_completion();
  const auto& j = s.job(id);
  EXPECT_EQ(j.requeues, 1);
  EXPECT_FALSE(j.failed);
  EXPECT_DOUBLE_EQ(j.end_time, 200.0) << "requeued run starts at t=100";
  EXPECT_EQ(failed.get(), 1u);
  EXPECT_EQ(requeued.get(), 1u);
  // The facility bills both attempts: 4 nodes × 200 s.
  EXPECT_DOUBLE_EQ(s.total_core_hours(), 4 * (100.0 * 2 / 3600.0));
}

TEST(BatchFaults, RequeueBudgetExhaustionMarksJobFailed) {
  faults::Plan plan(52);
  plan.set_rate("batch.job", 1.0);  // every run dies
  faults::ScopedPlan armed(plan);
  CounterDelta failed("sched.jobs_failed"), requeued("sched.jobs_requeued");
  sched::MachineProfile m{"Test", 16, 1.0, 1.0, true, {}};
  m.policy.max_requeues = 1;
  sched::BatchScheduler s(m);
  const auto id = s.submit("analysis", 4, 50.0, 0.0);
  s.run_to_completion();
  const auto& j = s.job(id);
  EXPECT_TRUE(j.failed);
  EXPECT_EQ(j.requeues, 1);
  EXPECT_DOUBLE_EQ(j.end_time, 100.0);
  EXPECT_EQ(failed.get(), 2u) << "both runs checked and failed";
  EXPECT_EQ(requeued.get(), 1u) << "only one requeue allowed";
  EXPECT_DOUBLE_EQ(s.makespan(), 100.0);
}

TEST(BatchFaults, RequeueCoexistsWithQueuePolicy) {
  faults::Plan plan(53);
  plan.schedule(faults::at("batch.job", 0));  // first completion overall
  faults::ScopedPlan armed(plan);
  auto m = sched::MachineProfile::titan();
  sched::BatchScheduler s(m);
  // Three small jobs under Titan's ≤2-small-jobs policy; the requeued one
  // re-enters the same policy-constrained queue.
  const auto a = s.submit("a", 4, 10.0, 0.0);
  const auto b = s.submit("b", 4, 10.0, 0.0);
  const auto c = s.submit("c", 4, 10.0, 0.0);
  s.run_to_completion();
  EXPECT_EQ(s.job(a).requeues + s.job(b).requeues + s.job(c).requeues, 1);
  for (const auto id : {a, b, c}) {
    EXPECT_TRUE(s.job(id).finished());
    EXPECT_FALSE(s.job(id).failed);
  }
}

// ---------------------------------------------------------------------------
// Workflow-level recovery: fallback routing and graceful degradation
// ---------------------------------------------------------------------------

TEST_F(FaultTest, StagingDeviceFaultRoutesLevel2ThroughFilesystem) {
  auto p_ref = make("ref");
  const auto r_ref = run_workflow(WorkflowKind::CombinedInTransit, p_ref);

  faults::Plan plan(61);
  plan.set_rate("staging.put", 1.0);  // burst buffer dead for every rank
  faults::ScopedPlan armed(plan);
  CounterDelta fallbacks("workflow.staging_fallbacks");
  auto p = make("faulty");
  const auto r = run_workflow(WorkflowKind::CombinedInTransit, p);

  EXPECT_EQ(r.staging_fallbacks, static_cast<std::uint64_t>(p.ranks));
  EXPECT_EQ(fallbacks.get(), static_cast<std::uint64_t>(p.ranks));
  EXPECT_EQ(r.degraded_steps, 0u) << "rerouted, not degraded";
  expect_same_catalog(r_ref.catalog, r.catalog);
}

TEST_F(FaultTest, Level2WriteFaultIsRetriedTransparently) {
  auto p_ref = make("ref");
  const auto r_ref = run_workflow(WorkflowKind::CombinedSimple, p_ref);

  faults::Plan plan(62);
  // Every rank's first Level 2 block write fails; the whole-file retry
  // rewrites from the in-memory halos (only ranks with deferred halos ever
  // call write_block, so the injection count varies with the decomposition).
  plan.schedule(faults::at("io.write_fail", 0));
  faults::ScopedPlan armed(plan);
  CounterDelta write_retries("workflow.write_retries");
  CounterDelta retry_attempts("retry.attempts");
  auto p = make("faulty");
  const auto r = run_workflow(WorkflowKind::CombinedSimple, p);

  EXPECT_GE(write_retries.get(), 1u);
  EXPECT_EQ(write_retries.get(), plan.injected_total())
      << "each injected write failure costs exactly one whole-file retry";
  EXPECT_GT(retry_attempts.get(), static_cast<std::uint64_t>(p.ranks));
  expect_same_catalog(r_ref.catalog, r.catalog);
}

TEST_F(FaultTest, DeadLetteredSubmitDegradesStepToInSitu) {
  auto p_ref = make("ref");
  const auto r_ref = run_workflow(WorkflowKind::CombinedCoScheduled, p_ref);

  faults::Plan plan(63);
  plan.set_rate("listener.submit", 1.0);  // co-scheduled analysis unavailable
  faults::ScopedPlan armed(plan);
  CounterDelta degraded("workflow.degraded");
  auto p = make("faulty");
  const auto r = run_workflow(WorkflowKind::CombinedCoScheduled, p);

  EXPECT_EQ(r.degraded_steps, 1u);
  EXPECT_EQ(r.dead_letter_submits, static_cast<std::uint64_t>(p.ranks));
  EXPECT_EQ(degraded.get(), 1u);
  // The fallback job ran on the simulation side's resources and still
  // produced the complete, correct Level 3 catalog.
  expect_same_catalog(r_ref.catalog, r.catalog);
  EXPECT_GT(r.total_halos, 5u);
}

TEST_F(FaultTest, TransientSubmitFailureDoesNotDegrade) {
  faults::Plan plan(64);
  plan.schedule(faults::at("listener.submit", 0));  // one bounce, then fine
  faults::ScopedPlan armed(plan);
  auto p = make("transient");
  const auto r = run_workflow(WorkflowKind::CombinedCoScheduled, p);
  EXPECT_EQ(r.degraded_steps, 0u);
  EXPECT_EQ(r.dead_letter_submits, 0u);
  EXPECT_EQ(r.submit_retries, 1u);
  EXPECT_EQ(r.listener_triggers, static_cast<std::uint64_t>(p.ranks));
}

TEST_F(FaultTest, InTransitConsumerDeathDegradesAndDrainsStaging) {
  auto p_ref = make("ref");
  const auto r_ref = run_workflow(WorkflowKind::CombinedInTransit, p_ref);

  faults::Plan plan(65);
  plan.schedule(faults::at("workflow.intransit_consumer", 0));
  faults::ScopedPlan armed(plan);
  CounterDelta degraded("workflow.degraded");
  CounterDelta consumer("workflow.consumer_faults");
  auto p = make("faulty");
  const auto r = run_workflow(WorkflowKind::CombinedInTransit, p);

  EXPECT_EQ(r.degraded_steps, 1u);
  EXPECT_EQ(degraded.get(), 1u);
  EXPECT_EQ(consumer.get(), 1u);
  expect_same_catalog(r_ref.catalog, r.catalog);
}

TEST_F(FaultTest, CampaignWithPermanentSubmitFailureCompletesDegraded) {
  CampaignConfig ref_cfg;
  ref_cfg.base = make("ref");
  ref_cfg.timesteps = 2;
  ref_cfg.growth_per_step = 1.4;
  const auto r_ref = run_campaign(ref_cfg);
  ASSERT_EQ(r_ref.degraded_steps, 0u);

  faults::Plan plan(66);
  plan.set_rate("listener.submit", 1.0);
  faults::ScopedPlan armed(plan);
  CounterDelta degraded("workflow.degraded");
  CampaignConfig cfg = ref_cfg;
  cfg.base = make("faulty");
  const auto r = run_campaign(cfg);

  EXPECT_EQ(r.degraded_steps, 2u);
  EXPECT_EQ(r.dead_letter_submits, 2u);
  EXPECT_EQ(degraded.get(), 2u);
  ASSERT_EQ(r.steps.size(), r_ref.steps.size());
  for (std::size_t s = 0; s < r.steps.size(); ++s) {
    EXPECT_TRUE(r.steps[s].degraded);
    expect_same_catalog(r_ref.steps[s].catalog, r.steps[s].catalog);
  }
}

TEST_F(FaultTest, CampaignAbsorbsAnalysisJobDeath) {
  CampaignConfig ref_cfg;
  ref_cfg.base = make("ref");
  ref_cfg.timesteps = 2;
  ref_cfg.growth_per_step = 1.4;
  const auto r_ref = run_campaign(ref_cfg);

  faults::Plan plan(67);
  // Exactly one Level 2 read fails, ever: one rank of one co-scheduled
  // analysis job loses its reads, the job's ranks abort in a coordinated
  // way (no peer left blocked in a collective), the job dies, and the
  // post-drain fallback (whose reads come later) absorbs that step.
  plan.set_rate("io.read_fail", 1.0, 1);
  faults::ScopedPlan armed(plan);
  CounterDelta job_failures("campaign.analysis_job_failures");
  CampaignConfig cfg = ref_cfg;
  cfg.base = make("faulty");
  const auto r = run_campaign(cfg);

  EXPECT_EQ(r.analysis_job_failures, 1u);
  EXPECT_EQ(job_failures.get(), 1u);
  EXPECT_EQ(r.degraded_steps, 1u) << "the dead job's step fell back";
  ASSERT_EQ(r.steps.size(), r_ref.steps.size());
  for (std::size_t s = 0; s < r.steps.size(); ++s)
    expect_same_catalog(r_ref.steps[s].catalog, r.steps[s].catalog);
}

// ---------------------------------------------------------------------------
// Unrecoverable single-rank I/O failures: the job fails on every rank
// together (Comm::agree_or_throw) instead of leaving the other ranks blocked
// forever in the job's next collective.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, OffLineLevel1ReadFailureFailsTheJob) {
  faults::Plan plan(68);
  plan.schedule(faults::at("io.read_fail", 0, 1));  // rank 1 loses its block
  faults::ScopedPlan armed(plan);
  auto p = make("l1read");
  EXPECT_THROW(run_workflow(WorkflowKind::OffLine, p), Error);
  EXPECT_EQ(plan.injected_total(), 1u);
}

TEST_F(FaultTest, OffLineLevel1WriteFailureFailsTheJob) {
  faults::Plan plan(69);
  plan.schedule(faults::at("io.write_fail", 0, 0));  // an aggregation writer
  faults::ScopedPlan armed(plan);
  auto p = make("l1write");
  EXPECT_THROW(run_workflow(WorkflowKind::OffLine, p), Error);
  EXPECT_EQ(plan.injected_total(), 1u);
}

/// Fails rank 1's first three Level 2 block writes: every attempt of its
/// whole-file retry, so the write fails for good.
void exhaust_rank1_level2_retries(faults::Plan& plan) {
  for (std::uint64_t occurrence = 0; occurrence < 3; ++occurrence)
    plan.schedule(faults::at("io.write_fail", occurrence, 1));
}

TEST_F(FaultTest, ExhaustedLevel2WriteRetriesFailTheWorkflow) {
  faults::Plan plan(70);
  exhaust_rank1_level2_retries(plan);
  faults::ScopedPlan armed(plan);
  auto p = make("l2write");
  EXPECT_THROW(run_workflow(WorkflowKind::CombinedSimple, p), Error);
  EXPECT_EQ(plan.injected_total(), 3u);
}

TEST_F(FaultTest, ExhaustedLevel2WriteRetriesFailTheCampaign) {
  faults::Plan plan(71);
  exhaust_rank1_level2_retries(plan);
  faults::ScopedPlan armed(plan);
  CampaignConfig cfg;
  cfg.base = make("campaign");
  cfg.timesteps = 2;
  cfg.growth_per_step = 1.4;
  EXPECT_THROW(run_campaign(cfg), Error);
  EXPECT_EQ(plan.injected_total(), 3u);
}

// Checkpoint restart follows the same rule: one rank's failed checkpoint
// write or read fails every rank, before the collective that comes next.

constexpr double kCheckpointBox = 16.0;

/// 50 particles inside this rank's slab of a 4-rank decomposition.
sim::ParticleSet slab_particles(const comm::Comm& c) {
  const sim::SlabDecomposition decomp(c.size(), kCheckpointBox);
  sim::ParticleSet p;
  for (int i = 0; i < 50; ++i)
    p.push_back(static_cast<float>(0.3 * i), static_cast<float>(0.2 * i),
                static_cast<float>(decomp.z_lo(c.rank()) + 0.07 * i), 0, 0, 0,
                c.rank() * 100 + i);
  return p;
}

TEST_F(FaultTest, CheckpointReadFailureFailsEveryRank) {
  const auto base = make_dir("ckpt") / "ckpt";
  comm::run_spmd(4, [&](comm::Comm& c) {
    sim::write_checkpoint(c, base, slab_particles(c), kCheckpointBox, 0.5, 200,
                          /*ranks_per_file=*/2);
  });
  faults::Plan plan(72);
  plan.schedule(faults::at("io.read_fail", 0, 2));  // rank 2 loses its block
  faults::ScopedPlan armed(plan);
  std::atomic<int> failed_ranks{0};
  comm::run_spmd(4, [&](comm::Comm& c) {
    try {
      sim::read_checkpoint(c, base, kCheckpointBox, /*writer_ranks=*/4,
                           /*ranks_per_file=*/2);
    } catch (const Error&) {
      ++failed_ranks;
    }
  });
  EXPECT_EQ(failed_ranks.load(), 4);
  EXPECT_EQ(plan.injected_total(), 1u);
}

TEST_F(FaultTest, CheckpointWriteFailureFailsEveryRank) {
  const auto base = make_dir("ckpt") / "ckpt";
  faults::Plan plan(73);
  plan.schedule(faults::at("io.write_fail", 0, 2));  // group 1's writer
  faults::ScopedPlan armed(plan);
  std::atomic<int> failed_ranks{0};
  comm::run_spmd(4, [&](comm::Comm& c) {
    try {
      sim::write_checkpoint(c, base, slab_particles(c), kCheckpointBox, 0.5,
                            200, /*ranks_per_file=*/2);
      c.barrier();  // the next collective of a run
    } catch (const Error&) {
      ++failed_ranks;
    }
  });
  EXPECT_EQ(failed_ranks.load(), 4);
  EXPECT_EQ(plan.injected_total(), 1u);
}

// ---------------------------------------------------------------------------
// Replay: the acceptance criterion. A pinned-seed plan over a deterministic
// workload re-runs bit-identically — same injection log, same retry counts,
// same degradation decisions, same catalog bytes and Level 3 CRC.
// ---------------------------------------------------------------------------

void configure_replay_plan(faults::Plan& plan) {
  plan.set_rate("comm.delay", 0.05);
  plan.set_param("comm.delay", 1);
  plan.set_rate("comm.send", 0.02);            // drops; redelivery recovers
  plan.schedule(faults::at("io.write_fail", 0, 1));   // rank 1 retries Level 2
  plan.schedule(faults::at("listener.submit", 0));    // one submit bounce
}

TEST_F(FaultTest, PinnedSeedFaultPlanReplaysBitIdentically) {
  constexpr std::uint64_t kSeed = 20260808;

  struct RunRecord {
    WorkflowResult result;
    std::vector<faults::Injection> log;
    std::uint64_t retry_attempts = 0;
    std::uint64_t injected = 0;
    std::uint32_t level3_crc = 0;
  };
  auto run_once = [&](const std::string& tag) {
    faults::Plan plan(kSeed);
    configure_replay_plan(plan);
    auto p = make(tag);
    CounterDelta retry_attempts("retry.attempts");
    RunRecord rec;
    {
      faults::ScopedPlan armed(plan);
      rec.result = run_workflow(WorkflowKind::CombinedCoScheduled, p);
    }
    rec.log = plan.injections();
    rec.retry_attempts = retry_attempts.get();
    rec.injected = plan.injected_total();
    rec.level3_crc = file_crc32(p.workdir / "level3.catalog");
    return rec;
  };

  const auto r1 = run_once("replay1");
  const auto r2 = run_once("replay2");

  // Same injected faults (site, rank, occurrence — the whole log)…
  EXPECT_GT(r1.injected, 0u) << "the pinned plan must actually inject";
  EXPECT_EQ(r1.log, r2.log);
  EXPECT_EQ(r1.injected, r2.injected);
  // …same retry counts and degradation decisions…
  EXPECT_EQ(r1.retry_attempts, r2.retry_attempts);
  EXPECT_EQ(r1.result.degraded_steps, r2.result.degraded_steps);
  EXPECT_EQ(r1.result.dead_letter_submits, r2.result.dead_letter_submits);
  EXPECT_EQ(r1.result.submit_retries, r2.result.submit_retries);
  EXPECT_EQ(r1.result.staging_fallbacks, r2.result.staging_fallbacks);
  // …and a bit-identical final ledger.
  EXPECT_EQ(stats::catalog_to_bytes(r1.result.catalog),
            stats::catalog_to_bytes(r2.result.catalog));
  EXPECT_EQ(r1.level3_crc, r2.level3_crc);

  // The faulted-but-recovered runs also match the fault-free product.
  auto p_ref = make("ref");
  const auto r_ref = run_workflow(WorkflowKind::CombinedCoScheduled, p_ref);
  expect_same_catalog(r_ref.catalog, r1.result.catalog);
}

TEST_F(FaultTest, DifferentSeedsProduceDifferentInjectionLogs) {
  auto log_for = [&](std::uint64_t seed, const std::string& tag) {
    faults::Plan plan(seed);
    plan.set_rate("comm.send", 0.1);
    auto p = make(tag);
    faults::ScopedPlan armed(plan);
    (void)run_workflow(WorkflowKind::CombinedSimple, p);
    return plan.injections();
  };
  const auto a = log_for(1001, "seed_a");
  const auto b = log_for(1002, "seed_b");
  EXPECT_FALSE(a.empty());
  EXPECT_FALSE(b.empty());
  EXPECT_NE(a, b);
}

}  // namespace
