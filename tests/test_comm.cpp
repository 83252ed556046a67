// Tests for the SPMD message-passing runtime (MPI stand-in).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/comm.h"

namespace {

using namespace cosmo;
using comm::Comm;
using comm::ReduceOp;
using comm::run_spmd;

class CommRanks : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CommRanks, ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(CommRanks, RankAndSizeAreConsistent) {
  const int P = GetParam();
  std::atomic<int> sum{0};
  run_spmd(P, [&](Comm& c) {
    EXPECT_EQ(c.size(), P);
    sum += c.rank();
  });
  EXPECT_EQ(sum.load(), P * (P - 1) / 2);
}

TEST_P(CommRanks, PingPongPreservesPayload) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  run_spmd(P, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> data{1.5, -2.5, 3.25};
      c.send<double>(1, 42, data);
      auto echo = c.recv<double>(1, 43);
      EXPECT_EQ(echo, data);
    } else if (c.rank() == 1) {
      auto data = c.recv<double>(0, 42);
      c.send<double>(0, 43, data);
    }
  });
}

TEST_P(CommRanks, MessagesAreNonOvertaking) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  run_spmd(P, [&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) c.send_value<int>(1, 7, i);
    } else if (c.rank() == 1) {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(c.recv_value<int>(0, 7), i);
    }
  });
}

TEST_P(CommRanks, TagsSelectMessages) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  run_spmd(P, [&](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 10, 100);
      c.send_value<int>(1, 20, 200);
    } else if (c.rank() == 1) {
      // Receive out of send order — matching is by tag.
      EXPECT_EQ(c.recv_value<int>(0, 20), 200);
      EXPECT_EQ(c.recv_value<int>(0, 10), 100);
    }
  });
}

TEST_P(CommRanks, BarrierCompletesEverywhere) {
  const int P = GetParam();
  std::atomic<int> phase1{0};
  run_spmd(P, [&](Comm& c) {
    ++phase1;
    c.barrier();
    EXPECT_EQ(phase1.load(), P);
  });
}

TEST_P(CommRanks, BcastDeliversRootBuffer) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    std::vector<std::int64_t> v;
    if (c.rank() == 0) v = {5, 6, 7, 8};
    c.bcast(v, 0);
    EXPECT_EQ(v, (std::vector<std::int64_t>{5, 6, 7, 8}));
  });
}

TEST_P(CommRanks, BcastFromNonZeroRoot) {
  const int P = GetParam();
  const int root = P - 1;
  run_spmd(P, [&](Comm& c) {
    std::vector<int> v;
    if (c.rank() == root) v = {root};
    c.bcast(v, root);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], root);
  });
}

TEST_P(CommRanks, AllreduceSumMinMax) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    const double mine = static_cast<double>(c.rank() + 1);
    EXPECT_DOUBLE_EQ(c.allreduce_value(mine, ReduceOp::Sum),
                     static_cast<double>(P * (P + 1)) / 2.0);
    EXPECT_DOUBLE_EQ(c.allreduce_value(mine, ReduceOp::Min), 1.0);
    EXPECT_DOUBLE_EQ(c.allreduce_value(mine, ReduceOp::Max),
                     static_cast<double>(P));
  });
}

TEST_P(CommRanks, AllreduceVectorElementwise) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    std::vector<int> v{c.rank(), 2 * c.rank()};
    auto r = c.allreduce<int>(v, ReduceOp::Sum);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0], P * (P - 1) / 2);
    EXPECT_EQ(r[1], P * (P - 1));
  });
}

TEST_P(CommRanks, GathervConcatenatesInRankOrder) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> mine(static_cast<std::size_t>(c.rank() + 1), c.rank());
    std::vector<std::size_t> counts;
    auto all = c.gatherv<int>(mine, 0, &counts);
    if (c.rank() == 0) {
      std::size_t expected_len = 0;
      for (int r = 0; r < P; ++r) expected_len += static_cast<std::size_t>(r + 1);
      ASSERT_EQ(all.size(), expected_len);
      ASSERT_EQ(counts.size(), static_cast<std::size_t>(P));
      std::size_t pos = 0;
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                  static_cast<std::size_t>(r + 1));
        for (int k = 0; k <= r; ++k) EXPECT_EQ(all[pos++], r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CommRanks, AllgathervVisibleEverywhere) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    std::vector<int> mine{10 * c.rank()};
    std::vector<std::size_t> counts;
    auto all = c.allgatherv<int>(mine, &counts);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 10 * r);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(P));
  });
}

TEST_P(CommRanks, AlltoallvRoutesPersonalizedBuffers) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    // Rank r sends {100*r + d} repeated (d+1) times to each destination d.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d)
      send[static_cast<std::size_t>(d)] =
          std::vector<int>(static_cast<std::size_t>(d + 1), 100 * c.rank() + d);
    auto recv = c.alltoallv(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      const auto& buf = recv[static_cast<std::size_t>(s)];
      ASSERT_EQ(buf.size(), static_cast<std::size_t>(c.rank() + 1));
      for (int v : buf) EXPECT_EQ(v, 100 * s + c.rank());
    }
  });
}

TEST_P(CommRanks, ScanValueComputesPrefixSums) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    const int r = c.rank();
    EXPECT_EQ(c.scan_value(r + 1, ReduceOp::Sum), (r + 1) * (r + 2) / 2);
  });
}

TEST_P(CommRanks, EmptyMessagesAreDelivered) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  run_spmd(P, [&](Comm& c) {
    if (c.rank() == 0) {
      c.send<int>(1, 3, {});
    } else if (c.rank() == 1) {
      EXPECT_TRUE(c.recv<int>(0, 3).empty());
    }
  });
}

TEST(Comm, RankExceptionPropagatesToCaller) {
  EXPECT_THROW(run_spmd(2,
                        [&](Comm& c) {
                          if (c.rank() == 1) COSMO_REQUIRE(false, "boom");
                          // Rank 0 does no communication so it exits cleanly.
                        }),
               Error);
}

// Rank r sends count(r, d) copies of 100*r + d to each destination d, once
// through the batched Comm::alltoallv (every send buffer up front) and once
// through a session, posting block by block from one reused buffer with a
// prefetch after each post (the FFT transposes' pattern). Every block the
// session delivers must equal the batched result for its source.
void expect_session_matches_batched(
    Comm& c, const std::function<std::size_t(int, int)>& count) {
  const int P = c.size();
  std::vector<std::vector<int>> send(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d)
    send[static_cast<std::size_t>(d)].assign(count(c.rank(), d),
                                             100 * c.rank() + d);
  const auto batched = c.alltoallv(send);
  std::vector<std::size_t> recv_counts(static_cast<std::size_t>(P));
  for (int s = 0; s < P; ++s) {
    const auto& want = batched[static_cast<std::size_t>(s)];
    ASSERT_EQ(want.size(), count(s, c.rank())) << "from rank " << s;
    for (int v : want) ASSERT_EQ(v, 100 * s + c.rank()) << "from rank " << s;
    recv_counts[static_cast<std::size_t>(s)] = want.size();
  }

  std::vector<std::uint8_t> seen(static_cast<std::size_t>(P), 0);
  comm::AlltoallvFlatSession<int> session(c, recv_counts);
  std::vector<int> scratch;
  for (int d = 0; d < P; ++d) {
    scratch = send[static_cast<std::size_t>(d)];
    session.post_block(d, std::span<const int>(scratch));
    session.prefetch();
  }
  session.finish([&](int src, std::span<const int> block) {
    auto& slot = seen[static_cast<std::size_t>(src)];
    ASSERT_FALSE(slot) << "block from rank " << src << " twice";
    slot = 1;
    const auto& want = batched[static_cast<std::size_t>(src)];
    ASSERT_EQ(block.size(), want.size()) << "from rank " << src;
    for (std::size_t i = 0; i < block.size(); ++i)
      EXPECT_EQ(block[i], want[i]) << "from rank " << src << " index " << i;
  });
  for (int s = 0; s < P; ++s)
    EXPECT_TRUE(seen[static_cast<std::size_t>(s)]) << "missing rank " << s;
}

TEST_P(CommRanks, AlltoallvFlatSessionMatchesBatched) {
  run_spmd(GetParam(), [&](Comm& c) {
    // Same traffic as AlltoallvRoutesPersonalizedBuffers: d+1 elements to d.
    expect_session_matches_batched(
        c, [](int, int d) { return static_cast<std::size_t>(d + 1); });
  });
}

TEST_P(CommRanks, AlltoallvFlatHandlesZeroCounts) {
  run_spmd(GetParam(), [&](Comm& c) {
    // Only even ranks send, and only to odd ranks (self blocks are zero for
    // everyone): empty blocks in both directions.
    expect_session_matches_batched(c, [](int s, int d) {
      return std::size_t{s % 2 == 0 && d % 2 == 1 ? 2u : 0u};
    });
  });
}

TEST_P(CommRanks, AlltoallvFlatSessionOutOfOrderArrival) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  // Adversarial staggering: rank r delays its posts by (P-1-r) ms, so blocks
  // arrive in roughly reverse rank order and early-posting ranks sit in
  // finish() while late blocks trickle in. Content must be unaffected.
  run_spmd(P, [&](Comm& c) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(2 * (P - 1 - c.rank())));
    const std::vector<std::size_t> counts(static_cast<std::size_t>(P), 3);
    comm::AlltoallvFlatSession<double> session(c, counts);
    std::vector<double> block(3);
    for (int step = 0; step < P; ++step) {
      const int d = (c.rank() + step) % P;
      for (int i = 0; i < 3; ++i) block[static_cast<std::size_t>(i)] =
          1000.0 * c.rank() + 10.0 * d + i;
      session.post_block(d, std::span<const double>(block));
    }
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(P), 0);
    session.finish([&](int src, std::span<const double> b) {
      ASSERT_EQ(b.size(), 3u);
      seen[static_cast<std::size_t>(src)] = 1;
      for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(b[static_cast<std::size_t>(i)],
                         1000.0 * src + 10.0 * c.rank() + i);
    });
    for (int s = 0; s < P; ++s)
      EXPECT_TRUE(seen[static_cast<std::size_t>(s)]) << "missing rank " << s;
  });
}

TEST_P(CommRanks, BackToBackSessionsDoNotInterfere) {
  const int P = GetParam();
  // Two sessions opened in program order on every rank: the per-source FIFO
  // must keep round-2 blocks out of round-1 sessions even when a fast rank
  // posts round 2 before a slow rank drains round 1.
  run_spmd(P, [&](Comm& c) {
    for (int round = 0; round < 2; ++round) {
      const std::vector<std::size_t> counts(static_cast<std::size_t>(P), 1);
      comm::AlltoallvFlatSession<int> session(c, counts);
      std::vector<int> v(1);
      for (int d = 0; d < P; ++d) {
        v[0] = 1000 * round + 10 * c.rank() + d;
        session.post_block(d, std::span<const int>(v));
      }
      session.finish([&](int src, std::span<const int> b) {
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(b[0], 1000 * round + 10 * src + c.rank());
      });
    }
  });
}

TEST(Comm, SessionRejectsDoublePostAndEarlyFinish) {
  run_spmd(2, [&](Comm& c) {
    const std::vector<std::size_t> counts(2, 1);
    comm::AlltoallvFlatSession<int> session(c, counts);
    const int v = c.rank();
    auto sink = [](int, std::span<const int>) {};
    if (c.rank() == 0) {
      session.post_block(1, std::span<const int>(&v, 1));
      EXPECT_THROW(session.post_block(1, std::span<const int>(&v, 1)), Error);
      EXPECT_THROW(session.finish(sink), Error);  // self block not posted
      const int two[2] = {v, v};
      EXPECT_THROW(session.post_block(0, std::span<const int>(two)),
                   Error);  // self block larger than its recv count
      session.post_block(0, std::span<const int>(&v, 1));
    } else {
      session.post_block(0, std::span<const int>(&v, 1));
      session.post_block(1, std::span<const int>(&v, 1));
    }
    session.finish(sink);
  });
}

TEST(Comm, UserTagsMustBeNonNegative) {
  run_spmd(1, [&](Comm& c) {
    EXPECT_THROW(c.send_value<int>(0, -1, 0), Error);
  });
}

TEST(Comm, ConsecutiveCollectivesDoNotInterfere) {
  run_spmd(4, [&](Comm& c) {
    for (int round = 0; round < 20; ++round) {
      const int total = c.allreduce_value(1, ReduceOp::Sum);
      EXPECT_EQ(total, 4);
      auto ids = c.allgather_value(c.rank());
      ASSERT_EQ(ids.size(), 4u);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(ids[static_cast<std::size_t>(r)], r);
    }
  });
}

}  // namespace
