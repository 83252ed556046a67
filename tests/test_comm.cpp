// Tests for the SPMD message-passing runtime (MPI stand-in).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <span>
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

// The next four cases keep the names they had when they drove the flat
// all-to-all session the FFT transposes ran on. The session is gone; they
// check the same traffic on exchange() and alltoallv().

// The transposes' pattern: rank r sends d+1 copies of 1000*r + 10*d + i to
// each destination d, every pack refilling one buffer. The self block
// reaches unpack as pack returned it, every peer block is unpacked once,
// in source order, after the last pack, and each block equals what the
// batched alltoallv (every send buffer up front) returns from its source.
TEST_P(CommRanks, AlltoallvFlatSessionMatchesBatched) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    std::vector<std::vector<double>> send(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d)
      for (int i = 0; i <= d; ++i)
        send[static_cast<std::size_t>(d)].push_back(1000.0 * c.rank() +
                                                    10.0 * d + i);
    const auto batched = c.alltoallv(send);
    for (int s = 0; s < P; ++s) {
      const auto& want = batched[static_cast<std::size_t>(s)];
      ASSERT_EQ(want.size(), static_cast<std::size_t>(c.rank() + 1))
          << "from rank " << s;
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(want[i],
                  1000.0 * s + 10.0 * c.rank() + static_cast<double>(i))
            << "from rank " << s;
    }

    std::vector<double> scratch;
    int packs = 0;
    std::vector<int> order;
    c.exchange<double>(
        [&](int d) {
          ++packs;
          scratch = send[static_cast<std::size_t>(d)];
          return std::span<const double>(scratch);
        },
        [&](int src, std::span<const double> block) {
          EXPECT_EQ(packs, P) << "unpack of rank " << src << " before a pack";
          if (src == c.rank()) {
            EXPECT_EQ(block.data(), scratch.data());
          }
          order.push_back(src);
          const auto& want = batched[static_cast<std::size_t>(src)];
          ASSERT_EQ(block.size(), want.size()) << "from rank " << src;
          for (std::size_t i = 0; i < block.size(); ++i)
            EXPECT_EQ(block[i], want[i])
                << "from rank " << src << " index " << i;
        });
    std::vector<int> want{c.rank()};
    for (int s = 0; s < P; ++s)
      if (s != c.rank()) want.push_back(s);
    EXPECT_EQ(order, want);
  });
}

TEST_P(CommRanks, AlltoallvFlatHandlesZeroCounts) {
  const int P = GetParam();
  run_spmd(P, [&](Comm& c) {
    // Only even ranks send, and only to odd ranks (self blocks are empty
    // for everyone): empty blocks in both directions.
    auto count = [](int s, int d) {
      return std::size_t{s % 2 == 0 && d % 2 == 1 ? 2u : 0u};
    };
    std::vector<std::vector<int>> send(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d)
      send[static_cast<std::size_t>(d)].assign(count(c.rank(), d),
                                               100 * c.rank() + d);
    const auto recv = c.alltoallv(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      const auto& buf = recv[static_cast<std::size_t>(s)];
      ASSERT_EQ(buf.size(), count(s, c.rank())) << "from rank " << s;
      for (int v : buf) EXPECT_EQ(v, 100 * s + c.rank()) << "from rank " << s;
    }
  });
}

TEST_P(CommRanks, AlltoallvFlatSessionOutOfOrderArrival) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  // Adversarial staggering: rank r enters the exchange (P-1-r)·2 ms late,
  // so blocks arrive in roughly reverse rank order and early ranks wait
  // for late blocks in source order. Content must be unaffected.
  run_spmd(P, [&](Comm& c) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(2 * (P - 1 - c.rank())));
    std::vector<double> block(3);
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(P), 0);
    c.exchange<double>(
        [&](int d) {
          for (std::size_t i = 0; i < 3; ++i)
            block[i] = 1000.0 * c.rank() + 10.0 * d + static_cast<double>(i);
          return std::span<const double>(block);
        },
        [&](int src, std::span<const double> b) {
          auto& slot = seen[static_cast<std::size_t>(src)];
          EXPECT_FALSE(slot) << "block from rank " << src << " twice";
          slot = 1;
          ASSERT_EQ(b.size(), 3u) << "from rank " << src;
          for (std::size_t i = 0; i < 3; ++i)
            EXPECT_EQ(b[i],
                      1000.0 * src + 10.0 * c.rank() + static_cast<double>(i))
                << "from rank " << src;
        });
    for (int s = 0; s < P; ++s)
      EXPECT_TRUE(seen[static_cast<std::size_t>(s)]) << "missing rank " << s;
  });
}

TEST_P(CommRanks, BackToBackSessionsDoNotInterfere) {
  const int P = GetParam();
  // Two exchanges in program order, the forward/inverse transpose pattern:
  // ranks enter the first in reverse rank order and the second in rank
  // order, so a fast rank sends round 1 while a slow one still drains
  // round 0. The per-source FIFO must keep each round's blocks apart.
  run_spmd(P, [&](Comm& c) {
    for (int round = 0; round < 2; ++round) {
      const int late = round == 0 ? P - 1 - c.rank() : c.rank();
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * late));
      std::vector<std::vector<int>> send(static_cast<std::size_t>(P));
      for (int d = 0; d < P; ++d)
        send[static_cast<std::size_t>(d)] = {1000 * round + 10 * c.rank() + d};
      const auto recv = c.alltoallv(send);
      for (int s = 0; s < P; ++s) {
        const auto& b = recv[static_cast<std::size_t>(s)];
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(b[0], 1000 * round + 10 * s + c.rank());
      }
    }
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
