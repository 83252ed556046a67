// Backend bit-identity tests for the parallel halo-analysis chain: FOF
// linking blocks and its two leaf-pair bodies (AVX2 lanes against the
// scalar loop), the parallel k-d tree build, the per-halo property
// fan-out in the core pipeline, the property kernels themselves, the
// MBP center finder's AVX2 tile kernels (target lists, and the symmetric
// all-members kernel) against the scalar sum, and the certified A* center
// finder against brute force.
// Everything here asserts EXACT equality between Serial and ThreadPool —
// the dpp contract — not tolerance-based agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/comm.h"
#include "core/algorithms.h"
#include "core/cosmotools.h"
#include "halo/center_finder.h"
#include "halo/fof.h"
#include "halo/kdtree.h"
#include "halo/so_mass.h"
#include "sim/cosmology.h"
#include "sim/synthetic.h"
#include "stats/catalog.h"
#include "stats/concentration.h"
#include "stats/halo_shape.h"
#include "stats/merger_tree.h"
#include "pool_load.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace cosmo;
using namespace cosmo::halo;
using sim::ParticleSet;

ParticleSet random_particles(std::size_t n, double box, std::uint64_t seed,
                             std::int64_t tag0 = 0) {
  Rng rng(seed);
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)), 0, 0, 0,
                tag0 + static_cast<std::int64_t>(i));
  return p;
}

/// Blobby universe with background noise — enough structure for FOF to
/// find real halos, enough noise to exercise pruning.
ParticleSet blob_universe(double box, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet p;
  std::int64_t tag = 0;
  for (int h = 0; h < 15; ++h) {
    const double cx = rng.uniform(1.0, box - 1.0);
    const double cy = rng.uniform(1.0, box - 1.0);
    const double cz = rng.uniform(1.0, box - 1.0);
    const auto n = static_cast<std::size_t>(rng.uniform(80, 500));
    for (std::size_t i = 0; i < n; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.2)),
                  static_cast<float>(rng.normal(cy, 0.2)),
                  static_cast<float>(rng.normal(cz, 0.2)), 0, 0, 0, tag++);
  }
  for (int i = 0; i < 2000; ++i)
    p.push_back(static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)),
                static_cast<float>(rng.uniform(0, box)), 0, 0, 0, tag++);
  return p;
}

/// Everything that defines a FOF catalog, for exact comparison.
using HaloTuple =
    std::tuple<std::int64_t, std::vector<std::uint32_t>, std::uint32_t>;

std::vector<HaloTuple> to_tuples(const std::vector<FofHalo>& halos) {
  std::vector<HaloTuple> out;
  out.reserve(halos.size());
  for (const auto& h : halos) out.emplace_back(h.id, h.members, h.min_tag_member);
  return out;
}

/// Halo id → member set: the partition, whatever the member order.
std::map<std::int64_t, std::set<std::uint32_t>> member_sets(
    const std::vector<FofHalo>& halos) {
  std::map<std::int64_t, std::set<std::uint32_t>> m;
  for (const auto& h : halos)
    m[h.id] = std::set<std::uint32_t>(h.members.begin(), h.members.end());
  return m;
}

// ------------------------------------------------------------ parallel FOF --

TEST(ParallelFof, BitIdenticalAcrossGrainsAndBackends) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 101);
  FofConfig serial_cfg;
  serial_cfg.linking_length = 0.3;
  serial_cfg.min_size = 40;
  const auto reference =
      to_tuples(fof_find(p, Periodicity::all(box), serial_cfg));
  ASSERT_GT(reference.size(), 5u);

  for (const std::size_t grain : {std::size_t{0}, std::size_t{64},
                                  std::size_t{1024}}) {
    FofConfig cfg = serial_cfg;
    cfg.backend = dpp::Backend::ThreadPool;
    cfg.grain = grain;
    EXPECT_EQ(to_tuples(fof_find(p, Periodicity::all(box), cfg)), reference)
        << "grain " << grain;
  }
  // Serial with an explicit grain must be unchanged too (blocks don't
  // affect exact components).
  FofConfig cfg = serial_cfg;
  cfg.grain = 64;
  EXPECT_EQ(to_tuples(fof_find(p, Periodicity::all(box), cfg)), reference);
}

TEST(ParallelFof, MatchesBruteForce) {
  const double box = 16.0;
  Rng rng(7);
  ParticleSet p;
  std::int64_t tag = 0;
  for (int h = 0; h < 6; ++h) {
    const double cx = rng.uniform(1.0, 15.0), cy = rng.uniform(1.0, 15.0),
                 cz = rng.uniform(1.0, 15.0);
    for (int i = 0; i < 120; ++i)
      p.push_back(static_cast<float>(rng.normal(cx, 0.25)),
                  static_cast<float>(rng.normal(cy, 0.25)),
                  static_cast<float>(rng.normal(cz, 0.25)), 0, 0, 0, tag++);
  }
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  cfg.backend = dpp::Backend::ThreadPool;
  cfg.grain = 32;
  const auto tree_halos = fof_find(p, Periodicity::all(box), cfg);
  const auto brute_halos = fof_brute_force(p, Periodicity::all(box), cfg);
  ASSERT_EQ(tree_halos.size(), brute_halos.size());
  EXPECT_EQ(member_sets(tree_halos), member_sets(brute_halos));
}

// ------------------------------------------------- concurrent union-find --

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Edges over [0, n): chains with gaps (deep trees, so the path-halving
/// CASes of concurrent finds collide), random pairs, self-loops, and every
/// edge a second time reversed, all shuffled.
Edges random_edges(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  Edges e;
  for (std::uint32_t i = 0; i + 1 < n / 2; ++i)
    if (rng.below(8) != 0) e.emplace_back(i + 1, i);
  for (std::uint32_t k = 0; k < n / 3; ++k)
    e.emplace_back(static_cast<std::uint32_t>(rng.below(n)),
                   static_cast<std::uint32_t>(rng.below(n)));
  for (int k = 0; k < 16; ++k) {
    const auto v = static_cast<std::uint32_t>(rng.below(n));
    e.emplace_back(v, v);
  }
  const std::size_t m = e.size();
  for (std::size_t k = 0; k < m; ++k) e.emplace_back(e[k].second, e[k].first);
  for (std::size_t i = e.size() - 1; i > 0; --i)
    std::swap(e[i], e[rng.below(i + 1)]);
  return e;
}

/// The union-find's partition is the edges' BFS components, and every find
/// returns its component's smallest element.
void expect_bfs_components(ConcurrentUnionFind& sets, std::uint32_t n,
                           const Edges& edges) {
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  // A BFS from each unlabelled element in ascending order starts at its
  // component's smallest element.
  constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> smallest(n, kNone);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (smallest[s] != kNone) continue;
    smallest[s] = s;
    queue.assign(1, s);
    for (std::size_t q = 0; q < queue.size(); ++q)
      for (const std::uint32_t w : adj[queue[q]])
        if (smallest[w] == kNone) {
          smallest[w] = s;
          queue.push_back(w);
        }
  }
  for (std::uint32_t v = 0; v < n; ++v)
    ASSERT_EQ(sets.find(v), smallest[v]) << "element " << v;
}

TEST(ConcurrentUnionFind, PoolChunksMatchBfsComponents) {
  const std::uint32_t n = 20000;
  for (const std::uint64_t seed : {1u, 2u, 3u})
    for (const auto backend :
         {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
      const Edges edges = random_edges(n, seed);
      ConcurrentUnionFind sets(n);
      dpp::for_each_index(
          backend, edges.size(),
          [&](std::size_t k) {
            sets.unite(edges[k].first, edges[k].second);
            // A find elsewhere halves paths while other chunks unite.
            sets.find(edges[(k * 7919) % edges.size()].second);
          },
          /*grain=*/64);
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   dpp::to_string(backend));
      expect_bfs_components(sets, n, edges);
    }
}

TEST(ConcurrentUnionFind, FourSpmdRanksUniteAtOnce) {
  // Four rank threads unite the whole edge list into one union-find at
  // once, each from its own offset and through its own pool dispatch, so
  // every edge is united four times and the ranks race on the same roots.
  const std::uint32_t n = 20000;
  const Edges edges = random_edges(n, 4);
  ConcurrentUnionFind sets(n);
  comm::run_spmd(4, [&](comm::Comm& c) {
    const std::size_t m = edges.size();
    const std::size_t offset = m / 4 * static_cast<std::size_t>(c.rank());
    dpp::for_each_index(
        dpp::Backend::ThreadPool, m,
        [&](std::size_t k) {
          const auto& [a, b] = edges[(k + offset) % m];
          sets.unite(a, b);
        },
        /*grain=*/64);
  });
  expect_bfs_components(sets, n, edges);
}

// ------------------------------------------- exactness of the leaf linker --
//
// Each input is built so that one way of getting the per-leaf walk wrong
// changes the partition: a pair at exactly b (the link is `<=`), pairs
// whose leaves lie on either side of a periodic seam, sizes around the leaf
// size, and subtrees that neighbouring leaves unite outright. min_size 1
// keeps every component, singletons included, so the whole partition is
// compared with the all-pairs reference.

void expect_exact_partition(const ParticleSet& p, const Periodicity& per,
                            double linking_length) {
  FofConfig cfg;
  cfg.linking_length = linking_length;
  cfg.min_size = 1;
  const auto expected = member_sets(fof_brute_force(p, per, cfg));
  EXPECT_EQ(member_sets(fof_find(p, per, cfg)), expected) << "Serial";
  cfg.backend = dpp::Backend::ThreadPool;
  for (const std::size_t grain :
       {std::size_t{0}, std::size_t{64}, std::size_t{1024}}) {
    cfg.grain = grain;
    EXPECT_EQ(member_sets(fof_find(p, per, cfg)), expected)
        << "ThreadPool grain " << grain;
  }
}

void add_particle(ParticleSet& p, double x, double y, double z) {
  p.push_back(static_cast<float>(x), static_cast<float>(y),
              static_cast<float>(z), 0, 0, 0,
              static_cast<std::int64_t>(p.size()));
}

/// `count` particles uniform in the cube [x, x+side) × [y, y+side) ×
/// [z, z+side).
void add_cube(ParticleSet& p, Rng& rng, int count, double x, double y,
              double z, double side) {
  for (int k = 0; k < count; ++k)
    add_particle(p, rng.uniform(x, x + side), rng.uniform(y, y + side),
                 rng.uniform(z, z + side));
}

TEST(ExactFof, PairAtExactlyTheLinkingLengthLinks) {
  // Dyadic offsets, so every difference, square and sum is exact: each
  // pair's dist² equals b² = (5/8)² in double. Particles 2b away widen
  // the leaf boxes, so the pair test, not a box bound, must accept
  // dist² == b².
  const double b = 0.625;
  ParticleSet p;
  const double offsets[][3] = {
      {0.625, 0, 0}, {0, 0.625, 0}, {0, 0, 0.625}, {0.375, 0.5, 0}};
  for (int k = 0; k < 4; ++k) {
    const double x = 1.0 + 3.0 * k, y = 2.0, z = 2.0;
    add_particle(p, x, y, z);
    add_particle(p, x + offsets[k][0], y + offsets[k][1], z + offsets[k][2]);
    add_particle(p, x - 1.25, y, z);
    add_particle(p, x, y + 1.25, z + 1.25);
  }
  // (2, 3, 6)/8 has length 7/8.
  add_particle(p, 20.0, 2.0, 2.0);
  add_particle(p, 20.25, 2.375, 2.75);
  add_particle(p, 20.0, 0.25, 2.0);
  add_particle(p, 21.75, 2.0, 2.0);
  expect_exact_partition(p, Periodicity::none(), b);
  expect_exact_partition(p, Periodicity::none(), 0.875);
  expect_exact_partition(p, Periodicity::all(32.0), b);
}

TEST(ExactFof, CoincidentParticles) {
  ParticleSet p;
  auto add_copies = [&](int count, double x, double y, double z) {
    for (int k = 0; k < count; ++k) add_particle(p, x, y, z);
  };
  add_copies(12, 3.0, 3.0, 3.0);   // zero-width leaves
  add_copies(5, 3.25, 3.0, 3.0);   // within b of them
  add_copies(9, 5.0, 5.0, 5.0);    // apart
  add_copies(3, 0.0, 0.0, 0.0);    // on the seam
  add_copies(3, 7.875, 0.0, 0.0);  // its periodic image is within b
  Rng rng(31);
  add_cube(p, rng, 40, 0, 0, 0, 8);
  expect_exact_partition(p, Periodicity::none(), 0.25);
  expect_exact_partition(p, Periodicity::all(8.0), 0.25);
}

/// Pairs across the x, y and z faces of an 8-box, some at exactly
/// b = 1/4 through the fold (0.125 ↔ 7.875), corner groups, and uniform
/// filler.
ParticleSet seam_set() {
  ParticleSet p;
  Rng rng(32);
  for (int k = 0; k < 6; ++k) {
    const double u = rng.uniform(1, 7), v = rng.uniform(1, 7);
    add_particle(p, 0.125, u, v);
    add_particle(p, 7.875, u, v);
    add_particle(p, u, 0.05, v);
    add_particle(p, u, 7.9, v);
    add_particle(p, u, v, 0.125);
    add_particle(p, u, v, 7.875);
    add_cube(p, rng, 1, 0, 7.8, 0, 0.2);
    add_cube(p, rng, 1, 7.8, 0, 7.8, 0.2);
  }
  add_cube(p, rng, 300, 0, 0, 0, 8.0);
  return p;
}

/// A dense clump in an 8-box: a cube of side 0.1 (diameter < b = 0.2)
/// holds 400 particles, so the leaves around it unite whole subtrees of it
/// outright. A second cube 0.3 away and sparser particles around the first
/// give pairs on both sides of b.
ParticleSet clump_set() {
  ParticleSet p;
  Rng rng(50);
  add_cube(p, rng, 400, 4.0, 4.0, 4.0, 0.1);
  add_cube(p, rng, 200, 4.4, 4.0, 4.0, 0.1);
  add_cube(p, rng, 300, 3.75, 3.75, 3.75, 0.6);
  add_cube(p, rng, 300, 0, 0, 0, 8);
  return p;
}

TEST(ExactFof, PairsStraddlingPeriodicSeams) {
  const ParticleSet p = seam_set();
  expect_exact_partition(p, Periodicity::xy(8.0), 0.25);
  expect_exact_partition(p, Periodicity::all(8.0), 0.25);
}

TEST(ExactFof, SizesAroundTheLeafSize) {
  // One leaf, its last lane group full or padded, then the first splits
  // of 16-point leaves: 8 + 9, 15 + 16, 16 + 16 and 16 + 17.
  for (const int n : {0, 1, 2, 8, 9, 15, 16, 17, 31, 32, 33}) {
    ParticleSet p;
    Rng rng(40 + n);
    add_cube(p, rng, n, 0, 0, 0, 2);
    SCOPED_TRACE(n);
    expect_exact_partition(p, Periodicity::none(), 0.6);
    expect_exact_partition(p, Periodicity::all(2.0), 0.6);
  }
}

TEST(ExactFof, WholeNodesUnitedWithWholeLeaves) {
  const ParticleSet p = clump_set();
  expect_exact_partition(p, Periodicity::none(), 0.2);
  expect_exact_partition(p, Periodicity::all(8.0), 0.2);

  // Two 64-particle trees (leaf size 16) whose one outright union is the
  // only path between parts of a component. Sixteen far particles at
  // x = −5 make x the root's split, so the leaves are, in preorder, the far
  // sixteen, L at x = 0, then N's two leaves at x = 0.3. With b = 1, all of
  // N is within b of all of L:
  // - L is one point; N's leaves sit at y = ∓0.6, 1.2 apart, so only the
  //   union of L with every member of N joins them;
  // - L's halves sit at y = ∓0.55, 1.1 apart, and N is one point, so only
  //   the union of every member of L with N joins them.
  static_assert(halo::detail::kFofLeafSize == 16,
                "the trees below are built for 16-point leaves");
  for (const double spread_l : {0.0, 0.55}) {
    ParticleSet q;
    for (int k = 0; k < 16; ++k) add_particle(q, -5.0, 0.0, 0.0);
    for (int k = 0; k < 16; ++k)
      add_particle(q, 0.0, k < 8 ? -spread_l : spread_l, 0.0);
    const double spread_n = spread_l > 0.0 ? 0.0 : 0.6;
    for (int k = 0; k < 32; ++k)
      add_particle(q, 0.3, k < 16 ? -spread_n : spread_n, 0.0);
    SCOPED_TRACE(spread_l);
    expect_exact_partition(q, Periodicity::none(), 1.0);
  }
}

/// Links every leaf pair (L, N), N at or after L, of one FOF tree over `p`
/// with both leaf-pair bodies, each into its own union-find, with no walk
/// to prune or unite whole nodes. Both partitions must be the all-pairs
/// reference's.
void expect_bodies_agree(const ParticleSet& p, const Periodicity& per,
                         double linking_length) {
#ifdef COSMO_HALO_AVX2
  const KdTree tree = KdTree::over_all(p, per, halo::detail::kFofLeafSize);
  std::vector<std::int32_t> leaves;
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(tree.node_count());
       ++id)
    if (tree.node(id).leaf()) leaves.push_back(id);
  const double ll2 = linking_length * linking_length;
  ConcurrentUnionFind scalar(p.size()), lanes(p.size());
  halo::detail::LeafLanes lane_leaf;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const KdTree::Node& L = tree.node(leaves[i]);
    lane_leaf.load(tree, L);
    for (std::size_t j = i; j < leaves.size(); ++j) {
      const KdTree::Node& N = tree.node(leaves[j]);
      halo::detail::link_leaf_pair(tree, ll2, L, N, scalar);
      halo::detail::link_leaf_pair_avx2(tree, ll2, lane_leaf, L, N, lanes);
    }
  }
  auto partition = [&](ConcurrentUnionFind& sets) {
    std::vector<std::uint32_t> root(p.size());
    const auto idx = tree.index();
    for (std::uint32_t k = 0; k < p.size(); ++k) root[idx[k]] = sets.find(k);
    return member_sets(halo::detail::group_halos(p, root, 1));
  };
  FofConfig cfg;
  cfg.linking_length = linking_length;
  cfg.min_size = 1;
  const auto expected = member_sets(fof_brute_force(p, per, cfg));
  EXPECT_EQ(partition(scalar), expected) << "scalar body";
  EXPECT_EQ(partition(lanes), expected) << "lane body";
#else
  (void)p, (void)per, (void)linking_length;
#endif
}

TEST(ExactFof, LaneBodyMatchesScalarBodyOnEveryLeafPair) {
  if (!halo::detail::has_avx2())
    GTEST_SKIP() << "no AVX2 on this CPU (or not an x86-64 build): FOF runs "
                    "only the scalar leaf-pair body here";
  const ParticleSet seams = seam_set();
  expect_bodies_agree(seams, Periodicity::xy(8.0), 0.25);
  expect_bodies_agree(seams, Periodicity::all(8.0), 0.25);
  expect_bodies_agree(clump_set(), Periodicity::all(8.0), 0.2);
}

TEST(ParallelFof, MinTagMemberIsArgMin) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 55);
  // Scramble tags so the min-tag member isn't trivially the first member.
  Rng rng(56);
  for (std::size_t i = 0; i < p.size(); ++i)
    std::swap(p.tag[i],
              p.tag[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                             static_cast<double>(p.size() - 1))]);
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    FofConfig cfg;
    cfg.linking_length = 0.3;
    cfg.min_size = 40;
    cfg.backend = backend;
    const auto halos = fof_find(p, Periodicity::all(box), cfg);
    ASSERT_GT(halos.size(), 3u);
    for (const auto& h : halos) {
      EXPECT_EQ(p.tag[h.min_tag_member], h.id);
      std::int64_t min_tag = p.tag[h.members.front()];
      for (const auto m : h.members) min_tag = std::min(min_tag, p.tag[m]);
      EXPECT_EQ(min_tag, h.id);
      EXPECT_TRUE(std::find(h.members.begin(), h.members.end(),
                            h.min_tag_member) != h.members.end());
    }
  }
}

class ParallelDistFof : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ParallelDistFof, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(ParallelDistFof, BitIdenticalToSerialBackend) {
  const int P = GetParam();
  sim::SyntheticConfig scfg;
  scfg.box = 32.0;
  scfg.halo_count = 20;
  scfg.min_particles = 50;
  scfg.max_particles = 600;
  scfg.background_particles = 600;
  scfg.subclump_fraction = 0.0;
  scfg.seed = 77;

  auto run = [&](dpp::Backend backend, std::size_t grain) {
    std::vector<std::vector<HaloTuple>> per_rank(
        static_cast<std::size_t>(P));
    comm::run_spmd(P, [&](comm::Comm& c) {
      sim::Cosmology cosmo;
      auto u = sim::generate_synthetic(c, cosmo, scfg);
      sim::SlabDecomposition decomp(P, scfg.box);
      FofConfig cfg;
      cfg.linking_length = 0.35;
      cfg.min_size = 40;
      cfg.backend = backend;
      cfg.grain = grain;
      auto result = fof_distributed(c, decomp, u.local, cfg, 3.0);
      per_rank[static_cast<std::size_t>(c.rank())] = to_tuples(result.halos);
    });
    return per_rank;
  };

  const auto reference = run(dpp::Backend::Serial, 0);
  std::size_t total = 0;
  for (const auto& r : reference) total += r.size();
  ASSERT_GT(total, 5u);
  EXPECT_EQ(run(dpp::Backend::ThreadPool, 0), reference);
  EXPECT_EQ(run(dpp::Backend::ThreadPool, 128), reference);
}

// -------------------------------------------------------- parallel k-d tree --

TEST(ParallelKdTree, LayoutBackendInvariant) {
  const double box = 32.0;
  // Above kParallelBuildCutoff so several levels really build in parallel.
  ParticleSet p = random_particles(20000, box, 5);
  ASSERT_GT(p.size(), KdTree::kParallelBuildCutoff);
  const KdTree a =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::Serial);
  const KdTree b =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::ThreadPool);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.root(), b.root());
  const auto ia = a.index(), ib = b.index();
  ASSERT_EQ(ia.size(), ib.size());
  EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
  for (std::size_t id = 0; id < a.node_count(); ++id) {
    const auto& na = a.node(static_cast<std::int32_t>(id));
    const auto& nb = b.node(static_cast<std::int32_t>(id));
    ASSERT_EQ(na.begin, nb.begin) << "node " << id;
    ASSERT_EQ(na.end, nb.end) << "node " << id;
    ASSERT_EQ(na.left, nb.left) << "node " << id;
    ASSERT_EQ(na.right, nb.right) << "node " << id;
    for (int d = 0; d < 3; ++d) {
      ASSERT_EQ(na.lo[d], nb.lo[d]) << "node " << id;
      ASSERT_EQ(na.hi[d], nb.hi[d]) << "node " << id;
    }
  }
}

TEST(ParallelKdTree, QueriesMatchSerialTree) {
  const double box = 16.0;
  ParticleSet p = random_particles(6000, box, 9);
  const KdTree serial =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::Serial);
  const KdTree pooled =
      KdTree::over_all(p, Periodicity::all(box), 8, dpp::Backend::ThreadPool);
  Rng rng(10);
  for (int q = 0; q < 25; ++q) {
    const double qx = rng.uniform(0, box), qy = rng.uniform(0, box),
                 qz = rng.uniform(0, box);
    const double r = rng.uniform(0.3, 2.5);
    std::set<std::uint32_t> sa, sb;
    serial.for_each_in_range(qx, qy, qz, r,
                             [&](std::uint32_t i) { sa.insert(i); });
    pooled.for_each_in_range(qx, qy, qz, r,
                             [&](std::uint32_t i) { sb.insert(i); });
    EXPECT_EQ(sa, sb) << "query " << q;
    EXPECT_EQ(serial.k_nearest(qx, qy, qz, 12), pooled.k_nearest(qx, qy, qz, 12));
  }
}

TEST(ParallelKdTree, PointsAreTheIndexedParticles) {
  const double box = 8.0;
  const ParticleSet p = random_particles(5000, box, 74);
  std::vector<std::uint32_t> subset;
  for (std::uint32_t i = 0; i < p.size(); i += 2) subset.push_back(i);
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    const KdTree all =
        KdTree::over_all(p, Periodicity::all(box), 8, backend);
    const KdTree some(p, subset, Periodicity::all(box), 8, backend);
    for (const KdTree* t : {&all, &some}) {
      const auto idx = t->index();
      const auto pts = t->points();
      ASSERT_EQ(pts.size(), idx.size());
      for (std::size_t k = 0; k < pts.size(); ++k) {
        ASSERT_EQ(pts[k].id, idx[k]) << "position " << k;
        ASSERT_EQ(pts[k].c[0], p.x[idx[k]]) << "position " << k;
        ASSERT_EQ(pts[k].c[1], p.y[idx[k]]) << "position " << k;
        ASSERT_EQ(pts[k].c[2], p.z[idx[k]]) << "position " << k;
      }
    }
    // Caller-made points with ids of the caller's choosing: the same
    // layout, the caller's ids in index().
    std::vector<KdTree::Point> made(p.size());
    for (std::uint32_t i = 0; i < p.size(); ++i)
      made[i] = {{p.x[i], p.y[i], p.z[i]}, 3 * i + 1};
    const KdTree mine(std::move(made), Periodicity::all(box), 8, backend);
    ASSERT_EQ(mine.node_count(), all.node_count());
    for (std::size_t k = 0; k < p.size(); ++k)
      ASSERT_EQ(mine.index()[k], 3 * all.index()[k] + 1) << "position " << k;
  }
}

/// CRC of a tree's whole layout: index(), then every node's range,
/// children and box, field by field.
std::uint32_t layout_crc(const KdTree& t) {
  const auto idx = t.index();
  std::uint32_t crc = crc32(idx.data(), idx.size() * sizeof(idx[0]));
  for (std::size_t id = 0; id < t.node_count(); ++id) {
    const auto& n = t.node(static_cast<std::int32_t>(id));
    crc = crc32(&n.begin, sizeof(n.begin), crc);
    crc = crc32(&n.end, sizeof(n.end), crc);
    crc = crc32(&n.left, sizeof(n.left), crc);
    crc = crc32(&n.right, sizeof(n.right), crc);
    crc = crc32(n.lo, sizeof(n.lo), crc);
    crc = crc32(n.hi, sizeof(n.hi), crc);
  }
  return crc;
}

/// Trees whose every median split meets exact ties: coordinates on a
/// coarse lattice (many points share each split coordinate), coincident
/// copies (zero-width leaves), and a permuted subset of a uniform cube.
/// Each is above kParallelBuildCutoff, so the pool builds several levels.
std::vector<KdTree> layout_trees(std::size_t leaf_size, dpp::Backend backend) {
  constexpr double box = 4.0;
  std::vector<KdTree> out;
  Rng lattice_rng(70);
  ParticleSet lattice;
  for (int i = 0; i < 6000; ++i)
    lattice.push_back(0.25f * static_cast<float>(lattice_rng.below(16)),
                      0.25f * static_cast<float>(lattice_rng.below(16)),
                      0.25f * static_cast<float>(lattice_rng.below(4)), 0, 0,
                      0, i);
  out.push_back(
      KdTree::over_all(lattice, Periodicity::all(box), leaf_size, backend));
  const ParticleSet base = random_particles(1500, box, 71);
  ParticleSet copies;
  for (std::size_t i = 0; i < base.size(); ++i)
    for (std::size_t c = 0; c < 1 + i % 5; ++c)
      copies.push_back(base.x[i], base.y[i], base.z[i], 0, 0, 0,
                       static_cast<std::int64_t>(copies.size()));
  out.push_back(
      KdTree::over_all(copies, Periodicity::none(), leaf_size, backend));
  const ParticleSet cube = random_particles(9000, box, 72);
  std::vector<std::uint32_t> subset;
  for (std::uint32_t i = 0; i < cube.size(); i += 1 + i % 3)
    subset.push_back(i);
  Rng shuffle_rng(73);
  for (std::size_t i = subset.size() - 1; i > 0; --i)
    std::swap(subset[i], subset[shuffle_rng.below(i + 1)]);
  out.emplace_back(cube, subset, Periodicity::all(box), leaf_size, backend);
  return out;
}

TEST(ParallelKdTree, LayoutMatchesGolden) {
  // Recorded from the index-permuting build; a change means index() or a
  // node moved, and with them every FOF walk and A* bound.
  const std::map<std::size_t, std::uint32_t> golden = {{8, 0xd8f5a290u},
                                                       {16, 0x65d9fe49u}};
  for (const auto& [leaf_size, expected] : golden)
    for (const auto backend :
         {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
      std::uint32_t crc = 0;
      for (const KdTree& t : layout_trees(leaf_size, backend)) {
        ASSERT_GT(t.size(), KdTree::kParallelBuildCutoff);
        const std::uint32_t c = layout_crc(t);
        crc = crc32(&c, sizeof(c), crc);
      }
      EXPECT_EQ(crc, expected) << "leaf size " << leaf_size << ", "
                               << dpp::to_string(backend) << std::hex
                               << ": 0x" << crc;
    }
}

// ------------------------------------------------------- per-halo fan-out --

// One full halo-pipeline step's input: a universe, its rank count and the
// halo finder's linking length.
struct PipelineInput {
  sim::SyntheticConfig universe;
  int ranks;
  std::string linking_length;
};

// A dozen modest halos at P = 2.
const PipelineInput kFanout{{.box = 32.0, .seed = 31, .halo_count = 12,
                             .min_particles = 60, .max_particles = 1200,
                             .background_particles = 500,
                             .subclump_fraction = 0.0},
                            2, "0.3"};

// Fifty halos at P = 1, whose 8,000-particle monster dominates the centring.
const PipelineInput kMonster{{.box = 48.0, .seed = 20151115, .halo_count = 50,
                              .min_particles = 60, .max_particles = 8000,
                              .background_particles = 10000,
                              .subclump_fraction = 0.0},
                             1, "0.32"};

// Runs register_full_halo_pipeline for one step; each rank's catalog bytes.
std::vector<std::vector<std::byte>> run_pipeline(const PipelineInput& in,
                                                 dpp::Backend backend) {
  std::vector<std::vector<std::byte>> per_rank(
      static_cast<std::size_t>(in.ranks));
  comm::run_spmd(in.ranks, [&](comm::Comm& c) {
    sim::Cosmology cosmo;
    auto u = sim::generate_synthetic(c, cosmo, in.universe);
    sim::SlabDecomposition decomp(in.ranks, in.universe.box);
    core::InSituAnalysisManager manager(c, decomp, in.universe.box,
                                        u.total_particles, backend);
    core::register_full_halo_pipeline(manager);
    manager.configure(core::CosmoToolsConfig::parse(
        "[halofinder]\nlinking_length " + in.linking_length +
        "\nmin_size 40\noverload 2.0\n"));
    sim::StepContext step{1, 1, 1.0, 0.0};
    auto ctx = manager.execute_step(step, u.local);
    per_rank[static_cast<std::size_t>(c.rank())] =
        stats::catalog_to_bytes(ctx.catalog);
  });
  return per_rank;
}

TEST(PerHaloFanout, CatalogBitIdenticalSerialVsThreadPool) {
  const auto serial = run_pipeline(kFanout, dpp::Backend::Serial);
  const auto pooled = run_pipeline(kFanout, dpp::Backend::ThreadPool);
  std::size_t bytes = 0;
  for (const auto& r : serial) bytes += r.size();
  ASSERT_GT(bytes, 0u);
  EXPECT_EQ(serial, pooled);
}

// CRC32 of the monster universe's catalog, sorted by id.
std::uint32_t monster_catalog_crc(dpp::Backend backend) {
  auto catalog = stats::catalog_from_bytes(
      run_pipeline(kMonster, backend).front());
  stats::sort_catalog(catalog);
  const auto bytes = stats::catalog_to_bytes(catalog);
  return crc32(bytes.data(), bytes.size());
}

// The halo chain's bits — FOF, tree, centres, SO, shape and concentration —
// pinned on Serial, on an idle pool and on a pool that another thread keeps
// dispatching on.
TEST(PerHaloFanout, CatalogMatchesGolden) {
  EXPECT_EQ(monster_catalog_crc(dpp::Backend::Serial), 0xD930DB70u);
  EXPECT_EQ(monster_catalog_crc(dpp::Backend::ThreadPool), 0xD930DB70u);
  EXPECT_EQ(testutil::with_pool_load(
                [] { return monster_catalog_crc(dpp::Backend::ThreadPool); }),
            0xD930DB70u);
}

// ------------------------------------------------------- property kernels --

TEST(ParallelProperties, KernelsBitIdenticalAcrossBackends) {
  const double box = 16.0;
  Rng rng(21);
  ParticleSet p;
  for (int i = 0; i < 3000; ++i)
    p.push_back(static_cast<float>(rng.normal(8.0, 0.4)),
                static_cast<float>(rng.normal(8.0, 0.7)),
                static_cast<float>(rng.normal(8.0, 1.1)), 0, 0, 0, i);
  std::vector<std::uint32_t> members(p.size());
  std::iota(members.begin(), members.end(), 0u);

  SoConfig sa, sb;
  sa.box = sb.box = box;
  sa.mean_density = sb.mean_density = 1.0;
  sb.backend = dpp::Backend::ThreadPool;
  const auto soa = so_mass(p, members, 8.0, 8.0, 8.0, sa);
  const auto sob = so_mass(p, members, 8.0, 8.0, 8.0, sb);
  EXPECT_EQ(soa.radius, sob.radius);
  EXPECT_EQ(soa.mass, sob.mass);
  EXPECT_EQ(soa.count, sob.count);

  const auto sha = stats::halo_shape(p, members, 8.0, 8.0, 8.0, box,
                                     dpp::Backend::Serial);
  const auto shb = stats::halo_shape(p, members, 8.0, 8.0, 8.0, box,
                                     dpp::Backend::ThreadPool);
  EXPECT_EQ(sha.a, shb.a);
  EXPECT_EQ(sha.b_over_a, shb.b_over_a);
  EXPECT_EQ(sha.c_over_a, shb.c_over_a);

  const auto ca = stats::concentration(p, members, 8.0, 8.0, 8.0, box,
                                       dpp::Backend::Serial);
  const auto cb = stats::concentration(p, members, 8.0, 8.0, 8.0, box,
                                       dpp::Backend::ThreadPool);
  EXPECT_EQ(ca.c, cb.c);
  EXPECT_EQ(ca.r_half, cb.r_half);

  const auto fa = stats::concentration_profile_fit(
      p, members, 8.0, 8.0, 8.0, box, 16, dpp::Backend::Serial);
  const auto fb = stats::concentration_profile_fit(
      p, members, 8.0, 8.0, 8.0, box, 16, dpp::Backend::ThreadPool);
  EXPECT_EQ(fa.c, fb.c);
}

// ----------------------------------------------------- MBP tile kernel --

/// Gaussian blob of n particles, wrapped into [0, box) when box > 0.
ParticleSet wrapped_blob(std::size_t n, double c, double sigma, double box,
                         std::uint64_t seed) {
  Rng rng(seed);
  auto coord = [&] {
    double v = rng.normal(c, sigma);
    if (box > 0.0) v -= box * std::floor(v / box);
    return static_cast<float>(v);
  };
  ParticleSet p;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = coord(), y = coord(), z = coord();
    p.push_back(x, y, z, 0, 0, 0, static_cast<std::int64_t>(i));
  }
  return p;
}

std::vector<std::uint32_t> all_members(const ParticleSet& p) {
  std::vector<std::uint32_t> m(p.size());
  std::iota(m.begin(), m.end(), 0u);
  return m;
}

/// One centring input: a halo's members within a particle set.
struct CenterCase {
  std::string name;
  ParticleSet p;
  std::vector<std::uint32_t> members;
  CenterConfig cfg;
};

CenterCase whole_set(std::string name, ParticleSet p, double box,
                     double softening = CenterConfig{}.softening) {
  CenterCase c{std::move(name), std::move(p), {}, {}};
  c.members = all_members(c.p);
  c.cfg.box = box;
  c.cfg.softening = softening;
  return c;
}

/// Every size from one target to many tiles, each tile remainder included.
std::vector<CenterCase> remainder_cases() {
  std::vector<CenterCase> out;
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u, 1001u})
    out.push_back(whole_set("n=" + std::to_string(n),
                            wrapped_blob(n, 5.0, 0.4, 10.0, 100 + n), 10.0));
  return out;
}

/// Centred on the box corner: every axis straddles the seam, so pairs fold
/// through both the d > box/2 and the d < −box/2 branch. box = 0 is the
/// non-periodic case: the same particles, never folded.
std::vector<CenterCase> seam_cases() {
  const ParticleSet p = wrapped_blob(203, 0.0, 0.6, 16.0, 7);
  for (const auto* axis : {&p.x, &p.y, &p.z}) {
    EXPECT_TRUE(std::any_of(axis->begin(), axis->end(),
                            [](float v) { return v < 1.0f; }));
    EXPECT_TRUE(std::any_of(axis->begin(), axis->end(),
                            [](float v) { return v > 15.0f; }));
  }
  std::vector<CenterCase> out;
  out.push_back(whole_set("seam", p, 16.0));
  out.push_back(whole_set("box=0", p, 0.0));
  return out;
}

/// Every position three times over, so d = 0 for non-self pairs. Then no
/// softening at all: each coincident pair adds −inf, and the self pair,
/// whose term is +inf too, must still add nothing (not inf·0 = NaN).
std::vector<CenterCase> coincident_cases() {
  const ParticleSet base = wrapped_blob(23, 5.0, 0.3, 10.0, 8);
  ParticleSet p;
  for (int copy = 0; copy < 3; ++copy)
    for (std::size_t i = 0; i < base.size(); ++i)
      p.push_back(base.x[i], base.y[i], base.z[i], 0, 0, 0,
                  static_cast<std::int64_t>(p.size()));
  std::vector<CenterCase> out;
  out.push_back(whole_set("coincident", p, 10.0));
  out.push_back(whole_set("coincident, no softening", p, 10.0, 0.0));
  out.push_back(whole_set("no softening", wrapped_blob(9, 5.0, 0.3, 10.0, 9),
                          10.0, 0.0));
  return out;
}

/// FOF halos index a larger particle set in no particular order.
CenterCase permuted_subset_case() {
  CenterCase c{"permuted subset", wrapped_blob(3000, 11.5, 0.8, 12.0, 10),
               {}, {}};
  c.cfg.box = 12.0;
  for (std::uint32_t i = 0; i < c.p.size(); i += 1 + i % 5)
    c.members.push_back(i);
  Rng rng(11);
  for (std::size_t i = c.members.size() - 1; i > 0; --i)
    std::swap(c.members[i], c.members[rng.below(i + 1)]);
  if (c.members.size() % 4 == 0) c.members.pop_back();  // keep a short tile
  return c;
}

/// Above the one-tile-per-chunk size and the A* cut-off, on the real NFW
/// profile, straddling the x seam.
CenterCase nfw_monster_case() {
  ParticleSet p(8203);
  Rng rng(12);
  sim::detail::NfwSampler nfw(p, 5.0);
  nfw.draw(rng, 47.2, 24.0, 0.5, 1.6, p.size(), 0, 0.0);
  nfw.flush();
  p.wrap_positions(48.0f);
  return whole_set("NFW monster", std::move(p), 48.0);
}

/// Every tile kernel input but the monster.
std::vector<CenterCase> adversarial_cases() {
  std::vector<CenterCase> out = remainder_cases();
  for (auto& c : seam_cases()) out.push_back(std::move(c));
  for (auto& c : coincident_cases()) out.push_back(std::move(c));
  out.push_back(permuted_subset_case());
  return out;
}

constexpr const char* kNoAvx2 =
    "no AVX2 on this CPU (or not an x86-64 build): the center finder runs "
    "the scalar exact_potential here, so there is no tile kernel to compare";

/// Calls the AVX2 tile kernel directly on a target list and compares each
/// φ bit for bit with the scalar reference exact_potential.
void expect_kernel_bitwise(const CenterCase& c,
                           std::span<const std::uint32_t> targets,
                           const std::string& what) {
#ifdef COSMO_HALO_AVX2
  std::vector<double> phi(targets.size());
  halo::detail::potentials_avx2(c.p, c.members, targets, c.cfg, phi);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const double ref =
        halo::detail::exact_potential(c.p, c.members, targets[t], c.cfg);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(phi[t]),
              std::bit_cast<std::uint64_t>(ref))
        << c.name << ", " << what << ": target " << targets[t] << " of "
        << c.members.size() << ", kernel " << phi[t] << " vs scalar " << ref;
  }
#else
  (void)c, (void)targets, (void)what;
#endif
}

void expect_kernel_bitwise(const CenterCase& c) {
  std::vector<std::uint32_t> every(c.members.size());
  std::iota(every.begin(), every.end(), 0u);
  expect_kernel_bitwise(c, every, "every member");
}

TEST(MbpTileKernel, BitwiseEqualToScalarForEveryRemainder) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  for (const auto& c : remainder_cases()) expect_kernel_bitwise(c);
}

TEST(MbpTileKernel, BitwiseEqualAcrossThePeriodicSeam) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  for (const auto& c : seam_cases()) expect_kernel_bitwise(c);
}

TEST(MbpTileKernel, BitwiseEqualWithCoincidentParticles) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  for (const auto& c : coincident_cases()) expect_kernel_bitwise(c);
}

TEST(MbpTileKernel, BitwiseEqualOnPermutedSubset) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  expect_kernel_bitwise(permuted_subset_case());
}

TEST(MbpTileKernel, TargetListsBitwiseEqualToScalar) {
  if (!halo::detail::has_avx2()) GTEST_SKIP() << kNoAvx2;
  // The A* hands the kernel arbitrary member lists: out of order, runs of
  // neighbours (whose self pairs fall in one another's lanes), and lengths
  // that leave a short last tile.
  const CenterCase c = permuted_subset_case();
  const auto n = static_cast<std::uint32_t>(c.members.size());
  const std::vector<std::vector<std::uint32_t>> lists = {
      {5, 6, 7, 8},       {8, 7, 6, 5},    {6, 5, 8, 7, 9},
      {0, 1, 2},          {n - 1, n - 2},  {n - 1},
      {3, 3, 3, 3, 3},    {0, n - 1, 1, n - 2, 2, n - 3, 3}};
  for (const auto& list : lists) expect_kernel_bitwise(c, list, "list");
  std::vector<std::uint32_t> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), 0u);
  Rng rng(13);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i)
    std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
  for (const std::size_t len : {1u, 2u, 3u, 5u, 6u, 7u, 61u})
    expect_kernel_bitwise(
        c, std::span(shuffled).first(len),
        "shuffled list of " + std::to_string(len));
}

TEST(MbpTileKernel, MonsterHaloSerialEqualsPoolEqualsReference) {
  // Above the one-tile-per-chunk size, on the real NFW profile. Runs on
  // every host: without AVX2 it checks the scalar path the same way.
  const CenterCase c = nfw_monster_case();
  const auto& members = c.members;
  ASSERT_GE(members.size(), 8192u);

  std::vector<double> ref(members.size());
  dpp::tabulate<double>(dpp::Backend::ThreadPool, ref, [&](std::size_t k) {
    return halo::detail::exact_potential(c.p, members, k, c.cfg);
  });
  std::size_t best = 0;
  for (std::size_t k = 1; k < ref.size(); ++k)
    if (ref[k] < ref[best]) best = k;

  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    const auto r = mbp_center_brute(backend, c.p, members, c.cfg);
    EXPECT_EQ(r.member_index, best) << dpp::to_string(backend);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.potential),
              std::bit_cast<std::uint64_t>(ref[best]))
        << dpp::to_string(backend);
  }
}

// ------------------------------------------- symmetric all-members φ --

/// Every member's φ, not just the argmin's, bit for bit against the scalar
/// exact_potential, through detail::potentials on both backends. On an
/// AVX2 host it takes the symmetric tile kernel, which computes each pair's
/// term once for its two members; elsewhere the pooled exact_potential
/// tabulate.
void expect_every_phi_exact(const CenterCase& c) {
  const std::size_t n = c.members.size();
  std::vector<double> ref(n);
  dpp::tabulate<double>(dpp::Backend::ThreadPool, ref, [&](std::size_t k) {
    return halo::detail::exact_potential(c.p, c.members, k, c.cfg);
  });
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    const std::string where = c.name + " (n " + std::to_string(n) + ", " +
                              dpp::to_string(backend) + ")";
    const auto phi = halo::detail::potentials(backend, c.p, c.members, c.cfg);
    ASSERT_EQ(phi.size(), n) << where;
    for (std::size_t k = 0; k < n; ++k)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(phi[k]),
                std::bit_cast<std::uint64_t>(ref[k]))
          << where << ": member " << k << ", potentials " << phi[k]
          << " vs scalar " << ref[k];
  }
}

TEST(SymmetricMbpKernel, EveryPhiBitwiseForEveryRemainder) {
  for (const auto& c : remainder_cases()) expect_every_phi_exact(c);
}

TEST(SymmetricMbpKernel, EveryPhiBitwiseAcrossThePeriodicSeam) {
  for (const auto& c : seam_cases()) expect_every_phi_exact(c);
}

TEST(SymmetricMbpKernel, EveryPhiBitwiseWithCoincidentParticles) {
  for (const auto& c : coincident_cases()) expect_every_phi_exact(c);
}

TEST(SymmetricMbpKernel, EveryPhiBitwiseOnPermutedSubset) {
  expect_every_phi_exact(permuted_subset_case());
}

TEST(SymmetricMbpKernel, EveryPhiBitwiseOnTheNfwMonster) {
  expect_every_phi_exact(nfw_monster_case());
}

TEST(SymmetricMbpKernel, OneTaskPerHaloOnThePool) {
  // The centring call sites' shape: one pool task per halo, each running
  // its halo's sums on its own thread, all reading shared particle sets.
  const std::vector<CenterCase> cases = adversarial_cases();
  std::vector<std::vector<double>> pooled(cases.size());
  dpp::for_each_index(
      dpp::Backend::ThreadPool, cases.size(),
      [&](std::size_t h) {
        pooled[h] = halo::detail::potentials(dpp::Backend::ThreadPool,
                                             cases[h].p, cases[h].members,
                                             cases[h].cfg);
      },
      /*grain=*/1);
  for (std::size_t h = 0; h < cases.size(); ++h) {
    const auto& c = cases[h];
    ASSERT_EQ(pooled[h].size(), c.members.size()) << c.name;
    for (std::size_t k = 0; k < c.members.size(); ++k) {
      const double ref =
          halo::detail::exact_potential(c.p, c.members, k, c.cfg);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(pooled[h][k]),
                std::bit_cast<std::uint64_t>(ref))
          << c.name << ": member " << k;
    }
  }
}

// -------------------------------------------------------- certified A* --

/// The A* returns brute force's member, particle and φ bits on both
/// backends, with the same count of exact sums; mbp_center returns the
/// same center from the finder its size rule picks.
void expect_astar_exact(const CenterCase& c) {
  const auto brute = mbp_center_brute(dpp::Backend::ThreadPool, c.p,
                                      c.members, c.cfg);
  std::uint64_t evals = 0;
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    const std::string where =
        c.name + " (n " + std::to_string(c.members.size()) + ", " +
        dpp::to_string(backend) + ")";
    const auto a = mbp_center_astar(backend, c.p, c.members, c.cfg);
    EXPECT_EQ(a.member_index, brute.member_index) << where;
    EXPECT_EQ(a.particle, brute.particle) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.potential),
              std::bit_cast<std::uint64_t>(brute.potential))
        << where << ": A* " << a.potential << " vs brute " << brute.potential;
    EXPECT_GE(a.exact_evaluations, 1u) << where;
    EXPECT_LE(a.exact_evaluations, c.members.size()) << where;
    if (backend == dpp::Backend::Serial)
      evals = a.exact_evaluations;
    else
      EXPECT_EQ(a.exact_evaluations, evals) << where;

    const auto m = mbp_center(backend, c.p, c.members, c.cfg);
    EXPECT_EQ(m.member_index, brute.member_index) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.potential),
              std::bit_cast<std::uint64_t>(brute.potential))
        << where;
    EXPECT_EQ(m.exact_evaluations, c.members.size() >= kAStarMinMembers
                                       ? a.exact_evaluations
                                       : c.members.size())
        << where << ": mbp_center picks its finder by member count";
  }
}

/// The certificate itself: lb − δ ≤ exact_potential for every member, with
/// the bounds bit-identical on both backends.
void expect_bounds_certified(const CenterCase& c) {
  const std::size_t n = c.members.size();
  const auto lb = halo::detail::potential_bounds(dpp::Backend::Serial, c.p,
                                                 c.members, c.cfg);
  const auto pooled = halo::detail::potential_bounds(
      dpp::Backend::ThreadPool, c.p, c.members, c.cfg);
  ASSERT_EQ(lb.size(), n);
  ASSERT_EQ(std::memcmp(lb.data(), pooled.data(), n * sizeof(double)), 0)
      << c.name << ": bounds differ between backends";
  std::vector<double> phi(n);
  dpp::tabulate<double>(dpp::Backend::ThreadPool, phi, [&](std::size_t k) {
    return halo::detail::exact_potential(c.p, c.members, k, c.cfg);
  });
  for (std::size_t k = 0; k < n; ++k)
    ASSERT_LE(lb[k] - halo::detail::bound_slack(lb[k], n), phi[k])
        << c.name << ": member " << k << " of " << n << ", bound " << lb[k]
        << ", slack " << halo::detail::bound_slack(lb[k], n) << ", phi "
        << phi[k];
}

TEST(CertifiedAStar, MatchesBruteOnEveryTileKernelInput) {
  for (const auto& c : adversarial_cases()) expect_astar_exact(c);
}

TEST(CertifiedAStar, MatchesBruteOnTheNfwMonsterAndPrunes) {
  const CenterCase c = nfw_monster_case();
  ASSERT_GE(c.members.size(), kAStarMinMembers);
  expect_astar_exact(c);
  const auto a =
      mbp_center_astar(dpp::Backend::ThreadPool, c.p, c.members, c.cfg);
  EXPECT_LT(a.exact_evaluations, c.members.size() / 4)
      << "the bounds should rule out most of a concentrated monster";
}

TEST(CertifiedAStar, BoundsLessSlackNeverExceedPhi) {
  for (const auto& c : adversarial_cases()) expect_bounds_certified(c);
  expect_bounds_certified(nfw_monster_case());
}

TEST(CertifiedAStar, MonsterBoundsMatchGolden) {
  // Recorded from the bound pass over a ParticleSet copy of the members;
  // the bounds and the A*'s count of exact sums must keep those bits.
  const CenterCase c = nfw_monster_case();
  for (const auto backend : {dpp::Backend::Serial, dpp::Backend::ThreadPool}) {
    const auto lb =
        halo::detail::potential_bounds(backend, c.p, c.members, c.cfg);
    const std::uint32_t crc = crc32(lb.data(), lb.size() * sizeof(lb[0]));
    EXPECT_EQ(crc, 0xe95efa0au) << dpp::to_string(backend) << std::hex << ": 0x"
                         << crc;
    EXPECT_EQ(mbp_center_astar(backend, c.p, c.members, c.cfg)
                  .exact_evaluations,
              891u)
        << dpp::to_string(backend);
  }
}

TEST(CertifiedAStar, MatchesBruteOnEveryFofHaloOfAMonsterUniverse) {
  // The Table 3/4 universe: 60 NFW halos of 60 to 26,000 particles in a
  // box of 48 (one near 12,000), found by FOF as the workflows find them.
  sim::SyntheticConfig scfg;
  scfg.box = 48.0;
  scfg.seed = 20151115;
  scfg.halo_count = 60;
  scfg.min_particles = 60;
  scfg.max_particles = 26000;
  scfg.background_particles = 12000;
  scfg.subclump_fraction = 0.0;
  comm::run_spmd(1, [&](comm::Comm& comm) {
    sim::Cosmology cosmo;
    const auto u = generate_synthetic(comm, cosmo, scfg);
    FofConfig fcfg;
    fcfg.linking_length = 0.32;
    fcfg.min_size = 40;
    fcfg.backend = dpp::Backend::ThreadPool;
    const auto halos = fof_find(u.local, Periodicity::all(scfg.box), fcfg);
    ASSERT_GE(halos.size(), 50u);
    ASSERT_GE(halos.front().members.size(), kAStarMinMembers);
    CenterCase c{"", u.local, {}, {}};
    c.cfg.box = scfg.box;
    for (const auto& h : halos) {
      c.name = "FOF halo " + std::to_string(h.id);
      c.members = h.members;
      expect_astar_exact(c);
      expect_bounds_certified(c);
    }
  });
}

TEST(ParallelMergerTree, LinksBackendInvariant) {
  const double box = 32.0;
  ParticleSet p = blob_universe(box, 61);
  FofConfig cfg;
  cfg.linking_length = 0.3;
  cfg.min_size = 40;
  const auto halos0 = fof_find(p, Periodicity::all(box), cfg);
  ASSERT_GT(halos0.size(), 3u);
  // Step 1: drift every particle slightly — halos persist, ids shift.
  ParticleSet q = p;
  Rng rng(62);
  for (std::size_t i = 0; i < q.size(); ++i)
    q.x[i] = static_cast<float>(q.x[i] + rng.uniform(-0.02, 0.02));
  const auto halos1 = fof_find(q, Periodicity::all(box), cfg);

  auto tracked = [](const ParticleSet& ps, const std::vector<FofHalo>& hs) {
    std::vector<stats::TrackedHalo> out;
    for (const auto& h : hs) {
      stats::TrackedHalo t;
      t.id = h.id;
      for (const auto m : h.members) t.tags.push_back(ps.tag[m]);
      out.push_back(std::move(t));
    }
    return out;
  };

  auto build_links = [&](dpp::Backend backend) {
    stats::MergerTreeBuilder b;
    b.add_snapshot(0, tracked(p, halos0));
    b.add_snapshot(1, tracked(q, halos1));
    b.build(backend);
    std::vector<std::tuple<std::size_t, std::int64_t, std::int64_t,
                           std::size_t>>
        out;
    for (const auto& l : b.links())
      out.emplace_back(l.step, l.progenitor, l.descendant,
                       l.shared_particles);
    return out;
  };

  const auto serial = build_links(dpp::Backend::Serial);
  ASSERT_GT(serial.size(), 2u);
  EXPECT_EQ(build_links(dpp::Backend::ThreadPool), serial);
}

}  // namespace
