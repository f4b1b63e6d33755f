#include <gtest/gtest.h>

#include "src/core/measurement.h"
#include "src/net/geo.h"
#include "src/tree/kauri.h"
#include "src/tree/topology.h"
#include "src/tree/tree_score.h"
#include "src/tree/tree_space.h"

namespace optilog {
namespace {

LatencyMatrix UniformMatrix(uint32_t n, double rtt_ms) {
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        m.Record(a, b, rtt_ms);
      }
    }
  }
  return m;
}

LatencyMatrix GeoMatrix(const std::vector<City>& cities) {
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix m(static_cast<uint32_t>(cities.size()));
  for (ReplicaId a = 0; a < cities.size(); ++a) {
    for (ReplicaId b = 0; b < cities.size(); ++b) {
      if (a != b) {
        m.Record(a, b, rtts[a][b]);
      }
    }
  }
  return m;
}

TEST(BranchFactor, MatchesPaperSizes) {
  // §7.3: b = (sqrt(4n-3)-1)/2; paper sizes and their branch factors.
  EXPECT_EQ(BranchFactorFor(13), 3u);
  EXPECT_EQ(BranchFactorFor(21), 4u);
  EXPECT_EQ(BranchFactorFor(43), 6u);
  EXPECT_EQ(BranchFactorFor(57), 7u);
  EXPECT_EQ(BranchFactorFor(73), 8u);
  EXPECT_EQ(BranchFactorFor(91), 9u);
  EXPECT_EQ(BranchFactorFor(111), 10u);
  EXPECT_EQ(BranchFactorFor(157), 12u);
  EXPECT_EQ(BranchFactorFor(183), 13u);
  EXPECT_EQ(BranchFactorFor(211), 14u);
}

TEST(TreeTopology, BuildFig5Tree) {
  // Fig. 5: n = 13, b = 3: root R, I1..I3, T1..T9.
  std::vector<ReplicaId> internals{0, 1, 2, 3};
  std::vector<ReplicaId> leaves{4, 5, 6, 7, 8, 9, 10, 11, 12};
  const TreeTopology t = TreeTopology::Build(internals, leaves);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.intermediates().size(), 3u);
  EXPECT_EQ(t.size(), 13u);
  for (ReplicaId inter : t.intermediates()) {
    EXPECT_EQ(t.ChildrenOf(inter).size(), 3u);
    EXPECT_EQ(t.ParentOf(inter), 0u);
    EXPECT_TRUE(t.IsIntermediate(inter));
    EXPECT_TRUE(t.IsInternal(inter));
  }
  for (ReplicaId leaf : leaves) {
    EXPECT_TRUE(t.IsLeaf(leaf));
    EXPECT_TRUE(t.IsIntermediate(t.ParentOf(leaf)));
  }
}

TEST(TreeTopology, ConfigRoundTrip) {
  std::vector<ReplicaId> internals{5, 2, 9, 0};
  std::vector<ReplicaId> leaves{1, 3, 4, 6, 7, 8, 10, 11, 12};
  const TreeTopology t = TreeTopology::Build(internals, leaves);
  const TreeTopology back = TreeTopology::FromConfig(t.ToConfig());
  EXPECT_EQ(back.root(), t.root());
  EXPECT_EQ(back.size(), t.size());
  for (ReplicaId id = 0; id < 13; ++id) {
    EXPECT_EQ(back.ParentOf(id), t.ParentOf(id)) << id;
  }
  std::vector<ReplicaId> a = t.Internals(), b = back.Internals();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(TreeTopology, StarHasNoIntermediates) {
  const TreeTopology star = TreeTopology::Build({3}, {0, 1, 2, 4});
  EXPECT_EQ(star.root(), 3u);
  EXPECT_TRUE(star.intermediates().empty());
  EXPECT_EQ(star.ChildrenOf(3).size(), 4u);
}

TEST(TreeTopology, UnevenLeavesDistributedRoundRobin) {
  // n = 12 with 4 internals: 8 leaves over 3 intermediates -> 3/3/2.
  const TreeTopology t =
      TreeTopology::Build({0, 1, 2, 3}, {4, 5, 6, 7, 8, 9, 10, 11});
  size_t total = 0;
  for (ReplicaId inter : t.intermediates()) {
    const size_t c = t.ChildrenOf(inter).size();
    EXPECT_GE(c, 2u);
    EXPECT_LE(c, 3u);
    total += c;
  }
  EXPECT_EQ(total, 8u);
}

TEST(TreeScore, UniformMatrixKnownValue) {
  // Uniform RTT r: every subtree aggregate arrives at Lagg + L(I,R) = 2r.
  const LatencyMatrix m = UniformMatrix(13, 10.0);
  const TreeTopology t = TreeTopology::Build({0, 1, 2, 3},
                                             {4, 5, 6, 7, 8, 9, 10, 11, 12});
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 9), 20.0);
  // k = 1: root's own vote suffices.
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 1), 0.0);
}

TEST(TreeScore, PrefersFastSubtrees) {
  // Two intermediates: one fast (RTT 10), one slow (RTT 100). Collecting
  // k <= coverage(fast subtree) + 1 votes should not touch the slow one.
  LatencyMatrix m = UniformMatrix(7, 10.0);
  // Intermediate 2 and its children are slow.
  for (ReplicaId other = 0; other < 7; ++other) {
    if (other != 2) {
      m.Record(2, other, 100.0);
      m.Record(other, 2, 100.0);
    }
  }
  const TreeTopology t = TreeTopology::Build({0, 1, 2}, {3, 4, 5, 6});
  // Subtree of 1 covers {1, 3, 5} = 3 nodes; +root = 4 votes at 20 ms.
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 4), 20.0);
  // Needing more forces the slow subtree: 100 (child) + 100 (to root).
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 6), 200.0);
}

TEST(TreeScore, InfiniteWhenNotEnoughCoverage) {
  const LatencyMatrix m = UniformMatrix(5, 10.0);
  const TreeTopology t = TreeTopology::Build({0, 1}, {2, 3, 4});
  // Subtree of 1 covers 4 nodes; +root = 5 = n, so k = 6 is impossible.
  EXPECT_TRUE(std::isinf(TreeScore(t, m, 6)));
}

TEST(TreeScore, StarUsesDirectVotes) {
  const LatencyMatrix m = UniformMatrix(5, 10.0);
  const TreeTopology star = TreeTopology::Build({0}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(TreeScore(star, m, 3), 10.0);
  EXPECT_TRUE(std::isinf(TreeScore(star, m, 6)));
}

TEST(TreeScore, MonotoneInK) {
  const LatencyMatrix m = GeoMatrix(Europe21());
  Rng rng(4);
  const TreeTopology t = RandomTree(21, rng);
  double prev = 0.0;
  for (uint32_t k = 1; k <= 21; ++k) {
    const double s = TreeScore(t, m, k);
    EXPECT_GE(s, prev) << "k=" << k;
    prev = s;
  }
}

TEST(TreeScore, TimeoutsSatisfyLemma6Ordering) {
  // TR2 chain: propose <= forward <= vote <= (aggregate covers its children).
  const LatencyMatrix m = GeoMatrix(Europe21());
  Rng rng(4);
  const TreeTopology t = RandomTree(21, rng);
  for (ReplicaId inter : t.intermediates()) {
    const double d_prop = TreeProposeTimeoutMs(t, m, inter);
    EXPECT_GT(d_prop, 0.0);
    const double d_agg = TreeAggregateTimeoutMs(t, m, inter);
    for (ReplicaId leaf : t.ChildrenOf(inter)) {
      const double d_fwd = TreeForwardTimeoutMs(t, m, leaf);
      const double d_vote = TreeVoteTimeoutMs(t, m, leaf);
      EXPECT_GE(d_fwd, d_prop);
      EXPECT_GE(d_vote, d_fwd);
      // The aggregate waits for the slowest child vote round-trip.
      EXPECT_GE(d_agg + 1e-9,
                d_prop + AggregationLatencyMs(t, m, inter));
    }
  }
}

TEST(TreeScore, DRndEqualsScoreAtQPlusU) {
  const LatencyMatrix m = GeoMatrix(Europe21());
  Rng rng(4);
  const TreeTopology t = RandomTree(21, rng);
  EXPECT_DOUBLE_EQ(TreeRoundDurationMs(t, m, 15, 2), TreeScore(t, m, 17));
}

TEST(TreeSpace, RandomConfigsValidAndComplete) {
  TreeConfigSpace space(21, 15);
  CandidateSet k;
  for (ReplicaId id = 0; id < 21; ++id) {
    k.candidates.push_back(id);
  }
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const RoleConfig cfg = space.RandomConfig(k, rng);
    EXPECT_TRUE(space.Valid(cfg, k));
    const TreeTopology t = TreeTopology::FromConfig(cfg);
    EXPECT_EQ(t.size(), 21u);
    EXPECT_EQ(t.Internals().size(), 5u);  // b + 1 = 5
  }
}

TEST(TreeSpace, MutateKeepsInternalsInCandidateSet) {
  TreeConfigSpace space(21, 15);
  CandidateSet k;
  for (ReplicaId id = 0; id < 15; ++id) {  // only 0..14 are candidates
    k.candidates.push_back(id);
  }
  Rng rng(8);
  RoleConfig cfg = space.RandomConfig(k, rng);
  for (int i = 0; i < 200; ++i) {
    cfg = space.Mutate(cfg, k, rng);
    ASSERT_TRUE(space.Valid(cfg, k)) << "iteration " << i;
  }
}

TEST(TreeSpace, RejectsInternalOutsideK) {
  TreeConfigSpace space(13, 9);
  CandidateSet k;
  for (ReplicaId id = 0; id < 12; ++id) {
    k.candidates.push_back(id);  // 12 is NOT a candidate
  }
  const TreeTopology t =
      TreeTopology::Build({12, 1, 2, 3}, {0, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_FALSE(space.Valid(t.ToConfig(), k));
}

TEST(Kauri, BinsAreDisjointAndCoverInternals) {
  KauriScheduler sched(21, 3);
  // i = b + 1 = 5 internals, t = 21 / 5 = 4 bins.
  EXPECT_EQ(sched.num_bins(), 4u);
  std::set<ReplicaId> seen;
  for (uint32_t bin = 0; bin < 4; ++bin) {
    auto tree = sched.NextTree();
    ASSERT_TRUE(tree.has_value());
    const auto internals = tree->Internals();
    EXPECT_EQ(internals.size(), 5u);
    for (ReplicaId id : internals) {
      EXPECT_TRUE(seen.insert(id).second) << "replica " << id << " in two bins";
    }
    EXPECT_EQ(tree->size(), 21u);
  }
  EXPECT_FALSE(sched.NextTree().has_value());  // bins exhausted
}

TEST(Kauri, StarFallbackIsFullStar) {
  KauriScheduler sched(21, 3);
  const TreeTopology star = sched.StarFallback();
  EXPECT_TRUE(star.intermediates().empty());
  EXPECT_EQ(star.ChildrenOf(star.root()).size(), 20u);
}

TEST(Kauri, FaultFreeBinExistsWhenFLessThanT) {
  // t-Bounded Conformity: with f < t faults, at least one bin is clean.
  KauriScheduler sched(21, 9);
  const std::set<ReplicaId> faulty{0, 1, 2};  // f = 3 < t = 4
  int clean_bins = 0;
  while (auto tree = sched.NextTree()) {
    bool clean = true;
    for (ReplicaId id : tree->Internals()) {
      if (faulty.count(id) > 0) {
        clean = false;
      }
    }
    clean_bins += clean;
  }
  EXPECT_GE(clean_bins, 1);
}

TEST(KauriSa, BurnsFailedInternals) {
  const LatencyMatrix m = GeoMatrix(Europe21());
  KauriSaScheduler sched(21, 5, 16, 77);
  AnnealingParams params;
  params.max_iterations = 300;
  auto first = sched.NextTree(m, params);
  ASSERT_TRUE(first.has_value());
  sched.BurnInternals(*first);
  EXPECT_EQ(sched.burned().size(), 5u);
  auto second = sched.NextTree(m, params);
  ASSERT_TRUE(second.has_value());
  for (ReplicaId id : second->Internals()) {
    EXPECT_EQ(sched.burned().count(id), 0u);
  }
  // Burning everything eventually exhausts candidates.
  for (int i = 0; i < 10; ++i) {
    auto t = sched.NextTree(m, params);
    if (!t.has_value()) {
      break;
    }
    sched.BurnInternals(*t);
  }
  EXPECT_FALSE(sched.NextTree(m, params).has_value());
}

TEST(AnnealTree, BeatsRandomTreeOnGeoMatrix) {
  const LatencyMatrix m = GeoMatrix(Global73());
  std::vector<ReplicaId> all(73);
  for (ReplicaId id = 0; id < 73; ++id) {
    all[id] = id;
  }
  Rng rng(123);
  double random_score = 0, annealed_score = 0;
  const uint32_t k = 49;  // q = n - f
  for (int trial = 0; trial < 5; ++trial) {
    random_score += TreeScore(RandomTree(73, rng), m, k);
    AnnealingParams params;
    params.max_iterations = 2000;
    annealed_score += TreeScore(AnnealTree(73, all, m, k, rng, params), m, k);
  }
  EXPECT_LT(annealed_score, random_score * 0.8)
      << "SA should find markedly better trees than random selection";
}

TEST(TreeLayoutScorer, EqualsTreeScoreOfTheBuiltTree) {
  for (uint32_t n : {13u, 21u, 73u, 74u}) {  // 74: leaves split unevenly
    const uint32_t f = (n - 1) / 3;
    // A geographic matrix, one of equal RTTs (every arrival ties), and one
    // with unknown (infinite) links.
    LatencyMatrix partial(n);
    Rng fill(n);
    for (ReplicaId a = 0; a < n; ++a) {
      for (ReplicaId b = 0; b < n; ++b) {
        if (a != b && fill.Bernoulli(0.9)) {
          partial.Record(a, b, static_cast<double>(1 + fill.Below(20)));
        }
      }
    }
    const LatencyMatrix matrices[] = {GeoMatrix(GlobalN(n)), UniformMatrix(n, 10.0),
                                      partial};
    Rng rng(n * 31);
    for (const LatencyMatrix& m : matrices) {
      for (uint32_t k : {1u, 2 * f + 1, n}) {
        TreeLayoutScorer scorer(m, k);
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<ReplicaId> ids(n);
          for (ReplicaId id = 0; id < n; ++id) {
            ids[id] = id;
          }
          rng.Shuffle(ids);
          // Mostly height-3 layouts, and now and then a star.
          const size_t internals = trial % 10 == 0 ? 1 : BranchFactorFor(n) + 1;
          const std::vector<ReplicaId> ints(ids.begin(), ids.begin() + internals);
          const std::vector<ReplicaId> lvs(ids.begin() + internals, ids.end());
          EXPECT_EQ(scorer.Score(ints, lvs),
                    TreeScore(TreeTopology::Build(ints, lvs), m, k))
              << "n=" << n << " k=" << k << " trial=" << trial;
        }
      }
    }
  }
}

TEST(AnnealTree, ReproducesRecordedTrees) {
  // Trees (and the Rng position after the search) recorded from the
  // tree-building annealer this layout annealer replaced; any change to
  // the search's draws or scores moves them.
  struct Case {
    std::vector<City> cities;
    uint32_t candidate_stride;
    uint32_t k;
    uint64_t seed;
    AnnealingParams params;
    ReplicaId leader;
    std::vector<ReplicaId> parent;
    uint64_t next_draw;
  };
  AnnealingParams short_search;
  short_search.max_iterations = 2000;
  const Case cases[] = {
      {Europe21(), 1, 13, 11, short_search, 9,
       {9, 8, 3, 9, 7, 0, 0, 9, 9, 9, 8, 3, 7, 0, 8, 3, 7, 0, 8, 3, 7},
       22035},
      {NaEu43(), 2, 29, 5, short_search, 0,
       {0, 8,  0, 32, 0, 6,  0, 12, 0, 2,  4,  8, 0, 32, 6,  12, 2, 4,  8, 32, 6, 12,
        2, 4,  8, 32, 6, 12, 2, 4,  8, 32, 0, 6, 12, 2, 4,  8,  32, 6, 12, 2, 4},
       761988},
      {Global73(), 1, 49, 7, AnnealingParams::ForBudget(3000), 13,
       {13, 20, 14, 15, 9,  59, 68, 0,  10, 13, 13, 20, 14, 13, 13, 13, 15, 9,  59,
        68, 13, 0,  10, 20, 14, 15, 9,  59, 68, 0,  10, 20, 14, 15, 9,  59, 68, 0,
        10, 20, 14, 15, 9,  59, 68, 0,  10, 20, 14, 15, 9,  59, 10, 0,  10, 20, 14,
        15, 9,  13, 59, 68, 0,  10, 20, 14, 15, 9,  13, 59, 68, 0,  68},
       316214},
  };
  for (const Case& c : cases) {
    const uint32_t n = static_cast<uint32_t>(c.cities.size());
    std::vector<ReplicaId> candidates;
    for (ReplicaId id = 0; id < n; id += c.candidate_stride) {
      candidates.push_back(id);
    }
    Rng rng(c.seed);
    const RoleConfig config =
        AnnealTree(n, candidates, GeoMatrix(c.cities), c.k, rng, c.params).ToConfig();
    EXPECT_EQ(config.leader, c.leader) << "n=" << n;
    EXPECT_EQ(config.parent, c.parent) << "n=" << n;
    EXPECT_EQ(rng.Below(1000000), c.next_draw) << "n=" << n;
  }
}

class TreeSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TreeSizeSweep, RandomTreeWellFormed) {
  const uint32_t n = GetParam();
  Rng rng(n);
  const TreeTopology t = RandomTree(n, rng);
  EXPECT_EQ(t.size(), n);
  const uint32_t b = BranchFactorFor(n);
  EXPECT_EQ(t.Internals().size(), b + 1);
  // Every replica reachable: root + intermediates + leaves == n.
  size_t leaves = 0;
  for (ReplicaId inter : t.intermediates()) {
    leaves += t.ChildrenOf(inter).size();
  }
  EXPECT_EQ(1 + t.intermediates().size() + leaves, n);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, TreeSizeSweep,
                         ::testing::Values(13, 21, 43, 56, 57, 73, 91, 111, 157,
                                           183, 211));

}  // namespace
}  // namespace optilog
