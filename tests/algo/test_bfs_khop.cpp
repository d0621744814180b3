#include <gtest/gtest.h>

#include <queue>

#include "algo/bfs.hpp"
#include "algo/khop.hpp"
#include "datagen/generators.hpp"
#include "graphblas/transpose.hpp"

namespace rg::algo {
namespace {

/// Simple queue-based reference BFS.
std::vector<std::int64_t> ref_bfs(const gb::Matrix<gb::Bool>& A,
                                  gb::Index seed) {
  std::vector<std::int64_t> level(A.nrows(), kUnreached);
  std::queue<gb::Index> q;
  q.push(seed);
  level[seed] = 0;
  while (!q.empty()) {
    const auto u = q.front();
    q.pop();
    for (const auto v : A.row_indices(u)) {
      if (level[v] == kUnreached) {
        level[v] = level[u] + 1;
        q.push(v);
      }
    }
  }
  return level;
}

TEST(Bfs, LineGraphLevels) {
  gb::Matrix<gb::Bool> A(4, 4);
  A.build({0, 1, 2}, {1, 2, 3}, {1, 1, 1});
  const auto AT = gb::transposed(A);
  const auto levels = bfs_levels(A, AT, 0);
  EXPECT_EQ(levels, (std::vector<std::int64_t>{0, 1, 2, 3}));
}

TEST(Bfs, UnreachableVerticesStayUnreached) {
  gb::Matrix<gb::Bool> A(4, 4);
  A.build({0}, {1}, {1});
  const auto AT = gb::transposed(A);
  const auto levels = bfs_levels(A, AT, 0);
  EXPECT_EQ(levels[2], kUnreached);
  EXPECT_EQ(levels[3], kUnreached);
}

class BfsRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsRandomTest, KernelMatchesReference) {
  const auto el = datagen::uniform_random(200, 800, GetParam());
  const auto A = datagen::to_matrix(el);
  const auto AT = gb::transposed(A);
  const auto seeds = datagen::pick_seeds(el, 5, GetParam());
  for (const auto s : seeds) {
    EXPECT_EQ(bfs_levels(A, AT, s), ref_bfs(A, s));
  }
}

TEST_P(BfsRandomTest, PureGraphBlasMatchesReference) {
  const auto el = datagen::uniform_random(100, 300, GetParam());
  const auto A = datagen::to_matrix(el);
  const auto seeds = datagen::pick_seeds(el, 3, GetParam());
  for (const auto s : seeds) {
    EXPECT_EQ(bfs_levels_graphblas(A, s), ref_bfs(A, s));
  }
}

TEST_P(BfsRandomTest, ParentsFormValidTree) {
  const auto el = datagen::uniform_random(150, 600, GetParam());
  const auto A = datagen::to_matrix(el);
  const auto seed = datagen::pick_seeds(el, 1, GetParam())[0];
  const auto parents = bfs_parents(A, seed);
  const auto levels = ref_bfs(A, seed);
  for (gb::Index v = 0; v < A.nrows(); ++v) {
    if (parents[v] == kUnreached) {
      EXPECT_EQ(levels[v], kUnreached);
      continue;
    }
    EXPECT_NE(levels[v], kUnreached);
    if (v == seed) {
      EXPECT_EQ(parents[v], static_cast<std::int64_t>(seed));
      continue;
    }
    const auto p = static_cast<gb::Index>(parents[v]);
    // Parent is one level above and linked by an edge.
    EXPECT_EQ(levels[p] + 1, levels[v]);
    EXPECT_TRUE(A.has_element(p, v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandomTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

/// Reference k-hop with Cypher endpoint semantics: vertices v != seed at
/// BFS distance 1..k, plus the seed itself when a cycle returns to it
/// within k hops (shortest returning cycle = 1 + min level over the
/// seed's reachable in-neighbors).
std::uint64_t ref_khop(const gb::Matrix<gb::Bool>& A, gb::Index seed,
                       unsigned k) {
  const auto levels = ref_bfs(A, seed);
  std::uint64_t count = 0;
  for (gb::Index v = 0; v < A.nrows(); ++v) {
    if (v == seed) continue;
    count += levels[v] >= 1 && levels[v] <= static_cast<std::int64_t>(k);
  }
  // Seed-on-cycle: find shortest path back.
  std::int64_t cycle = -1;
  for (gb::Index u = 0; u < A.nrows(); ++u) {
    if (levels[u] < 0 || !A.has_element(u, seed)) continue;
    if (cycle < 0 || levels[u] + 1 < cycle) cycle = levels[u] + 1;
  }
  if (cycle >= 1 && cycle <= static_cast<std::int64_t>(k)) ++count;
  return count;
}

// gtest names each case by the struct's raw bytes; `k` is 64-bit so the
// struct has no padding, whose uninitialised bytes made those names differ
// from build to build.
struct KhopCase {
  std::uint64_t seed;
  std::uint64_t k;
};

class KhopTest : public ::testing::TestWithParam<KhopCase> {};

TEST_P(KhopTest, MatchesBruteForceOnRandomGraph) {
  const auto [gen_seed, k] = GetParam();
  const auto el = datagen::uniform_random(300, 1500, gen_seed);
  const auto A = datagen::to_matrix(el);
  const auto AT = gb::transposed(A);
  KHopCounter counter(A, AT);
  for (const auto s : datagen::pick_seeds(el, 8, gen_seed + 1)) {
    EXPECT_EQ(counter.run(s, k).count, ref_khop(A, s, k));
  }
}

TEST_P(KhopTest, MatchesBruteForceOnKronecker) {
  const auto [gen_seed, k] = GetParam();
  const auto el = datagen::graph500(9, 8, gen_seed);
  const auto A = datagen::to_matrix(el);
  const auto AT = gb::transposed(A);
  KHopCounter counter(A, AT);
  for (const auto s : datagen::pick_seeds(el, 8, gen_seed + 1)) {
    EXPECT_EQ(counter.run(s, k).count, ref_khop(A, s, k));
  }
}

TEST_P(KhopTest, PushPullAutoAgree) {
  const auto [gen_seed, k] = GetParam();
  const auto el = datagen::graph500(9, 8, gen_seed * 3);
  const auto A = datagen::to_matrix(el);
  const auto AT = gb::transposed(A);
  for (const auto s : datagen::pick_seeds(el, 4, gen_seed)) {
    const auto push = khop_count(A, AT, s, k, Direction::kForcePush).count;
    const auto pull = khop_count(A, AT, s, k, Direction::kForcePull).count;
    const auto auto_ = khop_count(A, AT, s, k, Direction::kAuto).count;
    EXPECT_EQ(push, pull);
    EXPECT_EQ(push, auto_);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KhopTest,
    ::testing::Values(KhopCase{1, 1}, KhopCase{1, 2}, KhopCase{2, 3},
                      KhopCase{3, 4}, KhopCase{4, 6}, KhopCase{5, 2},
                      KhopCase{6, 6}));

TEST(Khop, CounterReusableAcrossSeeds) {
  const auto el = datagen::graph500(8, 8, 77);
  const auto A = datagen::to_matrix(el);
  const auto AT = gb::transposed(A);
  KHopCounter counter(A, AT);
  const auto seeds = datagen::pick_seeds(el, 10, 1);
  // First and second sweeps must agree (scratch state fully reset).
  std::vector<std::uint64_t> first, second;
  for (const auto s : seeds) first.push_back(counter.run(s, 3).count);
  for (const auto s : seeds) second.push_back(counter.run(s, 3).count);
  EXPECT_EQ(first, second);
}

TEST(Khop, StatsReportWork) {
  gb::Matrix<gb::Bool> A(4, 4);
  A.build({0, 1, 2}, {1, 2, 3}, {1, 1, 1});
  const auto AT = gb::transposed(A);
  const auto st = khop_count(A, AT, 0, 2, Direction::kForcePush);
  EXPECT_EQ(st.count, 2u);
  EXPECT_EQ(st.hops_executed, 2u);
  EXPECT_EQ(st.push_steps, 2u);
  EXPECT_EQ(st.pull_steps, 0u);
  EXPECT_GE(st.frontier_edges, 2u);
}

TEST(Khop, ZeroHopsYieldsZero) {
  gb::Matrix<gb::Bool> A(3, 3);
  A.build({0}, {1}, {1});
  const auto AT = gb::transposed(A);
  EXPECT_EQ(khop_count(A, AT, 0, 0).count, 0u);
}

TEST(Khop, CycleCountsSeedAtReturnDepth) {
  // 0 -> 1 -> 0 cycle (Cypher `-[*1..2]->` includes the path back to the
  // source): 1-hop counts {1}; 2-hop counts {1, 0}.
  gb::Matrix<gb::Bool> A(2, 2);
  A.build({0, 1}, {1, 0}, {1, 1});
  const auto AT = gb::transposed(A);
  EXPECT_EQ(khop_count(A, AT, 0, 1).count, 1u);
  EXPECT_EQ(khop_count(A, AT, 0, 2).count, 2u);
}

}  // namespace
}  // namespace rg::algo
