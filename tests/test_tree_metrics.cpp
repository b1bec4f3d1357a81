#include "metrics/tree_metrics.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "net/graph_underlay.hpp"
#include "topology/simple.hpp"
#include "util/stats.hpp"

namespace vdm::metrics {
namespace {

using overlay::Membership;

Membership star_tree(std::size_t n) {
  Membership m(n);
  m.activate(0, 8);
  for (net::HostId h = 1; h < n; ++h) {
    m.activate(h, 8);
    m.attach(h, 0, 1.0);
  }
  return m;
}

Membership chain_tree(std::size_t n) {
  Membership m(n);
  m.activate(0, 8);
  for (net::HostId h = 1; h < n; ++h) {
    m.activate(h, 8);
    m.attach(h, h - 1, 1.0);
  }
  return m;
}

TEST(TreeMetrics, EmptyTreeIsZero) {
  Membership m(3);
  m.activate(0, 4);
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0});
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_EQ(t.members, 1u);
  EXPECT_DOUBLE_EQ(t.stress_avg, 0.0);
  EXPECT_DOUBLE_EQ(t.stretch_avg, 0.0);
  EXPECT_DOUBLE_EQ(t.network_usage, 0.0);
}

TEST(TreeMetrics, StarOnMatrixUnderlayIsUnitStretch) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0, 30.0});
  const Membership m = star_tree(4);
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_EQ(t.members, 4u);
  EXPECT_DOUBLE_EQ(t.stretch_avg, 1.0);  // every member served directly
  EXPECT_DOUBLE_EQ(t.stretch_min, 1.0);
  EXPECT_DOUBLE_EQ(t.stretch_max, 1.0);
  EXPECT_DOUBLE_EQ(t.hop_avg, 1.0);
  EXPECT_DOUBLE_EQ(t.hop_max, 1.0);
  // One pseudo-link per member pair, each used once.
  EXPECT_DOUBLE_EQ(t.stress_avg, 1.0);
  EXPECT_EQ(t.links_used, 3u);
  // One-way delays: 5 + 10 + 15.
  EXPECT_DOUBLE_EQ(t.network_usage, 30.0);
}

TEST(TreeMetrics, ChainOnLineIsUnitStretchButDeep) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0, 30.0});
  const Membership m = chain_tree(4);
  const TreeMetrics t = measure_tree(m, 0, u);
  // Colinear relays add no extra delay: (5+5+5)/15 = 1.
  EXPECT_DOUBLE_EQ(t.stretch_avg, 1.0);
  EXPECT_DOUBLE_EQ(t.hop_avg, 2.0);  // depths 1, 2, 3
  EXPECT_DOUBLE_EQ(t.hop_max, 3.0);
  EXPECT_DOUBLE_EQ(t.hop_leaf_avg, 3.0);  // single leaf at depth 3
  EXPECT_DOUBLE_EQ(t.network_usage, 15.0);
}

TEST(TreeMetrics, DetourInflatesStretch) {
  // Tree S -> A -> B where B sits geometrically next to S: the overlay
  // detour through A doubles B's delay.
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 1.0});
  Membership m(3);
  m.activate(0, 8);
  m.activate(1, 8);
  m.activate(2, 8);
  m.attach(1, 0, 10.0);
  m.attach(2, 1, 9.0);
  const TreeMetrics t = measure_tree(m, 0, u);
  // B: overlay delay = (10 + 9)/2 = 9.5 vs direct 0.5 -> stretch 19.
  EXPECT_DOUBLE_EQ(t.stretch_max, 19.0);
  EXPECT_DOUBLE_EQ(t.stretch_min, 1.0);  // A itself is direct
}

TEST(TreeMetrics, LeafAveragesExcludeInteriorNodes) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0, 30.0});
  Membership m(4);
  for (net::HostId h = 0; h < 4; ++h) m.activate(h, 8);
  m.attach(1, 0, 10.0);  // interior
  m.attach(2, 1, 10.0);  // leaf at depth 2
  m.attach(3, 1, 20.0);  // leaf at depth 2
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_DOUBLE_EQ(t.hop_leaf_avg, 2.0);
  EXPECT_DOUBLE_EQ(t.hop_avg, (1.0 + 2.0 + 2.0) / 3.0);
}

TEST(TreeMetrics, StressCountsSharedPhysicalLinks) {
  // Routers r0 - r1; source host on r0, two receivers on r1, both fed
  // directly: the r0-r1 core link carries the chunk twice.
  net::Graph g = topo::make_line(2, 0.010);
  const net::NodeId hs = g.add_node();
  const net::NodeId ha = g.add_node();
  const net::NodeId hb = g.add_node();
  g.add_link(hs, 0, 0.001);
  g.add_link(ha, 1, 0.001);
  g.add_link(hb, 1, 0.001);
  const net::GraphUnderlay u(std::move(g), {hs, ha, hb});

  const Membership m = star_tree(3);
  const TreeMetrics t = measure_tree(m, 0, u);
  // Used links: hs-r0 (x2), r0-r1 (x2), r1-ha (x1), r1-hb (x1).
  EXPECT_EQ(t.links_used, 4u);
  EXPECT_DOUBLE_EQ(t.stress_avg, 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(t.stress_max, 2.0);
}

TEST(TreeMetrics, RelayingThroughPeersReducesStress) {
  // Same substrate, but chaining the second receiver behind the first
  // makes every physical link carry the chunk exactly once.
  net::Graph g = topo::make_line(2, 0.010);
  const net::NodeId hs = g.add_node();
  const net::NodeId ha = g.add_node();
  const net::NodeId hb = g.add_node();
  g.add_link(hs, 0, 0.001);
  g.add_link(ha, 1, 0.001);
  g.add_link(hb, 1, 0.001);
  const net::GraphUnderlay u(std::move(g), {hs, ha, hb});

  Membership m(3);
  for (net::HostId h = 0; h < 3; ++h) m.activate(h, 8);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);  // relay through host 1
  const TreeMetrics t = measure_tree(m, 0, u);
  // The core r0-r1 link now carries the chunk once (vs twice in the star);
  // only host 1's access link is double-used (down to the host, back up to
  // its child): traversals {hs-r0: 1, r0-r1: 1, r1-ha: 2, r1-hb: 1}.
  EXPECT_DOUBLE_EQ(t.stress_max, 2.0);
  EXPECT_DOUBLE_EQ(t.stress_avg, 5.0 / 4.0);  // < the star's 6/4
}

TEST(TreeMetrics, DetachedMembersAreIgnoredByPathMetrics) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0});
  Membership m(3);
  for (net::HostId h = 0; h < 3; ++h) m.activate(h, 8);
  m.attach(1, 0, 10.0);
  // Host 2 alive but detached (mid-reconnect).
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_EQ(t.members, 3u);        // counted as members
  EXPECT_DOUBLE_EQ(t.hop_max, 1.0);  // but not in the tree paths
}

TEST(TreeMetrics, TriangleViolationGivesSubUnitStretch) {
  // The paper observes stretch < 1 on PlanetLab (§5.4.3): overlay routing
  // through a relay can beat the "direct" path when the underlay violates
  // the triangle inequality.
  const net::MatrixUnderlay u = testutil::rtt_underlay(
      {{0, 10, 30}, {10, 0, 10}, {30, 10, 0}});
  Membership m(3);
  for (net::HostId h = 0; h < 3; ++h) m.activate(h, 8);
  m.attach(1, 0, 10.0);
  m.attach(2, 1, 10.0);
  const TreeMetrics t = measure_tree(m, 0, u);
  // Host 2: overlay (5 + 5) vs direct 15 -> stretch 2/3.
  EXPECT_NEAR(t.stretch_min, 2.0 / 3.0, 1e-12);
}

TEST(TreeMetrics, BfsDepthMatchesMembershipDepth) {
  // Hop metrics come from the capture's BFS depths; they must equal a fold
  // of Membership::depth over the same members in the same (BFS) order, on
  // forests with detached fragments and crash orphans. One scratch serves
  // every tree, so a stale depth from an earlier capture would show.
  constexpr std::size_t kHosts = 60;
  std::vector<double> pos(kHosts);
  for (std::size_t i = 0; i < kHosts; ++i) pos[i] = static_cast<double>(i) * 3.0;
  const net::MatrixUnderlay u = testutil::line_underlay(pos);
  TreeMetricsScratch scratch;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    const Membership m = testutil::random_forest(kHosts, rng);
    util::OnlineStats all, leaves;
    const std::vector<net::HostId> bfs = m.subtree(0);
    for (std::size_t i = 1; i < bfs.size(); ++i) {
      const auto hops = static_cast<double>(m.depth(bfs[i]));
      all.add(hops);
      if (m.member(bfs[i]).children.empty()) leaves.add(hops);
    }
    const TreeMetrics t = measure_tree(m, 0, u, scratch);
    EXPECT_EQ(t.members, m.alive_members().size()) << seed;
    EXPECT_EQ(t.hop_avg, all.mean()) << seed;
    EXPECT_EQ(t.hop_max, all.empty() ? 0.0 : all.max()) << seed;
    EXPECT_EQ(t.hop_leaf_avg, leaves.mean()) << seed;
  }
}

}  // namespace
}  // namespace vdm::metrics
