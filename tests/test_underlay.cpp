#include "net/graph_underlay.hpp"
#include "net/matrix_underlay.hpp"

#include <gtest/gtest.h>

#include <set>

#include "topology/simple.hpp"
#include "util/require.hpp"

namespace vdm::net {
namespace {

GraphUnderlay line_underlay() {
  // Routers 0-1-2; hosts 3 (on router 0) and 4 (on router 2).
  Graph g = topo::make_line(3, 0.010);
  const NodeId h1 = g.add_node();
  const NodeId h2 = g.add_node();
  g.add_link(h1, 0, 0.001);
  g.add_link(h2, 2, 0.002);
  return GraphUnderlay(std::move(g), {h1, h2});
}

TEST(GraphUnderlay, DelayAndRtt) {
  const GraphUnderlay u = line_underlay();
  EXPECT_EQ(u.num_hosts(), 2u);
  EXPECT_NEAR(u.delay(0, 1), 0.001 + 0.020 + 0.002, 1e-12);
  EXPECT_NEAR(u.rtt(0, 1), 2 * 0.023, 1e-12);
}

TEST(GraphUnderlay, PathTraversesAccessAndCoreLinks) {
  const GraphUnderlay u = line_underlay();
  EXPECT_EQ(u.path(0, 1).size(), 4u);  // access + 2 core + access
  EXPECT_TRUE(u.path(0, 0).empty());
}

TEST(GraphUnderlay, LinkDelayLookup) {
  const GraphUnderlay u = line_underlay();
  double sum = 0.0;
  for (const LinkId l : u.path(0, 1)) sum += u.link_delay(l);
  EXPECT_NEAR(sum, u.delay(0, 1), 1e-12);
}

TEST(GraphUnderlay, LossCompoundsOverPath) {
  Graph g = topo::make_line(2, 0.010, 0.1);
  const NodeId h1 = g.add_node();
  const NodeId h2 = g.add_node();
  g.add_link(h1, 0, 0.001, 0.05);
  g.add_link(h2, 1, 0.001, 0.0);
  const GraphUnderlay u(std::move(g), {h1, h2});
  EXPECT_NEAR(u.loss(0, 1), 1.0 - 0.95 * 0.9 * 1.0, 1e-12);
}

TEST(GraphUnderlay, ZeroLossOnlyWhenEveryLinkIsLossless) {
  EXPECT_TRUE(line_underlay().zero_loss());
  EXPECT_EQ(line_underlay().loss(0, 1), 0.0);

  // One lossy access link makes the whole graph lossy, even for pairs
  // whose path avoids it.
  Graph g = topo::make_line(2, 0.010);
  const NodeId h1 = g.add_node();
  const NodeId h2 = g.add_node();
  const NodeId h3 = g.add_node();
  g.add_link(h1, 0, 0.001);
  g.add_link(h2, 1, 0.001);
  g.add_link(h3, 1, 0.001, 0.02);
  GraphUnderlay lossy(std::move(g), {h1, h2, h3});
  EXPECT_FALSE(lossy.zero_loss());
  EXPECT_EQ(lossy.loss(0, 1), 0.0);
  EXPECT_GT(lossy.loss(0, 2), 0.0);

  // rebind() recomputes it for the new topology, in both directions.
  Graph old_graph;
  std::vector<NodeId> old_hosts;
  lossy.release(old_graph, old_hosts);
  Graph clean = topo::make_line(2, 0.010);
  const NodeId c1 = clean.add_node();
  const NodeId c2 = clean.add_node();
  clean.add_link(c1, 0, 0.001);
  clean.add_link(c2, 1, 0.001);
  lossy.rebind(std::move(clean), {c1, c2});
  EXPECT_TRUE(lossy.zero_loss());
  lossy.release(old_graph, old_hosts);
  Graph dirty = topo::make_line(2, 0.010, 0.01);
  const NodeId d1 = dirty.add_node();
  const NodeId d2 = dirty.add_node();
  dirty.add_link(d1, 0, 0.001);
  dirty.add_link(d2, 1, 0.001);
  lossy.rebind(std::move(dirty), {d1, d2});
  EXPECT_FALSE(lossy.zero_loss());
  EXPECT_GT(lossy.loss(0, 1), 0.0);
}

TEST(GraphUnderlay, RejectsEmptyHostList) {
  Graph g = topo::make_line(2);
  EXPECT_THROW(GraphUnderlay(std::move(g), {}), util::InvariantError);
}

TEST(GraphUnderlay, RejectsOutOfRangeHostVertex) {
  Graph g = topo::make_line(2);
  EXPECT_THROW(GraphUnderlay(std::move(g), {7}), util::InvariantError);
}

// ------------------------------------------------------------- Matrix

MatrixUnderlay small_matrix() {
  // 3 hosts; delays 0-1: 10ms, 0-2: 20ms, 1-2: 35ms (triangle violation
  // relative to 0 as relay: 10+20 < 35 — allowed, as on the real Internet).
  std::vector<double> d{0.000, 0.010, 0.020,
                        0.010, 0.000, 0.035,
                        0.020, 0.035, 0.000};
  std::vector<double> l{0.00, 0.01, 0.02,
                        0.01, 0.00, 0.03,
                        0.02, 0.03, 0.00};
  return MatrixUnderlay(3, std::move(d), std::move(l));
}

TEST(MatrixUnderlay, DelayAndLossLookup) {
  const MatrixUnderlay u = small_matrix();
  EXPECT_EQ(u.num_hosts(), 3u);
  EXPECT_DOUBLE_EQ(u.delay(0, 1), 0.010);
  EXPECT_DOUBLE_EQ(u.delay(1, 2), 0.035);
  EXPECT_DOUBLE_EQ(u.loss(1, 2), 0.03);
  EXPECT_DOUBLE_EQ(u.rtt(0, 2), 0.040);
}

TEST(MatrixUnderlay, EmptyLossMeansZero) {
  std::vector<double> d{0.0, 0.01, 0.01, 0.0};
  const MatrixUnderlay u(2, std::move(d));
  EXPECT_DOUBLE_EQ(u.loss(0, 1), 0.0);
}

TEST(MatrixUnderlay, PairLinkIsBijective) {
  const MatrixUnderlay u = small_matrix();
  std::set<LinkId> ids;
  for (HostId a = 0; a < 3; ++a) {
    for (HostId b = a + 1; b < 3; ++b) {
      const LinkId id = u.pair_link(a, b);
      EXPECT_EQ(id, u.pair_link(b, a));  // unordered
      ids.insert(id);
      EXPECT_LT(id, u.num_links());
    }
  }
  EXPECT_EQ(ids.size(), u.num_links());
}

TEST(MatrixUnderlay, LinkDelayInvertsPairLink) {
  const MatrixUnderlay u = small_matrix();
  for (HostId a = 0; a < 3; ++a) {
    for (HostId b = a + 1; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(u.link_delay(u.pair_link(a, b)), u.delay(a, b));
    }
  }
  EXPECT_THROW(u.link_delay(u.num_links()), util::InvariantError);
}

TEST(MatrixUnderlay, PathIsOnePseudoLink) {
  const MatrixUnderlay u = small_matrix();
  const auto p = u.path(0, 2);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], u.pair_link(0, 2));
  EXPECT_TRUE(u.path(1, 1).empty());
}

TEST(MatrixUnderlay, ValidatesShape) {
  EXPECT_THROW(MatrixUnderlay(2, {0.0, 1.0}), util::InvariantError);  // wrong size
  EXPECT_THROW(MatrixUnderlay(2, {0.5, 0.01, 0.01, 0.0}), util::InvariantError);  // diag
  EXPECT_THROW(MatrixUnderlay(2, {0.0, 0.01, 0.02, 0.0}), util::InvariantError);  // asym
  EXPECT_THROW(MatrixUnderlay(2, {0.0, -0.01, -0.01, 0.0}), util::InvariantError);  // neg
}

TEST(MatrixUnderlay, LargerPairLinkBijection) {
  const std::size_t n = 17;
  std::vector<double> d(n * n, 0.001);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0.0;
  const MatrixUnderlay u(n, std::move(d));
  std::set<LinkId> ids;
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) ids.insert(u.pair_link(a, b));
  }
  EXPECT_EQ(ids.size(), n * (n - 1) / 2);
  EXPECT_EQ(*ids.rbegin(), static_cast<LinkId>(n * (n - 1) / 2 - 1));
}

}  // namespace
}  // namespace vdm::net
