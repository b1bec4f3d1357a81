// Differential test of the lossless chunk flood: on a lossless underlay the
// session keeps per-member flood state cached and refreshes only what a
// mutation or threshold moved (Session::flood_incremental). Each config runs
// twice through run_once — once as is, once over a forwarding underlay that
// reports zero_loss() == false, which forces the per-edge flood — and every
// result scalar, epoch sample and session counter must match bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "net/underlay.hpp"

namespace vdm {
namespace {

namespace ex = experiments;
namespace ov = overlay;

/// Forwards every read to the built substrate. `force_per_edge` hides its
/// zero loss from the session; otherwise the view is transparent.
class ForwardingUnderlay final : public net::Underlay, public ex::UnderlayView {
 public:
  explicit ForwardingUnderlay(bool force_per_edge)
      : force_per_edge_(force_per_edge) {}

  const net::Underlay& view(const net::Underlay& built) override {
    inner_ = &built;
    built_zero_loss_ = built.zero_loss();
    return *this;
  }
  bool built_zero_loss() const { return built_zero_loss_; }

  std::size_t num_hosts() const override { return inner_->num_hosts(); }
  sim::Time delay(net::HostId a, net::HostId b) const override {
    return inner_->delay(a, b);
  }
  double loss(net::HostId a, net::HostId b) const override {
    return inner_->loss(a, b);
  }
  std::vector<net::LinkId> path(net::HostId a, net::HostId b) const override {
    return inner_->path(a, b);
  }
  void for_each_path_link(
      net::HostId a, net::HostId b,
      util::FunctionRef<void(net::LinkId)> visit) const override {
    inner_->for_each_path_link(a, b, visit);
  }
  double link_delay(net::LinkId link) const override {
    return inner_->link_delay(link);
  }
  std::size_t num_links() const override { return inner_->num_links(); }
  bool concurrent_reads() const override { return inner_->concurrent_reads(); }
  bool zero_loss() const override {
    return !force_per_edge_ && inner_->zero_loss();
  }

 private:
  const net::Underlay* inner_ = nullptr;
  bool force_per_edge_;
  bool built_zero_loss_ = false;
};

void expect_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_same_counters(const ov::Session::Counters& a,
                          const ov::Session::Counters& b) {
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.data_transmissions, b.data_transmissions);
  EXPECT_EQ(a.chunks_emitted, b.chunks_emitted);
  EXPECT_EQ(a.chunks_expected, b.chunks_expected);
  EXPECT_EQ(a.chunks_delivered, b.chunks_delivered);
  EXPECT_EQ(a.joins_completed, b.joins_completed);
  EXPECT_EQ(a.reconnects_completed, b.reconnects_completed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.refines_run, b.refines_run);
  EXPECT_EQ(a.refine_switches, b.refine_switches);
}

void expect_same_result(const ex::RunResult& a, const ex::RunResult& b) {
  const std::vector<std::pair<const char*, double ex::RunResult::*>> scalars = {
      {"stress", &ex::RunResult::stress},
      {"stress_max", &ex::RunResult::stress_max},
      {"stretch", &ex::RunResult::stretch},
      {"stretch_leaf", &ex::RunResult::stretch_leaf},
      {"stretch_max", &ex::RunResult::stretch_max},
      {"stretch_min", &ex::RunResult::stretch_min},
      {"hopcount", &ex::RunResult::hopcount},
      {"hop_leaf", &ex::RunResult::hop_leaf},
      {"hop_max", &ex::RunResult::hop_max},
      {"loss", &ex::RunResult::loss},
      {"overhead", &ex::RunResult::overhead},
      {"overhead_per_chunk", &ex::RunResult::overhead_per_chunk},
      {"network_usage", &ex::RunResult::network_usage},
      {"startup_avg", &ex::RunResult::startup_avg},
      {"startup_max", &ex::RunResult::startup_max},
      {"startup_p50", &ex::RunResult::startup_p50},
      {"startup_p99", &ex::RunResult::startup_p99},
      {"join_rate", &ex::RunResult::join_rate},
      {"reconnect_avg", &ex::RunResult::reconnect_avg},
      {"reconnect_max", &ex::RunResult::reconnect_max},
      {"detection_avg", &ex::RunResult::detection_avg},
      {"detection_max", &ex::RunResult::detection_max},
      {"outage_avg", &ex::RunResult::outage_avg},
      {"outage_max", &ex::RunResult::outage_max},
      {"mst_ratio", &ex::RunResult::mst_ratio},
  };
  for (const auto& [name, field] : scalars) expect_bits(a.*field, b.*field, name);
  EXPECT_EQ(a.final_members, b.final_members);
  expect_same_counters(a.totals, b.totals);

  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const metrics::EpochSample& x = a.epochs[i];
    const metrics::EpochSample& y = b.epochs[i];
    const std::string at = "epoch " + std::to_string(i);
    expect_bits(x.at, y.at, at + " at");
    expect_bits(x.loss_rate, y.loss_rate, at + " loss_rate");
    expect_bits(x.overhead, y.overhead, at + " overhead");
    expect_bits(x.overhead_per_chunk, y.overhead_per_chunk, at + " per chunk");
    expect_bits(x.tree.stretch_avg, y.tree.stretch_avg, at + " stretch");
    expect_bits(x.tree.hop_avg, y.tree.hop_avg, at + " hops");
    EXPECT_EQ(x.control_messages, y.control_messages) << at;
    EXPECT_EQ(x.data_transmissions, y.data_transmissions) << at;
    EXPECT_EQ(x.members, y.members) << at;
    EXPECT_EQ(x.startup_times, y.startup_times) << at;
    EXPECT_EQ(x.reconnect_times, y.reconnect_times) << at;
    EXPECT_EQ(x.detection_times, y.detection_times) << at;
    EXPECT_EQ(x.outage_times, y.outage_times) << at;
  }
}

/// Runs `cfg` with the cached flood and with the forced per-edge flood and
/// requires identical results. A coordinate substrate picks its placement
/// mode from the underlay's concrete type, so locating and concurrent joins
/// there compare two forwarded runs (same placement mode on both sides);
/// every other config compares the plain run_once against the forced one.
void expect_paths_agree(ex::RunConfig cfg) {
  cfg.keep_epochs = true;
  const bool coord = cfg.substrate == ex::Substrate::kCoordUs ||
                     cfg.substrate == ex::Substrate::kCoordWorld ||
                     cfg.substrate == ex::Substrate::kCoordPlane;
  const bool typed_placement =
      coord && cfg.session.join_mode != ov::JoinMode::kSequential;

  ForwardingUnderlay transparent(/*force_per_edge=*/false);
  ex::RunConfig cached_cfg = cfg;
  if (typed_placement) cached_cfg.underlay_view = &transparent;
  const ex::RunResult cached = ex::run_once(cached_cfg);

  ForwardingUnderlay forced(/*force_per_edge=*/true);
  ex::RunConfig forced_cfg = cfg;
  forced_cfg.underlay_view = &forced;
  const ex::RunResult per_edge = ex::run_once(forced_cfg);

  ASSERT_TRUE(forced.built_zero_loss()) << "config is not lossless";
  ASSERT_GT(per_edge.totals.chunks_emitted, 0u);
  ASSERT_GT(per_edge.totals.chunks_expected, 0u);
  expect_same_result(cached, per_edge);
  // The per-edge flood evaluates every reached member of every chunk; the
  // cache re-evaluates only what moved.
  EXPECT_GE(per_edge.totals.flood_visits, per_edge.totals.chunks_expected);
  EXPECT_LT(cached.totals.flood_visits, per_edge.totals.flood_visits);
}

/// Short slots timeline with heavy churn over a tight host pool, so churn
/// victims come back (host reuse) within the run.
ex::RunConfig base(ex::Substrate substrate, ex::Proto protocol,
                   std::size_t members) {
  ex::RunConfig c;
  c.substrate = substrate;
  c.protocol = protocol;
  c.scenario.target_members = members;
  c.scenario.join_phase = 200.0;
  c.scenario.total_time = 1400.0;
  c.scenario.churn_interval = 100.0;
  c.scenario.settle_time = 20.0;
  c.scenario.churn_rate = 0.2;
  c.host_pool = members + members / 4 + 2;
  c.session.chunk_rate = 1.0;
  c.compute_mst_ratio = false;
  c.seed = 11;
  return c;
}

void with_heartbeats(ex::RunConfig& c) {
  c.scenario.crash_fraction = 0.5;
  c.session.faults.heartbeat_period = 1.0;
  // Lost probes on a lossless data plane: false-positive detaches.
  c.session.faults.lossy_control = true;
  c.session.faults.control_loss_extra = 0.2;
}

TEST(FloodIncremental, CoordSequentialVdmLeaveChurn) {
  expect_paths_agree(base(ex::Substrate::kCoordPlane, ex::Proto::kVdm, 120));
}

TEST(FloodIncremental, CoordConcurrentFlashCrowdWithCrashes) {
  ex::RunConfig c = base(ex::Substrate::kCoordUs, ex::Proto::kVdm, 80);
  c.session.join_mode = ov::JoinMode::kConcurrent;
  c.scenario.flash_count = 300;
  c.scenario.flash_at = 200.0;
  c.host_pool = 80 + 300 + 40;
  with_heartbeats(c);
  expect_paths_agree(c);
}

TEST(FloodIncremental, CoordLocatingHmtpWithPlayoutBuffer) {
  ex::RunConfig c = base(ex::Substrate::kCoordWorld, ex::Proto::kHmtp, 100);
  c.session.join_mode = ov::JoinMode::kLocating;
  c.session.buffer_seconds = 1.5;
  expect_paths_agree(c);
}

TEST(FloodIncremental, MatrixHmtpRefinementWithCrashes) {
  ex::RunConfig c = base(ex::Substrate::kGeoUs, ex::Proto::kHmtp, 90);
  with_heartbeats(c);
  expect_paths_agree(c);
}

TEST(FloodIncremental, MatrixConcurrentVdmPoissonCrashes) {
  ex::RunConfig c = base(ex::Substrate::kGeoWorld, ex::Proto::kVdm, 90);
  c.session.join_mode = ov::JoinMode::kConcurrent;
  c.workload.kind = ov::WorkloadKind::kPoisson;
  c.workload.mean_session = 300.0;
  with_heartbeats(c);
  expect_paths_agree(c);
}

TEST(FloodIncremental, GraphLocatingVdmRefineWithCrashes) {
  ex::RunConfig c = base(ex::Substrate::kTransitStub, ex::Proto::kVdmRefine, 80);
  c.session.join_mode = ov::JoinMode::kLocating;
  c.vdm_refine_period = 60.0;
  with_heartbeats(c);
  expect_paths_agree(c);
}

TEST(FloodIncremental, GraphSequentialHmtpInstantCrashes) {
  ex::RunConfig c = base(ex::Substrate::kTransitStub, ex::Proto::kHmtp, 80);
  c.scenario.crash_fraction = 0.5;  // no heartbeats: orphans rejoin at once
  expect_paths_agree(c);
}

/// Soak-sized run with paranoid_checks: every chunk also runs the per-edge
/// flood and requires equal sums (and every mutation validates the tree).
TEST(FloodIncremental, ParanoidSoakCrossChecksEveryChunk) {
  ex::RunConfig c = base(ex::Substrate::kCoordUs, ex::Proto::kVdm, 400);
  c.session.join_mode = ov::JoinMode::kConcurrent;
  c.scenario.flash_count = 800;
  c.scenario.flash_at = 200.0;
  c.scenario.total_time = 2400.0;
  c.host_pool = 400 + 800 + 200;
  c.workload.kind = ov::WorkloadKind::kPoisson;
  c.workload.mean_session = 400.0;
  with_heartbeats(c);
  c.session.paranoid_checks = true;
  const ex::RunResult r = ex::run_once(c);
  EXPECT_GT(r.totals.chunks_emitted, 2000u);
  EXPECT_GT(r.totals.crashes, 100u);
  EXPECT_LT(r.totals.chunks_delivered, r.totals.chunks_expected);
}

}  // namespace
}  // namespace vdm
