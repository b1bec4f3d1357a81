#include <gtest/gtest.h>

#include <sstream>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "overlay/workload.hpp"
#include "testbed/controller.hpp"
#include "testbed/dot_export.hpp"
#include "testbed/node_pool.hpp"
#include "testbed/report.hpp"
#include "testbed/scenario_file.hpp"
#include "util/require.hpp"

namespace vdm::testbed {
namespace {

// -------------------------------------------------------------- node pool

TEST(NodePool, HealthRatesRoughlyMatchParams) {
  util::Rng rng(1);
  PoolParams p;
  p.num_nodes = 2000;
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  const FilterReport r = filter_nodes(pool);
  EXPECT_EQ(r.total, 2000u);
  EXPECT_NEAR(static_cast<double>(r.dropped_unresponsive) / 2000.0, 0.10, 0.03);
  EXPECT_GT(r.usable, 1500u);
  EXPECT_EQ(r.total, r.usable + r.dropped_unresponsive + r.dropped_no_ping_out +
                         r.dropped_agent);
}

TEST(NodePool, UsableNodesMatchFilterCount) {
  util::Rng rng(2);
  PoolParams p;
  p.num_nodes = 300;
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  EXPECT_EQ(pool.usable_nodes().size(), filter_nodes(pool).usable);
}

TEST(NodePool, LazyNodesHaveSlownessAboveOne) {
  util::Rng rng(3);
  PoolParams p;
  p.num_nodes = 500;
  p.frac_lazy = 1.0;  // everyone lazy
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  for (const NodeHealth& h : pool.health) {
    EXPECT_GE(h.slowness, p.lazy_slowness_min);
    EXPECT_LE(h.slowness, p.lazy_slowness_max);
  }
}

TEST(NodePool, PerfectPoolKeepsEverything) {
  util::Rng rng(4);
  PoolParams p;
  p.num_nodes = 50;
  p.frac_unresponsive = p.frac_no_ping_out = p.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  EXPECT_EQ(filter_nodes(pool).usable, 50u);
}

// --------------------------------------------------------- scenario files

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  for (net::HostId h = 1; h <= 30; ++h) spec.nodes.push_back(h);
  spec.members = 10;
  spec.join_phase = 100.0;
  spec.total_time = 500.0;
  spec.churn_interval = 100.0;
  spec.churn_rate = 0.2;
  return spec;
}

using overlay::WorkloadEvent;
using K = WorkloadEvent::Kind;

TEST(ScenarioFile, GenerateProducesWarmupThenChurn) {
  util::Rng rng(5);
  const ScenarioSpec spec = small_spec();
  const std::vector<WorkloadEvent> events = generate_scenario(spec, rng);
  ASSERT_FALSE(events.empty());
  EXPECT_LT(events.back().at, spec.total_time);  // all inside the horizon
  std::size_t joins = 0, leaves = 0;
  for (const WorkloadEvent& e : events) {
    EXPECT_GE(e.degree, 1);
    if (e.kind == K::kJoin) ++joins;
    if (e.kind == K::kLeave) ++leaves;
  }
  EXPECT_EQ(joins, 10u + leaves);  // each leave paired with a join
  EXPECT_GT(leaves, 0u);
}

TEST(ScenarioFile, EventsAreTimeOrdered) {
  util::Rng rng(6);
  const std::vector<WorkloadEvent> events = generate_scenario(small_spec(), rng);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
}

TEST(ScenarioFile, NoJoinOfAlreadyJoinedNode) {
  util::Rng rng(7);
  const std::vector<WorkloadEvent> events = generate_scenario(small_spec(), rng);
  std::vector<char> in(64, 0);
  for (const WorkloadEvent& e : events) {
    if (e.kind == K::kJoin) {
      EXPECT_FALSE(in[e.host]) << "double join of " << e.host;
      in[e.host] = 1;
    } else if (e.kind == K::kLeave) {
      EXPECT_TRUE(in[e.host]) << "leave of absent " << e.host;
      in[e.host] = 0;
    }
  }
}

TEST(ScenarioFile, WriteParseRoundTrip) {
  util::Rng rng(8);
  const std::vector<WorkloadEvent> events = generate_scenario(small_spec(), rng);
  std::ostringstream os;
  overlay::write_trace(os, events);
  std::vector<WorkloadEvent> back;
  overlay::parse_trace(os.str(), back);
  // Departures carry the default degree, so the lists compare equal.
  EXPECT_EQ(back, events);
}

TEST(ScenarioFile, CrashFractionTurnsDeparturesIntoCrashes) {
  ScenarioSpec spec = small_spec();
  spec.crash_fraction = 1.0;
  util::Rng rng(21);
  const std::vector<WorkloadEvent> events = generate_scenario(spec, rng);
  std::size_t crashes = 0, leaves = 0;
  for (const WorkloadEvent& e : events) {
    if (e.kind == K::kCrash) ++crashes;
    if (e.kind == K::kLeave) ++leaves;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(leaves, 0u);  // every departure is ungraceful

  // crash_fraction == 0 draws nothing: the stream matches the all-graceful
  // generation from the same seed event for event.
  util::Rng rng_a(22), rng_b(22);
  const std::vector<WorkloadEvent> graceful = generate_scenario(small_spec(), rng_a);
  ScenarioSpec zero = small_spec();
  zero.crash_fraction = 0.0;
  EXPECT_EQ(generate_scenario(zero, rng_b), graceful);
}

TEST(ScenarioFile, CrashVerbRoundTrips) {
  ScenarioSpec spec = small_spec();
  spec.crash_fraction = 0.5;
  util::Rng rng(23);
  const std::vector<WorkloadEvent> events = generate_scenario(spec, rng);
  std::ostringstream os;
  overlay::write_trace(os, events);
  EXPECT_NE(os.str().find(",crash,"), std::string::npos);
  std::vector<WorkloadEvent> back;
  overlay::parse_trace(os.str(), back);
  EXPECT_EQ(back, events);
  EXPECT_THROW(overlay::parse_trace("1.0 crash\n", back), util::InvariantError);
}

TEST(ScenarioFile, GenerateRejectsTooFewNodes) {
  util::Rng rng(9);
  ScenarioSpec spec = small_spec();
  spec.members = 100;  // > pool
  EXPECT_THROW(generate_scenario(spec, rng), util::InvariantError);
}

TEST(ScenarioFile, GenerateRejectsJoinPhasePastHorizon) {
  util::Rng rng(9);
  ScenarioSpec spec = small_spec();
  spec.join_phase = spec.total_time + 1.0;  // warmup joins would run past it
  EXPECT_THROW(generate_scenario(spec, rng), util::InvariantError);
}

// -------------------------------------------------------------- controller

TEST(Controller, RunsScenarioAndReports) {
  util::Rng rng(10);
  PoolParams pp;
  pp.num_nodes = 40;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);

  ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = 15;
  spec.join_phase = 60.0;
  spec.total_time = 300.0;
  spec.churn_interval = 60.0;
  spec.churn_rate = 0.1;
  util::Rng scenario_rng(11);
  const std::vector<WorkloadEvent> events = generate_scenario(spec, scenario_rng);

  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.measure_interval = 60.0;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(12));
  const SessionReport report = controller.run(events, spec.total_time);

  EXPECT_EQ(report.final_tree.members, 16u);
  EXPECT_GE(report.startup_times.size(), 15u);  // warmup joins + churn joins
  EXPECT_GT(report.totals.control_messages, 0u);
  EXPECT_GT(report.totals.chunks_emitted, 2000u);  // 10/s for 300s
  EXPECT_GE(report.mst_ratio, 1.0 - 1e-9);
  EXPECT_GE(report.epochs.size(), 4u);
  EXPECT_GE(report.loss_rate, 0.0);
  EXPECT_LT(report.loss_rate, 0.5);
}

TEST(Controller, CrashScenarioWithHeartbeatsReportsDetection) {
  // The testbed route of the failure model: a generated scenario whose
  // departures all crash, driven through MainController with heartbeat
  // detection on — the report must split detection from the rejoin.
  util::Rng rng(24);
  PoolParams pp;
  pp.num_nodes = 40;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);

  ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = 15;
  spec.join_phase = 60.0;
  spec.total_time = 300.0;
  spec.churn_interval = 60.0;
  spec.churn_rate = 0.1;
  spec.crash_fraction = 1.0;
  util::Rng scenario_rng(25);
  const std::vector<WorkloadEvent> events = generate_scenario(spec, scenario_rng);

  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.measure_interval = 60.0;
  cp.faults.heartbeat_period = 1.0;
  cp.faults.heartbeat_misses = 3;
  cp.faults.heartbeat_timeout = 0.5;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(26));
  const SessionReport report = controller.run(events, spec.total_time);

  EXPECT_GT(report.totals.crashes, 0u);
  ASSERT_FALSE(report.detection_times.empty());
  ASSERT_EQ(report.outage_times.size(), report.detection_times.size());
  for (std::size_t i = 0; i < report.detection_times.size(); ++i) {
    // The verdict needs a full silent streak: the first probe lands within
    // one period of the crash, then (misses - 1) more periods + timeout.
    EXPECT_GE(report.detection_times[i], 2.5);
    EXPECT_GT(report.outage_times[i], report.detection_times[i]);
  }
}

TEST(Controller, CrashChurnReportMatchesHexfloatGolden) {
  // Pins the testbed path bit for bit: a generated scenario with crash
  // churn, replayed by the MainController with heartbeat detection and
  // FlakyMetric probe noise and slowness. The fig5 and testbed-sweep
  // numbers all come out of this pipeline.
  util::Rng rng(41);
  PoolParams pp;
  pp.num_nodes = 60;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);

  ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = 20;
  spec.join_phase = 100.0;
  spec.total_time = 600.0;
  spec.churn_interval = 100.0;
  spec.churn_rate = 0.2;
  spec.crash_fraction = 0.5;
  spec.degree_min = 2;
  spec.degree_max = 5;
  util::Rng scenario_rng(42);
  const std::vector<WorkloadEvent> events = generate_scenario(spec, scenario_rng);

  std::vector<double> slowness;
  for (const NodeHealth& h : pool.health) slowness.push_back(h.slowness);
  const FlakyMetric metric(std::make_unique<overlay::DelayMetric>(),
                           std::move(slowness), 0.05);
  sim::Simulator simulator;
  core::VdmProtocol vdm;
  ControllerParams cp;
  cp.measure_interval = 100.0;
  cp.faults.heartbeat_period = 1.0;
  cp.faults.heartbeat_misses = 3;
  cp.faults.heartbeat_timeout = 0.5;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(43));
  const SessionReport report = controller.run(events, spec.total_time);

  double startup_sum = 0.0;
  for (const double t : report.startup_times) startup_sum += t;
  double reconnect_sum = 0.0;
  for (const double t : report.reconnect_times) reconnect_sum += t;
  EXPECT_EQ(report.loss_rate, 0x1.2d26428e571p-9);
  EXPECT_EQ(report.overhead, 0x1.ab21a562a0dd5p-3);
  EXPECT_EQ(report.mst_ratio, 0x1.e15605a245ce8p+0);
  EXPECT_EQ(report.final_tree.stretch_avg, 0x1.c3e7a252ca32p+0);
  EXPECT_EQ(report.final_tree.hop_avg, 0x1.d333333333332p+1);
  EXPECT_EQ(startup_sum, 0x1.506b886c39cb9p+2);
  EXPECT_EQ(reconnect_sum, 0x1.8e579e5b65c7dp+0);
  EXPECT_EQ(report.startup_times.size(), 40u);
  EXPECT_EQ(report.reconnect_times.size(), 12u);
  EXPECT_EQ(report.epochs.size(), 6u);
}

TEST(Controller, WorksWithHmtpToo) {
  util::Rng rng(13);
  PoolParams pp;
  pp.num_nodes = 30;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  std::vector<WorkloadEvent> events;
  for (net::HostId h = 1; h <= 10; ++h) {
    events.push_back({static_cast<double>(h), K::kJoin, h, 4});
  }

  sim::Simulator simulator;
  baselines::HmtpProtocol hmtp;
  overlay::DelayMetric metric;
  MainController controller(simulator, pool.topology.underlay, hmtp, metric,
                            ControllerParams{}, util::Rng(14));
  const SessionReport report = controller.run(events, 120.0);
  EXPECT_EQ(report.final_tree.members, 11u);
  EXPECT_GT(report.totals.refines_run, 0u);  // HMTP refinement timers fired
}

TEST(Controller, FlashBurstExpandsOverUnusedHosts) {
  // A hand-written scenario: 8 warmup joins, then a 15-strong flash crowd
  // written out as join lines at one instant on hosts used nowhere else.
  // The concurrent pipeline batches them by timestamp and must attach
  // every one of them.
  util::Rng rng(31);
  PoolParams pp;
  pp.num_nodes = 40;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  std::vector<WorkloadEvent> events;
  for (net::HostId h = 1; h <= 8; ++h) {
    events.push_back({static_cast<double>(h), K::kJoin, h, 4});
  }
  for (net::HostId h = 9; h <= 23; ++h) events.push_back({20.0, K::kJoin, h, 4});

  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.join_mode = overlay::JoinMode::kConcurrent;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(32));
  const SessionReport report = controller.run(events, 120.0);

  EXPECT_EQ(report.final_tree.members, 24u);  // source + 8 warmup + 15 flash
  EXPECT_EQ(report.totals.joins_completed, 23u);
  EXPECT_GE(report.startup_times.size(), 23u);
}

TEST(Controller, RejectsInvalidEvents) {
  // The testbed replays through overlay::validate_trace, like the
  // simulator's trace path, and refuses events past the end time.
  util::Rng rng(33);
  PoolParams pp;
  pp.num_nodes = 20;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  const auto expect_throw_with = [&](const std::vector<WorkloadEvent>& events,
                                     const std::string& needle) {
    sim::Simulator simulator;
    core::VdmProtocol vdm;
    overlay::DelayMetric metric;
    MainController controller(simulator, pool.topology.underlay, vdm, metric,
                              ControllerParams{}, util::Rng(34));
    try {
      controller.run(events, 100.0);
      FAIL() << "expected InvariantError mentioning: " << needle;
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw_with({{20.0, K::kJoin, 1, 4}, {10.0, K::kJoin, 2, 4}}, "sorted");
  expect_throw_with({{10.0, K::kJoin, 0, 4}}, "or the source");
  expect_throw_with({{10.0, K::kJoin, 20, 4}}, "20-host underlay");
  expect_throw_with({{10.0, K::kJoin, 1, 0}}, "degree");
  expect_throw_with({{150.0, K::kJoin, 1, 4}}, "end time");
}

TEST(FlakyMetric, SlowsMeasurementsOfLazyTargets) {
  const std::vector<double> delay{0.0, 0.010, 0.010, 0.0};
  const net::MatrixUnderlay u(2, delay);
  FlakyMetric flaky(std::make_unique<overlay::DelayMetric>(),
                    /*slowness=*/{1.0, 4.0}, /*noise=*/0.0);
  EXPECT_DOUBLE_EQ(flaky.measurement_time(u, 1, 0), 0.020);      // prompt target
  EXPECT_DOUBLE_EQ(flaky.measurement_time(u, 0, 1), 4 * 0.020);  // lazy target
  util::Rng rng(15);
  EXPECT_DOUBLE_EQ(flaky.measure(u, 0, 1, rng), 0.020);  // value unchanged
}

TEST(FlakyMetric, NoiseVariesMeasurements) {
  const std::vector<double> delay{0.0, 0.010, 0.010, 0.0};
  const net::MatrixUnderlay u(2, delay);
  FlakyMetric flaky(std::make_unique<overlay::DelayMetric>(), {1.0, 1.0}, 0.2);
  util::Rng rng(16);
  const double a = flaky.measure(u, 0, 1, rng);
  const double b = flaky.measure(u, 0, 1, rng);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------------ report

TEST(Report, ContinentOfParsesPrefix) {
  EXPECT_EQ(continent_of("US-West"), "US");
  EXPECT_EQ(continent_of("EU-North"), "EU");
  EXPECT_EQ(continent_of("Oceania"), "Oceania");
}

TEST(Report, ClusterStatsCountEdges) {
  util::Rng rng(17);
  topo::GeoParams gp;
  gp.num_hosts = 6;
  gp.regions = topo::world_regions();
  topo::GeoTopology geo = topo::make_geo(gp, rng);

  overlay::Membership tree(6);
  for (net::HostId h = 0; h < 6; ++h) tree.activate(h, 8);
  for (net::HostId h = 1; h < 6; ++h) tree.attach(h, 0, 1.0);
  const ClusterStats stats = cluster_stats(tree, 0, geo);
  EXPECT_EQ(stats.edges, 5u);
  EXPECT_EQ(stats.intra_region + stats.cross_continent +
                (stats.intra_continent - stats.intra_region),
            5u);
}

TEST(Report, DotExportIsWellFormed) {
  util::Rng rng(20);
  topo::GeoParams gp;
  gp.num_hosts = 5;
  topo::GeoTopology geo = topo::make_geo(gp, rng);
  overlay::Membership tree(5);
  for (net::HostId h = 0; h < 5; ++h) tree.activate(h, 8);
  tree.attach(1, 0, 1.0);
  tree.attach(2, 1, 1.0);
  tree.attach(3, 0, 1.0);
  std::ostringstream os;
  write_dot(tree, 0, geo, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n3"), std::string::npos);
  EXPECT_EQ(dot.find("n4"), std::string::npos);  // detached host not drawn
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // source marked
  EXPECT_NE(dot.find("ms\""), std::string::npos);          // edge delays
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Report, DotExportWithoutGeoOmitsRegions) {
  overlay::Membership tree(3);
  for (net::HostId h = 0; h < 3; ++h) tree.activate(h, 8);
  tree.attach(1, 0, 1.0);
  tree.attach(2, 1, 1.0);
  const std::vector<double> delay{0.0, 0.01, 0.02, 0.01, 0.0, 0.01, 0.02, 0.01, 0.0};
  const net::MatrixUnderlay u(3, delay);
  std::ostringstream os;
  DotOptions opts;
  opts.edge_delays = false;
  write_dot(tree, 0, u, os, opts);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_EQ(dot.find("ms"), std::string::npos);
  EXPECT_EQ(dot.find("US-"), std::string::npos);
}

TEST(Report, RenderTreeShowsAllNodes) {
  util::Rng rng(18);
  topo::GeoParams gp;
  gp.num_hosts = 4;
  topo::GeoTopology geo = topo::make_geo(gp, rng);
  overlay::Membership tree(4);
  for (net::HostId h = 0; h < 4; ++h) tree.activate(h, 8);
  tree.attach(1, 0, 1.0);
  tree.attach(2, 1, 1.0);
  tree.attach(3, 0, 1.0);
  const std::string out = render_tree(tree, 0, geo);
  EXPECT_NE(out.find("node 0"), std::string::npos);
  EXPECT_NE(out.find("(source)"), std::string::npos);
  EXPECT_NE(out.find("node 2"), std::string::npos);
  EXPECT_NE(out.find("node 3"), std::string::npos);
}

}  // namespace
}  // namespace vdm::testbed
