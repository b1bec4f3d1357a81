#include "overlay/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {
namespace {

using K = WorkloadEvent::Kind;

ScenarioParams small_scenario() {
  ScenarioParams p;
  p.target_members = 40;
  p.join_phase = 500.0;
  p.total_time = 8000.0;
  p.churn_interval = 250.0;
  p.settle_time = 50.0;
  return p;
}

WorkloadParams poisson(double mean_session = 1500.0) {
  WorkloadParams w;
  w.kind = WorkloadKind::kPoisson;
  w.mean_session = mean_session;
  return w;
}

/// Walks the event list as the driver would and returns the member count
/// at every measurement-grid instant of `p`.
std::vector<std::size_t> membership_at_grid(
    const ScenarioParams& p, const std::vector<WorkloadEvent>& events) {
  std::vector<sim::Time> grid{p.join_phase + p.settle_time};
  for (std::size_t i = 0;; ++i) {
    const sim::Time slot =
        grid.front() + static_cast<double>(i) * p.churn_interval;
    if (!(slot + p.churn_interval <= p.total_time)) break;
    grid.push_back(slot + p.churn_interval);
  }
  std::vector<std::size_t> members;
  std::size_t alive = 0, next = 0;
  for (const sim::Time t : grid) {
    while (next < events.size() && events[next].at <= t) {
      alive += events[next].kind == K::kJoin ? 1 : std::size_t(-1);
      ++next;
    }
    members.push_back(alive);
  }
  return members;
}

// ----------------------------------------------------------- generator

TEST(WorkloadGenerator, EventsSortedAndBalanced) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(1);
  const ScenarioParams p = small_scenario();
  generate_workload(p, poisson(), 200, 0, rng, events);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const WorkloadEvent& a, const WorkloadEvent& b) { return a.at < b.at; }));
  std::size_t joins = 0, departures = 0;
  for (const WorkloadEvent& ev : events) {
    EXPECT_LE(ev.at, p.total_time);
    EXPECT_LT(ev.host, 200u);
    EXPECT_NE(ev.host, 0u);  // the source never appears in a workload
    if (ev.kind == K::kJoin) {
      EXPECT_GE(ev.degree, 1);
      ++joins;
    } else {
      ++departures;
    }
  }
  // Every departure belongs to an earlier join; some members outlive the run.
  EXPECT_GE(joins, departures);
  EXPECT_GE(joins, p.target_members);
}

TEST(WorkloadGenerator, PoissonHoversAroundTarget) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(2);
  const ScenarioParams p = small_scenario();
  generate_workload(p, poisson(), 400, 0, rng, events);
  const std::vector<std::size_t> members = membership_at_grid(p, events);
  ASSERT_GT(members.size(), 10u);
  // Little's law pins the steady state at target_members; allow wide
  // stochastic slack but reject drift to half or double the target.
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_GT(members[i], p.target_members / 2) << "at grid point " << i;
    EXPECT_LT(members[i], p.target_members * 2) << "at grid point " << i;
  }
}

TEST(WorkloadGenerator, DiurnalWaveModulatesArrivals) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(3);
  ScenarioParams p = small_scenario();
  p.total_time = 20000.0;
  WorkloadParams w;
  w.kind = WorkloadKind::kDiurnal;
  w.mean_session = 1500.0;
  w.diurnal_period = 20000.0 - p.join_phase;  // one full wave after joining
  w.diurnal_amplitude = 1.0;
  generate_workload(p, w, 400, 0, rng, events);
  // Arrival counts over the crest half vs the trough half of the sine.
  std::size_t crest = 0, trough = 0;
  const double half = p.join_phase + w.diurnal_period / 2.0;
  for (const WorkloadEvent& ev : events) {
    if (ev.kind != K::kJoin || ev.at <= p.join_phase) continue;
    (ev.at < half ? crest : trough) += 1;
  }
  ASSERT_GT(crest + trough, 50u);
  EXPECT_GT(crest, trough * 2);
}

TEST(WorkloadGenerator, CrashFractionProducesCrashes) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(4);
  ScenarioParams p = small_scenario();
  p.crash_fraction = 1.0;
  generate_workload(p, poisson(), 400, 0, rng, events);
  std::size_t leaves = 0, crashes = 0;
  for (const WorkloadEvent& ev : events) {
    leaves += ev.kind == K::kLeave;
    crashes += ev.kind == K::kCrash;
  }
  EXPECT_EQ(leaves, 0u);
  EXPECT_GT(crashes, 0u);
}

TEST(WorkloadGenerator, FlashCrowdJoinsAtOneInstant) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(5);
  ScenarioParams p = small_scenario();
  p.flash_count = 25;
  p.flash_at = 300.0;
  generate_workload(p, poisson(), 400, 0, rng, events);
  std::size_t flash = 0;
  for (const WorkloadEvent& ev : events) {
    if (ev.at == 300.0 && ev.kind == K::kJoin) ++flash;
  }
  EXPECT_GE(flash, 25u);
}

TEST(WorkloadGenerator, SameSeedSameList) {
  const ScenarioParams p = small_scenario();
  std::vector<WorkloadEvent> a, b;
  util::Rng ra(7), rb(7);
  generate_workload(p, poisson(), 300, 0, ra, a);
  generate_workload(p, poisson(), 300, 0, rb, b);
  EXPECT_EQ(a, b);
}

TEST(WorkloadGenerator, RejectsBadParameters) {
  std::vector<WorkloadEvent> out;
  util::Rng rng(8);
  const ScenarioParams p = small_scenario();
  WorkloadParams w = poisson();
  w.kind = WorkloadKind::kSlots;
  EXPECT_THROW(generate_workload(p, w, 200, 0, rng, out),
               util::InvariantError);
  w = poisson(0.0);
  EXPECT_THROW(generate_workload(p, w, 200, 0, rng, out),
               util::InvariantError);
  w = poisson();
  w.kind = WorkloadKind::kPareto;
  w.pareto_alpha = 1.0;  // mean session length would not exist
  EXPECT_THROW(generate_workload(p, w, 200, 0, rng, out),
               util::InvariantError);
}

// ----------------------------------------------------------- trace IO

TEST(WorkloadTrace, RoundTripIsExact) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(9);
  generate_workload(small_scenario(), poisson(), 300, 0, rng, events);
  std::ostringstream os;
  write_trace(os, events);
  std::vector<WorkloadEvent> back;
  parse_trace(os.str(), back);
  // Full-precision doubles round-trip bitwise, so the lists are equal —
  // the property the bit-identical replay guarantee rests on.
  EXPECT_EQ(events, back);
}

TEST(WorkloadTrace, ParserAcceptsCommasSpacesAndComments) {
  std::vector<WorkloadEvent> out;
  parse_trace(std::string("# header comment\n"
                          "10.5,join,3,5\n"
                          "20 join 4\n"
                          "  \n"
                          "30,leave,3\n"
                          "40 crash 4\n"
                          "99 terminate 0\n"),
              out);
  const std::vector<WorkloadEvent> expected{
      {10.5, K::kJoin, 3, 5},
      {20.0, K::kJoin, 4, 4},  // degree defaults to 4
      {30.0, K::kLeave, 3, 4},
      {40.0, K::kCrash, 4, 4},
  };
  EXPECT_EQ(out, expected);
}

TEST(WorkloadTrace, ParserRejectsMalformedWithLineNumber) {
  std::vector<WorkloadEvent> out;
  const auto expect_throw_with = [&](const std::string& text,
                                     const std::string& needle) {
    try {
      parse_trace(text, out);
      FAIL() << "expected InvariantError mentioning: " << needle;
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw_with("10,hop,3\n", "line 1");
  expect_throw_with("# ok\n10,join\n", "line 2");
  expect_throw_with("10,flash,50\n", "flash");
  // Times that are not finite numbers >= 0.
  expect_throw_with("5,join,1\nabc,join,3\n", "line 2");
  expect_throw_with("nan,join,3\n", "line 1");
  expect_throw_with("1e999,join,3\n", "line 1");
  expect_throw_with("-1,join,3\n", "line 1");
  expect_throw_with("# t,kind,host\n\n10\n", "line 3");  // no kind
  // Host ids that wrap, go negative or name kInvalidHost.
  expect_throw_with("10,join,4294967301,3\n", "line 1");
  expect_throw_with("10,join,-1\n", "line 1");
  expect_throw_with("10,join,4294967295\n", "line 1");
  // Degrees out of int range, fractional or < 1.
  expect_throw_with("10,join,3,99999999999\n", "line 1");
  expect_throw_with("10,join,3,2.5\n", "line 1");
  expect_throw_with("10,join,3,0\n", "line 1");
  // Trailing fields.
  expect_throw_with("10,leave,3,garbage\n", "line 1");
  expect_throw_with("10,crash,3,4\n", "line 1");
  expect_throw_with("10,join,3,4,4\n", "line 1");
}

TEST(WorkloadTrace, FileRoundTrip) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(10);
  generate_workload(small_scenario(), poisson(), 300, 0, rng, events);
  const std::string path = testing::TempDir() + "vdm_workload_trace.csv";
  write_trace_file(path, events);
  std::vector<WorkloadEvent> back;
  load_trace_file(path, back);
  EXPECT_EQ(events, back);
  EXPECT_THROW(load_trace_file(path + ".missing", back), util::InvariantError);
}

TEST(WorkloadKindFlag, ParsesAllSpellings) {
  WorkloadParams w;
  EXPECT_TRUE(parse_workload_kind("slots", w));
  EXPECT_EQ(w.kind, WorkloadKind::kSlots);
  EXPECT_TRUE(parse_workload_kind("poisson", w));
  EXPECT_EQ(w.kind, WorkloadKind::kPoisson);
  EXPECT_TRUE(parse_workload_kind("diurnal", w));
  EXPECT_TRUE(parse_workload_kind("pareto", w));
  EXPECT_TRUE(parse_workload_kind("trace:/tmp/t.csv", w));
  EXPECT_EQ(w.kind, WorkloadKind::kTrace);
  EXPECT_EQ(w.trace_path, "/tmp/t.csv");
  EXPECT_FALSE(parse_workload_kind("weibull", w));
  EXPECT_EQ(w.kind, WorkloadKind::kTrace);  // untouched on failure
  EXPECT_EQ(workload_kind_name(WorkloadKind::kDiurnal), "diurnal");
}

// ----------------------------------------------------------- runner replay

experiments::RunConfig runner_config() {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.routers = 60;
  cfg.scenario.target_members = 15;
  cfg.scenario.join_phase = 200.0;
  cfg.scenario.total_time = 1600.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.1;
  cfg.session.chunk_rate = 1.0;
  cfg.workload = poisson(600.0);
  cfg.seed = 11;
  return cfg;
}

TEST(WorkloadRunner, TraceReplayIsBitIdenticalToGeneratedRun) {
  const experiments::RunConfig cfg = runner_config();
  const experiments::RunResult generated = experiments::run_once(cfg);

  // Save the exact event list the run drew, then replay it from the file.
  std::vector<WorkloadEvent> events;
  experiments::workload_events(cfg, events);
  ASSERT_FALSE(events.empty());
  const std::string path = testing::TempDir() + "vdm_replay_trace.csv";
  write_trace_file(path, events);
  experiments::RunConfig replay = cfg;
  replay.workload.kind = WorkloadKind::kTrace;
  replay.workload.trace_path = path;
  const experiments::RunResult replayed = experiments::run_once(replay);

  // Bitwise equality on every scalar: the replay is the same run.
  EXPECT_EQ(generated.stress, replayed.stress);
  EXPECT_EQ(generated.stretch, replayed.stretch);
  EXPECT_EQ(generated.hopcount, replayed.hopcount);
  EXPECT_EQ(generated.loss, replayed.loss);
  EXPECT_EQ(generated.overhead, replayed.overhead);
  EXPECT_EQ(generated.network_usage, replayed.network_usage);
  EXPECT_EQ(generated.startup_avg, replayed.startup_avg);
  EXPECT_EQ(generated.reconnect_avg, replayed.reconnect_avg);
  EXPECT_EQ(generated.outage_avg, replayed.outage_avg);
  EXPECT_EQ(generated.mst_ratio, replayed.mst_ratio);
  EXPECT_EQ(generated.final_members, replayed.final_members);
}

TEST(WorkloadRunner, TrajectoryFollowsMeasurementGrid) {
  experiments::RunConfig cfg = runner_config();
  cfg.keep_trajectory = true;
  const experiments::RunResult r = experiments::run_once(cfg);
  ASSERT_FALSE(r.trajectory.empty());
  const sim::Time first = cfg.scenario.join_phase + cfg.scenario.settle_time;
  for (std::size_t i = 0; i < r.trajectory.size(); ++i) {
    const experiments::TrajectoryPoint& tp = r.trajectory[i];
    EXPECT_EQ(tp.at,
              first + static_cast<double>(i) * cfg.scenario.churn_interval);
    EXPECT_GE(tp.continuity, 0.0);
    EXPECT_LE(tp.continuity, 1.0);
    EXPECT_GE(tp.overhead, 0.0);
    EXPECT_GT(tp.members, 0u);  // at least the source is alive
  }
}

TEST(WorkloadRunner, SlotModeUnaffectedByWorkloadParams) {
  // kSlots ignores the generator knobs entirely — the classic timeline
  // stays bit-identical no matter what the workload block says.
  experiments::RunConfig a = runner_config();
  a.workload = WorkloadParams{};
  experiments::RunConfig b = a;
  b.workload.mean_session = 1.0;
  b.workload.pareto_alpha = 9.0;
  const experiments::RunResult ra = experiments::run_once(a);
  const experiments::RunResult rb = experiments::run_once(b);
  EXPECT_EQ(ra.loss, rb.loss);
  EXPECT_EQ(ra.stretch, rb.stretch);
  EXPECT_EQ(ra.overhead, rb.overhead);
  EXPECT_EQ(ra.final_members, rb.final_members);
}

}  // namespace
}  // namespace vdm::overlay
