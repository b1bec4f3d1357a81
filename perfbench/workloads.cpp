#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace ex = vdm::experiments;
namespace ov = vdm::overlay;

namespace {

/// Seeds of a panel or sweep: consecutive, starting at a base far enough
/// from the next command-line seed's base that panels never overlap.
std::uint64_t seed_base(std::uint64_t seed) { return seed * 1000 + 1; }

/// Explicit host pool (the runner's automatic sizing: members, flash, the
/// source and 60 % slack), so a traced reassembly of the run needs no copy
/// of the runner's private sizing rule.
void set_pool(ex::RunConfig& c) {
  const std::size_t target = c.scenario.target_members;
  c.host_pool = target + c.scenario.flash_count + 1 +
                std::max<std::size_t>(8, target * 3 / 5);
}

/// 1024 base members on the US coordinate substrate, then a flash crowd
/// that joins at one instant through the concurrent pipeline; 1 % churn of
/// the base per 200 s slot afterwards.
ex::RunConfig flash_crowd(Scale scale) {
  ex::RunConfig c;
  c.substrate = ex::Substrate::kCoordUs;
  c.protocol = ex::Proto::kVdm;
  c.session.join_mode = ov::JoinMode::kConcurrent;
  c.scenario.target_members = scale == Scale::kFull ? 1024 : 64;
  c.scenario.flash_count = scale == Scale::kFull ? 16384 : 512;
  c.scenario.flash_at = 400.0;
  c.scenario.join_phase = 400.0;
  c.scenario.total_time = scale == Scale::kFull ? 2050.0 : 850.0;
  c.scenario.churn_interval = 200.0;
  c.scenario.settle_time = 50.0;
  c.scenario.churn_rate = scale == Scale::kFull ? 0.01 : 0.1;
  c.session.chunk_rate = 0.05;
  c.compute_mst_ratio = false;  // O(N^2) reference; reads 1.0 when off
  return c;
}

/// Poisson membership (mean session 600 s) where half the departures are
/// crashes found by 1 s heartbeats, over a lossy control and data plane.
ex::RunConfig churn_stream(Scale scale) {
  ex::RunConfig c;
  c.substrate = ex::Substrate::kCoordUs;
  c.protocol = ex::Proto::kVdm;
  c.workload.kind = ov::WorkloadKind::kPoisson;
  c.workload.mean_session = 600.0;
  c.scenario.target_members = scale == Scale::kFull ? 1024 : 64;
  c.scenario.crash_fraction = 0.5;
  c.scenario.join_phase = 400.0;
  c.scenario.total_time = scale == Scale::kFull ? 1500.0 : 900.0;
  c.scenario.churn_interval = 200.0;
  c.scenario.settle_time = 50.0;
  c.session.faults.heartbeat_period = 1.0;
  c.session.faults.lossy_control = true;
  c.session.faults.control_loss_extra = 0.01;
  c.link_loss_max = 0.01;
  c.session.chunk_rate = 1.0;
  return c;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"flash_crowd", "churn_stream",
                                                  "paper_sweep"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed, Scale scale) {
  Workload w;
  w.name = name;
  if (name == "flash_crowd" || name == "churn_stream") {
    const ex::RunConfig base =
        name == "flash_crowd" ? flash_crowd(scale) : churn_stream(scale);
    const std::size_t panel = scale == Scale::kFull ? 24 : 2;
    for (std::size_t i = 0; i < panel; ++i) {
      ex::RunConfig c = base;
      c.seed = seed_base(seed) + i;
      c.keep_epochs = true;
      set_pool(c);
      w.configs.push_back(c);
    }
    return w;
  }
  if (name == "paper_sweep") {
    // The paper's Chapter-4 setting: 792-router transit-stub graph, link
    // error rates up to 2 %, 2000 s join phase, 5 % churn per 400 s slot
    // until 10000 s; VDM against HMTP at two overlay sizes.
    w.sweep = true;
    w.seeds = scale == Scale::kFull ? 8 : 2;
    w.workers = 2;
    const std::vector<std::size_t> sizes =
        scale == Scale::kFull ? std::vector<std::size_t>{200, 512}
                              : std::vector<std::size_t>{24, 48};
    for (const ex::Proto p : {ex::Proto::kVdm, ex::Proto::kHmtp}) {
      for (const std::size_t n : sizes) {
        ex::RunConfig c;
        c.substrate = ex::Substrate::kTransitStub;
        c.protocol = p;
        c.link_loss_max = 0.02;
        c.scenario.target_members = n;
        if (scale == Scale::kSmoke) {
          c.scenario.join_phase = 200.0;
          c.scenario.total_time = 1000.0;
          c.scenario.churn_interval = 200.0;
          c.scenario.settle_time = 50.0;
        }
        // Each point gets its own seeds (and so its own topologies), which
        // keeps the grid mean from hinging on a few shared router graphs.
        c.seed = seed_base(seed) + w.configs.size() * w.seeds;
        c.keep_epochs = true;
        set_pool(c);
        w.configs.push_back(c);
      }
    }
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<ex::RunConfig> tasks(const Workload& w) {
  if (!w.sweep) return w.configs;
  std::vector<ex::RunConfig> out;
  for (const ex::RunConfig& point : w.configs) {
    for (std::size_t s = 0; s < w.seeds; ++s) {
      ex::RunConfig c = point;
      c.seed += s;
      out.push_back(c);
    }
  }
  return out;
}

std::uint64_t operations(const ex::RunConfig& config) {
  if (config.scenario.flash_count > 0) return config.scenario.flash_count;
  if (config.workload.kind != ov::WorkloadKind::kSlots) {
    std::vector<ov::WorkloadEvent> events;
    ex::workload_events(config, events);
    return events.size();
  }
  return 1;
}

namespace {

void put(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  out += buf;
}

void put(std::string& out, const vdm::util::Summary& s) {
  put(out, static_cast<double>(s.n));
  put(out, s.mean);
  put(out, s.stddev);
  put(out, s.min);
  put(out, s.max);
  put(out, s.ci_halfwidth);
}

}  // namespace

std::string digest(const ex::RunResult& r) {
  std::string out;
  for (const double v :
       {r.stress, r.stress_max, r.stretch, r.stretch_leaf, r.stretch_max,
        r.stretch_min, r.hopcount, r.hop_leaf, r.hop_max, r.loss, r.overhead,
        r.overhead_per_chunk, r.network_usage, r.startup_avg, r.startup_max,
        r.startup_p50, r.startup_p99, r.join_rate, r.reconnect_avg,
        r.reconnect_max, r.detection_avg, r.detection_max, r.outage_avg,
        r.outage_max, r.mst_ratio, static_cast<double>(r.final_members)}) {
    put(out, v);
  }
  for (const vdm::metrics::EpochSample& e : r.epochs) {
    out += '|';
    for (const double v :
         {e.at, e.tree.stress_avg, e.tree.stretch_avg, e.tree.hop_avg,
          e.tree.hop_max, e.tree.network_usage, e.loss_rate, e.overhead,
          static_cast<double>(e.members), static_cast<double>(e.control_messages),
          static_cast<double>(e.data_transmissions)}) {
      put(out, v);
    }
    for (const std::vector<double>* times :
         {&e.startup_times, &e.reconnect_times, &e.detection_times}) {
      double sum = 0.0;
      for (const double t : *times) sum += t;
      put(out, static_cast<double>(times->size()));
      put(out, sum);
    }
  }
  return out;
}

std::string digest(const std::vector<ex::AggregateResult>& aggs) {
  std::string out;
  for (const ex::AggregateResult& a : aggs) {
    for (const vdm::util::Summary* s :
         {&a.stress, &a.stretch, &a.stretch_leaf, &a.stretch_max, &a.hopcount,
          &a.hop_leaf, &a.hop_max, &a.loss, &a.overhead, &a.overhead_per_chunk,
          &a.network_usage, &a.startup_avg, &a.startup_max, &a.startup_p50,
          &a.startup_p99, &a.join_rate, &a.reconnect_avg, &a.reconnect_max,
          &a.detection_avg, &a.detection_max, &a.outage_avg, &a.outage_max,
          &a.mst_ratio}) {
      put(out, *s);
    }
    for (const ex::RunResult& r : a.runs) {
      out += '#';
      out += digest(r);
    }
    out += '\n';
  }
  return out;
}

std::string check_run(const ex::RunConfig& config, const ex::RunResult& r) {
  const Quality q = quality(r);
  if (!(r.stretch >= 1.0)) return "stretch below 1";
  if (!(r.hop_max >= r.hopcount)) return "hop_max below hopcount";
  if (!(q.continuity >= 0.0 && q.continuity <= 1.0)) return "continuity outside [0, 1]";
  if (r.epochs.empty()) return "no measurement epoch";

  const ov::ScenarioParams& sc = config.scenario;
  if (config.workload.kind == ov::WorkloadKind::kSlots) {
    // Churn slots replace every departure with a join, so the overlay ends
    // at its target plus the flash crowd plus the source; every base and
    // flash member joined before the first measurement.
    const std::size_t expect = 1 + sc.target_members + sc.flash_count;
    if (r.final_members != expect) {
      return "final members " + std::to_string(r.final_members) + ", expected " +
             std::to_string(expect);
    }
    if (q.joins < sc.target_members + sc.flash_count) {
      return "only " + std::to_string(q.joins) + " joins completed";
    }
    return {};
  }
  // Trace-driven membership: the generated events fix the final count.
  std::vector<ov::WorkloadEvent> events;
  ex::workload_events(config, events);
  std::int64_t alive = 1;
  std::uint64_t join_events = 0;
  for (const ov::WorkloadEvent& e : events) {
    if (e.kind == ov::WorkloadEvent::Kind::kJoin) {
      ++alive;
      ++join_events;
    } else {
      --alive;
    }
  }
  if (static_cast<std::int64_t>(r.final_members) != alive) {
    return "final members " + std::to_string(r.final_members) + ", expected " +
           std::to_string(alive);
  }
  if (q.joins == 0 || q.joins > join_events) {
    return std::to_string(q.joins) + " joins completed of " +
           std::to_string(join_events) + " scheduled";
  }
  return {};
}

Quality quality(const ex::RunResult& r) {
  Quality q;
  q.stretch = r.stretch;
  q.hopcount = r.hopcount;
  q.hop_max = r.hop_max;
  q.startup_p99 = r.startup_p99;
  q.continuity = 1.0 - r.loss;
  q.overhead = r.overhead;
  q.mst_ratio = r.mst_ratio;
  double outage = 0.0;
  std::size_t reconnects = 0;
  for (const vdm::metrics::EpochSample& e : r.epochs) {
    q.joins += e.startup_times.size();
    reconnects += e.reconnect_times.size();
    for (const double t : e.reconnect_times) outage += t;
    for (const double t : e.detection_times) outage += t;
  }
  if (reconnects > 0) q.outage = outage / static_cast<double>(reconnects);
  return q;
}

}  // namespace perfbench
