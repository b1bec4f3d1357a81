#pragma once

#include <vector>

#include "net/types.hpp"
#include "overlay/scenario.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace vdm::testbed {

/// Generation spec mirroring the paper's PlanetLab runs: a pool of usable
/// nodes, a join-only warmup, then churn for the remainder of the session.
struct ScenarioSpec {
  std::vector<net::HostId> nodes;  // usable node ids (source excluded)
  std::size_t members = 100;       // how many participate at a time
  sim::Time join_phase = 2000.0;
  sim::Time total_time = 5000.0;
  sim::Time churn_interval = 400.0;
  double churn_rate = 0.05;        // fraction of members replaced / interval
  /// Probability a departure is an ungraceful crash instead of a graceful
  /// leave — the paper's unstable PlanetLab nodes. 0 keeps the generated
  /// event stream identical to the all-graceful one.
  double crash_fraction = 0.0;
  int degree_min = 4, degree_max = 4;
};

/// Deterministically generates a scenario from the spec (the role of the
/// paper's scenario generator fed with different seeds): the time-ordered
/// join/leave/crash events of one session, every one before
/// `spec.total_time`. The dissertation's scenario files give "time, node
/// and action for each event" (§5.2.2); here they are workload traces, so
/// overlay::write_trace_file / load_trace_file save and replay them.
std::vector<overlay::WorkloadEvent> generate_scenario(const ScenarioSpec& spec,
                                                      util::Rng& rng);

}  // namespace vdm::testbed
