#pragma once

#include <cstdint>

#include "experiments/runner.hpp"

namespace perfbench {

/// Per-layer work counts and busy times of traced runs. Counts are
/// deterministic per seed; times are host seconds. Spans nest: net time
/// lies inside walk and session spans, which lie inside the sim span.
struct LayerTotals {
  double topology_build_s = 0.0;  ///< generators + underlay construction

  std::uint64_t delay_calls = 0;  ///< Underlay::delay() reads
  double delay_s = 0.0;  ///< estimated from a sample, net of clock cost
  std::uint64_t path_link_visits = 0;  ///< links visited for stress

  std::uint64_t events_fired = 0;  ///< Simulator::executed()
  double sim_s = 0.0;              ///< the whole ScenarioDriver run

  std::uint64_t walks = 0;  ///< walks started (step 1 reports)
  std::uint64_t walk_steps = 0;
  std::uint64_t walk_steps_max = 0;
  std::uint64_t walk_probes = 0;
  double walk_s = 0.0;  ///< spans around the protocol's step policies

  std::uint64_t entries = 0;  ///< join walks whose entry depth was taken
  std::uint64_t entry_depth_sum = 0;

  std::uint64_t members = 0;  ///< attached members of the final trees
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_max = 0;

  double join_s = 0.0;  ///< SessionParams::profile phase timers
  double refine_s = 0.0;
  double flood_s = 0.0;
  std::uint64_t control_messages = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t crashes = 0;
  std::uint64_t refines = 0;

  std::uint64_t captures = 0;  ///< Collector::capture calls
  double capture_s = 0.0;

  void add(const LayerTotals& o);
  /// True when every count (not time) equals `o`'s.
  bool same_counts(const LayerTotals& o) const;
};

/// Runs `config` as run_once would, but assembled from the library's
/// public pieces (topology generators, Simulator, protocol, Session,
/// Collector, ScenarioDriver) with counting and timing wrappers at each
/// layer boundary, and adds the layer figures to `layers`. Returns the run's
/// result, which must equal run_once's bit for bit; a mismatch means the
/// reassembly no longer mirrors run_once and its layer figures do not
/// describe the benchmarked run.
vdm::experiments::RunResult traced_run(const vdm::experiments::RunConfig& config,
                                       LayerTotals& layers);

}  // namespace perfbench
