#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/runner.hpp"

namespace perfbench {

/// Full size is what the benchmark measures; smoke is a seconds-long
/// miniature of the same workload shapes for the benchmark's own tests.
enum class Scale { kFull, kSmoke };

/// One named benchmark workload, generated from the command-line seed.
///
/// A panel workload (flash_crowd, churn_stream) is a list of independent
/// run configurations that differ only in their seed; each runs through
/// experiments::run_once. Tree quality and run cost depend strongly on the
/// seed (the source's position, the tree's depth), so a benchmark run
/// averages a panel of seeds instead of trusting one.
///
/// A sweep workload (paper_sweep) is a run_grid: `configs` are the grid
/// points, each run for `seeds` consecutive seeds on `workers` workers.
struct Workload {
  std::string name;
  bool sweep = false;
  std::vector<vdm::experiments::RunConfig> configs;
  std::size_t seeds = 1;
  std::size_t workers = 1;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; throws std::invalid_argument for an
/// unknown name. The same (name, seed, scale) always yields the same inputs.
Workload make_workload(const std::string& name, std::uint64_t seed, Scale scale);

/// Every run of the workload as one config, in run_grid's flattened task
/// order (point-major, then seed) for sweeps; the panel itself otherwise.
std::vector<vdm::experiments::RunConfig> tasks(const Workload& w);

/// Operations one run stands for, for attempted/failed accounting: flash
/// joins of a flash crowd, workload events (joins, leaves, crashes) of a
/// churn trace, and one seed run for anything else.
std::uint64_t operations(const vdm::experiments::RunConfig& config);

/// Exact fingerprint of a run: every scalar of the RunResult and the
/// per-epoch series, as hexfloats. Equal digests mean bit-identical runs.
std::string digest(const vdm::experiments::RunResult& r);

/// Same for a run_grid result: every per-run digest plus every summary.
std::string digest(const std::vector<vdm::experiments::AggregateResult>& aggs);

/// Checks the invariants every run must satisfy (stretch >= 1, hop_max >=
/// hopcount, continuity in [0, 1], members and joins accounted for).
/// Returns an empty string when they hold, else what failed.
std::string check_run(const vdm::experiments::RunConfig& config,
                      const vdm::experiments::RunResult& r);

/// The user-visible quality of one run (see README.md for definitions).
struct Quality {
  double stretch = 0.0;
  double hopcount = 0.0;
  double hop_max = 0.0;
  double startup_p99 = 0.0;
  double continuity = 0.0;
  /// Mean time an orphaned member spent without a parent (crash detection
  /// plus rejoin); negative when the run had no reconnection.
  double outage = -1.0;
  double overhead = 0.0;
  double mst_ratio = 0.0;
  /// Joins completed (startup records over all epochs).
  std::uint64_t joins = 0;
};

Quality quality(const vdm::experiments::RunResult& r);

}  // namespace perfbench
