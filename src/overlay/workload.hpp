#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/scenario.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

/// Membership process driving a run. kSlots is the paper's fixed-rate slot
/// timeline (ScenarioDriver::run); the rest compile to an explicit
/// WorkloadEvent list executed by ScenarioDriver::run_trace.
enum class WorkloadKind : std::uint8_t {
  kSlots,    ///< §3.6.2 churn slots (no event list)
  kPoisson,  ///< Poisson arrivals, exponential session lengths
  kDiurnal,  ///< sinusoidally modulated Poisson arrivals (thinning)
  kPareto,   ///< Poisson arrivals, heavy-tailed Pareto session lengths
  kTrace,    ///< replay an event list loaded from a trace file
};

/// Parameters of the synthetic workload generators. Arrival rate follows
/// Little's law — lambda = target_members / mean_session — so membership
/// hovers around the scenario's target under every generated kind.
struct WorkloadParams {
  WorkloadKind kind = WorkloadKind::kSlots;
  /// Mean member session length (simulated time units). Exponential mean
  /// for kPoisson/kDiurnal; the Pareto scale is derived so kPareto keeps
  /// the same mean with a heavy tail.
  double mean_session = 2000.0;
  /// Pareto shape; must exceed 1 so the mean session length exists.
  double pareto_alpha = 1.5;
  /// Period of the diurnal arrival-rate wave.
  double diurnal_period = 4000.0;
  /// Relative swing of the diurnal wave, in [0, 1]:
  /// lambda(t) = lambda * (1 + amplitude * sin(2*pi*(t - join_phase)/period)).
  double diurnal_amplitude = 0.8;
  /// Trace file to replay (kTrace only).
  std::string trace_path;
};

/// Parses a --workload argument: "slots", "poisson", "diurnal", "pareto" or
/// "trace:<file>" (which also fills trace_path). Returns false on anything
/// else, leaving `out` untouched.
bool parse_workload_kind(std::string_view text, WorkloadParams& out);

/// Short name of a kind ("slots", "poisson", ...), for tables and labels.
std::string_view workload_kind_name(WorkloadKind kind);

/// Generates a time-ordered event list for a synthetic kind (not kSlots /
/// kTrace): staggered initial joins over the join phase, an optional flash
/// crowd of `scenario.flash_count` joins at `scenario.flash_at`, and from
/// the end of the join phase onward the kind's arrival process, with every
/// member's departure (leave, or crash with `scenario.crash_fraction`)
/// scheduled at join time from its sampled session length. Hosts are drawn
/// from the pool [0, num_hosts) minus `source`; arrivals finding the pool
/// empty are skipped. All randomness comes from `rng`, so a seed fully
/// determines the list. Fills `out` (cleared first).
void generate_workload(const ScenarioParams& scenario,
                       const WorkloadParams& workload, std::size_t num_hosts,
                       net::HostId source, util::Rng& rng,
                       std::vector<WorkloadEvent>& out);

/// Writes events as a CSV trace — `t,join|leave|crash,host[,degree]` lines,
/// '#' comments — at full double precision, so parse_trace(write_trace(ev))
/// reproduces `ev` exactly and a replay is bit-identical to the source run.
void write_trace(std::ostream& os, std::span<const WorkloadEvent> events);
void write_trace_file(const std::string& path,
                      std::span<const WorkloadEvent> events);

/// Parses a trace. Fields may be separated by commas or whitespace; '#'
/// starts a comment and 'terminate' lines are ignored. Parsing is strict:
/// a line whose time is not a finite number >= 0, whose host or degree is
/// not a whole number in range (degree >= 1), that carries a field too many
/// or an unknown kind (a 'flash' burst included: a trace names concrete
/// hosts) fails with its line number. Fills `out` (cleared first).
void parse_trace(std::istream& is, std::vector<WorkloadEvent>& out);
void parse_trace(const std::string& text, std::vector<WorkloadEvent>& out);
void load_trace_file(const std::string& path, std::vector<WorkloadEvent>& out);

/// The checks every runner applies before replaying `events` (the
/// simulator's ScenarioDriver, the testbed MainController and vdmd): times
/// sorted and >= 0, every host inside [0, num_hosts) and not the source,
/// every join degree >= 1. Membership (no double join, no departure of a
/// non-member) depends on replay order and is left to the runner.
void validate_trace(std::span<const WorkloadEvent> events,
                    std::size_t num_hosts, net::HostId source);

}  // namespace vdm::overlay
