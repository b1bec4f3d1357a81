#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "overlay/session.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

/// One explicit membership event of a pre-generated workload. The workload
/// generators (overlay/workload.hpp) produce these, trace files round-trip
/// them, and ScenarioDriver::run_trace executes them verbatim — the trace
/// path draws no randomness, so replaying a saved event list reproduces the
/// generating run bit for bit (given the same seed for the session rng).
struct WorkloadEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave, kCrash };
  sim::Time at = 0.0;
  Kind kind = Kind::kJoin;
  net::HostId host = net::kInvalidHost;
  /// Degree limit assigned at join time (ignored for departures).
  int degree = 4;

  friend bool operator==(const WorkloadEvent&, const WorkloadEvent&) = default;
};

/// How child-capacity (degree) limits are assigned to joining members.
struct DegreeSpec {
  int lo = 2;
  int hi = 5;
  /// Probability of drawing `hi` when realizing a fractional average.
  double p_hi = -1.0;  // < 0 means plain uniform over [lo, hi]

  /// Uniform integer limits in [lo, hi] — the paper's Chapter-3 default
  /// ("degree limits of nodes ranges from 2 to 5").
  static DegreeSpec uniform(int lo, int hi);

  /// Mixture of floor/ceil realizing an exact fractional mean, e.g. the
  /// 1.25 / 1.5 / 1.75 points of the node-degree sweeps (Figs 3.33-3.36).
  static DegreeSpec average(double avg);

  int sample(util::Rng& rng) const;
  double mean() const;
};

/// Parameters of the paper's experiment timeline (§3.6.2): a staggered join
/// phase, then repeated churn slots, each ending with a settle period and a
/// measurement point.
struct ScenarioParams {
  /// Members besides the source kept in the overlay.
  std::size_t target_members = 200;
  sim::Time join_phase = 2000.0;
  sim::Time total_time = 10000.0;
  sim::Time churn_interval = 400.0;
  /// Fraction of target_members replaced (leave + join) per interval.
  double churn_rate = 0.05;
  /// Probability that a churn departure is an ungraceful crash
  /// (Session::crash — no leave notice) instead of a graceful leave.
  /// 0 reproduces the all-graceful timeline bit for bit.
  double crash_fraction = 0.0;
  /// Quiet period before each measurement.
  sim::Time settle_time = 100.0;
  DegreeSpec degrees = DegreeSpec::uniform(2, 5);

  /// Chapter-4 mode: instead of churn slots, `batch_size` nodes join per
  /// interval (measuring after each batch) until target_members is reached.
  bool batched_joins = false;
  std::size_t batch_size = 50;

  /// Flash crowd: `flash_count` extra members (on top of target_members)
  /// all join at the single timestamp `flash_at`. Under join_mode ==
  /// kConcurrent they form one drain batch; sequential modes process them
  /// back-to-back at that instant. 0 disables.
  std::size_t flash_count = 0;
  sim::Time flash_at = 0.0;
};

/// Reusable buffers of a ScenarioDriver (host pool, membership list and its
/// host-to-position index, pending-leave flags) plus the workload event list
/// of trace-driven runs.
/// Shuttled through RunScratch so back-to-back runs over a 100k-host pool
/// rebuild the pool in place instead of reallocating.
struct ScenarioScratch {
  std::vector<net::HostId> available;
  std::vector<net::HostId> in_overlay;
  std::vector<std::uint32_t> overlay_pos;
  std::vector<char> pending_leave;
  /// Workload-mode event list (generated or parsed from a trace file); the
  /// driver reads it, run_once owns its lifetime. Same seed and config
  /// regenerate the same count, so steady-state capacity is stable.
  std::vector<WorkloadEvent> events;

  std::size_t capacity_bytes() const {
    return (available.capacity() + in_overlay.capacity()) *
               sizeof(net::HostId) +
           overlay_pos.capacity() * sizeof(std::uint32_t) +
           pending_leave.capacity() + events.capacity() * sizeof(WorkloadEvent);
  }
};

/// Orchestrates a full experiment run on one Session: schedules joins,
/// leaves and measurement callbacks on the simulator and executes it.
///
/// Host pool: the driver draws members from all underlay hosts except the
/// source, keeping `target_members` alive in steady state; churn victims
/// return to the pool and may rejoin later, as in the paper ("some nodes
/// may join and leave several times while some never join").
class ScenarioDriver {
 public:
  /// `scratch` (optional) donates warm pool buffers; the destructor returns
  /// them, grown, for the next run.
  ScenarioDriver(Session& session, const ScenarioParams& params, util::Rng rng,
                 ScenarioScratch* scratch = nullptr);
  ~ScenarioDriver();
  ScenarioDriver(const ScenarioDriver&) = delete;
  ScenarioDriver& operator=(const ScenarioDriver&) = delete;

  /// Measurement callback: invoked at each measurement point (settled tree).
  using MeasureFn = std::function<void(sim::Time)>;

  /// Runs the whole scenario to total_time. Calls `on_measure` at every
  /// measurement point (never during churn or settling).
  void run(const MeasureFn& on_measure);

  /// Trace mode: executes an explicit, time-ordered event list instead of
  /// the slot machinery. Every join/leave/crash (host, degree, instant)
  /// comes from `events` — the driver draws no randomness — and
  /// measurements run on the same settled grid as the slot timeline
  /// (join_phase + settle_time, then every churn_interval up to
  /// total_time). `events` must outlive the call and pass validate_trace
  /// (checked first); a double join, or a leave/crash of a host that is not
  /// a member, fails with a clear error when it fires.
  void run_trace(std::span<const WorkloadEvent> events, const MeasureFn& on_measure);

  /// Hosts currently alive in the overlay (excluding the source).
  std::size_t members_alive() const { return in_overlay_.size(); }
  /// Those hosts, in the order churn victims are drawn from.
  std::span<const net::HostId> members() const { return in_overlay_; }

 private:
  void schedule_initial_joins();
  void schedule_flash_crowd();
  void schedule_churn_slots(const MeasureFn& on_measure);
  void schedule_batched_joins(const MeasureFn& on_measure);
  void schedule_measurement_grid(const MeasureFn& on_measure);
  void schedule_trace_events(std::span<const WorkloadEvent> events);
  void do_join(net::HostId h);
  void do_join_traced(net::HostId h, int degree);
  void do_leave(net::HostId h);
  void do_crash(net::HostId h);
  bool is_member(net::HostId h) const { return overlay_pos_[h] != kNotMember; }
  void add_member(net::HostId h);
  /// Swap-with-back removal from in_overlay_ (the order draw_victim's rng
  /// picks index into), clears a pending leave and returns h to the pool.
  void remove_member(net::HostId h);
  net::HostId draw_available();
  net::HostId draw_victim();

  Session& session_;
  ScenarioParams params_;
  util::Rng rng_;
  ScenarioScratch* scratch_ = nullptr;

  std::vector<net::HostId> available_;   // not in overlay, not pending join
  std::vector<net::HostId> in_overlay_;  // alive members (excl. source)
  /// Position of each host in in_overlay_ (kNotMember if absent), indexed
  /// by host: membership checks and departures cost O(1), not a scan.
  static constexpr std::uint32_t kNotMember = ~std::uint32_t{0};
  std::vector<std::uint32_t> overlay_pos_;
  std::vector<char> pending_leave_;      // indexed by host
  std::size_t pending_count_ = 0;        // victims drawn in the current slot
};

}  // namespace vdm::overlay
