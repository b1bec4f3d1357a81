#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/underlay.hpp"
#include "overlay/membership.hpp"
#include "overlay/metric.hpp"
#include "overlay/placement.hpp"
#include "overlay/protocol.hpp"
#include "overlay/walk.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_reactor.hpp"
#include "transport/transport.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

class PipelineSupport;

/// How joins find their place in the tree.
enum class JoinMode {
  /// One walk at a time from the source — the paper's baseline join and the
  /// bit-identical golden path.
  kSequential,
  /// Locating-first: a placement index (overlay/placement.hpp) names a deep
  /// entry node near the joiner, and the protocol walk runs from there —
  /// O(1) placement plus a short local walk instead of O(depth) from the
  /// source. Still one walk at a time.
  kLocating,
  /// Locating-first entry plus the batched concurrent pipeline: all joins
  /// arriving at one timestamp run as interleaved walks in a single drain
  /// event, serialized one step per turn with per-node slot reservations
  /// (see Session::drain_join_batch). Requires a protocol with
  /// PipelineSupport.
  kConcurrent,
};

/// Failure-model knobs (crash detection and lossy control plane). All draws
/// they introduce flow through the session Rng, and every knob at its
/// default reproduces the fault-free run bit for bit: heartbeat_period == 0
/// schedules no probe timers, and lossy_control == false makes
/// charge_exchange / measure skip the loss draw entirely.
struct FaultParams {
  /// Children probe their parent every `heartbeat_period` seconds; 0
  /// disables detection, making crashes observable instantly (idealized).
  double heartbeat_period = 0.0;
  /// Consecutive missed probes before the parent is declared dead.
  int heartbeat_misses = 3;
  /// Extra wait after the last missed probe (its own timeout) before the
  /// orphan declares the parent dead and starts rejoining.
  double heartbeat_timeout = 0.5;
  /// Draw per-message loss on every control exchange; a lost request or
  /// reply costs a timeout plus a retransmission (charged to OpStats).
  bool lossy_control = false;
  /// Control-plane loss applied on top of the underlay path loss (models
  /// overloaded end hosts dropping datagrams, as on PlanetLab).
  double control_loss_extra = 0.0;
  /// Initial retransmission timeout; each retry multiplies it by
  /// backoff_factor up to retry_timeout_max, for at most max_retries
  /// retransmissions (after which the exchange is assumed through — the
  /// control channel is reliable-with-retries, loss shows up as latency
  /// and message overhead, not as protocol failure).
  double retry_timeout = 0.25;
  double backoff_factor = 2.0;
  double retry_timeout_max = 4.0;
  int max_retries = 8;
};

/// Tunables of one multicast session.
struct SessionParams {
  net::HostId source = 0;
  int source_degree_limit = 5;
  /// Data chunks emitted per second at the source (the PlanetLab deployment
  /// used 10/s; simulations may lower this to cut event counts — loss is a
  /// rate, so the statistic is unchanged).
  double chunk_rate = 2.0;
  /// Disable to run control-plane-only experiments (no loss metric).
  bool data_plane = true;
  /// Playout buffer depth, seconds. Reconnection outages shorter than the
  /// buffer are absorbed (the paper's §5.4.3 observation that "a couple of
  /// seconds buffer" hides the ~0.2 s reconnection jitter). 0 = no buffer.
  double buffer_seconds = 0.0;
  /// Validate all tree invariants after every mutation batch (tests).
  bool paranoid_checks = false;
  /// Join placement engine (fresh arrivals only — orphan reconnections
  /// always run the sequential grandparent-first path, whose latency is the
  /// outage metric the paper measures).
  JoinMode join_mode = JoinMode::kSequential;
  /// Crash-failure and control-loss model; defaults are all-off.
  FaultParams faults;
  /// Worker threads for the metrics collector's tree-measurement pass
  /// (run_once hands it to Collector::set_threads; the session itself runs
  /// serially): 1 = serial (default), 0 = hardware concurrency, N = cap.
  /// Every run_once scalar is bit-identical for every value — the fan-out
  /// computes pure underlay reads and folds them in BFS order, and only
  /// engages when the underlay reports concurrent_reads().
  int threads = 1;
  /// Accumulate wall-clock time per control/data-plane phase (join walks,
  /// refinement, chunk floods) for vdmsim --profile. Off by default: the
  /// hot paths stay free of clock reads, and results are unaffected either
  /// way (the profile never feeds back into the simulation).
  bool profile = false;
};

/// Wall-clock seconds spent per phase of one run (SessionParams::profile).
/// Join covers every tree walk that attaches a member — fresh arrivals,
/// batched concurrent drains and orphan reconnections alike; metrics_secs
/// is filled by the runner (the collector's capture sweeps), not here.
struct PhaseProfile {
  double join_secs = 0.0;
  double refine_secs = 0.0;
  double flood_secs = 0.0;
};

/// Record of one completed join or reconnection.
struct TimingRecord {
  sim::Time at = 0.0;       // when the operation started
  net::HostId host = net::kInvalidHost;
  sim::Time duration = 0.0; // startup / rejoin-handshake time
  /// Crash-detection latency preceding this reconnection: time from the
  /// parent's failure until the orphan declared it dead and began the
  /// rejoin. 0 for graceful leaves and plain joins; detection + duration
  /// is the full outage the viewer experienced.
  sim::Time detection = 0.0;
  int messages = 0;
  int iterations = 0;
};

/// One live multicast session: the source, the member tree, the control
/// plane (joins, graceful leaves, orphan reconnection, refinement timers)
/// and the data plane (periodic chunks flooding down the tree with per-path
/// loss sampling).
///
/// The session is the single mutation point of the overlay; protocols are
/// strategy objects invoked from here. All randomness flows through the
/// session's Rng, so a (seed, scenario) pair reproduces a run exactly.
class Session {
 private:
  /// One node of the per-chunk flood traversal.
  struct ChunkFrame {
    net::HostId host;
    bool delivered;
  };
  /// One member's failure-detector state (see Storage::heartbeats).
  struct HeartbeatState {
    /// The probe timer, re-armed in place each tick; kInvalidTimer while
    /// the member is not probing (not joined, or a full miss streak
    /// stopped it until the rejoin).
    transport::TimerId timer = transport::kInvalidTimer;
    /// The scheduled complete_detection() timer, if the streak reached
    /// heartbeat_misses; cancelled when the member leaves/crashes first.
    transport::TimerId pending_detect = transport::kInvalidTimer;
    sim::Time orphaned_at = 0.0;
    /// Start of the current miss streak (detection latency for a false
    /// positive is measured from here).
    sim::Time first_miss_at = 0.0;
    int misses = 0;
    /// Parent crashed; probes are going unanswered until detection fires.
    bool orphaned = false;
  };

 public:
  /// Everything a run grows: the member tree (member slots, children
  /// capacities, SoA flood arrays), the tree-walk buffers, the placement
  /// index (created by the first locating/concurrent start()) and the
  /// event-path buffers. One bundle lives on each Session; a RunScratch
  /// arena swaps a warm one in before start() and back out after the final
  /// metric read (swap_storage), so steady-state sweeps run without
  /// allocating. start() resets what it must; every other buffer is cleared
  /// on use, never on swap, so stale contents are harmless and capacity
  /// always survives.
  struct Storage {
    Membership tree{0};
    WalkScratch walk;
    std::unique_ptr<PlacementIndex> placement;
    /// Chunk-flood traversal stack.
    std::vector<ChunkFrame> chunk_stack;
    /// Leave/crash orphan list (never re-entered: each departure is a
    /// top-level event and the rejoins below it never deactivate).
    std::vector<net::HostId> orphans;
    /// Timing-record accumulators (see drain_startup_records).
    std::vector<TimingRecord> startup_records;
    std::vector<TimingRecord> reconnect_records;
    /// Failure-detector state indexed by host; sized by start() only when
    /// faults.heartbeat_period > 0, else empty.
    std::vector<HeartbeatState> heartbeats;

    /// Heap bytes reserved (RunScratch arena accounting).
    std::size_t capacity_bytes() const;
  };

  /// Simulation-hosted session: time and timers come from the DES, via an
  /// internal SimReactor whose delegation is 1:1 — behaviour (slot order,
  /// event sequence, every golden scalar) is identical to the pre-seam
  /// direct-simulator session.
  Session(sim::Simulator& simulator, const net::Underlay& underlay,
          Protocol& protocol, const MetricProvider& metric,
          const SessionParams& params, util::Rng rng);

  /// Reactor-hosted session: the same protocol core on any transport
  /// backend — vdmd passes a UdpReactor and a MeasuredUnderlay, and joins,
  /// heartbeats and refinement timers run against real sockets and the wall
  /// clock. simulator() is unavailable on this form.
  Session(transport::Reactor& reactor, const net::Underlay& underlay,
          Protocol& protocol, const MetricProvider& metric,
          const SessionParams& params, util::Rng rng);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Activates the source and starts the data stream. Call once, first.
  void start();

  /// Stops the data stream and all refinement timers (end of experiment).
  void stop();

  /// Runs the protocol join for host `h` right now. Returns the timing
  /// record (also retained internally for the metrics collector).
  ///
  /// Under join_mode == kConcurrent the join is only *enqueued*: all
  /// arrivals at the current timestamp are serviced together by one drain
  /// event scheduled behind them (so the batch — and the resulting tree —
  /// is invariant to how callers group same-time join() calls). The
  /// returned record is a placeholder; the real one lands in the startup
  /// records when the walker commits.
  TimingRecord join(net::HostId h, int degree_limit);

  /// Graceful leave: notifies children and parent, detaches `h`, and
  /// reconnects every orphan (grandparent first, source as fallback).
  void leave(net::HostId h);

  /// Ungraceful crash: `h` vanishes without any leave notice. With
  /// heartbeats enabled its children only notice after `heartbeat_misses`
  /// silent probes (detection latency lands in TimingRecord::detection);
  /// with heartbeat_period == 0 they reconnect immediately (idealized
  /// instant detection, the pre-fault behaviour).
  void crash(net::HostId h);

  /// One immediate refinement round for host `h` (also runs on timers).
  OpStats refine(net::HostId h);

  // --- primitives used by protocols -------------------------------------

  /// Virtual-distance measurement `from` -> `to`; charges messages and time.
  double measure(net::HostId from, net::HostId to, OpStats& stats);

  /// Measures `from` -> each target concurrently (the paper's "N pings S
  /// and all children"): message costs add, wall-clock is the slowest probe.
  /// Results land in `out` (cleared first) and the returned span views it —
  /// the hot walk path passes scratch here and never allocates in steady
  /// state.
  std::span<const double> measure_parallel(net::HostId from,
                                           std::span<const net::HostId> targets,
                                           std::vector<double>& out,
                                           OpStats& stats);

  /// A request/response exchange with `with` (info request, connection
  /// request): 2 messages, one RTT of elapsed time.
  void charge_exchange(net::HostId from, net::HostId with, OpStats& stats);

  /// One-way notifications (parent change, grandparent change, leave
  /// notice): `count` messages, no added wait.
  void charge_notification(int count, OpStats& stats);

  /// True if `candidate` may serve as (transitive) parent of `joiner`:
  /// alive, not the joiner, and not in the joiner's own subtree.
  bool eligible_parent(net::HostId joiner, net::HostId candidate) const;

  // --- accessors ---------------------------------------------------------
  Membership& tree() { return storage_.tree; }
  const Membership& tree() const { return storage_.tree; }
  const net::Underlay& underlay() const { return underlay_; }
  const MetricProvider& metric() const { return metric_; }
  net::HostId source() const { return params_.source; }
  util::Rng& rng() { return rng_; }
  /// The backing simulator — only valid on a simulation-hosted session
  /// (throws util::InvariantError on a reactor-hosted one). Callers that
  /// merely need time or timers should use reactor() instead.
  sim::Simulator& simulator();
  /// The time/timer backend this session runs on. Always valid.
  transport::Reactor& reactor() { return reactor_; }
  Protocol& protocol() { return protocol_; }

  /// The tree-walk engine's reusable buffers (one set per session — walks
  /// never nest; see overlay/walk.hpp).
  WalkScratch& walk_scratch() { return storage_.walk; }

  /// The arena shuttle: swaps the session's whole Storage bundle with
  /// `other`. Swap a warm bundle in before start() — start() resets the
  /// tree to this underlay's host count, observably identical to a fresh
  /// one — and back out once the tree has been read for final metrics.
  void swap_storage(Storage& other) { std::swap(storage_, other); }

  /// Live per-host reservation counts of the concurrent join pipeline
  /// (non-zero only mid-drain; tests observe it from a WalkObserver).
  const std::vector<int>& join_reservations() const {
    return storage_.walk.reserved;
  }

  /// Sim-time bounds of the initial-join workload: when the first join
  /// started and when the last join so far finished its handshake
  /// (first_join_at < 0 until a join completes). joins_completed divided by
  /// the spread is the sustained join throughput — for a flash crowd the
  /// spread is the slowest startup in the batch.
  sim::Time first_join_at() const { return first_join_at_; }
  sim::Time last_join_done_at() const { return last_join_done_at_; }

  /// Largest same-instant arrival cohort seen so far (the flash crowd when
  /// one was scheduled; 1 for scattered arrivals) and its makespan — the
  /// longest startup within the cohort, since all its members start
  /// together. size / makespan is the sustained join throughput of the
  /// burst in sim time.
  std::uint64_t join_cohort_size() const { return best_cohort_n_; }
  sim::Time join_cohort_span() const { return best_cohort_span_; }

  // --- counters for the metrics layer ------------------------------------
  struct Counters {
    std::uint64_t control_messages = 0;
    /// Chunk transmissions over overlay edges (each hop of each chunk).
    std::uint64_t data_transmissions = 0;
    /// Chunks emitted at the source.
    std::uint64_t chunks_emitted = 0;
    /// Sum over members of chunks they should have seen / actually saw;
    /// 1 - delivered/expected is the network-wide loss rate of the window.
    std::uint64_t chunks_expected = 0;
    std::uint64_t chunks_delivered = 0;
    std::uint64_t joins_completed = 0;
    std::uint64_t reconnects_completed = 0;
    std::uint64_t crashes = 0;
    std::uint64_t refines_run = 0;
    std::uint64_t refine_switches = 0;
  };
  /// Counters since the last reset_window() (per-epoch metrics).
  const Counters& window() const { return window_; }
  /// Counters since start() (whole-run metrics).
  const Counters& totals() const { return totals_; }
  /// Per-phase wall clock since start(); all-zero unless params.profile.
  const PhaseProfile& profile() const { return profile_; }
  void reset_window();

  /// Startup / reconnection records accumulated since the last drain,
  /// swapped into `out` (cleared first); the session keeps accumulating
  /// into out's previous storage, so a capture loop ping-pongs two buffers
  /// instead of allocating.
  void drain_startup_records(std::vector<TimingRecord>& out);
  void drain_reconnect_records(std::vector<TimingRecord>& out);

 private:
  TimingRecord run_join(net::HostId h, net::HostId start, bool is_reconnect,
                        sim::Time detection = 0.0, OpStats pre = {});
  /// The join epilogue shared by the sequential path and the pipeline's
  /// commit turns: counters, timing record, flood-table timestamps,
  /// heartbeat (re)arming.
  TimingRecord finish_join(net::HostId h, const OpStats& stats,
                           bool is_reconnect, sim::Time detection);
  /// Locating-first entry: contacts the rendezvous (one exchange with the
  /// source) and asks the placement index for a nearby attached member;
  /// falls back to the source when the index has no answer.
  net::HostId locate_entry(net::HostId h, OpStats& stats);
  /// Services every join enqueued at the current timestamp as one batch of
  /// interleaved walks (round-robin turns over a shared TreeWalk, per-node
  /// slot reservations, park/wake on capacity dead-ends). See DESIGN.md §10.
  void drain_join_batch();
  /// Where an orphan starts its rejoin: grandparent if alive and eligible,
  /// else the source (§3.3; also covers "the grandparent crashed too").
  net::HostId reconnect_start(net::HostId orphan) const;
  void arm_refinement(net::HostId h);
  void disarm_refinement(net::HostId h);
  void ensure_heartbeat(net::HostId h);
  void disarm_heartbeat(net::HostId h);
  void heartbeat_tick(net::HostId h);
  void complete_detection(net::HostId h);
  void forget_crash_orphan(net::HostId h);
  /// Wall-clock of a control exchange of `messages` messages with base
  /// latency `base` under the lossy-control model: draws request/reply loss
  /// and pays timeout + exponential-backoff retransmissions, charging every
  /// retry's messages to `stats`. Returns `base` unchanged (and draws
  /// nothing) when the effective loss is zero or lossy_control is off.
  sim::Time lossy_elapsed(net::HostId from, net::HostId with, int messages,
                          sim::Time base, OpStats& stats);
  void emit_chunk();

  /// The DES backend when simulation-hosted; unbound (and unused) when an
  /// external reactor was supplied. By value so the sim-hosted constructor
  /// stays allocation-free (the arena gate in bench_e2e counts its allocs).
  transport::SimReactor sim_reactor_;
  /// The time/timer seam every call site below goes through.
  transport::Reactor& reactor_;
  /// Non-null only when simulation-hosted (backs simulator()).
  sim::Simulator* des_sim_ = nullptr;
  const net::Underlay& underlay_;
  Protocol& protocol_;
  const MetricProvider& metric_;
  SessionParams params_;
  util::Rng rng_;
  /// The tree, walk buffers, placement index and event-path buffers (see
  /// Storage). The placement index is bound and wired as the tree's
  /// MembershipObserver only when join_mode != kSequential.
  Storage storage_;
  /// A drain event for the current timestamp's join batch is already in the
  /// simulator queue.
  bool drain_scheduled_ = false;
  /// See first_join_at() / last_join_done_at().
  sim::Time first_join_at_ = -1.0;
  sim::Time last_join_done_at_ = 0.0;
  /// Current and best same-instant join cohort (see join_cohort_size()).
  sim::Time cohort_at_ = -1.0;
  std::uint64_t cohort_n_ = 0;
  sim::Time cohort_span_ = 0.0;
  std::uint64_t best_cohort_n_ = 0;
  sim::Time best_cohort_span_ = 0.0;

  /// The data-plane chunk clock: one timer rescheduled in place after each
  /// tick — the TimerId analog of transport::PeriodicTimer, so starting the
  /// data plane costs no heap timer object per run.
  transport::TimerId stream_event_ = transport::kInvalidTimer;

  /// Roots of subtrees detached by a crash and still awaiting detection.
  /// The data-plane flood cannot reach them via children lists, so
  /// emit_chunk walks these explicitly to count the chunks their members
  /// miss during the outage. Order-preserving (vector + std::find) so the
  /// walk order — and thus nothing, since the walk draws no randomness —
  /// stays deterministic.
  std::vector<net::HostId> crash_orphans_;

  Counters window_;
  Counters totals_;
  PhaseProfile profile_;
  bool started_ = false;
};

}  // namespace vdm::overlay
