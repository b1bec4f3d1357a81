#include "overlay/session.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/require.hpp"

namespace vdm::overlay {

namespace {

/// Scoped wall-clock accumulator for SessionParams::profile. Disabled it is
/// one branch and no clock reads, so the default (profile off) hot paths
/// are untouched. Phase entry points never nest (joins, drains, refines and
/// floods are distinct simulator events), so each second lands in exactly
/// one bucket.
class PhaseTimer {
 public:
  PhaseTimer(bool enabled, double& sink) : sink_(enabled ? &sink : nullptr) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (sink_ != nullptr) {
      *sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start_)
                    .count();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

OpStats Protocol::execute_refine(Session&, net::HostId) { return {}; }

Session::Session(sim::Simulator& simulator, const net::Underlay& underlay,
                 Protocol& protocol, const MetricProvider& metric,
                 const SessionParams& params, util::Rng rng)
    : sim_reactor_(&simulator), reactor_(sim_reactor_), des_sim_(&simulator),
      underlay_(underlay), protocol_(protocol), metric_(metric),
      params_(params), rng_(rng) {
  // storage_ stays empty until start(): an arena caller swaps warm storage
  // in between construction and start(), and sizing it here would put
  // unavoidable allocations on that otherwise allocation-free path.
  VDM_REQUIRE(params_.source < underlay.num_hosts());
  VDM_REQUIRE(params_.chunk_rate > 0.0);
}

Session::Session(transport::Reactor& reactor, const net::Underlay& underlay,
                 Protocol& protocol, const MetricProvider& metric,
                 const SessionParams& params, util::Rng rng)
    : reactor_(reactor), underlay_(underlay), protocol_(protocol),
      metric_(metric), params_(params), rng_(rng) {
  VDM_REQUIRE(params_.source < underlay.num_hosts());
  VDM_REQUIRE(params_.chunk_rate > 0.0);
}

sim::Simulator& Session::simulator() {
  VDM_REQUIRE_MSG(des_sim_ != nullptr,
                  "simulator() on a reactor-hosted session — use reactor()");
  return *des_sim_;
}

std::size_t Session::Storage::capacity_bytes() const {
  return tree.capacity_bytes() + walk.capacity_bytes() +
         (placement ? placement->capacity_bytes() : 0) +
         chunk_stack.capacity() * sizeof(ChunkFrame) +
         orphans.capacity() * sizeof(net::HostId) +
         (startup_records.capacity() + reconnect_records.capacity()) *
             sizeof(TimingRecord) +
         heartbeats.capacity() * sizeof(HeartbeatState);
}

Session::~Session() { stop(); }

void Session::start() {
  VDM_REQUIRE_MSG(!started_, "start() called twice");
  started_ = true;
  profile_ = PhaseProfile{};
  WalkScratch& ws = storage_.walk;
  // Unconditional: a swapped-in warm tree has matching size but stale
  // members (and the previous run's observer); a fresh or undersized one
  // needs the resize. Same-size resets only clear, so the arena path stays
  // allocation-free.
  tree().reset(underlay_.num_hosts(), params_.source);
  // A swapped-in refine slab may hold EventIds from a previous run on this
  // arena; they are meaningless (and dangerous) after the simulator reset.
  // Likewise a join batch that was still queued when that run ended.
  std::fill(ws.refine_events.begin(), ws.refine_events.end(),
            std::uint64_t{transport::kInvalidTimer});
  ws.pending_joins.clear();
  // Swapped-in record accumulators may hold entries pushed after the previous
  // run's final drain; they belong to that run, not this one.
  storage_.startup_records.clear();
  storage_.reconnect_records.clear();
  // A swapped-in slab holds the previous run's timer ids; start clean.
  storage_.heartbeats.assign(
      params_.faults.heartbeat_period > 0.0 ? underlay_.num_hosts() : 0,
      HeartbeatState{});
  tree().activate(params_.source, params_.source_degree_limit);
  tree().flood().in_session_since[params_.source] = reactor_.now();
  if (params_.join_mode != JoinMode::kSequential) {
    VDM_REQUIRE_MSG(params_.join_mode != JoinMode::kConcurrent ||
                        protocol_.pipeline_support() != nullptr,
                    "join_mode=concurrent requires a protocol with pipeline "
                    "support");
    std::unique_ptr<PlacementIndex>& placement = storage_.placement;
    if (!placement) placement = std::make_unique<PlacementIndex>();
    placement->bind(underlay_, params_.source);
    tree().set_observer(placement.get());
    placement->insert(params_.source);
  }
  if (params_.data_plane) {
    // Same schedule/reschedule sequence transport::PeriodicTimer produces,
    // without the per-run heap timer object.
    const sim::Time period = 1.0 / params_.chunk_rate;
    stream_event_ = reactor_.schedule_in(period, [this, period] {
      emit_chunk();
      reactor_.reschedule_current_in(period);
    });
  }
}

void Session::stop() {
  if (stream_event_ != transport::kInvalidTimer) {
    reactor_.cancel(stream_event_);
    stream_event_ = transport::kInvalidTimer;
  }
  // A drain event scheduled behind us may still fire; emptied, it no-ops.
  storage_.walk.pending_joins.clear();
  for (std::uint64_t& id : storage_.walk.refine_events) {
    if (id != transport::kInvalidTimer) reactor_.cancel(id);
    id = transport::kInvalidTimer;
  }
  for (HeartbeatState& hb : storage_.heartbeats) {
    if (hb.pending_detect != transport::kInvalidTimer) reactor_.cancel(hb.pending_detect);
    if (hb.timer != transport::kInvalidTimer) reactor_.cancel(hb.timer);
    hb = HeartbeatState{};
  }
  crash_orphans_.clear();
}

TimingRecord Session::join(net::HostId h, int degree_limit) {
  VDM_REQUIRE(started_);
  VDM_REQUIRE_MSG(h != params_.source, "the source does not join");
  tree().activate(h, degree_limit);

  if (params_.join_mode == JoinMode::kConcurrent) {
    // Activated but still detached: invisible to the data-plane flood and
    // never an eligible parent, so the queued state needs no special casing
    // anywhere else. One drain event per timestamp services the whole batch.
    storage_.walk.pending_joins.push_back({h, degree_limit});
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      // schedule_in(0) sequences the drain after every event already queued
      // at this timestamp — late same-time arrivals still make this batch.
      reactor_.schedule_in(0.0, [this] { drain_join_batch(); });
    }
    TimingRecord placeholder;
    placeholder.at = reactor_.now();
    placeholder.host = h;
    return placeholder;
  }

  OpStats pre;
  net::HostId start = params_.source;
  if (params_.join_mode == JoinMode::kLocating) start = locate_entry(h, pre);
  const TimingRecord rec =
      run_join(h, start, /*is_reconnect=*/false, /*detection=*/0.0, pre);
  tree().flood().in_session_since[h] = reactor_.now() + rec.duration;
  if (protocol_.wants_refinement()) arm_refinement(h);
  if (params_.paranoid_checks) tree().validate();
  return rec;
}

net::HostId Session::locate_entry(net::HostId h, OpStats& stats) {
  // The joiner's one contact with the rendezvous point (co-located with the
  // source): request + response carrying the candidate entry node.
  charge_exchange(h, params_.source, stats);
  const net::HostId found = storage_.placement->locate(h, *this, stats);
  if (found == kInvalidHost || !eligible_parent(h, found)) {
    return params_.source;
  }
  return found;
}

TimingRecord Session::run_join(net::HostId h, net::HostId start, bool is_reconnect,
                               sim::Time detection, OpStats pre) {
  const PhaseTimer timer(params_.profile, profile_.join_secs);
  OpStats stats = pre;
  stats += protocol_.execute_join(*this, h, start);
  return finish_join(h, stats, is_reconnect, detection);
}

TimingRecord Session::finish_join(net::HostId h, const OpStats& stats,
                                  bool is_reconnect, sim::Time detection) {
  VDM_REQUIRE_MSG(tree().member(h).parent != kInvalidHost,
                  "protocol join must attach the node");
  window_.control_messages += stats.messages;
  totals_.control_messages += stats.messages;

  TimingRecord rec;
  rec.at = reactor_.now();
  rec.host = h;
  rec.duration = stats.elapsed;
  rec.detection = detection;
  rec.messages = stats.messages;
  rec.iterations = stats.iterations;

  // The node (and transitively its subtree, which the data plane blocks
  // through this node) starts receiving once the join handshake finishes.
  tree().flood().receiving_since[h] = reactor_.now() + stats.elapsed;

  if (is_reconnect) {
    storage_.reconnect_records.push_back(rec);
    ++window_.reconnects_completed;
    ++totals_.reconnects_completed;
  } else {
    storage_.startup_records.push_back(rec);
    ++window_.joins_completed;
    ++totals_.joins_completed;
    if (first_join_at_ < 0.0) first_join_at_ = rec.at;
    last_join_done_at_ = std::max(last_join_done_at_, rec.at + rec.duration);
    // Same-instant arrival cohorts (finish_join calls of one cohort are
    // contiguous: sequential joins run back-to-back events at one
    // timestamp, a concurrent batch commits inside one drain event). The
    // largest cohort is the flash crowd when one was scheduled.
    if (rec.at == cohort_at_ && cohort_n_ > 0) {
      ++cohort_n_;
      cohort_span_ = std::max(cohort_span_, rec.duration);
    } else {
      cohort_at_ = rec.at;
      cohort_n_ = 1;
      cohort_span_ = rec.duration;
    }
    if (cohort_n_ >= best_cohort_n_) {
      best_cohort_n_ = cohort_n_;
      best_cohort_span_ = cohort_span_;
    }
  }
  // Every attached member probes its parent; (re)arming here covers plain
  // joins, graceful-leave reconnections and crash recoveries uniformly.
  ensure_heartbeat(h);
  // No validate() here: during a multi-orphan leave, siblings of this
  // orphan are still detached with (legitimately) stale pointers. The
  // callers validate at the end of the whole operation.
  return rec;
}

void Session::drain_join_batch() {
  const PhaseTimer timer(params_.profile, profile_.join_secs);
  drain_scheduled_ = false;
  WalkScratch& ws = storage_.walk;
  if (ws.pending_joins.empty()) return;  // run stopped mid-batch
  PipelineSupport* support = protocol_.pipeline_support();
  VDM_REQUIRE(support != nullptr);

  // Build the walker table from the batch. Between drains every reservation
  // has been released (each reserve converts to a commit or is dropped with
  // its walker's stop state), so the counts are already all zero.
  ws.walkers.clear();
  ws.queue.clear();
  ws.parked.clear();
  ws.adoption_pool.clear();
  if (ws.reserved.size() < underlay_.num_hosts()) {
    ws.reserved.resize(underlay_.num_hosts(), 0);
  }
  for (const PendingJoin& pj : ws.pending_joins) {
    JoinWalker w;
    w.host = pj.host;
    w.degree_limit = pj.degree_limit;
    ws.queue.push_back(static_cast<std::uint32_t>(ws.walkers.size()));
    ws.walkers.push_back(w);
  }
  ws.pending_joins.clear();

  // One engine serves every walker: turns are serialized, so each turn
  // re-binds it to its walker's suspended position. Reservation-aware
  // can_accept plus abort-on-dead-end are what distinguish pipeline walks
  // from sequential ones.
  TreeWalk walk(*this, protocol_.walk_observer());
  walk.bind_reservations(&ws.reserved);
  walk.allow_abort(true);

  const sim::Time now = reactor_.now();
  std::size_t q_head = 0;  // FIFO cursors — the vectors only ever append
  std::size_t p_head = 0;

  while (q_head < ws.queue.size()) {
    const std::uint32_t wi = ws.queue[q_head++];
    JoinWalker& w = ws.walkers[wi];
    switch (w.phase) {
      case JoinPhase::kStart: {
        // (Re)start: locate an entry node — a woken walker re-locates, since
        // the index moved on while it was parked — and init the policy.
        const net::HostId start = locate_entry(w.host, w.stats);
        w.cur = walk.normalize_start(w.host, start);
        w.step_index = 0;
        walk.resume(w.host, w.cur, 0);
        support->start(walk, w.slot, w.stats);
        w.phase = JoinPhase::kWalk;
        ws.queue.push_back(wi);
        break;
      }
      case JoinPhase::kWalk: {
        walk.resume(w.host, w.cur, w.step_index);
        const TreeWalk::Action action = walk.step_once(*support, w.slot, w.stats);
        if (action.kind == TreeWalk::Action::Kind::kDescend) {
          w.cur = walk.cur();
          w.step_index = walk.step_index();
          ws.queue.push_back(wi);
          break;
        }
        if (action.kind == TreeWalk::Action::Kind::kAbort) {
          // Every reachable slot is reserved by another in-flight walker.
          // Park (holding no reservations) until a commit frees or creates
          // capacity; the wake restarts the walk from scratch.
          w.phase = JoinPhase::kStart;
          ws.parked.push_back(wi);
          break;
        }
        // Stop: the can_accept that allowed it saw links + reservations
        // below the limit, so reserving here keeps the slot ours until the
        // commit turn. The adoptions span views shared walk scratch — copy
        // it out before the next walker's turn clobbers it.
        w.parent = action.node;
        w.parent_dist = action.dist;
        w.parent_has_dist = action.has_dist;
        const std::span<const WalkAdoption> ad = support->adoptions(w.slot);
        w.adoptions_off = static_cast<std::uint32_t>(ws.adoption_pool.size());
        w.adoptions_len = static_cast<std::uint32_t>(ad.size());
        ws.adoption_pool.insert(ws.adoption_pool.end(), ad.begin(), ad.end());
        ++ws.reserved[w.parent];
        w.step_index = walk.step_index();
        w.phase = JoinPhase::kCommit;
        ws.queue.push_back(wi);
        break;
      }
      case JoinPhase::kCommit: {
        --ws.reserved[w.parent];
        const std::span<const WalkAdoption> ad{
            ws.adoption_pool.data() + w.adoptions_off, w.adoptions_len};
        if (!support->commit(*this, w.host, w.parent, w.parent_dist,
                             w.parent_has_dist, ad, w.stats)) {
          // Lost a race another walker created between stop and commit
          // (e.g. every VDM adoption went stale). Retry immediately — never
          // park here, or the capacity this walker *can* still reach might
          // produce no further wakes.
          w.phase = JoinPhase::kStart;
          ws.queue.push_back(wi);
          break;
        }
        finish_join(w.host, w.stats, /*is_reconnect=*/false, 0.0);
        tree().flood().in_session_since[w.host] = now + w.stats.elapsed;
        if (protocol_.wants_refinement()) arm_refinement(w.host);
        // The attach created capacity (the joiner's own free slots) and may
        // have restructured the neighborhood — wake parked walkers, FIFO.
        std::size_t wake = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::max(w.degree_limit - 1, 0)));
        wake = std::min(wake, ws.parked.size() - p_head);
        for (; wake > 0; --wake) {
          ws.queue.push_back(ws.parked[p_head++]);
        }
        break;
      }
    }
  }

  // Progress argument: the final active walker ran with every other
  // reservation released, i.e. against the true tree — if it parked, the
  // session genuinely has no attachment point left, which activate() caps
  // prevent. A stall here means the reservation protocol leaked.
  VDM_REQUIRE_MSG(p_head == ws.parked.size(),
                  "concurrent join pipeline stalled with parked walkers");
  ws.queue.clear();
  ws.parked.clear();
  ws.walkers.clear();
  ws.adoption_pool.clear();
  if (params_.paranoid_checks) tree().validate();
}

net::HostId Session::reconnect_start(net::HostId orphan) const {
  const net::HostId gp = tree().member(orphan).grandparent;
  if (gp != kInvalidHost && eligible_parent(orphan, gp)) return gp;
  return params_.source;
}

void Session::leave(net::HostId h) {
  VDM_REQUIRE(started_);
  VDM_REQUIRE_MSG(h != params_.source, "the source never leaves");
  const MemberState& m = tree().member(h);
  VDM_REQUIRE(m.alive);

  // Graceful leave: one notice per child plus one to the parent (§3.3).
  OpStats notice;
  charge_notification(static_cast<int>(m.children.size()) +
                          (m.parent != kInvalidHost ? 1 : 0),
                      notice);
  window_.control_messages += notice.messages;
  totals_.control_messages += notice.messages;

  disarm_refinement(h);
  disarm_heartbeat(h);
  forget_crash_orphan(h);
  tree().deactivate(h, storage_.orphans);

  // Each orphan reconnects on its own, starting at its grandparent if that
  // node is still alive, else at the source (§3.3). Orphans act in child
  // order — deterministic, and equivalent to near-simultaneous recovery.
  for (const net::HostId orphan : storage_.orphans) {
    run_join(orphan, reconnect_start(orphan), /*is_reconnect=*/true);
  }
  if (params_.paranoid_checks) tree().validate();
}

void Session::crash(net::HostId h) {
  VDM_REQUIRE(started_);
  VDM_REQUIRE_MSG(h != params_.source, "the source never crashes");
  VDM_REQUIRE(tree().member(h).alive);
  ++window_.crashes;
  ++totals_.crashes;

  // No leave notice, no notification messages: the node just vanishes.
  disarm_refinement(h);
  disarm_heartbeat(h);
  forget_crash_orphan(h);  // h may itself still be an undetected orphan
  tree().deactivate(h, storage_.orphans);

  if (params_.faults.heartbeat_period <= 0.0) {
    // No failure detector configured: model instant detection, i.e. the
    // orphans reconnect immediately as after a graceful leave (but the
    // crashed node still paid no notification messages).
    for (const net::HostId orphan : storage_.orphans) {
      run_join(orphan, reconnect_start(orphan), /*is_reconnect=*/true);
    }
    if (params_.paranoid_checks) tree().validate();
    return;
  }

  // With heartbeats, the orphans stay detached — their probes now go
  // unanswered and complete_detection() reconnects them once the miss
  // streak plus timeout elapses. Until then the data plane counts their
  // subtrees as expecting-but-not-receiving (see emit_chunk).
  const sim::Time now = reactor_.now();
  for (const net::HostId orphan : storage_.orphans) {
    HeartbeatState& hb = storage_.heartbeats[orphan];
    hb.orphaned = true;
    hb.orphaned_at = now;
    crash_orphans_.push_back(orphan);
  }
}

OpStats Session::refine(net::HostId h) {
  const PhaseTimer timer(params_.profile, profile_.refine_secs);
  const MemberState& m = tree().member(h);
  if (!m.alive || m.parent == kInvalidHost) return {};
  OpStats stats = protocol_.execute_refine(*this, h);
  window_.control_messages += stats.messages;
  totals_.control_messages += stats.messages;
  ++window_.refines_run;
  ++totals_.refines_run;
  if (stats.parent_changed) {
    ++window_.refine_switches;
    ++totals_.refine_switches;
  }
  if (params_.paranoid_checks) tree().validate();
  return stats;
}

double Session::measure(net::HostId from, net::HostId to, OpStats& stats) {
  MetricProvider::Cost cost;
  const double v = metric_.measure_with_cost(underlay_, from, to, rng_, cost);
  stats.elapsed += lossy_elapsed(from, to, cost.messages, cost.elapsed, stats);
  return v;
}

std::span<const double> Session::measure_parallel(
    net::HostId from, std::span<const net::HostId> targets,
    std::vector<double>& out, OpStats& stats) {
  out.clear();
  sim::Time slowest = 0.0;
  for (const net::HostId t : targets) {
    MetricProvider::Cost cost;
    out.push_back(metric_.measure_with_cost(underlay_, from, t, rng_, cost));
    slowest = std::max(slowest,
                       lossy_elapsed(from, t, cost.messages, cost.elapsed, stats));
  }
  stats.elapsed += slowest;
  return out;
}

void Session::charge_exchange(net::HostId from, net::HostId with, OpStats& stats) {
  stats.elapsed += lossy_elapsed(from, with, 2, underlay_.rtt(from, with), stats);
}

sim::Time Session::lossy_elapsed(net::HostId from, net::HostId with, int messages,
                                 sim::Time base, OpStats& stats) {
  stats.messages += messages;
  const FaultParams& f = params_.faults;
  if (!f.lossy_control) return base;
  // An exchange survives only if both the request and the reply get
  // through; each leg drops with the path loss compounded by the extra
  // control-plane loss. p == 0 draws nothing (Rng::chance contract), so a
  // lossless underlay with the knob at zero stays bit-identical.
  const double p =
      1.0 - (1.0 - underlay_.loss(from, with)) * (1.0 - f.control_loss_extra);
  if (p <= 0.0) return base;
  sim::Time waited = 0.0;
  double timeout = f.retry_timeout;
  for (int attempt = 0; attempt < f.max_retries; ++attempt) {
    const bool lost = rng_.chance(p) || rng_.chance(p);  // request, then reply
    if (!lost) return waited + base;
    stats.messages += messages;  // the retransmission
    waited += timeout;
    timeout = std::min(timeout * f.backoff_factor, f.retry_timeout_max);
  }
  // Retries exhausted: the control channel is reliable-with-retries — loss
  // manifests as latency and message overhead, never as protocol failure —
  // so the final retransmission is treated as delivered.
  return waited + base;
}

void Session::charge_notification(int count, OpStats& stats) {
  stats.messages += count;
}

bool Session::eligible_parent(net::HostId joiner, net::HostId candidate) const {
  if (candidate == joiner) return false;
  if (!tree().member(candidate).alive) return false;
  return !tree().is_ancestor(joiner, candidate);
}

void Session::arm_refinement(net::HostId h) {
  std::vector<std::uint64_t>& slab = storage_.walk.refine_events;
  if (slab.size() < tree().num_hosts()) {
    slab.resize(tree().num_hosts(), transport::kInvalidTimer);
  }
  if (slab[h] != transport::kInvalidTimer) reactor_.cancel(slab[h]);
  const sim::Time period = protocol_.refinement_period();
  // The tick re-arms into its own slab slot (reschedule_current_in keeps the
  // id), so the stored EventId stays valid for the member's whole tenure.
  // Disarming mid-tick suppresses the re-arm via the simulator's
  // firing-cancelled state, exactly like PeriodicTimer::stop().
  slab[h] = reactor_.schedule_in(period, [this, h, period] {
    refine(h);
    reactor_.reschedule_current_in(period);
  });
}

void Session::disarm_refinement(net::HostId h) {
  std::vector<std::uint64_t>& slab = storage_.walk.refine_events;
  if (h < slab.size() && slab[h] != transport::kInvalidTimer) {
    reactor_.cancel(slab[h]);
    slab[h] = transport::kInvalidTimer;
  }
}

void Session::ensure_heartbeat(net::HostId h) {
  if (params_.faults.heartbeat_period <= 0.0) return;
  HeartbeatState& hb = storage_.heartbeats[h];
  hb.misses = 0;
  hb.orphaned = false;
  hb.orphaned_at = 0.0;
  hb.first_miss_at = 0.0;
  if (hb.pending_detect != transport::kInvalidTimer) {
    reactor_.cancel(hb.pending_detect);
    hb.pending_detect = transport::kInvalidTimer;
  }
  // Arm only when not probing (first join, or a full miss streak stopped
  // the timer); a reconnect after a graceful leave keeps its tick phase.
  // The tick re-arms itself in place, like transport::PeriodicTimer.
  if (hb.timer == transport::kInvalidTimer) {
    hb.timer = reactor_.schedule_in(params_.faults.heartbeat_period,
                                    [this, h] { heartbeat_tick(h); });
  }
}

void Session::disarm_heartbeat(net::HostId h) {
  if (h >= storage_.heartbeats.size()) return;  // heartbeats off
  HeartbeatState& hb = storage_.heartbeats[h];
  if (hb.pending_detect != transport::kInvalidTimer) {
    reactor_.cancel(hb.pending_detect);
  }
  if (hb.timer != transport::kInvalidTimer) reactor_.cancel(hb.timer);
  hb = HeartbeatState{};
}

void Session::forget_crash_orphan(net::HostId h) {
  const auto it = std::find(crash_orphans_.begin(), crash_orphans_.end(), h);
  if (it != crash_orphans_.end()) crash_orphans_.erase(it);
}

void Session::heartbeat_tick(net::HostId h) {
  HeartbeatState& hb = storage_.heartbeats[h];
  const MemberState& m = tree().member(h);
  VDM_REQUIRE_MSG(m.alive, "heartbeat ticking on a dead member");
  const FaultParams& f = params_.faults;

  bool missed;
  if (m.parent == kInvalidHost) {
    // The parent crashed (or the member is detached): the probe goes out
    // and nothing answers.
    ++window_.control_messages;
    ++totals_.control_messages;
    missed = true;
  } else {
    // Probe + ack; losing either leg is a miss. p == 0 draws nothing, so
    // heartbeats over a lossless control plane cost messages but never
    // perturb the rng stream.
    window_.control_messages += 2;
    totals_.control_messages += 2;
    double p = 0.0;
    if (f.lossy_control) {
      p = 1.0 -
          (1.0 - underlay_.loss(h, m.parent)) * (1.0 - f.control_loss_extra);
    }
    missed = rng_.chance(p) || rng_.chance(p);
  }

  if (!missed) {
    hb.misses = 0;
  } else {
    ++hb.misses;
    if (hb.misses == 1) hb.first_miss_at = reactor_.now();
    if (hb.misses >= f.heartbeat_misses &&
        hb.pending_detect == transport::kInvalidTimer) {
      // Verdict reached: stop probing (no re-arm) and declare the parent
      // dead once the final probe's own timeout expires; the rejoin in
      // complete_detection arms a fresh probe timer.
      hb.timer = transport::kInvalidTimer;
      hb.pending_detect = reactor_.schedule_in(
          f.heartbeat_timeout, [this, h] { complete_detection(h); });
      return;
    }
  }
  reactor_.reschedule_current_in(f.heartbeat_period);
}

void Session::complete_detection(net::HostId h) {
  HeartbeatState& hb = storage_.heartbeats[h];
  hb.pending_detect = transport::kInvalidTimer;
  const MemberState& m = tree().member(h);
  VDM_REQUIRE_MSG(m.alive, "detection completing on a dead member");

  sim::Time detection;
  if (hb.orphaned) {
    // True positive: latency from the parent's actual crash to this verdict.
    detection = reactor_.now() - hb.orphaned_at;
    forget_crash_orphan(h);
  } else {
    // False positive: the miss streak was pure control loss and the parent
    // is still alive. The node acts on its verdict anyway — detach and
    // rejoin in the same sim event, so the only data-plane gap is the
    // rejoin handshake itself.
    detection = reactor_.now() - hb.first_miss_at;
    if (m.parent != kInvalidHost) tree().detach(h);
  }
  run_join(h, reconnect_start(h), /*is_reconnect=*/true, detection);
  if (params_.paranoid_checks) tree().validate();
}

void Session::reset_window() { window_ = Counters{}; }

void Session::drain_startup_records(std::vector<TimingRecord>& out) {
  out.clear();
  std::swap(out, storage_.startup_records);
}

void Session::drain_reconnect_records(std::vector<TimingRecord>& out) {
  out.clear();
  std::swap(out, storage_.reconnect_records);
}

void Session::emit_chunk() {
  const PhaseTimer timer(params_.profile, profile_.flood_secs);
  ++window_.chunks_emitted;
  ++totals_.chunks_emitted;
  const sim::Time now = reactor_.now();
  const sim::Time buffered_now = now + params_.buffer_seconds;

  // Flood the chunk down the tree. A node is *expected* to see the chunk
  // once it has completed its initial join; it actually *receives* it only
  // if it is not inside a reconnection outage, its parent received it, and
  // the overlay-path loss draw succeeds. Descendants of an outaged node
  // therefore miss chunks too — exactly the churn loss the paper measures.
  //
  // This is the hottest loop of a whole run (every overlay edge, every
  // chunk), so it runs allocation-free on reusable scratch, memoizes each
  // child's uplink loss, and accumulates session counters in locals. All
  // per-member state the flood touches lives in the Membership FloodTable's
  // parallel arrays (SoA), so at 100k+ members an edge visit streams a few
  // contiguous cache lines instead of fetching a scattered member struct.
  // Leaves are never pushed, and the rng draw order matches the naive
  // traversal exactly (skipped leaf frames drew nothing), preserving
  // determinism.
  FloodTable& fl = tree().flood();
  std::uint64_t transmissions = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered_total = 0;
  storage_.chunk_stack.clear();
  storage_.chunk_stack.push_back({params_.source, true});
  while (!storage_.chunk_stack.empty()) {
    const ChunkFrame f = storage_.chunk_stack.back();
    storage_.chunk_stack.pop_back();
    for (const net::HostId c : tree().member_unchecked(f.host).children) {
      bool delivered = false;
      if (f.delivered) {
        ++transmissions;
        // A playout buffer forgives outages that end within
        // buffer_seconds: the chunk is recovered from the new parent
        // before playback needs it, so the viewer never sees the gap.
        if (buffered_now >= fl.receiving_since[c]) {
          if (fl.uplink_loss_parent[c] != f.host) {
            fl.uplink_loss_parent[c] = f.host;
            fl.uplink_loss[c] = underlay_.loss(f.host, c);
          }
          delivered = !rng_.chance(fl.uplink_loss[c]);
        }
      }
      if (now >= fl.in_session_since[c]) {
        ++fl.chunks_expected[c];
        ++expected;
        if (delivered) {
          ++fl.chunks_received[c];
          ++delivered_total;
        }
      }
      if (!tree().member_unchecked(c).children.empty()) {
        storage_.chunk_stack.push_back({c, delivered});
      }
    }
  }

  // Subtrees detached by a still-undetected crash are invisible to the
  // flood above (nothing links into them), yet their members still expect
  // chunks — that gap IS the churn loss a crash causes. Walk them
  // explicitly; draws nothing and costs nothing when no crash is pending.
  for (const net::HostId root : crash_orphans_) {
    storage_.chunk_stack.push_back({root, false});
    while (!storage_.chunk_stack.empty()) {
      const ChunkFrame f = storage_.chunk_stack.back();
      storage_.chunk_stack.pop_back();
      if (now >= fl.in_session_since[f.host]) {
        ++fl.chunks_expected[f.host];
        ++expected;
      }
      for (const net::HostId c : tree().member_unchecked(f.host).children) {
        storage_.chunk_stack.push_back({c, false});
      }
    }
  }

  window_.data_transmissions += transmissions;
  totals_.data_transmissions += transmissions;
  window_.chunks_expected += expected;
  totals_.chunks_expected += expected;
  window_.chunks_delivered += delivered_total;
  totals_.chunks_delivered += delivered_total;
}

}  // namespace vdm::overlay
