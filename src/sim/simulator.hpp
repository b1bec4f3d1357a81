#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace vdm::sim {

/// Identifier of a scheduled event, usable to cancel it before it fires.
/// Encodes (generation, slab slot); a stale id — one whose event already
/// fired or was cancelled — fails the generation check and is ignored.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event simulator.
///
/// The heart of the reproduction: every protocol message, probe, data chunk,
/// churn action and refinement timer is an event on this queue. Events at
/// equal timestamps execute in scheduling order (stable sequence-number
/// tie-break), which keeps whole experiments bit-deterministic per seed —
/// parallelism lives one level up, across independent seeds.
///
/// Implementation: events live in a free-list slab of fixed slots with
/// generation-stamped ids, ordered by an indexed 4-ary min-heap (slot ->
/// heap-position back-pointers), so cancel() removes the event with one
/// localized sift instead of accumulating tombstones. Callbacks are
/// small-buffer-optimized (InlineFn), so once the slab and heap have grown
/// to a run's working set, schedule/fire/cancel perform zero heap
/// allocations.
///
/// Periodic re-arms bypass the heap. A reschedule_current_in(d) lands at
/// now + d with a fresh sequence number; now never decreases and rounding
/// is monotone, so successive re-arms with the same d arrive in exact
/// (t, seq) order and a FIFO keeps them sorted. A few fixed-delay lanes —
/// intrusive doubly-linked lists through the slab, keyed by the exact
/// delay — take those re-arms in O(1); firing takes the earliest of the
/// heap top and the lane heads under the same (t, seq) comparison, so the
/// firing order is exactly the heap-only order. One-shots and re-arms whose
/// delay finds no lane stay on the heap.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Returns a cancellable id.
  EventId schedule_at(Time t, InlineFn fn);

  /// Schedules `fn` after `delay` (>= 0) seconds.
  EventId schedule_in(Time delay, InlineFn fn);

  /// Cancels a pending event; a no-op if it already fired or was cancelled.
  /// Cancelling the currently-firing event suppresses its re-arm (see
  /// reschedule_current_in) but does not interrupt the running callback.
  void cancel(EventId id);

  /// From inside a callback only: re-arms the currently-firing event to run
  /// again `delay` seconds from now, reusing its slot, id and callable —
  /// no allocation, no id churn. Returns false (and does nothing) outside a
  /// callback or when the firing event was cancelled mid-callback.
  bool reschedule_current_in(Time delay);

  /// Executes the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains (or `max_events` fire). Returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::size_t run_until(Time t);

  /// Number of live (non-cancelled) pending events.
  std::size_t pending() const { return heap_.size() + lane_entries_; }

  /// Timestamp of the earliest pending event, or +infinity when the queue is
  /// empty. The wall-clock reactor (transport::UdpReactor) paces this engine
  /// by sleeping until the next deadline; the DES never needs it.
  Time next_event_time() const {
    const std::uint32_t next = next_slot();
    return next == kNoSlot ? std::numeric_limits<Time>::infinity()
                           : slots_[next].t;
  }

  /// Total events executed since construction (for micro-benchmarks).
  std::uint64_t executed() const { return executed_; }

  /// Returns the simulator to its just-constructed state — clock at zero,
  /// queue empty — while keeping the slab and heap capacity a previous run
  /// grew. Never call from inside a callback. This is what lets a RunScratch
  /// shuttle one Simulator through back-to-back runs allocation-free.
  void reset() {
    slots_.clear();
    heap_.clear();
    lanes_.fill(Lane{});
    lane_entries_ = 0;
    lane_min_ = kNoSlot;
    free_head_ = kNoSlot;
    now_ = kTimeZero;
    next_seq_ = 1;
    executed_ = 0;
    firing_slot_ = kNoSlot;
    firing_cancelled_ = false;
    firing_rearm_ = false;
    firing_rearm_delay_ = kTimeZero;
  }

  /// Heap bytes reserved by the slab and heap (arena accounting).
  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           heap_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Fixed-delay FIFO lanes. Enough for the periods one run re-arms on
  /// (heartbeat, chunk clock, refinement); further delays use the heap.
  static constexpr std::uint32_t kLanes = 4;
  /// Slot::heap_pos values from kLaneTag up mark a slot queued on lane
  /// heap_pos - kLaneTag; no heap ever holds that many entries.
  static constexpr std::uint32_t kLaneTag = kNoSlot - kLanes;

  struct Slot {
    Time t = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break within a timestamp
    std::uint32_t generation = 1;
    /// Heap index, kLaneTag + lane while on a lane, kNoSlot while firing
    /// or free.
    std::uint32_t heap_pos = kNoSlot;
    /// Free-list link while free; next slot of the lane while on a lane.
    std::uint32_t next = kNoSlot;
    /// Previous slot of the lane; sits in the alignment padding before fn.
    std::uint32_t prev = kNoSlot;
    InlineFn fn;
  };
  // The slab is this size times a run's peak event count, and perfbench
  // peak_rss_mb is sensitive to it: a 112 B slot (a separate lane-index
  // field) read +2.4 MB (+7.6%) on flash_crowd, mostly glibc's dynamic
  // mmap threshold moving with the first large free. Keep new fields in
  // padding or encoded in existing ones.
  static_assert(sizeof(Slot) <= 96, "Slot grew past 96 B: see comment");

  struct Lane {
    Time delay = 0.0;  // meaningful only while the lane is non-empty
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(slot) + 1);  // +1 keeps 0 == kInvalidEvent
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// True if the event keyed by slot `a` fires before the one in slot `b`.
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.t != sb.t) return sa.t < sb.t;
    return sa.seq < sb.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(std::uint32_t slot);
  void heap_remove(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Queues a re-armed slot on the lane of `delay` (claiming an empty lane
  /// if none carries it), or on the heap when every lane carries another.
  void rearm(std::uint32_t slot, Time delay);
  /// Takes a queued slot off its lane or the heap.
  void unqueue(std::uint32_t slot);
  /// The earliest pending slot (heap top or a lane head), or kNoSlot.
  std::uint32_t next_slot() const {
    if (heap_.empty()) return lane_min_;
    if (lane_min_ == kNoSlot) return heap_[0];
    return before(lane_min_, heap_[0]) ? lane_min_ : heap_[0];
  }
  void fire(std::uint32_t slot);

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;

  std::vector<Slot> slots_;            // slab; grows, never shrinks
  std::uint32_t free_head_ = kNoSlot;  // free-list through Slot::next
  std::vector<std::uint32_t> heap_;    // indexed 4-ary min-heap of slots
  std::array<Lane, kLanes> lanes_{};
  std::size_t lane_entries_ = 0;       // slots queued on all lanes
  std::uint32_t lane_min_ = kNoSlot;   // earliest lane head, kNoSlot if none

  // State of the callback currently running (kNoSlot outside fire()).
  std::uint32_t firing_slot_ = kNoSlot;
  bool firing_cancelled_ = false;
  bool firing_rearm_ = false;
  Time firing_rearm_delay_ = kTimeZero;
};

}  // namespace vdm::sim
