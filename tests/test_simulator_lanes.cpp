// Differential test of the event engine's fixed-delay FIFO lanes. A seeded
// random mix of one-shots, self re-arming timers on 1-6 distinct periods
// (more periods than lanes, so re-arms also fall back to the heap), cancels
// from outside, from an earlier event and from inside a timer's own tick,
// run_until/run slices and reset()-then-reuse drives sim::Simulator and a
// tiny priority_queue<(t, seq)> reference model through the same decisions.
// Every fire (tag, now), every pending() count, every re-arm verdict and
// every next_event_time() must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <vector>

#include "sim/simulator.hpp"

namespace vdm::sim {
namespace {

/// One observation: a fire (tag >= 0), or a slice boundary (tag < 0).
struct Obs {
  int tag;
  Time now;
  std::size_t pending;
  bool rearmed;
  friend bool operator==(const Obs&, const Obs&) = default;
};

/// Reference model: lazy-deletion binary heap ordered by (t, seq), with
/// the engine's firing-event semantics (cancel of the firing event only
/// suppresses its re-arm; a re-arm takes a fresh sequence number when the
/// callback returns).
class Model {
 public:
  std::function<void(int)> on_fire;

  Time now() const { return now_; }
  std::size_t pending() const { return pending_; }
  void schedule_at(Time t, int tag) { push(t, tag); }
  void schedule_in(Time delay, int tag) { push(now_ + delay, tag); }
  void cancel(int tag) {
    if (tag == firing_) {
      firing_cancelled_ = true;
    } else if (queued_[tag]) {
      queued_[tag] = false;
      ++gen_[tag];
      --pending_;
    }
  }
  bool reschedule_current_in(Time delay) {
    if (firing_ < 0 || firing_cancelled_) return false;
    rearm_ = true;
    rearm_in_ = delay;
    return true;
  }
  std::size_t run(std::size_t max_events) {
    std::size_t n = 0;
    while (n < max_events && next() != nullptr) {
      fire_next();
      ++n;
    }
    return n;
  }
  std::size_t run_until(Time t) {
    std::size_t n = 0;
    for (const Entry* e = next(); e != nullptr && e->t <= t; e = next()) {
      fire_next();
      ++n;
    }
    now_ = t;
    return n;
  }
  Time next_event_time() {
    const Entry* e = next();
    return e == nullptr ? std::numeric_limits<Time>::infinity() : e->t;
  }
  void reset() {
    queue_ = {};
    gen_.clear();
    queued_.clear();
    now_ = 0.0;
    seq_ = 1;
    pending_ = 0;
  }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    int tag;
    std::uint64_t gen;
    bool operator>(const Entry& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  void push(Time t, int tag) {
    if (static_cast<std::size_t>(tag) >= gen_.size()) {
      gen_.resize(tag + 1, 0);
      queued_.resize(tag + 1, false);
    }
    queued_[tag] = true;
    ++pending_;
    queue_.push(Entry{t, seq_++, tag, gen_[tag]});
  }
  const Entry* next() {
    while (!queue_.empty() && queue_.top().gen != gen_[queue_.top().tag]) {
      queue_.pop();
    }
    return queue_.empty() ? nullptr : &queue_.top();
  }
  void fire_next() {
    const Entry e = queue_.top();
    queue_.pop();
    queued_[e.tag] = false;
    ++gen_[e.tag];
    --pending_;
    now_ = e.t;
    firing_ = e.tag;
    firing_cancelled_ = false;
    rearm_ = false;
    on_fire(e.tag);
    if (rearm_ && !firing_cancelled_) push(now_ + rearm_in_, e.tag);
    firing_ = -1;
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<std::uint64_t> gen_;
  std::vector<bool> queued_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 1;
  std::size_t pending_ = 0;
  int firing_ = -1;
  bool firing_cancelled_ = false;
  bool rearm_ = false;
  Time rearm_in_ = 0.0;
};

/// The engine under test behind the Model's tag-based surface.
class Engine {
 public:
  std::function<void(int)> on_fire;

  Time now() const { return sim_.now(); }
  std::size_t pending() const { return sim_.pending(); }
  void schedule_at(Time t, int tag) {
    store(tag, sim_.schedule_at(t, fn(tag)));
  }
  void schedule_in(Time delay, int tag) {
    store(tag, sim_.schedule_in(delay, fn(tag)));
  }
  void cancel(int tag) { sim_.cancel(ids_[tag]); }
  bool reschedule_current_in(Time delay) {
    return sim_.reschedule_current_in(delay);
  }
  std::size_t run(std::size_t max_events) { return sim_.run(max_events); }
  std::size_t run_until(Time t) { return sim_.run_until(t); }
  Time next_event_time() const { return sim_.next_event_time(); }
  void reset() {
    sim_.reset();
    ids_.clear();
  }

 private:
  InlineFn fn(int tag) {
    return [this, tag] { on_fire(tag); };
  }
  void store(int tag, EventId id) {
    if (static_cast<std::size_t>(tag) >= ids_.size()) ids_.resize(tag + 1);
    ids_[tag] = id;
  }

  Simulator sim_;
  std::vector<EventId> ids_;
};

/// Drives one backend with decisions drawn from a seeded rng in firing
/// order: as long as the backends agree, they see identical decisions.
template <typename Backend>
class Driver {
 public:
  Driver(std::uint64_t seed, int num_periods) : rng_(seed) {
    // Periods that stress rounding (0.1, 0.3) beside exact ones (1.0
    // collides with the integer one-shot times below).
    const Time candidates[] = {1.0, 0.25, 0.1, 0.3, 0.5, 2.0};
    for (int i = 0; i < num_periods; ++i) periods_.push_back(candidates[i]);
    backend_.on_fire = [this](int tag) { fire(tag); };
  }

  std::vector<Obs> run() {
    for (int round = 0; round < 3; ++round) {
      if (round > 0) {
        backend_.reset();
        period_of_.clear();
      }
      for (int i = 0; i < 40; ++i) start_periodic();
      for (int i = 0; i < 60; ++i) start_one_shot();
      for (int slice = 0; slice < 40; ++slice) run_slice();
    }
    return log_;
  }

 private:
  double uniform() {
    return std::uniform_real_distribution<double>(0, 1)(rng_);
  }
  int below(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  Time any_period() {
    return periods_[below(static_cast<int>(periods_.size()))];
  }
  int new_tag(Time period) {
    period_of_.push_back(period);
    return static_cast<int>(period_of_.size()) - 1;
  }
  bool room() const { return period_of_.size() < 3000; }

  void start_periodic() {
    if (!room()) return;
    const Time period = any_period();
    const int tag = new_tag(period);
    // Half start on an integer time so period-1.0 ticks tie exactly with
    // the integer one-shots; the rest start a period from now.
    if (uniform() < 0.5) {
      backend_.schedule_at(std::floor(backend_.now()) + 1.0 + below(3), tag);
    } else {
      backend_.schedule_in(period, tag);
    }
  }

  void start_one_shot() {
    if (!room()) return;
    const int tag = new_tag(0.0);
    const double u = uniform();
    if (u < 0.35) {
      backend_.schedule_at(std::floor(backend_.now()) + 1.0 + below(4), tag);
    } else if (u < 0.55) {
      // Exactly one period out: ties with re-arms landing at the same time.
      backend_.schedule_in(any_period(), tag);
    } else if (u < 0.65) {
      backend_.schedule_in(0.0, tag);
    } else {
      backend_.schedule_in(3.0 * uniform(), tag);
    }
  }

  void cancel_some() {
    if (!period_of_.empty()) {
      backend_.cancel(below(static_cast<int>(period_of_.size())));
    }
  }

  void fire(int tag) {
    log_.push_back({tag, backend_.now(), backend_.pending(), false});
    const Time period = period_of_[tag];
    if (period > 0.0) {
      bool rearmed = false;
      const double u = uniform();
      if (u < 0.06) {
        backend_.cancel(tag);  // cancel self first: the re-arm is refused
        rearmed = backend_.reschedule_current_in(period);
      } else if (u < 0.12) {
        // Stop by not re-arming.
      } else if (u < 0.17) {
        rearmed = backend_.reschedule_current_in(period);
        backend_.cancel(tag);  // cancel after re-arming: suppressed
      } else {
        rearmed = backend_.reschedule_current_in(period);
      }
      log_.back().rearmed = rearmed;
    }
    if (uniform() < 0.3) start_one_shot();
    if (uniform() < 0.15) cancel_some();
    if (uniform() < 0.1) start_periodic();
  }

  void run_slice() {
    for (int i = below(4); i > 0; --i) cancel_some();
    for (int i = below(6); i > 0; --i) start_one_shot();
    for (int i = below(3); i > 0; --i) start_periodic();
    if (uniform() < 0.2) {
      backend_.run(static_cast<std::size_t>(below(200)));
    } else {
      // Sometimes stop exactly on an integer, where ties cluster.
      const Time end = uniform() < 0.3 ? std::floor(backend_.now()) + 1.0
                                       : backend_.now() + 3.0 * uniform();
      backend_.run_until(end);
    }
    log_.push_back({-1, backend_.now(), backend_.pending(), false});
    log_.push_back({-2, backend_.next_event_time(), backend_.pending(), false});
  }

  Backend backend_;
  std::mt19937_64 rng_;
  std::vector<Time> periods_;
  std::vector<Time> period_of_;  // 0 for one-shots
  std::vector<Obs> log_;
};

TEST(SimulatorLanes, MatchesPriorityQueueReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const int num_periods = static_cast<int>((seed - 1) % 6) + 1;
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << num_periods
                                      << " periods");
    const std::vector<Obs> want = Driver<Model>(seed, num_periods).run();
    const std::vector<Obs> got = Driver<Engine>(seed, num_periods).run();
    ASSERT_GT(want.size(), 1000u);
    const std::size_t n = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i].tag, want[i].tag) << "observation " << i;
      ASSERT_EQ(got[i].now, want[i].now) << "observation " << i;
      ASSERT_EQ(got[i].pending, want[i].pending) << "observation " << i;
      ASSERT_EQ(got[i].rearmed, want[i].rearmed) << "observation " << i;
    }
    ASSERT_EQ(got.size(), want.size());
  }
}

// A lone self re-arming timer shares its delay with a one-shot scheduled at
// the very same time: the heap entry has the lower sequence number when it
// was scheduled first, the lane entry when it was re-armed first.
TEST(SimulatorLanes, EqualTimeTiesFollowSequenceAcrossLaneAndHeap) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(1.0, [&] {
    order.push_back(0);
    if (s.now() < 3.0) s.reschedule_current_in(1.0);
  });
  s.schedule_at(2.0, [&] { order.push_back(1); });  // seq before the re-arm
  s.run_until(2.5);
  s.schedule_at(3.0, [&] { order.push_back(2); });  // seq after the re-arm
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 0, 2}));
}

}  // namespace
}  // namespace vdm::sim
