#include "overlay/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "overlay/workload.hpp"
#include "util/require.hpp"

namespace vdm::overlay {

DegreeSpec DegreeSpec::uniform(int lo, int hi) {
  VDM_REQUIRE(lo >= 1 && hi >= lo);
  return DegreeSpec{lo, hi, -1.0};
}

DegreeSpec DegreeSpec::average(double avg) {
  VDM_REQUIRE(avg >= 1.0);
  const int lo = static_cast<int>(std::floor(avg));
  const int hi = static_cast<int>(std::ceil(avg));
  if (lo == hi) return DegreeSpec{lo, hi, 0.0};
  return DegreeSpec{lo, hi, avg - lo};
}

int DegreeSpec::sample(util::Rng& rng) const {
  if (p_hi < 0.0) return static_cast<int>(rng.uniform_int(lo, hi));
  return rng.chance(p_hi) ? hi : lo;
}

double DegreeSpec::mean() const {
  if (p_hi < 0.0) return (lo + hi) / 2.0;
  return lo + p_hi * (hi - lo);
}

ScenarioDriver::ScenarioDriver(Session& session, const ScenarioParams& params,
                               util::Rng rng, ScenarioScratch* scratch)
    : session_(session), params_(params), rng_(rng), scratch_(scratch) {
  VDM_REQUIRE(params_.target_members >= 1);
  VDM_REQUIRE_MSG(
      params_.target_members + params_.flash_count <
          session.underlay().num_hosts(),
      "need spare hosts beyond the target membership for churn");
  VDM_REQUIRE(params_.churn_rate >= 0.0 && params_.churn_rate <= 1.0);
  VDM_REQUIRE(params_.crash_fraction >= 0.0 && params_.crash_fraction <= 1.0);
  VDM_REQUIRE(params_.settle_time < params_.churn_interval);
  if (scratch_ != nullptr) {
    available_ = std::move(scratch_->available);
    in_overlay_ = std::move(scratch_->in_overlay);
    overlay_pos_ = std::move(scratch_->overlay_pos);
    pending_leave_ = std::move(scratch_->pending_leave);
    available_.clear();
    in_overlay_.clear();
  }
  overlay_pos_.assign(session.underlay().num_hosts(), kNotMember);
  pending_leave_.assign(session.underlay().num_hosts(), 0);
  for (net::HostId h = 0; h < session.underlay().num_hosts(); ++h) {
    if (h != session.source()) available_.push_back(h);
  }
}

ScenarioDriver::~ScenarioDriver() {
  if (scratch_ == nullptr) return;
  scratch_->available = std::move(available_);
  scratch_->in_overlay = std::move(in_overlay_);
  scratch_->overlay_pos = std::move(overlay_pos_);
  scratch_->pending_leave = std::move(pending_leave_);
}

net::HostId ScenarioDriver::draw_available() {
  if (available_.empty()) {
    // Joins outran departures: target_members + flash_count + the churn
    // joiners still in flight exceed the underlay host pool.
    VDM_REQUIRE_MSG(false,
                    "host pool exhausted: target_members (" +
                        std::to_string(params_.target_members) +
                        ") + flash_count (" + std::to_string(params_.flash_count) +
                        ") + in-flight churn joins exceed the " +
                        std::to_string(session_.underlay().num_hosts()) +
                        "-host underlay pool; enlarge host_pool / --nodes");
  }
  const auto i = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(available_.size()) - 1));
  const net::HostId h = available_[i];
  available_[i] = available_.back();
  available_.pop_back();
  return h;
}

net::HostId ScenarioDriver::draw_victim() {
  // Pick an alive member that is not already scheduled to leave this slot.
  VDM_REQUIRE(!in_overlay_.empty());
  if (pending_count_ >= in_overlay_.size()) {
    return net::kInvalidHost;  // slot churn exceeds membership; skip this pair
  }
  // A non-pending member exists, so rejection sampling terminates; the draw
  // sequence matches the historic capped loop on every path that succeeded.
  for (;;) {
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(in_overlay_.size()) - 1));
    const net::HostId h = in_overlay_[i];
    if (!pending_leave_[h]) {
      pending_leave_[h] = 1;
      ++pending_count_;
      return h;
    }
  }
}

void ScenarioDriver::add_member(net::HostId h) {
  overlay_pos_[h] = static_cast<std::uint32_t>(in_overlay_.size());
  in_overlay_.push_back(h);
}

void ScenarioDriver::remove_member(net::HostId h) {
  if (pending_leave_[h]) {
    pending_leave_[h] = 0;
    --pending_count_;
  }
  const std::uint32_t i = overlay_pos_[h];
  const net::HostId moved = in_overlay_.back();
  in_overlay_[i] = moved;
  overlay_pos_[moved] = i;
  in_overlay_.pop_back();
  overlay_pos_[h] = kNotMember;
  available_.push_back(h);
}

void ScenarioDriver::do_join(net::HostId h) {
  session_.join(h, params_.degrees.sample(rng_));
  add_member(h);
}

void ScenarioDriver::do_join_traced(net::HostId h, int degree) {
  // Membership is validated here, at event time, not when the trace is
  // scheduled: a host may join, leave and rejoin within one trace.
  VDM_REQUIRE_MSG(!is_member(h), "trace joins host " + std::to_string(h) +
                                     " which is already a member");
  session_.join(h, degree);
  add_member(h);
}

void ScenarioDriver::do_leave(net::HostId h) {
  // Validate membership before touching the session so a bad trace fails
  // with the host id instead of a session-internal invariant.
  VDM_REQUIRE_MSG(is_member(h),
                  "leave of host " + std::to_string(h) + " which is not a member");
  session_.leave(h);
  remove_member(h);
}

void ScenarioDriver::do_crash(net::HostId h) {
  VDM_REQUIRE_MSG(is_member(h),
                  "crash of host " + std::to_string(h) + " which is not a member");
  session_.crash(h);
  remove_member(h);
}

void ScenarioDriver::schedule_initial_joins() {
  transport::Reactor& sim = session_.reactor();
  for (std::size_t i = 0; i < params_.target_members; ++i) {
    const net::HostId h = draw_available();
    // Small positive floor keeps the source's activation strictly first.
    const sim::Time t = rng_.uniform(0.001, std::max(0.002, params_.join_phase));
    sim.schedule_at(t, [this, h] { do_join(h); });
  }
}

void ScenarioDriver::schedule_flash_crowd() {
  if (params_.flash_count == 0) return;
  transport::Reactor& sim = session_.reactor();
  // Every flash member joins at the same instant — one timestamp, one drain
  // batch under the concurrent pipeline. Hosts are drawn here, in schedule
  // order, so the arrival set is a pure function of the seed.
  for (std::size_t i = 0; i < params_.flash_count; ++i) {
    const net::HostId h = draw_available();
    sim.schedule_at(params_.flash_at, [this, h] { do_join(h); });
  }
}

void ScenarioDriver::schedule_churn_slots(const MeasureFn& on_measure) {
  transport::Reactor& sim = session_.reactor();
  const std::size_t churn_count = static_cast<std::size_t>(
      std::llround(params_.churn_rate * static_cast<double>(params_.target_members)));

  schedule_measurement_grid(on_measure);

  // Slot times come from the closed form first_slot + i * interval, not an
  // accumulating `slot += interval`: over long horizons at short intervals
  // the accumulated rounding error shifts (or drops) the final slot.
  const sim::Time first_slot = params_.join_phase + params_.settle_time;
  for (std::size_t i = 0;; ++i) {
    const sim::Time slot =
        first_slot + static_cast<double>(i) * params_.churn_interval;
    const sim::Time slot_end =
        first_slot + static_cast<double>(i + 1) * params_.churn_interval;
    if (!(slot_end <= params_.total_time)) break;
    const sim::Time active_span = params_.churn_interval - params_.settle_time;
    // Decide victims at slot start (so they are alive then); spread the
    // leave/join actions over the active part of the slot.
    sim.schedule_at(slot, [this, churn_count, active_span] {
      transport::Reactor& s = session_.reactor();
      for (std::size_t j = 0; j < churn_count; ++j) {
        const net::HostId victim = draw_victim();
        // A failed victim draw (slot churn >= membership) skips the whole
        // replacement pair: joining anyway would creep membership above
        // target_members, one host per failed draw, for the rest of the run.
        if (victim == net::kInvalidHost) continue;
        // crash_fraction == 0 short-circuits before chance(), leaving the
        // rng stream of all-graceful runs untouched.
        const bool crash = params_.crash_fraction > 0.0 &&
                           rng_.chance(params_.crash_fraction);
        if (crash) {
          s.schedule_in(rng_.uniform(0.0, active_span),
                        [this, victim] { do_crash(victim); });
        } else {
          s.schedule_in(rng_.uniform(0.0, active_span),
                        [this, victim] { do_leave(victim); });
        }
        const net::HostId joiner = draw_available();
        s.schedule_in(rng_.uniform(0.0, active_span), [this, joiner] { do_join(joiner); });
      }
    });
  }
}

void ScenarioDriver::schedule_measurement_grid(const MeasureFn& on_measure) {
  transport::Reactor& sim = session_.reactor();
  // Settled grid shared by the slot and trace timelines: one point after the
  // join phase settles, then one at the end of every churn interval. Closed
  // form per point — same grid at any horizon/interval ratio.
  const sim::Time first_slot = params_.join_phase + params_.settle_time;
  sim.schedule_at(first_slot,
                  [this, &on_measure] { on_measure(session_.reactor().now()); });
  for (std::size_t i = 0;; ++i) {
    // The measurement closing slot i sits at first_slot + (i+1) * interval —
    // the same closed form (and the same bound check) as the slot loop, so
    // grid point i+1 and slot i+1's start coincide bitwise even at intervals
    // like 0.1 where `slot + interval` rounds differently.
    const sim::Time slot_end =
        first_slot + static_cast<double>(i + 1) * params_.churn_interval;
    if (!(slot_end <= params_.total_time)) break;
    sim.schedule_at(slot_end,
                    [this, &on_measure] { on_measure(session_.reactor().now()); });
  }
}

void ScenarioDriver::schedule_batched_joins(const MeasureFn& on_measure) {
  transport::Reactor& sim = session_.reactor();
  std::size_t scheduled = 0;
  for (std::size_t i = 0; scheduled < params_.target_members; ++i) {
    // Closed-form slot time, as in schedule_churn_slots.
    const sim::Time slot = static_cast<double>(i) * params_.churn_interval;
    const std::size_t batch =
        std::min(params_.batch_size, params_.target_members - scheduled);
    const sim::Time active_span = params_.churn_interval - params_.settle_time;
    for (std::size_t j = 0; j < batch; ++j) {
      const net::HostId h = draw_available();
      sim.schedule_at(slot + rng_.uniform(0.001, active_span), [this, h] { do_join(h); });
    }
    sim.schedule_at(slot + params_.churn_interval,
                    [this, &on_measure] { on_measure(session_.reactor().now()); });
    scheduled += batch;
  }
}

void ScenarioDriver::schedule_trace_events(std::span<const WorkloadEvent> events) {
  transport::Reactor& sim = session_.reactor();
  for (const WorkloadEvent& ev : events) {
    const net::HostId h = ev.host;
    switch (ev.kind) {
      case WorkloadEvent::Kind::kJoin: {
        const int degree = ev.degree;
        sim.schedule_at(ev.at, [this, h, degree] { do_join_traced(h, degree); });
        break;
      }
      case WorkloadEvent::Kind::kLeave:
        sim.schedule_at(ev.at, [this, h] { do_leave(h); });
        break;
      case WorkloadEvent::Kind::kCrash:
        sim.schedule_at(ev.at, [this, h] { do_crash(h); });
        break;
    }
  }
}

void ScenarioDriver::run(const MeasureFn& on_measure) {
  VDM_REQUIRE(on_measure != nullptr);
  session_.start();
  if (params_.batched_joins) {
    schedule_batched_joins(on_measure);
  } else {
    schedule_initial_joins();
    schedule_churn_slots(on_measure);
  }
  schedule_flash_crowd();
  session_.reactor().run_until(params_.total_time);
  session_.stop();
}

void ScenarioDriver::run_trace(std::span<const WorkloadEvent> events,
                               const MeasureFn& on_measure) {
  VDM_REQUIRE(on_measure != nullptr);
  validate_trace(events, session_.underlay().num_hosts(), session_.source());
  session_.start();
  // Measurements first, then the events: at an equal timestamp the settled
  // measurement fires before the next batch of membership changes, matching
  // the slot timeline's insertion order.
  schedule_measurement_grid(on_measure);
  schedule_trace_events(events);
  session_.reactor().run_until(params_.total_time);
  session_.stop();
}

}  // namespace vdm::overlay
