#include "transport/transport.hpp"

#include "util/require.hpp"

namespace vdm::transport {

PeriodicTimer::PeriodicTimer(Reactor& reactor, Time interval, TimerFn fn)
    : reactor_(reactor), interval_(interval), fn_(std::move(fn)) {
  VDM_REQUIRE(interval_ > 0.0);
  VDM_REQUIRE(fn_ != nullptr);
  pending_ = reactor_.schedule_in(interval_, [this] {
    fn_();
    if (running_) {
      reactor_.reschedule_current_in(interval_);
    } else {
      pending_ = kInvalidTimer;
    }
  });
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != kInvalidTimer) {
    reactor_.cancel(pending_);
    pending_ = kInvalidTimer;
  }
}

}  // namespace vdm::transport
