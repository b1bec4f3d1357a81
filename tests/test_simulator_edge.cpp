// Edge cases of the slab event engine (cancel semantics, slot reuse,
// in-callback re-entrancy) plus the cross-engine determinism regression:
// whole-run golden scalars that pin the bit-determinism contract across
// event-engine rewrites.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "experiments/runner.hpp"

namespace vdm::sim {
namespace {

TEST(SimulatorEdge, CancelInsideCallbackSuppressesLaterEvent) {
  Simulator s;
  std::vector<int> order;
  EventId later = s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(1.0, [&] {
    order.push_back(1);
    s.cancel(later);
  });
  // Same-timestamp sibling scheduled after its canceller: FIFO runs the
  // canceller first, so the sibling must never fire either.
  EventId sibling = kInvalidEvent;
  s.schedule_at(1.0, [&] { s.cancel(sibling); });
  sibling = s.schedule_at(1.0, [&] { order.push_back(10); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, CancelAfterFireIsNoOp) {
  Simulator s;
  int fired = 0;
  EventId id = s.schedule_at(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.cancel(id);          // already fired: ignored
  s.cancel(id);          // twice: still ignored
  s.cancel(kInvalidEvent);
  EXPECT_EQ(s.pending(), 0u);

  // The fired event's slot is back on the free list; the next schedule
  // reuses it under a new generation. The stale id must not cancel it.
  EventId reuse = s.schedule_at(2.0, [&] { ++fired; });
  EXPECT_NE(reuse, id);
  s.cancel(id);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorEdge, CancelInsideOwnCallbackDoesNotBreakEngine) {
  Simulator s;
  int fired = 0;
  EventId self = kInvalidEvent;
  self = s.schedule_at(1.0, [&] {
    ++fired;
    s.cancel(self);  // cancelling the currently-firing event: benign
  });
  s.schedule_at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, PeriodicStopFromInsideOwnTick) {
  // The self re-arming idiom: cancelling its own id mid-tick refuses the
  // re-arm, so the slot is freed and nothing stays queued on a lane.
  Simulator s;
  int ticks = 0;
  EventId self = kInvalidEvent;
  self = s.schedule_in(1.0, [&] {
    if (++ticks == 3) s.cancel(self);
    EXPECT_EQ(s.reschedule_current_in(1.0), ticks < 3);
  });
  s.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
  s.cancel(self);  // stale id after the self-stop: a no-op
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, PendingIsAccurateUnderCancelChurn) {
  Simulator s;
  constexpr int kEvents = 1000;
  int fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Interleaved timestamps so cancellation hits every region of the heap.
    const Time t = 1.0 + static_cast<Time>((i * 7919) % 101);
    ids.push_back(s.schedule_at(t, [&] { ++fired; }));
  }
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents) / 2);
  for (int i = 0; i < kEvents; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents) / 2);  // no-ops
  s.run();
  EXPECT_EQ(fired, kEvents / 2);
  EXPECT_EQ(s.pending(), 0u);
}

// ------------------------------------------------------------- determinism
// Same-seed golden regression: run_once must produce these exact scalars.
// Any future engine must reproduce them bit for bit, because the
// determinism contract — equal-timestamp events fire in scheduling order,
// rng draw order unchanged — fixes every arithmetic operation of a run.
// Hexfloat literals make the comparison exact, not within-epsilon. The
// values were re-recorded when degree accounting started counting the
// parent link (children + parent <= limit), which legitimately shifts
// every tree shape; with all fault knobs at their zero defaults these
// runs draw nothing from the fault paths, so the scalars also pin the
// "failure injection off = bit-identical" contract.

TEST(SimulatorEdge, RunOnceGoldenTransitStubVdm) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 48;
  cfg.link_loss_max = 0.02;
  cfg.seed = 7;
  const experiments::RunResult r = experiments::run_once(cfg);

  EXPECT_EQ(r.stress, 0x1.077b1816a823ap+1);
  EXPECT_EQ(r.stress_max, 0x1.b286bca1af287p+2);
  EXPECT_EQ(r.stretch, 0x1.8118085ef0284p+1);
  EXPECT_EQ(r.stretch_leaf, 0x1.c0bd695f7988fp+1);
  EXPECT_EQ(r.stretch_max, 0x1.92342dcc15c43p+2);
  EXPECT_EQ(r.stretch_min, 0x1p+0);
  EXPECT_EQ(r.hopcount, 0x1.f06bca1af286ap+2);
  EXPECT_EQ(r.hop_leaf, 0x1.25a1dd6ece8a7p+3);
  EXPECT_EQ(r.hop_max, 0x1.ad79435e50d79p+3);
  EXPECT_EQ(r.loss, 0x1.4b2d262f66da6p-2);
  EXPECT_EQ(r.overhead, 0x1.14e09323cd18bp-8);
  EXPECT_EQ(r.overhead_per_chunk, 0x1.26216a2c31954p-3);
  EXPECT_EQ(r.network_usage, 0x1.d75deab632bd4p+1);
  EXPECT_EQ(r.startup_avg, 0x1.363f23d3646f8p+1);
  EXPECT_EQ(r.startup_max, 0x1.82dcfd29f8c6cp+2);
  EXPECT_EQ(r.reconnect_avg, 0x1.9ca6b8c1fde1ep-1);
  EXPECT_EQ(r.reconnect_max, 0x1.27e0791b29ce9p+1);
  EXPECT_EQ(r.mst_ratio, 0x1.232ead7253f08p+1);
  EXPECT_EQ(r.final_members, 49u);
}

TEST(SimulatorEdge, RunOnceGoldenGeoVdmRefine) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kGeoUs;
  cfg.protocol = experiments::Proto::kVdmRefine;
  cfg.scenario.target_members = 32;
  cfg.seed = 11;
  const experiments::RunResult r = experiments::run_once(cfg);

  EXPECT_EQ(r.stress, 0x1p+0);
  EXPECT_EQ(r.stress_max, 0x1p+0);
  EXPECT_EQ(r.stretch, 0x1.2b7d4d1a81953p+0);
  EXPECT_EQ(r.stretch_leaf, 0x1.4aafce7c8acc5p+0);
  EXPECT_EQ(r.stretch_max, 0x1.f68eea3f52a76p+0);
  EXPECT_EQ(r.stretch_min, 0x1.63375ed88fe23p-1);
  EXPECT_EQ(r.hopcount, 0x1.b0a1af286bca2p+1);
  EXPECT_EQ(r.hop_leaf, 0x1.0ec065981c435p+2);
  EXPECT_EQ(r.hop_max, 0x1.a1af286bca1afp+2);
  EXPECT_EQ(r.loss, 0x1.cb1582266ap-14);
  EXPECT_EQ(r.overhead, 0x1.30bd58dcd8242p-4);
  EXPECT_EQ(r.overhead_per_chunk, 0x1.312ff76078b96p+1);
  EXPECT_EQ(r.network_usage, 0x1.ad0920c6b958p-3);
  EXPECT_EQ(r.startup_avg, 0x1.b13740ac3ed76p-3);
  EXPECT_EQ(r.startup_max, 0x1.1413ee0d8c058p-1);
  EXPECT_EQ(r.reconnect_avg, 0x1.87fac6e2dde79p-4);
  EXPECT_EQ(r.reconnect_max, 0x1.14bb96507597p-1);
  EXPECT_EQ(r.mst_ratio, 0x1.c6a58ba84e4c2p+0);
  EXPECT_EQ(r.final_members, 33u);
}

// Two engines in one process, interleaved, must not perturb each other
// (the slab and its rng-free heap are per-instance state).
TEST(SimulatorEdge, IndependentSimulatorsDoNotInterfere) {
  Simulator a;
  Simulator b;
  int fa = 0;
  int fb = 0;
  a.schedule_at(1.0, [&] { ++fa; });
  b.schedule_at(1.0, [&] { ++fb; });
  a.schedule_at(2.0, [&] { ++fa; });
  EXPECT_TRUE(a.step());
  EXPECT_TRUE(b.step());
  EXPECT_TRUE(a.step());
  EXPECT_EQ(fa, 2);
  EXPECT_EQ(fb, 1);
  EXPECT_FALSE(b.step());
}

}  // namespace
}  // namespace vdm::sim
