// Transport seam tests (DESIGN.md §14): the SimReactor's 1:1 delegation
// contract, PeriodicTimer's equivalence with the raw re-arm idiom, the
// UdpReactor over real loopback sockets, and the RetrySender's
// retransmission schedule (driven deterministically on the DES backend).

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "sim/simulator.hpp"
#include "transport/sim_reactor.hpp"
#include "transport/transport.hpp"
#include "transport/udp.hpp"
#include "util/require.hpp"
#include "wire/wire.hpp"

namespace vdm {
namespace {

using transport::PeerAddr;

// ----------------------------------------------------------------- SimReactor

TEST(SimReactor, DelegatesOneToOne) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);

  std::vector<int> order;
  const transport::TimerId a = reactor.schedule_at(2.0, [&] { order.push_back(2); });
  reactor.schedule_at(1.0, [&] { order.push_back(1); });
  reactor.schedule_in(3.0, [&] { order.push_back(3); });
  EXPECT_NE(a, transport::kInvalidTimer);
  EXPECT_EQ(reactor.now(), sim.now());

  // A timer id from the reactor cancels through the reactor — same slab.
  reactor.cancel(a);
  EXPECT_EQ(reactor.run_until(10.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(reactor.now(), 10.0);
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(SimReactor, UnboundUseTrips) {
  transport::SimReactor reactor;
  EXPECT_FALSE(reactor.bound());
  EXPECT_THROW(reactor.now(), util::InvariantError);
  EXPECT_THROW(reactor.schedule_in(1.0, [] {}), util::InvariantError);
}

// The seam's determinism contract: the same schedule through the reactor
// and through the raw simulator produces identical event ids — proof that
// no extra slot, sequence number or reordering sneaks in at the seam.
TEST(SimReactor, IdsMatchRawSimulatorExactly) {
  sim::Simulator raw;
  sim::Simulator wrapped_sim;
  transport::SimReactor wrapped(&wrapped_sim);

  for (int i = 0; i < 50; ++i) {
    const sim::Time t = 0.1 * static_cast<double>(i % 7);
    const sim::EventId a = raw.schedule_in(t, [] {});
    const transport::TimerId b = wrapped.schedule_in(t, [] {});
    EXPECT_EQ(a, b);
    if (i % 3 == 0) {
      raw.cancel(a);
      wrapped.cancel(b);
    }
  }
  EXPECT_EQ(raw.run_until(1.0), wrapped.run_until(1.0));
}

// -------------------------------------------------------------- PeriodicTimer

TEST(Periodic, FiresRepeatedly) {
  sim::Simulator s;
  transport::SimReactor reactor(&s);
  int fires = 0;
  transport::PeriodicTimer p(reactor, 1.0, [&] { ++fires; });
  s.run_until(5.5);
  EXPECT_EQ(fires, 5);
}

TEST(Periodic, StopHaltsFiring) {
  sim::Simulator s;
  transport::SimReactor reactor(&s);
  int fires = 0;
  transport::PeriodicTimer* self = nullptr;
  transport::PeriodicTimer p(reactor, 1.0, [&] {
    ++fires;
    if (fires == 3) self->stop();
  });
  self = &p;
  s.run_until(10.0);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(p.running());
}

TEST(Periodic, DestructionCancelsPending) {
  sim::Simulator s;
  transport::SimReactor reactor(&s);
  int fires = 0;
  {
    transport::PeriodicTimer p(reactor, 1.0, [&] { ++fires; });
    s.run_until(2.5);
  }
  s.run_until(10.0);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Periodic, RejectsNonPositiveInterval) {
  sim::Simulator s;
  transport::SimReactor reactor(&s);
  EXPECT_THROW(transport::PeriodicTimer(reactor, 0.0, [] {}),
               util::InvariantError);
}

TEST(PeriodicTimer, MatchesRawRearmFireTimes) {
  // The raw idiom Session uses for its chunk clock, refinement and
  // heartbeat timers: one schedule_in, then reschedule_current_in per tick.
  sim::Simulator sim_a;
  std::vector<sim::Time> fires_a;
  const sim::EventId raw = sim_a.schedule_in(0.25, [&] {
    fires_a.push_back(sim_a.now());
    sim_a.reschedule_current_in(0.25);
  });

  sim::Simulator sim_b;
  transport::SimReactor reactor(&sim_b);
  std::vector<sim::Time> fires_b;
  transport::PeriodicTimer timer(reactor, 0.25,
                                 [&] { fires_b.push_back(reactor.now()); });

  sim_a.run_until(2.0);
  reactor.run_until(2.0);
  ASSERT_FALSE(fires_a.empty());
  EXPECT_EQ(fires_a, fires_b);
  EXPECT_EQ(sim_a.pending(), sim_b.pending());
  sim_a.cancel(raw);
  timer.stop();
  EXPECT_EQ(sim_a.pending(), 0u);
  EXPECT_EQ(sim_b.pending(), 0u);
}

TEST(PeriodicTimer, StopFromInsideTickSuppressesRearm) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  int ticks = 0;
  transport::PeriodicTimer* self = nullptr;
  transport::PeriodicTimer timer(reactor, 0.1, [&] {
    if (++ticks == 3) self->stop();
  });
  self = &timer;
  reactor.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StopBeforeFirstTickFiresNothing) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  int ticks = 0;
  transport::PeriodicTimer timer(reactor, 0.5, [&] { ++ticks; });
  timer.stop();
  reactor.run_until(5.0);
  EXPECT_EQ(ticks, 0);
}

// ----------------------------------------------------------------- BufferPool

TEST(BufferPool, RecyclesSlots) {
  transport::BufferPool pool;
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  EXPECT_NE(a.slot, b.slot);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(a.bytes.size(), transport::BufferPool::kBufferBytes);

  pool.release(a.slot);
  EXPECT_EQ(pool.in_use(), 1u);
  const auto c = pool.acquire();
  EXPECT_EQ(c.slot, a.slot);  // LIFO reuse, no new slab
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(b.slot);
  pool.release(c.slot);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(BufferPool, DoubleCapacityGrowsButKeepsOldSlabs) {
  transport::BufferPool pool;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(pool.acquire().slot);
  EXPECT_EQ(pool.capacity(), 8u);
  for (const std::uint32_t s : slots) pool.release(s);
  for (int i = 0; i < 8; ++i) pool.acquire();
  EXPECT_EQ(pool.capacity(), 8u);  // steady state: zero new slabs
}

// ------------------------------------------------------------------ PeerAddr

TEST(PeerAddr, ParseAndFormatRoundTrip) {
  const PeerAddr a = transport::parse_peer("127.0.0.1:9000");
  EXPECT_EQ(a.ip, 0x7f000001u);
  EXPECT_EQ(a.port, 9000);
  EXPECT_EQ(transport::format_peer(a), "127.0.0.1:9000");

  // Bare port binds loopback.
  const PeerAddr b = transport::parse_peer("8080");
  EXPECT_EQ(b.ip, 0x7f000001u);
  EXPECT_EQ(b.port, 8080);

  EXPECT_THROW(transport::parse_peer("not-an-ip:1"), util::InvariantError);
  EXPECT_THROW(transport::parse_peer("127.0.0.1:99999"), util::InvariantError);
  EXPECT_THROW(transport::parse_peer("127.0.0.1:pony"), util::InvariantError);
}

// ----------------------------------------------------------------- UdpReactor

TEST(UdpReactor, LoopbackPingPong) {
  transport::UdpReactor reactor;
  transport::UdpSocket a(PeerAddr{0x7f000001, 0});
  transport::UdpSocket b(PeerAddr{0x7f000001, 0});
  ASSERT_NE(a.local_addr().port, 0);
  ASSERT_NE(b.local_addr().port, 0);

  std::vector<std::uint32_t> b_saw;
  bool a_saw_pong = false;
  reactor.add_socket(a, [&](const PeerAddr&, std::span<const std::byte> f) {
    wire::Message m;
    ASSERT_TRUE(wire::decode(f, m).ok());
    ASSERT_TRUE(std::holds_alternative<wire::Pong>(m));
    a_saw_pong = true;
    reactor.stop();
  });
  reactor.add_socket(b, [&](const PeerAddr& from, std::span<const std::byte> f) {
    wire::Message m;
    ASSERT_TRUE(wire::decode(f, m).ok());
    const auto& ping = std::get<wire::Ping>(m);
    b_saw.push_back(ping.token);
    std::array<std::byte, wire::kMaxFrame> buf;
    const std::size_t n = wire::encode(wire::Pong{.token = ping.token}, buf);
    b.send(from, std::span<const std::byte>(buf.data(), n));
  });

  std::array<std::byte, wire::kMaxFrame> buf;
  const std::size_t n = wire::encode(wire::Ping{.token = 7}, buf);
  ASSERT_TRUE(a.send(b.local_addr(), std::span<const std::byte>(buf.data(), n)));
  reactor.run_until(5.0);  // stop() fires on the pong, long before 5s
  EXPECT_TRUE(a_saw_pong);
  EXPECT_EQ(b_saw, (std::vector<std::uint32_t>{7}));
}

TEST(UdpReactor, TimersFireInOrderAndNowNeverRewinds) {
  transport::UdpReactor reactor;
  std::vector<int> order;
  std::vector<transport::Time> at;
  reactor.schedule_in(0.02, [&] { order.push_back(2); at.push_back(reactor.now()); });
  reactor.schedule_in(0.01, [&] { order.push_back(1); at.push_back(reactor.now()); });
  const transport::TimerId dead = reactor.schedule_in(0.015, [&] { order.push_back(9); });
  reactor.cancel(dead);
  EXPECT_EQ(reactor.run_until(0.05), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(at.size(), 2u);
  EXPECT_GE(at[0], 0.01);
  EXPECT_GE(at[1], 0.02);
  EXPECT_LE(at[0], at[1]);
  EXPECT_GE(reactor.now(), 0.05);
}

TEST(UdpReactor, ScheduleAtInThePastClampsInsteadOfThrowing) {
  transport::UdpReactor reactor;
  // Burn a little wall clock so "now" is past the target.
  reactor.run_until(0.01);
  int fired = 0;
  reactor.schedule_at(0.0, [&] { ++fired; });
  reactor.run_until(0.02);
  EXPECT_EQ(fired, 1);
}

TEST(UdpReactor, PumpIoDeliversDatagramsButFiresNoTimers) {
  transport::UdpReactor reactor;
  transport::UdpSocket a(PeerAddr{0x7f000001, 0});
  transport::UdpSocket b(PeerAddr{0x7f000001, 0});
  int datagrams = 0;
  int timer_fired = 0;
  reactor.add_socket(b, [&](const PeerAddr&, std::span<const std::byte>) {
    ++datagrams;
  });
  reactor.add_socket(a, [](const PeerAddr&, std::span<const std::byte>) {});
  reactor.schedule_in(0.0, [&] { ++timer_fired; });

  std::array<std::byte, wire::kMaxFrame> buf;
  const std::size_t n = wire::encode(wire::Ping{.token = 1}, buf);
  ASSERT_TRUE(a.send(b.local_addr(), std::span<const std::byte>(buf.data(), n)));
  EXPECT_GE(reactor.pump_io(1.0), 1u);
  EXPECT_EQ(datagrams, 1);
  EXPECT_EQ(timer_fired, 0);  // the due timer waits for run_until
  reactor.run_until(reactor.now());
  EXPECT_EQ(timer_fired, 1);
}

// ---------------------------------------------------------------- RetrySender

/// In-memory transport: records every frame so the retransmission schedule
/// can be asserted deterministically (driven on the DES backend).
class RecordingTransport final : public transport::Transport {
 public:
  bool send(const PeerAddr& to, std::span<const std::byte> frame) override {
    sends.push_back({to, std::vector<std::byte>(frame.begin(), frame.end())});
    return true;
  }
  PeerAddr local_addr() const override { return PeerAddr{0x7f000001, 1}; }

  struct Sent {
    PeerAddr to;
    std::vector<std::byte> frame;
  };
  std::vector<Sent> sends;
};

TEST(RetrySender, RetransmitsOnScheduleUntilCompleted) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetryPolicy policy;  // 0.25s, x2, cap 4s, 8 retries
  transport::RetrySender sender(reactor, transport, pool, policy);

  const std::uint32_t token = sender.next_token();
  const PeerAddr to{0x7f000001, 4242};
  sender.send_tracked(token, to, wire::Ack{.token = token});
  EXPECT_EQ(transport.sends.size(), 1u);
  EXPECT_EQ(sender.in_flight(), 1u);

  // First retransmit at 0.25, second at 0.25 + 0.5.
  reactor.run_until(0.8);
  EXPECT_EQ(transport.sends.size(), 3u);
  EXPECT_EQ(sender.retransmissions(), 2u);

  // Every copy is byte-identical, to the same peer.
  for (const auto& s : transport.sends) {
    EXPECT_EQ(s.to, to);
    EXPECT_EQ(s.frame, transport.sends[0].frame);
  }

  EXPECT_TRUE(sender.complete(token));
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);  // buffer back in the pool
  reactor.run_until(60.0);
  EXPECT_EQ(transport.sends.size(), 3u);  // silence after completion
  EXPECT_FALSE(sender.complete(token));   // late duplicate reply
}

TEST(RetrySender, GivesUpAfterRetryBudget) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetryPolicy policy;
  policy.max_retries = 3;
  transport::RetrySender sender(reactor, transport, pool, policy);

  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 4242},
                      wire::Shutdown{.token = token});
  reactor.run_until(120.0);
  // Initial send + max_retries retransmissions, then the give-up.
  EXPECT_EQ(transport.sends.size(), 4u);
  EXPECT_EQ(sender.retransmissions(), 3u);
  EXPECT_EQ(sender.give_ups(), 1u);
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(RetrySender, BackoffCapsAtTimeoutMax) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetryPolicy policy;  // 0.25 -> 0.5 -> 1 -> 2 -> 4 -> 4 -> ...
  transport::RetrySender sender(reactor, transport, pool, policy);

  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 4242},
                      wire::Ack{.token = token});
  // Cumulative schedule: 0.25, 0.75, 1.75, 3.75, 7.75, 11.75, 15.75, 19.75.
  reactor.run_until(12.0);
  EXPECT_EQ(sender.retransmissions(), 6u);
  reactor.run_until(16.0);
  EXPECT_EQ(sender.retransmissions(), 7u);
  sender.complete(token);
}

TEST(RetrySender, DuplicateTokenTrips) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetrySender sender(reactor, transport, pool,
                                transport::RetryPolicy{});
  const std::uint32_t token = sender.next_token();
  sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token});
  EXPECT_THROW(
      sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token}),
      util::InvariantError);
  sender.complete(token);
}

TEST(RetrySender, CancelAllReleasesEveryBuffer) {
  sim::Simulator sim;
  transport::SimReactor reactor(&sim);
  RecordingTransport transport;
  transport::BufferPool pool;
  transport::RetrySender sender(reactor, transport, pool,
                                transport::RetryPolicy{});
  for (int i = 0; i < 5; ++i) {
    const std::uint32_t token = sender.next_token();
    sender.send_tracked(token, PeerAddr{0x7f000001, 1}, wire::Ack{.token = token});
  }
  EXPECT_EQ(sender.in_flight(), 5u);
  EXPECT_EQ(pool.in_use(), 5u);
  sender.cancel_all();
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  reactor.run_until(60.0);
  EXPECT_EQ(transport.sends.size(), 5u);  // no retransmissions after cancel
}

}  // namespace
}  // namespace vdm
