// End-to-end performance baseline: full run_once simulations at several
// overlay sizes plus a measure_tree micro-benchmark with a heap-allocation
// counter. This binary is the repo's perf trajectory anchor — run it via
//
//   ./build/bench/bench_e2e | ./build/tools/bench_to_json --label <label>
//
// and compare against the checked-in BENCH_e2e.json (see README "Performance").

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "experiments/runner.hpp"
#include "experiments/sweep.hpp"
#include "metrics/tree_metrics.hpp"
#include "net/graph_underlay.hpp"
#include "overlay/membership.hpp"
#include "sim/simulator.hpp"
#include "topology/transit_stub.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "wire/wire.hpp"

// ---------------------------------------------------------------- allocation
// Global-new instrumentation so the measure_tree micro can assert "zero heap
// allocations in steady state" instead of hand-waving it.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// aligned_alloc/malloc memory is interchangeable under free(); GCC's
// heuristic cannot see that across the replaced operator set.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace vdm {
namespace {

// ----------------------------------------------------------------- e2e runs

/// One complete paper-style experiment seed: build transit-stub substrate,
/// run the join/churn/measure timeline, aggregate epoch metrics.
void BM_RunOnceTransitStub(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.seed = 7;  // fixed seed: identical work every iteration and every run
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RunOnceTransitStub)
    ->Arg(64)
    ->Arg(200)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// run_once under the full failure model: every churn departure is an
/// ungraceful crash, children run heartbeat detection, and the control
/// plane drops and retries messages. Tracks the cost of the fault path
/// (detection timers + orphan walks + retry draws) relative to
/// BM_RunOnceTransitStub at the same size.
void BM_RunOnceCrashChurn(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.scenario.churn_rate = 0.10;
  cfg.scenario.crash_fraction = 1.0;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.seed = 7;
  experiments::RunScratch scratch;
  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm

  // Crash churn is the walk-heaviest configuration (every departure triggers
  // orphan reconnection walks), so the alloc counters here gate the
  // zero-allocation claim of the TreeWalk path: once the arena is warm, a
  // full run must not grow the walk scratch.
  const std::uint64_t grows_before = scratch.grow_events();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg, scratch);
    benchmark::DoNotOptimize(r);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
}
BENCHMARK(BM_RunOnceCrashChurn)->Arg(200)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- sweeps

/// run_once into a warm per-worker arena — the steady-state unit of work a
/// sweep worker executes. arena_grow_per_iter must be exactly 0: after the
/// warmup run the scratch owns every buffer the run shape needs, so repeat
/// runs rebuild topology, routing state and collector storage in place.
void BM_RunOnceArena(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.seed = 7;
  experiments::RunScratch scratch;
  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm

  const std::uint64_t grows_before = scratch.grow_events();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg, scratch);
    benchmark::DoNotOptimize(r);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
}
BENCHMARK(BM_RunOnceArena)->Arg(200)->Unit(benchmark::kMillisecond);

/// Trace-driven churn end to end: every iteration regenerates the Poisson
/// workload (same seed, same event list) and replays it through
/// ScenarioDriver::run_trace on the coordinate underlay. Measures the
/// workload engine's full path — generation, event scheduling, sustained
/// join/leave churn at Little's-law rate — on top of a warm arena.
/// arena_grow_per_iter must be exactly 0: the event list, the driver pool
/// and the collector slots all reach steady capacity on the warm run.
void BM_ChurnTrace(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordPlane;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.workload.kind = overlay::WorkloadKind::kPoisson;
  cfg.workload.mean_session = 800.0;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.session.chunk_rate = 0.1;
  cfg.compute_mst_ratio = false;
  cfg.seed = 7;
  experiments::RunScratch scratch;
  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm

  const std::uint64_t grows_before = scratch.grow_events();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::size_t final_members = 0;
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg, scratch);
    final_members = r.final_members;
    benchmark::DoNotOptimize(r);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["final_members"] = static_cast<double>(final_members);
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
}
BENCHMARK(BM_ChurnTrace)->Arg(1024)->Unit(benchmark::kMillisecond);

/// run_once on the coordinate-embedded underlay: delay is O(1) from host
/// coordinates, so no router graph, no O(N^2) matrix, and run_once scales
/// to overlays two orders of magnitude past the paper's 200 members. The
/// timeline is compressed (fewer epochs, lighter chunk rate) so the 65536
/// row measures tree construction + SoA chunk flood, not wall-clock filler.
/// arena_grow_per_iter must be exactly 0 after the warm run, same contract
/// as BM_RunOnceArena. bytes_per_member is the warm arena's reserved heap
/// (RunScratch::capacity_bytes) over the member count; the 1048576 row is
/// the million-member run.
void BM_RunOnceCoord(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordPlane;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.01;
  cfg.session.chunk_rate = 0.1;
  cfg.compute_mst_ratio = false;  // O(N^2) baseline would dominate at 65536
  cfg.seed = 7;
  experiments::RunScratch scratch;
  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm

  const std::uint64_t grows_before = scratch.grow_events();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg, scratch);
    benchmark::DoNotOptimize(r);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
  state.counters["bytes_per_member"] =
      static_cast<double>(scratch.capacity_bytes()) /
      static_cast<double>(cfg.scenario.target_members);
}
BENCHMARK(BM_RunOnceCoord)
    ->Arg(2048)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond);

/// Flash crowd on the coordinate-embedded US underlay: a 1024-member
/// steady-state overlay absorbs range(0) simultaneous joiners through the
/// locating-first concurrent pipeline (DESIGN.md §10). joins_per_sec is the
/// sustained sim-time throughput of the burst cohort, startup_p99_ms the
/// tail attach latency. speedup_vs_sequential compares the same burst
/// through the baseline one-walk-at-a-time path (measured once, outside the
/// timed loop) — the gate requires >= 3x at 65536. host_us_per_join is the
/// wall clock of a timed run over the base + flash joins it performs (the
/// run's flood and captures included), and stretch_vs_sequential /
/// hops_vs_sequential put the concurrent tree's quality next to the
/// baseline's: >1 means the fast path built a worse tree. arena_grow_per_iter
/// must be exactly 0 after the warm run, same contract as BM_RunOnceArena.
void BM_FlashCrowd(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordUs;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 1024;
  cfg.scenario.flash_count = static_cast<std::size_t>(state.range(0));
  cfg.scenario.flash_at = 400.0;
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.01;
  cfg.session.chunk_rate = 0.1;
  cfg.session.join_mode = overlay::JoinMode::kConcurrent;
  cfg.compute_mst_ratio = false;
  cfg.seed = 7;

  experiments::RunConfig seq = cfg;
  seq.session.join_mode = overlay::JoinMode::kSequential;
  experiments::RunScratch scratch;
  const experiments::RunResult baseline = experiments::run_once(seq, scratch);

  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm
  const std::uint64_t grows_before = scratch.grow_events();
  double joins_per_sec = 0.0;
  double startup_p99 = 0.0;
  double stretch = 0.0;
  double hops = 0.0;
  std::chrono::steady_clock::duration wall{};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    experiments::RunResult r = experiments::run_once(cfg, scratch);
    wall += std::chrono::steady_clock::now() - t0;
    joins_per_sec = r.join_rate;
    startup_p99 = r.startup_p99;
    stretch = r.stretch;
    hops = r.hopcount;
    benchmark::DoNotOptimize(r);
  }
  const auto iters = static_cast<double>(state.iterations());
  const auto joins =
      static_cast<double>(cfg.scenario.target_members + cfg.scenario.flash_count);
  state.counters["joins_per_sec"] = joins_per_sec;
  state.counters["host_us_per_join"] =
      std::chrono::duration<double, std::micro>(wall).count() / iters / joins;
  state.counters["startup_p99_ms"] = startup_p99 * 1e3;
  state.counters["speedup_vs_sequential"] =
      baseline.join_rate > 0.0 ? joins_per_sec / baseline.join_rate : 0.0;
  state.counters["stretch_vs_sequential"] =
      baseline.stretch > 0.0 ? stretch / baseline.stretch : 0.0;
  state.counters["hops_vs_sequential"] =
      baseline.hopcount > 0.0 ? hops / baseline.hopcount : 0.0;
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
}
BENCHMARK(BM_FlashCrowd)
    ->Arg(8192)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

/// A small paper-style grid (three overlay sizes x 4 seeds) through
/// run_grid. threads:1 is the serial reference; threads:0 lets the shared
/// pool size itself to the hardware — on a multi-core host the ratio of the
/// two rows is the sweep speedup (this is also what the determinism tests
/// pin: both rows produce bit-identical aggregates).
void BM_SweepGrid(benchmark::State& state) {
  std::vector<experiments::RunConfig> points;
  for (const std::size_t members : {64, 128, 200}) {
    experiments::RunConfig cfg;
    cfg.substrate = experiments::Substrate::kTransitStub;
    cfg.protocol = experiments::Proto::kVdm;
    cfg.scenario.target_members = members;
    cfg.seed = 7;
    points.push_back(cfg);
  }
  constexpr std::size_t kSeeds = 4;
  experiments::SweepOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<experiments::AggregateResult> aggs =
        experiments::run_grid(points, kSeeds, opt);
    benchmark::DoNotOptimize(aggs);
  }
  state.counters["tasks"] = static_cast<double>(points.size() * kSeeds);
  state.counters["workers"] = static_cast<double>(
      util::TaskPool::global().workers_for(points.size() * kSeeds, opt.threads));
}
BENCHMARK(BM_SweepGrid)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// Strong scaling of a single-point seed sweep as the worker cap doubles.
/// speedup/efficiency are measured against the threads=1 row of the same
/// process run. On a single-core host every row collapses to ~1x — the
/// counters record what the hardware actually delivered, not an assumption.
void BM_RunManyScaling(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 64;
  cfg.seed = 7;
  constexpr std::size_t kSeeds = 8;
  const auto threads = static_cast<std::size_t>(state.range(0));

  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    experiments::AggregateResult agg = experiments::run_many(cfg, kSeeds, threads);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    benchmark::DoNotOptimize(agg);
  }
  const double per_iter = seconds / static_cast<double>(state.iterations());

  static double serial_per_iter = 0.0;  // filled by the threads=1 row, which runs first
  if (threads == 1) serial_per_iter = per_iter;
  if (serial_per_iter > 0.0 && per_iter > 0.0) {
    const double speedup = serial_per_iter / per_iter;
    state.counters["speedup"] = speedup;
    state.counters["efficiency"] = speedup / static_cast<double>(threads);
  }
}
BENCHMARK(BM_RunManyScaling)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ event engine

/// The event engine alone: schedule/fire churn with a live timer population
/// the size of a paper run's (one periodic timer per member plus in-flight
/// control events). allocs_per_iter must be exactly 0 — the slab, the
/// indexed heap and the inline callables make steady-state scheduling
/// allocation-free.
void BM_SimScheduleFire(benchmark::State& state) {
  sim::Simulator s;
  std::uint64_t sink = 0;
  // Pre-grow slab and heap past the working set: 512 self-rescheduling
  // events with staggered periods, exercising re-arm, cancel and reuse.
  constexpr int kTimers = 512;
  for (int i = 0; i < kTimers; ++i) {
    const sim::Time period = 0.5 + 0.001 * static_cast<sim::Time>(i);
    s.schedule_in(period, [&s, &sink, period] {
      ++sink;
      s.reschedule_current_in(period);
    });
  }
  s.run(kTimers * 4);  // steady state before measuring
  // Warm with the exact batch shape below so the slab and heap reach the
  // measured loop's peak population before counting allocations.
  for (int i = 0; i < 64; ++i) {
    sim::EventId cancellable = s.schedule_in(0.25, [&sink] { ++sink; });
    s.schedule_in(0.25, [&sink] { ++sink; });
    s.cancel(cancellable);
    s.run(64);
  }

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    // One batch: a burst of cancellable one-shots (half cancelled, as churn
    // control traffic would be) riding on the periodic timer population.
    sim::EventId cancellable = s.schedule_in(0.25, [&sink] { ++sink; });
    s.schedule_in(0.25, [&sink] { ++sink; });
    s.cancel(cancellable);
    s.run(64);
    benchmark::DoNotOptimize(sink);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimScheduleFire)->Unit(benchmark::kMicrosecond);

/// The event engine under heartbeat load, shaped like a churn run: N
/// members' 1 s probe timers, staggered across the first second, re-arm in
/// place beside 4096 one-shot membership events queued up front (a workload
/// trace is scheduled whole at start). Each iteration replays 30 s on a
/// reset() engine, so events_per_iter is fixed by construction (N * 30 + 1
/// ticks plus the one-shots) and allocs_per_iter must be exactly 0.
void BM_SimPeriodicFanout(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  constexpr int kOneShots = 4096;
  constexpr sim::Time kHorizon = 30.0;
  sim::Simulator s;
  std::uint64_t sink = 0;
  const auto replay = [&] {
    s.reset();
    for (int i = 0; i < timers; ++i) {
      s.schedule_at(static_cast<sim::Time>(i) / timers, [&s, &sink] {
        ++sink;
        s.reschedule_current_in(1.0);
      });
    }
    for (int k = 0; k < kOneShots; ++k) {
      s.schedule_at(kHorizon * static_cast<sim::Time>(k) / kOneShots,
                    [&sink] { ++sink; });
    }
    s.run_until(kHorizon);
  };
  replay();  // warm: grow the slab and heap to the working set

  std::uint64_t events = 0;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    replay();
    events += s.executed();
    benchmark::DoNotOptimize(sink);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["events_per_iter"] = static_cast<double>(events) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
}
BENCHMARK(BM_SimPeriodicFanout)->Arg(1024)->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------- micro bench

struct TreeFixture {
  net::GraphUnderlay underlay;
  overlay::Membership tree;

  explicit TreeFixture(std::size_t members)
      : underlay(make_underlay(members)), tree(underlay.num_hosts()) {
    // Deterministic ternary tree over the first `members` hosts, host 0 as
    // the source; degree limit 4 leaves headroom like the paper's 2..5 range.
    for (net::HostId h = 0; h < members; ++h) tree.activate(h, 4);
    for (net::HostId h = 1; h < members; ++h) {
      const net::HostId parent = (h - 1) / 3;
      tree.attach(h, parent, underlay.rtt(parent, h));
    }
  }

  static net::GraphUnderlay make_underlay(std::size_t members) {
    util::Rng rng(42);
    topo::TransitStubParams tp;  // paper-size core: 792 routers
    topo::HostAttachment hp;
    hp.num_hosts = members;
    return topo::make_transit_stub_underlay(tp, hp, rng);
  }
};

/// measure_tree the way Collector::capture runs it: reusable scratch, warm
/// caches. allocs_per_iter must be exactly 0 — that is the zero-allocation
/// acceptance gate of the fast path.
void BM_MeasureTreeScratch(benchmark::State& state) {
  TreeFixture fx(static_cast<std::size_t>(state.range(0)));
  metrics::TreeMetricsScratch scratch;
  benchmark::DoNotOptimize(metrics::measure_tree(fx.tree, 0, fx.underlay, scratch));

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    metrics::TreeMetrics m = metrics::measure_tree(fx.tree, 0, fx.underlay, scratch);
    benchmark::DoNotOptimize(m);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MeasureTreeScratch)->Arg(200)->Unit(benchmark::kMicrosecond);

/// measure_tree via the convenience overload (per-call scratch).
void BM_MeasureTree(benchmark::State& state) {
  TreeFixture fx(static_cast<std::size_t>(state.range(0)));
  // Warm every routing/pair cache so the loop measures steady state.
  benchmark::DoNotOptimize(metrics::measure_tree(fx.tree, 0, fx.underlay));

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    metrics::TreeMetrics m = metrics::measure_tree(fx.tree, 0, fx.underlay);
    benchmark::DoNotOptimize(m);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MeasureTree)->Arg(200)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- wire codec

/// Encode + decode one of every control message plus a full-MTU chunk — the
/// per-datagram cost every vdmd exchange pays twice. allocs_per_iter must be
/// exactly 0: encode writes into a caller span, decode reads views out of
/// the frame (the codec's zero-allocation contract, DESIGN.md §14).
void BM_WireCodec(benchmark::State& state) {
  std::array<std::byte, wire::kMaxPayload - 12> body{};
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::byte>(i * 31);
  }
  const std::array<wire::Message, 8> messages = {
      wire::Message{wire::Hello{.listen_port = 9000}},
      wire::Message{wire::Welcome{.host_id = 17, .num_hosts = 33}},
      wire::Message{wire::ProbeRequest{
          .token = 5, .target_host = 9, .target_ip = 0x7f000001, .target_port = 4242}},
      wire::Message{wire::ProbeReply{.token = 5, .target_host = 9, .rtt_seconds = 0.031}},
      wire::Message{wire::SetParent{
          .token = 6, .parent_host = 3, .parent_ip = 0x7f000001, .parent_port = 4243}},
      wire::Message{wire::Heartbeat{.from_host = 17, .seq = 12345}},
      wire::Message{wire::StatsReply{.token = 7,
                                     .host = 17,
                                     .chunks_received = 1000,
                                     .chunks_relayed = 999,
                                     .heartbeats_sent = 40,
                                     .control_received = 80}},
      wire::Message{wire::Chunk{.seq = 42, .emitted_at = 1.5, .payload = body}},
  };

  std::array<std::byte, wire::kMaxFrame> frame;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (const wire::Message& m : messages) {
      const std::size_t n = wire::encode(m, frame);
      wire::Message out;
      const wire::DecodeError err =
          wire::decode(std::span<const std::byte>(frame.data(), n), out);
      benchmark::DoNotOptimize(out);
      if (!err.ok()) state.SkipWithError("decode failed");
      bytes += n;
    }
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.counters["messages_per_iter"] = static_cast<double>(messages.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WireCodec)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vdm

BENCHMARK_MAIN();
