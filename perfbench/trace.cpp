#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "baselines/hmtp_protocol.hpp"
#include "baselines/mst_overlay.hpp"
#include "core/vdm_protocol.hpp"
#include "metrics/collector.hpp"
#include "net/coord_underlay.hpp"
#include "net/graph_underlay.hpp"
#include "overlay/scenario.hpp"
#include "overlay/walk.hpp"
#include "overlay/workload.hpp"
#include "sim/simulator.hpp"
#include "topology/coord.hpp"
#include "topology/transit_stub.hpp"

namespace perfbench {

namespace ex = vdm::experiments;
namespace ov = vdm::overlay;
namespace net = vdm::net;

void LayerTotals::add(const LayerTotals& o) {
  topology_build_s += o.topology_build_s;
  delay_calls += o.delay_calls;
  delay_s += o.delay_s;
  path_link_visits += o.path_link_visits;
  events_fired += o.events_fired;
  sim_s += o.sim_s;
  walks += o.walks;
  walk_steps += o.walk_steps;
  walk_steps_max = std::max(walk_steps_max, o.walk_steps_max);
  walk_probes += o.walk_probes;
  walk_s += o.walk_s;
  entries += o.entries;
  entry_depth_sum += o.entry_depth_sum;
  members += o.members;
  depth_sum += o.depth_sum;
  depth_max = std::max(depth_max, o.depth_max);
  join_s += o.join_s;
  refine_s += o.refine_s;
  flood_s += o.flood_s;
  control_messages += o.control_messages;
  data_transmissions += o.data_transmissions;
  reconnects += o.reconnects;
  crashes += o.crashes;
  refines += o.refines;
  captures += o.captures;
  capture_s += o.capture_s;
}

bool LayerTotals::same_counts(const LayerTotals& o) const {
  return delay_calls == o.delay_calls && path_link_visits == o.path_link_visits &&
         events_fired == o.events_fired && walks == o.walks &&
         walk_steps == o.walk_steps && walk_steps_max == o.walk_steps_max &&
         walk_probes == o.walk_probes && entries == o.entries &&
         entry_depth_sum == o.entry_depth_sum && members == o.members &&
         depth_sum == o.depth_sum && depth_max == o.depth_max &&
         control_messages == o.control_messages &&
         data_transmissions == o.data_transmissions &&
         reconnects == o.reconnects && crashes == o.crashes &&
         refines == o.refines && captures == o.captures;
}

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds the duration of its scope to a sink.
class Span {
 public:
  explicit Span(double& sink) : sink_(sink), t0_(Clock::now()) {}
  ~Span() { sink_ += since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& sink_;
  Clock::time_point t0_;
};

/// delay() is an O(1) read of a few tens of nanoseconds, about what a clock
/// read costs, so the underlay times one call in kDelaySample and subtracts
/// the cost of an empty span from each timed call.
constexpr std::uint64_t kDelaySample = 16;

/// Host seconds an empty Span measures (two back-to-back clock reads).
double empty_span_s() {
  static const double cost = [] {
    constexpr int kReps = 200000;
    double sum = 0.0;
    for (int i = 0; i < kReps; ++i) {
      const Span span(sum);
    }
    return sum / kReps;
  }();
  return cost;
}

/// The net layer's boundary: forwards every read to the real underlay,
/// counting delay() calls (timing a sample of them) and the links that
/// path visits cover.
class CountingUnderlay final : public net::Underlay {
 public:
  CountingUnderlay(const net::Underlay& inner, LayerTotals& out)
      : inner_(inner), out_(&out) {}

  std::size_t num_hosts() const override { return inner_.num_hosts(); }
  vdm::sim::Time delay(net::HostId a, net::HostId b) const override {
    if (++out_->delay_calls % kDelaySample != 0) return inner_.delay(a, b);
    const Span span(out_->delay_s);
    return inner_.delay(a, b);
  }
  double loss(net::HostId a, net::HostId b) const override {
    return inner_.loss(a, b);
  }
  std::vector<net::LinkId> path(net::HostId a, net::HostId b) const override {
    std::vector<net::LinkId> p = inner_.path(a, b);
    out_->path_link_visits += p.size();
    return p;
  }
  void for_each_path_link(
      net::HostId a, net::HostId b,
      vdm::util::FunctionRef<void(net::LinkId)> visit) const override {
    inner_.for_each_path_link(a, b, [&](net::LinkId l) {
      ++out_->path_link_visits;
      visit(l);
    });
  }
  double link_delay(net::LinkId link) const override {
    return inner_.link_delay(link);
  }
  std::size_t num_links() const override { return inner_.num_links(); }
  bool concurrent_reads() const override { return inner_.concurrent_reads(); }
  bool zero_loss() const override { return inner_.zero_loss(); }

 private:
  const net::Underlay& inner_;
  LayerTotals* out_;
};

/// Probe-plane boundary: forwards to the real metric, handing it the
/// counting underlay wherever the session passes the real one (the session
/// must hold the real underlay when placement needs its concrete type).
class CountingMetric final : public ov::MetricProvider {
 public:
  CountingMetric(const ov::MetricProvider& inner, const net::Underlay& real,
                 const net::Underlay& counting)
      : inner_(inner), real_(real), counting_(counting) {}

  std::string_view name() const override { return inner_.name(); }
  double measure(const net::Underlay& n, net::HostId a, net::HostId b,
                 vdm::util::Rng& rng) const override {
    return inner_.measure(route(n), a, b, rng);
  }
  int messages_per_measurement() const override {
    return inner_.messages_per_measurement();
  }
  vdm::sim::Time measurement_time(const net::Underlay& n, net::HostId a,
                                  net::HostId b) const override {
    return inner_.measurement_time(route(n), a, b);
  }
  double measure_with_cost(const net::Underlay& n, net::HostId a, net::HostId b,
                           vdm::util::Rng& rng, Cost& cost) const override {
    return inner_.measure_with_cost(route(n), a, b, rng, cost);
  }
  bool concurrent_probe_safe() const override {
    return inner_.concurrent_probe_safe();
  }
  ProbeBase probe_base(const net::Underlay& n, net::HostId a,
                       net::HostId b) const override {
    return inner_.probe_base(route(n), a, b);
  }
  double finish_probe(const ProbeBase& base, vdm::util::Rng& rng) const override {
    return inner_.finish_probe(base, rng);
  }

 private:
  const net::Underlay& route(const net::Underlay& n) const {
    return &n == &real_ ? counting_ : n;
  }

  const ov::MetricProvider& inner_;
  const net::Underlay& real_;
  const net::Underlay& counting_;
};

/// Walk-layer spans around the concurrent pipeline's step-policy calls.
class TimedPipeline final : public ov::PipelineSupport {
 public:
  TimedPipeline(ov::PipelineSupport& inner, LayerTotals& out)
      : inner_(inner), out_(out) {}

  void start(ov::TreeWalk& walk, ov::PolicySlot& slot, ov::OpStats& stats) override {
    const Span span(out_.walk_s);
    inner_.start(walk, slot, stats);
  }
  ov::TreeWalk::Action step(ov::TreeWalk& walk, ov::PolicySlot& slot,
                            ov::OpStats& stats) override {
    const Span span(out_.walk_s);
    return inner_.step(walk, slot, stats);
  }
  std::span<const ov::WalkAdoption> adoptions(const ov::PolicySlot& slot) const override {
    return inner_.adoptions(slot);
  }
  bool commit(ov::Session& session, net::HostId joiner, net::HostId parent,
              double parent_dist, bool parent_has_dist,
              std::span<const ov::WalkAdoption> adoptions,
              ov::OpStats& stats) override {
    const Span span(out_.walk_s);
    return inner_.commit(session, joiner, parent, parent_dist, parent_has_dist,
                         adoptions, stats);
  }

 private:
  ov::PipelineSupport& inner_;
  LayerTotals& out_;
};

/// Walk-layer spans around the protocol's join and refinement walks.
class TimedProtocol final : public ov::Protocol {
 public:
  TimedProtocol(ov::Protocol& inner, LayerTotals& out)
      : inner_(inner), out_(out) {
    if (ov::PipelineSupport* p = inner_.pipeline_support()) {
      pipeline_ = std::make_unique<TimedPipeline>(*p, out_);
    }
  }

  std::string_view name() const override { return inner_.name(); }
  ov::OpStats execute_join(ov::Session& session, net::HostId joiner,
                           net::HostId start) override {
    const Span span(out_.walk_s);
    return inner_.execute_join(session, joiner, start);
  }
  ov::OpStats execute_refine(ov::Session& session, net::HostId node) override {
    const Span span(out_.walk_s);
    refining_ = true;
    const ov::OpStats stats = inner_.execute_refine(session, node);
    refining_ = false;
    return stats;
  }
  bool wants_refinement() const override { return inner_.wants_refinement(); }
  vdm::sim::Time refinement_period() const override {
    return inner_.refinement_period();
  }
  ov::PipelineSupport* pipeline_support() override { return pipeline_.get(); }

  bool refining() const { return refining_; }

 private:
  ov::Protocol& inner_;
  LayerTotals& out_;
  std::unique_ptr<TimedPipeline> pipeline_;
  bool refining_ = false;
};

/// Counts walk steps and probes, and the tree depth where join walks start
/// (the placement layer's entry point; the source in sequential mode).
class WalkCounter final : public ov::WalkObserver {
 public:
  WalkCounter(const TimedProtocol& protocol, LayerTotals& out)
      : protocol_(protocol), out_(out) {}
  void bind(const ov::Session& session) { session_ = &session; }

  void on_step(const ov::WalkStep& step) override {
    ++out_.walk_steps;
    out_.walk_probes += static_cast<std::uint64_t>(step.probes);
    out_.walk_steps_max =
        std::max(out_.walk_steps_max, static_cast<std::uint64_t>(step.step));
    if (step.step != 1) return;
    ++out_.walks;
    if (!protocol_.refining()) {
      ++out_.entries;
      out_.entry_depth_sum += session_->tree().depth(step.node);
    }
  }

 private:
  const TimedProtocol& protocol_;
  LayerTotals& out_;
  const ov::Session* session_ = nullptr;
};

std::unique_ptr<net::Underlay> build_underlay(const ex::RunConfig& cfg,
                                              std::size_t pool,
                                              vdm::util::Rng& rng) {
  switch (cfg.substrate) {
    case ex::Substrate::kTransitStub: {
      if (cfg.routers != 0) break;
      vdm::topo::TransitStubParams tp;
      tp.loss_max = cfg.link_loss_max;
      vdm::topo::HostAttachment hp;
      hp.num_hosts = pool;
      vdm::topo::TransitStubTopology t = vdm::topo::make_transit_stub(tp, rng);
      return std::make_unique<net::GraphUnderlay>(
          vdm::topo::attach_hosts(std::move(t.graph), t.stub_routers, hp, rng));
    }
    case ex::Substrate::kCoordUs: {
      vdm::topo::CoordParams cp;
      cp.num_hosts = pool;
      cp.space = vdm::topo::CoordSpace::kGeo;
      cp.regions = vdm::topo::us_regions();
      net::CoordUnderlay::Params up;
      up.space = net::CoordUnderlay::Space::kSpherical;
      up.loss = cfg.link_loss_max;
      std::vector<double> x;
      std::vector<double> y;
      vdm::topo::make_coord_into(cp, rng, x, y);
      return std::make_unique<net::CoordUnderlay>(up, std::move(x), std::move(y));
    }
    default:
      break;
  }
  throw std::invalid_argument("traced run: unsupported substrate");
}

std::unique_ptr<ov::Protocol> build_protocol(const ex::RunConfig& cfg) {
  switch (cfg.protocol) {
    case ex::Proto::kVdm: {
      vdm::core::VdmConfig vc;
      vc.epsilon_rel = cfg.vdm_epsilon;
      vc.case2_descend_ratio = cfg.vdm_case2_descend_ratio;
      vc.refinement_period = cfg.vdm_refine_period;
      return std::make_unique<vdm::core::VdmProtocol>(vc);
    }
    case ex::Proto::kHmtp: {
      vdm::baselines::HmtpConfig hc;
      hc.refinement = cfg.hmtp_refinement;
      hc.refinement_period = cfg.hmtp_refine_period;
      hc.u_turn_rule = cfg.hmtp_u_turn_rule;
      hc.foster_child = cfg.hmtp_foster_child;
      return std::make_unique<vdm::baselines::HmtpProtocol>(hc);
    }
    default:
      break;
  }
  throw std::invalid_argument("traced run: unsupported protocol");
}

/// Depth of every attached member of the final tree, by one BFS.
void tree_depths(const ov::Membership& tree, net::HostId source, LayerTotals& out) {
  std::vector<std::pair<net::HostId, std::uint64_t>> queue{{source, 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const auto [h, d] = queue[i];
    ++out.members;
    out.depth_sum += d;
    out.depth_max = std::max(out.depth_max, d);
    for (const net::HostId c : tree.member(h).children) queue.emplace_back(c, d + 1);
  }
}

}  // namespace

ex::RunResult traced_run(const ex::RunConfig& config, LayerTotals& layers) {
  if (config.metric != ex::Metric::kDelay || config.host_pool == 0 ||
      config.workload.kind == ov::WorkloadKind::kTrace) {
    throw std::invalid_argument("traced run: unsupported configuration");
  }
  LayerTotals L;
  // The same seed streams run_once derives.
  vdm::util::Rng root(config.seed);
  vdm::util::Rng topo_rng = root.split(1);
  vdm::util::Rng scenario_rng = root.split(2);
  vdm::util::Rng session_rng = root.split(3);
  const std::size_t pool = config.host_pool;

  std::unique_ptr<net::Underlay> real;
  {
    const Span span(L.topology_build_s);
    real = build_underlay(config, pool, topo_rng);
  }
  const CountingUnderlay counting(*real, L);
  // The placement index picks its grid mode from the underlay's concrete
  // type, so a locating run on a coordinate substrate must hand the session
  // the real underlay; the probe plane is then counted through the metric.
  const bool typed = config.session.join_mode != ov::JoinMode::kSequential &&
                     dynamic_cast<const net::CoordUnderlay*>(real.get()) != nullptr;
  const net::Underlay& session_net =
      typed ? static_cast<const net::Underlay&>(*real) : counting;

  std::unique_ptr<ov::Protocol> inner = build_protocol(config);
  TimedProtocol protocol(*inner, L);
  WalkCounter walks(protocol, L);
  inner->set_walk_observer(&walks);
  protocol.set_walk_observer(&walks);

  vdm::sim::Simulator simulator;
  const ov::DelayMetric delay_metric(config.probe_noise);
  const CountingMetric metric(delay_metric, *real, counting);
  ov::SessionParams sp = config.session;
  sp.source = 0;
  sp.profile = true;
  ov::Session session(simulator, session_net, protocol, metric, sp, session_rng);
  walks.bind(session);
  vdm::metrics::Collector collector(session);
  collector.set_threads(sp.threads);
  {
    std::vector<ov::WorkloadEvent> events;
    if (config.workload.kind != ov::WorkloadKind::kSlots) {
      ov::generate_workload(config.scenario, config.workload, pool, sp.source,
                            scenario_rng, events);
    }
    ov::ScenarioDriver driver(session, config.scenario, scenario_rng);
    const auto measure = [&collector, &L](vdm::sim::Time at) {
      ++L.captures;
      const Span span(L.capture_s);
      collector.capture(at);
    };
    const Span span(L.sim_s);
    if (config.workload.kind == ov::WorkloadKind::kSlots) {
      driver.run(measure);
    } else {
      driver.run_trace(events, measure);
    }
  }
  L.events_fired = simulator.executed();
  // Scale the sampled delay() time up to every call, net of clock cost.
  const double sampled = static_cast<double>(L.delay_calls / kDelaySample);
  L.delay_s = std::max(0.0, L.delay_s - sampled * empty_span_s()) *
              static_cast<double>(kDelaySample);

  // The result, field by field as run_once computes it.
  const std::size_t skip =
      std::min(config.epoch_skip, collector.samples().empty()
                                      ? std::size_t{0}
                                      : collector.samples().size() - 1);
  using vdm::metrics::EpochSample;
  ex::RunResult r;
  r.stress = collector.mean_stress(skip);
  r.stress_max = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stress_max; }, skip);
  r.stretch = collector.mean_stretch(skip);
  r.stretch_leaf = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stretch_leaf_avg; }, skip);
  r.stretch_max = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stretch_max; }, skip);
  r.stretch_min = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stretch_min; }, skip);
  r.hopcount = collector.mean_hopcount(skip);
  r.hop_leaf = collector.mean_of(
      [](const EpochSample& e) { return e.tree.hop_leaf_avg; }, skip);
  r.hop_max = collector.mean_of(
      [](const EpochSample& e) { return e.tree.hop_max; }, skip);
  r.loss = collector.mean_loss(skip);
  r.overhead = collector.mean_overhead(skip);
  r.overhead_per_chunk = collector.mean_overhead_per_chunk(skip);
  r.network_usage = collector.mean_network_usage(skip);
  const auto startups = collector.startup_stats();
  const auto reconnects = collector.reconnect_stats();
  const auto detections = collector.detection_stats();
  const auto outages = collector.outage_stats();
  r.startup_avg = startups.avg;
  r.startup_max = startups.max;
  r.startup_p50 = startups.p50;
  r.startup_p99 = startups.p99;
  if (session.join_cohort_span() > 0.0) {
    r.join_rate = static_cast<double>(session.join_cohort_size()) /
                  session.join_cohort_span();
  }
  r.reconnect_avg = reconnects.avg;
  r.reconnect_max = reconnects.max;
  r.detection_avg = detections.avg;
  r.detection_max = detections.max;
  r.outage_avg = outages.avg;
  r.outage_max = outages.max;
  r.mst_ratio = config.compute_mst_ratio
                    ? vdm::baselines::mst_ratio(session.tree(), session.source(),
                                                session_net)
                    : 1.0;
  r.final_members = session.tree().alive_count();
  if (config.keep_epochs) {
    r.epochs.assign(collector.samples().begin(), collector.samples().end());
  }

  tree_depths(session.tree(), session.source(), L);
  const ov::Session::Counters& t = session.totals();
  L.join_s = session.profile().join_secs;
  L.refine_s = session.profile().refine_secs;
  L.flood_s = session.profile().flood_secs;
  L.control_messages = t.control_messages;
  L.data_transmissions = t.data_transmissions;
  L.reconnects = t.reconnects_completed;
  L.crashes = t.crashes;
  L.refines = t.refines_run;
  layers.add(L);
  return r;
}

}  // namespace perfbench
