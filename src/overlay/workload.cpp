#include "overlay/workload.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <numbers>
#include <queue>
#include <sstream>
#include <string>

#include "util/require.hpp"

namespace vdm::overlay {

namespace {

/// A member's scheduled departure. `seq` breaks time ties by join order so
/// the generated stream is a pure function of the rng.
struct Departure {
  double at = 0.0;
  std::uint64_t seq = 0;
  net::HostId host = net::kInvalidHost;
  bool crash = false;

  bool operator>(const Departure& other) const {
    if (at != other.at) return at > other.at;
    return seq > other.seq;
  }
};

using DepartureQueue =
    std::priority_queue<Departure, std::vector<Departure>, std::greater<>>;

}  // namespace

bool parse_workload_kind(std::string_view text, WorkloadParams& out) {
  if (text == "slots") {
    out.kind = WorkloadKind::kSlots;
  } else if (text == "poisson") {
    out.kind = WorkloadKind::kPoisson;
  } else if (text == "diurnal") {
    out.kind = WorkloadKind::kDiurnal;
  } else if (text == "pareto") {
    out.kind = WorkloadKind::kPareto;
  } else if (text.starts_with("trace:") && text.size() > 6) {
    out.kind = WorkloadKind::kTrace;
    out.trace_path = std::string(text.substr(6));
  } else {
    return false;
  }
  return true;
}

std::string_view workload_kind_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSlots: return "slots";
    case WorkloadKind::kPoisson: return "poisson";
    case WorkloadKind::kDiurnal: return "diurnal";
    case WorkloadKind::kPareto: return "pareto";
    case WorkloadKind::kTrace: return "trace";
  }
  return "?";
}

void generate_workload(const ScenarioParams& scenario,
                       const WorkloadParams& workload, std::size_t num_hosts,
                       net::HostId source, util::Rng& rng,
                       std::vector<WorkloadEvent>& out) {
  const WorkloadKind kind = workload.kind;
  VDM_REQUIRE_MSG(kind == WorkloadKind::kPoisson ||
                      kind == WorkloadKind::kDiurnal ||
                      kind == WorkloadKind::kPareto,
                  "generate_workload handles the synthetic kinds only; kSlots "
                  "runs the slot machinery and kTrace loads a file");
  VDM_REQUIRE(scenario.target_members >= 1);
  VDM_REQUIRE_MSG(scenario.target_members + scenario.flash_count < num_hosts,
                  "need spare hosts beyond the target membership for churn");
  VDM_REQUIRE(workload.mean_session > 0.0);
  if (kind == WorkloadKind::kPareto) {
    VDM_REQUIRE_MSG(workload.pareto_alpha > 1.0,
                    "Pareto shape must exceed 1 for a finite mean session");
  }
  if (kind == WorkloadKind::kDiurnal) {
    VDM_REQUIRE(workload.diurnal_period > 0.0);
    VDM_REQUIRE(workload.diurnal_amplitude >= 0.0 &&
                workload.diurnal_amplitude <= 1.0);
  }

  out.clear();

  std::vector<net::HostId> pool;
  pool.reserve(num_hosts - 1);
  for (net::HostId h = 0; h < num_hosts; ++h) {
    if (h != source) pool.push_back(h);
  }
  auto draw_host = [&]() -> net::HostId {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    const net::HostId h = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return h;
  };

  // Pareto scale chosen so the mean session matches the exponential kinds:
  // E[Pareto(xm, a)] = xm * a / (a - 1).
  const double pareto_xm =
      workload.mean_session * (workload.pareto_alpha - 1.0) /
      workload.pareto_alpha;
  auto session_length = [&]() -> double {
    if (kind == WorkloadKind::kPareto) {
      return rng.pareto(pareto_xm, workload.pareto_alpha);
    }
    return rng.exponential(workload.mean_session);
  };

  // Pre-drawn arrival instants: the staggered initial joins (same window as
  // ScenarioDriver::schedule_initial_joins) plus the flash burst.
  std::vector<double> seeded;
  seeded.reserve(scenario.target_members + scenario.flash_count);
  for (std::size_t i = 0; i < scenario.target_members; ++i) {
    seeded.push_back(
        rng.uniform(0.001, std::max(0.002, scenario.join_phase)));
  }
  std::sort(seeded.begin(), seeded.end());
  if (scenario.flash_count > 0) {
    const auto pos =
        std::upper_bound(seeded.begin(), seeded.end(), scenario.flash_at);
    seeded.insert(pos, scenario.flash_count, scenario.flash_at);
  }

  // Little's law: this arrival rate balances mean_session departures at the
  // target membership.
  const double lambda =
      static_cast<double>(scenario.target_members) / workload.mean_session;
  const double lambda_max =
      kind == WorkloadKind::kDiurnal
          ? lambda * (1.0 + workload.diurnal_amplitude)
          : lambda;
  // Ongoing arrivals start when the join phase ends; diurnal modulation is
  // realized by thinning a homogeneous lambda_max stream.
  auto next_arrival_after = [&](double t) -> double {
    for (;;) {
      t += rng.exponential(1.0 / lambda_max);
      if (kind != WorkloadKind::kDiurnal) return t;
      const double phase = 2.0 * std::numbers::pi *
                           (t - scenario.join_phase) / workload.diurnal_period;
      const double rate =
          lambda * (1.0 + workload.diurnal_amplitude * std::sin(phase));
      if (rng.chance(rate / lambda_max)) return t;
      if (t > scenario.total_time) return t;  // past the horizon; stop thinning
    }
  };

  DepartureQueue departures;
  std::uint64_t seq = 0;

  auto emit_arrival = [&](double at) {
    // A saturated pool (membership fluctuated up to the host count) simply
    // drops the arrival; the driver-side pool can therefore never exhaust.
    if (pool.empty()) return;
    const net::HostId h = draw_host();
    const int degree = scenario.degrees.sample(rng);
    out.push_back({at, WorkloadEvent::Kind::kJoin, h, degree});
    const double leaves_at = at + session_length();
    // crash_fraction == 0 short-circuits before chance(), as in the driver.
    const bool crash = scenario.crash_fraction > 0.0 &&
                       rng.chance(scenario.crash_fraction);
    if (leaves_at <= scenario.total_time) {
      departures.push({leaves_at, seq++, h, crash});
    }
    // else: the member outlives the run; its host never returns to the pool.
  };

  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::size_t next_seeded = 0;
  double next_generated = next_arrival_after(scenario.join_phase);
  for (;;) {
    const double seeded_at =
        next_seeded < seeded.size() ? seeded[next_seeded] : kNever;
    const double arrival_at = std::min(seeded_at, next_generated);
    const double departure_at =
        departures.empty() ? kNever : departures.top().at;
    if (std::min(arrival_at, departure_at) > scenario.total_time) break;
    if (arrival_at <= departure_at) {
      emit_arrival(arrival_at);
      if (seeded_at <= next_generated) {
        ++next_seeded;
      } else {
        next_generated = next_arrival_after(next_generated);
      }
    } else {
      const Departure d = departures.top();
      departures.pop();
      out.push_back({d.at,
                     d.crash ? WorkloadEvent::Kind::kCrash
                             : WorkloadEvent::Kind::kLeave,
                     d.host, 4});
      pool.push_back(d.host);
    }
  }
}

void write_trace(std::ostream& os, std::span<const WorkloadEvent> events) {
  // Full double precision so a written trace replays bit-identically.
  os.precision(17);
  os << "# vdm workload trace: t,join|leave|crash,host[,degree]\n";
  for (const WorkloadEvent& e : events) {
    switch (e.kind) {
      case WorkloadEvent::Kind::kJoin:
        os << e.at << ",join," << e.host << ',' << e.degree << '\n';
        break;
      case WorkloadEvent::Kind::kLeave:
        os << e.at << ",leave," << e.host << '\n';
        break;
      case WorkloadEvent::Kind::kCrash:
        os << e.at << ",crash," << e.host << '\n';
        break;
    }
  }
}

void write_trace_file(const std::string& path,
                      std::span<const WorkloadEvent> events) {
  std::ofstream os(path);
  VDM_REQUIRE_MSG(os.is_open(), "cannot open trace file for writing: " + path);
  write_trace(os, events);
  VDM_REQUIRE_MSG(static_cast<bool>(os), "error writing trace file: " + path);
}

namespace {

/// Parses all of `field` as a T; false on trailing junk, a sign the type
/// cannot hold, or a value out of T's range.
template <typename T>
bool parse_whole(std::string_view field, T& value) {
  const char* const last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

void parse_trace(std::istream& is, std::vector<WorkloadEvent>& out) {
  out.clear();
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::string> fields;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Commas and whitespace both separate fields.
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream ls(line);
    fields.clear();
    for (std::string f; ls >> f;) fields.push_back(std::move(f));
    if (fields.empty()) continue;  // blank / comment-only line
    const std::string where = "trace line " + std::to_string(line_no) + ": ";
    WorkloadEvent e;
    VDM_REQUIRE_MSG(parse_whole(fields[0], e.at) && std::isfinite(e.at) &&
                        e.at >= 0.0,
                    where + "time '" + fields[0] +
                        "' is not a finite number >= 0");
    VDM_REQUIRE_MSG(fields.size() >= 2, where + "missing event kind");
    const std::string& kind = fields[1];
    if (kind == "terminate") continue;  // old end marker; runners take the
                                        // horizon as a parameter
    VDM_REQUIRE_MSG(kind != "flash",
                    where + "flash bursts must be expanded to concrete join "
                            "lines before replay");
    if (kind == "join") {
      e.kind = WorkloadEvent::Kind::kJoin;
    } else if (kind == "leave") {
      e.kind = WorkloadEvent::Kind::kLeave;
    } else if (kind == "crash") {
      e.kind = WorkloadEvent::Kind::kCrash;
    } else {
      VDM_REQUIRE_MSG(false, where + "unknown event kind '" + kind + "'");
    }
    VDM_REQUIRE_MSG(fields.size() >= 3, where + kind + " needs a host id");
    VDM_REQUIRE_MSG(parse_whole(fields[2], e.host) && e.host != net::kInvalidHost,
                    where + "host id '" + fields[2] + "' is not a valid id");
    const std::size_t max_fields = e.kind == WorkloadEvent::Kind::kJoin ? 4 : 3;
    VDM_REQUIRE_MSG(fields.size() <= max_fields,
                    where + "unexpected field '" + fields[max_fields] + "'");
    if (fields.size() == 4) {
      VDM_REQUIRE_MSG(parse_whole(fields[3], e.degree) && e.degree >= 1,
                      where + "degree '" + fields[3] +
                          "' is not a whole number >= 1");
    }
    out.push_back(e);
  }
}

void parse_trace(const std::string& text, std::vector<WorkloadEvent>& out) {
  std::istringstream is(text);
  parse_trace(is, out);
}

void load_trace_file(const std::string& path,
                     std::vector<WorkloadEvent>& out) {
  std::ifstream is(path);
  VDM_REQUIRE_MSG(is.is_open(), "cannot open trace file: " + path);
  parse_trace(is, out);
}

void validate_trace(std::span<const WorkloadEvent> events,
                    std::size_t num_hosts, net::HostId source) {
  sim::Time prev = 0.0;
  for (const WorkloadEvent& ev : events) {
    VDM_REQUIRE_MSG(ev.at >= prev, "trace events must be sorted by time");
    prev = ev.at;
    VDM_REQUIRE_MSG(ev.host < num_hosts && ev.host != source,
                    "trace references host " + std::to_string(ev.host) +
                        " outside the " + std::to_string(num_hosts) +
                        "-host underlay (or the source)");
    if (ev.kind == WorkloadEvent::Kind::kJoin) VDM_REQUIRE(ev.degree >= 1);
  }
}

}  // namespace vdm::overlay
