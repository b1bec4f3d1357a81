// libvdm end-to-end benchmark.
//
//   vdm_perfbench --workload <flash_crowd|churn_stream|paper_sweep>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--scale full|smoke] [--perturb]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs every task of
// the workload twice, untraced and traced, and reports per-layer metrics.
// Every run's outputs are checked (see README.md). The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 when the outputs are correct, 1 when a check failed and 2 on a
// usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "experiments/sweep.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ex = vdm::experiments;
using perfbench::LayerTotals;
using perfbench::Quality;
using perfbench::Scale;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  bool perturb = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// An output check failed: the run produced a wrong answer.
  void wrong(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  /// A run threw: its operations count as failed, the outputs of the
  /// other runs still stand.
  void threw(const ex::RunConfig& cfg, std::uint64_t ops, const std::exception& e) {
    failed += ops;
    std::printf("RUN FAILED (seed %llu): %s\n",
                static_cast<unsigned long long>(cfg.seed), e.what());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Shifts one scalar by one ulp: the --perturb self-test of the check.
void perturb(ex::RunResult& r) {
  r.stretch = std::nextafter(r.stretch, std::numeric_limits<double>::infinity());
}

/// Mean quality of the runs that completed, as end-to-end metrics.
void add_quality(Outcome& o, const std::vector<Quality>& qs) {
  Quality m;
  double outage = 0.0;
  std::size_t with_outage = 0;
  for (const Quality& q : qs) {
    m.stretch += q.stretch;
    m.hopcount += q.hopcount;
    m.hop_max += q.hop_max;
    m.startup_p99 += q.startup_p99;
    m.continuity += q.continuity;
    m.overhead += q.overhead;
    m.mst_ratio += q.mst_ratio;
    if (q.outage >= 0.0) {
      outage += q.outage;
      ++with_outage;
    }
  }
  const auto n = static_cast<double>(qs.size());
  o.add("stretch", m.stretch / n, "ratio");
  o.add("hopcount", m.hopcount / n, "hops");
  o.add("hop_max", m.hop_max / n, "hops");
  o.add("startup_p99_sim_s", m.startup_p99 / n, "sim_s");
  o.add("continuity", m.continuity / n, "ratio");
  o.add("outage_sim_s", with_outage > 0 ? outage / static_cast<double>(with_outage) : 0.0,
        "sim_s");
  o.add("overhead", m.overhead / n, "msg/tx");
  o.add("mst_ratio", m.mst_ratio / n, "ratio");
}

/// Timed work: host seconds and what they bought.
struct Work {
  double secs = 0.0;
  double runs = 0.0;
  double joins = 0.0;
  double sim_secs = 0.0;
};

void add_rates(Outcome& o, const Work& w) {
  const double s = w.secs > 0.0 ? w.secs : std::numeric_limits<double>::infinity();
  o.add("seed_runs_per_s", w.runs / s, "1/s");
  o.add("host_joins_per_s", w.joins / s, "1/s");
  o.add("sim_s_per_host_s", w.sim_secs / s, "s/s");
}

/// Timed passes or repetitions: at least this many, more while the run's
/// seconds last. The first pass still grows the warm scratch to the panel's
/// largest run; medians over three or more drop it.
constexpr std::size_t kMinReps = 3;

/// Set-up: every panel seed's first run on a fresh RunScratch, input
/// generation included; these runs are the reference each later repetition
/// must reproduce bit for bit. Then timed passes over the panel on one warm
/// scratch (at least kMinReps, more until `seconds` have passed).
Outcome timed_panel(const Workload& w, const Args& a) {
  Outcome o;
  const std::size_t n = w.configs.size();
  std::vector<std::string> ref(n);
  std::vector<std::uint64_t> ops(n, 0);
  std::vector<bool> ok(n, false);
  std::vector<Quality> qs(n);
  std::vector<double> setup;
  ex::RunScratch warm;
  for (std::size_t i = 0; i < n; ++i) {
    const ex::RunConfig& cfg = w.configs[i];
    try {
      const auto t0 = Clock::now();
      const ex::RunConfig fresh = perfbench::make_workload(w.name, a.seed, a.scale).configs[i];
      ops[i] = perfbench::operations(fresh);
      o.attempted += ops[i];
      ex::RunScratch scratch;
      const ex::RunResult r = ex::run_once(fresh, scratch);
      setup.push_back(since(t0));
      if (const std::string why = perfbench::check_run(cfg, r); !why.empty()) {
        o.wrong("seed " + std::to_string(cfg.seed) + ": " + why);
        o.failed += ops[i];
        continue;
      }
      ref[i] = perfbench::digest(r);
      qs[i] = perfbench::quality(r);
      ok[i] = true;
      warm = std::move(scratch);
    } catch (const std::exception& e) {
      o.threw(cfg, ops[i], e);
    }
  }

  std::vector<std::vector<double>> times(n);
  const auto start = Clock::now();
  bool perturbed = !a.perturb;
  for (std::size_t pass = 1; pass <= kMinReps || since(start) < a.seconds; ++pass) {
    double pass_s = 0.0;
    std::size_t runs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      const ex::RunConfig& cfg = w.configs[i];
      o.attempted += ops[i];
      try {
        const auto t0 = Clock::now();
        ex::RunResult r = ex::run_once(cfg, warm);
        const double secs = since(t0);
        if (!perturbed) {
          perturb(r);
          perturbed = true;
        }
        if (perfbench::digest(r) != ref[i]) {
          o.wrong("seed " + std::to_string(cfg.seed) +
                  ": repetition differs from the first run");
          o.failed += ops[i];
          continue;
        }
        times[i].push_back(secs);
        pass_s += secs;
        ++runs;
      } catch (const std::exception& e) {
        o.wrong("seed " + std::to_string(cfg.seed) +
                " threw on a repetition after its first run succeeded");
        o.threw(cfg, ops[i], e);
      }
    }
    std::printf("pass %zu: %zu runs in %.3f s\n", pass, runs, pass_s);
  }

  // The panel's time: each run's median over the passes, summed.
  Work work;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok[i] || times[i].empty()) continue;
    work.secs += median(times[i]);
    work.runs += 1.0;
    work.joins += static_cast<double>(qs[i].joins);
    work.sim_secs += w.configs[i].scenario.total_time;
  }
  std::vector<Quality> done;
  for (std::size_t i = 0; i < n; ++i) {
    if (ok[i]) done.push_back(qs[i]);
  }
  if (done.empty()) {
    o.wrong("no run of the panel completed");
    return o;
  }
  o.add("setup_s", median(setup), "s");
  o.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_rates(o, work);
  add_quality(o, done);
  return o;
}

/// Set-up: the first seed of every grid point on a fresh RunScratch. Then
/// the whole grid on one worker as the reference, then timed repetitions on
/// `w.workers` workers (at least kMinReps, more until `seconds` have
/// passed), each of which must reproduce the reference exactly.
Outcome timed_sweep(const Workload& w, const Args& a) {
  Outcome o;
  const std::vector<ex::RunConfig> all = perfbench::tasks(w);
  std::vector<double> setup;
  std::vector<std::string> first(w.configs.size());
  for (std::size_t p = 0; p < w.configs.size(); ++p) {
    const ex::RunConfig& cfg = w.configs[p];
    o.attempted += 1;
    try {
      const auto t0 = Clock::now();
      const ex::RunConfig fresh = perfbench::make_workload(w.name, a.seed, a.scale).configs[p];
      ex::RunScratch scratch;
      const ex::RunResult r = ex::run_once(fresh, scratch);
      setup.push_back(since(t0));
      first[p] = perfbench::digest(r);
    } catch (const std::exception& e) {
      o.threw(cfg, 1, e);
    }
  }

  ex::SweepOptions serial;
  serial.threads = 1;
  std::vector<ex::AggregateResult> ref;
  o.attempted += all.size();
  try {
    ref = ex::run_grid(w.configs, w.seeds, serial);
  } catch (const std::exception& e) {
    o.threw(all.front(), all.size(), e);
    o.wrong("the reference sweep did not complete");
    return o;
  }
  std::vector<Quality> qs;
  double joins = 0.0;
  double sim_secs = 0.0;
  for (std::size_t p = 0; p < ref.size(); ++p) {
    if (!first[p].empty() && perfbench::digest(ref[p].runs.front()) != first[p]) {
      o.wrong("grid point " + std::to_string(p) +
              ": sweep run differs from the fresh-scratch run");
    }
    for (std::size_t s = 0; s < ref[p].runs.size(); ++s) {
      const ex::RunResult& r = ref[p].runs[s];
      if (const std::string why = perfbench::check_run(all[p * w.seeds + s], r);
          !why.empty()) {
        o.wrong("grid point " + std::to_string(p) + " seed " + std::to_string(s) +
                ": " + why);
      }
      qs.push_back(perfbench::quality(r));
      joins += static_cast<double>(qs.back().joins);
      sim_secs += all[p * w.seeds + s].scenario.total_time;
    }
  }
  const std::string ref_digest = perfbench::digest(ref);

  ex::SweepOptions parallel;
  parallel.threads = w.workers;
  std::vector<double> reps;
  const auto start = Clock::now();
  bool perturbed = !a.perturb;
  for (std::size_t rep = 1; rep <= kMinReps || since(start) < a.seconds; ++rep) {
    o.attempted += all.size();
    try {
      const auto t0 = Clock::now();
      std::vector<ex::AggregateResult> aggs = ex::run_grid(w.configs, w.seeds, parallel);
      const double secs = since(t0);
      if (!perturbed) {
        perturb(aggs.front().runs.front());
        perturbed = true;
      }
      if (perfbench::digest(aggs) != ref_digest) {
        o.wrong(std::to_string(w.workers) +
                "-worker sweep differs from the 1-worker sweep");
        o.failed += all.size();
        continue;
      }
      std::printf("repetition %zu: %zu runs in %.3f s\n", rep, all.size(), secs);
      reps.push_back(secs);
    } catch (const std::exception& e) {
      o.threw(all.front(), all.size(), e);
    }
  }

  o.add("setup_s", median(setup), "s");
  o.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_rates(o, {median(reps), static_cast<double>(all.size()), joins, sim_secs});
  add_quality(o, qs);
  return o;
}

/// Every task untraced (run_once on a fresh RunScratch) and traced, passes
/// repeated until `seconds` have passed; the traced result must equal the
/// untraced one bit for bit. Layer counts come from the first pass (later
/// passes must repeat them), layer times are medians over passes.
Outcome traced(const Workload& w, const Args& a) {
  Outcome o;
  const std::vector<ex::RunConfig> all = perfbench::tasks(w);
  std::vector<std::uint64_t> ops(all.size(), 0);
  std::vector<bool> ok(all.size(), true);
  std::vector<LayerTotals> passes;
  std::vector<double> overheads;
  bool match = true;
  const auto start = Clock::now();
  do {
    LayerTotals layers;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!ok[i]) continue;
      const ex::RunConfig& cfg = all[i];
      if (passes.empty()) ops[i] = perfbench::operations(cfg);
      o.attempted += ops[i];
      try {
        auto t0 = Clock::now();
        ex::RunScratch scratch;
        const ex::RunResult plain = ex::run_once(cfg, scratch);
        untraced_s += since(t0);
        if (const std::string why = perfbench::check_run(cfg, plain); !why.empty()) {
          o.wrong("seed " + std::to_string(cfg.seed) + ": " + why);
        }
        t0 = Clock::now();
        ex::RunResult r = perfbench::traced_run(cfg, layers);
        traced_s += since(t0);
        if (a.perturb && passes.empty() && i == 0) perturb(r);
        if (perfbench::digest(r) != perfbench::digest(plain)) {
          match = false;
          o.wrong("seed " + std::to_string(cfg.seed) +
                  ": traced run differs from the untraced run");
        }
      } catch (const std::exception& e) {
        if (!passes.empty()) o.wrong("a run threw after succeeding in an earlier pass");
        o.threw(cfg, ops[i], e);
        ok[i] = false;
      }
    }
    if (!passes.empty() && !layers.same_counts(passes.front())) {
      o.wrong("traced layer counts differ between passes");
    }
    passes.push_back(layers);
    overheads.push_back(untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0);
  } while (since(start) < a.seconds);
  std::printf("traced scalars match untraced: %s\n", match ? "yes" : "NO");
  std::printf("tracing overhead: %+.1f %% of untraced host time\n",
              100.0 * median(overheads));

  double efficiency = 0.0;
  if (w.sweep) {
    try {
      ex::SweepOptions opt;
      opt.threads = 1;
      auto t0 = Clock::now();
      const std::string serial = perfbench::digest(ex::run_grid(w.configs, w.seeds, opt));
      const double serial_s = since(t0);
      opt.threads = w.workers;
      t0 = Clock::now();
      const std::string parallel = perfbench::digest(ex::run_grid(w.configs, w.seeds, opt));
      const double parallel_s = since(t0);
      if (serial != parallel) o.wrong("sweep results depend on the worker count");
      efficiency = serial_s / (static_cast<double>(w.workers) * parallel_s);
    } catch (const std::exception& e) {
      o.threw(all.front(), all.size(), e);
    }
  }

  const LayerTotals& c = passes.front();
  auto median_of = [&](double LayerTotals::* field) {
    std::vector<double> v;
    for (const LayerTotals& p : passes) v.push_back(p.*field);
    return median(v);
  };
  auto per = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const double join_s = median_of(&LayerTotals::join_s);
  const double refine_s = median_of(&LayerTotals::refine_s);
  const double flood_s = median_of(&LayerTotals::flood_s);
  const double capture_s = median_of(&LayerTotals::capture_s);
  const double phases = join_s + refine_s + flood_s;
  o.add("topology.build_s", median_of(&LayerTotals::topology_build_s), "s");
  o.add("net.delay_calls", static_cast<double>(c.delay_calls), "count");
  o.add("net.delay_s", median_of(&LayerTotals::delay_s), "s");
  o.add("net.path_link_visits", static_cast<double>(c.path_link_visits), "count");
  o.add("sim.events_fired", static_cast<double>(c.events_fired), "count");
  o.add("sim.self_s", median_of(&LayerTotals::sim_s) - phases - capture_s, "s");
  o.add("walk.walks", static_cast<double>(c.walks), "count");
  o.add("walk.steps_per_walk", per(c.walk_steps, c.walks), "steps");
  o.add("walk.steps_max", static_cast<double>(c.walk_steps_max), "steps");
  o.add("walk.probes_per_walk", per(c.walk_probes, c.walks), "probes");
  o.add("walk.s", median_of(&LayerTotals::walk_s), "s");
  o.add("placement.entry_depth_mean", per(c.entry_depth_sum, c.entries), "hops");
  o.add("membership.depth_mean", per(c.depth_sum, c.members), "hops");
  o.add("membership.depth_max", static_cast<double>(c.depth_max), "hops");
  o.add("session.join_s", join_s, "s");
  o.add("session.flood_s", flood_s, "s");
  o.add("session.refine_share", phases > 0.0 ? refine_s / phases : 0.0, "ratio");
  o.add("session.refines", static_cast<double>(c.refines), "count");
  o.add("session.control_messages", static_cast<double>(c.control_messages), "count");
  o.add("session.data_transmissions", static_cast<double>(c.data_transmissions),
        "count");
  o.add("session.reconnects", static_cast<double>(c.reconnects), "count");
  o.add("session.crashes", static_cast<double>(c.crashes), "count");
  o.add("metrics.captures", static_cast<double>(c.captures), "count");
  o.add("metrics.capture_s", capture_s, "s");
  o.add("sweep.parallel_efficiency", efficiency, "ratio");
  o.add("trace.overhead", median(overheads), "ratio");
  if (std::none_of(ok.begin(), ok.end(), [](bool b) { return b; })) {
    o.wrong("no traced run completed");
  }
  return o;
}

void report(const Outcome& o) {
  for (const Metric& m : o.metrics) {
    std::printf("%-28s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: vdm_perfbench --workload <flash_crowd|churn_stream|"
               "paper_sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale full|smoke] [--perturb]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      a.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds >= 0.0)) {
        return usage("--seconds takes a non-negative number");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--scale") {
      if (v != "full" && v != "smoke") return usage("--scale takes full or smoke");
      a.scale = v == "full" ? Scale::kFull : Scale::kSmoke;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    return usage("--workload names one of the three workloads");
  }

  const Workload w = perfbench::make_workload(a.workload, a.seed, a.scale);
  std::printf("workload %s, seed %llu, %zu %s\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), perfbench::tasks(w).size(),
              w.sweep ? "sweep tasks" : "panel runs");
  const Outcome o = a.trace ? traced(w, a) : w.sweep ? timed_sweep(w, a) : timed_panel(w, a);
  report(o);
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}
