// Repository benchmark driver: runs one named workload against the
// simulator's public entry points and prints one JSON result line last.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs (--trace 0) report the end-to-end metrics: host wall and CPU
// seconds of the simulation, set-up seconds and peak RSS. Traced runs
// (--trace 1) alternate an untraced and a self-profiled repetition and
// report the per-layer host-time split, the tracing overhead, the exact
// simulator counts and the simulated outputs. perfbench/NOTES.md explains
// the workloads and which end-to-end metric each layer metric should move.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "config/presets.h"
#include "config/serde.h"
#include "core/experiment.h"
#include "core/rotor.h"
#include "fleet/fleet.h"

namespace {

using namespace opus;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user + system CPU seconds, all threads included, at the
/// scheduler's nanosecond resolution (getrusage ticks are too coarse for
/// one stretch between pauses).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// FNV-1a over the deterministic result documents of one repetition.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// What a repetition does: set up and stop, simulate untraced, or simulate
/// with the self-profiler and metrics registry attached.
enum class Mode { kSetupOnly, kTimed, kTraced };

/// One repetition of a workload (one cell, or every fleet timeline).
struct Rep {
  /// Host seconds before the first simulated event, summed over operations,
  /// and its split for the experiment cells.
  double setup_s = 0.0;
  double setup_cluster_s = 0.0;
  double setup_tenant_s = 0.0;
  /// Host wall and CPU seconds of the simulation, set-up and pauses
  /// excluded, per lap between pause points.
  std::vector<double> wall_laps;
  std::vector<double> cpu_laps;
  int attempted = 0;
  int failed = 0;
  /// False when an operation that finished failed a correctness check.
  bool checks_ok = true;
  std::uint64_t digest = kFnvOffset;
  /// Exact counts and simulated outputs (per-layer metric name -> value).
  std::map<std::string, double> counts;
  /// Self-profiler phase totals in seconds (traced repetitions only).
  std::map<std::string, double> phases;
};

/// Wall and CPU seconds of every stretch (lap) between start() and stop(),
/// so a repetition's pauses are left out of its time. Laps end at the same
/// simulated points in every repetition of a run.
class Stopwatch {
 public:
  void start() {
    wall_start_ = Clock::now();
    cpu_start_ = cpu_seconds();
    running_ = true;
  }
  void stop() {
    if (!running_) return;
    wall_.push_back(seconds_between(wall_start_, Clock::now()));
    cpu_.push_back(cpu_seconds() - cpu_start_);
    running_ = false;
  }
  const std::vector<double>& wall_laps() const { return wall_; }
  const std::vector<double>& cpu_laps() const { return cpu_; }

 private:
  Clock::time_point wall_start_{};
  double cpu_start_ = 0.0;
  std::vector<double> wall_;
  std::vector<double> cpu_;
  bool running_ = false;
};

/// Called at a repetition's pause points with its stopwatch stopped: every
/// kPauseEvents simulated events of a cell, and after every fleet timeline.
/// The run samples set-up time there, so set-up is measured all through the
/// run rather than at a few moments of it.
using Pause = std::function<void()>;

/// Simulated events between pause points of a cell: 5 to 40 milliseconds of
/// host time on the benchmark's cells.
constexpr std::uint64_t kPauseEvents = 8192;

void fail_check(Rep& rep, const std::string& what) {
  std::printf("check failed: %s\n", what.c_str());
  rep.checks_ok = false;
  ++rep.failed;
}

/// The traced repetition's telemetry: the existing self-profile and metrics
/// knobs, with the periodic probe off so no extra events are simulated.
obs::TelemetryConfig traced_telemetry() {
  obs::TelemetryConfig t;
  t.metrics = true;
  t.self_profile = true;
  t.sample_interval = 0;
  return t;
}

/// Adds the profiler's phase totals into rep.phases, and its OCS batch call
/// count (the base of ocs.fallback_ratio) into rep.counts.
void add_phases(Rep& rep, obs::SelfProfiler& prof) {
  for (const char* name : {"fluid.recompute", "ocs.reconfigure_batch",
                           "fleet.baseline_sweep"}) {
    const int id = prof.phase(name);
    rep.phases[name] += 1e-9 * static_cast<double>(prof.total_ns(id));
  }
  rep.counts["ocs.batch_calls"] +=
      static_cast<double>(prof.calls(prof.phase("ocs.reconfigure_batch")));
}

// ---- experiment cells ------------------------------------------------------

/// One cell: net::Cluster construction and core::build_tenant are set-up;
/// the engine's run, result collection and tear-down are the simulation.
/// Mirrors core::run_experiment, split so set-up is timed on its own, and
/// drives the simulator as IterationEngine::run_to_completion does, in
/// steps of kPauseEvents events with a pause after each.
Rep run_cell(const core::ExperimentConfig& cfg, Mode mode, const Pause& pause) {
  Rep rep;
  if (mode != Mode::kSetupOnly) rep.attempted = 1;
  Stopwatch run;
  try {
    // Declared first so it outlives the simulator and the cluster, which
    // hold its profiler and OCS observers until they are destroyed.
    std::unique_ptr<obs::Telemetry> tel;
    const auto t0 = Clock::now();
    sim::Simulator sim;
    net::Cluster cluster(sim, core::cluster_config_for(cfg));
    const auto t1 = Clock::now();
    core::Tenant tenant = core::build_tenant(
        sim, cluster, cfg, net::NodeSpan{0, cluster.n_nodes()});
    const auto t2 = Clock::now();
    rep.setup_cluster_s = seconds_between(t0, t1);
    rep.setup_tenant_s = seconds_between(t1, t2);
    rep.setup_s = seconds_between(t0, t2);
    if (mode == Mode::kSetupOnly) return rep;
    run.start();

    if (mode == Mode::kTraced) {
      tel = std::make_unique<obs::Telemetry>(traced_telemetry());
      tel->attach_fabric(sim, cluster);
    }

    core::ExperimentResult result;
    tenant.engine->run(tenant.dag, cfg.iterations);
    while (sim.run_steps(kPauseEvents) == kPauseEvents) {
      run.stop();
      pause();
      run.start();
    }
    result.iteration_times = tenant.engine->iteration_times();
    const std::size_t n_iter = result.iteration_times.size();
    if (n_iter > 1) {
      result.steady_iteration_time =
          std::accumulate(result.iteration_times.begin() + 1,
                          result.iteration_times.end(), TimeNs{0}) /
          static_cast<TimeNs>(n_iter - 1);
    } else if (n_iter == 1) {
      result.steady_iteration_time = result.iteration_times.front();
    }
    std::int64_t batch_fallbacks = 0;
    if (cluster.photonic()) {
      result.ocs_reconfigurations = cluster.total_ocs_reconfigurations();
      result.ocs_dark_time = cluster.total_ocs_dark_time();
      for (int r = 0; r < cluster.n_rails(); ++r) {
        batch_fallbacks += cluster.ocs(RailId{r}).stats().batch_fallbacks;
      }
    }
    if (tenant.opus != nullptr) {
      result.controller = tenant.opus->controller().stats();
      result.shim_speculative_requests =
          tenant.opus->shim().speculative_requests();
      result.shim_mispredictions = tenant.opus->shim().mispredictions();
    }
    if (tenant.rotor != nullptr) {
      result.rotor_rotations = tenant.rotor->rotations();
      result.rotor_deferred_sends = tenant.rotor->deferred_sends();
    }
    using Route = net::Cluster::Route;
    result.rail_bytes = cluster.bytes_on_route(Route::kRail);
    result.scale_up_bytes = cluster.bytes_on_route(Route::kScaleUp);
    result.pxn_bytes = cluster.bytes_on_route(Route::kPxn);
    result.mgmt_bytes = cluster.bytes_on_route(Route::kMgmt);
    result.multihop_bytes = cluster.bytes_on_route(Route::kRailMultiHop);

    const int parked = cluster.parked_transfer_count();
    if (n_iter != static_cast<std::size_t>(cfg.iterations)) {
      fail_check(rep, "completed " + std::to_string(n_iter) + " of " +
                          std::to_string(cfg.iterations) + " iterations");
    } else if (parked != 0) {
      fail_check(rep, std::to_string(parked) + " transfers parked at end");
    } else if (cfg.fabric == net::FabricKind::kRotor &&
               result.rotor_rotations != result.ocs_reconfigurations) {
      fail_check(rep, "rotor rotations != summed OCS reconfigurations");
    }

    const net::FluidNetwork& fluid = cluster.network();
    auto& c = rep.counts;
    c["sim.events"] = static_cast<double>(sim.events_fired());
    c["fluid.solves"] = static_cast<double>(fluid.solve_count());
    c["fluid.solve_rounds"] = static_cast<double>(fluid.solve_rounds());
    c["fluid.flows_completed"] =
        static_cast<double>(fluid.completed_flow_count());
    c["ocs.reconfigurations"] =
        static_cast<double>(result.ocs_reconfigurations);
    c["ocs.batch_fallbacks"] = static_cast<double>(batch_fallbacks);
    c["cluster.multihop_bytes"] = static_cast<double>(result.multihop_bytes);
    c["cluster.rescued_flows"] =
        static_cast<double>(cluster.rescued_flow_count());
    c["cluster.parked_at_end"] = static_cast<double>(parked);
    c["controller.requests"] = result.controller.requests;
    c["controller.satisfied_immediately"] =
        result.controller.satisfied_immediately;
    c["controller.queued"] = result.controller.queued;
    c["shim.speculative_requests"] = result.shim_speculative_requests;
    c["shim.mispredictions"] = result.shim_mispredictions;
    c["rotor.rotations"] = static_cast<double>(result.rotor_rotations);
    c["rotor.deferred_sends"] =
        static_cast<double>(result.rotor_deferred_sends);
    c["model.steady_iter_ms"] =
        1e-6 * static_cast<double>(result.steady_iteration_time);
    c["model.ocs_dark_s"] = 1e-9 * static_cast<double>(result.ocs_dark_time);

    if (tel != nullptr) {
      tel->finalize(sim.now());
      add_phases(rep, *tel->profiler());
    }
    rep.digest = fnv1a(rep.digest, json::dump(config::to_json(result), 0));
  } catch (const std::exception& e) {
    std::printf("operation failed: %s\n", e.what());
    ++rep.failed;
    rep.digest = fnv1a(rep.digest, e.what());
  }
  // Tear-down of the simulator, cluster and tenant is part of the run.
  run.stop();
  rep.wall_laps = run.wall_laps();
  rep.cpu_laps = run.cpu_laps();
  return rep;
}

// ---- fleet churn -----------------------------------------------------------

constexpr int kFleetTimelines = 16;

/// Counts a traced fleet run's fault-injection instants ("fail node..."
/// events on the fabric's fault tracks).
double failures_injected(const obs::Telemetry& tel) {
  const json::Value trace = tel.trace().to_json();
  const json::Value* events = trace.find("traceEvents");
  double n = 0;
  for (std::size_t i = 0; events != nullptr && i < events->size(); ++i) {
    const json::Value& e = (*events)[i];
    const json::Value* cat = e.find("cat");
    const json::Value* name = e.find("name");
    if (cat != nullptr && name != nullptr && cat->as_string() == "fault" &&
        name->as_string().starts_with("fail ")) {
      ++n;
    }
  }
  return n;
}

/// kFleetTimelines seeded timelines of the full Opus churn cell. Timeline i
/// of seed n uses s = kFleetTimelines * n + i + 1 as the fault seed and
/// 2026 + s as the arrival seed. Set-up is config resolution plus
/// fleet::generate_arrivals for every timeline; the simulation is one
/// fleet::run_fleet per timeline, isolated baselines on one sweep thread.
Rep run_fleet_churn(std::uint64_t seed, Mode mode, const Pause& pause) {
  Rep rep;
  const auto t0 = Clock::now();
  std::vector<fleet::FleetConfig> cfgs;
  std::vector<std::vector<fleet::JobSpec>> arrivals;
  for (int i = 0; i < kFleetTimelines; ++i) {
    fleet::FleetConfig cfg = config::fleet_churn_cell(
        net::FabricKind::kOpusPhotonic, /*churn=*/true, /*smoke=*/false);
    const std::uint64_t s = kFleetTimelines * seed + i + 1;
    cfg.arrivals.seed = 2026 + s;
    cfg.base.faults.seed = s;
    cfg.baseline_sweep.threads = 1;
    if (mode == Mode::kTraced) {
      cfg.base.telemetry = traced_telemetry();
      // Collected in memory only (run_fleet never writes it): the fault
      // instants are the one place injected failures are visible.
      cfg.base.telemetry.chrome_trace_path = "in-memory";
    }
    arrivals.push_back(
        fleet::generate_arrivals(cfg.arrivals, cfg.base.gpus_per_node));
    cfgs.push_back(std::move(cfg));
  }
  rep.setup_s = seconds_between(t0, Clock::now());
  if (mode == Mode::kSetupOnly) return rep;

  Stopwatch run;
  double p99_sum = 0.0, makespan_sum = 0.0, avail_sum = 0.0;
  int completed = 0, placed = 0;
  auto& c = rep.counts;
  for (int i = 0; i < kFleetTimelines; ++i) {
    if (i > 0) pause();
    ++rep.attempted;
    run.start();
    try {
      fleet::FleetResult r = fleet::run_fleet(cfgs[i]);
      bool ok = r.jobs.size() == arrivals[i].size();
      for (std::size_t j = 0; ok && j < r.jobs.size(); ++j) {
        const fleet::FleetJobResult& jr = r.jobs[j];
        ok = jr.spec.arrival == arrivals[i][j].arrival &&
             (jr.rejected || jr.iteration_times.size() ==
                                 static_cast<std::size_t>(jr.spec.iterations));
      }
      if (!ok) {
        fail_check(rep, "timeline " + std::to_string(i) +
                            ": a job did not run every iteration");
        run.stop();
        continue;
      }
      for (const fleet::FleetJobResult& jr : r.jobs) {
        if (jr.rejected) continue;
        ++placed;
        c["fleet.jobs"] += 1;
        c["fleet.replacements"] += jr.replacements;
        c["fleet.ports_lost"] += jr.ports_lost;
        c["cluster.multihop_bytes"] += static_cast<double>(jr.multihop_bytes);
        c["rotor.rotations"] += static_cast<double>(jr.rotor_rotations);
        c["rotor.deferred_sends"] +=
            static_cast<double>(jr.rotor_deferred_sends);
        avail_sum += jr.availability;
      }
      ++completed;
      p99_sum += fleet::fleet_slowdown_stats(r).p99;
      makespan_sum += 1e-6 * static_cast<double>(r.makespan);
      if (r.telemetry != nullptr) {
        const json::Value& m = r.telemetry->final_metrics();
        const auto gauge = [&m](const char* key) {
          const json::Value* v = m.find(key);
          return v == nullptr ? 0.0 : v->as_double();
        };
        c["fluid.solves"] += gauge("fluid.solves");
        c["fluid.solve_rounds"] += gauge("fluid.solve_rounds");
        c["ocs.reconfigurations"] += gauge("ocs.reconfigurations");
        c["ocs.batch_fallbacks"] += gauge("ocs.batch_fallbacks");
        c["cluster.rescued_flows"] += gauge("cluster.rescued_flows");
        c["cluster.parked_at_end"] += gauge("cluster.parked_transfers");
        c["faults.injected"] += failures_injected(*r.telemetry);
        add_phases(rep, *r.telemetry->profiler());
        if (gauge("cluster.parked_transfers") != 0) {
          fail_check(rep, "timeline " + std::to_string(i) +
                              ": transfers parked at end");
        }
        r.telemetry = nullptr;  // the digest covers the simulated result only
      }
      rep.digest = fnv1a(rep.digest, json::dump(config::to_json(r), 0));
    } catch (const std::exception& e) {
      std::printf("operation failed: timeline %d (arrival seed %llu, fault "
                  "seed %llu): %s\n",
                  i, static_cast<unsigned long long>(cfgs[i].arrivals.seed),
                  static_cast<unsigned long long>(cfgs[i].base.faults.seed),
                  e.what());
      ++rep.failed;
      rep.digest = fnv1a(rep.digest, e.what());
    }
    run.stop();
  }
  rep.wall_laps = run.wall_laps();
  rep.cpu_laps = run.cpu_laps();
  c["fleet.p99_slowdown"] = ratio(p99_sum, completed);
  c["fleet.makespan_ms"] = ratio(makespan_sum, completed);
  c["fleet.availability"] = ratio(avail_sum, placed);
  return rep;
}

// ---- workloads -------------------------------------------------------------

core::ExperimentConfig table3_on(net::FabricKind fabric, int nodes,
                                 std::uint64_t seed) {
  core::ExperimentConfig cfg = config::table3_cell(nodes);
  cfg.fabric = fabric;
  cfg.engine.seed = seed;
  return cfg;
}

struct Workload {
  const char* name;
  bool fleet;
  net::FabricKind fabric;
  int nodes;
  /// Timed repetitions of an untraced run.
  int reps;
};

constexpr Workload kWorkloads[] = {
    {"opus_256", false, net::FabricKind::kOpusPhotonic, 256, 12},
    {"ring_128", false, net::FabricKind::kStaticRing, 128, 16},
    {"rotor_256", false, net::FabricKind::kRotor, 256, 14},
    {"fleet_churn", true, net::FabricKind::kOpusPhotonic, 32, 18},
};

Rep run_workload(const Workload& w, std::uint64_t seed, Mode mode,
                 const Pause& pause) {
  if (w.fleet) return run_fleet_churn(seed, mode, pause);
  return run_cell(table3_on(w.fabric, w.nodes, seed), mode, pause);
}

/// Set-up is sampled in bursts of set-up-only repetitions, back to back for
/// at least kSetupBurstS, at a pause point every kSetupBurstEveryS. A burst's
/// later repetitions find the set-up's own data in cache, so every burst has
/// warm samples, as the burst that fills the end of the run does; a
/// 30-microsecond fleet set-up reads 2x slower when it is sampled cold.
constexpr double kSetupBurstEveryS = 0.3;
constexpr double kSetupBurstS = 0.03;

/// The run ends with set-up samples back to back until --seconds, and for
/// at least this long when the repetitions took longer.
constexpr double kMinSetupFillS = 2.0;

/// Untraced and traced repetition pairs of a traced run.
constexpr int kTracedPairs = 2;

/// Sum over laps of the fastest time of each lap across the repetitions.
/// Every repetition of a run simulates the same events and pauses after
/// the same ones, so lap k is the same work in each (kPauseEvents events of
/// a cell, or one fleet timeline). A lap takes 5 to 150 milliseconds, short
/// enough that one of the repetitions usually ran it in one of the host's
/// fast stretches, which last from under a second to tens of seconds.
double sum_of_lap_minima(const std::vector<Rep>& reps,
                         std::vector<double> Rep::*laps) {
  std::vector<double> fastest;
  for (const Rep& r : reps) {
    const std::vector<double>& l = r.*laps;
    if (fastest.size() < l.size()) {
      fastest.resize(l.size(), std::numeric_limits<double>::infinity());
    }
    for (std::size_t k = 0; k < l.size(); ++k) {
      fastest[k] = std::min(fastest[k], l[k]);
    }
  }
  return std::accumulate(fastest.begin(), fastest.end(), 0.0);
}

double lap_sum(const std::vector<double>& laps) {
  return std::accumulate(laps.begin(), laps.end(), 0.0);
}

/// Per-layer metrics in BENCHMARK.json order, with their units.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"setup.cluster_s", "s"},
    {"setup.tenant_s", "s"},
    {"engine.run_s", "s"},
    {"fleet.timeline_s", "s"},
    {"fluid.recompute_s", "s"},
    {"ocs.reconfigure_batch_s", "s"},
    {"fleet.baseline_sweep_s", "s"},
    {"unattributed_s", "s"},
    {"trace.overhead_s", "s"},
    {"sim.events", "count"},
    {"fluid.solves", "count"},
    {"fluid.solve_rounds", "count"},
    {"fluid.flows_completed", "count"},
    {"ocs.reconfigurations", "count"},
    {"ocs.batch_calls", "count"},
    {"ocs.batch_fallbacks", "count"},
    {"cluster.multihop_bytes", "bytes"},
    {"cluster.rescued_flows", "count"},
    {"cluster.parked_at_end", "count"},
    {"controller.requests", "count"},
    {"controller.satisfied_immediately", "count"},
    {"controller.queued", "count"},
    {"shim.speculative_requests", "count"},
    {"shim.mispredictions", "count"},
    {"rotor.rotations", "count"},
    {"rotor.deferred_sends", "count"},
    {"fleet.jobs", "count"},
    {"fleet.replacements", "count"},
    {"fleet.ports_lost", "count"},
    {"faults.injected", "count"},
    {"sim.ns_per_event", "ns"},
    {"fluid.ns_per_solve", "ns"},
    {"fluid.rounds_per_solve", "ratio"},
    {"controller.hit_ratio", "ratio"},
    {"shim.mispredict_ratio", "ratio"},
    {"ocs.fallback_ratio", "ratio"},
    {"model.steady_iter_ms", "ms"},
    {"model.ocs_dark_s", "s"},
    {"fleet.p99_slowdown", "ratio"},
    {"fleet.makespan_ms", "ms"},
    {"fleet.availability", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<opus_256|ring_128|rotor_256|fleet_churn> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_TRIM_THRESHOLD
  // glibc raises its mmap and trim thresholds after some large frees, and
  // whether it does depends on the order of frees, which the seed changes:
  // the peak RSS of identical work then read 37.5 or 42 MB on a 512-node
  // Opus cell. A fixed trim threshold turns that adjustment off (the mmap
  // threshold stays at its default), so the peak follows the live data.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string_view(value)) workload = &w;
      }
      if (workload == nullptr) usage("unknown workload");
    } else if (key == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || *value == '-') usage("bad --seed");
    } else if (key == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) usage("bad --seconds");
    } else if (key == "--trace") {
      trace = std::string_view(value) == "1"   ? 1
              : std::string_view(value) == "0" ? 0
                                               : -1;
      if (trace < 0) usage("bad --trace");
    } else {
      usage("unknown argument");
    }
  }
  if (argc % 2 != 1 || workload == nullptr || seconds <= 0 || trace < 0) {
    usage("missing argument");
  }

  // A fixed number of repetitions, so every run of one seed does the same
  // operations; a traced run pairs every untraced repetition with a traced
  // one. The first repetition runs alone, so the peak RSS is the workload's
  // own. From then on the pause points take set-up-only samples, and the
  // time left until --seconds goes to set-up samples too, so they span most
  // of the run: the host's speed drifts over seconds, and the fastest set-up
  // of the whole run is far steadier than any one moment's.
  const int n_reps = trace == 1 ? kTracedPairs : workload->reps;
  std::vector<Rep> timed;
  std::vector<Rep> traced;
  std::vector<double> setup, setup_cluster, setup_tenant;
  const auto add_setup = [&](const Rep& r) {
    setup.push_back(r.setup_s);
    setup_cluster.push_back(r.setup_cluster_s);
    setup_tenant.push_back(r.setup_tenant_s);
  };
  const Pause no_pause = [] {};
  const auto setup_burst = [&](double secs) {
    const auto t = Clock::now();
    do {
      add_setup(run_workload(*workload, seed, Mode::kSetupOnly, no_pause));
    } while (seconds_between(t, Clock::now()) < secs);
  };
  bool sampling = false;
  auto last_burst = Clock::now();
  const Pause sample_setup = [&] {
    if (!sampling ||
        seconds_between(last_burst, Clock::now()) < kSetupBurstEveryS) {
      return;
    }
    setup_burst(kSetupBurstS);
    last_burst = Clock::now();
  };
  double peak_mb = 0.0;
  const auto start = Clock::now();
  for (int i = 0; i < n_reps; ++i) {
    timed.push_back(run_workload(*workload, seed, Mode::kTimed, sample_setup));
    add_setup(timed.back());
    if (i == 0) {
      peak_mb = peak_rss_mb();
      sampling = true;
    }
    if (trace == 1) {
      traced.push_back(
          run_workload(*workload, seed, Mode::kTraced, sample_setup));
    }
  }
  setup_burst(std::max(kMinSetupFillS,
                       seconds - seconds_between(start, Clock::now())));

  int attempted = 0, failed = 0;
  bool correct = true;
  const std::uint64_t digest = timed.front().digest;
  for (const std::vector<Rep>* reps : {&timed, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      correct = correct && r.checks_ok && r.digest == digest;
    }
  }
  for (const Rep& r : timed) {
    std::printf("repetition: run %.6f s, cpu %.6f s, setup %.6f s\n",
                lap_sum(r.wall_laps), lap_sum(r.cpu_laps), r.setup_s);
  }
  const double run_s = sum_of_lap_minima(timed, &Rep::wall_laps);
  const double cpu_s = sum_of_lap_minima(timed, &Rep::cpu_laps);
  std::printf("workload %s seed %llu: %zu repetitions, %zu set-ups, result "
              "digest %016llx%s\n",
              workload->name, static_cast<unsigned long long>(seed),
              timed.size(), setup.size(),
              static_cast<unsigned long long>(digest),
              correct ? "" : " (MISMATCH or failed check)");

  json::Value metrics = json::Value::object();
  const auto put = [&metrics](const char* name, double value,
                              const char* unit) {
    json::Value m = json::Value::object();
    m.set("value", json::Value(value));
    m.set("unit", json::Value(unit));
    metrics.set(name, std::move(m));
  };
  if (trace == 0) {
    put("wall_s", run_s, "s");
    put("cpu_s", cpu_s, "s");
    put("setup_s", min_of(setup), "s");
    put("peak_rss_mb", peak_mb, "MB");
  } else {
    std::map<std::string, std::vector<double>> phase_samples;
    for (const Rep& r : traced) {
      for (const auto& [name, s] : r.phases) phase_samples[name].push_back(s);
    }
    std::map<std::string, double> v = traced.back().counts;
    v["setup.cluster_s"] = min_of(setup_cluster);
    v["setup.tenant_s"] = min_of(setup_tenant);
    v[workload->fleet ? "fleet.timeline_s" : "engine.run_s"] = run_s;
    v["fluid.recompute_s"] = median(phase_samples["fluid.recompute"]);
    v["ocs.reconfigure_batch_s"] =
        median(phase_samples["ocs.reconfigure_batch"]);
    v["fleet.baseline_sweep_s"] = median(phase_samples["fleet.baseline_sweep"]);
    // The untraced run less the profiled layers: cluster routing, engine,
    // event loop (and, on fleet_churn, placement and fault handling).
    v["unattributed_s"] = run_s - v["fluid.recompute_s"] -
                          v["ocs.reconfigure_batch_s"] -
                          v["fleet.baseline_sweep_s"];
    v["trace.overhead_s"] =
        sum_of_lap_minima(traced, &Rep::wall_laps) - run_s;
    v["sim.ns_per_event"] = ratio(1e9 * run_s, v["sim.events"]);
    v["fluid.ns_per_solve"] =
        ratio(1e9 * v["fluid.recompute_s"], v["fluid.solves"]);
    v["fluid.rounds_per_solve"] =
        ratio(v["fluid.solve_rounds"], v["fluid.solves"]);
    v["controller.hit_ratio"] = ratio(v["controller.satisfied_immediately"],
                                      v["controller.requests"]);
    v["shim.mispredict_ratio"] = ratio(v["shim.mispredictions"],
                                       v["shim.speculative_requests"]);
    v["ocs.fallback_ratio"] =
        ratio(v["ocs.batch_fallbacks"], v["ocs.batch_calls"]);
    for (const auto& [name, unit] : kLayerMetrics) put(name, v[name], unit);
  }

  json::Value out = json::Value::object();
  out.set("correct", json::Value(correct));
  out.set("attempted", json::Value(attempted));
  out.set("failed", json::Value(failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", json::dump(out, 0).c_str());
  return 0;
}
