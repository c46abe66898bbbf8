#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/task_context.hpp"
#include "flow/flow_plan.hpp"
#include "flow/flow_solver.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "opt/sa.hpp"
#include "scenario/scenario.hpp"
#include "service/scheduler.hpp"
#include "thermal/model_4rm.hpp"

namespace perfbench {
namespace {

using namespace lcn;

// Set-up is repeated and its median reported: one set-up is ~0.5 s of work
// and spreads too much on its own to bound a regression.
constexpr int kSetups = 7;
constexpr double kSetupPressure = 5.0e3;  // Pa, the cold 4RM solve
// |advected heat − injected power| / injected power of a converged steady
// 4RM field (solver tolerance 1e-9; measured residuals are far below this).
constexpr double kEnergyTolerance = 1e-6;

// Seed streams: every random input of a run derives from --seed.
constexpr std::uint64_t kStreamJob = 2;
constexpr std::uint64_t kStreamTrace = 3;

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

void note_samples(Report& report, const std::string& what,
                  const std::vector<double>& values) {
  std::string line = what + ":";
  for (double v : values) line += fmt(" %.4g", v);
  report.notes.push_back(line);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<CoolingNetwork> per_channel_layer(const CoolingProblem& problem,
                                              const CoolingNetwork& net) {
  return std::vector<CoolingNetwork>(
      static_cast<std::size_t>(problem.stack.channel_count()), net);
}

/// The canonical uniform tree (branch columns at cols/3 and 2·cols/3) —
/// the SA's starting point and the scenario's network.
CoolingNetwork uniform_tree(const BenchmarkCase& bench) {
  const Grid2D& grid = bench.problem.grid;
  int b1 = grid.cols() / 3;
  int b2 = 2 * grid.cols() / 3;
  b1 -= b1 % 2;
  b2 -= b2 % 2;
  const TreeTopologyOptimizer realizer(bench, DesignObjective::kPumpingPower);
  return realizer.realize(make_uniform_layout(grid, b1, b2), 0);
}

// ---------------------------------------------------------------------------
// Registry deltas.

struct Registries {
  instrument::Snapshot counters;
  metrics::MetricsSnapshot metrics;

  static Registries take() {
    return {instrument::snapshot(), metrics::global_shard().snapshot()};
  }
};

/// Counter deltas that must repeat exactly for identical work (the
/// self-test's contract); wall-time counters are excluded.
std::vector<std::pair<std::string, std::uint64_t>> deterministic_counts(
    const instrument::Snapshot& d) {
  return {{"spmv_count", d.spmv_count},
          {"spmv_nnz", d.spmv_nnz},
          {"cg_iterations", d.cg_iterations},
          {"bicgstab_solves", d.bicgstab_solves},
          {"bicgstab_iterations", d.bicgstab_iterations},
          {"gmres_solves", d.gmres_solves},
          {"assemblies", d.assemblies},
          {"assemblies_symbolic", d.assemblies_symbolic},
          {"assemblies_refill", d.assemblies_refill},
          {"flow_plan_hits", d.flow_plan_hits},
          {"flow_plan_misses", d.flow_plan_misses},
          {"steady_solves", d.steady_solves},
          {"pressure_probes", d.pressure_probes},
          {"cache_hits", d.cache_hits},
          {"cache_misses", d.cache_misses},
          {"transient_steps", d.transient_steps},
          {"transient_refills", d.transient_refills},
          {"transient_rebuilds", d.transient_rebuilds},
          {"rhs_refills", d.rhs_refills},
          {"scenario_steps", d.scenario_steps},
          {"jobs_completed", d.jobs_completed}};
}

/// Per-layer counter metrics, per unit of work so runs of different
/// lengths compare.
void report_counters(Report& report, const Registries& before,
                     const Registries& after, std::size_t units) {
  const instrument::Snapshot d =
      instrument::delta(before.counters, after.counters);
  report.counts = deterministic_counts(d);
  const double n = static_cast<double>(std::max<std::size_t>(units, 1));
  const auto per = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
  const auto hist = [&](metrics::Hist h) {
    return after.metrics.hist(h).sum_seconds() -
           before.metrics.hist(h).sum_seconds();
  };
  report.layer("sparse.bicgstab_iterations", per(d.bicgstab_iterations),
               "count");
  report.layer("sparse.gmres_fallbacks", per(d.gmres_solves), "count");
  report.layer("sparse.spmv_nnz", per(d.spmv_nnz), "count");
  report.layer("sparse.spmv_bytes", 12.0 * per(d.spmv_nnz), "B");
  // Thread-summed time inside the Krylov solvers (steady and transient).
  report.layer("sparse.solve_s",
               (hist(metrics::Hist::cg_seconds) +
                hist(metrics::Hist::bicgstab_seconds) +
                hist(metrics::Hist::gmres_seconds)) / n,
               "s");
  report.layer("thermal.assemblies_symbolic", per(d.assemblies_symbolic),
               "count");
  report.layer("thermal.transient_refills", per(d.transient_refills), "count");
  report.layer("thermal.rhs_refills", per(d.rhs_refills), "count");
  report.layer("thermal.transient_rebuilds", per(d.transient_rebuilds),
               "count");
  report.layer("flow.plan_hits", per(d.flow_plan_hits), "count");
  report.layer("flow.plan_misses", per(d.flow_plan_misses), "count");
  report.layer("flow.cg_iterations", per(d.cg_iterations), "count");
  report.layer("opt.pressure_probes", per(d.pressure_probes), "count");
  const std::uint64_t lookups = d.cache_hits + d.cache_misses;
  report.layer("opt.cache_hit_rate",
               lookups > 0 ? static_cast<double>(d.cache_hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "ratio");
}

// ---------------------------------------------------------------------------
// Set-up: what a user pays before the loop — case and network build plus the
// first cold 4RM model build and solve.

struct Setup {
  std::optional<BenchmarkCase> bench;
  std::optional<CoolingNetwork> network;  ///< canonical uniform tree
};

Setup set_up(int case_id, Report& report, Spans& spans) {
  std::vector<double> total_s, case_ms, tree_ms, symbolic_ms, refill_ms,
      flow_ms;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    Spans::Scope span(spans, "setup");
    const Clock::time_point t0 = Clock::now();
    std::optional<BenchmarkCase> bench;
    {
      Spans::Scope s(spans, "make_iccad_case");
      bench.emplace(make_iccad_case(case_id));
    }
    case_ms.push_back(1e3 * since(t0));
    const CoolingProblem& problem = bench->problem;

    const Clock::time_point t1 = Clock::now();
    std::optional<CoolingNetwork> net;
    {
      Spans::Scope s(spans, "network_build");
      net.emplace(uniform_tree(*bench));
    }
    tree_ms.push_back(1e3 * since(t1));

    std::optional<Thermal4RM> model;
    {
      Spans::Scope s(spans, "Thermal4RM");
      model.emplace(problem, per_channel_layer(problem, *net));
    }
    const Clock::time_point t2 = Clock::now();
    std::optional<AssembledThermal> system;
    {
      Spans::Scope s(spans, "Thermal4RM::assemble");
      system.emplace(model->assemble(kSetupPressure));
    }
    symbolic_ms.push_back(1e3 * since(t2));
    ThermalField field;
    {
      Spans::Scope s(spans, "solve_steady");
      field = solve_steady(*system);
    }
    total_s.push_back(since(t0));
    if (!std::isfinite(field.t_max) || field.t_max <= problem.inlet_temperature) {
      report.fail(0, fmt("setup: cold 4RM solve gave T_max %.6g K", field.t_max));
    }

    // Outside the set-up total: a numeric refill of the cached plan, and one
    // unit-pressure flow solve.
    const Clock::time_point t3 = Clock::now();
    {
      Spans::Scope s(spans, "Thermal4RM::assemble");
      (void)model->assemble(1.25 * kSetupPressure);
    }
    refill_ms.push_back(1e3 * since(t3));
    const Clock::time_point t4 = Clock::now();
    {
      Spans::Scope s(spans, "solve_unit_flow");
      const int layer = problem.stack.channel_layers().front();
      (void)solve_unit_flow(*net, problem.channel_geometry(layer),
                            problem.coolant, problem.flow_options);
    }
    flow_ms.push_back(1e3 * since(t4));

    setup.bench = std::move(bench);
    setup.network = std::move(net);
  }
  report.metric("setup_s", median(total_s), "s");
  report.layer("geom.case_build_ms", median(case_ms), "ms");
  report.layer("network.tree_build_ms", median(tree_ms), "ms");
  report.layer("thermal.assemble_symbolic_ms", median(symbolic_ms), "ms");
  report.layer("thermal.assemble_refill_ms", median(refill_ms), "ms");
  report.layer("flow.unit_solve_ms", median(flow_ms), "ms");
  note_samples(report, "set-up seconds", total_s);
  return setup;
}

// ---------------------------------------------------------------------------
// Checks.

/// Record one output; compares it against the reference at the default seed
/// and against an earlier unit that ran the same inputs (traced reruns).
void output(const Options& options, Report& report, int unit, int index,
            const std::string& key, const std::string& value) {
  const auto slot = std::make_pair(index, key);
  const auto seen = report.outputs.find(slot);
  if (seen != report.outputs.end() && seen->second != value) {
    report.fail(unit, "unit " + std::to_string(unit) + " " + key + " = " +
                          value + " differs from the same inputs' " +
                          seen->second);
  }
  report.outputs[slot] = value;
  if (options.seed != kDefaultSeed || options.reference == nullptr) return;
  const auto ref =
      options.reference->find({options.workload, {index, key}});
  if (ref == options.reference->end()) {
    if (index == 0) {
      report.fail(unit, "reference has no " + options.workload + " " + key);
    }
    return;
  }
  if (ref->second != value) {
    report.fail(unit, options.workload + " output " + std::to_string(index) +
                          " " + key + " = " + value + ", reference " +
                          ref->second);
  }
}

void output_eval(const Options& options, Report& report, int unit, int index,
                 const EvalResult& eval, std::uint64_t design) {
  output(options, report, unit, index, "w_pump", exact(eval.w_pump));
  output(options, report, unit, index, "delta_t", exact(eval.at_p.delta_t));
  output(options, report, unit, index, "t_max", exact(eval.at_p.t_max));
  output(options, report, unit, index, "p_sys", exact(eval.p_sys));
  output(options, report, unit, index, "design", std::to_string(design));
}

/// Constraint check of a signed-off Problem-2 design.
void check_constraints(Report& report, int unit, const DesignConstraints& c,
                       double w_pump, double t_max) {
  const double slack = 1.0 + 1e-9;
  if (t_max > c.t_max * slack) {
    report.fail(unit, fmt("unit %.0f: T_max %.9g K above the limit %.9g K",
                          unit, t_max, c.t_max));
  }
  if (w_pump > c.w_pump_max * slack) {
    report.fail(unit, fmt("unit %.0f: W_pump %.9g W above the budget %.9g W",
                          unit, w_pump, c.w_pump_max));
  }
}

/// Re-score a signed-off design from outside — a fresh optimizer's public
/// evaluate_network (DRC, SystemEvaluator, evaluate_p2 with the
/// optimizer's search options) at 4RM must reproduce the reported operating
/// point bit for bit — and time the same evaluation at 2RM.
void check_reevaluation(Report& report, int unit, const BenchmarkCase& bench,
                        const CoolingNetwork& net, const EvalResult& expected,
                        Spans& spans) {
  const TreeTopologyOptimizer scorer(bench, DesignObjective::kThermalGradient);
  const auto evaluate = [&](const SimConfig& sim, const char* name) {
    Spans::Scope s(spans, name);
    return scorer.evaluate_network(net, sim);
  };
  const Clock::time_point t4 = Clock::now();
  const EvalResult r4 = evaluate({ThermalModelKind::k4RM, 1}, "evaluate_4rm");
  report.layer("opt.eval_4rm_ms", 1e3 * since(t4), "ms");
  const Clock::time_point t2 = Clock::now();
  (void)evaluate({ThermalModelKind::k2RM, 4}, "evaluate_2rm");
  report.layer("opt.eval_2rm_ms", 1e3 * since(t2), "ms");
  if (r4.w_pump != expected.w_pump || r4.p_sys != expected.p_sys ||
      r4.at_p.delta_t != expected.at_p.delta_t ||
      r4.at_p.t_max != expected.at_p.t_max) {
    report.fail(unit, "re-evaluated 4RM sign-off differs: W_pump " +
                          exact(r4.w_pump) + " vs " + exact(expected.w_pump) +
                          ", dT " + exact(r4.at_p.delta_t) + " vs " +
                          exact(expected.at_p.delta_t));
  }
}

/// Final 4RM field of a design at its operating point: cold and warm solve
/// times, energy balance (advected heat vs injected power) and the lowest
/// temperature relative to the inlet.
void check_final_field(Report& report, int unit, const CoolingProblem& problem,
                       const CoolingNetwork& net, double p_sys,
                       Spans& spans) {
  std::optional<Thermal4RM> model;
  {
    Spans::Scope s(spans, "Thermal4RM");
    model.emplace(problem, per_channel_layer(problem, net));
  }
  const AssembledThermal system = model->assemble(p_sys);
  const Clock::time_point t0 = Clock::now();
  ThermalField cold;
  {
    Spans::Scope s(spans, "solve_steady");
    cold = solve_steady(system);
  }
  report.layer("sparse.solve4rm_cold_ms", 1e3 * since(t0), "ms");
  const AssembledThermal nearby = model->assemble(1.02 * p_sys);
  const Clock::time_point t1 = Clock::now();
  {
    Spans::Scope s(spans, "solve_steady");
    (void)solve_steady(nearby, 1e-9, &cold.temperatures);
  }
  report.layer("sparse.solve4rm_warm_ms", 1e3 * since(t1), "ms");

  const double injected = problem.total_power();
  const double advected = advected_heat(system, cold.temperatures);
  const double imbalance = std::abs(advected - injected) / injected;
  report.layer("thermal.energy_balance_rel", imbalance, "ratio");
  if (!(imbalance <= kEnergyTolerance)) {
    report.fail(unit, fmt("energy balance: advected %.9g W vs injected %.9g W",
                          advected, injected));
  }
  const double t_min =
      *std::min_element(cold.temperatures.begin(), cold.temperatures.end());
  // Reported, not gated: the paper's central-differenced advection lets 4RM
  // fields dip below the inlet temperature.
  report.layer("thermal.min_t_minus_inlet_k", t_min - problem.inlet_temperature,
               "K");
}

/// Records every sa_iter progress event of a served job with its time and
/// SA stage, so the job's iterations can be told apart by stage.
class StageClock : public ProgressSink {
 public:
  struct Event {
    Clock::time_point at;
    std::string stage;
  };

  void emit(const char* name, const char* args) override {
    if (std::strcmp(name, "sa_iter") != 0) return;
    const Clock::time_point now = Clock::now();
    static constexpr char kKey[] = "\"stage\":\"";
    std::string stage;
    if (const char* p = std::strstr(args, kKey)) {
      p += sizeof kKey - 1;
      const char* q = std::strchr(p, '"');
      stage.assign(p, q != nullptr ? q : p + std::strlen(p));
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({now, std::move(stage)});
  }
  std::vector<Event> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Units run back to back until the window closes, and at least until the
/// first `min_inputs` inputs have run: the quality metrics come from those,
/// so they do not depend on how many units fit in the window. In a traced
/// run units come in pairs on the same inputs, untraced then traced, so the
/// pair's times give the tracing overhead.
struct Window {
  const Options& options;
  int min_inputs = 1;
  Clock::time_point start = Clock::now();
  int unit = 0;

  bool next() const {
    if (traced()) return true;  // the traced rerun of an untraced unit
    if (input_index() < min_inputs) return true;
    return !options.smoke && since(start) < options.seconds;
  }
  bool traced() const { return options.trace && unit % 2 == 1; }
  int input_index() const { return options.trace ? unit / 2 : unit; }
  /// The untraced unit that completes the fixed first inputs.
  bool completes_fixed_inputs() const {
    return !traced() && input_index() == min_inputs - 1;
  }
};

/// Inputs a run completes before its window may close: the quality metrics'
/// inputs in a timed run, one in a smoke or traced run (which report no
/// end-to-end metrics).
int fixed_inputs(const Options& options, int quality_inputs) {
  return options.smoke || options.trace ? 1 : quality_inputs;
}

/// Process peak RSS once the fixed first inputs are done, so it covers the
/// same work on every run: the scheduler keeps each finished job's session
/// (and its private flow plans), so RSS grows with every job a window runs.
void report_peak_rss(Report& report, const Window& window) {
  if (window.completes_fixed_inputs()) {
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

void report_trace_overhead(Report& report, const std::vector<double>& unit_s,
                           bool trace) {
  if (!trace) return;
  std::vector<double> plain, traced;
  for (std::size_t i = 0; i < unit_s.size(); ++i) {
    (i % 2 == 0 ? plain : traced).push_back(unit_s[i]);
  }
  const double base = median(plain);
  report.layer("common.trace_overhead_pct",
               base > 0.0 && !traced.empty()
                   ? 100.0 * (median(traced) / base - 1.0)
                   : 0.0,
               "%");
}

void report_steps(Report& report, const std::vector<double>& steps_ms,
                  const std::string& what) {
  report.metric("step_p50_ms", quantile(steps_ms, 0.5), "ms");
  report.metric("step_p90_ms", quantile(steps_ms, 0.9), "ms");
  report.notes.push_back("steps: " + std::to_string(steps_ms.size()) +
                         " samples of " + what + ", " +
                         std::to_string(steps_ms.size() / 10) +
                         " beyond p90");
}

// ---------------------------------------------------------------------------
// served_p2: Table-4 P2 design jobs through an in-process Scheduler with two
// lanes, from two closed-loop clients that each submit their next job when
// the previous one returns; clients meet at the end of every round.

constexpr int kServedCase = 2;
constexpr int kClients = 2;
// Schedule scale of the served jobs (default_p2_stages). At 0.15 a job runs
// 6 + 3 single-neighbour 2RM search iterations (7 same-stage intervals), so
// a window has more than ten search steps beyond p90, and jobs stay short
// enough that a window averages over many SA trajectories.
constexpr double kServedScale = 0.15;
// The quality metrics are medians over the jobs of the first rounds, which
// every run completes.
constexpr int kQualityRounds = 8;

struct ServedJob {
  double latency_s = 0.0;
  Clock::time_point done;
  service::JobResult result;
};

/// Splits a served job's progress into its 2RM search and its 4RM sign-off.
/// `steps_ms` gets the intervals between consecutive iterations of the same
/// search stage (one kind of step: a 2RM grouped-evaluation iteration);
/// stage entries and the wait for the first iteration are not steps. The
/// sign-off is the time from the last search iteration to the result.
struct JobSplit {
  std::vector<double> steps_ms;
  double signoff_s = -1.0;  ///< < 0 when no search iteration was seen
};

JobSplit split_job(const std::vector<StageClock::Event>& events,
                   const std::set<std::string>& search_stages,
                   Clock::time_point done) {
  JobSplit split;
  std::optional<Clock::time_point> last_search;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const StageClock::Event& e = events[i];
    if (search_stages.count(e.stage) == 0) continue;
    if (i > 0 && events[i - 1].stage == e.stage) {
      split.steps_ms.push_back(
          1e3 * std::chrono::duration<double>(e.at - events[i - 1].at).count());
    }
    last_search = e.at;
  }
  if (last_search) {
    split.signoff_s = std::chrono::duration<double>(done - *last_search).count();
  }
  return split;
}

Report served_p2(const Options& options, Spans& spans) {
  Report report;
  spans.enable(options.trace);
  const Setup setup = set_up(kServedCase, report, spans);
  const BenchmarkCase& bench = *setup.bench;
  DesignConstraints limits = bench.constraints;
  limits.w_pump_max = problem2_pump_budget(bench);
  const double scale = options.smoke ? 0.02 : kServedScale;
  std::set<std::string> search_stages;
  for (const SaStage& stage : default_p2_stages(scale)) {
    if (stage.sim.model == ThermalModelKind::k2RM) {
      search_stages.insert(stage.name);
    }
  }

  // Progress sinks outlive the scheduler: it emits job_done to a job's sink
  // after publishing the terminal status that wait() returns on.
  std::deque<std::array<StageClock, kClients>> sinks;
  service::Scheduler::Options lanes;
  lanes.max_running = kClients;
  service::Scheduler scheduler(lanes);

  std::vector<double> round_s, latency_s, queue_s, run_s, search_s, signoff_s,
      steps_ms, w_pump, delta_t, t_max, evaluations;
  std::optional<service::JobResult> first;
  double jobs_failed = 0.0;
  const Registries before = Registries::take();
  Window window{options, fixed_inputs(options, kQualityRounds)};
  for (; window.next(); ++window.unit) {
    spans.enable(window.traced());
    std::array<ServedJob, kClients> jobs;
    std::array<StageClock, kClients>& round_sinks = sinks.emplace_back();
    const Clock::time_point t0 = Clock::now();
    {
      Spans::Scope round(spans, "served_round");
      const std::uint64_t round_id = round.id();
      std::array<std::thread, kClients> clients;
      for (int c = 0; c < kClients; ++c) {
        clients[static_cast<std::size_t>(c)] = std::thread([&, c] {
          Spans::Scope s(spans, "Scheduler::submit/wait", round_id);
          service::JobRequest request;
          request.kind = service::JobKind::kDesign;
          request.name = "served_p2";
          request.case_id = kServedCase;
          request.objective = DesignObjective::kThermalGradient;
          request.scale = scale;
          request.seed = derive_seed(
              options.seed, kStreamJob,
              static_cast<std::uint64_t>(kClients * window.input_index() + c));
          // A private flow-plan shard keeps each job's counters independent
          // of which concurrent job happened to populate a shared cache.
          request.private_flow_plans = true;
          ServedJob& job = jobs[static_cast<std::size_t>(c)];
          const Clock::time_point submitted = Clock::now();
          const std::uint64_t id = scheduler.submit(
              request, &round_sinks[static_cast<std::size_t>(c)]);
          job.result = scheduler.wait(id);
          job.done = Clock::now();
          job.latency_s = std::chrono::duration<double>(job.done - submitted)
                              .count();
        });
      }
      for (std::thread& client : clients) client.join();
    }
    round_s.push_back(since(t0));
    report_peak_rss(report, window);

    const bool quality =
        !window.traced() && window.input_index() < window.min_inputs;
    for (int c = 0; c < kClients; ++c) {
      const ServedJob& job = jobs[static_cast<std::size_t>(c)];
      const service::JobResult& r = job.result;
      const int index = kClients * window.input_index() + c;
      latency_s.push_back(job.latency_s);
      queue_s.push_back(job.latency_s - r.seconds);
      run_s.push_back(r.seconds);
      const JobSplit split =
          split_job(round_sinks[static_cast<std::size_t>(c)].events(),
                    search_stages, job.done);
      steps_ms.insert(steps_ms.end(), split.steps_ms.begin(),
                      split.steps_ms.end());
      if (split.signoff_s >= 0.0) {
        signoff_s.push_back(split.signoff_s);
        search_s.push_back(r.seconds - split.signoff_s);
      }
      report.attempted += 1;
      const int unit = static_cast<int>(report.attempted) - 1;
      if (r.status != service::JobStatus::kDone || !r.feasible) {
        jobs_failed += 1.0;
        report.fail(unit, std::string("served job ") +
                              service::job_status_name(r.status) +
                              (r.feasible ? "" : " infeasible") + " " +
                              r.error);
        continue;
      }
      if (split.signoff_s < 0.0) {
        report.fail(unit, "served job streamed no 2RM search iteration");
      }
      check_constraints(report, unit, limits, r.w_pump, r.t_max);
      std::optional<CoolingNetwork> net;
      try {
        net.emplace(CoolingNetwork::from_text(r.network_text));
      } catch (const std::exception& e) {
        report.fail(unit, std::string("served network text: ") + e.what());
      }
      if (net && net->content_hash() != r.design_hash) {
        report.fail(unit, "served network text does not hash to its design");
      }
      EvalResult eval;
      eval.w_pump = r.w_pump;
      eval.p_sys = r.p_sys;
      eval.at_p = {r.delta_t, r.t_max};
      output_eval(options, report, unit, index, eval, r.design_hash);
      if (quality) {
        w_pump.push_back(r.w_pump * 1e3);
        delta_t.push_back(r.delta_t);
        t_max.push_back(r.t_max);
      }
      evaluations.push_back(static_cast<double>(r.evaluations));
      if (!first && net) first = r;
    }
  }
  const Registries after = Registries::take();
  spans.enable(options.trace);

  if (first) {
    const CoolingNetwork net = CoolingNetwork::from_text(first->network_text);
    EvalResult expected;
    expected.w_pump = first->w_pump;
    expected.p_sys = first->p_sys;
    expected.at_p = {first->delta_t, first->t_max};
    check_reevaluation(report, 0, bench, net, expected, spans);
    check_final_field(report, 0, bench.problem, net, first->p_sys, spans);
  }

  report.metric("run_s", mean(round_s), "s");
  note_samples(report, "round seconds", round_s);
  report.metric("job_p50_s", median(latency_s), "s");
  report_steps(report, steps_ms,
               "2RM search iterations (same-stage sa_iter intervals)");
  report.metric("w_pump_mw", median(w_pump), "mW");
  report.metric("delta_t_k", median(delta_t), "K");
  report.metric("peak_t_max_k", median(t_max), "K");
  report.notes.push_back(
      "units: " + std::to_string(latency_s.size()) + " served P2 jobs in " +
      std::to_string(round_s.size()) + " rounds of 2, case 2, 2 lanes, scale " +
      fmt("%g", scale) + "; quality from the first " +
      std::to_string(w_pump.size()) + " jobs");
  double run_sum = 0.0, signoff_sum = 0.0;
  for (std::size_t i = 0; i < signoff_s.size(); ++i) {
    run_sum += search_s[i] + signoff_s[i];
    signoff_sum += signoff_s[i];
  }
  const double signoff_share = run_sum > 0.0 ? signoff_sum / run_sum : 0.0;
  report.notes.push_back(fmt("job time: 2RM search %.1f%%, 4RM sign-off %.1f%%",
                             100.0 * (1.0 - signoff_share),
                             100.0 * signoff_share));
  report_counters(report, before, after, latency_s.size());
  report.layer("opt.evaluations", median(evaluations), "count");
  report.layer("opt.search_2rm_s", median(search_s), "s");
  report.layer("opt.signoff_4rm_s", median(signoff_s), "s");
  report.layer("opt.signoff_4rm_share", signoff_share, "ratio");
  report.layer("service.queue_wait_s", median(queue_s), "s");
  report.layer("service.job_run_s", median(run_s), "s");
  report.layer("service.jobs_failed", jobs_failed, "count");
  report_trace_overhead(report, round_s, options.trace);
  return report;
}

// ---------------------------------------------------------------------------
// scenario_4rm: run_scenario on a 4RM uniform tree — bursty power, thermostat
// pump under a slew limit, throttling, the CDU loop and one timed partial
// blockage. No SA, no pressure search, no evaluator cache, no service.

constexpr int kScenarioCase = 1;
constexpr int kScenarioSteps = 200;
// The quality metrics summarize the first scenarios, which every run
// completes.
constexpr int kQualityScenarios = 4;

ScenarioConfig scenario_config(const Grid2D& grid, std::uint64_t trace_seed,
                               int steps) {
  ScenarioConfig config;
  config.sim = SimConfig{ThermalModelKind::k4RM, 1};
  config.dt = 2e-3;
  config.steps = steps;
  config.trace.kind = TraceKind::kBursty;
  config.trace.seed = trace_seed;
  config.trace.idle_scale = 0.6;
  config.trace.burst_scale = 1.4;
  config.trace.mean_idle = 0.02;
  config.trace.mean_burst = 0.01;
  config.pump.kind = PumpPolicyKind::kThermostat;
  config.pump.p_fixed = 4.0e3;
  config.pump.t_target = 335.0;
  config.pump.gain = 400.0;
  config.pump.p_min = 2.0e3;
  config.pump.p_max = 8.0e3;
  config.pump.slew_rate = 6.0e5;
  config.throttle.t_throttle = 345.0;
  config.cdu_enabled = true;
  TimedFault blockage;
  blockage.onset = 0.5 * steps * config.dt;
  blockage.fault.kind = FaultKind::kChannelBlockage;
  blockage.fault.row = grid.rows() / 2;
  blockage.fault.col = grid.cols() / 2;
  blockage.fault.radius = 3;
  blockage.fault.severity = 0.5;
  config.faults.push_back(blockage);
  return config;
}

std::uint64_t hash_values(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the bit patterns
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Report scenario_4rm(const Options& options, Spans& spans) {
  Report report;
  spans.enable(options.trace);
  const Setup setup = set_up(kScenarioCase, report, spans);
  const CoolingProblem& problem = setup.bench->problem;
  const CoolingNetwork& net = *setup.network;
  const int steps = options.smoke ? 40 : kScenarioSteps;

  std::vector<double> unit_s, steps_ms, refill_ms, rhs_ms, delta_t, t_max;
  double w_pump_sum = 0.0;
  std::size_t w_pump_steps = 0;
  double last_pressure = 0.0;
  const Registries before = Registries::take();
  Window window{options, fixed_inputs(options, kQualityScenarios)};
  for (; window.next(); ++window.unit) {
    const int unit = window.unit;
    spans.enable(window.traced());
    flow_plan_cache_clear();
    const ScenarioConfig config = scenario_config(
        problem.grid,
        derive_seed(options.seed, kStreamTrace,
                    static_cast<std::uint64_t>(window.input_index())),
        steps);
    double previous_p = -1.0;
    Clock::time_point last = Clock::now();
    const Clock::time_point t0 = last;
    ScenarioResult result;
    {
      Spans::Scope s(spans, "run_scenario");
      result = run_scenario(problem, net, config, [&](const ScenarioSample& x) {
        const Clock::time_point now = Clock::now();
        const double ms = 1e3 * std::chrono::duration<double>(now - last).count();
        last = now;
        steps_ms.push_back(ms);
        // The two step kinds split the median: a changed delivered pressure
        // refills the operator, an unchanged one refills only the RHS.
        if (previous_p >= 0.0) {
          (x.p_delivered != previous_p ? refill_ms : rhs_ms).push_back(ms);
        }
        previous_p = x.p_delivered;
      });
    }
    unit_s.push_back(since(t0));
    report_peak_rss(report, window);

    bool finite = result.steps == steps &&
                  static_cast<int>(result.samples.size()) == steps;
    double peak = 0.0;
    double w_sum = 0.0;
    for (const ScenarioSample& x : result.samples) {
      finite = finite && std::isfinite(x.t_max) && std::isfinite(x.delta_t) &&
               x.p_delivered > 0.0 &&
               x.throttle_scale >= config.throttle.min_scale;
      peak = std::max(peak, x.t_max);
      w_sum += x.w_pump;
    }
    if (!finite) report.fail(unit, "scenario trajectory malformed");
    if (peak != result.peak_t_max) {
      report.fail(unit, "scenario peak T_max is not the samples' maximum");
    }
    const int index = window.input_index();
    output(options, report, unit, index, "peak_t_max", exact(result.peak_t_max));
    output(options, report, unit, index, "peak_delta_t",
           exact(result.peak_delta_t));
    output(options, report, unit, index, "final_inlet",
           exact(result.final_inlet));
    output(options, report, unit, index, "final_temps",
           std::to_string(hash_values(result.final_temps)));
    if (!window.traced() && index < window.min_inputs) {
      w_pump_sum += w_sum;
      w_pump_steps += result.samples.size();
      delta_t.push_back(result.peak_delta_t);
      t_max.push_back(result.peak_t_max);
    }
    if (!result.samples.empty()) last_pressure = result.samples.back().p_delivered;
  }
  const Registries after = Registries::take();
  report.attempted = static_cast<std::uint64_t>(window.unit);
  spans.enable(options.trace);
  check_final_field(report, window.unit - 1, problem, net, last_pressure,
                    spans);

  report.metric("run_s", mean(unit_s), "s");
  report.metric("job_p50_s", median(unit_s), "s");
  note_samples(report, "scenario seconds", unit_s);
  report_steps(report, steps_ms, "scenario steps (on_sample intervals)");
  // Mean over every step of the quality scenarios: the pump tracks the
  // bursts, so a per-scenario figure moves with the trace more than the
  // mean over several traces does.
  report.metric("w_pump_mw",
                1e3 * w_pump_sum / std::max<double>(1.0, w_pump_steps), "mW");
  report.metric("delta_t_k", median(delta_t), "K");
  report.metric("peak_t_max_k", median(t_max), "K");
  report.notes.push_back(
      "units: " + std::to_string(unit_s.size()) + " scenarios of " +
      std::to_string(steps) + " steps; " + std::to_string(refill_ms.size()) +
      " pressure-refill steps, " + std::to_string(rhs_ms.size()) +
      " RHS-only steps; quality from the first " +
      std::to_string(delta_t.size()) + " scenarios");
  report_counters(report, before, after, unit_s.size());
  report.layer("scenario.step_refill_ms", median(refill_ms), "ms");
  report.layer("scenario.step_rhs_ms", median(rhs_ms), "ms");
  report_trace_overhead(report, unit_s, options.trace);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"served_p2", "scenario_4rm"};
  return names;
}

Report run_workload(const Options& options, Spans& spans) {
  Report report;
  if (options.workload == "served_p2") {
    report = served_p2(options, spans);
  } else if (options.workload == "scenario_4rm") {
    report = scenario_4rm(options, spans);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  return report;
}

}  // namespace perfbench
