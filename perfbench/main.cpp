// End-to-end benchmark of the lcn library (README.md in this directory).
//
//   lcn_perfbench --workload served_p2|scenario_4rm --seed N
//                 --seconds S --trace 0|1 [--reference FILE]
//                 [--spans-out FILE] [--source-sha HEX] [--git-sha SHA]
//   lcn_perfbench --write-reference FILE   (default seed, all workloads)
//   lcn_perfbench --selftest               (smoke pass of each workload, twice)
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status is 0 only when every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <malloc.h>

#include "common/thread_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

// Metric names and units in BENCHMARK.json order; a workload that does not
// exercise a layer reports that per-layer metric as 0.
using Names = std::vector<std::pair<std::string, std::string>>;
const Names kEndToEnd = {
    {"setup_s", "s"},        {"run_s", "s"},         {"job_p50_s", "s"},
    {"step_p50_ms", "ms"},   {"step_p90_ms", "ms"},  {"w_pump_mw", "mW"},
    {"delta_t_k", "K"},      {"peak_t_max_k", "K"},  {"peak_rss_mb", "MB"}};
const Names kPerLayer = {
    {"sparse.bicgstab_iterations", "count"},
    {"sparse.gmres_fallbacks", "count"},
    {"sparse.spmv_nnz", "count"},
    {"sparse.spmv_bytes", "B"},
    {"sparse.solve_s", "s"},
    {"sparse.solve4rm_cold_ms", "ms"},
    {"sparse.solve4rm_warm_ms", "ms"},
    {"thermal.assemble_symbolic_ms", "ms"},
    {"thermal.assemble_refill_ms", "ms"},
    {"thermal.assemblies_symbolic", "count"},
    {"thermal.transient_refills", "count"},
    {"thermal.rhs_refills", "count"},
    {"thermal.transient_rebuilds", "count"},
    {"thermal.energy_balance_rel", "ratio"},
    {"thermal.min_t_minus_inlet_k", "K"},
    {"flow.unit_solve_ms", "ms"},
    {"flow.plan_hits", "count"},
    {"flow.plan_misses", "count"},
    {"flow.cg_iterations", "count"},
    {"opt.evaluations", "count"},
    {"opt.cache_hit_rate", "ratio"},
    {"opt.pressure_probes", "count"},
    {"opt.search_2rm_s", "s"},
    {"opt.signoff_4rm_s", "s"},
    {"opt.signoff_4rm_share", "ratio"},
    {"opt.eval_2rm_ms", "ms"},
    {"opt.eval_4rm_ms", "ms"},
    {"scenario.step_refill_ms", "ms"},
    {"scenario.step_rhs_ms", "ms"},
    {"service.queue_wait_s", "s"},
    {"service.job_run_s", "s"},
    {"service.jobs_failed", "count"},
    {"geom.case_build_ms", "ms"},
    {"network.tree_build_ms", "ms"},
    {"common.trace_overhead_pct", "%"}};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "lcn_perfbench: %s\n", why.c_str());
  std::exit(2);
}

/// LCN_* variables silently change the measured program (solver choice,
/// schedule scale, tracing, metrics level, pool width): refuse them.
void refuse_lcn_environment() {
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "LCN_", 4) == 0) {
      usage(std::string("refusing to run with ") + *env +
            " set: LCN_* variables change the measured program");
    }
  }
}

Reference load_reference(const std::string& path) {
  Reference reference;
  std::ifstream in(path);
  if (!in) usage("cannot read reference file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, value;
    int index = 0;
    if (!(fields >> workload >> index >> key >> value)) {
      usage("malformed reference line: " + line);
    }
    reference[{workload, {index, key}}] = value;
  }
  return reference;
}

/// The named metric as measured, or 0 when the workload does not exercise
/// that layer (per-layer metrics only).
Report::Metric find_metric(const std::vector<Report::Metric>& metrics,
                           const std::string& name, const std::string& unit) {
  for (const Report::Metric& m : metrics) {
    if (m.name == name) return m;
  }
  return {name, 0.0, unit};
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

int print_report(const Report& report, const Names& names,
                 const std::vector<Report::Metric>& metrics,
                 const std::string& workload) {
  for (const std::string& note : report.notes) {
    std::printf("# %s: %s\n", workload.c_str(), note.c_str());
  }
  std::string json = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Report::Metric m =
        find_metric(metrics, names[i].first, names[i].second);
    std::printf("%-32s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i == 0 ? "" : ", ") + std::string("\"") + m.name +
            "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}";
  for (const std::string& failure : report.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failed_units.empty() && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              report.failed_units.size(), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Smoke-sized pass of every workload, twice in one process: the counter
/// deltas and the outputs of the two passes must be identical, which is
/// what makes count-type per-layer metrics trustworthy.
int selftest() {
  int failures = 0;
  for (const std::string& name : workload_names()) {
    Options options;
    options.workload = name;
    options.smoke = true;
    Spans spans;
    const Report a = run_workload(options, spans);
    const Report b = run_workload(options, spans);
    const auto fail = [&](const std::string& what) {
      std::printf("selftest %s: FAIL %s\n", name.c_str(), what.c_str());
      ++failures;
    };
    for (const Report* r : {&a, &b}) {
      for (const std::string& f : r->failures) fail(f);
    }
    if (a.counts != b.counts) {
      for (std::size_t i = 0; i < a.counts.size(); ++i) {
        if (a.counts[i] != b.counts[i]) {
          fail("counter " + a.counts[i].first + " " +
               std::to_string(a.counts[i].second) + " then " +
               std::to_string(b.counts[i].second));
        }
      }
    }
    if (a.outputs != b.outputs) fail("outputs differ between passes");
    if (a.outputs.empty()) fail("no outputs recorded");
    std::printf("selftest %s: %zu counters, %zu outputs compared\n",
                name.c_str(), a.counts.size(), a.outputs.size());
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// Long enough that the reference covers every unit a timed run reaches.
constexpr double kReferenceSeconds = 60.0;

int write_reference(const std::string& path) {
  std::ofstream out(path);
  if (!out) usage("cannot write " + path);
  out << "# Outputs at the default seed (" << kDefaultSeed
      << "): workload index key exact-value.\n"
         "# Regenerate with: python3 perfbench/run.py --write-reference\n";
  int status = 0;
  for (const std::string& name : workload_names()) {
    Options options;
    options.workload = name;
    options.seconds = kReferenceSeconds;
    Spans spans;
    const Report report = run_workload(options, spans);
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), f.c_str());
      status = 1;
    }
    for (const auto& [slot, value] : report.outputs) {
      out << name << ' ' << slot.first << ' ' << slot.second << ' ' << value
          << '\n';
    }
  }
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  refuse_lcn_environment();
  // One malloc arena: otherwise peak RSS depends on how many threads
  // happened to allocate (scheduler runners, pool workers), not on the data.
  mallopt(M_ARENA_MAX, 1);
  lcn::set_global_pool_threads(kPoolWidth);

  Options options;
  std::string reference_path, spans_out, source_sha = "unknown",
                                        git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--selftest") return selftest();
      if (arg == "--write-reference") return write_reference(value());
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--reference") {
        reference_path = value();
      } else if (arg == "--spans-out") {
        spans_out = value();
      } else if (arg == "--source-sha") {
        source_sha = value();
      } else if (arg == "--git-sha") {
        git_sha = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || trace < 0 || trace > 1) {
    usage("need --workload, --seed, --seconds and --trace 0|1");
  }
  options.trace = trace == 1;
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == options.workload;
  if (!known) usage("unknown workload " + options.workload);
  if (!(options.seconds >= 0.0)) usage("--seconds must be >= 0");
  Reference reference;
  if (!reference_path.empty()) {
    reference = load_reference(reference_path);
    options.reference = &reference;
  }

  std::printf("# manifest {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"pool_threads\":%zu,\"nproc\":%u,"
              "\"source_sha\":\"%s\",\"git_sha\":\"%s\",\"build_type\":\"%s\","
              "\"compiler\":\"%s\"}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace, lcn::global_pool_threads(),
              std::thread::hardware_concurrency(), source_sha.c_str(),
              git_sha.c_str(), LCN_PERFBENCH_BUILD_TYPE, __VERSION__);

  Spans spans;
  const Report report = run_workload(options, spans);
  if (options.trace) {
    for (const auto& [name, r] : spans.rollup()) {
      std::printf("# span %-28s count %5zu  total %10.1f ms  self %10.1f ms\n",
                  name.c_str(), r.count, r.total_ms, r.self_ms);
    }
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      out << spans.jsonl();
      if (!out) std::fprintf(stderr, "could not write %s\n", spans_out.c_str());
    }
  }
  return print_report(report, options.trace ? kPerLayer : kEndToEnd,
                      options.trace ? report.per_layer : report.end_to_end,
                      options.workload);
}
