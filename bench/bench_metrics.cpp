// bench_metrics: hot-path overhead of the metrics registry (DESIGN.md §S24).
//
// The registry's contract is that an *enabled* histogram observation stays
// within a small constant factor of the bare counter add the hot paths
// already pay. This bench measures both on one thread — N metrics::count()
// calls vs N metrics::observe() calls over a precomputed spread of values —
// plus the full ScopedLatency cost (two steady_clock reads) for reference,
// and self-checks the observe/add ratio.
//
// Output: bench_results/BENCH_metrics.json (one record per phase). Exits
// nonzero when the ratio exceeds the agreed bound (generous: timing noise on
// a loaded CI box must not fail the suite spuriously).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace lcn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The enabled-observation cost must stay within this factor of a bare
/// counter add. The observation does a 38-bound lower_bound plus two relaxed
/// adds, so single digits are expected; the bound is generous because CI
/// boxes are noisy and a *regression* (a lock, an allocation) lands far
/// beyond it.
constexpr double kMaxObserveOverAdd = 40.0;

}  // namespace

int main() {
  benchutil::banner(
      "bench_metrics: registry hot-path overhead (observe vs counter add)",
      "DESIGN.md S24 overhead contract");

  const bool fast = env_flag("LCN_FAST");
  const std::size_t iters = fast ? 2'000'000 : 20'000'000;
  const std::size_t pool = global_pool_threads();
  metrics::set_level(metrics::kFine);

  // Precomputed observation values spanning the bucket range, so the
  // lower_bound cost reflects real (varied) latencies rather than one
  // branch-predicted bucket.
  std::vector<double> values(1024);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1e-6 * static_cast<double>(1 + (i * 37) % 4000);
  }

  // Phase 1: bare counter add (ungated: two relaxed adds at most plus one
  // thread-local read).
  const auto t_add = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    metrics::count(metrics::Counter::pressure_probes);
  }
  const double add_seconds = seconds_since(t_add);

  // Phase 2: enabled histogram observation with a precomputed value.
  const auto t_observe = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    metrics::observe(metrics::Hist::cache_lookup_seconds,
                     values[i & (values.size() - 1)]);
  }
  const double observe_seconds = seconds_since(t_observe);

  // Phase 3: full ScopedLatency — adds two steady_clock reads, the cost a
  // coarse site actually pays when metrics are on.
  const auto t_scoped = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const metrics::ScopedLatency latency(metrics::Hist::cache_lookup_seconds,
                                         metrics::kFine);
  }
  const double scoped_seconds = seconds_since(t_scoped);

  // Phase 4: disabled site — the enabled() check alone (level 0).
  metrics::set_level(0);
  const auto t_disabled = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const metrics::ScopedLatency latency(metrics::Hist::cache_lookup_seconds,
                                         metrics::kFine);
  }
  const double disabled_seconds = seconds_since(t_disabled);
  metrics::set_level(metrics::kFine);

  const double per = 1e9 / static_cast<double>(iters);
  const double ratio =
      add_seconds > 0.0 ? observe_seconds / add_seconds : 0.0;

  TextTable table({"phase", "total s", "ns/op"});
  table.add_row({"counter add", strfmt("%.3f", add_seconds),
                 strfmt("%.2f", add_seconds * per)});
  table.add_row({"observe", strfmt("%.3f", observe_seconds),
                 strfmt("%.2f", observe_seconds * per)});
  table.add_row({"scoped latency", strfmt("%.3f", scoped_seconds),
                 strfmt("%.2f", scoped_seconds * per)});
  table.add_row({"disabled site", strfmt("%.3f", disabled_seconds),
                 strfmt("%.2f", disabled_seconds * per)});
  std::printf("%s", table.str().c_str());
  std::printf("observe/add ratio: %.2fx (bound %.0fx)\n", ratio,
              kMaxObserveOverAdd);

  // Sanity: the observations actually landed (count and exact quantile math
  // are exercised on real recorded data).
  const metrics::HistogramSnapshot hist =
      metrics::global_shard()
          .histograms[static_cast<std::size_t>(
              metrics::Hist::cache_lookup_seconds)]
          .snapshot();
  if (hist.count < iters) {
    std::printf("FAIL: histogram recorded %llu of %zu observations\n",
                static_cast<unsigned long long>(hist.count), iters);
    return 1;
  }

  benchutil::PerfRecord record;
  record.bench = "bench_metrics";
  record.config = "observe_vs_add";
  record.threads = pool;
  record.seconds = add_seconds + observe_seconds + scoped_seconds;
  record.metrics = {{"iters", static_cast<double>(iters)},
                    {"add_ns", add_seconds * per},
                    {"observe_ns", observe_seconds * per},
                    {"scoped_ns", scoped_seconds * per},
                    {"disabled_ns", disabled_seconds * per},
                    {"observe_over_add", ratio},
                    {"p50_s", hist.quantile(0.50)},
                    {"p99_s", hist.quantile(0.99)}};
  benchutil::append_perf_record(record, "BENCH_metrics.json");

  if (ratio > kMaxObserveOverAdd) {
    std::printf(
        "FAIL: enabled observation is %.1fx a bare counter add "
        "(bound %.0fx) — the hot-path overhead contract regressed\n",
        ratio, kMaxObserveOverAdd);
    return 1;
  }
  std::printf("OK: overhead contract holds\n");
  return 0;
}
