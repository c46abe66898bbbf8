// The metrics registry: counters, gauges and log-bucketed latency
// histograms (DESIGN.md §S1, §S24). It is the one aggregate registry of the
// process: monotonic event counts ("how much work ran"), latency
// *distributions* for the solver and serving hot paths ("how long did it
// take"), health gauges for the scheduler and SLO counters — scrapeable
// from a live lcn_serve daemon (the `metrics` protocol op and a Prometheus
// text endpoint) as well as diffed per phase by benches and tests.
//
// Determinism contract: histogram bucket boundaries are fixed at compile
// time (log2-spaced, 1 µs … ~38 h) and per-observation state is integral —
// uint64 bucket counts and a uint64 nanosecond sum. Integer addition
// commutes, so merging thread-striped state, per-session shards or
// snapshots from different processes is bit-identical regardless of
// `LCN_THREADS` or arrival order; quantiles are computed exactly from the
// merged bucket counts (the reported p50/p95/p99 is the upper bound of the
// bucket holding that rank).
//
// Overhead contract (mirrors trace §S19):
//  - A counter add is never gated: one relaxed atomic add to the global
//    shard, one thread-local read and, under a session, a second relaxed add.
//    Sites bill per *kernel invocation* (not per element).
//  - Histogram sites are level-gated and cost one relaxed atomic load + one
//    branch when below the configured level — no clock read, no stores.
//    `LCN_METRICS=0` disables every histogram, 1 (default) enables coarse
//    sites (per-solve and above), 2 adds fine sites (per-V-cycle, per-SpMV,
//    per-cache-lookup).
//  - An enabled observation is one bucket search over 38 boundaries plus
//    two relaxed atomic adds into the calling thread's stripe (histograms
//    are striped kStripes-ways to keep pool threads off each other's cache
//    lines). bench_metrics measures this against a bare counter add.
//
// Session sharding (§S22): observe()/count() bill the process-wide registry
// and *additionally* the MetricShard of the installed TaskContext, so a
// session's shard accounts exactly the work its own job performed — on
// whichever pool threads it ran. Gauges are process-health values (queue
// depth, running jobs) and are global-only.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lcn::metrics {

// ---------------------------------------------------------------------------
// Metric lists (X-macros: enums, name/help tables, snapshot fields, JSON and
// the Prometheus exposition are all generated from one list, so a metric
// cannot be added to one and forgotten in another).

/// Latency histograms, all in seconds. `coarse` sites record per solve /
/// job / step; `fine` sites are hot (thousands per SA iteration).
#define LCN_METRIC_HISTOGRAMS(X)                                            \
  X(solve_steady_seconds, "Steady-state thermal solve wall time")           \
  X(assemble_seconds, "2RM/4RM thermal system assembly wall time")          \
  X(cg_seconds, "Conjugate-gradient solve wall time")                       \
  X(bicgstab_seconds, "BiCGSTAB solve wall time")                           \
  X(gmres_seconds, "GMRES solve wall time")                                 \
  X(mg_vcycle_seconds, "Multigrid V-cycle application wall time")           \
  X(spmv_batch_seconds, "Sparse matrix-vector multiply wall time")          \
  X(cache_lookup_seconds, "SA evaluator cache lookup wall time")            \
  X(scenario_step_seconds, "Dynamic-scenario engine step wall time")        \
  X(job_design_seconds, "Scheduler design-job wall time")                   \
  X(job_evaluate_seconds, "Scheduler evaluate-job wall time")               \
  X(job_sweep_seconds, "Scheduler sweep-job wall time")                     \
  X(job_scenario_seconds, "Scheduler scenario-job wall time")

/// Health gauges (instantaneous values, set by the scheduler/server).
#define LCN_METRIC_GAUGES(X)                                          \
  X(queue_depth, "Jobs queued and not yet running")                   \
  X(running_jobs, "Jobs currently executing")                         \
  X(client_connections, "Open client connections on service::Server")

/// Monotonic event counters: solver and optimizer work, then service
/// health (SLO) events. Counts only — wall time lives in the histograms.
#define LCN_METRIC_COUNTERS(X)                                                \
  X(spmv_count, "Sparse matrix-vector multiplies")                            \
  X(spmv_nnz, "Nonzeros streamed by sparse matrix-vector multiplies")         \
  X(cg_solves, "Conjugate-gradient solves")                                   \
  X(cg_iterations, "Conjugate-gradient iterations")                           \
  X(bicgstab_solves, "BiCGSTAB solves")                                       \
  X(bicgstab_iterations, "BiCGSTAB iterations")                               \
  X(gmres_solves, "GMRES solves (BiCGSTAB fallback)")                         \
  X(gmres_iterations, "GMRES iterations")                                     \
  X(assemblies, "2RM/4RM thermal system assemblies")                          \
  X(assemblies_symbolic, "One-time assembly/sparsity plan builds")            \
  X(assemblies_refill, "Numeric value refills of an assembly plan")           \
  X(workspace_reuses, "Krylov solves on a caller-owned workspace")            \
  X(flow_plan_hits, "Flow patterns served from the plan cache")               \
  X(flow_plan_misses, "Flow patterns analyzed fresh")                         \
  X(steady_solves, "Steady-state thermal solves")                             \
  X(pressure_probes, "Algorithm-3 / golden-section pressure probes")          \
  X(cache_hits, "SA evaluator cache hits")                                    \
  X(cache_misses, "SA evaluator cache misses")                                \
  X(scenarios_evaluated, "Reliability fault scenarios evaluated")             \
  X(scenarios_infeasible, "Fault scenarios violating limits or unevaluable")  \
  X(recovery_searches, "Degradation-planner recovery searches")               \
  X(trace_events_emitted, "Events recorded into trace rings")                 \
  X(trace_events_dropped, "Trace events lost to ring overflow")               \
  X(mg_vcycles, "Multigrid V-cycle applications")                             \
  X(mg_coarse_solves, "Dense multigrid coarse-level solves")                  \
  X(island_migrations, "Accepted island best-design migrations")              \
  X(pt_swaps, "Accepted parallel-tempering swaps")                            \
  X(archive_inserts, "Pareto-archive frontier insertions")                    \
  X(jobs_completed, "Scheduler jobs run to completion")                       \
  X(jobs_cancelled, "Scheduler jobs cancelled or timed out")                  \
  X(transient_steps, "Backward-Euler transient steps solved")                 \
  X(transient_refills, "Same-structure transient operator refills")           \
  X(transient_rebuilds, "Full symbolic transient operator rebuilds")          \
  X(rhs_refills, "RHS-only boundary/power refills")                           \
  X(scenario_steps, "Dynamic-scenario engine steps")                          \
  X(deadline_misses, "Jobs cancelled by the watchdog past their deadline")    \
  X(slo_breaches, "Completed jobs whose wall time exceeded LCN_SLO_SECONDS")  \
  X(jobs_rejected, "Jobs refused because the scheduler was shutting down")    \
  X(metrics_scrapes, "Snapshot requests served (metrics op + HTTP scrapes)")

#define LCN_METRICS_ENUM_ENTRY(name, help) name,
enum class Hist : std::size_t {
  LCN_METRIC_HISTOGRAMS(LCN_METRICS_ENUM_ENTRY) kCount
};
enum class Gauge : std::size_t {
  LCN_METRIC_GAUGES(LCN_METRICS_ENUM_ENTRY) kCount
};
enum class Counter : std::size_t {
  LCN_METRIC_COUNTERS(LCN_METRICS_ENUM_ENTRY) kCount
};
#undef LCN_METRICS_ENUM_ENTRY

constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount);
constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);
constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Metric names as they appear in JSON snapshots and (prefixed with `lcn_`)
/// in the Prometheus exposition.
const char* hist_name(Hist h);
const char* hist_help(Hist h);
const char* gauge_name(Gauge g);
const char* gauge_help(Gauge g);
const char* counter_name(Counter c);
const char* counter_help(Counter c);

// ---------------------------------------------------------------------------
// Level gating (mirrors trace::g_level).

constexpr int kCoarse = 1;
constexpr int kFine = 2;

/// Current metrics level; 0 = disabled. Initialized from LCN_METRICS
/// (default 1, coarse).
extern std::atomic<int> g_level;

/// The one check every gated site performs.
inline bool enabled(int level = kCoarse) {
  return g_level.load(std::memory_order_relaxed) >= level;
}

/// Override the level (tests; also honors a fresh LCN_METRICS on restart).
void set_level(int level);

// ---------------------------------------------------------------------------
// Histogram buckets.

/// Finite bucket upper bounds in seconds: 1e-6 * 2^i for i in [0, 38).
/// Observation x lands in the first bucket with x <= bound; anything above
/// the last finite bound (~76 h) lands in the overflow bucket. 38 finite
/// bounds + overflow = kBucketCount buckets per histogram.
constexpr std::size_t kFiniteBuckets = 38;
constexpr std::size_t kBucketCount = kFiniteBuckets + 1;

/// Upper bound of finite bucket `i` in seconds.
double bucket_bound(std::size_t i);

/// Bucket index for an observation in seconds. Non-finite and negative
/// observations clamp to bucket 0 (they never corrupt the distribution).
std::size_t bucket_index(double seconds);

/// Point-in-time copy of one histogram. All state is integral so merge()
/// is bit-identical under any grouping of the inputs.
struct HistogramSnapshot {
  std::array<std::uint64_t, kBucketCount> buckets{};
  std::uint64_t count = 0;      ///< total observations (== sum of buckets)
  std::uint64_t sum_nanos = 0;  ///< exact integer sum of llround(s * 1e9)

  void merge(const HistogramSnapshot& other);

  /// Exact rank-based quantile from the bucket counts: the upper bound of
  /// the bucket containing observation rank ceil(q * count). Returns 0 when
  /// empty; the overflow bucket reports the largest finite bound (keeps the
  /// value finite for JSON).
  double quantile(double q) const;

  double sum_seconds() const { return static_cast<double>(sum_nanos) * 1e-9; }
};

/// One live histogram: kStripes copies of the bucket array so concurrent
/// pool threads land on different cache lines (round-robin thread
/// assignment). All adds are relaxed; snapshot() sums the stripes.
class Histogram {
 public:
  static constexpr std::size_t kStripes = 8;

  void observe(double seconds);
  HistogramSnapshot snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
    std::atomic<std::uint64_t> sum_nanos{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

// ---------------------------------------------------------------------------
// Shard + snapshot.

/// Point-in-time copy of every counter, one named field each (generated
/// from LCN_METRIC_COUNTERS). Per-phase accounting diffs two of these with
/// delta(); json() renders the flat "counters" object of perf records
/// (README §Bench), job results and the `metrics` op.
struct CounterSnapshot {
#define LCN_METRICS_COUNTER_FIELD(name, help) std::uint64_t name = 0;
  LCN_METRIC_COUNTERS(LCN_METRICS_COUNTER_FIELD)
#undef LCN_METRICS_COUNTER_FIELD

  std::uint64_t counter(Counter c) const;

  double cache_hit_rate() const;
  /// {"spmv_count":N,...,"cache_hit_rate":R}, list order.
  std::string json() const;
};

/// `after - before`, counter by counter. Snapshot before, snapshot after,
/// diff: needs no coordination with concurrent counter adds.
CounterSnapshot delta(const CounterSnapshot& before,
                      const CounterSnapshot& after);

/// Point-in-time copy of a whole shard: the counters (the base, by name),
/// histograms and gauges. merge() is bit-identical under any grouping (all
/// integral state).
struct MetricsSnapshot : CounterSnapshot {
  std::array<HistogramSnapshot, kHistCount> histograms{};
  std::array<std::int64_t, kGaugeCount> gauges{};

  void merge(const MetricsSnapshot& other);  ///< gauges take other's values

  const HistogramSnapshot& hist(Hist h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
  std::int64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }

  /// {"histograms":{...},"gauges":{...},"counters":{...}}: histograms as
  /// count/sum_nanos/p50/p95/p99 + non-empty bucket maps, counters as
  /// CounterSnapshot::json(). Deterministic field order.
  std::string json() const;
};

/// One independent registry of every metric. The process-wide registry is
/// one of these; each service session (§S22) owns another, billed in
/// addition to the global one by observe()/count() performed under its task
/// context.
struct MetricShard {
  std::array<Histogram, kHistCount> histograms;
  std::array<std::atomic<std::int64_t>, kGaugeCount> gauges{};
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};

  MetricsSnapshot snapshot() const;
  /// The counters alone (relaxed loads, no histogram walk).
  CounterSnapshot counter_snapshot() const;
};

/// The process-wide registry.
MetricShard& global_shard();

// ---------------------------------------------------------------------------
// Billing entry points (global + current TaskContext shard). These are NOT
// level-gated: count() always bills, and histogram sites gate with
// enabled()/ScopedLatency so the disabled cost stays one load + one branch.

void observe(Hist h, double seconds);
void count(Counter c, std::uint64_t n = 1);
void gauge_set(Gauge g, std::int64_t value);
void gauge_add(Gauge g, std::int64_t delta);

/// RAII latency observation: reads the clock only when `level` is enabled
/// at construction, observes the elapsed time on destruction. The disabled
/// cost is the enabled() check.
class ScopedLatency {
 public:
  explicit ScopedLatency(Hist h, int level = kCoarse);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Hist hist_;
  bool active_;
  std::uint64_t start_nanos_ = 0;
};

// ---------------------------------------------------------------------------
// Shared quantile helper (benches): exact rank-based sample quantile of raw
// values — rank ceil(q * n) of the sorted sample, matching
// HistogramSnapshot::quantile on degenerate one-per-bucket data. Sorts a
// copy; returns 0 on an empty sample.
double sample_quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Prometheus text exposition (format 0.0.4).

/// `key="value",...` label set built from run_manifest() (git_sha,
/// build_type, threads), for the live endpoint. Tests pass fixed labels.
std::string manifest_labels();

/// Render a full exposition page: every histogram as cumulative
/// `_bucket{le=...}` series + `_sum`/`_count`, every gauge, and every counter
/// as `lcn_<name>_total` — each family with one `# HELP` and one `# TYPE`.
/// `labels` is the inner label list applied to all series ("" for none).
std::string prometheus_text(const MetricsSnapshot& snapshot,
                            const std::string& labels);

}  // namespace lcn::metrics
