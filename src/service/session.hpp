// Per-session state isolation (DESIGN.md §S22, layer 1 of the serving stack).
//
// A SessionContext bundles every piece of formerly process-wide mutable state
// one job needs: a metrics shard, an optional private flow-plan cache, the
// cooperative cancellation flag, the job's fair share of the pool, and the
// progress sink streaming sa_iter events back to the submitting client. The
// scheduler installs the session's TaskContext on the runner thread for the
// job's whole lifetime; ThreadPool::parallel_for propagates it to every
// worker, so concurrent jobs never observe each other's state and results are
// bit-identical to running the same job alone in a fresh process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "common/task_context.hpp"
#include "flow/flow_plan.hpp"

namespace lcn::service {

struct SessionConfig {
  std::string name;        ///< client-visible label, "" for anonymous
  std::uint64_t seed = 1;  ///< job rng seed (recorded in the manifest)
  int shares = 1;          ///< fair-share weight relative to other jobs
  /// Private flow-plan shard: plan_for misses analyze into the session's own
  /// cache instead of the shared one. Costs recomputation across sessions but
  /// guarantees a tenant's clear() never touches anyone else's entries.
  bool private_flow_plans = false;
};

/// All mutable state owned by one job, plus the TaskContext pointing into it.
/// The TaskContext's address is stable for the session's lifetime (the
/// scheduler hands it to pool threads), so SessionContext is neither copyable
/// nor movable.
class SessionContext {
 public:
  SessionContext(std::uint64_t id, SessionConfig config);
  SessionContext(const SessionContext&) = delete;
  SessionContext& operator=(const SessionContext&) = delete;

  std::uint64_t id() const { return id_; }
  const SessionConfig& config() const { return config_; }

  metrics::MetricShard& metrics() { return metrics_; }
  /// The session's private flow-plan shard, nullptr when it shares the
  /// process-wide cache.
  FlowPlanCache* flow_plans() { return flow_plans_.get(); }

  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Fair-share width granted by the scheduler; parallel_for calls under this
  /// session fan out over at most this many workers. 0 = whole pool.
  void set_pool_share(std::size_t width) {
    pool_share_.store(width, std::memory_order_relaxed);
  }
  std::size_t pool_share() const {
    return pool_share_.load(std::memory_order_relaxed);
  }

  /// Attach the progress stream BEFORE the job starts running; the sink must
  /// outlive the session (the server keeps connections alive until every job
  /// they stream for has finished).
  void set_progress_sink(ProgressSink* sink) { ctx_.progress = sink; }

  /// The context to install on threads executing this session's job.
  const TaskContext& task_context() const { return ctx_; }

  /// Session identity + process run manifest as one flat JSON object:
  /// {"session":3,"name":"...","seed":7,"shares":2,"git_sha":...}.
  std::string manifest_json() const;

 private:
  std::uint64_t id_;
  SessionConfig config_;
  metrics::MetricShard metrics_;
  std::unique_ptr<FlowPlanCache> flow_plans_;
  std::atomic<bool> cancel_{false};
  std::atomic<std::size_t> pool_share_{0};
  TaskContext ctx_;
};

/// Install a session's TaskContext on the current thread for the scope.
class SessionScope {
 public:
  explicit SessionScope(const SessionContext& session)
      : inner_(&session.task_context()) {}

 private:
  ScopedTaskContext inner_;
};

}  // namespace lcn::service
