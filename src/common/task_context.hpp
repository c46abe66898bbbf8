// Per-task execution context propagated across pool threads (DESIGN.md §S22).
//
// One process now serves many concurrent jobs (src/service), so the state
// that used to be implicitly process-wide — the metrics registry, the
// flow-plan cache, cooperative cancellation, the job's share of the thread
// pool, progress streaming — travels with the *task* instead. A TaskContext
// is installed on the submitting thread (ScopedTaskContext) and
// ThreadPool::parallel_for re-installs it on every worker that drains the
// task's shards, so a kernel deep inside an SA neighbor evaluation bills its
// counters to the right session no matter which thread runs it.
//
// Everything here is optional: a null field means "process-wide behavior",
// so single-job binaries (tests, benches, the CLI without --serve) run
// exactly as before with no context installed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lcn {

class FlowPlanCache;  // flow/flow_plan.hpp (common cannot include flow)

namespace metrics {
struct MetricShard;  // common/metrics.hpp
}

/// Receives per-iteration progress events (the sa_iter stream of §S19) for
/// one session, independent of the process-wide trace sink. `args` follows
/// the trace convention: the *inside* of a JSON object, or nullptr/"".
/// Implementations must be thread-safe against their own consumers but are
/// only ever called from the threads executing the owning session's job.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void emit(const char* name, const char* args) = 0;
  /// Called by the scheduler under its lock, before the job is queued, so
  /// the sink knows its job id before the first emit can possibly fire.
  virtual void bind_job(std::uint64_t /*job_id*/) {}
};

/// Cooperative cancellation thrown by throw_if_cancelled(). Deliberately NOT
/// an lcn::RuntimeError: evaluation code converts RuntimeError into an
/// infeasible score, and a cancellation must unwind the whole job instead of
/// being swallowed as "this candidate was infeasible".
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& what) : std::runtime_error(what) {}
};

struct TaskContext {
  /// Session metrics shard (§S24); metrics::observe()/count() bill both this
  /// shard and the process-wide registry when set.
  metrics::MetricShard* metrics = nullptr;
  /// Cooperative cancellation flag (owned by the scheduler job / the CLI's
  /// SIGINT handler). Checked at coordinator loop boundaries, never inside
  /// parallel kernels, so partial results are never observed.
  const std::atomic<bool>* cancel = nullptr;
  /// The job's current share of the pool width (fair-share scheduling);
  /// parallel_for fans out over at most this many workers. null or a loaded
  /// value of 0 means "whole pool". Atomic so the scheduler can rebalance a
  /// running job when others start or finish.
  const std::atomic<std::size_t>* pool_share = nullptr;
  /// Per-session flow-plan cache shard; flow_plan_for() routes here when
  /// set, the process-wide cache otherwise.
  FlowPlanCache* flow_plans = nullptr;
  /// Per-session progress stream (daemon clients); sa_iter instants are
  /// mirrored here whether or not process-wide tracing is on.
  ProgressSink* progress = nullptr;
};

/// The context installed on the calling thread, nullptr when none.
const TaskContext* current_task_context();

/// Install `ctx` on this thread for the scope's lifetime (restores the
/// previous one on destruction). ThreadPool::parallel_for captures the
/// submitter's context and wraps every shard drain in one of these.
class ScopedTaskContext {
 public:
  explicit ScopedTaskContext(const TaskContext* ctx);
  ~ScopedTaskContext();
  ScopedTaskContext(const ScopedTaskContext&) = delete;
  ScopedTaskContext& operator=(const ScopedTaskContext&) = delete;

 private:
  const TaskContext* previous_;
};

/// True when the current task's cancellation flag is raised.
bool task_cancelled();

/// Throw lcn::Cancelled when the current task's cancellation flag is raised.
/// Cheap enough for per-iteration checks (one thread-local read + one
/// relaxed load when a flag is installed).
void throw_if_cancelled();

/// The current task's progress sink, nullptr when none.
ProgressSink* task_progress_sink();

}  // namespace lcn
