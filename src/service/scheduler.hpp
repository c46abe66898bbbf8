// Fair-share job scheduler (DESIGN.md §S22, layer 2 of the serving stack).
//
// Jobs (design / evaluate / sweep / scenario) are queued with a priority and a
// fair-share weight. A small set of runner threads executes one job each;
// every running job gets a SessionContext whose pool_share is
// max(1, W * weight / total_weight) of the LCN_THREADS pool width, recomputed
// whenever a job starts or finishes, so a long design run cannot starve a
// short evaluate job of pool workers — parallel_for fans each job out over at
// most its share. Cancellation and deadlines are cooperative: the watchdog
// raises the session's cancel flag and the job unwinds at its next
// cancellation point with lcn::Cancelled.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/task_context.hpp"
#include "opt/sa.hpp"
#include "scenario/scenario.hpp"
#include "service/session.hpp"

namespace lcn::service {

enum class JobKind : std::uint8_t {
  kDesign = 0,   ///< full staged-SA topology design (Algorithm 1)
  kEvaluate = 1, ///< score one uniform-tree layout (DRC + flow + thermal)
  kSweep = 2,    ///< Monte-Carlo degradation sweep of a layout
  kScenario = 3  ///< dynamic-scenario co-simulation of a layout (§S23)
};

const char* job_kind_name(JobKind kind);

enum class JobStatus : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4
};

const char* job_status_name(JobStatus status);
bool job_status_terminal(JobStatus status);

struct JobRequest {
  JobKind kind = JobKind::kEvaluate;
  std::string name;  ///< client label, echoed in status and manifests
  int case_id = 2;   ///< ICCAD case 1..5
  DesignObjective objective = DesignObjective::kPumpingPower;
  double scale = 0.05;     ///< design: SA schedule scale
  std::uint64_t seed = 1;  ///< design SA / sweep scenario seed
  /// Evaluate/sweep: uniform-tree branch columns; -1 picks the canonical
  /// cols/3 and 2*cols/3 (rounded even) used by the SA's initial layout.
  int b1 = -1;
  int b2 = -1;
  int direction = 0;  ///< D4 transform code of the evaluated layout
  SimConfig sim{ThermalModelKind::k2RM, 4};  ///< evaluate/sweep model
  int scenarios = 32;  ///< sweep: Monte-Carlo scenario count
  /// Scenario jobs: the NDJSON scenario description (scenario_io.hpp). Wire
  /// clients pass it as one escaped string; parsed when the job runs.
  std::string scenario_text;
  /// Fair-share weight; 0 resolves to LCN_JOB_SHARES (default 1).
  int shares = 0;
  int priority = 0;  ///< higher runs first among queued jobs
  /// Wall-clock deadline; <= 0 means none. Expiry cancels the job (status
  /// kCancelled, error "deadline exceeded").
  double timeout_seconds = 0.0;
  /// Give the session its own flow-plan cache shard instead of the shared
  /// process-wide one (satellite: per-session plan ownership).
  bool private_flow_plans = false;

  // In-process embedding hooks (tests, benches). Not reachable from the wire
  // protocol: clients always run the published ICCAD cases and schedules.
  /// Run against this case instead of make_iccad_case(case_id).
  std::shared_ptr<const BenchmarkCase> custom_case;
  /// Design jobs: use this schedule instead of the scale-derived default.
  std::vector<SaStage> custom_stages;
  /// Scenario jobs: use this config instead of parsing scenario_text.
  std::shared_ptr<const ScenarioConfig> custom_scenario;
};

struct JobResult {
  JobStatus status = JobStatus::kQueued;
  std::string error;  ///< failure / cancellation reason, "" when kDone

  bool feasible = false;
  double score = 0.0;
  double p_sys = 0.0;    ///< Pa
  double w_pump = 0.0;   ///< W
  double t_max = 0.0;    ///< K
  double delta_t = 0.0;  ///< K
  int direction = 0;
  std::uint64_t design_hash = 0;  ///< CoolingNetwork::content_hash()
  std::string network_text;       ///< design jobs: the winning network
  std::size_t evaluations = 0;

  // Sweep reductions (kSweep only).
  double p_exceed_t_max = 0.0;
  double p_exceed_delta_t = 0.0;
  std::size_t scenarios = 0;
  std::size_t unrecoverable = 0;

  // Scenario trajectory reductions (kScenario only).
  double peak_t_max = 0.0;
  double peak_delta_t = 0.0;
  double final_inlet = 0.0;
  std::size_t scenario_steps = 0;

  double seconds = 0.0;
  /// 1-based order in which the scheduler started jobs (tests use it to
  /// prove concurrency without relying on wall clocks).
  std::uint64_t start_order = 0;
  /// The session's metrics shard at completion (§S24): every counter by
  /// name, plus its histograms and gauges.
  metrics::MetricsSnapshot counters;
  std::string manifest;  ///< SessionContext::manifest_json()
};

class Scheduler {
 public:
  struct Options {
    /// Jobs running concurrently; 0 resolves to min(4, hardware threads,
    /// pool width) but never below 2 — fair-share needs at least two lanes.
    std::size_t max_running = 0;
  };

  Scheduler() : Scheduler(Options{}) {}
  explicit Scheduler(Options options);
  /// Cancels everything still queued or running, then joins the runners.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Queue a job. `sink` (optional) streams the job's sa_iter progress and
  /// lifecycle events; it must stay alive until wait(id) returns, which is
  /// after the final job_done emit. Returns the job id, or 0 when the
  /// scheduler is draining.
  std::uint64_t submit(JobRequest request, ProgressSink* sink = nullptr);

  /// Cancel a job: a queued job completes immediately as kCancelled, a
  /// running one unwinds at its next cancellation point. False for unknown
  /// or already-terminal ids.
  bool cancel(std::uint64_t id);

  JobStatus status(std::uint64_t id) const;

  /// Snapshot of a job's result; meaningful once terminal (status() tells).
  JobResult result(std::uint64_t id) const;

  /// Block until the job is terminal and its job_done event has been
  /// emitted, then return its result.
  JobResult wait(std::uint64_t id);

  struct JobInfo {
    std::uint64_t id = 0;
    JobKind kind = JobKind::kEvaluate;
    JobStatus status = JobStatus::kQueued;
    std::string name;
  };
  std::vector<JobInfo> jobs() const;

  /// Stop accepting new jobs and block until every submitted job is
  /// terminal (running jobs finish normally; nothing is cancelled).
  void drain();

  std::size_t max_running() const { return max_running_; }

 private:
  struct Job;

  void runner_loop();
  void watchdog_loop();
  Job* find_locked(std::uint64_t id) const;
  /// Recompute every running job's pool share from the live weight total.
  void rebalance_locked();
  /// Publish queue depth / running jobs to the metrics gauges (§S24).
  void publish_gauges_locked() const;
  /// Retire the oldest terminal jobs once the history exceeds the retention
  /// cap, so a long-lived daemon's job map stays bounded.
  void gc_terminal_locked();
  /// Run the job and publish its result; returns the job's session, which
  /// the caller destroys outside the lock.
  std::unique_ptr<SessionContext> execute(Job& job);

  std::size_t max_running_ = 2;
  std::size_t pool_width_ = 1;
  std::size_t retain_jobs_ = 1024;  ///< LCN_JOB_HISTORY
  double slo_seconds_ = 0.0;        ///< LCN_SLO_SECONDS (0 = no SLO)

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;      ///< runners: queue or stop changed
  std::condition_variable done_cv_;      ///< waiters: some job became terminal
  std::condition_variable watchdog_cv_;  ///< watchdog: dedicated wakeup so it
                                         ///< never consumes a runner's notify
  bool stop_ = false;
  bool accepting_ = true;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_start_order_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::vector<std::uint64_t> queue_;  ///< queued ids, submission order
  std::size_t running_count_ = 0;

  std::vector<std::thread> runners_;
  std::thread watchdog_;
};

}  // namespace lcn::service
