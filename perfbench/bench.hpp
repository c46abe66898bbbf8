// Shared pieces of the end-to-end benchmark (README.md in this directory):
// clock, seed derivation, in-memory spans, and the per-run report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64-mixed seed for stream `stream`, item `index` of a workload
/// seed: the SA seeds, job seeds and trace seeds all derive from the one
/// `--seed`, so the same seed always gives the same inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// Rank-based sample quantile (rank ceil(q·n) of the sorted sample; 0 when
/// empty) — the same definition the library's metrics layer uses.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Spans recorded by the benchmark itself around each call into the
/// library: name, start, end, parent span. Kept in memory, written out when
/// the run ends. Disabled (the default) a scope costs one branch.
class Spans {
 public:
  void enable(bool on) { enabled_ = on; }

  /// RAII span; nests under the innermost open span of the calling thread,
  /// or under `parent` when a thread starts work on behalf of another.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Spans& spans_;
    std::uint64_t id_ = 0;
    std::uint64_t saved_current_ = 0;
    std::size_t index_ = 0;
  };

  /// Innermost open span on the calling thread (0 = none).
  static std::uint64_t current();

  /// One JSON object per span: id, parent, name, thread, start/end in µs.
  std::string jsonl() const;

  struct Rollup {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the union of child intervals
  };
  /// Per-name totals and self times, in first-seen order.
  std::vector<std::pair<std::string, Rollup>> rollup() const;

 private:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::size_t thread = 0;
    double start = 0.0;  ///< s since the recorder's epoch
    double end = 0.0;
  };
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// What one workload run measured and checked.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines (sample counts, classifications) printed above
  /// the result line.
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;  ///< units of work run
  std::set<int> failed_units;   ///< units with at least one failed check
  std::vector<std::string> failures;  ///< one line per failed check
  /// Deterministic counter deltas of the measured window (the self-test
  /// asserts they repeat exactly).
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// Outputs compared against the reference file at the default seed:
  /// (index, key) → exact textual value (hex floats / integers).
  std::map<std::pair<int, std::string>, std::string> outputs;

  void metric(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void fail(int unit, const std::string& what) {
    failed_units.insert(unit);
    failures.push_back(what);
  }
};

/// Exact textual form of a double (C99 hex float: round-trips bit for bit).
std::string exact(double value);

}  // namespace perfbench
