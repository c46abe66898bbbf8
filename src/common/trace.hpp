// Structured tracing: RAII spans and instant events recorded into per-thread
// lock-free ring buffers and flushed to a JSONL sink (DESIGN.md §S19).
//
// The nested optimizer (SA stages → pressure searches → thermal probes →
// Krylov solves) is observable end to end: coarse spans (level 1) cover SA
// stages/rounds, direction sweeps, reliability sweeps and the per-iteration
// SA progress stream; fine spans (level 2) add every solve, assembly and
// probe. The sink is one self-contained JSON object per line, directly
// convertible to Chrome trace_event format (chrome://tracing / Perfetto) by
// scripts/trace_to_chrome.py.
//
// Overhead contract:
//  - Tracing disabled (the default): every span / event site costs exactly
//    one relaxed atomic load and one predictable branch. No allocation, no
//    clock read, no stores. Tier-1 timings and the bit-identity contracts of
//    §S1/§S18 are untouched — tracing never changes numerics, only records.
//  - Tracing enabled: an event is one steady_clock read plus one write into
//    the calling thread's private ring (single-producer, wait-free). A full
//    ring drops the event and counts it in the trace_events_dropped metric —
//    recording never blocks a hot path on the sink.
//
// Enabling:
//  - Environment: LCN_TRACE=<path> turns tracing on at process start;
//    LCN_TRACE_LEVEL=1|2 picks the verbosity (default 1, coarse);
//    LCN_TRACE_RING overrides the per-thread ring capacity in events.
//    The sink is flushed by a background thread and closed at exit.
//  - Programmatic: trace::start(config) / trace::stop() (used by tests;
//    stop() must not race in-flight traced work — join pool work first).
//
// Thread attribution: the first event on a thread registers a ring and
// assigns a small sequential tid; event order within a tid is the ring's
// FIFO order, so per-thread timestamps are monotonic in the sink.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

namespace lcn::trace {

/// Span/event verbosity. Coarse sites are per-optimizer-iteration and above;
/// fine sites are per-solve and below (hot: thousands per SA iteration).
constexpr int kCoarse = 1;
constexpr int kFine = 2;

/// Current trace level; 0 = disabled. Acquire pairs with the release store
/// in start(), so a thread that observes tracing enabled also sees the
/// initialized sink state (on x86/ARM load-acquire is a plain load, so the
/// disabled-path cost stays one load + one branch).
extern std::atomic<int> g_level;

/// The one check every trace site performs (the "~one branch" of the
/// overhead contract).
inline bool enabled(int level = kCoarse) {
  return g_level.load(std::memory_order_acquire) >= level;
}

struct TraceConfig {
  std::string path;                  ///< JSONL sink path
  int level = kCoarse;               ///< kCoarse or kFine
  std::size_t ring_capacity = 8192;  ///< events per thread before dropping
  /// When false, nothing drains the rings until flush()/stop() — tests use
  /// this to exercise overflow accounting deterministically.
  bool background_flush = true;
};

/// Open the sink, write the run-manifest header line, enable recording.
/// Throws lcn::RuntimeError when the sink cannot be opened. No-op when
/// tracing is already active.
void start(const TraceConfig& config);

/// Disable recording, drain every ring, close the sink. Safe to call when
/// tracing is off. Must not race spans still being recorded.
void stop();

/// Drain all per-thread rings to the sink now (normally the background
/// flusher's job). No-op when tracing is off.
void flush();

/// True between start() and stop().
bool active();

/// Log a one-line warning when any trace events were lost to ring overflow
/// (the trace_events_dropped counter > 0), so data loss in a recorded trace
/// is never silent. Intended for process exit paths (design_cli, lcn_serve)
/// after the sink is stopped; no-op when nothing was dropped.
void warn_if_dropped();

// Recording primitives. `args` is the *inside* of a JSON object — e.g.
// "\"iters\":12,\"rel\":1e-11" — or nullptr/"" for no args; it is copied
// into the event, so callers may pass temporaries. Arguments longer than the
// event's inline buffer are replaced by "\"truncated\":true" (never emitting
// malformed JSON). All are no-ops below the configured level.
void emit_begin(const char* name, int level);
void emit_end(const char* name, int level, const char* args = nullptr);
void emit_instant(const char* name, int level, const char* args = nullptr);
void emit_counter(const char* name, int level, double value);

/// Maximum copied args length (including terminator) per event.
constexpr std::size_t kArgsCapacity = 224;

/// RAII span. `name` must outlive the trace (string literals only — the ring
/// stores the pointer, not a copy). Optional args set during the span's
/// lifetime are attached to the end event.
class Span {
 public:
  explicit Span(const char* name, int level = kCoarse)
      : name_(name), level_(level), active_(enabled(level)) {
    if (active_) emit_begin(name_, level_);
  }
  ~Span() {
    if (active_) emit_end(name_, level_, has_args_ ? args_ : nullptr);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  /// Attach args (inner JSON-object text) to the span's end event.
  void set_args(const std::string& args_json);

 private:
  const char* name_;
  int level_;
  bool active_;
  bool has_args_ = false;
  char args_[kArgsCapacity];  // only written when active
};

}  // namespace lcn::trace

#define LCN_TRACE_CONCAT_IMPL(a, b) a##b
#define LCN_TRACE_CONCAT(a, b) LCN_TRACE_CONCAT_IMPL(a, b)

/// Coarse span covering the enclosing scope. Usage: LCN_TRACE_SPAN("name");
#define LCN_TRACE_SPAN(name) \
  ::lcn::trace::Span LCN_TRACE_CONCAT(lcn_trace_span_, __LINE__)(name)

/// Fine (hot-path) span; only recorded at LCN_TRACE_LEVEL >= 2.
#define LCN_TRACE_SPAN_FINE(name)                                  \
  ::lcn::trace::Span LCN_TRACE_CONCAT(lcn_trace_span_, __LINE__)(  \
      name, ::lcn::trace::kFine)
