// Named-field counter deltas over the metrics registry (DESIGN.md §S1).
//
// Every counter lives in the one registry of common/metrics.hpp and is
// billed with metrics::count(). This header keeps the short spelling that
// per-phase accounting (benches, tests, perfbench) uses: snapshot before,
// snapshot after, diff.
#pragma once

#include "common/metrics.hpp"

namespace lcn::instrument {

using Snapshot = metrics::CounterSnapshot;

/// Every counter of the process-wide registry.
inline Snapshot snapshot() { return metrics::global_shard().counter_snapshot(); }

/// `after - before`, counter by counter.
inline Snapshot delta(const Snapshot& before, const Snapshot& after) {
  return metrics::delta(before, after);
}

}  // namespace lcn::instrument
