// The benchmark's workloads (README.md in this directory). Each one
// drives a paper pipeline end to end through the library's public API,
// checks its outputs, and reads per-layer deltas of the library's own
// registries.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// The seed whose outputs are stored in reference.txt.
constexpr std::uint64_t kDefaultSeed = 1;
/// Pool width every run pins (below nproc = 4 on the reference host: wider
/// pools spread more run to run).
constexpr std::size_t kPoolWidth = 2;

/// Reference outputs: (workload, index, key) → exact textual value.
using Reference =
    std::map<std::pair<std::string, std::pair<int, std::string>>, std::string>;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;   ///< measurement window; at least one unit runs
  bool trace = false;     ///< per-layer run: alternate untraced/traced units
  bool smoke = false;     ///< self-test size: one small unit
  const Reference* reference = nullptr;  ///< compared at kDefaultSeed
};

const std::vector<std::string>& workload_names();

/// Run one workload; never throws for a failed check (failures land in the
/// report), throws only on misuse (unknown workload).
Report run_workload(const Options& options, Spans& spans);

}  // namespace perfbench
