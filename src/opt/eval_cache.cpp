#include "opt/eval_cache.hpp"

#include "common/bits.hpp"
#include "common/metrics.hpp"

namespace lcn {

namespace {

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  // Exact-match semantics via the shared bit-pattern key (common/bits.hpp):
  // the fingerprint distinguishes every distinct double, including ±0.0.
  void mix_double(double v) { mix(bits::double_key(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t problem_fingerprint(const CoolingProblem& problem) {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(problem.grid.rows()));
  fnv.mix(static_cast<std::uint64_t>(problem.grid.cols()));
  fnv.mix_double(problem.grid.pitch());
  fnv.mix(static_cast<std::uint64_t>(problem.stack.layer_count()));
  for (int l = 0; l < problem.stack.layer_count(); ++l) {
    const Layer& layer = problem.stack.layer(l);
    fnv.mix(static_cast<std::uint64_t>(layer.kind));
    fnv.mix_double(layer.thickness);
    fnv.mix_double(layer.material.conductivity);
    fnv.mix_double(layer.material.volumetric_heat);
  }
  for (const PowerMap& map : problem.source_power) {
    for (const double w : map.cells()) fnv.mix_double(w);
  }
  fnv.mix_double(problem.coolant.dynamic_viscosity);
  fnv.mix_double(problem.coolant.conductivity);
  fnv.mix_double(problem.coolant.volumetric_heat);
  fnv.mix_double(problem.coolant.nusselt);
  fnv.mix_double(problem.inlet_temperature);
  fnv.mix_double(problem.ambient_conductance);
  fnv.mix_double(problem.ambient_temperature);
  // Flow options change the solved field (reliability fault injection scales
  // per-cell conductances through them), so they are part of the identity.
  fnv.mix_double(problem.flow_options.edge_conductance_factor);
  fnv.mix_double(problem.flow_options.rel_tolerance);
  fnv.mix(problem.flow_options.cell_conductance_scale.size());
  for (const double s : problem.flow_options.cell_conductance_scale) {
    fnv.mix_double(s);
  }
  return fnv.value();
}

EvalCacheKey make_eval_key(std::uint64_t problem_fp,
                           const CoolingNetwork& network,
                           const SimConfig& sim, EvalMode mode,
                           double pressure) {
  Fnv fnv;
  fnv.mix(problem_fp);
  fnv.mix(static_cast<std::uint64_t>(sim.model));
  fnv.mix(static_cast<std::uint64_t>(sim.thermal_cell));
  fnv.mix(static_cast<std::uint64_t>(mode));
  // Fixed-pressure modes key on the exact operating point; full searches
  // derive the pressure themselves, so it is zero there.
  fnv.mix_double(mode == EvalMode::kFixedPressure ||
                         mode == EvalMode::kP2Follower
                     ? pressure
                     : 0.0);
  return EvalCacheKey{network.content_hash(), fnv.value()};
}

std::optional<EvalResult> EvaluatorCache::find(const EvalCacheKey& key) const {
  const metrics::ScopedLatency latency(metrics::Hist::cache_lookup_seconds,
                                       metrics::kFine);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics::count(metrics::Counter::cache_hits);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics::count(metrics::Counter::cache_misses);
  return std::nullopt;
}

void EvaluatorCache::store(const EvalCacheKey& key, const EvalResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(key, result);
}

double EvaluatorCache::hit_rate() const {
  const std::uint64_t total = hits() + misses();
  return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
}

std::size_t EvaluatorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void EvaluatorCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace lcn
