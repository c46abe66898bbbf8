#include "thermal/field.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sparse/solvers.hpp"

namespace lcn {

ThermalField make_field(const AssembledThermal& system,
                        std::vector<double> temperatures) {
  LCN_REQUIRE(temperatures.size() == system.matrix.rows(),
              "temperature vector size mismatch");
  ThermalField field;
  field.temperatures = std::move(temperatures);
  field.map_rows = system.map_rows;
  field.map_cols = system.map_cols;

  field.t_max = 0.0;
  field.delta_t = 0.0;
  for (const auto& nodes : system.source_nodes) {
    std::vector<double> map;
    map.reserve(nodes.size());
    double lo = 1e300;
    double hi = -1e300;
    for (std::size_t node : nodes) {
      const double t = field.temperatures[node];
      map.push_back(t);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    field.per_layer_delta.push_back(hi - lo);
    field.delta_t = std::max(field.delta_t, hi - lo);
    field.t_max = std::max(field.t_max, hi);
    field.source_maps.push_back(std::move(map));
  }
  return field;
}

double advected_heat(const AssembledThermal& system,
                     const std::vector<double>& temperatures) {
  double sum = 0.0;
  for (const auto& [node, flow] : system.outlet_terms) {
    sum += system.volumetric_heat * flow *
           (temperatures[node] - system.inlet_temperature);
  }
  return sum;
}

SteadySolverConfig SteadySolverConfig::from_env() {
  static const SteadySolverConfig cfg = [] {
    SteadySolverConfig c;
    const std::string precon = env_string("LCN_SOLVER_PRECON", "ilu0");
    if (precon == "mg" || precon == "multigrid") {
      c.precon = Precon::kMultigrid;
    }
    return c;
  }();
  return cfg;
}

ThermalField solve_steady(const AssembledThermal& system, double rel_tolerance,
                          const std::vector<double>* initial_guess,
                          SteadyWorkspace* workspace,
                          const SteadySolverConfig* config) {
  LCN_TRACE_SPAN_FINE("solve_steady");
  std::vector<double> temps;
  if (initial_guess != nullptr &&
      initial_guess->size() == system.matrix.rows()) {
    temps = *initial_guess;
  } else {
    temps.assign(system.matrix.rows(), system.inlet_temperature);
  }
  const SteadySolverConfig cfg =
      config != nullptr ? *config : SteadySolverConfig::from_env();
  sparse::SolveOptions opts;
  opts.rel_tolerance = rel_tolerance;
  const WallTimer timer;
  const bool use_mg = cfg.precon == SteadySolverConfig::Precon::kMultigrid;
  if (workspace != nullptr) {
    // Matrices refilled from one assembly plan share index arrays, so the
    // preconditioner skips its symbolic analysis on every refactorization.
    if (use_mg) {
      if (workspace->mg) {
        workspace->mg->refactor(system.matrix);
      } else {
        workspace->mg.emplace(system.matrix, system.mg_hint.get());
      }
      sparse::solve_general_or_throw(system.matrix, system.rhs, temps,
                                     "steady thermal solve", *workspace->mg,
                                     workspace->krylov, opts);
    } else {
      if (workspace->ilu) {
        workspace->ilu->refactor(system.matrix);
      } else {
        workspace->ilu.emplace(system.matrix);
      }
      sparse::solve_general_or_throw(system.matrix, system.rhs, temps,
                                     "steady thermal solve", *workspace->ilu,
                                     workspace->krylov, opts);
    }
  } else if (use_mg) {
    const sparse::MultigridPreconditioner mg(system.matrix,
                                             system.mg_hint.get());
    sparse::SolverWorkspace ws;
    sparse::solve_general_or_throw(system.matrix, system.rhs, temps,
                                   "steady thermal solve", mg, ws, opts);
  } else {
    sparse::solve_general_or_throw(system.matrix, system.rhs, temps,
                                   "steady thermal solve", opts);
  }
  metrics::count(metrics::Counter::steady_solves);
  if (metrics::enabled()) {
    metrics::observe(metrics::Hist::solve_steady_seconds, timer.seconds());
  }
  return make_field(system, std::move(temps));
}

}  // namespace lcn
