// Assembled thermal RC system and the resulting temperature field + metrics.
//
// Both the 4RM and 2RM simulators produce an AssembledThermal; the steady
// solver, the transient integrator and the metric extraction are shared.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/multigrid.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/solvers.hpp"

namespace lcn {

/// Linear steady-state system A·T = b plus per-node heat capacities (for
/// transient stepping) and the bookkeeping needed to compute metrics.
struct AssembledThermal {
  sparse::CsrMatrix matrix;
  sparse::Vector rhs;
  sparse::Vector capacitance;  ///< J/K per node

  /// Structured-grid coordinates per matrix row (layer, row, col), shared
  /// from the assembly plan. Enables geometric multigrid coarsening; absent
  /// (null) systems still solve — multigrid falls back to algebraic
  /// aggregation.
  std::shared_ptr<const sparse::MgGridHint> mg_hint;

  /// Per source layer: node ids in row-major map order.
  std::vector<std::vector<std::size_t>> source_nodes;
  int map_rows = 0;  ///< dimensions of each source-layer map
  int map_cols = 0;

  /// (node, volumetric flow) for every outlet opening — used for the energy
  /// balance diagnostics (advected heat = Σ C_v·Q·(T_node − T_in)).
  std::vector<std::pair<std::size_t, double>> outlet_terms;
  double inlet_flow_total = 0.0;
  double volumetric_heat = 0.0;   ///< coolant C_v
  double inlet_temperature = 0.0;
};

/// Temperature field with the paper's metrics: peak temperature T_max and
/// thermal gradient ΔT = max_i range(T over source layer i) (§3).
struct ThermalField {
  std::vector<double> temperatures;  ///< all nodes, K

  std::vector<std::vector<double>> source_maps;  ///< per source layer
  int map_rows = 0;
  int map_cols = 0;

  double t_max = 0.0;
  double delta_t = 0.0;
  std::vector<double> per_layer_delta;  ///< ΔT_i per source layer
};

/// Extract maps and metrics from a solved temperature vector.
ThermalField make_field(const AssembledThermal& system,
                        std::vector<double> temperatures);

/// Heat carried out by the coolant, W: Σ_outlets C_v·Q·(T − T_in).
/// With adiabatic boundaries this equals the injected power at steady state.
double advected_heat(const AssembledThermal& system,
                     const std::vector<double>& temperatures);

/// Persistent state for repeated solve_steady() calls on systems that share
/// a sparsity pattern (e.g. probe after probe on one model's assembly plan):
/// the ILU(0) preconditioner keeps its symbolic analysis and refactorizes
/// numerically, and the Krylov scratch vectors are reused instead of
/// reallocated. One workspace per thread — no internal synchronization.
struct SteadyWorkspace {
  std::optional<sparse::Ilu0Preconditioner> ilu;
  std::optional<sparse::MultigridPreconditioner> mg;
  sparse::SolverWorkspace krylov;
};

/// Preconditioner selection for solve_steady (DESIGN.md §S20). Both choices
/// run the same fp64 BiCGSTAB → retry → GMRES cascade; the default is the
/// seed configuration, ILU(0). from_env() reads LCN_SOLVER_PRECON so
/// large-grid runs can switch the whole binary to multigrid without a code
/// change (README "Solver selection").
struct SteadySolverConfig {
  enum class Precon {
    kIlu0,       ///< zero fill-in incomplete LU (seed default)
    kMultigrid,  ///< geometric/algebraic multigrid V-cycle
  };
  Precon precon = Precon::kIlu0;

  /// LCN_SOLVER_PRECON=ilu0|mg, read once per process (solve_steady,
  /// TransientStepper and run_scenario all share that value). Unset/unknown
  /// values keep the default.
  static SteadySolverConfig from_env();
};

/// Solve the steady system (preconditioned BiCGSTAB, GMRES fallback) and
/// build the field. Throws lcn::RuntimeError on non-convergence.
/// `initial_guess` (optional, right size) warm-starts the Krylov solve —
/// the pressure searches probe many nearby P_sys values, and the previous
/// temperature field is an excellent starting point. `workspace` (optional)
/// carries preconditioner + Krylov scratch across calls; the solve itself is
/// bit-identical with or without it. `config` (optional) selects the
/// preconditioner; null reads SteadySolverConfig::from_env().
ThermalField solve_steady(const AssembledThermal& system,
                          double rel_tolerance = 1e-9,
                          const std::vector<double>* initial_guess = nullptr,
                          SteadyWorkspace* workspace = nullptr,
                          const SteadySolverConfig* config = nullptr);

}  // namespace lcn
