#include "thermal/transient.hpp"

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sparse/parallel.hpp"
#include "sparse/solvers.hpp"

namespace lcn {

TransientStepper::TransientStepper(const AssembledThermal& system, double dt,
                                   const SteadySolverConfig& config)
    : config_(config) {
  bind(system, dt);
}

void TransientStepper::rebind(const AssembledThermal& system, double dt) {
  bind(system, dt);
}

void TransientStepper::bind(const AssembledThermal& system, double dt) {
  LCN_REQUIRE(dt > 0.0, "time step must be positive");
  const std::size_t n = system.matrix.rows();
  LCN_REQUIRE(system.capacitance.size() == n,
              "capacitance vector size mismatch");

  // Hoist C/Δt once per rebind; the step loop reads it element-wise. The
  // product cap_over_dt_[i] * T[i] reproduces the historical
  // `capacitance[i] / dt * temps[i]` bit-for-bit (same division, rounded
  // once, then the same multiply).
  cap_over_dt_.resize(n);
  if (sparse::parallel_kernels_enabled(n, sparse::kVectorGrain)) {
    sparse::parallel_ranges(n, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        cap_over_dt_[i] = system.capacitance[i] / dt;
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      cap_over_dt_[i] = system.capacitance[i] / dt;
    }
  }

  // Same assembly plan (shared index arrays) => the (C/Δt + A) pattern is
  // unchanged: plan-refilled matrices keep a stable zero set (constant slots
  // are fixed, advection slots scale with P_sys > 0) and C/Δt is zero only
  // where C is. A different structure reruns the symbolic analysis.
  const bool same_structure =
      system_ != nullptr && n == n_ && bound_cols_ != nullptr &&
      bound_cols_.get() == system.matrix.shared_col_idx().get();
  system_ = &system;
  dt_ = dt;
  n_ = n;
  bound_cols_ = system.matrix.shared_col_idx();

  if (!same_structure) {
    // Capture the slot sources in the exact emission order of the historical
    // fresh triplet build: per row, A's stored entries then the diagonal
    // capacitance term, zero values dropped like TripletList::add drops them.
    const auto& row_ptr = system.matrix.row_ptr();
    const auto& col_idx = system.matrix.col_idx();
    const auto& values = system.matrix.values();
    std::vector<sparse::Triplet> pattern;
    pattern.reserve(values.size() + n);
    slots_.clear();
    slots_.reserve(values.size() + n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        if (values[k] == 0.0) continue;
        pattern.push_back({r, col_idx[k], 0.0});
        slots_.push_back({k, false});
      }
      if (cap_over_dt_[r] != 0.0) {
        pattern.push_back({r, r, 0.0});
        slots_.push_back({r, true});
      }
    }
    plan_ = sparse::SparsityPlan::analyze(n, n, pattern);
    metrics::count(metrics::Counter::transient_rebuilds);
  } else {
    metrics::count(metrics::Counter::transient_refills);
  }
  last_rebind_refilled_ = same_structure;

  const auto& a_values = system.matrix.values();
  lhs_ = plan_.refill_matrix([&](std::size_t s) -> double {
    const Slot& slot = slots_[s];
    return slot.is_diag ? cap_over_dt_[slot.index] : a_values[slot.index];
  });

  // lhs_ borrows plan_'s index arrays on every refill, so the
  // preconditioner's refactorization skips its symbolic phase.
  if (config_.precon == SteadySolverConfig::Precon::kMultigrid) {
    if (workspace_.mg && same_structure) {
      workspace_.mg->refactor(lhs_);
    } else {
      workspace_.mg.emplace(lhs_, system.mg_hint.get());
    }
  } else {
    if (workspace_.ilu) {
      workspace_.ilu->refactor(lhs_);
    } else {
      workspace_.ilu.emplace(lhs_);
    }
  }
}

void TransientStepper::step(std::vector<double>& temps,
                            double rel_tolerance) {
  LCN_TRACE_SPAN_FINE("transient_step");
  LCN_REQUIRE(temps.size() == n_, "temperature vector size mismatch");

  // rhs = b + (C/Δt) ⊙ T_n. Element-wise with the pooled vector-ops idiom:
  // each element is written by exactly one task with the serial operation
  // order, so the trajectory is bit-identical for any thread count.
  rhs_.resize(n_);
  const sparse::Vector& b = system_->rhs;
  if (sparse::parallel_kernels_enabled(n_, sparse::kVectorGrain)) {
    sparse::parallel_ranges(n_, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        rhs_[i] = b[i] + cap_over_dt_[i] * temps[i];
      }
    });
  } else {
    for (std::size_t i = 0; i < n_; ++i) {
      rhs_[i] = b[i] + cap_over_dt_[i] * temps[i];
    }
  }

  sparse::SolveOptions opts;
  opts.rel_tolerance = rel_tolerance;
  if (config_.precon == SteadySolverConfig::Precon::kMultigrid) {
    sparse::solve_general_or_throw(lhs_, rhs_, temps, "transient step",
                                   *workspace_.mg, workspace_.krylov, opts);
  } else {
    sparse::solve_general_or_throw(lhs_, rhs_, temps, "transient step",
                                   *workspace_.ilu, workspace_.krylov, opts);
  }
  metrics::count(metrics::Counter::transient_steps);
}

std::vector<TransientSample> simulate_transient(
    const AssembledThermal& system, std::vector<double> initial,
    const TransientOptions& options, std::vector<double>* final_temps) {
  const std::size_t n = system.matrix.rows();
  LCN_REQUIRE(initial.size() == n, "initial temperature size mismatch");
  LCN_REQUIRE(options.dt > 0.0, "time step must be positive");
  LCN_REQUIRE(options.steps >= 1, "need at least one step");

  const SteadySolverConfig config =
      options.solver ? *options.solver : SteadySolverConfig::from_env();
  TransientStepper stepper(system, options.dt, config);

  std::vector<TransientSample> samples;
  samples.reserve(static_cast<std::size_t>(options.steps));
  std::vector<double> temps = std::move(initial);

  for (int step = 1; step <= options.steps; ++step) {
    stepper.step(temps, options.rel_tolerance);
    const ThermalField field = make_field(system, temps);
    samples.push_back({step * options.dt, field.t_max, field.delta_t});
  }
  if (final_temps != nullptr) *final_temps = std::move(temps);
  return samples;
}

}  // namespace lcn
