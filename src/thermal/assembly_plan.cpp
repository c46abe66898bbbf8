#include "thermal/assembly_plan.hpp"

#include "common/assert.hpp"
#include "common/metrics.hpp"

namespace lcn {

void ThermalAssemblyPlan::finalize(std::size_t nodes,
                                   const std::vector<const Emitter*>& parts) {
  n = nodes;
  std::size_t slots = 0;
  std::size_t rhs_n = 0;
  std::size_t out_n = 0;
  std::size_t in_n = 0;
  for (const Emitter* e : parts) {
    LCN_REQUIRE(e != nullptr, "assembly plan: null emitter part");
    slots += e->pattern.size();
    rhs_n += e->rhs_ops.size();
    out_n += e->outlet_units.size();
    in_n += e->inflow_units.size();
  }
  std::vector<sparse::Triplet> merged;
  merged.reserve(slots);
  slot_value_.reserve(slots);
  slot_form_.reserve(slots);
  rhs_ops_.reserve(rhs_n);
  outlet_units_.reserve(out_n);
  inflow_units_.reserve(in_n);
  for (const Emitter* e : parts) {
    merged.insert(merged.end(), e->pattern.begin(), e->pattern.end());
    slot_value_.insert(slot_value_.end(), e->slot_value.begin(),
                       e->slot_value.end());
    slot_form_.insert(slot_form_.end(), e->slot_form.begin(),
                      e->slot_form.end());
    rhs_ops_.insert(rhs_ops_.end(), e->rhs_ops.begin(), e->rhs_ops.end());
    outlet_units_.insert(outlet_units_.end(), e->outlet_units.begin(),
                         e->outlet_units.end());
    inflow_units_.insert(inflow_units_.end(), e->inflow_units.begin(),
                         e->inflow_units.end());
  }
  pattern_ = sparse::SparsityPlan::analyze(n, n, merged);
}

void ThermalAssemblyPlan::replay_rhs(double p_sys,
                                     const BoundaryState& boundary,
                                     sparse::Vector& rhs) const {
  LCN_REQUIRE(boundary.power_scale.empty() ||
                  boundary.power_scale.size() == source_nodes.size(),
              "boundary power scale must cover every source layer");
  const double cv = volumetric_heat;
  const bool scaled = !boundary.power_scale.empty();
  rhs.assign(n, 0.0);
  // Replay the ordered RHS contributions (same `+=` sequence as a fresh
  // traversal). The nominal path adds power values verbatim — no `* 1.0`
  // detour — so it stays bit-identical to the historical assembly.
  for (const RhsOp& op : rhs_ops_) {
    if (op.is_flow) {
      const double q = op.value * p_sys;
      rhs[op.node] += cv * q * boundary.inlet_temperature;
    } else if (scaled && op.layer >= 0) {
      rhs[op.node] +=
          op.value * boundary.power_scale[static_cast<std::size_t>(op.layer)];
    } else {
      rhs[op.node] += op.value;
    }
  }
}

AssembledThermal ThermalAssemblyPlan::assemble(double p_sys) const {
  return assemble(p_sys, nominal_boundary());
}

AssembledThermal ThermalAssemblyPlan::assemble(
    double p_sys, const BoundaryState& boundary) const {
  LCN_REQUIRE(p_sys > 0.0, "P_sys must be positive");
  const metrics::ScopedLatency latency(metrics::Hist::assemble_seconds);
  const double cv = volumetric_heat;

  AssembledThermal out;
  out.capacitance = capacitance;
  out.map_rows = map_rows;
  out.map_cols = map_cols;
  out.volumetric_heat = volumetric_heat;
  out.inlet_temperature = boundary.inlet_temperature;
  out.source_nodes = source_nodes;
  out.mg_hint = mg_hint;

  replay_rhs(p_sys, boundary, out.rhs);

  out.outlet_terms.reserve(outlet_units_.size());
  for (const auto& [node, unit] : outlet_units_) {
    out.outlet_terms.emplace_back(node, unit * p_sys);
  }
  for (double unit : inflow_units_) out.inlet_flow_total += unit * p_sys;

  // Numeric matrix refill on the cached pattern. The expression per form
  // matches the fresh traversal's arithmetic shape exactly.
  out.matrix = pattern_.refill_matrix([&](std::size_t s) -> double {
    const double v = slot_value_[s];
    switch (slot_form_[s]) {
      case SlotForm::kConst:
        return v;
      case SlotForm::kHalf:
        return cv * (v * p_sys) / 2.0;
      case SlotForm::kHalfNeg:
        return -cv * (v * p_sys) / 2.0;
      case SlotForm::kFull:
        return cv * (v * p_sys);
    }
    return 0.0;  // unreachable
  });

  metrics::count(metrics::Counter::assemblies_refill);
  metrics::count(metrics::Counter::assemblies);
  return out;
}

void ThermalAssemblyPlan::refill_rhs(double p_sys,
                                     const BoundaryState& boundary,
                                     AssembledThermal& io) const {
  LCN_REQUIRE(p_sys > 0.0, "P_sys must be positive");
  LCN_REQUIRE(io.matrix.rows() == n, "refill_rhs: system/plan size mismatch");
  replay_rhs(p_sys, boundary, io.rhs);
  io.inlet_temperature = boundary.inlet_temperature;
  metrics::count(metrics::Counter::rhs_refills);
}

}  // namespace lcn
