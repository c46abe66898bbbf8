#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/task_context.hpp"
#include "common/trace.hpp"

namespace lcn {

namespace {

int phase_steps(const PowerPhase& phase, double dt) {
  return std::max(1, static_cast<int>(std::ceil(phase.duration / dt)));
}

/// Serial, seeded evaluation of the power trace: per-step scale factors that
/// depend only on the trace configuration (and its rng stream), never on the
/// thread count. advance() must be called once per step, in step order.
class TraceSampler {
 public:
  TraceSampler(const PowerTrace& trace, double dt, std::size_t layers)
      : trace_(trace), dt_(dt), scales_(layers, trace.scale) {
    if (trace.kind == TraceKind::kBursty) {
      rng_ = Rng(trace.seed);
      remaining_ = draw_duration(trace_.mean_idle);
      std::fill(scales_.begin(), scales_.end(), trace_.idle_scale);
    }
    if (trace.kind == TraceKind::kPhases) {
      phase_ = 0;
      steps_left_ = phase_steps(trace.phases.front(), dt);
      apply_phase();
    }
  }

  /// Scales for the step starting at `t0`; `phase` reports the active
  /// kPhases index (-1 otherwise).
  const std::vector<double>& advance(double t0, int& phase) {
    phase = -1;
    switch (trace_.kind) {
      case TraceKind::kConstant:
        break;
      case TraceKind::kPhases:
        if (steps_left_ == 0 &&
            phase_ + 1 < static_cast<int>(trace_.phases.size())) {
          ++phase_;
          steps_left_ =
              phase_steps(trace_.phases[static_cast<std::size_t>(phase_)],
                          dt_);
          apply_phase();
        }
        --steps_left_;
        phase = phase_;
        break;
      case TraceKind::kPeriodic: {
        const double in_period = std::fmod(t0, trace_.period);
        const double s = in_period < trace_.duty * trace_.period
                             ? trace_.high
                             : trace_.low;
        std::fill(scales_.begin(), scales_.end(), s);
        break;
      }
      case TraceKind::kBursty: {
        while (remaining_ <= 0.0) {
          in_burst_ = !in_burst_;
          remaining_ += draw_duration(in_burst_ ? trace_.mean_burst
                                                : trace_.mean_idle);
        }
        remaining_ -= dt_;
        const double s = in_burst_ ? trace_.burst_scale : trace_.idle_scale;
        std::fill(scales_.begin(), scales_.end(), s);
        break;
      }
    }
    return scales_;
  }

 private:
  double draw_duration(double mean) {
    // Exponential renewal times; floored at one step so state flips are
    // visible at any dt.
    const double u = rng_.next_double();
    return std::max(dt_, -mean * std::log1p(-u));
  }

  void apply_phase() {
    const PowerPhase& p = trace_.phases[static_cast<std::size_t>(phase_)];
    std::copy(p.layer_scale.begin(), p.layer_scale.end(), scales_.begin());
  }

  const PowerTrace& trace_;
  double dt_;
  std::vector<double> scales_;
  Rng rng_{1};
  bool in_burst_ = false;
  double remaining_ = 0.0;
  int phase_ = -1;
  int steps_left_ = 0;
};

double throttle_scale_for(const ThrottlePolicy& policy, double t_max_prev) {
  if (policy.t_throttle <= 0.0) return 1.0;
  const double t_hi = policy.t_critical > policy.t_throttle
                          ? policy.t_critical
                          : policy.t_throttle + 5.0;
  if (t_max_prev <= policy.t_throttle) return 1.0;
  if (t_max_prev >= t_hi) return policy.min_scale;
  const double f = (t_max_prev - policy.t_throttle) / (t_hi - policy.t_throttle);
  return 1.0 + f * (policy.min_scale - 1.0);
}

double desired_pressure(const PumpPolicy& pump, int phase,
                        double t_max_prev) {
  switch (pump.kind) {
    case PumpPolicyKind::kFixed:
      return pump.p_fixed;
    case PumpPolicyKind::kSchedule:
      return pump.schedule[static_cast<std::size_t>(std::max(0, phase))];
    case PumpPolicyKind::kThermostat: {
      const double p = pump.p_fixed + pump.gain * (t_max_prev - pump.t_target);
      return std::clamp(p, pump.p_min, pump.p_max);
    }
  }
  return pump.p_fixed;  // unreachable
}

/// T_max/ΔT over the source layers without copying the temperature vector
/// (make_field's metric loop, minus the map extraction).
void source_metrics(const AssembledThermal& system,
                    const std::vector<double>& temps, double& t_max,
                    double& delta_t) {
  t_max = 0.0;
  delta_t = 0.0;
  for (const auto& nodes : system.source_nodes) {
    double lo = 1e300;
    double hi = -1e300;
    for (std::size_t node : nodes) {
      const double t = temps[node];
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    delta_t = std::max(delta_t, hi - lo);
    t_max = std::max(t_max, hi);
  }
}

std::variant<Thermal2RM, Thermal4RM> make_sim(const CoolingProblem& problem,
                                              const CoolingNetwork& network,
                                              const SimConfig& config) {
  std::vector<CoolingNetwork> nets(
      static_cast<std::size_t>(problem.stack.channel_count()), network);
  if (config.model == ThermalModelKind::k4RM) {
    return std::variant<Thermal2RM, Thermal4RM>(
        std::in_place_type<Thermal4RM>, problem, std::move(nets));
  }
  return std::variant<Thermal2RM, Thermal4RM>(
      std::in_place_type<Thermal2RM>, problem, std::move(nets),
      config.thermal_cell);
}

void validate_config(const CoolingProblem& problem,
                     const ScenarioConfig& config) {
  LCN_REQUIRE(config.dt > 0.0, "scenario dt must be positive");
  const std::size_t layers = problem.source_power.size();
  const PowerTrace& trace = config.trace;
  if (trace.kind == TraceKind::kPhases) {
    LCN_REQUIRE(!trace.phases.empty(), "phase trace needs at least one phase");
    for (const PowerPhase& p : trace.phases) {
      LCN_REQUIRE(p.layer_scale.size() == layers,
                  "one scale factor per source layer required");
      LCN_REQUIRE(p.duration > 0.0, "phase duration must be positive");
      for (double s : p.layer_scale) {
        LCN_REQUIRE(s >= 0.0, "power scale must be non-negative");
      }
    }
  } else {
    LCN_REQUIRE(config.steps >= 1, "need at least one step");
  }
  if (trace.kind == TraceKind::kPeriodic) {
    LCN_REQUIRE(trace.period > 0.0 && trace.duty >= 0.0 && trace.duty <= 1.0,
                "periodic trace needs period > 0 and duty in [0, 1]");
  }
  if (trace.kind == TraceKind::kBursty) {
    LCN_REQUIRE(trace.mean_idle > 0.0 && trace.mean_burst > 0.0,
                "bursty trace needs positive mean durations");
  }
  const PumpPolicy& pump = config.pump;
  LCN_REQUIRE(pump.p_min > 0.0 && pump.p_max >= pump.p_min,
              "pump policy needs 0 < p_min <= p_max");
  LCN_REQUIRE(pump.slew_rate >= 0.0, "slew rate must be non-negative");
  if (pump.kind == PumpPolicyKind::kSchedule) {
    LCN_REQUIRE(trace.kind == TraceKind::kPhases &&
                    pump.schedule.size() == trace.phases.size(),
                "pump schedule must align with a phase trace");
    for (double p : pump.schedule) {
      LCN_REQUIRE(p > 0.0, "scheduled pressures must be positive");
    }
  } else {
    LCN_REQUIRE(pump.p_fixed > 0.0, "pump pressure must be positive");
  }
  for (const TimedFault& timed : config.faults) {
    LCN_REQUIRE(timed.onset >= 0.0 && timed.ramp >= 0.0,
                "fault onset and ramp must be non-negative");
    if (timed.fault.kind == FaultKind::kChannelBlockage) {
      // State carries across the structural rebuild, which requires the
      // node set to survive: partial blockages only.
      LCN_REQUIRE(timed.fault.severity < 1.0,
                  "scenario blockages must be partial (severity < 1)");
    }
    if (timed.fault.kind == FaultKind::kPumpDroop) {
      LCN_REQUIRE(timed.fault.severity < 1.0,
                  "pump droop must leave positive pressure (severity < 1)");
    }
  }
}

}  // namespace

int scenario_step_count(const ScenarioConfig& config) {
  if (config.trace.kind != TraceKind::kPhases) return config.steps;
  int total = 0;
  for (const PowerPhase& p : config.trace.phases) {
    total += phase_steps(p, config.dt);
  }
  return total;
}

ScenarioResult run_scenario(const CoolingProblem& problem,
                            const CoolingNetwork& network,
                            const ScenarioConfig& config,
                            const ScenarioCallback& on_sample) {
  LCN_TRACE_SPAN("run_scenario");
  problem.validate();
  validate_config(problem, config);
  const double dt = config.dt;
  const int total_steps = scenario_step_count(config);
  const SteadySolverConfig solver =
      config.solver ? *config.solver : SteadySolverConfig::from_env();
  ProgressSink* const progress = task_progress_sink();

  // Nominal model; rebuilt when the active structural-fault set changes.
  std::variant<Thermal2RM, Thermal4RM> sim =
      make_sim(problem, network, config.sim);
  auto plan_of = [](const std::variant<Thermal2RM, Thermal4RM>& s)
      -> const ThermalAssemblyPlan& {
    return std::visit([](const auto& m) -> const ThermalAssemblyPlan& {
      return m.plan();
    }, s);
  };
  auto unit_flow_of = [](const std::variant<Thermal2RM, Thermal4RM>& s) {
    return std::visit([](const auto& m) { return m.system_flow(1.0); }, s);
  };
  auto pump_power_of = [](const std::variant<Thermal2RM, Thermal4RM>& s,
                          double p) {
    return std::visit([p](const auto& m) { return m.pumping_power(p); }, s);
  };

  std::optional<CduLoop> loop;
  if (config.cdu_enabled) {
    loop.emplace(config.cdu, unit_flow_of(sim), problem.coolant.volumetric_heat,
                 problem.inlet_temperature);
  }

  TraceSampler sampler(config.trace, dt, problem.source_power.size());
  FaultScenario active_structural;  // empty = pristine hydraulics

  ScenarioResult result;
  result.samples.reserve(static_cast<std::size_t>(total_steps));

  BoundaryState boundary{problem.inlet_temperature, {}};
  boundary.power_scale.assign(problem.source_power.size(), 1.0);

  AssembledThermal system;
  std::optional<TransientStepper> stepper;
  std::vector<double> temps;
  double p_bound = 0.0;    ///< delivered pressure the system was assembled at
  double p_command = 0.0;  ///< previous actuator command (slew reference)
  double t_max_prev = 0.0;
  bool have_prev_t = false;

  for (int step = 1; step <= total_steps; ++step) {
    throw_if_cancelled();
    const metrics::ScopedLatency step_latency(
        metrics::Hist::scenario_step_seconds);
    const double t0 = (step - 1) * dt;

    // --- Structural faults: rebuild the degraded model when the active
    // blockage set changes (symbolic rebuild; node set is preserved because
    // scenario blockages are partial).
    bool model_changed = false;
    FaultScenario structural = active_structural_faults(config.faults, t0);
    if (structural.faults != active_structural.faults) {
      const DegradedSystem degraded =
          apply_scenario(problem, network, structural);
      const std::size_t old_nodes =
          std::visit([](const auto& m) { return m.node_count(); }, sim);
      sim = make_sim(degraded.problem, degraded.network, config.sim);
      const std::size_t new_nodes =
          std::visit([](const auto& m) { return m.node_count(); }, sim);
      LCN_CHECK(new_nodes == old_nodes,
                "partial blockage must preserve the node set");
      if (loop) loop->set_chip_unit_flow(unit_flow_of(sim));
      active_structural = std::move(structural);
      model_changed = true;
    }

    // --- Power scales: trace × timed excursions × throttle (previous-step
    // T_max; the first step runs unthrottled — nothing measured yet).
    int phase = -1;
    const std::vector<double>& trace_scales = sampler.advance(t0, phase);
    const double throttle =
        have_prev_t ? throttle_scale_for(config.throttle, t_max_prev) : 1.0;
    for (std::size_t l = 0; l < boundary.power_scale.size(); ++l) {
      boundary.power_scale[l] =
          trace_scales[l] *
          timed_power_factor(config.faults, t0, static_cast<int>(l)) *
          throttle;
    }

    // --- Pump command under the actuator's slew limit, then the delivered
    // pressure after droop faults and (with a CDU) the pump curve.
    double desired = desired_pressure(
        config.pump, phase, have_prev_t ? t_max_prev : config.pump.t_target);
    if (step > 1 && config.pump.slew_rate > 0.0) {
      const double max_delta = config.pump.slew_rate * dt;
      desired = std::clamp(desired, p_command - max_delta,
                           p_command + max_delta);
    }
    p_command = desired;
    double delivered = p_command * timed_pressure_derate(config.faults, t0);
    if (loop) delivered = std::min(delivered, loop->max_chip_pressure());
    LCN_CHECK(delivered > 0.0, "delivered pump pressure must stay positive");

    // --- Chip inlet temperature: CDU supply (or the nominal inlet) plus
    // any timed inlet drift.
    const double base_inlet =
        loop ? loop->supply_temperature() : problem.inlet_temperature;
    boundary.inlet_temperature =
        base_inlet + timed_inlet_drift(config.faults, t0);

    // --- Assemble / refill. A pressure or model change refills the matrix
    // on the assembly plan; otherwise only the RHS is rewritten in place.
    if (model_changed || stepper == std::nullopt || delivered != p_bound) {
      system = plan_of(sim).assemble(delivered, boundary);
      p_bound = delivered;
      if (stepper) {
        stepper->rebind(system, dt);
      } else {
        stepper.emplace(system, dt, solver);
      }
    } else {
      plan_of(sim).refill_rhs(delivered, boundary, system);
    }

    if (temps.empty()) {
      temps.assign(system.matrix.rows(), boundary.inlet_temperature);
    }
    stepper->step(temps, config.rel_tolerance);
    metrics::count(metrics::Counter::scenario_steps);

    ScenarioSample sample;
    sample.step = step;
    sample.time = step * dt;
    sample.phase = phase;
    source_metrics(system, temps, sample.t_max, sample.delta_t);
    sample.power_scale = trace_scales.empty() ? 1.0 : trace_scales.front();
    sample.throttle_scale = throttle;
    sample.p_command = p_command;
    sample.p_delivered = delivered;
    sample.inlet_temperature = boundary.inlet_temperature;
    sample.w_pump = pump_power_of(sim, delivered);
    sample.heat_to_coolant = advected_heat(system, temps);

    // --- Close the loop: the advected heat loads the CDU; its new supply
    // temperature is the next step's inlet.
    if (loop) {
      const double flow = system.inlet_flow_total;
      if (flow > 0.0) loop->advance(dt, flow, sample.heat_to_coolant);
      sample.cdu_supply = loop->supply_temperature();
      sample.cdu_return = loop->return_temperature();
    }

    t_max_prev = sample.t_max;
    have_prev_t = true;
    result.peak_t_max = std::max(result.peak_t_max, sample.t_max);
    result.peak_delta_t = std::max(result.peak_delta_t, sample.delta_t);
    result.final_inlet = sample.inlet_temperature;

    if (trace::enabled(trace::kFine) || progress != nullptr) {
      const std::string args = strfmt(
          "\"step\":%d,\"t\":%.6g,\"t_max\":%.6f,\"delta_t\":%.6f,"
          "\"p\":%.6g,\"inlet\":%.4f,\"scale\":%.4g,\"throttle\":%.4g",
          sample.step, sample.time, sample.t_max, sample.delta_t,
          sample.p_delivered, sample.inlet_temperature, sample.power_scale,
          sample.throttle_scale);
      trace::emit_instant("scenario_step", trace::kFine, args.c_str());
      if (progress != nullptr) progress->emit("scenario_step", args.c_str());
    }
    if (on_sample) on_sample(sample);
    result.samples.push_back(sample);
  }

  result.steps = total_steps;
  result.final_temps = std::move(temps);
  return result;
}

double scenario_peak_t_max(const CoolingProblem& problem,
                           const CoolingNetwork& network,
                           const ScenarioConfig& config) {
  return run_scenario(problem, network, config).peak_t_max;
}

}  // namespace lcn
