#include "opt/islands.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/env.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/task_context.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "network/design_rules.hpp"

namespace lcn {

IslandOptions island_options_from_env() {
  IslandOptions options;
  options.islands =
      static_cast<int>(std::max(1L, env_int("LCN_ISLANDS", 4)));
  options.migration_period =
      static_cast<int>(std::max(0L, env_int("LCN_MIGRATION_PERIOD", 8)));
  options.tempering = env_flag("LCN_PT");
  return options;
}

IslandOptimizer::IslandOptimizer(const BenchmarkCase& bench,
                                 DesignObjective objective,
                                 const IslandOptions& options,
                                 std::uint64_t seed)
    : base_(bench, objective, seed), options_(options) {
  LCN_REQUIRE(options_.islands >= 1, "need at least one island");
  LCN_REQUIRE(options_.tempering_spread > 0.0,
              "tempering spread must be positive");
}

IslandOutcome IslandOptimizer::run(const std::vector<SaStage>& stages) {
  return detail::run_islands(base_, stages, options_);
}

void IslandOptimizer::enable_robust_mode(const RobustOptions& options) {
  base_.enable_robust_mode(options);
}

namespace detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Salt separating the communication stream from every chain stream.
constexpr std::uint64_t kCommSalt = 0x636f6d6d2d726e67ULL;  // "comm-rng"

/// Master seed of chain `island`. Island 0 IS the plain single-chain stream
/// (the K=1 bit-identity contract); higher islands re-mix through SplitMix64
/// rather than offsetting the seed, so no two chains' xoshiro states share
/// seed-expansion words.
std::uint64_t chain_seed(std::uint64_t seed, int island) {
  if (island == 0) return seed;
  return SplitMix64(seed ^ 0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(island))
      .next();
}

}  // namespace

/// The staged-SA loop of TreeTopologyOptimizer::run generalized to K
/// lockstep chains. Every rng draw, evaluation and archive insertion happens
/// either on the coordinating thread in fixed island order or under a
/// per-(island, round, iteration, neighbor) stream, so the whole outcome is
/// bit-identical at any thread count — and collapses to the plain
/// single-chain trajectory when K=1.
class IslandEngine {
 public:
  IslandEngine(TreeTopologyOptimizer& opt, const IslandOptions& options)
      : opt_(opt), options_(options) {}

  IslandOutcome run(const std::vector<SaStage>& stages);

 private:
  TreeTopologyOptimizer& opt_;
  IslandOptions options_;
};

IslandOutcome IslandEngine::run(const std::vector<SaStage>& stages) {
  LCN_REQUIRE(!stages.empty(), "need at least one SA stage");
  LCN_REQUIRE(options_.islands >= 1, "need at least one island");
  const int K = options_.islands;
  const bool migrate = K > 1 && options_.migration_period > 0;
  const bool temper = K > 1 && options_.tempering;

  // Per-session progress stream (§S22): when the job runs under a service
  // session with a sink, every sa_iter record is mirrored there — whether or
  // not process-wide tracing is on — so daemon clients see live convergence.
  ProgressSink* const progress = task_progress_sink();

  trace::Span run_span("sa_run");
  if (run_span.active()) {
    run_span.set_args(
        K > 1 ? strfmt("\"bench\":\"%s\",\"stages\":%zu,\"islands\":%d",
                       opt_.bench_.name.c_str(), stages.size(), K)
              : strfmt("\"bench\":\"%s\",\"stages\":%zu",
                       opt_.bench_.name.c_str(), stages.size()));
  }
  WallTimer timer;
  IslandOutcome out;
  DesignOutcome& outcome = out.best;

  // Migration donors and tempering swaps draw from this stream only, on this
  // thread only; chain streams never see communication draws, so a K=1 run
  // (which never touches it) is the plain single-chain trajectory.
  Rng comm_rng(SplitMix64(opt_.seed_ ^ kCommSalt).next());

  // Every feasible main-thread evaluation feeds the archive; insertion order
  // is fixed (coordinating thread, island-major), so the counters — not just
  // the frontier set — are deterministic.
  auto archive_add = [&](std::uint64_t design, const EvalResult& result,
                         const char* tag) {
    if (design == 0 || !result.feasible) return;
    ParetoPoint point;
    point.design = design;
    point.w_pump = result.w_pump;
    point.delta_t = result.at_p.delta_t;
    point.t_max = result.at_p.t_max;
    point.p_sys = result.p_sys;
    point.tag = tag;
    if (out.archive.insert(point) == ArchiveInsert::kInserted) {
      metrics::count(metrics::Counter::archive_inserts);
    }
  };

  TreeLayout seeded = opt_.initial_layout();
  const int direction =
      opt_.pick_direction(seeded, stages.front().sim, &outcome.evaluations);
  outcome.direction = direction;

  // Score a layout under a stage's *full* metric (and archive the result).
  auto full_score = [&](const TreeLayout& layout, const SimConfig& sim,
                        const char* tag) -> EvalResult {
    ++outcome.evaluations;
    const CoolingNetwork net = opt_.realize(layout, direction);
    const EvalResult result = opt_.evaluate_network(net, sim);
    archive_add(net.content_hash(), result, tag);
    return result;
  };

  // Seed the shared starting incumbent from a handful of uniform layouts
  // spanning the branch-position range: on hard cases (e.g. case 5) most of
  // the space is infeasible (+inf) and SA gets no gradient, so starting near
  // a feasible pocket matters. Every island starts here; their trajectories
  // diverge from the first mutation on.
  {
    const int cols = opt_.bench_.problem.grid.cols();
    double best_score = full_score(seeded, stages.front().sim, "seed").score;
    for (const auto& [f1, f2] :
         {std::pair{0.05, 0.12}, {0.15, 0.30}, {0.25, 0.50}, {0.45, 0.75}}) {
      const TreeLayout seed = make_uniform_layout(
          opt_.bench_.problem.grid, static_cast<int>(cols * f1),
          static_cast<int>(cols * f2));
      const double score = full_score(seed, stages.front().sim, "seed").score;
      if (score < best_score) {
        best_score = score;
        seeded = seed;
      }
    }
    // Power-aware seed: per-band branch positions derived from where the
    // heat actually sits (§3 compensation), mapped into the canonical frame
    // of the chosen direction.
    PowerMap combined = opt_.bench_.problem.source_power.front();
    for (std::size_t i = 1; i < opt_.bench_.problem.source_power.size(); ++i) {
      const PowerMap& map = opt_.bench_.problem.source_power[i];
      for (int r = 0; r < combined.grid().rows(); ++r) {
        for (int c = 0; c < combined.grid().cols(); ++c) {
          combined.at(r, c) += map.at(r, c);
        }
      }
    }
    const TreeLayout aware = make_power_aware_layout(
        opt_.bench_.problem.grid,
        combined.transformed(D4Transform(direction).inverse()));
    const double aware_score =
        full_score(aware, stages.front().sim, "seed").score;
    if (aware_score < best_score) {
      best_score = aware_score;
      seeded = aware;
    }
  }

  struct Island {
    Rng rng;  ///< master chain stream; forked once per round
    TreeLayout incumbent;
  };
  std::vector<Island> isl;
  isl.reserve(static_cast<std::size_t>(K));
  for (int i = 0; i < K; ++i) {
    isl.push_back({Rng(chain_seed(opt_.seed_, i)), seeded});
  }

  for (std::size_t stage_idx = 0; stage_idx < stages.size(); ++stage_idx) {
    const SaStage& stage = stages[stage_idx];
    trace::Span stage_span("sa_stage");
    if (stage_span.active()) {
      stage_span.set_args(strfmt(
          "\"stage\":\"%s\",\"rounds\":%d,\"iterations\":%d,\"neighbors\":%d",
          stage.name.c_str(), stage.rounds, stage.iterations,
          stage.neighbors));
    }

    // Stage-1-style cost needs a representative fixed pressure: take each
    // island's incumbent optimal operating point (fallback: the search's
    // P_init). Per-island because incumbents diverge after stage 1.
    std::vector<double> fixed_pressure(
        static_cast<std::size_t>(K), opt_.search_options_.p_init);
    if (stage.fixed_pressure_cost) {
      for (int i = 0; i < K; ++i) {
        const EvalResult ref =
            full_score(isl[i].incumbent, stage.sim, stage.name.c_str());
        if (ref.feasible) fixed_pressure[i] = ref.p_sys;
      }
    }

    // Group-leader pressure for Problem-2 grouped evaluation, per island.
    // Written on the coordinating thread between pool evaluations only, so
    // pool workers see a stable value for their island.
    std::vector<double> group_pressure(
        static_cast<std::size_t>(K), opt_.search_options_.p_init);

    auto cost_of = [&](const TreeLayout& layout, bool leader, int island,
                       std::uint64_t* design) -> EvalResult {
      const CoolingNetwork net = opt_.realize(layout, direction);
      DesignRules rules;
      rules.forbidden = opt_.bench_.forbidden;
      if (!check_design_rules(net, rules).ok()) {
        if (design != nullptr) *design = 0;
        return EvalResult::infeasible_result();
      }
      // SA pools frequently regenerate layouts seen a few iterations ago —
      // by any island: the cache is shared population-wide, so a design
      // reached by two chains is only evaluated once.
      EvalMode mode;
      double key_pressure = 0.0;
      if (stage.fixed_pressure_cost) {
        mode = EvalMode::kFixedPressure;
        key_pressure = fixed_pressure[static_cast<std::size_t>(island)];
      } else if (opt_.objective_ == DesignObjective::kPumpingPower) {
        mode = EvalMode::kFullP1;
      } else if (stage.group_size > 1 && !leader) {
        mode = EvalMode::kP2Follower;
        key_pressure = group_pressure[static_cast<std::size_t>(island)];
      } else {
        mode = EvalMode::kFullP2;
      }
      const EvalCacheKey key = make_eval_key(opt_.problem_fp_, net, stage.sim,
                                             mode, key_pressure);
      if (design != nullptr) *design = key.network;
      if (const auto cached = opt_.cache_.find(key)) return *cached;
      EvalResult result;
      if (!opt_.robust_.empty() &&
          (mode == EvalMode::kFullP1 || mode == EvalMode::kFullP2)) {
        // Robust mode: worst case over the fixed fault sample. The cheap
        // fixed-pressure / follower probes keep nominal scoring.
        result = robust_evaluate(opt_.bench_.problem, net, opt_.constraints_,
                                 mode, stage.sim, opt_.search_options_,
                                 opt_.robust_);
      } else {
        try {
          SystemEvaluator eval(opt_.bench_.problem, net, stage.sim);
          if (stage.fixed_pressure_cost) {
            // ΔT at a fixed pressure: one simulation (§4.4 stage 1).
            const double p = fixed_pressure[static_cast<std::size_t>(island)];
            result.feasible = true;
            result.p_sys = p;
            result.w_pump = eval.pumping_power(p);
            result.at_p = eval.probe(p);
            result.score = result.at_p.delta_t;
          } else if (opt_.objective_ == DesignObjective::kPumpingPower) {
            result = evaluate_p1(eval, opt_.constraints_,
                                 opt_.search_options_);
          } else if (stage.group_size > 1 && !leader) {
            result = evaluate_p2_at(
                eval, opt_.constraints_,
                group_pressure[static_cast<std::size_t>(island)]);
          } else {
            result = evaluate_p2(eval, opt_.constraints_,
                                 opt_.search_options_);
          }
        } catch (const RuntimeError&) {
          result = EvalResult::infeasible_result();
        }
      }
      opt_.cache_.store(key, result);
      return result;
    };

    // Multi-round SA; rounds differ only in the random seed (§4.4). Rounds
    // run in lockstep across islands so migration/tempering partners are
    // always at the same (round, iteration).
    struct RoundBest {
      TreeLayout layout;
      double score = kInf;
    };
    std::vector<std::vector<RoundBest>> round_bests(
        static_cast<std::size_t>(K));

    for (int round = 0; round < stage.rounds; ++round) {
      LCN_TRACE_SPAN("sa_round");
      struct ChainRound {
        Rng round_rng;
        std::uint64_t round_key = 0;
        TreeLayout state;
        double state_score = kInf;
        RoundBest best;
        double temperature = 0.0;
        int accepted = 0;
      };
      std::vector<ChainRound> chains(static_cast<std::size_t>(K));
      const double alpha =
          stage.iterations > 1 ? std::pow(1e-2, 1.0 / (stage.iterations - 1))
                               : 1.0;
      for (int i = 0; i < K; ++i) {
        ChainRound& cr = chains[static_cast<std::size_t>(i)];
        cr.round_rng = isl[static_cast<std::size_t>(i)].rng.fork();
        // Root of the per-neighbor streams: every (island, round, iteration,
        // neighbor) tuple gets an independent rng derived below, so the
        // trajectory is identical no matter how many threads score the pool.
        cr.round_key = cr.round_rng.next_u64();
        cr.state = isl[static_cast<std::size_t>(i)].incumbent;
        std::uint64_t design = 0;
        const EvalResult state_eval =
            cost_of(cr.state, /*leader=*/true, i, &design);
        ++outcome.evaluations;
        archive_add(design, state_eval, stage.name.c_str());
        if (state_eval.feasible) {
          group_pressure[static_cast<std::size_t>(i)] = state_eval.p_sys;
        }
        cr.state_score = state_eval.score;
        cr.best = {cr.state, cr.state_score};
        // Geometric temperature schedule anchored to the initial score; with
        // tempering on, replica i starts spread^(i/(K-1)) hotter so the
        // ladder spans exploration to refinement.
        const double anchor = std::isfinite(cr.state_score)
                                  ? std::max(std::abs(cr.state_score), 1e-6)
                                  : 1.0;
        cr.temperature = 0.3 * anchor;
        if (temper) {
          cr.temperature *= std::pow(options_.tempering_spread,
                                     static_cast<double>(i) / (K - 1));
        }
      }

      for (int iter = 0; iter < stage.iterations; ++iter) {
        // Cooperative cancellation (§S22): checked once per lockstep
        // iteration on the coordinating thread, between pool passes, so a
        // cancelled job unwinds cleanly without observing partial pools.
        throw_if_cancelled();
        const bool leader =
            stage.group_size <= 1 || iter % stage.group_size == 0;
        const bool want_iter = trace::enabled() || progress != nullptr;
        // Progress-stream bookkeeping: pressure probes consumed by this
        // iteration alone (single-chain records only; with K>1 islands share
        // one pool pass, so per-island attribution would be fiction).
        const std::uint64_t probes_before =
            want_iter && K == 1
                ? metrics::global_shard().counter_snapshot().pressure_probes
                : 0;

        // Generate and score every island's neighbor pool in one parallel
        // pass (the paper scores 64 neighbors at once on an 80-core server;
        // K islands widen that to K×64). Each neighbor mutates under its own
        // rng stream keyed by (island, round, iteration, neighbor index), so
        // the pool — and hence the accepted-move sequence — does not depend
        // on evaluation order or thread count.
        const std::size_t width = static_cast<std::size_t>(stage.neighbors);
        std::vector<TreeLayout> pool(width * static_cast<std::size_t>(K));
        std::vector<EvalResult> scores(pool.size());
        std::vector<std::uint64_t> designs(pool.size());
        global_pool().parallel_for(pool.size(), [&](std::size_t j) {
          const int i = static_cast<int>(j / width);
          const std::uint64_t k = j % width;
          SplitMix64 sm(chains[static_cast<std::size_t>(i)].round_key ^
                        (static_cast<std::uint64_t>(iter) << 20) ^ k);
          Rng neighbor_rng(sm.next());
          pool[j] = opt_.mutate(chains[static_cast<std::size_t>(i)].state,
                                stage.step, neighbor_rng);
          scores[j] = cost_of(pool[j], leader, i, &designs[j]);
        });
        outcome.evaluations += pool.size();

        for (int i = 0; i < K; ++i) {
          ChainRound& cr = chains[static_cast<std::size_t>(i)];
          const std::size_t base = static_cast<std::size_t>(i) * width;
          std::size_t best_k = base;
          for (std::size_t k = base + 1; k < base + width; ++k) {
            if (scores[k].score < scores[best_k].score) best_k = k;
          }
          const double candidate = scores[best_k].score;

          // Metropolis acceptance of the pool's best candidate.
          bool accept = false;
          if (candidate < cr.state_score) {
            accept = true;
          } else if (std::isfinite(candidate) && cr.temperature > 0.0) {
            const double delta = candidate - cr.state_score;
            accept =
                cr.round_rng.next_double() < std::exp(-delta / cr.temperature);
          }
          if (accept) {
            ++cr.accepted;
            cr.state = pool[best_k];
            cr.state_score = candidate;
            if (leader && scores[best_k].feasible) {
              group_pressure[static_cast<std::size_t>(i)] =
                  scores[best_k].p_sys;
            }
            if (cr.state_score < cr.best.score) {
              cr.best = {cr.state, cr.state_score};
            }
          }
          for (std::size_t k = base; k < base + width; ++k) {
            archive_add(designs[k], scores[k], stage.name.c_str());
          }
          if (want_iter) {
            // One record per (island,) iteration, built once and mirrored to
            // both consumers: the process-wide trace sink (§S19) and the
            // session's progress stream (§S22) when one is installed.
            std::string args;
            if (K == 1) {
              // Where the anneal is (temperature, acceptance), what it sees
              // (scores), and what it cost (cache hit rate so far, pressure
              // probes this iteration).
              const std::uint64_t hits = opt_.cache_.hits();
              const std::uint64_t misses = opt_.cache_.misses();
              const double lookups = static_cast<double>(hits + misses);
              const double hit_rate =
                  lookups > 0.0 ? static_cast<double>(hits) / lookups : 0.0;
              const std::uint64_t probes =
                  metrics::global_shard().counter_snapshot().pressure_probes -
                  probes_before;
              args = strfmt(
                  "\"stage\":\"%s\",\"round\":%d,\"iter\":%d,"
                  "\"temperature\":%.6g,\"current\":%.9g,"
                  "\"candidate\":%.9g,\"best\":%.9g,\"accepted\":%s,"
                  "\"accept_rate\":%.4f,\"cache_hit_rate\":%.4f,"
                  "\"probes\":%llu",
                  stage.name.c_str(), round, iter, cr.temperature,
                  cr.state_score, candidate, cr.best.score,
                  accept ? "true" : "false",
                  static_cast<double>(cr.accepted) / (iter + 1), hit_rate,
                  static_cast<unsigned long long>(probes));
            } else {
              // Per-island variant. The aggregate cost fields are dropped —
              // they are population-wide and live in the metrics counters.
              args = strfmt(
                  "\"stage\":\"%s\",\"island\":%d,\"round\":%d,"
                  "\"iter\":%d,\"temperature\":%.6g,\"current\":%.9g,"
                  "\"candidate\":%.9g,\"best\":%.9g,\"accepted\":%s",
                  stage.name.c_str(), i, round, iter, cr.temperature,
                  cr.state_score, candidate, cr.best.score,
                  accept ? "true" : "false");
            }
            if (trace::enabled()) {
              trace::emit_instant("sa_iter", trace::kCoarse, args.c_str());
            }
            if (progress != nullptr) progress->emit("sa_iter", args.c_str());
          }
          cr.temperature *= alpha;
        }

        // Parallel tempering: adjacent replicas attempt a Metropolis swap of
        // temperatures, alternating pair parity so every boundary is tried
        // every other iteration. States stay put; only temperatures move.
        if (temper) {
          for (int j = iter % 2; j + 1 < K; j += 2) {
            ChainRound& lo = chains[static_cast<std::size_t>(j)];
            ChainRound& hi = chains[static_cast<std::size_t>(j + 1)];
            ++out.pt_swap_attempts;
            const double u = comm_rng.next_double();
            bool accept = false;
            if (std::isfinite(lo.state_score) &&
                std::isfinite(hi.state_score) && lo.temperature > 0.0 &&
                hi.temperature > 0.0) {
              const double delta =
                  (1.0 / lo.temperature - 1.0 / hi.temperature) *
                  (lo.state_score - hi.state_score);
              accept = delta >= 0.0 || u < std::exp(delta);
            }
            if (accept) {
              std::swap(lo.temperature, hi.temperature);
              ++out.pt_swaps;
              metrics::count(metrics::Counter::pt_swaps);
            }
            out.events.push_back({CommEvent::Kind::kPtSwap,
                                  static_cast<int>(stage_idx), round, iter, j,
                                  j + 1, accept});
          }
        }

        // Migration: each island may adopt the round-best of a donor drawn
        // from the communication stream, accepted only on strict
        // improvement over the receiver's current state.
        if (migrate && (iter + 1) % options_.migration_period == 0) {
          for (int i = 0; i < K; ++i) {
            ChainRound& cr = chains[static_cast<std::size_t>(i)];
            ++out.migration_attempts;
            const std::uint64_t draw =
                comm_rng.next_below(static_cast<std::uint64_t>(K - 1));
            const int donor = static_cast<int>(
                draw >= static_cast<std::uint64_t>(i) ? draw + 1 : draw);
            const RoundBest& gift =
                chains[static_cast<std::size_t>(donor)].best;
            const bool accept = gift.score < cr.state_score;
            if (accept) {
              cr.state = gift.layout;
              cr.state_score = gift.score;
              if (cr.state_score < cr.best.score) {
                cr.best = {cr.state, cr.state_score};
              }
              ++out.migrations;
              metrics::count(metrics::Counter::island_migrations);
            }
            out.events.push_back({CommEvent::Kind::kMigration,
                                  static_cast<int>(stage_idx), round, iter,
                                  donor, i, accept});
          }
        }
      }
      for (int i = 0; i < K; ++i) {
        round_bests[static_cast<std::size_t>(i)].push_back(
            chains[static_cast<std::size_t>(i)].best);
      }
    }

    // Select each island's stage output: re-evaluate its round bests with
    // the next stage's (or the sign-off) metric and keep the winner.
    const SimConfig& next_sim = stage_idx + 1 < stages.size()
                                    ? stages[stage_idx + 1].sim
                                    : stage.sim;
    for (int i = 0; i < K; ++i) {
      throw_if_cancelled();
      TreeLayout& incumbent = isl[static_cast<std::size_t>(i)].incumbent;
      double best_score = kInf;
      TreeLayout best_layout = incumbent;
      for (const RoundBest& rb : round_bests[static_cast<std::size_t>(i)]) {
        const EvalResult re =
            full_score(rb.layout, next_sim, stage.name.c_str());
        if (re.score < best_score) {
          best_score = re.score;
          best_layout = rb.layout;
        }
      }
      // Keep the incumbent when no round improved on it.
      const EvalResult incumbent_eval =
          full_score(incumbent, next_sim, stage.name.c_str());
      if (incumbent_eval.score <= best_score) {
        best_score = incumbent_eval.score;
      } else {
        incumbent = best_layout;
      }
      if (K == 1) {
        LCN_INFO() << opt_.bench_.name << ": stage " << stage.name
                   << " done, score " << best_score;
      } else {
        LCN_INFO() << opt_.bench_.name << ": stage " << stage.name
                   << " island " << i << " done, score " << best_score;
      }
    }
  }

  // Final sign-off of every island with the accurate model; the best island
  // (ties to the lowest index) becomes the run's outcome.
  const SimConfig signoff{ThermalModelKind::k4RM, 1};
  out.island_designs.resize(static_cast<std::size_t>(K));
  out.island_scores.resize(static_cast<std::size_t>(K));
  TreeLayout best_layout;
  CoolingNetwork best_network;
  EvalResult best_eval;
  for (int i = 0; i < K; ++i) {
    throw_if_cancelled();
    std::optional<trace::Span> island_span;
    if (K > 1) island_span.emplace("sa_island");
    const CoolingNetwork net =
        opt_.realize(isl[static_cast<std::size_t>(i)].incumbent, direction);
    const EvalResult eval = opt_.evaluate_network(net, signoff);
    ++outcome.evaluations;
    const std::uint64_t design = net.content_hash();
    archive_add(design, eval, "signoff");
    out.island_designs[static_cast<std::size_t>(i)] = design;
    out.island_scores[static_cast<std::size_t>(i)] = eval.score;
    if (island_span && island_span->active()) {
      island_span->set_args(
          strfmt("\"island\":%d,\"score\":%.9g,\"design\":%llu", i, eval.score,
                 static_cast<unsigned long long>(design)));
    }
    if (i == 0 || eval.score < best_eval.score) {
      out.best_island = i;
      best_layout = isl[static_cast<std::size_t>(i)].incumbent;
      best_network = net;
      best_eval = eval;
    }
  }
  outcome.layout = best_layout;
  outcome.network = best_network;
  outcome.eval = best_eval;
  outcome.feasible = best_eval.feasible;
  outcome.seconds = timer.seconds();
  outcome.cache_hits = static_cast<std::size_t>(opt_.cache_.hits());
  outcome.cache_misses = static_cast<std::size_t>(opt_.cache_.misses());
  return out;
}

IslandOutcome run_islands(TreeTopologyOptimizer& opt,
                          const std::vector<SaStage>& stages,
                          const IslandOptions& options) {
  IslandEngine engine(opt, options);
  return engine.run(stages);
}

}  // namespace detail

}  // namespace lcn
