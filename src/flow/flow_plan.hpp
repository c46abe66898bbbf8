// Symbolic half of the flow-matrix assembly (DESIGN.md §S18).
//
// The sparsity pattern of the pressure system G·P = Q_in depends only on the
// network geometry: which cells are liquid, which pairs neighbor each other,
// and where the ports sit. Reliability sweeps solve the same network dozens
// of times with different per-cell conductance scales; optimization probes
// re-solve identical networks after cache misses. FlowPlan captures the
// symbolic work (liquid indexing, port-reachability check, COO→CSR analysis)
// once per distinct network, so each subsequent solve is a numeric refill.
//
// Plans are held in FlowPlanCache instances keyed by
// CoolingNetwork::content_hash() and verified against a stored copy of the
// network with operator== — a hash collision degrades to a rebuild, never to
// a wrong plan. One process-wide cache serves single-job binaries; service
// sessions (DESIGN.md §S22) may own a private shard instead, routed through
// the calling thread's TaskContext, so one tenant's cache churn (or clear)
// never touches another's.
//
// Bit-identity contract: a solve through the plan produces the same CSR
// matrix, right-hand side, and therefore the same solution as the historical
// fresh TripletList traversal (see SparsityPlan's contract). The one corner
// where the pattern could differ — a conductance underflowing to exactly 0.0,
// which the fresh path's TripletList::add would have dropped — is detected at
// refill time and routed back to the fresh assembly path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "network/cooling_network.hpp"
#include "sparse/sparsity_plan.hpp"

namespace lcn {

struct FlowPlan {
  /// One matrix-entry emission of the fresh traversal, in emission order.
  /// Pair slots carry the two grid cell ids whose harmonic-mean conductance
  /// feeds the entry; port slots carry the port's cell id twice.
  enum class SlotKind : std::uint8_t {
    kPair,     ///< +g(cell_a, cell_b)
    kPairNeg,  ///< -g(cell_a, cell_b)
    kPort,     ///< +g_edge · scale(cell_a)
  };
  struct Slot {
    std::size_t cell_a = 0;
    std::size_t cell_b = 0;
    SlotKind kind = SlotKind::kPair;
  };
  /// One inlet right-hand-side contribution, in port order.
  struct InletOp {
    std::size_t node = 0;  ///< dense liquid index
    std::size_t cell = 0;  ///< grid linear id of the port's cell
  };

  std::size_t n = 0;  ///< liquid cell count
  std::vector<std::size_t> liquid_cells;
  std::vector<std::int32_t> liquid_index;
  std::vector<Slot> slots;
  std::vector<InletOp> inlet_ops;
  sparse::SparsityPlan pattern;

  /// Symbolic analysis of one network. Throws lcn::RuntimeError exactly where
  /// a fresh solve would: no liquid cells, or a liquid component with no port
  /// (singular pressure system).
  static std::shared_ptr<const FlowPlan> analyze(const CoolingNetwork& net);
};

/// One flow-plan cache shard. Thread-safe: lookups and inserts serialize on
/// an internal mutex; plans are immutable and handed out as shared_ptr, so
/// clear() under concurrent readers is safe — a reader either resolved its
/// plan before the clear (and keeps it alive through its shared_ptr) or
/// rebuilds after it; it never observes a half-cleared entry.
class FlowPlanCache {
 public:
  /// Look up (or build and cache) the plan for `net`. Bumps the
  /// flow_plan_hits / flow_plan_misses metrics counters. Failed analyses
  /// (degenerate networks) are not cached and rethrow on every call,
  /// matching the fresh path's behavior.
  std::shared_ptr<const FlowPlan> plan_for(const CoolingNetwork& net);

  /// Drop every cached plan. In-flight solves holding a plan shared_ptr are
  /// unaffected; subsequent lookups rebuild.
  void clear();

  /// Distinct cached plans (collision-bucket entries counted individually).
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  /// Hash bucket -> (network copy, plan). The copy disambiguates collisions.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<CoolingNetwork,
                                           std::shared_ptr<const FlowPlan>>>>
      entries_;
};

/// The process-wide cache (single-job binaries, sessions without a private
/// shard).
FlowPlanCache& global_flow_plan_cache();

/// Look up (or build and cache) the plan for `net` in the calling thread's
/// session shard when its TaskContext carries one (§S22), in the
/// process-wide cache otherwise.
std::shared_ptr<const FlowPlan> flow_plan_for(const CoolingNetwork& net);

/// Drop every plan in the *process-wide* cache (test hook; also useful to
/// bound memory in long-running processes that churn through many distinct
/// networks). Safe under concurrent readers — see FlowPlanCache::clear().
/// Session shards are owned and cleared by their SessionContext instead.
void flow_plan_cache_clear();

}  // namespace lcn
