// Min-cost max-flow via successive shortest augmenting paths.
//
// This is the MCMF engine Algorithm 1 invokes on the Gd/Gc graphs
// (the paper cites Ford-Fulkerson flows [19]). Two path-search strategies
// are provided: SPFA (Bellman-Ford queue variant; handles the negative
// residual costs directly) and Dijkstra with Johnson potentials (faster on
// large sparse graphs). Both produce a maximum flow of minimum total cost.
// Costs are km of geo-distance, compared with a 1e-9 noise tolerance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "flow/network.h"
#include "util/arena.h"

namespace ccdn {

enum class McmfStrategy {
  kSpfa,
  kDijkstraPotentials,
};

struct McmfResult {
  std::int64_t flow = 0;
  double cost = 0.0;
};

/// Reusable successive-shortest-path engine.
///
/// Unlike the one-shot MinCostMaxFlow wrappers below, a solver instance owns
/// its search buffers (distance/parent/visited arrays, the SPFA queue flags
/// and the Dijkstra heap) and its node potentials across calls, so a caller
/// that solves many related instances — the θ sweep solves one per θ step —
/// stops re-allocating five per-node vectors for every augmentation. Passing
/// a BumpArena additionally backs those buffers with the caller's lane arena
/// (util/arena.h), so a clone-ring lane's scratch is contiguous and
/// steady-state slots perform no heap allocation.
///
/// augment() continues from the network's *current* residual state: calling
/// it again after pushing flow or appending edges only routes whatever
/// additional flow has become feasible. For the Dijkstra strategy the
/// carried potentials must price every positive-capacity residual arc
/// non-negatively; augmentation preserves that invariant, but appending
/// edges can break it — check potentials_valid_for() over the new edges and
/// fall back to reprice() or reset_potentials() (see DESIGN.md §3.7).
class McmfSolver {
 public:
  static constexpr std::int64_t kUnlimited =
      std::numeric_limits<std::int64_t>::max();

  explicit McmfSolver(McmfStrategy strategy = McmfStrategy::kSpfa,
                      BumpArena* arena = nullptr)
      : strategy_(strategy),
        state_(arena),
        potential_(ArenaAllocator<double>(arena)) {}

  [[nodiscard]] McmfStrategy strategy() const noexcept { return strategy_; }

  /// Min-cost augmentation from the current residual state until no
  /// source→sink path remains or `flow_limit` additional units have been
  /// routed. Returns the flow and cost of the *increment* routed by this
  /// call only.
  McmfResult augment(FlowNetwork& net, NodeId source, NodeId sink,
                     std::int64_t flow_limit = kUnlimited);

  /// Reset the carried potentials to zero for an `num_nodes`-node network.
  /// Zero potentials are valid exactly when every positive-capacity
  /// residual arc has non-negative cost — true for a fresh network (forward
  /// costs are non-negative) and again right after
  /// FlowNetwork::freeze_residuals().
  void reset_potentials(std::size_t num_nodes);

  /// True when every forward edge with id >= `first_edge` (and positive
  /// capacity) prices non-negatively under the carried potentials, and both
  /// endpoints actually hold potentials. After an augment(), newly appended
  /// edges are the only arcs that can violate validity, so callers only
  /// need to check the suffix they added.
  [[nodiscard]] bool potentials_valid_for(const FlowNetwork& net,
                                          EdgeId first_edge) const;

  /// Re-price: recompute exact shortest-path-by-cost potentials from
  /// `source` with SPFA (which tolerates negative residual arcs). Nodes
  /// unreachable from the source are priced at the largest reached
  /// distance; that keeps every arc between reached nodes and every
  /// non-negative-cost arc valid, which covers the post-freeze networks the
  /// θ sweep re-prices (all residual arcs non-negative).
  void reprice(const FlowNetwork& net, NodeId source);

  /// Incremental re-price after appending edges: restore validity by
  /// *lowering* the potentials that edges with id >= `first_edge` violate,
  /// cascading each decrease through the arcs it tightens (a seeded SPFA
  /// relaxation over the existing potentials). Touches only the violation's
  /// neighborhood instead of the whole graph; when the new edges already
  /// price non-negatively this is a pure O(new edges) check and does not
  /// count as a reprice(). Requires a negative-cycle-free residual graph —
  /// always true post-freeze where every arc cost is non-negative.
  ///
  /// `clamp_arcs` names *old* arcs whose heads may have gone stale while
  /// unreachable (the θ sweep's dormant senders, whose potentials stand
  /// still while the source's drifts down). They get the same
  /// relax-and-cascade treatment but are expected maintenance and never
  /// count toward reprices().
  void reprice_from(const FlowNetwork& net, EdgeId first_edge,
                    std::span<const EdgeId> clamp_arcs = {});

  /// Number of reprice() calls since construction (observability for the
  /// warm-start potentials fallback).
  [[nodiscard]] std::size_t reprices() const noexcept { return reprices_; }

  /// The carried node potentials (sized by the last reset_potentials /
  /// reprice call; empty before either). Exposed for the flow auditor's
  /// reduced-cost check — see verify/flow_audit.h.
  [[nodiscard]] std::span<const double> potentials() const noexcept {
    return potential_;
  }

 private:
  /// Scratch buffers shared by the SPFA and Dijkstra searches, reused
  /// across augmentations and across solves.
  /// Per-node labels are validity-stamped instead of cleared: a label is
  /// live only when its stamp equals the current search's, so starting a
  /// search is O(1) instead of five O(n) fills — the dominant cost when the
  /// θ sweep runs a thousand searches on small per-step graphs.
  struct SearchState {
    explicit SearchState(BumpArena* arena)
        : dist(ArenaAllocator<double>(arena)),
          parent_edge(ArenaAllocator<EdgeId>(arena)),
          seen(ArenaAllocator<std::uint32_t>(arena)),
          settled(ArenaAllocator<std::uint32_t>(arena)),
          touched(ArenaAllocator<NodeId>(arena)),
          in_queue(ArenaAllocator<char>(arena)),
          queue(ArenaAllocator<NodeId>(arena)),
          heap(ArenaAllocator<std::pair<double, NodeId>>(arena)) {}

    ArenaVector<double> dist;
    ArenaVector<EdgeId> parent_edge;
    ArenaVector<std::uint32_t> seen;     // stamp: dist/parent valid
    ArenaVector<std::uint32_t> settled;  // stamp: Dijkstra label final
    ArenaVector<NodeId> touched;  // nodes seen this search, in seen order
    ArenaVector<char> in_queue;  // SPFA membership; all-zero between runs
    ArenaVector<NodeId> queue;   // SPFA deque storage
    ArenaVector<std::pair<double, NodeId>> heap;  // Dijkstra binary heap
    std::uint32_t stamp = 0;

    /// Open a new search over `n` nodes: bump the stamp (invalidating all
    /// labels) and grow the buffers if the network grew.
    void begin_search(std::size_t n) {
      if (++stamp == 0) {  // wrapped: old stamps would alias as live
        std::fill(seen.begin(), seen.end(), 0);
        std::fill(settled.begin(), settled.end(), 0);
        stamp = 1;
      }
      touched.clear();
      if (dist.size() < n) {
        dist.resize(n);
        parent_edge.resize(n);
        seen.resize(n, 0);
        settled.resize(n, 0);
        in_queue.resize(n, 0);
      }
    }
  };

  bool spfa(const FlowNetwork& net, NodeId source, NodeId sink);
  bool dijkstra(const FlowNetwork& net, NodeId source, NodeId sink);
  void update_potentials(NodeId sink);

  McmfStrategy strategy_;
  SearchState state_;
  ArenaVector<double> potential_;
  std::size_t reprices_ = 0;
};

class MinCostMaxFlow {
 public:
  /// Computes a min-cost max-flow from `source` to `sink`, mutating the
  /// residual capacities of `net`. All forward-edge costs must be
  /// non-negative.
  static McmfResult solve(FlowNetwork& net, NodeId source, NodeId sink,
                          McmfStrategy strategy = McmfStrategy::kSpfa);

  /// Same, but stop once `flow_limit` units have been routed.
  static McmfResult solve_up_to(FlowNetwork& net, NodeId source, NodeId sink,
                                std::int64_t flow_limit,
                                McmfStrategy strategy = McmfStrategy::kSpfa);
};

}  // namespace ccdn
