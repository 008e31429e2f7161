// The cold rebuild-per-θ oracle for Algorithm 1's flow phase.
//
// At every θ step the cold path builds a fresh BalanceGraph (Gc or Gd) from
// the live slack, solves it from zero flow with SPFA and commits the
// extracted flows. src/ plans with the warm ThetaSweeper instead, which
// must reproduce these flows bit for bit (DESIGN.md §3.7); this library is
// the reference the tests and fig8's θ-sweep rows compare it against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/balance_graph.h"
#include "core/rbcaer_scheme.h"
#include "core/scheme.h"
#include "geo/grid_index.h"
#include "model/demand.h"

namespace ccdn::oracle {

/// Flow-phase result of the cold sweep (Algorithm 1 lines 5–12).
struct ColdSweepOutcome {
  std::vector<FlowEntry> flows;  // per-θ increments, unmerged
  std::int64_t moved = 0;
  std::int64_t residual_moved = 0;  // the residual Gd pass's share
  std::size_t guide_nodes = 0;
  std::size_t theta_iterations = 0;
  double graph_s = 0.0;
  double mcmf_s = 0.0;
};

/// The cold θ sweep over Gc (or Gd when aggregation is off) from θ1 in
/// steps of δ up to θ2 while less than `max_movable` has moved, then the
/// residual Gd pass at θ2. Decrements `partition.phi` for every committed
/// unit, like the warm sweep.
[[nodiscard]] ColdSweepOutcome cold_theta_sweep(
    const RbcaerConfig& config, std::span<const Hotspot> hotspots,
    const GridIndex& index, HotspotPartition& partition,
    std::int64_t max_movable, std::span<const std::uint32_t> cluster_of);

/// One cold solve per θ of an explicit grid, without the max_movable stop
/// or a residual pass: the step-level reference for ThetaSweeper.
struct SweepRecord {
  std::int64_t moved = 0;
  double cost = 0.0;
  std::size_t guide_nodes = 0;
  std::vector<FlowEntry> flows;   // merged across all steps
  std::vector<std::int64_t> phi;  // partition slack after the sweep
};

[[nodiscard]] SweepRecord cold_sweep(
    HotspotPartition partition, const std::vector<CandidateEdge>& candidates,
    const std::vector<double>& thetas, bool aggregation,
    std::span<const std::uint32_t> cluster_of, const GuideOptions& guide);

/// A whole RBCAer slot planned on the cold path: clustering as
/// RbcaerScheme does it, the cold sweep, then Procedure 1
/// (content_aggregation_replication) and materialize_assignment. Matches an
/// unsharded RbcaerScheme with miss_redirection=false; miss rerouting only
/// reads the plan, so equality here implies equality with it on.
struct ColdPlan {
  SlotPlan plan;
  std::int64_t moved = 0;
  std::int64_t residual_moved = 0;
  std::size_t guide_nodes = 0;
  std::size_t theta_iterations = 0;
  std::size_t num_clusters = 0;
  std::size_t replicas = 0;
  double graph_s = 0.0;  // the cold sweep's graph builds
  double mcmf_s = 0.0;   // the cold sweep's MCMF solves
};

[[nodiscard]] ColdPlan cold_plan_slot(const RbcaerConfig& config,
                                      const SchemeContext& context,
                                      std::span<const Request> requests,
                                      const SlotDemand& demand);

/// The fields in which a RbcaerScheme plan and its diagnostics differ from
/// the oracle's: assignment, placements, moved, guide nodes, θ iterations,
/// clusters and replicas. Empty means identical.
[[nodiscard]] std::vector<std::string> plan_mismatches(
    const SlotPlan& plan, const RbcaerScheme::Diagnostics& diagnostics,
    const ColdPlan& oracle);

}  // namespace ccdn::oracle
