// Self-contained Gd/Gc graphs, rebuilt from scratch per θ.
//
// build_gd/build_gc assemble the whole balancing graph for one θ from the
// partition's current slack with the production builders of
// core/balance_graph.h (build_scaffold + append_gd_edges/append_gc_edges),
// so a cold solve of the result is the per-θ reference the warm
// ThetaSweeper must reproduce. src/ never builds these: it plans with the
// persistent sweeper network instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "flow/network.h"
#include "model/types.h"

namespace ccdn::oracle {

/// All pairs with distance < radius_km via the O(|Hs|·|Ht|) pair scan: the
/// differential reference for the indexed candidate_edges (same edges, same
/// order) and the candidate source for tiny fixtures.
[[nodiscard]] std::vector<CandidateEdge> candidate_edges_pairscan(
    std::span<const Hotspot> hotspots, const HotspotPartition& partition,
    double radius_km);

/// A constructed balancing graph plus the bookkeeping needed to read
/// per-(i,j) flows back out after MCMF.
struct BalanceGraph {
  FlowNetwork net{0};
  NodeId source = 0;
  NodeId sink = 0;
  std::vector<PairEdge> pair_edges;
  std::size_t num_guide_nodes = 0;
};

/// Build Gd over the candidate pairs with d_ij < theta_km, using the
/// partition's *current* φ values (pairs whose endpoint has φ = 0 are
/// dropped).
[[nodiscard]] BalanceGraph build_gd(const HotspotPartition& partition,
                                    std::span<const CandidateEdge> candidates,
                                    double theta_km);

/// Build Gc: Gd plus flow-guide nodes derived from content-cluster labels
/// (one label per hotspot, e.g. from hierarchical_cluster).
[[nodiscard]] BalanceGraph build_gc(const HotspotPartition& partition,
                                    std::span<const CandidateEdge> candidates,
                                    double theta_km,
                                    std::span<const std::uint32_t> cluster_of,
                                    const GuideOptions& options = {});

/// Read the per-pair flows out of a solved graph (entries with flow > 0,
/// merged by pair, ordered by (from, to)).
[[nodiscard]] std::vector<FlowEntry> extract_flows(const BalanceGraph& graph);

}  // namespace ccdn::oracle
