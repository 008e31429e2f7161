// Request-balancing flow graphs Gd and Gc (paper §IV-A / §IV-B).
//
// Gd: bipartite min-cost max-flow network
//     source → overloaded hotspots (cap φ_i) → under-utilized hotspots
//     (edges only when d_ij < θ, cap min(φ_i, φ_j), cost d_ij) → sink
//     (cap φ_j), where φ_i = |s_i − λ_i|.
//
// Gc: Gd with *flow-guide nodes*: for an under-utilized hotspot j and a
//     content cluster P_k whose members could jointly fill at least half of
//     j's slack (or whose cluster contains j itself), the members' direct
//     edges to j are replaced by a shared guide node n_kj. The guide
//     aggregates same-cluster flow so that Procedure 1 can serve many
//     redirected requests with few extra replicas.
//
// Construction is split in two layers: build_gd/build_gc return a
// self-contained BalanceGraph (the cold rebuild-per-θ path of the test
// oracle, tests/support/cold_sweep.h, and of fig9's θ study), while
// build_scaffold/append_gd_edges/append_gc_edges build the same structure
// piecewise into a caller-owned FlowNetwork — that is what the incremental
// θ sweep (core/theta_sweep.h) uses to keep one persistent network per slot.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "flow/mcmf.h"
#include "flow/network.h"
#include "geo/grid_index.h"
#include "model/types.h"
#include "util/arena.h"

namespace ccdn {

/// Split of hotspots into overloaded/under-utilized with movable slack φ.
struct HotspotPartition {
  std::vector<std::uint32_t> overloaded;      // H_s: λ_i > s_i
  std::vector<std::uint32_t> underutilized;   // H_t: λ_i < s_i
  std::vector<std::int64_t> phi;              // φ_i = |s_i − λ_i| (0 if balanced)

  /// Build from per-hotspot loads and capacities.
  [[nodiscard]] static HotspotPartition from_loads(
      std::span<const Hotspot> hotspots, std::span<const std::uint32_t> loads);

  /// min(Σ_{i∈Hs} φ_i, Σ_{j∈Ht} φ_j): the workload that could move.
  [[nodiscard]] std::int64_t max_movable() const;
};

/// A candidate (overloaded → under-utilized) pair with its distance.
struct CandidateEdge {
  std::uint32_t from = 0;  // overloaded hotspot index
  std::uint32_t to = 0;    // under-utilized hotspot index
  double distance_km = 0.0;
};

/// All pairs with distance < radius_km (the widest θ the caller will use),
/// via the O(|Hs|·|Ht|) pair scan. Kept as the differential oracle for the
/// GridIndex overload below (and for tiny fixtures); production slot
/// planning must use the indexed version.
[[nodiscard]] std::vector<CandidateEdge> candidate_edges_pairscan(
    std::span<const Hotspot> hotspots, const HotspotPartition& partition,
    double radius_km);

/// Same result, computed with a radius query per overloaded hotspot against
/// `index` (a GridIndex over the hotspot locations, same order) instead of
/// the O(|Hs|·|Ht|) pair scan. Edges come back in the same order as the
/// scan: by partition.overloaded order, then ascending receiver index.
[[nodiscard]] std::vector<CandidateEdge> candidate_edges(
    std::span<const Hotspot> hotspots, const HotspotPartition& partition,
    double radius_km, const GridIndex& index);

/// A constructed balancing graph plus the bookkeeping needed to read
/// per-(i,j) flows back out after MCMF.
struct BalanceGraph {
  FlowNetwork net{0};
  NodeId source = 0;
  NodeId sink = 0;

  struct PairEdge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    EdgeId edge = 0;  // forward edge carrying f_ij (direct or i→n_kj)
  };
  std::vector<PairEdge> pair_edges;
  std::size_t num_guide_nodes = 0;
};

/// Dense hotspot → flow-node map for a scaffold built by build_scaffold.
struct ScaffoldMap {
  static constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

  NodeId source = 0;
  NodeId sink = 0;
  /// Indexed by hotspot id; kNoNode for hotspots with no remaining slack.
  std::vector<NodeId> node_of;

  [[nodiscard]] NodeId at(std::uint32_t hotspot) const {
    const NodeId node = node_of[hotspot];
    CCDN_ASSERT(node != kNoNode, "hotspot has no scaffold node");
    return node;
  }
};

/// Reset `net` to the shared Gd/Gc scaffold for `partition`: source, sink,
/// one node per hotspot with remaining slack, and the source/sink arcs
/// (cap φ). Reuses the network's existing buffers (FlowNetwork::clear), so
/// a per-slot loop allocates nothing after the first build.
void build_scaffold(FlowNetwork& net, const HotspotPartition& partition,
                    ScaffoldMap& map);

/// Append the direct pair edge (cap min(φ_i, φ_j), cost d_ij) for every
/// candidate in `live` — the caller has already filtered to d < θ and
/// φ > 0 on both endpoints. Records each edge in `pair_edges`.
void append_gd_edges(FlowNetwork& net, const ScaffoldMap& map,
                     const HotspotPartition& partition,
                     std::span<const CandidateEdge> live,
                     std::vector<BalanceGraph::PairEdge>& pair_edges);

/// Options for the guide-node construction.
struct GuideOptions {
  /// Insert n_kj when Σ φ_ij >= fill_threshold · φ_j (paper: 1/2) or when
  /// j belongs to cluster k.
  double fill_threshold = 0.5;
  /// Scale applied to the raw guide cost Σφ_ij/‖H_jk‖. When `auto_scale` is
  /// set, the raw costs are additionally normalized so their median matches
  /// the median direct-edge distance — the paper's formula mixes request
  /// units with km, and without normalization guide paths would never be
  /// chosen (see DESIGN.md).
  double cost_scale = 1.0;
  bool auto_scale = true;
};

/// Reusable buffers for append_gc_edges; a caller that derives the guide
/// structure once per θ step keeps one of these across steps. Construct
/// with a BumpArena to fold the buffers into a lane's arena working set
/// (default-constructed scratch stays heap-backed for one-shot callers).
struct GcScratch {
  struct Key {
    std::uint32_t j = 0;    // under-utilized receiver
    std::uint32_t k = 0;    // sender's content cluster
    std::uint32_t idx = 0;  // position in `live` (keeps sorting unique)
  };
  GcScratch() = default;
  explicit GcScratch(BumpArena* arena)
      : keys(ArenaAllocator<Key>(arena)),
        group_start(ArenaAllocator<std::uint32_t>(arena)),
        phi_sum(ArenaAllocator<std::int64_t>(arena)),
        guided(ArenaAllocator<std::uint8_t>(arena)),
        direct_distances(ArenaAllocator<double>(arena)),
        raw_guide_costs(ArenaAllocator<double>(arena)) {}

  ArenaVector<Key> keys;
  ArenaVector<std::uint32_t> group_start;  // boundaries into keys
  ArenaVector<std::int64_t> phi_sum;       // Σ φ_ij per group
  ArenaVector<std::uint8_t> guided;        // per-group guide decision
  ArenaVector<double> direct_distances;
  ArenaVector<double> raw_guide_costs;
};

/// Append the Gc structure over `live` (filtered as for append_gd_edges):
/// direct edges for un-guided groups, guide nodes n_kj plus member and
/// aggregate edges for guided ones. Grouping is by sort on (j, k) — same
/// group order and same within-group member order as the candidate list.
/// Returns the number of guide nodes added.
std::size_t append_gc_edges(FlowNetwork& net, const ScaffoldMap& map,
                            const HotspotPartition& partition,
                            std::span<const CandidateEdge> live,
                            double theta_km,
                            std::span<const std::uint32_t> cluster_of,
                            const GuideOptions& options,
                            std::vector<BalanceGraph::PairEdge>& pair_edges,
                            GcScratch& scratch);

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

/// Per-(i,j) redirected amount.
struct FlowEntry {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::int64_t amount = 0;
};

/// Sort `entries` by (from, to) and merge duplicates in place, summing
/// amounts. The shared flatten step for extract_flows and the per-slot
/// f_total accumulators.
void merge_flow_entries(std::vector<FlowEntry>& entries);

/// Read the per-pair flows out of a solved graph (entries with flow > 0,
/// merged by pair, ordered by (from, to)).
[[nodiscard]] std::vector<FlowEntry> extract_flows(const BalanceGraph& graph);

}  // namespace ccdn
