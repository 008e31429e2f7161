#include "support/cold_graph.h"

#include "geo/geo_point.h"
#include "util/error.h"

namespace ccdn::oracle {

std::vector<CandidateEdge> candidate_edges_pairscan(
    std::span<const Hotspot> hotspots, const HotspotPartition& partition,
    double radius_km) {
  CCDN_REQUIRE(radius_km >= 0.0, "negative radius");
  std::vector<CandidateEdge> edges;
  for (const auto i : partition.overloaded) {
    for (const auto j : partition.underutilized) {
      const double d =
          distance_km(hotspots[i].location, hotspots[j].location);
      if (d < radius_km) edges.push_back({i, j, d});
    }
  }
  return edges;
}

namespace {

/// Candidates filtered to d < θ with both endpoints still having slack.
std::vector<CandidateEdge> live_candidates(
    const HotspotPartition& partition,
    std::span<const CandidateEdge> candidates, double theta_km) {
  std::vector<CandidateEdge> live;
  for (const auto& c : candidates) {
    if (c.distance_km < theta_km && partition.phi[c.from] > 0 &&
        partition.phi[c.to] > 0) {
      live.push_back(c);
    }
  }
  return live;
}

}  // namespace

BalanceGraph build_gd(const HotspotPartition& partition,
                      std::span<const CandidateEdge> candidates,
                      double theta_km) {
  BalanceGraph graph;
  ScaffoldMap map;
  build_scaffold(graph.net, partition, map);
  graph.source = map.source;
  graph.sink = map.sink;
  append_gd_edges(graph.net, map, partition,
                  live_candidates(partition, candidates, theta_km),
                  graph.pair_edges);
  return graph;
}

BalanceGraph build_gc(const HotspotPartition& partition,
                      std::span<const CandidateEdge> candidates,
                      double theta_km,
                      std::span<const std::uint32_t> cluster_of,
                      const GuideOptions& options) {
  BalanceGraph graph;
  ScaffoldMap map;
  build_scaffold(graph.net, partition, map);
  graph.source = map.source;
  graph.sink = map.sink;
  GcScratch scratch;
  graph.num_guide_nodes = append_gc_edges(
      graph.net, map, partition,
      live_candidates(partition, candidates, theta_km), theta_km, cluster_of,
      options, graph.pair_edges, scratch);
  return graph;
}

std::vector<FlowEntry> extract_flows(const BalanceGraph& graph) {
  std::vector<FlowEntry> entries;
  entries.reserve(graph.pair_edges.size());
  for (const auto& pair : graph.pair_edges) {
    const std::int64_t f = graph.net.flow(pair.edge);
    if (f > 0) entries.push_back({pair.from, pair.to, f});
  }
  merge_flow_entries(entries);
  return entries;
}

}  // namespace ccdn::oracle
