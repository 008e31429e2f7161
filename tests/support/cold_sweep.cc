#include "support/cold_sweep.h"

#include <cmath>

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
#include "core/replication.h"
#include "flow/mcmf.h"
#include "model/topsets.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace ccdn::oracle {

ColdSweepOutcome cold_theta_sweep(const RbcaerConfig& config,
                                  std::span<const Hotspot> hotspots,
                                  const GridIndex& index,
                                  HotspotPartition& partition,
                                  std::int64_t max_movable,
                                  std::span<const std::uint32_t> cluster_of) {
  ColdSweepOutcome out;
  Stopwatch stage_clock;
  const auto absorb = [&](const std::vector<FlowEntry>& extracted) {
    for (const auto& f : extracted) {
      partition.phi[f.from] -= f.amount;
      partition.phi[f.to] -= f.amount;
      CCDN_ENSURE(partition.phi[f.from] >= 0 && partition.phi[f.to] >= 0,
                  "flow exceeded slack");
      out.moved += f.amount;
    }
    out.flows.insert(out.flows.end(), extracted.begin(), extracted.end());
  };

  constexpr double kThetaEps = 1e-9;
  stage_clock.reset();
  const std::vector<CandidateEdge> candidates =
      candidate_edges(hotspots, partition, config.theta2_km, index);
  out.graph_s += stage_clock.elapsed_seconds();
  double theta = config.theta1_km;
  while (theta <= config.theta2_km + kThetaEps && out.moved < max_movable) {
    stage_clock.reset();
    BalanceGraph graph =
        config.content_aggregation
            ? build_gc(partition, candidates, theta, cluster_of, config.guide)
            : build_gd(partition, candidates, theta);
    out.graph_s += stage_clock.elapsed_seconds();
    out.guide_nodes += graph.num_guide_nodes;
    ++out.theta_iterations;
    stage_clock.reset();
    (void)MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
    out.mcmf_s += stage_clock.elapsed_seconds();
    absorb(extract_flows(graph));
    theta += config.delta_km;
  }
  if (out.moved < max_movable) {
    // Residual pass on the plain distance graph at θ2 (Algorithm 1,
    // line 12).
    stage_clock.reset();
    BalanceGraph graph = build_gd(partition, candidates, config.theta2_km);
    out.graph_s += stage_clock.elapsed_seconds();
    stage_clock.reset();
    (void)MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
    out.mcmf_s += stage_clock.elapsed_seconds();
    absorb(extract_flows(graph));
  }
  return out;
}

SweepRecord cold_sweep(HotspotPartition partition,
                       const std::vector<CandidateEdge>& candidates,
                       const std::vector<double>& thetas, bool aggregation,
                       std::span<const std::uint32_t> cluster_of,
                       const GuideOptions& guide) {
  SweepRecord rec;
  for (const double theta : thetas) {
    BalanceGraph graph =
        aggregation ? build_gc(partition, candidates, theta, cluster_of, guide)
                    : build_gd(partition, candidates, theta);
    const auto result =
        MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
    rec.cost += result.cost;
    rec.guide_nodes += graph.num_guide_nodes;
    for (const auto& f : extract_flows(graph)) {
      partition.phi[f.from] -= f.amount;
      partition.phi[f.to] -= f.amount;
      rec.moved += f.amount;
      rec.flows.push_back(f);
    }
  }
  merge_flow_entries(rec.flows);
  rec.phi = partition.phi;
  return rec;
}

ColdPlan cold_plan_slot(const RbcaerConfig& config,
                        const SchemeContext& context,
                        std::span<const Request> requests,
                        const SlotDemand& demand) {
  CCDN_REQUIRE(demand.num_hotspots() == context.hotspots.size(),
               "demand/hotspot count mismatch");
  const std::size_t m = context.hotspots.size();
  std::vector<std::uint32_t> loads(m);
  for (std::size_t h = 0; h < m; ++h) {
    loads[h] = demand.load(static_cast<HotspotIndex>(h));
  }
  HotspotPartition partition =
      HotspotPartition::from_loads(context.hotspots, loads);
  const std::int64_t max_movable = partition.max_movable();

  ColdPlan out;
  std::vector<FlowEntry> flows;
  if (max_movable > 0) {
    std::vector<std::uint32_t> cluster_of(m, 0);
    if (config.content_aggregation) {
      const auto top_sets = top_sets_per_hotspot(demand, config.top_fraction);
      const DistanceMatrix jd = content_distance_matrix(
          top_sets, {.use_bitmap = config.bitmap_jaccard, .simd = config.simd});
      const ClusteringResult clustering =
          hierarchical_cluster(jd, config.linkage,
                               config.content_cluster_threshold, config.simd);
      cluster_of = clustering.labels;
      out.num_clusters = clustering.num_clusters;
    }
    ColdSweepOutcome sweep =
        cold_theta_sweep(config, context.hotspots, context.hotspot_index,
                         partition, max_movable, cluster_of);
    out.moved = sweep.moved;
    out.guide_nodes = sweep.guide_nodes;
    out.theta_iterations = sweep.theta_iterations;
    out.graph_s = sweep.graph_s;
    out.mcmf_s = sweep.mcmf_s;
    flows = std::move(sweep.flows);
  }
  merge_flow_entries(flows);

  const auto budget = static_cast<std::size_t>(std::llround(
      config.bpeak_multiplier * static_cast<double>(demand.num_requests())));
  ReplicationResult replication = content_aggregation_replication(
      demand, context.hotspots, flows, budget);
  out.replicas = replication.replicas;
  out.plan.placements = std::move(replication.placements);
  out.plan.assignment = materialize_assignment(
      requests, demand.request_home(), std::move(replication.redirects));
  return out;
}

std::vector<std::string> plan_mismatches(
    const SlotPlan& plan, const RbcaerScheme::Diagnostics& diagnostics,
    const ColdPlan& oracle) {
  std::vector<std::string> out;
  if (plan.assignment != oracle.plan.assignment) out.emplace_back("assignment");
  if (plan.placements != oracle.plan.placements) out.emplace_back("placements");
  if (diagnostics.moved != oracle.moved) out.emplace_back("moved");
  if (diagnostics.guide_nodes != oracle.guide_nodes) {
    out.emplace_back("guide_nodes");
  }
  if (diagnostics.theta_iterations != oracle.theta_iterations) {
    out.emplace_back("theta_iterations");
  }
  if (diagnostics.num_clusters != oracle.num_clusters) {
    out.emplace_back("num_clusters");
  }
  if (diagnostics.replicas != oracle.replicas) out.emplace_back("replicas");
  return out;
}

}  // namespace ccdn::oracle
