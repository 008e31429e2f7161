#include "core/theta_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/balance_graph.h"
#include "core/rbcaer_scheme.h"
#include "flow/mcmf.h"
#include "support/cold_graph.h"
#include "support/cold_sweep.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/rng.h"

namespace ccdn {
namespace {

using oracle::candidate_edges_pairscan;
using oracle::cold_sweep;
using oracle::SweepRecord;

// ---------------------------------------------------------------------------
// Differential harness: the cold rebuild-per-θ loop (the oracle in
// tests/support/cold_sweep.h) vs ThetaSweeper.
// ---------------------------------------------------------------------------

struct Instance {
  std::vector<Hotspot> hotspots;
  std::vector<std::uint32_t> loads;
  std::vector<std::uint32_t> cluster_of;
};

/// Random hotspots in a ~2 km box: distances are irrational and distinct,
/// so the min-cost flow solutions compared below are generically unique.
Instance random_instance(Rng& rng, std::size_t m, std::size_t clusters) {
  Instance inst;
  inst.hotspots.resize(m);
  inst.loads.resize(m);
  inst.cluster_of.resize(m);
  for (std::size_t h = 0; h < m; ++h) {
    inst.hotspots[h].location = {40.000 + rng.uniform(0.0, 0.020),
                                 116.500 + rng.uniform(0.0, 0.025)};
    inst.hotspots[h].service_capacity =
        static_cast<std::uint32_t>(rng.uniform_int(5, 40));
    inst.hotspots[h].cache_capacity = 20;
    inst.loads[h] = static_cast<std::uint32_t>(rng.uniform_int(0, 60));
    inst.cluster_of[h] = static_cast<std::uint32_t>(rng.index(clusters));
  }
  return inst;
}

std::vector<double> theta_grid(double theta1, double theta2, double delta) {
  std::vector<double> thetas;
  for (double t = theta1; t <= theta2 + 1e-9; t += delta) thetas.push_back(t);
  return thetas;
}

SweepRecord warm_sweep(HotspotPartition partition,
                       std::vector<CandidateEdge> candidates,
                       const std::vector<double>& thetas, bool aggregation,
                       std::span<const std::uint32_t> cluster_of,
                       const GuideOptions& guide) {
  ThetaSweeper sweeper;
  sweeper.begin_slot(partition, std::move(candidates));
  SweepRecord rec;
  for (const double theta : thetas) {
    const SweepStep step = aggregation
                               ? sweeper.step_gc(theta, cluster_of, guide)
                               : sweeper.step_gd(theta);
    rec.moved += step.moved;
    rec.cost += step.cost;
    rec.guide_nodes += step.guide_nodes;
    rec.flows.insert(rec.flows.end(), step.flows.begin(), step.flows.end());
  }
  sweeper.end_slot();
  merge_flow_entries(rec.flows);
  rec.phi = partition.phi;
  return rec;
}

void expect_same_flows(const std::vector<FlowEntry>& warm,
                       const std::vector<FlowEntry>& cold) {
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].from, cold[i].from) << "entry " << i;
    EXPECT_EQ(warm[i].to, cold[i].to) << "entry " << i;
    EXPECT_EQ(warm[i].amount, cold[i].amount) << "entry " << i;
  }
}

class ThetaSweepDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ThetaSweepDifferential, GdWarmMatchesCold) {
  Rng rng(GetParam() * 7919 + 11);
  const Instance inst = random_instance(rng, 24, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);  // 13 steps

  const SweepRecord cold = cold_sweep(partition, candidates, thetas, false,
                                      inst.cluster_of, {});
  const SweepRecord warm = warm_sweep(partition, candidates, thetas, false,
                                      inst.cluster_of, {});

  EXPECT_EQ(warm.moved, cold.moved);
  EXPECT_NEAR(warm.cost, cold.cost, 1e-6);
  EXPECT_EQ(warm.phi, cold.phi);
  expect_same_flows(warm.flows, cold.flows);
}

TEST_P(ThetaSweepDifferential, GcWarmMatchesColdBitForBit) {
  // The Gc regime rebuilds transiently on the persistent scaffold; the
  // resulting graph is search-identical to a cold build, so flows, guide
  // counts, and costs must all match exactly (DESIGN.md §3.7).
  Rng rng(GetParam() * 104729 + 3);
  const Instance inst = random_instance(rng, 24, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  const SweepRecord cold = cold_sweep(partition, candidates, thetas, true,
                                      inst.cluster_of, guide);
  const SweepRecord warm = warm_sweep(partition, candidates, thetas, true,
                                      inst.cluster_of, guide);

  EXPECT_EQ(warm.moved, cold.moved);
  EXPECT_EQ(warm.guide_nodes, cold.guide_nodes);
  EXPECT_NEAR(warm.cost, cold.cost, 1e-9);
  EXPECT_EQ(warm.phi, cold.phi);
  expect_same_flows(warm.flows, cold.flows);
}

TEST_P(ThetaSweepDifferential, GcSweepThenGdResidualMatchesCold) {
  // Algorithm 1's actual shape: Gc steps over the grid, then one residual
  // Gd pass at θ2. Exercises the kGc → kGdTransient regime switch.
  Rng rng(GetParam() * 13007 + 29);
  const Instance inst = random_instance(rng, 20, 3);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  HotspotPartition warm_partition = partition;
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  // Cold: the Gc grid, then one Gd solve at θ2 on the slack it left.
  const SweepRecord cold_gc =
      cold_sweep(partition, candidates, thetas, true, inst.cluster_of, guide);
  HotspotPartition residual = partition;
  residual.phi = cold_gc.phi;
  const SweepRecord cold_gd =
      cold_sweep(residual, candidates, {1.5}, false, inst.cluster_of, guide);
  std::vector<FlowEntry> cold_flows = cold_gc.flows;
  cold_flows.insert(cold_flows.end(), cold_gd.flows.begin(),
                    cold_gd.flows.end());
  merge_flow_entries(cold_flows);

  SweepRecord warm;
  ThetaSweeper sweeper;
  sweeper.begin_slot(warm_partition, candidates);
  const auto absorb = [&](const SweepStep& step) {
    warm.moved += step.moved;
    warm.flows.insert(warm.flows.end(), step.flows.begin(), step.flows.end());
  };
  for (const double theta : thetas) {
    absorb(sweeper.step_gc(theta, inst.cluster_of, guide));
  }
  absorb(sweeper.step_gd(1.5));
  sweeper.end_slot();
  merge_flow_entries(warm.flows);

  EXPECT_EQ(warm.moved, cold_gc.moved + cold_gd.moved);
  EXPECT_EQ(warm_partition.phi, cold_gd.phi);
  expect_same_flows(warm.flows, cold_flows);
}

TEST_P(ThetaSweepDifferential, DijkstraPotentialsStayValidAcrossSteps) {
  // Potentials-validity property test: the warm Gd sweep carries Dijkstra
  // potentials across edge insertions. Stale potentials would trip the
  // "negative reduced cost" CCDN_ENSURE inside the Dijkstra search (the
  // live assertion here); the sweep must keep running and agree with the
  // SPFA oracle. None of these seeds triggers a re-price; the re-price
  // path is pinned by McmfSolver.DetectsStalePotentialsAndReprices.
  Rng rng(GetParam() * 524287 + 1);
  const Instance inst = random_instance(rng, 30, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);

  const SweepRecord oracle = cold_sweep(partition, candidates, thetas, false,
                                        inst.cluster_of, {});
  const SweepRecord warm = warm_sweep(partition, candidates, thetas, false,
                                      inst.cluster_of, {});

  EXPECT_EQ(warm.moved, oracle.moved);
  EXPECT_NEAR(warm.cost, oracle.cost, 1e-6);
  EXPECT_EQ(warm.phi, oracle.phi);
}

INSTANTIATE_TEST_SUITE_P(RandomPartitions, ThetaSweepDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

// Once every buffer reaches its steady-state size, a sweeper replaying the
// same slot shape draws nothing more from its lane arena.
TEST(ThetaSweepArena, SteadyStateSlotsAcquireNoMemory) {
  Rng rng(987654321);
  const Instance inst = random_instance(rng, 24, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  ThetaSweeper sweeper;
  std::size_t warm_blocks = 0;
  std::size_t warm_bytes = 0;
  std::size_t warm_allocations = 0;
  for (int slot = 0; slot < 6; ++slot) {
    HotspotPartition p = partition;  // identical slot shape every time
    sweeper.begin_slot(p, candidates);
    for (const double theta : thetas) {
      (void)sweeper.step_gc(theta, inst.cluster_of, guide);
    }
    (void)sweeper.step_gd(1.5);
    sweeper.end_slot();
    const BumpArena& arena = sweeper.scratch_arena();
    if (slot == 1) {
      warm_blocks = arena.upstream_blocks();
      warm_bytes = arena.bytes_reserved();
      warm_allocations = arena.allocations();
      EXPECT_GT(warm_allocations, 0u);  // the buffers really live here
    } else if (slot > 1) {
      EXPECT_EQ(arena.upstream_blocks(), warm_blocks) << "slot " << slot;
      EXPECT_EQ(arena.bytes_reserved(), warm_bytes) << "slot " << slot;
      EXPECT_EQ(arena.allocations(), warm_allocations) << "slot " << slot;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheme-level differential: RbcaerScheme's warm sweep and the oracle's cold
// slot must produce the same SlotPlan and diagnostics.
// ---------------------------------------------------------------------------

struct Fixture {
  std::vector<Hotspot> hotspots;
  GridIndex index;
  VideoCatalog catalog{100};

  explicit Fixture(std::uint32_t service = 5, std::uint32_t cache = 10)
      : hotspots([&] {
          std::vector<Hotspot> h(4);
          h[0].location = {40.050, 116.500};  // will be overloaded
          h[1].location = {40.055, 116.505};
          h[2].location = {40.045, 116.495};
          h[3].location = {40.052, 116.510};
          for (auto& hotspot : h) {
            hotspot.service_capacity = service;
            hotspot.cache_capacity = cache;
          }
          return h;
        }()),
        index(
            [this] {
              std::vector<GeoPoint> pts;
              for (const auto& h : hotspots) pts.push_back(h.location);
              return pts;
            }(),
            0.5) {}

  SchemeContext context() const { return {hotspots, index, catalog, 20.0}; }
};

std::vector<Request> hot_demand(int count, std::vector<VideoId> videos) {
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    Request r;
    r.video = videos[static_cast<std::size_t>(i) % videos.size()];
    r.location = {40.050, 116.500};
    requests.push_back(r);
  }
  return requests;
}

/// Returns the oracle's residual-pass share of the moved flow.
std::int64_t expect_same_plan_and_diagnostics(
    RbcaerConfig config, const SchemeContext& context,
    std::span<const Request> requests, const SlotDemand& demand) {
  // Miss rerouting reads only the finished plan, so plans equal without it
  // stay equal with it; the oracle stops at Procedure 1.
  config.miss_redirection = false;
  RbcaerScheme warm(config);
  const SlotPlan plan = warm.plan_slot(context, requests, demand);
  const oracle::ColdPlan cold =
      oracle::cold_plan_slot(config, context, requests, demand);
  EXPECT_GT(warm.last_diagnostics().theta_iterations, 0u);
  std::string diverged;
  for (const std::string& field :
       oracle::plan_mismatches(plan, warm.last_diagnostics(), cold)) {
    diverged += ' ' + field;
  }
  EXPECT_TRUE(diverged.empty()) << "warm plan differs from the oracle in:"
                                << diverged;
  return cold.residual_moved;
}

TEST(ThetaSweepScheme, IncrementalMatchesColdOnSeedScenarios) {
  RbcaerConfig config;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;  // 13 θ iterations

  {
    Fixture fixture;
    const auto requests = hot_demand(20, {1, 2});
    const SlotDemand demand(requests, fixture.index);
    expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                     demand);
  }
  {
    Fixture fixture;  // over-subscribed (the grid ends at θ2, so the
                      // residual pass moves nothing; see OffGridResidual)
    const auto requests = hot_demand(40, {1, 2, 3, 4});
    const SlotDemand demand(requests, fixture.index);
    expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                     demand);
  }
  {
    Fixture fixture(/*service=*/5, /*cache=*/1);  // cache-constrained
    const auto requests = hot_demand(30, {1, 2, 3});
    const SlotDemand demand(requests, fixture.index);
    expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                     demand);
  }
}

TEST(ThetaSweepScheme, IncrementalMatchesColdWithoutAggregation) {
  RbcaerConfig config;
  config.content_aggregation = false;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;
  Fixture fixture;
  const auto requests = hot_demand(25, {1, 2, 3});
  const SlotDemand demand(requests, fixture.index);
  expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                   demand);
}

/// The 80-hotspot evaluation-region slot the generated-world cases plan.
struct GeneratedWorld {
  World world;
  std::vector<Request> trace;
  GridIndex index;

  GeneratedWorld()
      : world([] {
          WorldConfig config = WorldConfig::evaluation_region();
          config.num_hotspots = 80;
          config.num_videos = 2000;
          World w = generate_world(config);
          assign_uniform_capacities(w, 0.05, 0.03);
          return w;
        }()),
        trace([this] {
          TraceConfig trace_config;
          trace_config.num_requests = 12000;
          return generate_trace(world, trace_config);
        }()),
        index(world.hotspot_locations(), 0.75) {}

  [[nodiscard]] SchemeContext context() const {
    return {world.hotspots(), index, VideoCatalog{world.config().num_videos},
            20.0};
  }
};

TEST(ThetaSweepScheme, IncrementalMatchesColdOnGeneratedWorld) {
  const GeneratedWorld generated;
  const SlotDemand demand(generated.trace, generated.index);
  RbcaerConfig config;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;
  expect_same_plan_and_diagnostics(config, generated.context(),
                                   generated.trace, demand);

  config.content_aggregation = false;
  expect_same_plan_and_diagnostics(config, generated.context(),
                                   generated.trace, demand);
}

// A grid that stops short of θ2 (0.5, 0.9, 1.3): the candidates with
// d in [1.3, 1.5) first appear in the residual Gd pass at θ2 (Algorithm 1
// line 12), so here that pass must move flow and match the oracle's.
TEST(ThetaSweepScheme, IncrementalMatchesColdOffGridResidual) {
  const GeneratedWorld generated;
  const SlotDemand demand(generated.trace, generated.index);
  RbcaerConfig config;
  config.theta1_km = 0.5;
  config.theta2_km = 1.5;
  config.delta_km = 0.4;
  for (const bool aggregation : {true, false}) {
    config.content_aggregation = aggregation;
    EXPECT_GT(expect_same_plan_and_diagnostics(config, generated.context(),
                                               generated.trace, demand),
              0)
        << "aggregation " << aggregation;
  }
}

}  // namespace
}  // namespace ccdn
