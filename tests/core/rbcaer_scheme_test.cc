#include "core/rbcaer_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <string>

#include "core/nearest_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"

namespace ccdn {
namespace {

/// A deliberately unbalanced micro-world: one hot location with a weak
/// hotspot next to several idle hotspots.
struct Fixture {
  std::vector<Hotspot> hotspots;
  GridIndex index;
  VideoCatalog catalog{100};

  explicit Fixture(std::uint32_t service = 5, std::uint32_t cache = 10)
      : hotspots([&] {
          std::vector<Hotspot> h(4);
          h[0].location = {40.050, 116.500};  // will be overloaded
          h[1].location = {40.055, 116.505};  // ~0.7 km away
          h[2].location = {40.045, 116.495};  // ~0.7 km away
          h[3].location = {40.052, 116.510};  // ~0.9 km away
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
    r.location = {40.050, 116.500};  // all at the hot location
    requests.push_back(r);
  }
  return requests;
}

TEST(Rbcaer, ValidatesConfig) {
  RbcaerConfig config;
  config.theta1_km = -1.0;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.theta2_km = 0.1;  // below theta1
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.delta_km = 0.0;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.top_fraction = 0.0;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
}

/// A θ setting the constructor must refuse: a non-finite radius or step,
/// or a step too small to move θ past θ2. Each would keep Algorithm 1's θ
/// loop spinning while load remains, or hand ∞ to the grid's radius query.
struct BadTheta {
  const char* name;
  void (*apply)(RbcaerConfig&);
};

void PrintTo(const BadTheta& bad, std::ostream* os) { *os << bad.name; }

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

const BadTheta kBadThetas[] = {
    {"Theta2Infinite", [](RbcaerConfig& c) { c.theta2_km = kInf; }},
    {"BothRadiiInfinite",
     [](RbcaerConfig& c) { c.theta1_km = c.theta2_km = kInf; }},
    {"Theta2NaN", [](RbcaerConfig& c) { c.theta2_km = kNan; }},
    {"Theta1NaN", [](RbcaerConfig& c) { c.theta1_km = kNan; }},
    {"DeltaInfinite", [](RbcaerConfig& c) { c.delta_km = kInf; }},
    {"DeltaNaN", [](RbcaerConfig& c) { c.delta_km = kNan; }},
    {"DeltaBelowTheta2Resolution",
     [](RbcaerConfig& c) { c.delta_km = c.theta2_km * 1e-17; }},
};

class RbcaerBadTheta : public testing::TestWithParam<BadTheta> {};

TEST_P(RbcaerBadTheta, FlatSchemeRejects) {
  RbcaerConfig config;
  GetParam().apply(config);
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
}

TEST_P(RbcaerBadTheta, VirtualSchemeRejects) {
  VirtualRbcaerConfig config;
  GetParam().apply(config.regional);
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(ThetaConfigs, RbcaerBadTheta,
                         testing::ValuesIn(kBadThetas),
                         [](const testing::TestParamInfo<BadTheta>& bad) {
                           return std::string(bad.param.name);
                         });

TEST(Rbcaer, NameReflectsAblation) {
  EXPECT_EQ(RbcaerScheme().name(), "RBCAer");
  RbcaerConfig config;
  config.content_aggregation = false;
  EXPECT_EQ(RbcaerScheme(config).name(), "RBCAer(no-aggregation)");
}

TEST(Rbcaer, OffloadsOverloadedHotspot) {
  Fixture fixture;
  const auto requests = hot_demand(20, {1, 2});
  const SlotDemand demand(requests, fixture.index);
  EXPECT_EQ(demand.load(0), 20u);  // everything aggregates at hotspot 0
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto& diag = scheme.last_diagnostics();
  EXPECT_EQ(diag.max_movable, 15);  // 20 - 5 capacity
  EXPECT_EQ(diag.moved, 15);        // 3 idle hotspots x 5 slack
  EXPECT_EQ(diag.redirected, 15);
  // Redirected requests are spread across the neighbours.
  std::vector<int> assigned(4, 0);
  for (const auto target : plan.assignment) {
    ASSERT_NE(target, kCdnServer);
    ++assigned[target];
  }
  EXPECT_EQ(assigned[0], 5);
  EXPECT_EQ(assigned[1] + assigned[2] + assigned[3], 15);
}

TEST(Rbcaer, RedirectionsNeverOvercommitReceivers) {
  // 40 requests against 20 total slack: the surplus stays at the home
  // hotspot (admission rejects it to the CDN per Algorithm 1, line 14),
  // but every *redirected* assignment must respect the target's capacity.
  Fixture fixture;
  const auto requests = hot_demand(40, {1, 2, 3, 4});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto homes = demand.request_home();
  std::vector<std::uint32_t> redirected(4, 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto target = plan.assignment[r];
    if (target != kCdnServer && target != homes[r]) ++redirected[target];
  }
  for (std::size_t h = 1; h < 4; ++h) {
    EXPECT_LE(redirected[h], fixture.hotspots[h].service_capacity)
        << "hotspot " << h;
  }

  // After admission, served load respects capacity everywhere.
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  sim_config.record_hotspot_loads = true;
  Simulator simulator(fixture.hotspots, fixture.catalog, sim_config);
  RbcaerScheme fresh;
  const auto report = simulator.run(fresh, requests);
  ASSERT_EQ(report.hotspot_loads().size(), 1u);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_LE(report.hotspot_loads()[0][h],
              fixture.hotspots[h].service_capacity);
  }
}

TEST(Rbcaer, PlacementCoversRedirectedVideos) {
  Fixture fixture;
  const auto requests = hot_demand(20, {1, 2});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto target = plan.assignment[r];
    if (target == kCdnServer || target == 0) continue;
    EXPECT_TRUE(std::binary_search(plan.placements[target].begin(),
                                   plan.placements[target].end(),
                                   requests[r].video))
        << "request " << r << " redirected to " << target
        << " without placement";
  }
}

TEST(Rbcaer, RespectsCaches) {
  Fixture fixture(/*service=*/5, /*cache=*/1);
  const auto requests = hot_demand(30, {1, 2, 3});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  EXPECT_TRUE(plan.respects_caches(fixture.hotspots));
}

TEST(Rbcaer, BalancedLoadMeansNoFlows) {
  Fixture fixture(/*service=*/100, /*cache=*/10);
  const auto requests = hot_demand(10, {1});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto& diag = scheme.last_diagnostics();
  EXPECT_EQ(diag.moved, 0);
  EXPECT_EQ(diag.redirected, 0);
  // Everything stays at the home hotspot.
  for (const auto target : plan.assignment) EXPECT_EQ(target, 0u);
}

TEST(Rbcaer, ThetaSweepIterationCount) {
  Fixture fixture;
  const auto requests = hot_demand(40, {1, 2, 3, 4});
  const SlotDemand demand(requests, fixture.index);
  RbcaerConfig config;
  config.theta1_km = 0.5;
  config.theta2_km = 1.5;
  config.delta_km = 0.5;
  RbcaerScheme scheme(config);
  (void)scheme.plan_slot(fixture.context(), requests, demand);
  // 0.5, 1.0, 1.5 (sweep may end early only when all load moved).
  EXPECT_LE(scheme.last_diagnostics().theta_iterations, 3u);
  EXPECT_GE(scheme.last_diagnostics().theta_iterations, 1u);
}

TEST(Rbcaer, UnreachableSlackGoesToCdnViaAdmission) {
  // Neighbours exist but are beyond theta2: overload cannot move.
  std::vector<Hotspot> hotspots(2);
  hotspots[0].location = {40.050, 116.500};
  hotspots[1].location = {40.050, 116.560};  // ~5 km away
  for (auto& h : hotspots) {
    h.service_capacity = 5;
    h.cache_capacity = 10;
  }
  const GridIndex index({hotspots[0].location, hotspots[1].location}, 0.5);
  const SchemeContext context{hotspots, index, VideoCatalog{100}, 20.0};
  std::vector<Request> requests;
  for (int i = 0; i < 12; ++i) {
    Request r;
    r.video = 1;
    r.location = {40.050, 116.500};
    requests.push_back(r);
  }
  const SlotDemand demand(requests, index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(context, requests, demand);
  EXPECT_EQ(scheme.last_diagnostics().moved, 0);
  // All requests stay home; admission will reject 7 of 12.
  for (const auto target : plan.assignment) EXPECT_EQ(target, 0u);
}

TEST(Rbcaer, DeterministicAcrossRuns) {
  Fixture fixture;
  const auto requests = hot_demand(25, {1, 2, 3});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme a;
  RbcaerScheme b;
  const SlotPlan plan_a = a.plan_slot(fixture.context(), requests, demand);
  const SlotPlan plan_b = b.plan_slot(fixture.context(), requests, demand);
  EXPECT_EQ(plan_a.assignment, plan_b.assignment);
  EXPECT_EQ(plan_a.placements, plan_b.placements);
}

TEST(Rbcaer, AggregationReducesReplicationOnSharedContent) {
  // Two overloaded hotspots with identical taste + one receiver. With
  // content aggregation the receiver caches the shared videos once and
  // serves both; total replicas must not exceed the no-aggregation run.
  std::vector<Hotspot> hotspots(3);
  hotspots[0].location = {40.050, 116.500};
  hotspots[1].location = {40.050, 116.510};  // ~0.9 km from receiver
  hotspots[2].location = {40.050, 116.505};  // receiver in the middle
  for (auto& h : hotspots) {
    h.service_capacity = 4;
    h.cache_capacity = 20;
  }
  hotspots[2].service_capacity = 20;
  std::vector<GeoPoint> pts;
  for (const auto& h : hotspots) pts.push_back(h.location);
  const GridIndex index(pts, 0.5);
  const SchemeContext context{hotspots, index, VideoCatalog{100}, 20.0};

  std::vector<Request> requests;
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i < 10; ++i) {
      Request r;
      r.video = static_cast<VideoId>(i % 5);
      r.location = copy == 0 ? GeoPoint{40.050, 116.500}
                             : GeoPoint{40.050, 116.510};
      requests.push_back(r);
    }
  }
  const SlotDemand demand(requests, index);

  RbcaerConfig with;
  RbcaerScheme with_aggregation(with);
  const SlotPlan plan_with =
      with_aggregation.plan_slot(context, requests, demand);

  RbcaerConfig without;
  without.content_aggregation = false;
  RbcaerScheme without_aggregation(without);
  const SlotPlan plan_without =
      without_aggregation.plan_slot(context, requests, demand);

  EXPECT_LE(plan_with.total_replicas(), plan_without.total_replicas());
  EXPECT_GT(with_aggregation.last_diagnostics().moved, 0);
}

TEST(Rbcaer, EndToEndBeatsNearestOnSkewedWorld) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 80;
  config.num_videos = 3000;
  World world = generate_world(config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 30000;
  const auto trace = generate_trace(world, trace_config);

  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{config.num_videos}, sim_config);
  NearestScheme nearest;
  RbcaerScheme rbcaer;
  const auto nearest_report = simulator.run(nearest, trace);
  const auto rbcaer_report = simulator.run(rbcaer, trace);
  EXPECT_GT(rbcaer_report.serving_ratio(), nearest_report.serving_ratio());
  EXPECT_LT(rbcaer_report.cdn_server_load(),
            nearest_report.cdn_server_load());
  EXPECT_LT(rbcaer_report.average_distance_km(),
            nearest_report.average_distance_km());
}

/// Miss rerouting as first specified: per-request binary searches over the
/// placements and a full neighbour scan for every miss, with no caches.
/// Returns the number of rerouted requests.
std::size_t reference_reroute(const SchemeContext& context, double theta2_km,
                              std::span<const Request> requests,
                              SlotPlan& plan) {
  const std::size_t m = context.hotspots.size();
  const auto cached = [&](std::size_t h, VideoId v) {
    return std::binary_search(plan.placements[h].begin(),
                              plan.placements[h].end(), v);
  };
  std::vector<std::int64_t> capacity_left(m);
  for (std::size_t h = 0; h < m; ++h) {
    capacity_left[h] = context.hotspots[h].service_capacity;
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex target = plan.assignment[r];
    if (target != kCdnServer && cached(target, requests[r].video)) {
      --capacity_left[target];
    }
  }
  std::size_t rerouted = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex home = plan.assignment[r];
    if (home == kCdnServer || cached(home, requests[r].video)) continue;
    std::size_t best = m;
    double best_distance = 0.0;
    for (const std::size_t candidate : context.hotspot_index.within_radius(
             context.hotspots[home].location, theta2_km)) {
      if (candidate == home || capacity_left[candidate] <= 0) continue;
      if (!cached(candidate, requests[r].video)) continue;
      const double d = distance_km(requests[r].location,
                                   context.hotspots[candidate].location);
      if (best == m || d < best_distance) {
        best = candidate;
        best_distance = d;
      }
    }
    if (best == m) continue;
    plan.assignment[r] = static_cast<HotspotIndex>(best);
    --capacity_left[best];
    ++rerouted;
  }
  return rerouted;
}

// The bucketed pass (placement hits, failed-pair cache, shrinking neighbour
// pools) must reroute exactly the requests the reference scan reroutes.
TEST(Rbcaer, MissReroutingMatchesReferenceScan) {
  std::size_t rerouted = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double service_fraction : {0.05, 0.2, 0.5}) {
      WorldConfig config = WorldConfig::evaluation_region();
      config.num_hotspots = 60;
      config.num_videos = 400;
      config.seed = seed;
      World world = generate_world(config);
      assign_uniform_capacities(world, service_fraction, 0.05);
      TraceConfig trace_config;
      trace_config.num_requests = 6000;
      trace_config.seed = seed;
      const auto trace = generate_trace(world, trace_config);
      const GridIndex index(world.hotspot_locations(), 0.5);
      const SchemeContext context{world.hotspots(), index,
                                  VideoCatalog{config.num_videos}};
      const SlotDemand demand(trace, index);

      RbcaerConfig plain;
      plain.miss_redirection = false;
      RbcaerScheme without(plain);
      SlotPlan want = without.plan_slot(context, trace, demand);
      const std::size_t want_rerouted = reference_reroute(
          context, RbcaerConfig{}.theta2_km, trace, want);
      RbcaerScheme with;
      const SlotPlan got = with.plan_slot(context, trace, demand);
      EXPECT_EQ(got.placements, want.placements);
      EXPECT_EQ(got.assignment, want.assignment)
          << "seed " << seed << ", service fraction " << service_fraction;
      EXPECT_EQ(with.last_diagnostics().miss_rerouted, want_rerouted);
      rerouted += want_rerouted;
    }
  }
  EXPECT_GT(rerouted, 0u);
}

}  // namespace
}  // namespace ccdn
