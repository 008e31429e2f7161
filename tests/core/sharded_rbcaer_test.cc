#include "core/shard_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "geo/zone_partition.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/thread_pool.h"
#include "verify/schedule_audit.h"
#include "verify/shard_audit.h"

namespace ccdn {
namespace {

/// A small but non-trivial world: enough hotspots that a 4-way spatial
/// partition has interior and boundary members, enough load imbalance that
/// the θ sweep actually moves flow.
struct Fixture {
  World world;
  GridIndex index;
  std::vector<Request> trace;

  Fixture() : world(make_world()), index(world.hotspot_locations(), 0.5) {
    TraceConfig trace_config;
    trace_config.num_requests = 3000;
    trace = generate_trace(world, trace_config);
  }

  static World make_world() {
    WorldConfig config = WorldConfig::evaluation_region();
    config.num_hotspots = 60;
    config.num_videos = 500;
    World world = generate_world(config);
    // mean load 50 requests/hotspot; capacity below it forces movement.
    assign_uniform_capacities(world, 50.0 / 500.0, 0.03);
    return world;
  }

  [[nodiscard]] SchemeContext context() const {
    return {world.hotspots(), index, VideoCatalog{500}, kCdnDistanceKm};
  }
};

/// Plans one slot; `threaded_executor` makes the scheme solve its shards
/// serially, as it does inside the simulator's window executor.
SlotPlan plan_with(const Fixture& fixture, std::size_t shards,
                   bool aggregation, bool threaded_executor = false) {
  RbcaerConfig config;
  config.content_aggregation = aggregation;
  config.num_shards = shards;
  RbcaerScheme scheme(config);
  SchemeContext context = fixture.context();
  context.threaded_executor = threaded_executor;
  const SlotDemand demand(fixture.trace, fixture.index);
  return scheme.plan_slot(context, fixture.trace, demand);
}

// shard=1 runs the sharded orchestration (partition, shard solve, merge)
// but must reproduce the unsharded plan bit for bit — the golden harness
// pins this same contract on the full scheme matrix.
TEST(ShardedRbcaer, ShardOneBitIdenticalToUnsharded) {
  const Fixture fixture;
  for (const bool aggregation : {true, false}) {
    const SlotPlan unsharded = plan_with(fixture, 0, aggregation);
    const SlotPlan sharded = plan_with(fixture, 1, aggregation);
    EXPECT_EQ(unsharded.assignment, sharded.assignment);
    EXPECT_EQ(unsharded.placements, sharded.placements);
  }
}

// The per-shard solve is a pure function of the slot inputs and results
// land by shard index, so shards on the scheme's pool and shards run
// serially (the threaded-executor path) must agree exactly.
TEST(ShardedRbcaer, PoolAndSerialExecutorsBitIdentical) {
  const Fixture fixture;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    for (const bool aggregation : {true, false}) {
      const SlotPlan pooled = plan_with(fixture, shards, aggregation);
      const SlotPlan serial =
          plan_with(fixture, shards, aggregation, /*threaded_executor=*/true);
      EXPECT_EQ(pooled.assignment, serial.assignment);
      EXPECT_EQ(pooled.placements, serial.placements);
    }
  }
}

// Inside the simulator's window lanes a scheme must solve its shards
// serially even after an earlier slot made its pool, and the plan must not
// depend on which path a slot took.
TEST(ShardedRbcaer, ThreadedCallerRunsShardsSerially) {
  std::unique_ptr<ThreadPool> pool;
  EXPECT_EQ(lazy_shard_pool(pool, 1, false), nullptr);
  EXPECT_EQ(pool, nullptr);
  EXPECT_EQ(lazy_shard_pool(pool, 2, true), nullptr);
  EXPECT_EQ(pool, nullptr);
  ThreadPool* const made = lazy_shard_pool(pool, 2, false);
  ASSERT_NE(made, nullptr);
  EXPECT_EQ(made, pool.get());
  EXPECT_EQ(lazy_shard_pool(pool, 2, true), nullptr);
  EXPECT_EQ(lazy_shard_pool(pool, 2, false), made);

  const Fixture fixture;
  RbcaerConfig config;
  config.num_shards = 2;
  RbcaerScheme scheme(config);
  SchemeContext context = fixture.context();
  const SlotDemand demand(fixture.trace, fixture.index);
  const SlotPlan pooled = scheme.plan_slot(context, fixture.trace, demand);
  context.threaded_executor = true;
  const SlotPlan serial = scheme.plan_slot(context, fixture.trace, demand);
  EXPECT_EQ(pooled.assignment, serial.assignment);
  EXPECT_EQ(pooled.placements, serial.placements);
}

TEST(ShardedRbcaer, DiagnosticsReflectSharding) {
  const Fixture fixture;
  RbcaerConfig config;
  config.num_shards = 4;
  RbcaerScheme scheme(config);
  const SchemeContext context = fixture.context();
  const SlotDemand demand(fixture.trace, fixture.index);
  const SlotPlan plan = scheme.plan_slot(context, fixture.trace, demand);
  EXPECT_EQ(plan.assignment.size(), fixture.trace.size());
  const auto& diagnostics = scheme.last_diagnostics();
  EXPECT_EQ(diagnostics.shards, 4u);
  EXPECT_EQ(diagnostics.shard_flow_s.size(), 4u);
  // A 4-way cut of a 60-hotspot cloud with θ2-radius candidates always
  // leaves someone near a cut.
  EXPECT_GT(diagnostics.boundary_hotspots, 0u);
}

// The golden digests cannot see the exchange round: it moves nothing in
// every slot of every golden sharded variant. On this fixture it moves flow
// in every variant below, so each pinned plan digest covers the exchange's
// θ grid, arc set and commit order. Virtual variants shard the fixture's
// 0.5 km regions.
struct ExchangePin {
  const char* name;
  bool virtual_scheme;
  bool aggregation;
  std::size_t shards;
  std::uint64_t digest;
};

const ExchangePin kExchangePins[] = {
    {"flat/agg/S=2", false, true, 2, 0x8404ec020bf81c9dULL},
    {"flat/agg/S=4", false, true, 4, 0x7631e58d18838b06ULL},
    {"flat/agg/S=8", false, true, 8, 0xdefafbe18a80c695ULL},
    {"flat/noagg/S=2", false, false, 2, 0xa7fd7e49739e71b5ULL},
    {"flat/noagg/S=4", false, false, 4, 0xa7fd7e49739e71b5ULL},
    {"flat/noagg/S=8", false, false, 8, 0xa7e4f0ed3a044072ULL},
    {"virtual/agg/S=2", true, true, 2, 0xd627bd7d19883f89ULL},
    {"virtual/agg/S=4", true, true, 4, 0xc1fff126dd18f10bULL},
};

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(ShardedRbcaer, ExchangeRoundPinnedDigests) {
  const Fixture fixture;
  const SchemeContext context = fixture.context();
  const SlotDemand demand(fixture.trace, fixture.index);
  for (const ExchangePin& pin : kExchangePins) {
    SlotPlan plan;
    std::int64_t exchange_moved = 0;
    if (pin.virtual_scheme) {
      VirtualRbcaerConfig config;
      config.region_km = 0.5;
      config.regional.content_aggregation = pin.aggregation;
      config.regional.num_shards = pin.shards;
      config.regional.audit_level = AuditLevel::kFull;
      VirtualRbcaerScheme scheme(config);
      plan = scheme.plan_slot(context, fixture.trace, demand);
      exchange_moved = scheme.last_diagnostics().exchange_moved;
    } else {
      RbcaerConfig config;
      config.content_aggregation = pin.aggregation;
      config.num_shards = pin.shards;
      config.audit_level = AuditLevel::kFull;
      RbcaerScheme scheme(config);
      plan = scheme.plan_slot(context, fixture.trace, demand);
      exchange_moved = scheme.last_diagnostics().exchange_moved;
    }
    EXPECT_GT(exchange_moved, 0) << pin.name;
    EXPECT_EQ(plan_digest(plan), pin.digest)
        << pin.name << " digest " << hex(plan_digest(plan)) << " moved "
        << exchange_moved;
  }
}

// A shard that throws must not leave its siblings running on the pool
// (they capture solve_sharded's frame): the caller sees the shard's own
// exception only after every shard finished, and no flow was committed.
struct ShardFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(ShardedRbcaer, SolveShardedRethrowsShardFailureAfterJoin) {
  const std::vector<Hotspot> hotspots(4);
  const GridIndex index(
      {hotspots[0].location, hotspots[1].location, hotspots[2].location,
       hotspots[3].location},
      0.5);
  HotspotPartition partition;
  partition.phi = {3, 3, 3, 3};
  ShardAssignment assignment;
  assignment.num_shards = 4;
  assignment.shard_of = {0, 1, 2, 3};
  const std::vector<std::uint8_t> boundary(4, 0);
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  for (ThreadPool* executor : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    finished = 0;
    EXPECT_THROW(
        (void)solve_sharded(
            hotspots, index, partition, assignment, boundary, {}, executor,
            [&](std::uint32_t s) {
              if (s == 1) throw ShardFailure("shard 1 failed");
              // Later shards finish later, so a rethrow that did not wait
              // for them would be seen here.
              std::this_thread::sleep_for(std::chrono::milliseconds(20 * s));
              finished.fetch_add(1);
              ShardFlowResult result;
              result.flows = {{s, s, 1}};
              return result;
            }),
        ShardFailure);
    // Pooled: every sibling ran to completion before the rethrow. Serial:
    // the failing shard stops the loop after shard 0.
    EXPECT_EQ(finished.load(), executor != nullptr ? 3 : 1);
    EXPECT_EQ(partition.phi, (std::vector<std::int64_t>{3, 3, 3, 3}));
  }
}

// Negative coverage for the shard audits: out-of-shard locality and a
// non-boundary exchange sender must be flagged, clean inputs must not.
TEST(ShardAudit, FlagsCrossShardLocalFlow) {
  const std::vector<std::uint32_t> shard_of{0, 0, 1, 1};
  AuditReport clean;
  const std::vector<FlowEntry> local{{0, 1, 2}};
  audit_shard_flows(local, shard_of, 0, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();

  AuditReport report;
  const std::vector<FlowEntry> crossing{{0, 2, 2}};
  audit_shard_flows(crossing, shard_of, 0, report);
  EXPECT_TRUE(report.has("shard-locality")) << report.summary();
}

TEST(ShardAudit, FlagsNonBoundaryExchangeSender) {
  const std::vector<std::uint32_t> shard_of{0, 0, 1, 1};
  const std::vector<std::uint8_t> boundary{0, 1, 1, 0};
  AuditReport clean;
  // Boundary sender; receiver in its own shard is legal.
  const std::vector<FlowEntry> ok{{1, 0, 1}, {1, 3, 1}};
  audit_exchange_flows(ok, shard_of, boundary, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();

  AuditReport report;
  const std::vector<FlowEntry> bad{{3, 1, 1}};
  audit_exchange_flows(bad, shard_of, boundary, report);
  EXPECT_TRUE(report.has("exchange-not-boundary")) << report.summary();
}

}  // namespace
}  // namespace ccdn
