// Determinism of the parallel slot-scheduling pipeline.
//
// Simulator::run with num_threads > 1 fans independent slots out to a
// thread pool and reduces them back in slot order; the resulting
// SimulationReport must be bit-identical to the sequential run — including
// under device churn (masks are pre-drawn from churn_rng in slot order) and
// placement-delta charging (an ordered reduction over the computed plans).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "trace/generator.h"
#include "trace/world.h"

namespace ccdn {
namespace {

struct Workload {
  World world;
  std::vector<Request> trace;

  Workload()
      : world(generate_world([] {
          WorldConfig config = WorldConfig::evaluation_region();
          config.num_hotspots = 60;
          config.num_videos = 2000;
          config.num_users = 8000;
          return config;
        }())),
        trace(generate_trace(world, [] {
          TraceConfig config;
          config.num_requests = 12000;  // ~24 hourly slots
          return config;
        }())) {
    assign_uniform_capacities(world, 0.05, 0.03);
  }

  [[nodiscard]] SimulationReport run(RedirectionScheme& scheme,
                                     std::size_t num_threads,
                                     double offline_probability = 0.0) const {
    SimulationConfig config;
    config.slot_seconds = 3600;
    config.charge_placement_deltas = true;
    config.record_hotspot_loads = true;
    config.offline_probability = offline_probability;
    config.num_threads = num_threads;
    Simulator simulator(world.hotspots(),
                        VideoCatalog{world.config().num_videos}, config);
    return simulator.run(scheme, trace);
  }
};

/// Bit-exact comparison of everything except stage timings (wall-clock
/// measurements are the one intentionally non-deterministic report field).
void expect_identical(const SimulationReport& a, const SimulationReport& b) {
  EXPECT_EQ(a.total_requests(), b.total_requests());
  EXPECT_EQ(a.served_by_hotspots(), b.served_by_hotspots());
  EXPECT_EQ(a.total_replicas(), b.total_replicas());
  EXPECT_EQ(a.serving_ratio(), b.serving_ratio());
  EXPECT_EQ(a.average_distance_km(), b.average_distance_km());
  EXPECT_EQ(a.replication_cost(), b.replication_cost());
  EXPECT_EQ(a.cdn_server_load(), b.cdn_server_load());
  ASSERT_EQ(a.slots().size(), b.slots().size());
  for (std::size_t s = 0; s < a.slots().size(); ++s) {
    const SlotMetrics& sa = a.slots()[s];
    const SlotMetrics& sb = b.slots()[s];
    EXPECT_EQ(sa.requests, sb.requests) << "slot " << s;
    EXPECT_EQ(sa.served, sb.served) << "slot " << s;
    EXPECT_EQ(sa.rejected_capacity, sb.rejected_capacity) << "slot " << s;
    EXPECT_EQ(sa.rejected_placement, sb.rejected_placement) << "slot " << s;
    EXPECT_EQ(sa.rejected_offline, sb.rejected_offline) << "slot " << s;
    EXPECT_EQ(sa.sent_to_cdn, sb.sent_to_cdn) << "slot " << s;
    EXPECT_EQ(sa.replicas, sb.replicas) << "slot " << s;
    EXPECT_EQ(sa.distance_sum_km, sb.distance_sum_km) << "slot " << s;
  }
  ASSERT_EQ(a.hotspot_loads().size(), b.hotspot_loads().size());
  for (std::size_t s = 0; s < a.hotspot_loads().size(); ++s) {
    EXPECT_EQ(a.hotspot_loads()[s], b.hotspot_loads()[s]) << "slot " << s;
  }
  // Stage timings are still recorded per slot under every thread count.
  EXPECT_EQ(a.stage_timings().size(), b.stage_timings().size());
}

TEST(ParallelSimulator, RbcaerIdenticalAcrossThreadCounts) {
  const Workload workload;
  RbcaerScheme sequential_scheme;
  RbcaerScheme parallel_scheme;
  const auto sequential = workload.run(sequential_scheme, 1);
  const auto parallel = workload.run(parallel_scheme, 4);
  ASSERT_GT(sequential.slots().size(), 4u);
  expect_identical(sequential, parallel);
}

TEST(ParallelSimulator, IncrementalSweepIdenticalAcrossThreadsAndColdPath) {
  // The warm-started θ sweep keeps per-scheme solver state (ThetaSweeper);
  // clones must stay isolated so parallel slot planning is still pure, and
  // the whole simulation must match the cold rebuild-per-θ oracle.
  const Workload workload;
  RbcaerConfig warm_config;
  warm_config.incremental_sweep = true;  // explicit, though it is the default
  RbcaerConfig cold_config = warm_config;
  cold_config.incremental_sweep = false;
  RbcaerScheme warm_sequential(warm_config);
  RbcaerScheme warm_parallel(warm_config);
  RbcaerScheme cold_sequential(cold_config);
  const auto sequential = workload.run(warm_sequential, 1);
  const auto parallel = workload.run(warm_parallel, 4);
  expect_identical(sequential, parallel);
  expect_identical(sequential, workload.run(cold_sequential, 1));
}

TEST(ParallelSimulator, IdenticalUnderChurnAndDeltaCharging) {
  const Workload workload;
  RbcaerScheme sequential_scheme;
  RbcaerScheme parallel_scheme;
  const auto sequential = workload.run(sequential_scheme, 1, 0.25);
  const auto parallel = workload.run(parallel_scheme, 4, 0.25);
  const std::size_t offline =
      [&] {
        std::size_t n = 0;
        for (const auto& slot : sequential.slots()) n += slot.rejected_offline;
        return n;
      }();
  EXPECT_GT(offline, 0u);  // churn actually exercised
  expect_identical(sequential, parallel);
}

TEST(ParallelSimulator, ShardedSchemeIdenticalAcrossThreadCounts) {
  // The sequential run solves each slot's shards on the scheme's own pool;
  // the window executor's clone lanes solve them serially (the context's
  // threaded_executor flag). Both must produce the same report bit for
  // bit.
  const Workload workload;
  RbcaerConfig config;
  config.num_shards = 2;
  RbcaerScheme sequential_scheme(config);
  RbcaerScheme parallel_scheme(config);
  expect_identical(workload.run(sequential_scheme, 1),
                   workload.run(parallel_scheme, 4));
}

TEST(ParallelSimulator, NearestIdenticalWithAllHardwareThreads) {
  const Workload workload;
  NearestScheme sequential_scheme;
  NearestScheme parallel_scheme;
  // num_threads = 0 means "use all hardware threads".
  expect_identical(workload.run(sequential_scheme, 1),
                   workload.run(parallel_scheme, 0));
}

TEST(ParallelSimulator, StatefulSchemeFallsBackToSequential) {
  const Workload workload;
  // RandomScheme draws from a cross-slot RNG, so it declines clone() and the
  // parallel run must take the sequential path — same draws, same report.
  RandomScheme sequential_scheme(1.5, /*seed=*/99);
  RandomScheme parallel_scheme(1.5, /*seed=*/99);
  EXPECT_EQ(sequential_scheme.clone(), nullptr);
  expect_identical(workload.run(sequential_scheme, 1),
                   workload.run(parallel_scheme, 4));
}

}  // namespace
}  // namespace ccdn
