// Pins virtual and flat RBCAer plans on an overloaded hourly workload.
//
// The golden-digest workload (tools/golden_digests.cc: 40 hotspots, seed 7,
// 5% service capacity) barely overloads: virtual RBCAer differs from
// Nearest in one slot of 24 there, so its regional flow phase is almost
// unpinned. This test reruns the same world and trace at 1% service
// capacity, where most slots overload and every variant below runs its
// θ sweep, and pins each variant's 24 per-slot plan digests (folded into
// one value). A change to the flow phase that alters a single slot's
// (assignment, placements) shows up as a named variant mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"

namespace ccdn {
namespace {

struct OverloadWorkload {
  World world;
  std::vector<Request> trace;

  OverloadWorkload() : world([] {
    WorldConfig config = WorldConfig::evaluation_region();
    config.num_hotspots = 40;
    config.num_videos = 1500;
    config.seed = 7;
    return generate_world(config);
  }()) {
    assign_uniform_capacities(world, 0.01, 0.03);
    TraceConfig trace_config;
    trace_config.num_requests = 6000;
    trace_config.duration_hours = 24;
    trace_config.seed = 7;
    trace = generate_trace(world, trace_config);
  }

  [[nodiscard]] std::vector<std::uint64_t> slot_digests(
      RedirectionScheme& scheme) const {
    SimulationConfig config;
    config.slot_seconds = 3600;
    config.audit_level = AuditLevel::kPlan;  // records per-slot digests
    const Simulator simulator(world.hotspots(), VideoCatalog{1500}, config);
    return simulator.run(scheme, trace).slot_digests();
  }
};

const OverloadWorkload& workload() {
  static const OverloadWorkload instance;
  return instance;
}

/// Order-sensitive fold of the per-slot digests.
std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint64_t d : digests) {
    h ^= d;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

struct PinnedVariant {
  const char* name;
  bool virtual_scheme;
  RegionPartition partition;
  bool aggregation;
  std::size_t shards;
  std::uint64_t digest;
};

const PinnedVariant kPinned[] = {
    {"virtual/grid/agg/S=0", true, RegionPartition::kGrid, true, 0,
     0xb0a2015a7f352f5aULL},
    {"virtual/grid/agg/S=2", true, RegionPartition::kGrid, true, 2,
     0xb0a2015a7f352f5aULL},
    {"virtual/grid/noagg/S=0", true, RegionPartition::kGrid, false, 0,
     0xdc2d42dc015d2463ULL},
    {"virtual/grid/noagg/S=2", true, RegionPartition::kGrid, false, 2,
     0x04d4d3c448c82547ULL},
    {"virtual/geo/agg/S=0", true, RegionPartition::kGeoCluster, true, 0,
     0x4d7d13e400c7f9acULL},
    {"virtual/geo/agg/S=2", true, RegionPartition::kGeoCluster, true, 2,
     0x4d7d13e400c7f9acULL},
    {"virtual/geo/noagg/S=0", true, RegionPartition::kGeoCluster, false, 0,
     0xfcaf7ed6adcfbaa7ULL},
    {"virtual/geo/noagg/S=2", true, RegionPartition::kGeoCluster, false, 2,
     0xfcaf7ed6adcfbaa7ULL},
    {"flat/agg", false, RegionPartition::kGrid, true, 0,
     0xaf2cd88500f7d72cULL},
    {"flat/noagg", false, RegionPartition::kGrid, false, 0,
     0xc8c50fdf30c8ea2eULL},
};

SchemePtr make_scheme(const PinnedVariant& v) {
  if (!v.virtual_scheme) {
    RbcaerConfig config;
    config.content_aggregation = v.aggregation;
    return std::make_unique<RbcaerScheme>(config);
  }
  VirtualRbcaerConfig config;
  config.partition = v.partition;
  config.regional.content_aggregation = v.aggregation;
  config.regional.num_shards = v.shards;
  return std::make_unique<VirtualRbcaerScheme>(config);
}

TEST(OverloadPlans, PinnedDigestsAtOnePercentCapacity) {
  for (const PinnedVariant& v : kPinned) {
    SchemePtr scheme = make_scheme(v);
    const std::vector<std::uint64_t> digests =
        workload().slot_digests(*scheme);
    ASSERT_EQ(digests.size(), 24u) << v.name;
    EXPECT_EQ(fold(digests), v.digest)
        << v.name << " folded digest " << hex(fold(digests));
  }
}

TEST(OverloadPlans, VirtualFlowPhaseChangesMostSlots) {
  // The pins above only guard the flow phase if it runs: at 1% capacity
  // the virtual plan must differ from Nearest's in most slots (22 of 24
  // when the digests were recorded).
  NearestScheme nearest;
  const std::vector<std::uint64_t> baseline = workload().slot_digests(nearest);
  VirtualRbcaerScheme virtual_scheme;
  const std::vector<std::uint64_t> planned =
      workload().slot_digests(virtual_scheme);
  ASSERT_EQ(planned.size(), baseline.size());
  std::size_t differing = 0;
  for (std::size_t s = 0; s < planned.size(); ++s) {
    differing += planned[s] != baseline[s] ? 1 : 0;
  }
  EXPECT_GE(differing, 20u);
}

}  // namespace
}  // namespace ccdn
