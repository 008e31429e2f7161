#include "core/scheme.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

std::vector<Hotspot> two_hotspots() {
  Hotspot a;
  a.cache_capacity = 3;
  Hotspot b;
  b.cache_capacity = 1;
  return {a, b};
}

TEST(SlotPlan, TotalReplicasSums) {
  SlotPlan plan;
  plan.placements = {{1, 2, 3}, {7}};
  EXPECT_EQ(plan.total_replicas(), 4u);
}

TEST(SlotPlan, RespectsCachesHappyPath) {
  SlotPlan plan;
  plan.placements = {{1, 2, 3}, {7}};
  EXPECT_TRUE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsOverfullCache) {
  SlotPlan plan;
  plan.placements = {{1, 2, 3}, {7, 8}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsUnsortedPlacement) {
  SlotPlan plan;
  plan.placements = {{3, 1}, {}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsDuplicatePlacement) {
  SlotPlan plan;
  plan.placements = {{1, 1}, {}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsSizeMismatch) {
  SlotPlan plan;
  plan.placements = {{1}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

std::vector<std::uint8_t> binary_search_hits(
    std::span<const Request> requests, std::span<const HotspotIndex> targets,
    const std::vector<std::vector<VideoId>>& placements) {
  std::vector<std::uint8_t> hits;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex t = targets[r];
    hits.push_back(t < placements.size() &&
                   std::binary_search(placements[t].begin(),
                                      placements[t].end(), requests[r].video));
  }
  return hits;
}

TEST(PlacementHits, MatchesPerRequestBinarySearch) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 1 + rng.index(25);
    const VideoId num_videos = 1 + static_cast<VideoId>(rng.index(400));
    std::vector<std::vector<VideoId>> placements(m);
    for (auto& videos : placements) {
      // Roughly a third of the hotspots place nothing.
      const std::size_t count = rng.index(3) == 0 ? 0 : rng.index(40);
      for (std::size_t i = 0; i < count; ++i) {
        videos.push_back(static_cast<VideoId>(rng.index(num_videos)));
      }
      std::sort(videos.begin(), videos.end());
      videos.erase(std::unique(videos.begin(), videos.end()), videos.end());
    }
    std::vector<Request> requests(rng.index(600));
    std::vector<HotspotIndex> targets;
    for (Request& request : requests) {
      // Ids past every placed video must read as misses, not index out.
      request.video = static_cast<VideoId>(rng.index(num_videos + 50));
      const std::size_t pick = rng.index(m + 2);
      targets.push_back(pick < m    ? static_cast<HotspotIndex>(pick)
                        : pick == m ? kCdnServer
                                    : static_cast<HotspotIndex>(m + 3));
    }
    EXPECT_EQ(placement_hits(requests, targets, placements),
              binary_search_hits(requests, targets, placements))
        << "trial " << trial;
  }
}

TEST(PlacementHits, EmptyPlacementsAndCdnTargets) {
  std::vector<Request> requests(3);
  requests[0].video = 0;
  requests[1].video = 4;
  requests[2].video = 4;
  const std::vector<HotspotIndex> targets{0, 1, kCdnServer};
  EXPECT_EQ(placement_hits(requests, targets, {{}, {}}),
            (std::vector<std::uint8_t>{0, 0, 0}));
  EXPECT_EQ(placement_hits(requests, targets, {{0}, {4}}),
            (std::vector<std::uint8_t>{1, 1, 0}));
  EXPECT_TRUE(placement_hits({}, {}, {{1}}).empty());
  EXPECT_THROW((void)placement_hits(requests, {}, {{1}}), PreconditionError);
}

}  // namespace
}  // namespace ccdn
