#include "model/demand.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

GridIndex two_hotspots() {
  // Two hotspots ~9 km apart east-west.
  return GridIndex({{40.05, 116.42}, {40.05, 116.58}}, 1.0);
}

Request make_request(VideoId video, double lat, double lon) {
  Request r;
  r.video = video;
  r.location = {lat, lon};
  return r;
}

TEST(SlotDemand, AggregatesAtNearestHotspot) {
  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{
      make_request(1, 40.05, 116.43),  // near hotspot 0
      make_request(2, 40.05, 116.44),  // near hotspot 0
      make_request(1, 40.05, 116.57),  // near hotspot 1
  };
  const SlotDemand demand(requests, index);
  EXPECT_EQ(demand.num_hotspots(), 2u);
  EXPECT_EQ(demand.num_requests(), 3u);
  EXPECT_EQ(demand.load(0), 2u);
  EXPECT_EQ(demand.load(1), 1u);
  EXPECT_EQ(demand.request_home().size(), 3u);
  EXPECT_EQ(demand.request_home()[0], 0u);
  EXPECT_EQ(demand.request_home()[2], 1u);
}

TEST(SlotDemand, MergesDuplicateVideos) {
  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{
      make_request(7, 40.05, 116.42), make_request(7, 40.05, 116.42),
      make_request(7, 40.05, 116.42), make_request(3, 40.05, 116.42)};
  const SlotDemand demand(requests, index);
  const auto demands = demand.video_demand(0);
  ASSERT_EQ(demands.size(), 2u);
  EXPECT_EQ(demands[0].video, 3u);
  EXPECT_EQ(demands[0].count, 1u);
  EXPECT_EQ(demands[1].video, 7u);
  EXPECT_EQ(demands[1].count, 3u);
}

TEST(SlotDemand, DemandForLookups) {
  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{make_request(5, 40.05, 116.42),
                                      make_request(5, 40.05, 116.42)};
  const SlotDemand demand(requests, index);
  EXPECT_EQ(demand.demand_for(0, 5), 2u);
  EXPECT_EQ(demand.demand_for(0, 6), 0u);
  EXPECT_EQ(demand.demand_for(1, 5), 0u);
  EXPECT_THROW((void)demand.demand_for(2, 5), PreconditionError);
}

TEST(SlotDemand, RequestedVideosIsSortedUnique) {
  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{
      make_request(9, 40.05, 116.42), make_request(1, 40.05, 116.58),
      make_request(9, 40.05, 116.58), make_request(4, 40.05, 116.42)};
  const SlotDemand demand(requests, index);
  const auto videos = demand.requested_videos();
  EXPECT_EQ(std::vector<VideoId>(videos.begin(), videos.end()),
            (std::vector<VideoId>{1, 4, 9}));
}

TEST(SlotDemand, FromExplicitVectorsMergesAndSorts) {
  std::vector<std::vector<VideoDemand>> per_hotspot(2);
  per_hotspot[0] = {{5, 2}, {1, 1}, {5, 3}};  // unsorted with duplicate
  per_hotspot[1] = {};
  const SlotDemand demand(std::move(per_hotspot));
  EXPECT_EQ(demand.load(0), 6u);
  EXPECT_EQ(demand.load(1), 0u);
  const auto d0 = demand.video_demand(0);
  ASSERT_EQ(d0.size(), 2u);
  EXPECT_EQ(d0[0].video, 1u);
  EXPECT_EQ(d0[1].count, 5u);
  EXPECT_TRUE(demand.request_home().empty());
}

TEST(SlotDemand, EmptyRequestSpan) {
  const GridIndex index = two_hotspots();
  const SlotDemand demand(std::span<const Request>{}, index);
  EXPECT_EQ(demand.num_requests(), 0u);
  EXPECT_EQ(demand.load(0), 0u);
  EXPECT_TRUE(demand.requested_videos().empty());
}

class SlotDemandRandomTrace
    : public ::testing::TestWithParam<std::tuple<std::size_t, VideoId>> {};

// The radix-built view must equal a brute-force aggregation fed through the
// per-hotspot-vector constructor, field for field.
TEST_P(SlotDemandRandomTrace, MatchesBruteForceAggregation) {
  const auto [num_requests, num_videos] = GetParam();
  Rng rng(num_requests * 17 + num_videos);
  std::vector<GeoPoint> hotspots;
  for (int h = 0; h < 40; ++h) {
    hotspots.push_back({rng.uniform(40.00, 40.10), rng.uniform(116.40, 116.60)});
  }
  const GridIndex index(hotspots, 0.5);
  std::vector<Request> requests;
  for (std::size_t r = 0; r < num_requests; ++r) {
    // Some requests fall outside the hotspot box; video ids span beyond
    // 16 bits when num_videos does, exercising every radix digit.
    requests.push_back(make_request(
        static_cast<VideoId>(rng.index(num_videos)),
        rng.uniform(39.99, 40.11), rng.uniform(116.39, 116.61)));
  }
  const SlotDemand got(requests, index);

  std::vector<std::vector<VideoDemand>> brute(hotspots.size());
  std::vector<HotspotIndex> homes;
  for (const Request& request : requests) {
    const auto home = static_cast<HotspotIndex>(index.nearest(request.location));
    homes.push_back(home);
    brute[home].push_back({request.video, 1});
  }
  const SlotDemand want(std::move(brute));

  ASSERT_EQ(got.num_hotspots(), want.num_hotspots());
  EXPECT_EQ(got.num_requests(), want.num_requests());
  for (HotspotIndex h = 0; h < got.num_hotspots(); ++h) {
    EXPECT_EQ(got.load(h), want.load(h));
    const auto a = got.video_demand(h);
    const auto b = want.video_demand(h);
    ASSERT_EQ(a.size(), b.size()) << "hotspot " << h;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].video, b[i].video);
      EXPECT_EQ(a[i].count, b[i].count);
    }
  }
  EXPECT_EQ(std::vector<HotspotIndex>(got.request_home().begin(),
                                      got.request_home().end()),
            homes);
  EXPECT_EQ(std::vector<VideoId>(got.requested_videos().begin(),
                                 got.requested_videos().end()),
            std::vector<VideoId>(want.requested_videos().begin(),
                                 want.requested_videos().end()));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCatalogs, SlotDemandRandomTrace,
    ::testing::Combine(::testing::Values<std::size_t>(1, 300, 5000),
                       ::testing::Values<VideoId>(7, 2000, 300000)));

}  // namespace
}  // namespace ccdn
