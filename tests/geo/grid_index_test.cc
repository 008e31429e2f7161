#include "geo/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

std::vector<GeoPoint> random_points(Rng& rng, std::size_t n) {
  std::vector<GeoPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(40.00, 40.10), rng.uniform(116.40, 116.60)});
  }
  return points;
}

/// Reference nearest: the grid's projected squared distance, lowest index
/// on ties — the contract GridIndex::nearest promises, index for index.
std::size_t brute_nearest(const GridIndex& index, const GeoPoint& query) {
  const auto q = index.projection().to_xy(query);
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < index.size(); ++i) {
    const auto p = index.projection().to_xy(index.point(i));
    const double dx = p.x_km - q.x_km;
    const double dy = p.y_km - q.y_km;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> brute_radius(const std::vector<GeoPoint>& points,
                                      const GeoPoint& query, double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (distance_km(points[i], query) <= radius) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, RejectsEmptyAndBadCell) {
  EXPECT_THROW(GridIndex({}, 1.0), PreconditionError);
  EXPECT_THROW(GridIndex({{40.0, 116.5}}, 0.0), PreconditionError);
}

TEST(GridIndex, SinglePoint) {
  const GridIndex index({{40.0, 116.5}}, 1.0);
  EXPECT_EQ(index.nearest({41.0, 117.0}), 0u);
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 0.1),
            (std::vector<std::size_t>{0}));
}

TEST(GridIndex, NearestOnKnownLayout) {
  const std::vector<GeoPoint> points{
      {40.00, 116.40}, {40.05, 116.50}, {40.10, 116.60}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.nearest({40.01, 116.41}), 0u);
  EXPECT_EQ(index.nearest({40.05, 116.51}), 1u);
  EXPECT_EQ(index.nearest({40.09, 116.60}), 2u);
}

class GridIndexProperty : public ::testing::TestWithParam<
                              std::tuple<std::size_t, double>> {};

TEST_P(GridIndexProperty, NearestMatchesBruteForce) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 31 + 7);
  const auto points = random_points(rng, n);
  const GridIndex index(points, cell);
  for (int q = 0; q < 50; ++q) {
    const GeoPoint query{rng.uniform(39.98, 40.12),
                         rng.uniform(116.38, 116.62)};
    EXPECT_EQ(index.nearest(query), brute_nearest(index, query));
  }
}

TEST_P(GridIndexProperty, RadiusMatchesBruteForce) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 131 + 3);
  const auto points = random_points(rng, n);
  const GridIndex index(points, cell);
  for (const double radius : {0.2, 1.0, 3.0, 30.0}) {
    for (int q = 0; q < 10; ++q) {
      const GeoPoint query{rng.uniform(40.0, 40.1),
                           rng.uniform(116.4, 116.6)};
      EXPECT_EQ(index.within_radius(query, radius),
                brute_radius(points, query, radius));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCells, GridIndexProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 5, 50, 300),
                       ::testing::Values(0.25, 0.5, 2.0)));

TEST_P(GridIndexProperty, SubsetMatchesFilteredParent) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 57 + 11);
  const auto points = random_points(rng, n);
  const GridIndex index(points, cell);
  // Every third point forms the subset.
  std::vector<std::uint32_t> members;
  for (std::size_t i = 0; i < n; i += 3) {
    members.push_back(static_cast<std::uint32_t>(i));
  }
  GridIndex::Subset subset(index);
  subset.assign(members);
  std::vector<std::size_t> got;
  for (const double radius : {0.2, 1.0, 3.0, 30.0}) {
    for (int q = 0; q < 10; ++q) {
      const GeoPoint query{rng.uniform(40.0, 40.1),
                           rng.uniform(116.4, 116.6)};
      subset.within_radius(query, radius, got);
      std::vector<std::size_t> want;
      for (const std::size_t id : index.within_radius(query, radius)) {
        if (id % 3 == 0) want.push_back(id);
      }
      EXPECT_EQ(got, want);
    }
  }
}

TEST(GridIndex, SubsetReassignRetargets) {
  Rng rng(77);
  const auto points = random_points(rng, 60);
  const GridIndex index(points, 0.5);
  GridIndex::Subset subset(index);
  const std::vector<std::uint32_t> first{1, 4, 9};
  const std::vector<std::uint32_t> second{0, 2};
  std::vector<std::size_t> got;
  subset.assign(first);
  subset.within_radius(points[1], 100.0, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{1, 4, 9}));
  subset.assign(second);
  subset.within_radius(points[1], 100.0, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 2}));
}

TEST(GridIndex, KNearestOrderedByDistance) {
  Rng rng(19);
  const auto points = random_points(rng, 100);
  const GridIndex index(points, 0.5);
  const GeoPoint query{40.05, 116.5};
  const auto got = index.k_nearest(query, 10);
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(distance_km(points[got[i - 1]], query),
              distance_km(points[got[i]], query) + 1e-12);
  }
  // First element agrees with nearest().
  EXPECT_EQ(got.front(), index.nearest(query));
}

TEST(GridIndex, KNearestClampsToSize) {
  Rng rng(23);
  const auto points = random_points(rng, 5);
  const GridIndex index(points, 0.5);
  EXPECT_EQ(index.k_nearest({40.05, 116.5}, 50).size(), 5u);
  EXPECT_TRUE(index.k_nearest({40.05, 116.5}, 0).empty());
}

TEST(GridIndex, WithinRadiusZeroRadius) {
  const std::vector<GeoPoint> points{{40.0, 116.5}, {40.05, 116.55}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 0.0),
            (std::vector<std::size_t>{0}));
  EXPECT_THROW((void)index.within_radius({40.0, 116.5}, -1.0),
               PreconditionError);
}

TEST(GridIndex, WithinRadiusRequiresFiniteRadius) {
  const GridIndex index({{40.0, 116.5}, {40.05, 116.55}}, 1.0);
  GridIndex::Subset subset(index);
  subset.assign(std::vector<std::uint32_t>{0, 1});
  std::vector<std::size_t> out;
  for (const double radius : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)index.within_radius({40.0, 116.5}, radius),
                 PreconditionError);
    EXPECT_THROW(index.within_radius({40.0, 116.5}, radius, out),
                 PreconditionError);
    EXPECT_THROW(subset.within_radius({40.0, 116.5}, radius, out),
                 PreconditionError);
  }
}

TEST(GridIndex, WithinRadiusHugeFiniteRadiusCoversEveryPoint) {
  // The cell reach is capped at the grid's extent before the int cast, so
  // a radius far beyond any int32 cell count still covers the whole grid.
  const GridIndex index({{40.0, 116.5}, {40.05, 116.55}, {39.9, 116.4}}, 0.5);
  const std::vector<std::size_t> all{0, 1, 2};
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 1e300), all);
  GridIndex::Subset subset(index);
  subset.assign(std::vector<std::uint32_t>{2, 0});
  std::vector<std::size_t> out;
  subset.within_radius({40.0, 116.5}, 1e300, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 2}));
}

TEST(GridIndex, NearestRequiresFiniteQuery) {
  const GridIndex index({{40.0, 116.5}, {40.05, 116.55}}, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)index.nearest({nan, 116.5}), PreconditionError);
  EXPECT_THROW((void)index.nearest({40.0, inf}), PreconditionError);
  EXPECT_THROW((void)index.nearest({-inf, nan}), PreconditionError);
}

TEST(GridIndex, NearestOnePointIndex) {
  const GridIndex index({{40.0, 116.5}}, 0.5);
  for (const GeoPoint query : {GeoPoint{40.0, 116.5}, GeoPoint{39.0, 115.0},
                               GeoPoint{40.3, 116.9}, GeoPoint{-60.0, 10.0}}) {
    EXPECT_EQ(index.nearest(query), 0u);
  }
}

TEST(GridIndex, NearestCoLocatedDuplicatesPickLowestIndex) {
  // Clusters of exact duplicates: every query must resolve to the lowest
  // index of its nearest cluster, wherever that cluster sits in the table.
  Rng rng(41);
  std::vector<GeoPoint> points;
  for (int cluster = 0; cluster < 12; ++cluster) {
    const GeoPoint at{rng.uniform(40.00, 40.10), rng.uniform(116.40, 116.60)};
    for (int copy = 0; copy < 1 + cluster % 4; ++copy) points.push_back(at);
  }
  // Interleave a few singletons after the duplicates.
  for (const GeoPoint& p : random_points(rng, 5)) points.push_back(p);
  const GridIndex index(points, 0.5);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t got = index.nearest(points[i]);
    EXPECT_EQ(points[got], points[i]);
    EXPECT_LE(got, i);
    EXPECT_EQ(got, brute_nearest(index, points[i]));
  }
  for (int q = 0; q < 300; ++q) {
    const GeoPoint query{rng.uniform(39.99, 40.11),
                         rng.uniform(116.39, 116.61)};
    EXPECT_EQ(index.nearest(query), brute_nearest(index, query));
  }
}

TEST(GridIndex, NearestOnCellEdges) {
  // A 6x6 lattice puts points on radius-grid cell boundaries and makes
  // many queries equidistant from several points, so the lowest-index tie
  // rule decides. Queries step along both the nearest table's edges (the
  // box width over 6: about one point per cell) and the radius grid's
  // 0.5 km edges.
  const Projection lattice(GeoPoint{40.0, 116.5});
  std::vector<GeoPoint> points;
  for (int row = 0; row < 6; ++row) {
    for (int col = 0; col < 6; ++col) {
      points.push_back(lattice.to_geo({col * 0.5, row * 0.5}));
    }
  }
  const GridIndex index(points, 0.5);
  const Projection& projection = index.projection();
  const Projection::Xy lo = projection.to_xy(points.front());
  const Projection::Xy hi = projection.to_xy(points.back());
  const auto check = [&](double step_x, double step_y) {
    for (int i = -2; i <= 26; ++i) {
      for (int j = -2; j <= 26; ++j) {
        const GeoPoint query =
            projection.to_geo({lo.x_km + i * step_x, lo.y_km + j * step_y});
        EXPECT_EQ(index.nearest(query), brute_nearest(index, query))
            << "query step (" << i << ", " << j << ")";
      }
    }
  };
  check((hi.x_km - lo.x_km) / 24.0, (hi.y_km - lo.y_km) / 24.0);
  check(0.125, 0.125);
}

TEST(GridIndex, NearestOutsideBoundingBox) {
  Rng rng(5);
  const auto points = random_points(rng, 200);
  const GridIndex index(points, 0.5);
  for (int q = 0; q < 300; ++q) {
    // Up to ~30 km beyond the point box on every side.
    const GeoPoint query{rng.uniform(39.7, 40.4), rng.uniform(116.0, 117.0)};
    EXPECT_EQ(index.nearest(query), brute_nearest(index, query));
  }
  EXPECT_EQ(index.nearest({10.0, 10.0}), brute_nearest(index, {10.0, 10.0}));
}

TEST(GridIndex, NearestLongThinLayout) {
  // ~40 km of road with points ~2 m apart across it: the table must stay
  // O(n) and exact on a near-degenerate box.
  Rng rng(9);
  std::vector<GeoPoint> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({40.0 + rng.uniform(0.0, 0.00002),
                      rng.uniform(116.2, 116.7)});
  }
  points.push_back({40.0, 116.45});  // and exactly on the axis
  for (const double cell : {0.25, 2.0}) {
    const GridIndex index(points, cell);
    for (int q = 0; q < 300; ++q) {
      const GeoPoint query{rng.uniform(39.999, 40.001),
                           rng.uniform(116.19, 116.71)};
      EXPECT_EQ(index.nearest(query), brute_nearest(index, query));
    }
    for (const GeoPoint& p : points) {
      EXPECT_EQ(index.nearest(p), brute_nearest(index, p));
    }
  }
}

TEST(GridIndex, DuplicatePointsAllReturned) {
  const std::vector<GeoPoint> points{{40.0, 116.5}, {40.0, 116.5},
                                     {40.0, 116.5}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 0.01).size(), 3u);
  EXPECT_EQ(index.nearest({40.0, 116.5}), 0u);  // lowest index tie-break
}

}  // namespace
}  // namespace ccdn
