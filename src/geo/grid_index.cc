#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace ccdn {

GridIndex::GridIndex(std::vector<GeoPoint> points, double cell_km)
    : points_(std::move(points)),
      projection_(GeoPoint{}),
      cell_km_(cell_km) {
  CCDN_REQUIRE(!points_.empty(), "empty point set");
  CCDN_REQUIRE(cell_km > 0.0, "non-positive cell size");

  GeoPoint lo = points_.front();
  GeoPoint hi = points_.front();
  for (const auto& p : points_) {
    lo.lat = std::min(lo.lat, p.lat);
    lo.lon = std::min(lo.lon, p.lon);
    hi.lat = std::max(hi.lat, p.lat);
    hi.lon = std::max(hi.lon, p.lon);
  }
  projection_ = Projection(BoundingBox{lo, hi}.center());

  projected_.reserve(points_.size());
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (const auto& p : points_) {
    const auto xy = projection_.to_xy(p);
    projected_.push_back(xy);
    min_x = std::min(min_x, xy.x_km);
    min_y = std::min(min_y, xy.y_km);
    max_x = std::max(max_x, xy.x_km);
    max_y = std::max(max_y, xy.y_km);
  }
  min_x_ = min_x;
  min_y_ = min_y;
  cols_ = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::floor((max_x - min_x) / cell_km_)) + 1);
  rows_ = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::floor((max_y - min_y) / cell_km_)) + 1);

  // Counting sort of point ids into cells.
  const std::size_t cell_count =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  std::vector<std::uint32_t> counts(cell_count + 1, 0);
  std::vector<std::size_t> slots(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    slots[i] = cell_slot(cell_of(projected_[i]));
    ++counts[slots[i] + 1];
  }
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  bucket_offsets_ = counts;
  bucket_ids_.resize(points_.size());
  std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    bucket_ids_[cursor[slots[i]]++] = static_cast<std::uint32_t>(i);
  }
  max_x_ = max_x;
  max_y_ = max_y;
  build_nearest_table();
}

void GridIndex::build_nearest_table() {
  // About one point per cell, and never more than n+1 cells along an axis,
  // so the table holds O(n) cells even for a degenerate (thin) layout.
  const double width = max_x_ - min_x_;
  const double height = max_y_ - min_y_;
  const auto n = static_cast<double>(points_.size());
  const double side =
      std::max(std::sqrt(width * height / n), std::max(width, height) / n);
  table_cell_km_ = side > 0.0 ? side : 1.0;  // all points coincide
  const auto cells_along = [&](double extent) {
    return std::max<std::int32_t>(
        1, static_cast<std::int32_t>(std::ceil(extent / table_cell_km_)));
  };
  table_cols_ = cells_along(width);
  table_rows_ = cells_along(height);

  // A query q in cell C has d(q, NN(q)) <= d(q, NN(c)) <= U, where c is C's
  // centre and U = d(c, NN(c)) + half of C's diagonal. Only points within U
  // of C can therefore be nearest to any q in C. `pad` absorbs the rounding
  // of the d^2/sqrt arithmetic and of a query's cell assignment.
  const double pad = 1e-9 * (1.0 + width + height);
  const double half_diagonal = table_cell_km_ * std::sqrt(0.5);
  const std::size_t cell_count = static_cast<std::size_t>(table_cols_) *
                                 static_cast<std::size_t>(table_rows_);
  table_offsets_.assign(cell_count + 1, 0);
  table_ids_.clear();
  std::vector<std::uint32_t> list;
  for (std::int32_t row = 0; row < table_rows_; ++row) {
    for (std::int32_t col = 0; col < table_cols_; ++col) {
      const double x0 = min_x_ + col * table_cell_km_;
      const double y0 = min_y_ + row * table_cell_km_;
      const double x1 = x0 + table_cell_km_;
      const double y1 = y0 + table_cell_km_;
      const Projection::Xy centre{(x0 + x1) / 2.0, (y0 + y1) / 2.0};
      const Projection::Xy& nn = projected_[ring_nearest(centre)];
      const double reach =
          std::hypot(nn.x_km - centre.x_km, nn.y_km - centre.y_km) +
          half_diagonal + pad;
      const double reach2 = reach * reach;
      const Cell lo = cell_of({x0 - reach, y0 - reach});
      const Cell hi = cell_of({x1 + reach, y1 + reach});
      list.clear();
      for (std::int32_t r = lo.row; r <= hi.row; ++r) {
        for (std::int32_t c = lo.col; c <= hi.col; ++c) {
          const std::size_t slot = cell_slot({c, r});
          for (std::uint32_t k = bucket_offsets_[slot];
               k < bucket_offsets_[slot + 1]; ++k) {
            const std::uint32_t id = bucket_ids_[k];
            const Projection::Xy& p = projected_[id];
            // Distance from p to the cell rectangle.
            const double dx = std::max({0.0, x0 - p.x_km, p.x_km - x1});
            const double dy = std::max({0.0, y0 - p.y_km, p.y_km - y1});
            if (dx * dx + dy * dy <= reach2) list.push_back(id);
          }
        }
      }
      std::sort(list.begin(), list.end());
      table_ids_.insert(table_ids_.end(), list.begin(), list.end());
      table_offsets_[static_cast<std::size_t>(row) *
                         static_cast<std::size_t>(table_cols_) +
                     static_cast<std::size_t>(col) + 1] =
          static_cast<std::uint32_t>(table_ids_.size());
    }
  }
}

GridIndex::Cell GridIndex::cell_of(const Projection::Xy& xy) const noexcept {
  // Clamped in floating point before the cast, so a far-away query never
  // converts an out-of-range value to int.
  const auto clamp = [](double offset, std::int32_t hi) {
    return static_cast<std::int32_t>(
        std::clamp(std::floor(offset), 0.0, static_cast<double>(hi - 1)));
  };
  return {clamp((xy.x_km - min_x_) / cell_km_, cols_),
          clamp((xy.y_km - min_y_) / cell_km_, rows_)};
}

std::size_t GridIndex::cell_slot(Cell c) const noexcept {
  return static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(c.col);
}

std::int32_t GridIndex::reach_cells(double radius_km) const noexcept {
  return static_cast<std::int32_t>(
      std::min(std::ceil(radius_km / cell_km_),
               static_cast<double>(std::max(cols_, rows_))));
}

std::size_t GridIndex::nearest(const GeoPoint& query) const {
  CCDN_REQUIRE(std::isfinite(query.lat) && std::isfinite(query.lon),
               "non-finite query point");
  const auto q = projection_.to_xy(query);
  if (!(q.x_km >= min_x_ && q.x_km <= max_x_ && q.y_km >= min_y_ &&
        q.y_km <= max_y_)) {
    return ring_nearest(q);
  }
  const auto col = std::min(
      table_cols_ - 1,
      static_cast<std::int32_t>((q.x_km - min_x_) / table_cell_km_));
  const auto row = std::min(
      table_rows_ - 1,
      static_cast<std::int32_t>((q.y_km - min_y_) / table_cell_km_));
  const std::size_t slot =
      static_cast<std::size_t>(row) * static_cast<std::size_t>(table_cols_) +
      static_cast<std::size_t>(col);
  // Lists are ascending by id, so a strict < keeps the lowest-index tie.
  std::size_t best = 0;
  double best_dist2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t k = table_offsets_[slot]; k < table_offsets_[slot + 1];
       ++k) {
    const std::uint32_t id = table_ids_[k];
    const double dx = projected_[id].x_km - q.x_km;
    const double dy = projected_[id].y_km - q.y_km;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_dist2) {
      best_dist2 = d2;
      best = id;
    }
  }
  return best;
}

std::size_t GridIndex::ring_nearest(const Projection::Xy& q) const {
  const Cell center = cell_of(q);
  std::size_t best = 0;
  double best_dist2 = std::numeric_limits<double>::infinity();

  const auto scan_ring = [&](std::int32_t ring) {
    for (std::int32_t row = center.row - ring; row <= center.row + ring;
         ++row) {
      if (row < 0 || row >= rows_) continue;
      for (std::int32_t col = center.col - ring; col <= center.col + ring;
           ++col) {
        if (col < 0 || col >= cols_) continue;
        // Only the ring boundary; interior was scanned at smaller rings.
        if (ring > 0 && row != center.row - ring && row != center.row + ring &&
            col != center.col - ring && col != center.col + ring) {
          continue;
        }
        const std::size_t slot = cell_slot({col, row});
        for (std::uint32_t k = bucket_offsets_[slot];
             k < bucket_offsets_[slot + 1]; ++k) {
          const std::uint32_t id = bucket_ids_[k];
          const double dx = projected_[id].x_km - q.x_km;
          const double dy = projected_[id].y_km - q.y_km;
          const double d2 = dx * dx + dy * dy;
          if (d2 < best_dist2 ||
              (d2 == best_dist2 && id < best)) {
            best_dist2 = d2;
            best = id;
          }
        }
      }
    }
  };

  const std::int32_t max_ring = std::max(cols_, rows_);
  for (std::int32_t ring = 0; ring <= max_ring; ++ring) {
    scan_ring(ring);
    if (best_dist2 < std::numeric_limits<double>::infinity()) {
      // A candidate found at ring r is only guaranteed optimal once we have
      // scanned every cell that could contain a closer point: cells within
      // ceil(sqrt(best)/cell) rings.
      const double best_dist = std::sqrt(best_dist2);
      const auto safe_ring =
          static_cast<std::int32_t>(std::ceil(best_dist / cell_km_));
      if (ring >= safe_ring) break;
    }
  }
  return best;
}

std::vector<std::size_t> GridIndex::within_radius(const GeoPoint& query,
                                                  double radius_km) const {
  std::vector<std::size_t> out;
  within_radius(query, radius_km, out);
  return out;
}

void GridIndex::within_radius(const GeoPoint& query, double radius_km,
                              std::vector<std::size_t>& out) const {
  CCDN_REQUIRE(std::isfinite(radius_km), "non-finite radius");
  CCDN_REQUIRE(radius_km >= 0.0, "negative radius");
  out.clear();
  const auto q = projection_.to_xy(query);
  const Cell center = cell_of(q);
  const std::int32_t reach = reach_cells(radius_km);
  const double radius2 = radius_km * radius_km;
  for (std::int32_t row = center.row - reach; row <= center.row + reach;
       ++row) {
    if (row < 0 || row >= rows_) continue;
    for (std::int32_t col = center.col - reach; col <= center.col + reach;
         ++col) {
      if (col < 0 || col >= cols_) continue;
      const std::size_t slot = cell_slot({col, row});
      for (std::uint32_t k = bucket_offsets_[slot];
           k < bucket_offsets_[slot + 1]; ++k) {
        const std::uint32_t id = bucket_ids_[k];
        const double dx = projected_[id].x_km - q.x_km;
        const double dy = projected_[id].y_km - q.y_km;
        if (dx * dx + dy * dy <= radius2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

GridIndex::Subset::Subset(const GridIndex& parent) : parent_(&parent) {}

void GridIndex::Subset::assign(std::span<const std::uint32_t> ids) {
  const std::size_t cell_count = static_cast<std::size_t>(parent_->cols_) *
                                 static_cast<std::size_t>(parent_->rows_);
  offsets_.assign(cell_count + 1, 0);
  slots_.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t id = ids[i];
    CCDN_REQUIRE(id < parent_->points_.size(), "subset id out of range");
    slots_[i] = static_cast<std::uint32_t>(
        parent_->cell_slot(parent_->cell_of(parent_->projected_[id])));
    ++offsets_[slots_[i] + 1];
  }
  for (std::size_t c = 1; c < offsets_.size(); ++c) {
    offsets_[c] += offsets_[c - 1];
  }
  ids_.resize(ids.size());
  // Counting sort keeps insertion order per cell; within_radius sorts the
  // collected hits anyway, so subset order does not matter here.
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids_[cursor[slots_[i]]++] = ids[i];
  }
}

void GridIndex::Subset::within_radius(const GeoPoint& query, double radius_km,
                                      std::vector<std::size_t>& out) const {
  CCDN_REQUIRE(std::isfinite(radius_km), "non-finite radius");
  CCDN_REQUIRE(radius_km >= 0.0, "negative radius");
  out.clear();
  const GridIndex& g = *parent_;
  const auto q = g.projection_.to_xy(query);
  const Cell center = g.cell_of(q);
  const std::int32_t reach = g.reach_cells(radius_km);
  const double radius2 = radius_km * radius_km;
  for (std::int32_t row = center.row - reach; row <= center.row + reach;
       ++row) {
    if (row < 0 || row >= g.rows_) continue;
    for (std::int32_t col = center.col - reach; col <= center.col + reach;
         ++col) {
      if (col < 0 || col >= g.cols_) continue;
      const std::size_t slot = g.cell_slot({col, row});
      for (std::uint32_t k = offsets_[slot]; k < offsets_[slot + 1]; ++k) {
        const std::uint32_t id = ids_[k];
        const double dx = g.projected_[id].x_km - q.x_km;
        const double dy = g.projected_[id].y_km - q.y_km;
        if (dx * dx + dy * dy <= radius2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<std::size_t> GridIndex::k_nearest(const GeoPoint& query,
                                              std::size_t k) const {
  k = std::min(k, points_.size());
  if (k == 0) return {};
  // Expand the radius until at least k candidates are inside, then sort.
  double radius = cell_km_;
  std::vector<std::size_t> candidates;
  while (true) {
    candidates = within_radius(query, radius);
    if (candidates.size() >= k) break;
    const double diag =
        cell_km_ * (static_cast<double>(cols_) + static_cast<double>(rows_));
    if (radius > diag) {  // whole grid covered
      break;
    }
    radius *= 2.0;
  }
  const auto q = projection_.to_xy(query);
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              const double dax = projected_[a].x_km - q.x_km;
              const double day = projected_[a].y_km - q.y_km;
              const double dbx = projected_[b].x_km - q.x_km;
              const double dby = projected_[b].y_km - q.y_km;
              const double da = dax * dax + day * day;
              const double db = dbx * dbx + dby * dby;
              if (da != db) return da < db;
              return a < b;
            });
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

}  // namespace ccdn
