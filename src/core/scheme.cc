#include "core/scheme.h"

#include <algorithm>

#include "util/error.h"

namespace ccdn {

std::size_t SlotPlan::total_replicas() const noexcept {
  std::size_t total = 0;
  for (const auto& videos : placements) total += videos.size();
  return total;
}

bool SlotPlan::respects_caches(const std::vector<Hotspot>& hotspots) const {
  if (placements.size() != hotspots.size()) return false;
  for (std::size_t h = 0; h < placements.size(); ++h) {
    const auto& videos = placements[h];
    if (videos.size() > hotspots[h].cache_capacity) return false;
    if (!std::is_sorted(videos.begin(), videos.end())) return false;
    if (std::adjacent_find(videos.begin(), videos.end()) != videos.end()) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> placement_hits(
    std::span<const Request> requests, std::span<const HotspotIndex> targets,
    const std::vector<std::vector<VideoId>>& placements) {
  CCDN_REQUIRE(targets.size() == requests.size(),
               "targets/requests length mismatch");
  const std::size_t m = placements.size();
  std::vector<std::uint8_t> hits(requests.size(), 0);
  std::size_t num_placed = 0;  // 1 + the largest placed video id
  for (const auto& videos : placements) {
    for (const VideoId v : videos) {
      num_placed = std::max<std::size_t>(num_placed, std::size_t{v} + 1);
    }
  }
  if (num_placed == 0) return hits;

  // Counting sort of the requests by target; bucket m collects the CDN and
  // out-of-range targets. Videos travel with their request index so each
  // bucket scan reads sequentially.
  const auto bucket_of = [m](HotspotIndex target) {
    return target < m ? std::size_t{target} : m;
  };
  std::vector<std::uint32_t> start(m + 2, 0);
  for (const HotspotIndex target : targets) ++start[bucket_of(target) + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<std::uint32_t> order(requests.size());
  std::vector<VideoId> videos(requests.size());
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const std::uint32_t k = cursor[bucket_of(targets[r])]++;
      order[k] = static_cast<std::uint32_t>(r);
      videos[k] = requests[r].video;
    }
  }

  // owner[v] == h exactly while hotspot h's bucket is scanned and h places
  // v; stamps of earlier hotspots never equal h, so nothing is cleared.
  std::vector<HotspotIndex> owner(num_placed, kCdnServer);
  for (std::size_t h = 0; h < m; ++h) {
    if (start[h] == start[h + 1]) continue;
    const auto stamp = static_cast<HotspotIndex>(h);
    for (const VideoId v : placements[h]) owner[v] = stamp;
    for (std::uint32_t k = start[h]; k < start[h + 1]; ++k) {
      hits[order[k]] = videos[k] < num_placed && owner[videos[k]] == stamp;
    }
  }
  return hits;
}

std::size_t count_new_replicas(
    const std::vector<std::vector<VideoId>>& previous,
    const std::vector<std::vector<VideoId>>& current) {
  std::size_t pushes = 0;
  for (std::size_t h = 0; h < current.size(); ++h) {
    if (h >= previous.size() || previous[h].empty()) {
      pushes += current[h].size();
      continue;
    }
    const auto& old_set = previous[h];
    for (const VideoId v : current[h]) {
      if (!std::binary_search(old_set.begin(), old_set.end(), v)) ++pushes;
    }
  }
  return pushes;
}

}  // namespace ccdn
