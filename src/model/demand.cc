#include "model/demand.h"

#include <algorithm>

#include "util/error.h"

namespace ccdn {

namespace {

// Video-major key: one sort orders the slot by video, then by home, so the
// distinct requested videos fall out of the run-length pass for free.
std::uint64_t pack(VideoId video, HotspotIndex home) {
  return (std::uint64_t{video} << 32) | home;
}

/// Per-hotspot demand as (key, count) records sorted by key.
std::vector<KeyedIndex> sorted_records(
    const std::vector<std::vector<VideoDemand>>& per_hotspot) {
  std::vector<KeyedIndex> records;
  for (std::size_t h = 0; h < per_hotspot.size(); ++h) {
    for (const VideoDemand& d : per_hotspot[h]) {
      records.push_back({pack(d.video, static_cast<HotspotIndex>(h)), d.count});
    }
  }
  std::vector<KeyedIndex> swap;
  std::vector<std::uint32_t> hist;
  radix_sort_keyed(records, swap, hist);
  return records;
}

}  // namespace

SlotDemand::SlotDemand(std::span<const Request> requests,
                       const GridIndex& hotspot_index) {
  // One key per request, one radix sort, one run-length pass: no
  // per-hotspot vectors, comparison sorts or merges.
  request_home_.resize(requests.size());
  std::vector<KeyedIndex> runs;
  {
    std::vector<std::uint64_t> keys(requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const auto home = static_cast<HotspotIndex>(
          hotspot_index.nearest(requests[r].location));
      request_home_[r] = home;
      keys[r] = pack(requests[r].video, home);
    }
    std::vector<std::uint64_t> swap;
    std::vector<std::uint32_t> hist;
    radix_sort_by_key(keys, swap, hist, [](std::uint64_t k) { return k; });
    for (const std::uint64_t key : keys) {
      if (runs.empty() || runs.back().key != key) {
        runs.push_back({key, 1});
      } else {
        ++runs.back().value;
      }
    }
  }  // the per-request keys are freed before the CSR view is built
  finalize(runs, hotspot_index.size());
}

SlotDemand::SlotDemand(std::vector<std::vector<VideoDemand>> per_hotspot) {
  std::vector<KeyedIndex> records = sorted_records(per_hotspot);
  finalize(records, per_hotspot.size());
}

SlotDemand::SlotDemand(
    std::vector<std::vector<VideoDemand>> predicted_per_hotspot,
    std::vector<HotspotIndex> request_home)
    : request_home_(std::move(request_home)) {
  for (const HotspotIndex home : request_home_) {
    CCDN_REQUIRE(home < predicted_per_hotspot.size(),
                 "request home out of range");
  }
  std::vector<KeyedIndex> records = sorted_records(predicted_per_hotspot);
  finalize(records, predicted_per_hotspot.size());
}

void SlotDemand::finalize(std::vector<KeyedIndex>& runs,
                          std::size_t num_hotspots) {
  // Merge duplicate (video, home) records.
  std::size_t write = 0;
  for (std::size_t read = 0; read < runs.size(); ++read) {
    if (write > 0 && runs[write - 1].key == runs[read].key) {
      runs[write - 1].value += runs[read].value;
    } else {
      runs[write++] = runs[read];
    }
  }
  runs.resize(write);

  loads_.assign(num_hotspots, 0);
  offsets_.assign(num_hotspots + 1, 0);
  for (const KeyedIndex& run : runs) {
    const auto home = static_cast<HotspotIndex>(run.key);
    const auto video = static_cast<VideoId>(run.key >> 32);
    ++offsets_[home + 1];
    loads_[home] += run.value;
    if (requested_videos_.empty() || requested_videos_.back() != video) {
      requested_videos_.push_back(video);
    }
  }
  for (std::size_t h = 0; h < num_hotspots; ++h) {
    offsets_[h + 1] += offsets_[h];
    total_requests_ += loads_[h];
  }
  // Stable counting scatter by home: runs arrive video-ascending, so each
  // hotspot's entries come out sorted by video.
  entries_.resize(runs.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const KeyedIndex& run : runs) {
    entries_[cursor[static_cast<HotspotIndex>(run.key)]++] = {
        static_cast<VideoId>(run.key >> 32), run.value};
  }
}

std::uint32_t SlotDemand::load(HotspotIndex h) const {
  CCDN_REQUIRE(h < loads_.size(), "hotspot index out of range");
  return loads_[h];
}

std::span<const VideoDemand> SlotDemand::video_demand(HotspotIndex h) const {
  CCDN_REQUIRE(h < loads_.size(), "hotspot index out of range");
  return std::span<const VideoDemand>(entries_).subspan(
      offsets_[h], offsets_[h + 1] - offsets_[h]);
}

std::uint32_t SlotDemand::demand_for(HotspotIndex h, VideoId video) const {
  const auto demands = video_demand(h);
  const auto it = std::lower_bound(
      demands.begin(), demands.end(), video,
      [](const VideoDemand& d, VideoId v) { return d.video < v; });
  if (it == demands.end() || it->video != video) return 0;
  return it->count;
}

}  // namespace ccdn
