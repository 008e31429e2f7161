#include "util/radix_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

TEST(RadixHeap64, PopsInNonDecreasingKeyOrder) {
  RadixHeap64 heap;
  EXPECT_TRUE(heap.empty());
  heap.push(5, 0);
  heap.push(1, 1);
  heap.push(9, 2);
  heap.push(1, 3);
  EXPECT_EQ(heap.size(), 4u);
  std::uint64_t last = 0;
  while (!heap.empty()) {
    const auto [key, value] = heap.pop();
    EXPECT_GE(key, last);
    last = key;
  }
  EXPECT_EQ(last, 9u);
}

TEST(RadixHeap64, PopFromEmptyThrows) {
  RadixHeap64 heap;
  EXPECT_THROW((void)heap.pop(), PreconditionError);
}

TEST(RadixHeap64, ClearResetsTheMonotoneFloor) {
  RadixHeap64 heap;
  heap.push(100, 0);
  (void)heap.pop();  // floor advances to 100
  heap.clear();
  heap.push(1, 1);  // below the old floor: legal again after clear
  EXPECT_EQ(heap.pop().first, 1u);
}

TEST(RadixHeap64, HandlesExtremeKeys) {
  RadixHeap64 heap;
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  heap.push(0, 0);
  heap.push(big, 1);
  heap.push(big - 1, 2);
  EXPECT_EQ(heap.pop(), (RadixHeap64::Entry{0, 0}));
  EXPECT_EQ(heap.pop(), (RadixHeap64::Entry{big - 1, 2}));
  EXPECT_EQ(heap.pop(), (RadixHeap64::Entry{big, 1}));
}

/// Random monotone workload against std::priority_queue: interleave pushes
/// (keys >= the last popped minimum, as Dijkstra guarantees) with pops and
/// require the popped key sequence to match the reference exactly. Payload
/// order on ties is unspecified for both heaps, so only keys are compared.
class RadixHeapMonotone : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixHeapMonotone, MatchesBinaryHeapKeySequence) {
  Rng rng(GetParam());
  RadixHeap64 heap;
  using RefEntry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<>> ref;
  std::uint64_t floor = 0;
  std::uint32_t next_value = 0;
  for (int round = 0; round < 4000; ++round) {
    if (ref.empty() || rng.chance(0.6)) {
      const std::uint64_t key =
          floor + static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
      heap.push(key, next_value);
      ref.emplace(key, next_value);
      ++next_value;
    } else {
      ASSERT_EQ(heap.size(), ref.size());
      const auto [key, value] = heap.pop();
      ASSERT_EQ(key, ref.top().first) << "round " << round;
      ref.pop();
      floor = key;
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.pop().first, ref.top().first);
    ref.pop();
  }
  EXPECT_TRUE(heap.empty());
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, RadixHeapMonotone,
                         testing::Range<std::uint64_t>(1, 17));

/// Dijkstra run off a radix heap settles every node at the same distance as
/// Dijkstra off a binary heap.
/// Random sparse digraphs with non-negative integer weights; lazy-deletion
/// Dijkstra in both cases, only the heap differs.
class RadixHeapDijkstra : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixHeapDijkstra, DistancesMatchBinaryHeapDijkstra) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.index(60);
  struct Arc {
    std::uint32_t to;
    std::uint64_t weight;
  };
  std::vector<std::vector<Arc>> adj(n);
  const std::size_t arcs = 2 * n + rng.index(4 * n);
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.index(n));
    const auto v = static_cast<std::uint32_t>(rng.index(n));
    adj[u].push_back(
        {v, static_cast<std::uint64_t>(rng.uniform_int(0, 10000))});
  }
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

  std::vector<std::uint64_t> dist_binary(n, kInf);
  {
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist_binary[0] = 0;
    heap.emplace(0, 0);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist_binary[u]) continue;  // stale
      for (const Arc& arc : adj[u]) {
        if (d + arc.weight < dist_binary[arc.to]) {
          dist_binary[arc.to] = d + arc.weight;
          heap.emplace(dist_binary[arc.to], arc.to);
        }
      }
    }
  }

  std::vector<std::uint64_t> dist_radix(n, kInf);
  {
    RadixHeap64 heap;
    dist_radix[0] = 0;
    heap.push(0, 0);
    while (!heap.empty()) {
      const auto [d, u] = heap.pop();
      if (d > dist_radix[u]) continue;  // stale
      for (const Arc& arc : adj[u]) {
        if (d + arc.weight < dist_radix[arc.to]) {
          dist_radix[arc.to] = d + arc.weight;
          heap.push(dist_radix[arc.to], arc.to);
        }
      }
    }
  }

  EXPECT_EQ(dist_radix, dist_binary);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RadixHeapDijkstra,
                         testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace ccdn
