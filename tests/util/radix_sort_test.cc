#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace ccdn {
namespace {

std::vector<KeyedIndex> sorted_by_std(std::vector<KeyedIndex> items) {
  std::stable_sort(items.begin(), items.end(),
                   [](const KeyedIndex& a, const KeyedIndex& b) {
                     return a.key < b.key;
                   });
  return items;
}

void expect_same(const std::vector<KeyedIndex>& got,
                 const std::vector<KeyedIndex>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "at " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "at " << i;
  }
}

TEST(RadixSort, EmptyAndSingle) {
  std::vector<KeyedIndex> items;
  std::vector<KeyedIndex> swap;
  std::vector<std::uint32_t> hist;
  radix_sort_keyed(items, swap, hist);
  EXPECT_TRUE(items.empty());
  items = {{42, 7}};
  radix_sort_keyed(items, swap, hist);
  EXPECT_EQ(items[0].key, 42u);
  EXPECT_EQ(items[0].value, 7u);
}

TEST(RadixSort, MatchesStableSortOnRandomKeys) {
  Rng rng(123);
  std::vector<KeyedIndex> swap;
  std::vector<std::uint32_t> hist;
  for (const std::size_t n : {2u, 17u, 1000u, 5000u}) {
    std::vector<KeyedIndex> items;
    items.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      // Narrow key range forces duplicates, exercising stability.
      items.push_back({rng() % (n / 2 + 1), i});
    }
    const auto want = sorted_by_std(items);
    radix_sort_keyed(items, swap, hist);
    expect_same(items, want);
  }
}

TEST(RadixSort, MatchesStableSortOnDoubleKeys) {
  Rng rng(7);
  std::vector<KeyedIndex> items;
  std::vector<KeyedIndex> swap;
  std::vector<std::uint32_t> hist;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    // City-scale distances: narrow exponent range, so high digits are
    // near-constant and the skip-identity-pass branch is exercised.
    items.push_back({radix_key(rng.uniform(0.0, 1.5)), i});
  }
  items.push_back({radix_key(0.0), 3000});
  items.push_back({radix_key(0.0), 3001});
  const auto want = sorted_by_std(items);
  radix_sort_keyed(items, swap, hist);
  expect_same(items, want);
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end(),
                             [](const KeyedIndex& a, const KeyedIndex& b) {
                               return a.key < b.key;
                             }));
}

TEST(RadixSort, MatchesStableSortOnPackedIdKeys) {
  // (video << 32 | home) keys as SlotDemand packs them: the varying bits
  // sit in two narrow spans inside separate digits, one of them straddling
  // a digit boundary, with fixed high bits that never vary.
  Rng rng(99);
  std::vector<KeyedIndex> items;
  std::vector<KeyedIndex> swap;
  std::vector<std::uint32_t> hist;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const std::uint64_t home = 8 + 8 * (rng() % 37);
    const std::uint64_t video = 0x2000 + (rng() % 70000);
    items.push_back({(video << 32) | home | (std::uint64_t{1} << 63), i});
  }
  const auto want = sorted_by_std(items);
  radix_sort_keyed(items, swap, hist);
  expect_same(items, want);
  // Histograms span only the varying bits, not four full 16-bit digits.
  EXPECT_LT(hist.size(), std::size_t{3} << 16);
}

TEST(RadixSort, AllKeysEqualKeepsOrder) {
  std::vector<KeyedIndex> items;
  std::vector<KeyedIndex> swap;
  std::vector<std::uint32_t> hist;
  for (std::uint32_t i = 0; i < 100; ++i) items.push_back({5, i});
  radix_sort_keyed(items, swap, hist);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(items[i].value, i);
}

TEST(RadixSort, RadixKeyMonotone) {
  const double values[] = {0.0, 1e-12, 0.05, 0.3, 1.0, 1.5, 1e6};
  for (std::size_t i = 1; i < std::size(values); ++i) {
    EXPECT_LT(radix_key(values[i - 1]), radix_key(values[i]));
  }
}

}  // namespace
}  // namespace ccdn
