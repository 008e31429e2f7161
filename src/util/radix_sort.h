// Stable LSD radix sort of records by a 64-bit key.
//
// Built for the θ-sweep's once-per-slot candidate ordering: tens of
// thousands of (distance, index) records where a comparison sort's
// branch-miss cost dominates; SlotDemand sorts a slot's packed
// (video, home) request keys with it too. Up to four 16-bit counting
// passes, all histograms filled in a single read of the data. A first read
// finds the key bits that vary; a digit with none is skipped and the others
// count only over their varying span, so keys confined to a narrow range
// (all city-scale distances share sign and high exponent bits; video and
// hotspot ids below 65536) sort in two or three scatters with histograms
// no larger than the ids need.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace ccdn {

struct KeyedIndex {
  std::uint64_t key = 0;
  std::uint32_t value = 0;
};

/// Total-order key for a non-negative finite double: the raw bit pattern of
/// an IEEE-754 double is monotone in the value on [0, +inf].
[[nodiscard]] inline std::uint64_t radix_key(double non_negative) noexcept {
  return std::bit_cast<std::uint64_t>(non_negative);
}

/// Sorts `items` by `key_of(item)` (a std::uint64_t) ascending, stable
/// (equal keys keep their relative order). `swap` and `hist` are
/// caller-owned scratch so a sort loop performs no allocations once they
/// reach steady-state size. Generic over the vectors' allocators so
/// arena-backed callers (util/arena.h) keep their scratch inside the lane
/// arena; `items` and `swap` must use the same allocator type (they
/// exchange buffers).
template <typename T, typename Alloc, typename HistAlloc, typename KeyOf>
inline void radix_sort_by_key(std::vector<T, Alloc>& items,
                              std::vector<T, Alloc>& swap,
                              std::vector<std::uint32_t, HistAlloc>& hist,
                              KeyOf key_of) {
  constexpr int kDigitBits = 16;
  constexpr int kPasses = 64 / kDigitBits;
  const std::size_t n = items.size();
  if (n < 2) return;

  // Bits that differ between keys. Each 16-bit digit counts only over its
  // varying span, so a digit that is constant across every record costs no
  // pass and narrow ids need only small histograms.
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (const auto& it : items) {
    const std::uint64_t key = key_of(it);
    any |= key;
    all &= key;
  }
  const std::uint64_t varying = any ^ all;
  struct Digit {
    int shift = 0;
    std::uint64_t mask = 0;
    std::size_t base = 0;  // offset of this digit's histogram in `hist`
  };
  Digit digits[kPasses];
  int num_digits = 0;
  std::size_t buckets = 0;
  for (int p = 0; p < kPasses; ++p) {
    const auto window = static_cast<std::uint16_t>(varying >> (p * kDigitBits));
    if (window == 0) continue;
    const int low = std::countr_zero(window);
    const int width = kDigitBits - std::countl_zero(window) - low;
    digits[num_digits++] = {p * kDigitBits + low,
                            (std::uint64_t{1} << width) - 1, buckets};
    buckets += std::size_t{1} << width;
  }
  if (num_digits == 0) return;  // all keys equal

  hist.assign(buckets, 0);
  for (const auto& it : items) {
    const std::uint64_t key = key_of(it);
    for (int d = 0; d < num_digits; ++d) {
      ++hist[digits[d].base + ((key >> digits[d].shift) & digits[d].mask)];
    }
  }

  swap.resize(n);
  std::vector<T, Alloc>* src = &items;
  std::vector<T, Alloc>* dst = &swap;
  for (int d = 0; d < num_digits; ++d) {
    const Digit digit = digits[d];
    std::uint32_t* h = hist.data() + digit.base;
    // Exclusive prefix sum turns counts into scatter cursors.
    std::uint32_t running = 0;
    for (std::size_t b = 0; b <= digit.mask; ++b) {
      const std::uint32_t count = h[b];
      h[b] = running;
      running += count;
    }
    for (const auto& it : *src) {
      (*dst)[h[(key_of(it) >> digit.shift) & digit.mask]++] = it;
    }
    std::swap(src, dst);
  }
  if (src != &items) items.swap(swap);
}

/// radix_sort_by_key over KeyedIndex records.
template <typename Alloc, typename HistAlloc>
inline void radix_sort_keyed(std::vector<KeyedIndex, Alloc>& items,
                             std::vector<KeyedIndex, Alloc>& swap,
                             std::vector<std::uint32_t, HistAlloc>& hist) {
  radix_sort_by_key(items, swap, hist,
                    [](const KeyedIndex& it) { return it.key; });
}

}  // namespace ccdn
