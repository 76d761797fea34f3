// Scalar implementations + ISA dispatch for the sort-module kernels, and
// the local radix sort.  Compiled with -ffp-contract=off (see
// distance.cpp) — moot for the integer results here, but the whole
// library keeps one contract.
#include "kernels/sort.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>

#include "kernels/detail/canonical.hpp"

namespace dipdc::kernels {

namespace {

// Radix geometry.  A range above kLsdMax keys is split in place by one
// American-flag pass; a range of at most kLsdMax keys is finished by LSD
// passes through the scratch buffer (512 KiB, so it stays in cache); a
// range of at most kInsertionMax keys by insertion sort.
constexpr std::size_t kLsdMax = 65536;
constexpr std::size_t kInsertionMax = 32;
constexpr int kDigitBits = 8;
constexpr int kDigits = 64 / kDigitBits;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;

/// The unsigned image of a double in IEEE-754 totalOrder: negatives flip
/// every bit (a larger magnitude becomes a smaller key), non-negatives
/// flip only the sign bit (so they rank above every negative).
std::uint64_t order_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | (std::uint64_t{1} << 63));
}

std::size_t digit(std::uint64_t key, int shift) {
  return static_cast<std::size_t>(key >> shift) & (kRadix - 1);
}

void insertion_sort(double* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const double v = a[i];
    const std::uint64_t k = order_key(v);
    std::size_t j = i;
    for (; j > 0 && order_key(a[j - 1]) > k; --j) a[j] = a[j - 1];
    a[j] = v;
  }
}

/// Sorts a[0, n), kInsertionMax < n <= kLsdMax, by stable LSD passes that
/// ping-pong through `scratch` (n doubles).  One read counts every digit;
/// a digit on which all keys agree needs no pass.
void lsd_sort(double* a, std::size_t n, double* scratch) {
  std::array<std::array<std::uint32_t, kRadix>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = order_key(a[i]);
    for (int d = 0; d < kDigits; ++d) {
      ++counts[static_cast<std::size_t>(d)][digit(k, d * kDigitBits)];
    }
  }
  const std::uint64_t first = order_key(a[0]);
  double* src = a;
  double* dst = scratch;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    const auto& count = counts[static_cast<std::size_t>(d)];
    if (count[digit(first, shift)] == n) continue;
    std::array<std::uint32_t, kRadix> next{};
    std::uint32_t placed = 0;
    for (std::size_t b = 0; b < kRadix; ++b) {
      next[b] = placed;
      placed += count[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[next[digit(order_key(src[i]), shift)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != a) std::copy(src, src + n, a);
}

void sort_range(double* a, std::size_t n, double* scratch);

/// Sorts a[0, n), n > kLsdMax: one in-place American-flag pass on the
/// 8-bit digit that ends at the range's highest differing bit, then each
/// bucket on its own.  A bucket's keys agree on every bit from `shift`
/// up, so the recursion is at most eight levels deep.
void msd_sort(double* a, std::size_t n, double* scratch) {
  const std::uint64_t first = order_key(a[0]);
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < n; ++i) differ |= order_key(a[i]) ^ first;
  if (differ == 0) return;  // all keys equal
  const int top = 63 - std::countl_zero(differ);
  const int shift = std::max(top - (kDigitBits - 1), 0);

  std::array<std::size_t, kRadix> count{};
  for (std::size_t i = 0; i < n; ++i) ++count[digit(order_key(a[i]), shift)];
  std::array<std::size_t, kRadix> head{};
  std::array<std::size_t, kRadix> end{};
  std::size_t placed = 0;
  for (std::size_t b = 0; b < kRadix; ++b) {
    head[b] = placed;
    placed += count[b];
    end[b] = placed;
  }
  // Cycle leader: pick up the first misplaced key of bucket b and swap it
  // into its own bucket's next free slot until a key for b comes back.
  for (std::size_t b = 0; b < kRadix; ++b) {
    while (head[b] < end[b]) {
      double v = a[head[b]];
      std::size_t d = digit(order_key(v), shift);
      while (d != b) {
        std::swap(v, a[head[d]++]);
        d = digit(order_key(v), shift);
      }
      a[head[b]++] = v;
    }
  }
  std::size_t begin = 0;
  for (std::size_t b = 0; b < kRadix; ++b) {
    sort_range(a + begin, count[b], scratch);
    begin += count[b];
  }
}

void sort_range(double* a, std::size_t n, double* scratch) {
  if (n <= kInsertionMax) {
    insertion_sort(a, n);
  } else if (n <= kLsdMax) {
    lsd_sort(a, n, scratch);
  } else {
    msd_sort(a, n, scratch);
  }
}

}  // namespace

void sort_keys(std::span<double> keys) {
  const std::size_t n = keys.size();
  std::unique_ptr<double[]> scratch;
  if (n > kInsertionMax) {
    scratch = std::make_unique_for_overwrite<double[]>(std::min(n, kLsdMax));
  }
  sort_range(keys.data(), n, scratch.get());
}

void histogram(Isa isa, const double* values, std::size_t n, double lo,
               double bin_width, std::size_t bins, std::uint64_t* hist) {
  if (isa == Isa::kSimd) {
    detail::histogram_avx2(values, n, lo, bin_width, bins, hist);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ++hist[detail::histogram_bin_ref(values[i], lo, bin_width, bins)];
  }
}

void bucket_indices(Isa isa, const double* values, std::size_t n,
                    const double* splitters, std::size_t nsplit,
                    std::uint32_t* out) {
  if (isa == Isa::kSimd) {
    detail::bucket_indices_avx2(values, n, splitters, nsplit, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        detail::bucket_of_ref(values[i], splitters, nsplit));
  }
}

}  // namespace dipdc::kernels
