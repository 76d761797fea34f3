// Module 3's kernels.  The splitter machinery is dispatched: the rank-0
// histogram pass and the per-element bucket classification (splitter
// scan).  Both produce integers, so bit-identity here means "the same
// bins and buckets" — guaranteed because the offset arithmetic and the
// comparisons are the identical IEEE operations in both paths (see
// detail/canonical.hpp for the scalar reference).  The local sort has a
// single path and no ISA argument: a radix sort orders bit patterns, so
// its output is one byte sequence on every host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "kernels/dispatch.hpp"

namespace dipdc::kernels {

/// Increments hist[bin(v)] for every value: bin = clamp((v - lo) /
/// bin_width, 0, bins - 1) truncated toward zero.  `hist` has `bins`
/// entries and is NOT cleared first (callers can accumulate).
void histogram(Isa isa, const double* values, std::size_t n, double lo,
               double bin_width, std::size_t bins, std::uint64_t* hist);

/// out[i] = number of splitters <= values[i] (std::upper_bound's index
/// over the ascending `splitters`): the destination bucket/rank of each
/// element.  Requires nsplit < 2^32.
void bucket_indices(Isa isa, const double* values, std::size_t n,
                    const double* splitters, std::size_t nsplit,
                    std::uint32_t* out);

/// Sorts `keys` ascending in IEEE-754 totalOrder: -NaN < -inf < ... <
/// -0.0 < +0.0 < ... < +inf < +NaN.  On keys without NaNs or signed
/// zeros that is exactly operator<'s order, so the result equals
/// std::sort's byte for byte; with them, the output is still one
/// deterministic byte sequence for a given multiset, whatever order the
/// keys arrived in.  An MSD/LSD radix sort: in place above 65536 keys,
/// through at most 65536 doubles (512 KiB) of scratch below.
void sort_keys(std::span<double> keys);

namespace detail {
void histogram_avx2(const double* values, std::size_t n, double lo,
                    double bin_width, std::size_t bins, std::uint64_t* hist);
void bucket_indices_avx2(const double* values, std::size_t n,
                         const double* splitters, std::size_t nsplit,
                         std::uint32_t* out);
}  // namespace detail

}  // namespace dipdc::kernels
