// Module 3, out-of-core: bucket sort with the keys streamed from disk.
//
// The in-core sort starts from data already scattered across ranks and
// redistributes it with Alltoallv.  Out of core the redistribution
// dissolves into the stream: every chunk is broadcast past every rank,
// and each rank keeps exactly the keys that fall into its own equal-width
// bucket (the same dispatched splitter-scan kernel classifies them).
// After the sweep each rank sorts its bucket locally — the same multiset
// a no-streaming run would have assembled, so the sorted buckets are
// bit-identical to the in-core result however the input was split across
// ranks.
#include "modules/sort/module3.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>

#include "dataio/chunk.hpp"
#include "kernels/sort.hpp"
#include "minimpi/ops.hpp"
#include "modules/stream_sweep.hpp"
#include "support/error.hpp"

namespace dipdc::modules::distsort {

namespace mpi = minimpi;

namespace {

double log2_safe(std::size_t n) {
  return n < 2 ? 1.0 : std::log2(static_cast<double>(n));
}

template <typename T, typename Op>
T reduce_to_all(mpi::Comm& comm, T value, Op op) {
  T out{};
  comm.reduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, 0);
  return comm.bcast_value(out, 0);
}

}  // namespace

Result streamed_bucket_sort(mpi::Comm& comm, const std::string& chunk_path,
                            const Config& config, std::vector<double>& sorted,
                            const StreamConfig& stream) {
  DIPDC_REQUIRE(config.policy == SplitterPolicy::kEqualWidth,
                "streamed_bucket_sort needs data-independent (equal-width) "
                "splitters; histogram/sampling would have to see the data "
                "before it streams");
  const int p = comm.size();
  const auto np = static_cast<std::size_t>(p);
  const auto nr = static_cast<std::uint32_t>(comm.rank());
  Result result;

  std::unique_ptr<dataio::ChunkReader> reader;
  if (comm.rank() == 0) {
    reader = std::make_unique<dataio::ChunkReader>(chunk_path);
    DIPDC_REQUIRE(reader->dim() == 1, "key files are 1-dimensional rows");
  }
  const dataio::ChunkFileInfo geo =
      streaming::bcast_geometry(comm, reader.get());

  const double t0 = comm.wtime();

  // Splitters are a pure function of (lo, hi, p) — no data needed.
  const std::vector<double> splitters = compute_splitters(comm, {}, config);

  // Sweep — every chunk passes every rank; each keeps its bucket's keys.
  // Classification cost matches the in-core partition pass (one streaming
  // scan); the keeps are charged with it.
  std::vector<double> bucket;
  std::vector<std::uint32_t> dest;
  const kernels::Isa isa = kernels::resolve(config.kernel);
  streaming::chunk_sweep(
      comm, reader.get(), geo, stream.overlap,
      [&](std::size_t, std::span<const double> values) {
        dest.resize(values.size());
        kernels::bucket_indices(isa, values.data(), values.size(),
                                splitters.data(), splitters.size(),
                                dest.data());
        for (std::size_t i = 0; i < values.size(); ++i) {
          if (dest[i] == nr) bucket.push_back(values[i]);
        }
        comm.sim_compute(2.0 * static_cast<double>(values.size()),
                         8.0 * static_cast<double>(values.size()));
      });
  const double t_streamed = comm.wtime();

  // Local sort — same kernel and cost model as the in-core phase.
  comm.phase_begin("local_sort");
  kernels::sort_keys(bucket);
  const double nlogn =
      static_cast<double>(bucket.size()) * log2_safe(bucket.size());
  comm.sim_compute(2.0 * nlogn, 8.0 * nlogn);
  comm.phase_end();
  const double t_sorted = comm.wtime();

  // Verification mirrors the in-core sort: counts preserved, every rank
  // sorted, bucket fronts ordered across ranks.
  const long long global_out = reduce_to_all(
      comm, static_cast<long long>(bucket.size()), mpi::ops::Sum{});
  const bool locally_sorted = std::is_sorted(bucket.begin(), bucket.end());

  const double lowest = std::numeric_limits<double>::lowest();
  const double pair[2] = {bucket.empty() ? lowest : bucket.front(),
                          bucket.empty() ? lowest : bucket.back()};
  std::vector<double> fronts(2 * np);
  comm.gather(std::span<const double>(pair, 2), std::span<double>(fronts), 0);
  bool boundaries_ok = true;
  if (comm.rank() == 0) {
    double prev_max = lowest;
    for (std::size_t i = 0; i < np; ++i) {
      const double imn = fronts[2 * i];
      const double imx = fronts[2 * i + 1];
      if (imn == lowest && imx == lowest) continue;  // empty bucket
      if (imn < prev_max) boundaries_ok = false;
      prev_max = imx;
    }
  }
  boundaries_ok = comm.bcast_value(boundaries_ok, 0);

  const char all_ok = static_cast<char>(
      locally_sorted && boundaries_ok &&
      global_out == static_cast<long long>(geo.total_rows));
  result.globally_sorted =
      reduce_to_all(comm, all_ok, mpi::ops::LogicalAnd{}) != 0;

  const auto my_count = static_cast<long long>(bucket.size());
  const long long max_count = reduce_to_all(comm, my_count, mpi::ops::Max{});
  result.total_elements = static_cast<std::size_t>(global_out);
  result.local_elements = bucket.size();
  const double mean_count =
      static_cast<double>(global_out) / static_cast<double>(p);
  result.imbalance =
      mean_count > 0.0 ? static_cast<double>(max_count) / mean_count : 1.0;
  // Broadcasting every chunk to every rank is what this rank shipped /
  // received through the stream.
  result.exchange_bytes =
      static_cast<std::uint64_t>(geo.total_rows * sizeof(double));

  const double my_total = comm.wtime() - t0;
  result.sim_time = reduce_to_all(comm, my_total, mpi::ops::Max{});
  result.exchange_time = t_streamed - t0;
  result.sort_time = t_sorted - t_streamed;

  sorted = std::move(bucket);
  return result;
}

}  // namespace dipdc::modules::distsort
