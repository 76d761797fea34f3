// Module 4, serving mode — a sharded range-query *service* under
// sustained load (ROADMAP item 2: the "millions of users" scenario the
// batch module can only gesture at).
//
// The batch module (module4.hpp) replicates the points on every rank,
// answers one fixed query set, and exits.  Serving mode changes all
// three premises:
//
//   * **Sharded data.**  The extent is cut into a g x g spatial grid and
//     the row-major cell ids are block-partitioned over the shard ranks
//     (container::Partitioning — the same deterministic cut machinery
//     the elastic containers use).  Each shard materializes only its own
//     points, stored as coordinate arrays (SoA) for the SIMD filter
//     kernel; no rank holds the whole dataset.
//   * **Open-loop load.**  Rank 0 is a driver generating a sustained
//     query stream at a fixed offered rate: arrival i happens at
//     (i+1)/qps whether or not the system has kept up (open loop — the
//     defining property that lets saturation actually hurt).  Queries
//     are admitted into a bounded queue (arrivals beyond the cap are
//     rejected and counted), closed into fixed-size admission batches,
//     and each batch is routed to exactly the shards whose cell ranges
//     intersect each query window.
//   * **Pipelined execution.**  Up to `pipeline` batches are in flight:
//     the driver scatters batch k+1 while the shards still execute
//     batch k, then gathers per-query match counts and records each
//     query's latency (completion minus arrival) into an obs log2
//     histogram.  p50/p99 and achieved queries/sec come out of that
//     histogram — the serving numbers the handbook chapter reads.
//
// Everything runs in simulated time on the minimpi machine model, so a
// fixed configuration is bit-identical across transport backends and
// kernel ISAs: the same queries are admitted, dropped, and answered,
// with the same latencies, on threads and tcp.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "kernels/dispatch.hpp"
#include "minimpi/comm.hpp"
#include "modules/rangequery/module4.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace dipdc::modules::rangequery {

/// Spatial mix of the open-loop query stream.
enum class Mix {
  kUniform,  // windows uniformly placed over the whole extent
  kHotspot,  // `hot_fraction` of windows inside one small hot box
  kZipf,     // window placement by Zipf-ranked grid-cell popularity
};

/// Parses "uniform" | "hotspot" | "zipf" (throws support::
/// PreconditionError on anything else).
Mix parse_mix(std::string_view text);
const char* mix_name(Mix mix);

struct ServeConfig {
  // Dataset: n_points uniform in [0, extent)^2, sharded by grid cell.
  std::size_t n_points = 50000;
  double extent = 100.0;
  /// Query window side (windows are placed corner-first and kept inside
  /// the extent).
  double side = 4.0;

  // Open-loop workload.
  double qps = 4000.0;    // offered arrival rate (queries per simulated second)
  double duration = 1.0;  // seconds of arrivals (offered = round(qps*duration))
  Mix mix = Mix::kUniform;
  double hot_fraction = 0.9;         // hotspot: share of queries in the hot box
  double hot_extent_fraction = 0.1;  // hotspot: hot box side / extent
  double zipf_s = 1.1;               // zipf: popularity exponent

  // Admission and pipeline.
  std::size_t batch = 16;       // admission batch size (queries per batch)
  std::size_t queue_cap = 256;  // bounded queue: arrivals beyond this drop
  std::size_t pipeline = 2;     // max batches in flight (1 = no overlap)

  /// Grid cells per side; 0 = smallest g with g*g >= 4 * shards.
  std::size_t grid = 0;

  std::uint64_t seed = 1;  // points draw from seed, the stream from seed+1
  kernels::Policy kernel = kernels::Policy::kAuto;
  CostConstants costs{};
};

struct ServeResult {
  // Admission accounting (driver).
  std::uint64_t offered = 0;    // open-loop arrivals generated
  std::uint64_t admitted = 0;   // entered the bounded queue
  std::uint64_t rejected = 0;   // dropped at the full queue
  std::uint64_t completed = 0;  // answered (== admitted: admitted work finishes)
  std::uint64_t batches = 0;

  std::uint64_t total_matches = 0;    // sum of per-query match counts
  std::uint64_t entries_checked = 0;  // points scanned over all shards
  /// max / mean of per-shard scanned entries (1.0 = perfectly balanced).
  double shard_imbalance = 0.0;

  double makespan = 0.0;      // driver clock when the last batch completed
  double achieved_qps = 0.0;  // completed / makespan
  double p50_latency = 0.0;   // seconds, from the log2 histogram
  double p99_latency = 0.0;
  double mean_latency = 0.0;
  double max_latency = 0.0;

  /// Per-query latency in microseconds, log2-bucketed (driver only).
  obs::Histogram latency_us;

  int shards = 0;
  int grid_side = 0;
};

/// Runs the serving loop on `comm`: rank 0 drives, ranks 1..size-1 hold
/// shards.  Requires comm.size() >= 2.  The full result is produced on
/// rank 0 (shards return the shared aggregates only).
ServeResult serve(minimpi::Comm& comm, const ServeConfig& config);

/// The deterministic open-loop query generator (exposed for tests and
/// the bench): produces the exact stream `serve` consumes, as a pure
/// function of the config's workload parameters and seed.
class QueryStream {
 public:
  QueryStream(const ServeConfig& config, int grid_side);

  /// Next query window (corner-placed, clamped inside the extent).
  spatial::Rect next();

 private:
  double extent_;
  double side_;
  Mix mix_;
  double hot_fraction_;
  spatial::Point2 hot_corner_;  // hot box corner (hotspot mix)
  double hot_side_;
  double cell_side_;                // zipf mix: grid geometry
  int grid_side_;
  std::vector<double> zipf_cdf_;    // cumulative cell popularity
  std::vector<std::uint32_t> zipf_cells_;  // popularity rank -> cell id
  support::Xoshiro256 rng_;
};

/// Smallest grid side g with g*g >= 4 * shards (the default used when
/// ServeConfig::grid == 0).
int default_grid_side(int shards);

}  // namespace dipdc::modules::rangequery
