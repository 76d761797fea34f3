// The four module workloads.  Sizes are fixed here so that every seed
// gives the same amount of work; the seed only changes the values.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <unistd.h>

#include "bench.hpp"
#include "cachesim/cache.hpp"
#include "dataio/chunk.hpp"
#include "dataio/dataset.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/distance.hpp"
#include "kernels/filter.hpp"
#include "kernels/kmeans.hpp"
#include "kernels/sort.hpp"
#include "modules/distmatrix/module2.hpp"
#include "modules/kmeans/module5.hpp"
#include "modules/rangequery/serving.hpp"
#include "modules/sort/module3.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace io = dipdc::dataio;
namespace kn = dipdc::kernels;
namespace m2 = dipdc::modules::distmatrix;
namespace m3 = dipdc::modules::distsort;
namespace m4 = dipdc::modules::rangequery;
namespace m5 = dipdc::modules::kmeans;
namespace sp = dipdc::spatial;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

void Metrics::set(std::string name, double value, std::string unit) {
  for (auto& [n, vu] : items_) {
    if (n == name) {
      vu = {value, std::move(unit)};
      return;
    }
  }
  items_.emplace_back(std::move(name),
                      std::make_pair(value, std::move(unit)));
}

double Metrics::get(std::string_view name) const {
  for (const auto& [n, vu] : items_) {
    if (n == name) return vu.first;
  }
  return 0.0;
}

Call run_call(Workload& w, bool traced) {
  mpi::RuntimeOptions options;
  options.backend.kind = w.backend();
  options.record_trace = traced;
  options.trace_wall_time = traced;
  Call call;
  call.bodies.assign(kRanks, {0.0, 0.0});
  const Clock::time_point t0 = Clock::now();
  call.result = mpi::run(
      kRanks,
      [&](mpi::Comm& comm) {
        const double begin = seconds_between(t0, Clock::now());
        w.body(comm);
        call.bodies[static_cast<std::size_t>(comm.rank())] = {
            begin, seconds_between(t0, Clock::now())};
      },
      options);
  call.wall_s = seconds_between(t0, Clock::now());
  return call;
}

namespace {

/// Repeats `pass` and returns the median pass wall time.
template <typename Fn>
double time_median(int reps, Fn&& pass) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    pass();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

bool close_to(double got, double want, double rel) {
  return std::abs(got - want) <= rel * std::abs(want);
}

// ---------------------------------------------------------------- module 2
// Compute-bound: a 2048 x 2048 distance matrix over 90-D points, row-wise
// blocks on the threads backend.  The compute phase dominates, so a
// kernel change shows here and a minimpi change should not.
class DistMatrix final : public Workload {
 public:
  explicit DistMatrix(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    data_ = io::generate_uniform(kN, kDim, 0.0, 1.0, seed_);
  }

  void prepare_reference() override {
    // Serial pass with the module's traced/reference loop nest, block by
    // block so the full matrix is never held.
    const std::size_t block = 64;
    std::vector<double> out(block * kN);
    dipdc::cachesim::NullTracer tracer;
    ref_checksum_ = 0.0;
    for (std::size_t r = 0; r < kN; r += block) {
      const std::size_t end = std::min(kN, r + block);
      m2::distance_rows_rowwise(data_.values(), kDim, kN, r, end,
                                std::span<double>(out), tracer);
      for (std::size_t i = 0; i < (end - r) * kN; ++i) ref_checksum_ += out[i];
    }
  }

  void body(mpi::Comm& comm) override {
    const m2::Result r = m2::run_distributed(
        comm, comm.rank() == 0 ? data_ : empty_, m2::Config{});
    if (comm.rank() == 0) checksum_ = r.checksum;
  }

  [[nodiscard]] std::string check() const override {
    // Summation order differs between the ranks' blocks and the serial
    // pass; the per-pair distances themselves are bit-identical.
    if (!close_to(checksum_, ref_checksum_, 1e-9)) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "checksum %.17g != serial %.17g",
                    checksum_, ref_checksum_);
      return buf;
    }
    return {};
  }

  void corrupt() override { checksum_ *= 1.0 + 1e-6; }

  [[nodiscard]] double items() const override {
    return static_cast<double>(kN) * static_cast<double>(kN);
  }

  [[nodiscard]] KernelProbe probe_kernel() override {
    // One rank's block of rows, as run_distributed hands it to the kernel.
    const std::size_t rows = kN / kRanks;
    std::vector<double> out(rows * kN);
    const kn::Isa isa = kn::resolve(kn::Policy::kAuto);
    KernelProbe p;
    p.kernel = "distance_rows";
    p.wall_s = time_median(5, [&] {
      kn::distance_rows(isa, data_.values().data(), kDim, kN, 0, rows, 0,
                        out.data());
    });
    p.ops = m2::block_flops(rows, kN, kDim);
    p.bytes = 8.0 * static_cast<double>(kN * kDim + rows * kN);
    return p;
  }

 private:
  static constexpr std::size_t kN = 2048;
  static constexpr std::size_t kDim = 90;
  std::uint64_t seed_;
  io::Dataset data_;
  io::Dataset empty_;
  double ref_checksum_ = 0.0;
  double checksum_ = 0.0;
};

// ---------------------------------------------------------------- module 5
// Communication-bound: weighted-means k-means with k=4 over 20000 2-D
// points on the tcp backend.  Every iteration is a small allreduce
// across the socket seam; the assignment kernel does almost nothing.
class KMeansTcp final : public Workload {
 public:
  explicit KMeansTcp(std::uint64_t seed) : seed_(seed) {
    config_.k = kK;
    config_.strategy = m5::Strategy::kWeightedMeans;
    // A fixed iteration count (the negative tolerance is never met): how
    // many iterations uniform data needs to converge varies with the seed,
    // and a call's cost must not.
    config_.max_iterations = 50;
    config_.tolerance = -1.0;
  }

  [[nodiscard]] mpi::BackendKind backend() const override {
    return mpi::BackendKind::kTcp;
  }

  void setup() override {
    data_ = io::generate_uniform(kN, kDim, 0.0, 100.0, seed_);
  }

  void prepare_reference() override {
    ref_ = m5::lloyd_sequential(data_, config_);
  }

  void body(mpi::Comm& comm) override {
    m5::Result r =
        m5::distributed(comm, comm.rank() == 0 ? data_ : empty_, config_);
    if (comm.rank() == 0) result_ = std::move(r);
  }

  [[nodiscard]] std::string check() const override {
    char buf[160];
    if (result_.iterations != ref_.iterations ||
        result_.converged != ref_.converged) {
      std::snprintf(buf, sizeof buf,
                    "iterations %d (converged %d) != sequential %d (%d)",
                    result_.iterations, result_.converged ? 1 : 0,
                    ref_.iterations, ref_.converged ? 1 : 0);
      return buf;
    }
    if (!close_to(result_.inertia, ref_.inertia, 1e-9)) {
      std::snprintf(buf, sizeof buf, "inertia %.17g != sequential %.17g",
                    result_.inertia, ref_.inertia);
      return buf;
    }
    return {};
  }

  void corrupt() override { result_.inertia *= 1.0 + 1e-6; }

  [[nodiscard]] double items() const override {
    return static_cast<double>(kN) * static_cast<double>(ref_.iterations);
  }

  [[nodiscard]] KernelProbe probe_kernel() override {
    // One fused assign+accumulate pass over all points against the first
    // k points as centroids (the module's initial centroids).
    const double* pts = data_.values().data();
    std::vector<std::size_t> assignment(kN);
    std::vector<double> sums(kK * kDim);
    std::vector<double> counts(kK);
    const kn::Isa isa = kn::resolve(kn::Policy::kAuto);
    KernelProbe p;
    p.kernel = "assign_points";
    p.wall_s = time_median(21, [&] {
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0.0);
      kn::assign_points(isa, pts, kN, kDim, pts, kK, assignment.data(),
                        sums.data(), counts.data());
    });
    p.ops = 3.0 * static_cast<double>(kN * kK * kDim);
    p.bytes = 8.0 * static_cast<double>(kN * kDim + kN + 2 * kK * kDim + kK);
    return p;
  }

 private:
  static constexpr std::size_t kN = 20000;
  static constexpr std::size_t kDim = 2;
  static constexpr std::size_t kK = 4;
  std::uint64_t seed_;
  m5::Config config_;
  io::Dataset data_;
  io::Dataset empty_;
  m5::Result ref_;
  m5::Result result_;
};

// ---------------------------------------------------------------- module 3
// Memory-bound and the only workload through dataio: 1M uniform keys per
// rank spilled to a chunk file of 65536-row chunks, then sorted out of
// core with overlapped ibcast chunks.  Writing the file lands in setup_s,
// reading it lands in the call.
class SortStream final : public Workload {
 public:
  SortStream(std::uint64_t seed, const std::string& scratch_dir)
      : seed_(seed),
        path_((std::filesystem::path(scratch_dir) /
               ("sort_stream_" + std::to_string(::getpid()) + ".chunks"))
                  .string()),
        sorted_(kRanks) {}
  ~SortStream() override { std::remove(path_.c_str()); }
  SortStream(const SortStream&) = delete;
  SortStream& operator=(const SortStream&) = delete;

  void setup() override {
    dipdc::support::Xoshiro256 rng(seed_);
    std::vector<double> chunk(kChunkRows);
    double spill = 0.0;
    Clock::time_point t0 = Clock::now();
    io::ChunkWriter writer(path_, 1, kChunkRows);
    spill += seconds_between(t0, Clock::now());
    for (std::size_t done = 0; done < kKeys; done += kChunkRows) {
      const std::size_t rows = std::min(kChunkRows, kKeys - done);
      for (std::size_t i = 0; i < rows; ++i) chunk[i] = rng.uniform();
      t0 = Clock::now();
      writer.append(std::span<const double>(chunk.data(), rows));
      spill += seconds_between(t0, Clock::now());
    }
    t0 = Clock::now();
    writer.close();
    spill += seconds_between(t0, Clock::now());
    spill_wall_s_ = spill;
  }

  void prepare_reference() override {
    // One streaming read of the spilled file: the key count and an
    // order-independent digest of the key multiset.
    io::ChunkReader reader(path_);
    std::vector<double> chunk;
    ref_count_ = 0;
    ref_digest_ = 0;
    const Clock::time_point t0 = Clock::now();
    while (reader.next(chunk) < reader.num_chunks()) {
      ref_count_ += chunk.size();
      ref_digest_ += digest(chunk);
    }
    read_wall_s_ = seconds_between(t0, Clock::now());
  }

  void body(mpi::Comm& comm) override {
    // Drop the previous call's bucket first so peak RSS measures one
    // call's footprint, not two.
    std::vector<double>& out = sorted_[static_cast<std::size_t>(comm.rank())];
    std::vector<double>().swap(out);
    m3::streamed_bucket_sort(comm, path_, m3::Config{}, out);
  }

  [[nodiscard]] std::string check() const override {
    std::size_t count = 0;
    std::uint64_t dig = 0;
    double prev_max = -std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < sorted_.size(); ++r) {
      const std::vector<double>& b = sorted_[r];
      if (!std::is_sorted(b.begin(), b.end())) {
        return "rank " + std::to_string(r) + " bucket not sorted";
      }
      if (!b.empty()) {
        if (b.front() < prev_max) {
          return "rank " + std::to_string(r) + " bucket overlaps rank " +
                 std::to_string(r - 1);
        }
        prev_max = b.back();
      }
      count += b.size();
      dig += digest(b);
    }
    if (count != ref_count_) {
      return std::to_string(count) + " keys out, " +
             std::to_string(ref_count_) + " in";
    }
    if (dig != ref_digest_) return "sorted keys are not the input keys";
    return {};
  }

  void corrupt() override {
    std::vector<double>& b = sorted_.front();
    if (b.size() >= 2) std::swap(b.front(), b.back());
  }

  [[nodiscard]] double items() const override {
    return static_cast<double>(kKeys);
  }

  [[nodiscard]] KernelProbe probe_kernel() override {
    // The sweep's classification: every key against the p-1 equal-width
    // splitters, one chunk at a time as the module sees them.
    io::ChunkReader reader(path_);
    std::vector<double> keys;
    keys.reserve(kKeys);
    std::vector<double> chunk;
    while (reader.next(chunk) < reader.num_chunks()) {
      keys.insert(keys.end(), chunk.begin(), chunk.end());
    }
    std::array<double, kP - 1> splitters{};
    for (std::size_t i = 0; i + 1 < kP; ++i) {
      splitters[i] = static_cast<double>(i + 1) / static_cast<double>(kP);
    }
    std::vector<std::uint32_t> dest(kChunkRows);
    const kn::Isa isa = kn::resolve(kn::Policy::kAuto);
    KernelProbe p;
    p.kernel = "bucket_indices";
    p.wall_s = time_median(5, [&] {
      for (std::size_t b = 0; b < keys.size(); b += kChunkRows) {
        const std::size_t n = std::min(kChunkRows, keys.size() - b);
        kn::bucket_indices(isa, keys.data() + b, n, splitters.data(),
                           splitters.size(), dest.data());
      }
    });
    p.ops = static_cast<double>(kKeys * splitters.size());
    p.bytes = static_cast<double>(kKeys * (sizeof(double) + sizeof(std::uint32_t)));
    return p;
  }

  void layer_metrics(Metrics& out) const override {
    const double bytes = static_cast<double>(kKeys * sizeof(double));
    out.set("dataio.spill.wall_s", spill_wall_s_, "s");
    out.set("dataio.spill.bytes", bytes, "B");
    out.set("dataio.read.wall_s", read_wall_s_, "s");
    out.set("dataio.read.bytes", bytes, "B");
  }

 private:
  static constexpr auto kP = static_cast<std::size_t>(kRanks);
  static constexpr std::size_t kKeys = 1'000'000 * kP;
  static constexpr std::size_t kChunkRows = 65536;

  /// Order-independent digest of a key multiset: the wrapping sum of a
  /// mixed 64-bit image of every key.
  static std::uint64_t digest(const std::vector<double>& keys) {
    std::uint64_t sum = 0;
    for (const double k : keys) {
      std::uint64_t z = 0;
      std::memcpy(&z, &k, sizeof z);
      z += 0x9e3779b97f4a7c15ULL;  // splitmix64 finalizer
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      sum += z ^ (z >> 31);
    }
    return sum;
  }

  std::uint64_t seed_;
  std::string path_;
  std::vector<std::vector<double>> sorted_;
  std::size_t ref_count_ = 0;
  std::uint64_t ref_digest_ = 0;
  double spill_wall_s_ = 0.0;
  double read_wall_s_ = 0.0;
};

// ---------------------------------------------------------------- module 4
// Many small messages: the serving loop with a hotspot mix, one driver
// and two shards, offered load below the simulated knee so nothing is
// rejected.  The load is an open loop on the simulated clock; from the
// host's side each call is one closed-loop request.
class ServeHotspot final : public Workload {
 public:
  explicit ServeHotspot(std::uint64_t seed) {
    config_.n_points = 10000;
    config_.mix = m4::Mix::kHotspot;
    // An even grid splits the extent into two equal halves, one per
    // shard, so a call's cost does not depend on which shard the seed's
    // hot box lands in (the default 3x3 grid gives one shard 5 of 9 cells).
    config_.grid = 4;
    // 20000 queries.  Nearly all of the hot load lands on one shard, which
    // halves the knee; at 12500 q/s none of 100 scanned seeds rejects.
    config_.qps = 12500.0;
    config_.duration = 1.6;
    config_.seed = seed;
  }


  void setup() override {
    // The benchmark's copy of the inputs serve() regenerates from the
    // seed: the same point stream and the same query stream.
    dipdc::support::Xoshiro256 rng(config_.seed);
    xs_.resize(config_.n_points);
    ys_.resize(config_.n_points);
    for (std::size_t i = 0; i < config_.n_points; ++i) {
      xs_[i] = rng.uniform(0.0, config_.extent);
      ys_[i] = rng.uniform(0.0, config_.extent);
    }
    m4::QueryStream stream(config_, static_cast<int>(config_.grid));
    queries_.resize(offered());
    for (sp::Rect& q : queries_) q = stream.next();
  }

  void prepare_reference() override {
    // Independent match count: bucket the points into a grid of
    // window-sized cells and test only the cells a window touches.
    const auto g = static_cast<std::size_t>(
        std::ceil(config_.extent / config_.side));
    const double cell = config_.extent / static_cast<double>(g);
    auto cell_of = [&](double v) {
      return std::min(g - 1, static_cast<std::size_t>(std::max(0.0, v / cell)));
    };
    std::vector<std::vector<sp::Point2>> grid(g * g);
    for (std::size_t i = 0; i < xs_.size(); ++i) {
      grid[cell_of(ys_[i]) * g + cell_of(xs_[i])].push_back({xs_[i], ys_[i]});
    }
    ref_matches_ = 0;
    for (const sp::Rect& q : queries_) {
      for (std::size_t cy = cell_of(q.ymin); cy <= cell_of(q.ymax); ++cy) {
        for (std::size_t cx = cell_of(q.xmin); cx <= cell_of(q.xmax); ++cx) {
          for (const sp::Point2& pt : grid[cy * g + cx]) {
            if (q.contains(pt)) ++ref_matches_;
          }
        }
      }
    }
  }

  void body(mpi::Comm& comm) override {
    m4::ServeResult r = m4::serve(comm, config_);
    if (comm.rank() == 0) result_ = std::move(r);
  }

  [[nodiscard]] std::string check() const override {
    const std::uint64_t n = offered();
    if (result_.offered != n || result_.admitted != n ||
        result_.rejected != 0 || result_.completed != n) {
      return "admission offered/admitted/rejected/completed " +
             std::to_string(result_.offered) + "/" +
             std::to_string(result_.admitted) + "/" +
             std::to_string(result_.rejected) + "/" +
             std::to_string(result_.completed) + ", expected " +
             std::to_string(n) + "/" + std::to_string(n) + "/0/" +
             std::to_string(n);
    }
    if (result_.total_matches != ref_matches_) {
      return "matches " + std::to_string(result_.total_matches) +
             " != oracle " + std::to_string(ref_matches_);
    }
    return {};
  }

  void corrupt() override { ++result_.total_matches; }

  [[nodiscard]] double items() const override {
    return static_cast<double>(offered());
  }

  [[nodiscard]] KernelProbe probe_kernel() override {
    // The shard scan's filter over the whole point set, for the first
    // kProbeQueries windows of the stream.
    const kn::Isa isa = kn::resolve(kn::Policy::kAuto);
    const std::size_t n = xs_.size();
    std::uint64_t sink = 0;
    KernelProbe p;
    p.kernel = "count_in_rect";
    p.wall_s = time_median(5, [&] {
      for (std::size_t q = 0; q < kProbeQueries; ++q) {
        const sp::Rect& w = queries_[q];
        sink += kn::count_in_rect(isa, xs_.data(), ys_.data(), n, w.xmin,
                                  w.ymin, w.xmax, w.ymax);
      }
    });
    if (sink == 0) throw std::runtime_error("count_in_rect probe matched nothing");
    p.ops = 4.0 * static_cast<double>(n * kProbeQueries);
    p.bytes = 16.0 * static_cast<double>(n * kProbeQueries);
    return p;
  }

  void layer_metrics(Metrics& out) const override {
    out.set("serve.sim_p50_s", result_.p50_latency, "s");
    out.set("serve.sim_p99_s", result_.p99_latency, "s");
    out.set("serve.sim_achieved_qps", result_.achieved_qps, "1/s");
    out.set("serve.reject_ratio",
            result_.offered == 0 ? 0.0
                                 : static_cast<double>(result_.rejected) /
                                       static_cast<double>(result_.offered),
            "ratio");
    out.set("serve.entries_checked",
            static_cast<double>(result_.entries_checked), "count");
  }

 private:
  static constexpr std::size_t kProbeQueries = 256;

  [[nodiscard]] std::uint64_t offered() const {
    return static_cast<std::uint64_t>(
        std::llround(config_.qps * config_.duration));
  }

  m4::ServeConfig config_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<sp::Rect> queries_;
  std::uint64_t ref_matches_ = 0;
  m4::ServeResult result_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "distmatrix", "kmeans_tcp", "sort_stream", "serve_hotspot"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  if (name == "distmatrix") return std::make_unique<DistMatrix>(seed);
  if (name == "kmeans_tcp") return std::make_unique<KMeansTcp>(seed);
  if (name == "sort_stream") {
    return std::make_unique<SortStream>(seed, scratch_dir);
  }
  if (name == "serve_hotspot") return std::make_unique<ServeHotspot>(seed);
  return nullptr;
}

}  // namespace perfbench
