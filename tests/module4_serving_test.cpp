// Module 4 serving mode: deterministic workload generation, admission
// accounting, an independent match-count oracle, bit-identity of the
// whole serving run across transport backends and kernel ISAs, and clean
// failure when the driver or a shard is killed.
#include "modules/rangequery/serving.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/geometry.hpp"
#include "kernels/dispatch.hpp"
#include "minimpi/error.hpp"
#include "support/rng.hpp"
#include "run_forced.hpp"

namespace m4 = dipdc::modules::rangequery;
namespace sp = dipdc::spatial;
namespace mpi = dipdc::minimpi;
namespace kn = dipdc::kernels;
using dipdc::testing::all_backends;
using dipdc::testing::forced;
using dipdc::testing::other_backends;
using dipdc::testing::run_forced;

namespace {

/// The fields that define a serving run's observable outcome; two runs
/// agreeing on all of them (including the simulated-time-derived ones,
/// exactly) are the same run.
void expect_same_result(const m4::ServeResult& a, const m4::ServeResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.total_matches, b.total_matches);
  EXPECT_EQ(a.entries_checked, b.entries_checked);
  EXPECT_EQ(a.makespan, b.makespan);          // bit-identical sim time
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.latency_us.count, b.latency_us.count);
  EXPECT_EQ(a.latency_us.sum, b.latency_us.sum);
  EXPECT_EQ(a.latency_us.buckets, b.latency_us.buckets);
}

m4::ServeConfig small_config() {
  m4::ServeConfig cfg;
  cfg.n_points = 4000;
  cfg.qps = 2000.0;
  cfg.duration = 0.25;
  cfg.batch = 8;
  return cfg;
}

}  // namespace

TEST(ServingStream, SameSeedSameStream) {
  m4::ServeConfig cfg;
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    cfg.mix = mix;
    m4::QueryStream a(cfg, 8);
    m4::QueryStream b(cfg, 8);
    for (int i = 0; i < 500; ++i) {
      const sp::Rect ra = a.next();
      const sp::Rect rb = b.next();
      EXPECT_EQ(ra, rb) << m4::mix_name(mix) << " query " << i;
    }
  }
}

TEST(ServingStream, DifferentSeedsDiverge) {
  m4::ServeConfig a_cfg;
  m4::ServeConfig b_cfg;
  b_cfg.seed = a_cfg.seed + 7;
  m4::QueryStream a(a_cfg, 8);
  m4::QueryStream b(b_cfg, 8);
  int diffs = 0;
  for (int i = 0; i < 100; ++i) {
    if (!(a.next() == b.next())) ++diffs;
  }
  EXPECT_GT(diffs, 90);
}

TEST(ServingStream, WindowsStayInsideExtent) {
  m4::ServeConfig cfg;
  cfg.extent = 100.0;
  cfg.side = 8.0;
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    cfg.mix = mix;
    m4::QueryStream stream(cfg, 8);
    for (int i = 0; i < 1000; ++i) {
      const sp::Rect r = stream.next();
      EXPECT_TRUE(r.valid());
      EXPECT_GE(r.xmin, 0.0);
      EXPECT_GE(r.ymin, 0.0);
      EXPECT_LE(r.xmax, cfg.extent);
      EXPECT_LE(r.ymax, cfg.extent);
      EXPECT_NEAR(r.xmax - r.xmin, cfg.side, 1e-9);
    }
  }
}

TEST(ServingStream, HotspotConcentrates) {
  m4::ServeConfig cfg;
  cfg.mix = m4::Mix::kHotspot;
  cfg.hot_fraction = 0.9;
  // The hot box is 10% of the extent per side (1% by area): 90% of
  // window corners landing inside a region the uniform mix would hit
  // ~1% of the time is only explainable by the hot box.
  m4::QueryStream stream(cfg, 8);
  sp::Rect bounds = sp::Rect::empty();
  std::vector<sp::Rect> windows;
  for (int i = 0; i < 2000; ++i) windows.push_back(stream.next());
  // Find the densest cluster: the median corner is inside the hot box.
  std::vector<double> x;
  std::vector<double> y;
  for (const sp::Rect& w : windows) {
    x.push_back(w.xmin);
    y.push_back(w.ymin);
  }
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  const double mx = x[x.size() / 2];
  const double my = y[y.size() / 2];
  const double hot_side = cfg.hot_extent_fraction * cfg.extent;
  int inside = 0;
  for (const sp::Rect& w : windows) {
    if (std::abs(w.xmin - mx) <= hot_side &&
        std::abs(w.ymin - my) <= hot_side) {
      ++inside;
    }
  }
  EXPECT_GT(inside, 2000 * 8 / 10);
  (void)bounds;
}

TEST(ServingGrid, DefaultSideCoversShards) {
  EXPECT_EQ(m4::default_grid_side(1), 2);
  EXPECT_EQ(m4::default_grid_side(4), 4);
  EXPECT_EQ(m4::default_grid_side(7), 6);
  for (int shards = 1; shards <= 64; ++shards) {
    const int g = m4::default_grid_side(shards);
    EXPECT_GE(g * g, 4 * shards);
    EXPECT_LT((g - 1) * (g - 1), 4 * shards);
  }
}

TEST(ServingParse, MixNamesRoundTrip) {
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    EXPECT_EQ(m4::parse_mix(m4::mix_name(mix)), mix);
  }
  EXPECT_THROW((void)m4::parse_mix("bogus"),
               dipdc::support::PreconditionError);
}

// With no rejections (offered rate far below capacity), every generated
// query is answered, so total_matches must equal a serial brute-force
// count over the identical point set and query stream.
TEST(Serving, MatchesSerialOracle) {
  const m4::ServeConfig cfg = small_config();
  const auto r = run_forced(4, forced(mpi::BackendKind::kThreads),
                            [&](mpi::Comm& comm) {
                              return m4::serve(comm, cfg);
                            });
  ASSERT_EQ(r.rejected, 0u);
  ASSERT_EQ(r.completed, r.offered);

  // Serial oracle: same point stream, same query stream, Rect::contains.
  dipdc::support::Xoshiro256 rng(cfg.seed);
  std::vector<sp::Point2> points(cfg.n_points);
  for (auto& p : points) {
    p.x = rng.uniform(0.0, cfg.extent);
    p.y = rng.uniform(0.0, cfg.extent);
  }
  m4::QueryStream stream(cfg, r.grid_side);
  const auto offered = static_cast<std::uint64_t>(
      std::llround(cfg.qps * cfg.duration));
  std::uint64_t expected = 0;
  for (std::uint64_t q = 0; q < offered; ++q) {
    const sp::Rect w = stream.next();
    for (const sp::Point2& p : points) {
      if (w.contains(p)) ++expected;
    }
  }
  EXPECT_EQ(r.offered, offered);
  EXPECT_EQ(r.total_matches, expected);
}

TEST(Serving, OverloadRejectsButAnswersAdmitted) {
  m4::ServeConfig cfg = small_config();
  cfg.qps = 5e6;  // far past capacity
  cfg.duration = 0.002;
  cfg.queue_cap = 32;
  cfg.batch = 8;
  const auto r = run_forced(4, forced(mpi::BackendKind::kThreads),
                            [&](mpi::Comm& comm) {
                              return m4::serve(comm, cfg);
                            });
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.admitted + r.rejected, r.offered);
  EXPECT_EQ(r.completed, r.admitted);  // admitted work always finishes
  EXPECT_EQ(r.latency_us.count, r.completed);
}

// The serving loop's whole observable outcome — admission counts, match
// totals, latency histogram, simulated makespan — is bit-identical on
// every transport backend.
TEST(Serving, BitIdenticalAcrossBackends) {
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    m4::ServeConfig cfg = small_config();
    cfg.mix = mix;
    const auto baseline =
        run_forced(4, forced(mpi::BackendKind::kThreads),
                   [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
    EXPECT_GT(baseline.total_matches, 0u);
    for (const mpi::BackendKind kind : other_backends()) {
      const auto other =
          run_forced(4, forced(kind),
                     [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
      expect_same_result(baseline, other);
    }
  }
}

// Kernel ISA is a performance knob, never a results knob: the scalar and
// SIMD filter paths produce the same counts, so the whole run agrees.
TEST(Serving, KernelIsaDoesNotChangeResults) {
  m4::ServeConfig cfg = small_config();
  cfg.kernel = kn::Policy::kScalar;
  const auto scalar =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  if (!kn::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  cfg.kernel = kn::Policy::kSimd;
  const auto simd =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  expect_same_result(scalar, simd);
}

TEST(Serving, PipelineDepthPreservesAnswers) {
  // Deeper pipelining changes timing (that is its point) but must not
  // change which queries are answered or what they match.
  m4::ServeConfig cfg = small_config();
  cfg.pipeline = 1;
  const auto serial =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  cfg.pipeline = 4;
  const auto piped =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  ASSERT_EQ(serial.rejected, 0u);
  ASSERT_EQ(piped.rejected, 0u);
  EXPECT_EQ(serial.total_matches, piped.total_matches);
  EXPECT_EQ(serial.completed, piped.completed);
}

TEST(Serving, RequiresDriverAndShard) {
  EXPECT_THROW(
      run_forced(1, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) {
                   return m4::serve(comm, m4::ServeConfig{});
                 }),
      dipdc::support::PreconditionError);
}

// A killed driver or shard fails the whole run cleanly instead of hanging
// its peers: run() rethrows the dead rank's RankFailedError, whose message
// names the rank, the call index and the primitive.  The kill lands at the
// same program point on every backend, so the message is identical too.
TEST(ServingFaults, KilledDriverOrShardFailsTheRunOnEveryBackend) {
  const m4::ServeConfig cfg = small_config();
  for (const int kill_rank : {0, 1, 3}) {
    for (const std::uint64_t at_call : {1u, 7u, 40u, 100u}) {
      const std::string want =
          "rank " + std::to_string(kill_rank) +
          " killed by fault injection at primitive call " +
          std::to_string(at_call) + " (MPI_";
      std::string first;  // the diagnostic on the first backend
      for (const mpi::BackendKind kind : all_backends()) {
        SCOPED_TRACE(std::string(mpi::to_string(kind)) + " kill=" +
                     std::to_string(kill_rank) + "@" +
                     std::to_string(at_call));
        mpi::RuntimeOptions opts = forced(kind);
        opts.faults.kill_rank = kill_rank;
        opts.faults.kill_at_call = at_call;
        std::string what;
        try {
          run_forced(4, opts,
                     [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
        } catch (const mpi::RankFailedError& e) {
          what = e.what();
        }
        EXPECT_TRUE(what.starts_with(want)) << what;
        EXPECT_TRUE(what.ends_with(")")) << what;
        if (first.empty()) {
          first = what;
        } else {
          EXPECT_EQ(what, first);
        }
      }
    }
  }
}
