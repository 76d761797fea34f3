// Nonblocking collectives: results match the blocking collectives, requests
// compose with wait/test/wait_any (including mixed p2p sets), issue-before-
// wait pipelines overlap, and edge cases (already-complete, destroyed
// unwaited, wait after rank failure) behave per the documented contract.
// Backend bit-identity for the streamed module pipelines built on these
// lives in module_determinism_test; this file pins the primitive layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/faults.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace dt = dipdc::testing;

namespace {

/// Payloads (in doubles) of the blocking-vs-nonblocking sweeps: 384 B,
/// then either side of allreduce_rd_threshold (512 B), and 72 KB, past
/// allreduce_ring_threshold (64 KiB).
constexpr std::array<std::size_t, 4> kPayloadDoubles = {48, 63, 64, 9216};

/// True when the two vectors hold the same bit patterns (EXPECT_DOUBLE_EQ
/// would forgive the last-bit differences this sweep must catch).
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

}  // namespace

class ICollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(ICollectiveSweep, IbcastFromEveryRoot) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(64, comm.rank() == root ? root + 1000 : -1);
      mpi::Request req = comm.ibcast(std::span<int>(data), root);
      comm.wait(req);
      for (const int v : data) EXPECT_EQ(v, root + 1000);
    }
  });
}

TEST_P(ICollectiveSweep, IbcastRootMayReuseBufferAfterIssue) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    std::vector<int> data(32, comm.rank() == 0 ? 7 : -1);
    mpi::Request req = comm.ibcast(std::span<int>(data), 0);
    // Fan-out stages a copy: clobbering the root's buffer after issue must
    // not corrupt what the other ranks receive.
    if (comm.rank() == 0) std::fill(data.begin(), data.end(), -99);
    comm.wait(req);
    if (comm.rank() != 0) {
      for (const int v : data) EXPECT_EQ(v, 7);
    }
  });
}

TEST_P(ICollectiveSweep, IreduceMatchesBlockingReduce) {
  const int p = GetParam();
  for (const mpi::BackendKind kind : dt::all_backends()) {
    for (const std::size_t n : kPayloadDoubles) {
      mpi::run(
          p,
          [p, n](mpi::Comm& comm) {
            std::vector<double> send(n);
            for (std::size_t i = 0; i < send.size(); ++i) {
              send[i] = static_cast<double>(comm.rank() + 1) * 0.5 +
                        static_cast<double>(i) * 0.001;
            }
            std::vector<double> blocking(send.size(), 0.0);
            std::vector<double> nonblocking(send.size(), 0.0);
            comm.reduce(std::span<const double>(send),
                        std::span<double>(blocking), mpi::ops::Sum{}, 0);
            mpi::Request req =
                comm.ireduce(std::span<const double>(send),
                             std::span<double>(nonblocking), mpi::ops::Sum{},
                             0);
            comm.wait(req);
            if (comm.rank() == 0) {
              EXPECT_TRUE(bitwise_equal(blocking, nonblocking))
                  << "p=" << p << " bytes=" << n * sizeof(double);
            }
          },
          dt::forced(kind));
    }
  }
}

TEST_P(ICollectiveSweep, IreduceFromNonzeroRoot) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const int root = p - 1;
    std::vector<std::uint64_t> send(16, 1u << comm.rank());
    std::vector<std::uint64_t> recv(16, 0);
    mpi::Request req =
        comm.ireduce(std::span<const std::uint64_t>(send),
                     std::span<std::uint64_t>(recv), mpi::ops::Sum{}, root);
    comm.wait(req);
    if (comm.rank() == root) {
      const std::uint64_t expect = (1u << p) - 1;  // sum of 2^r over ranks
      for (const std::uint64_t v : recv) EXPECT_EQ(v, expect);
    }
  });
}

TEST_P(ICollectiveSweep, IallreduceMatchesBlockingAllreduce) {
  const int p = GetParam();
  for (const mpi::BackendKind kind : dt::all_backends()) {
    for (const std::size_t n : kPayloadDoubles) {
      mpi::run(
          p,
          [p, n](mpi::Comm& comm) {
            std::vector<double> send(n);
            for (std::size_t i = 0; i < send.size(); ++i) {
              send[i] = 1.0 / static_cast<double>(comm.rank() + 2) +
                        static_cast<double>(i);
            }
            std::vector<double> blocking(send.size(), 0.0);
            std::vector<double> nonblocking(send.size(), 0.0);
            comm.allreduce(std::span<const double>(send),
                           std::span<double>(blocking), mpi::ops::Sum{});
            mpi::Request req = comm.iallreduce(std::span<const double>(send),
                                               std::span<double>(nonblocking),
                                               mpi::ops::Sum{});
            comm.wait(req);
            EXPECT_TRUE(bitwise_equal(blocking, nonblocking))
                << "p=" << p << " bytes=" << n * sizeof(double);
          },
          dt::forced(kind));
    }
  }
}

TEST_P(ICollectiveSweep, IallgathervConcatenatesInRankOrder) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    // Rank r contributes r+1 elements — exercises uneven counts.
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::vector<std::size_t> displs(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      const auto nr = static_cast<std::size_t>(r);
      counts[nr] = nr + 1;
      displs[nr] = total;
      total += counts[nr];
    }
    const auto me = static_cast<std::size_t>(comm.rank());
    std::vector<int> send(counts[me]);
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = comm.rank() * 100 + static_cast<int>(i);
    }
    std::vector<int> recv(total, -1);
    mpi::Request req = comm.iallgatherv(
        std::span<const int>(send), std::span<const std::size_t>(counts),
        std::span<const std::size_t>(displs), std::span<int>(recv));
    comm.wait(req);
    for (int r = 0; r < p; ++r) {
      const auto nr = static_cast<std::size_t>(r);
      for (std::size_t i = 0; i < counts[nr]; ++i) {
        EXPECT_EQ(recv[displs[nr] + i], r * 100 + static_cast<int>(i));
      }
    }
  });
}

TEST_P(ICollectiveSweep, PipelinedIbcastsCompleteInIssueOrder) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    // The streamed-module pattern: several broadcasts in flight at once,
    // waited oldest-first while "compute" happens between issues.
    constexpr int kDepth = 4;
    std::array<std::vector<int>, kDepth> bufs;
    std::array<mpi::Request, kDepth> reqs;
    for (int k = 0; k < kDepth; ++k) {
      bufs[static_cast<std::size_t>(k)]
          .assign(128, comm.rank() == 0 ? 10 * k : -1);
      reqs[static_cast<std::size_t>(k)] =
          comm.ibcast(std::span<int>(bufs[static_cast<std::size_t>(k)]), 0);
    }
    for (int k = 0; k < kDepth; ++k) {
      comm.wait(reqs[static_cast<std::size_t>(k)]);
      for (const int v : bufs[static_cast<std::size_t>(k)]) {
        EXPECT_EQ(v, 10 * k);
      }
    }
  });
}

TEST_P(ICollectiveSweep, InterleavesWithBlockingCollectives) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    std::vector<int> a(16, comm.rank() == 0 ? 1 : -1);
    mpi::Request req = comm.ibcast(std::span<int>(a), 0);
    // A blocking collective issued while the nonblocking one is in flight
    // must not steal its payload (tags are unique per invocation).
    std::vector<int> b(16, comm.rank() == p - 1 ? 2 : -1);
    comm.bcast(std::span<int>(b), p - 1);
    comm.wait(req);
    for (const int v : a) EXPECT_EQ(v, 1);
    for (const int v : b) EXPECT_EQ(v, 2);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ICollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

// ---- Request composition edge cases ---------------------------------------

TEST(ICollectiveRequests, TestPollsToCompletionWithoutBlocking) {
  mpi::run(4, [](mpi::Comm& comm) {
    std::vector<double> send(8, static_cast<double>(comm.rank()));
    std::vector<double> recv(8, 0.0);
    mpi::Request req = comm.iallreduce(
        std::span<const double>(send), std::span<double>(recv),
        mpi::ops::Sum{});
    mpi::Status st;
    while (!comm.test(req, &st)) {
      // The tree's interior ranks (rank 0 included) forward only inside
      // their own polls, so spin on wall-clock, not simulated, time.
      std::this_thread::yield();
    }
    for (const double v : recv) EXPECT_DOUBLE_EQ(v, 0.0 + 1.0 + 2.0 + 3.0);
    // test() on an already-complete request stays true and cheap.
    EXPECT_TRUE(comm.test(req));
    EXPECT_TRUE(comm.test(req));
  });
}

TEST(ICollectiveRequests, WaitAnyOnAlreadyCompleteCollective) {
  mpi::run(2, [](mpi::Comm& comm) {
    std::vector<int> data(4, comm.rank() == 0 ? 5 : -1);
    std::vector<mpi::Request> reqs;
    reqs.push_back(comm.ibcast(std::span<int>(data), 0));
    comm.wait(reqs[0]);
    // Completed requests stay selectable: wait_any must return instead of
    // blocking for a second completion that will never come.
    const std::size_t which = comm.wait_any(std::span<mpi::Request>(reqs));
    EXPECT_EQ(which, 0u);
    for (const int v : data) EXPECT_EQ(v, 5);
  });
}

TEST(ICollectiveRequests, WaitAnyOnMixedP2PAndCollectiveSet) {
  mpi::run(2, [](mpi::Comm& comm) {
    std::vector<int> bc(8, comm.rank() == 0 ? 3 : -1);
    std::vector<int> p2p(8, -1);
    std::vector<mpi::Request> reqs;
    if (comm.rank() == 0) {
      std::vector<int> payload(8, 42);
      comm.send(std::span<const int>(payload), 1, 77);
      reqs.push_back(comm.ibcast(std::span<int>(bc), 0));
      comm.wait_all(std::span<mpi::Request>(reqs));
    } else {
      reqs.push_back(comm.irecv(std::span<int>(p2p), 0, 77));
      reqs.push_back(comm.ibcast(std::span<int>(bc), 0));
      // wait_any picks either kind; the caller then retires the other
      // explicitly (completed requests stay selectable, as with p2p-only
      // sets).
      const std::size_t which = comm.wait_any(std::span<mpi::Request>(reqs));
      ASSERT_LT(which, 2u);
      comm.wait(reqs[which == 0 ? 1 : 0]);
      for (const int v : p2p) EXPECT_EQ(v, 42);
      for (const int v : bc) EXPECT_EQ(v, 3);
    }
  });
}

TEST(ICollectiveRequests, DestroyingCompletedUnwaitedRequestIsSafe) {
  // Issue on all ranks, synchronize, then drop the requests without ever
  // waiting.  Nothing may leak, dangle, or trip teardown.  The flat ibcast
  // and the leaves' (ranks 1 and 3) ireduce have completed; ranks 0 and 2
  // drop an ireduce routine suspended after a matched receive, because
  // interior rank 2 forwards only inside its wait.
  mpi::run(4, [](mpi::Comm& comm) {
    std::vector<std::uint64_t> send(16, 1);
    std::vector<std::uint64_t> recv(16, 0);
    {
      mpi::Request r1 = comm.ibcast(std::span<std::uint64_t>(send), 0);
      mpi::Request r2 =
          comm.ireduce(std::span<const std::uint64_t>(send),
                       std::span<std::uint64_t>(recv), mpi::ops::Sum{}, 0);
      comm.barrier();  // every send issued so far has landed by now
      // r1, r2 destroyed here, unwaited.
    }
    comm.barrier();
  });
}

TEST(ICollectiveRequests, MemberBlockedOnAPeerIsADeadlock) {
  // Binomial ireduce at p = 4: rank 2 forwards rank 3's contribution to
  // the root only inside its own wait.  Blocking in a receive from rank 0
  // first, while rank 0 waits the ireduce, is a cycle.  With no progress
  // engine it must end in DeadlockError, not hang.
  EXPECT_THROW(
      mpi::run(4,
               [](mpi::Comm& comm) {
                 std::vector<int> send(4, 1);
                 std::vector<int> recv(4, 0);
                 mpi::Request r = comm.ireduce(std::span<const int>(send),
                                               std::span<int>(recv),
                                               mpi::ops::Sum{}, 0);
                 if (comm.rank() == 2) {
                   (void)comm.recv_value<int>(0, /*tag=*/5);
                 }
                 comm.wait(r);
                 if (comm.rank() == 0) comm.send_value(1, 2, /*tag=*/5);
               }),
      mpi::DeadlockError);
}

TEST(ICollectiveRequests, DestroyingUnfinishedRequestRetractsItsReceive) {
  // Rank 1 abandons its ibcast before the root has sent (p2p handshakes
  // order the two, without consuming collective tags): the root's payload
  // must then never land in rank 1's buffer.
  mpi::run(2, [](mpi::Comm& comm) {
    std::vector<int> data(16, comm.rank() == 0 ? 7 : -1);
    if (comm.rank() == 1) {
      { mpi::Request r = comm.ibcast(std::span<int>(data), 0); }
      comm.send_value(1, 0, /*tag=*/1);
      EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/2), 2);  // root has sent
      for (const int v : data) EXPECT_EQ(v, -1);
    } else {
      EXPECT_EQ(comm.recv_value<int>(1, /*tag=*/1), 1);
      mpi::Request r = comm.ibcast(std::span<int>(data), 0);
      comm.wait(r);
      comm.send_value(2, 1, /*tag=*/2);
    }
  });
}

TEST(ICollectiveRequests, ValidationFailuresThrowAtIssue) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& comm) {
                          std::vector<int> v(4), out(3);  // size mismatch
                          comm.ireduce(std::span<const int>(v),
                                       std::span<int>(out), mpi::ops::Sum{},
                                       0);
                        }),
               mpi::MpiError);
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& comm) {
                          std::vector<int> v(4);
                          comm.ibcast(std::span<int>(v), 5);  // bad root
                        }),
               mpi::MpiError);
  EXPECT_THROW(
      mpi::run(2,
               [](mpi::Comm& comm) {
                 std::vector<int> send(4), recv(8);
                 std::vector<std::size_t> counts = {4, 4};  // short displs
                 std::vector<std::size_t> displs = {0};
                 comm.iallgatherv(std::span<const int>(send),
                                  std::span<const std::size_t>(counts),
                                  std::span<const std::size_t>(displs),
                                  std::span<int>(recv));
               }),
      mpi::MpiError);
  EXPECT_THROW(
      mpi::run(2,
               [](mpi::Comm& comm) {
                 std::vector<int> send(4), recv(8);
                 std::vector<std::size_t> counts = {4, 4};
                 std::vector<std::size_t> displs = {0, 6};  // 6 + 4 > 8
                 comm.iallgatherv(std::span<const int>(send),
                                  std::span<const std::size_t>(counts),
                                  std::span<const std::size_t>(displs),
                                  std::span<int>(recv));
               }),
      mpi::MpiError);
}

TEST(ICollectiveRequests, WaitAfterRankFailureRethrows) {
  mpi::FaultOptions plan;
  plan.kill_rank = 1;
  plan.kill_at_call = 1;  // rank 1 dies at its first primitive call
  mpi::RuntimeOptions opts;
  opts.faults = plan;
  std::atomic<int> rethrew{0};

  try {
    mpi::run(
        3,
        [&rethrew](mpi::Comm& comm) {
          std::vector<std::uint64_t> send(8, 1);
          std::vector<std::uint64_t> recv(8, 0);
          mpi::Request req = comm.iallreduce(
              std::span<const std::uint64_t>(send),
              std::span<std::uint64_t>(recv), mpi::ops::Sum{});
          try {
            comm.wait(req);
          } catch (const mpi::RankFailedError&) {
            // The request stays failed, not silently complete: waiting
            // again must surface the same error, never return stale data.
            EXPECT_THROW(comm.wait(req), mpi::RankFailedError);
            rethrew.fetch_add(1);
            throw;
          }
        },
        opts);
    FAIL() << "expected RankFailedError";
  } catch (const mpi::RankFailedError&) {
  }
  EXPECT_GT(rethrew.load(), 0);
}

// ---- Accounting and backend identity ---------------------------------------

TEST(ICollectiveStats, FanOutMovesExactlyPMinusOnePayloads) {
  const auto result = mpi::run(4, [](mpi::Comm& comm) {
    std::vector<double> data(512, 1.0);
    mpi::Request req = comm.ibcast(std::span<double>(data), 0);
    comm.wait(req);
  });
  const auto total = result.total_stats();
  EXPECT_EQ(total.p2p_messages_sent, 0u);  // internal, not user p2p
  EXPECT_EQ(total.transport_bytes_sent, 3u * 512u * sizeof(double));
}

TEST(ICollectiveStats, ResultsAndClocksIdenticalAcrossBackends) {
  namespace dt = dipdc::testing;
  struct Capture {
    std::vector<double> reduced;
    std::vector<int> gathered;
    double clock = 0.0;
    double clock_after_gather = 0.0;
    bool operator==(const Capture&) const = default;
  };
  auto program = [](mpi::Comm& comm) {
    const int p = comm.size();
    Capture out;
    std::vector<double> send(64);
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = static_cast<double>(comm.rank()) + 0.25 * static_cast<double>(i);
    }
    out.reduced.assign(send.size(), 0.0);
    mpi::Request r1 = comm.iallreduce(std::span<const double>(send),
                                      std::span<double>(out.reduced),
                                      mpi::ops::Sum{});
    comm.wait(r1);
    // Each rank has at most one posted receive per in-flight collective,
    // so completion clocks are schedule-independent after either one.
    out.clock = comm.wtime();
    std::vector<std::size_t> counts(static_cast<std::size_t>(p), 8);
    std::vector<std::size_t> displs(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      displs[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r) * 8;
    }
    std::vector<int> mine(8, comm.rank());
    out.gathered.assign(static_cast<std::size_t>(p) * 8, -1);
    mpi::Request r2 = comm.iallgatherv(
        std::span<const int>(mine), std::span<const std::size_t>(counts),
        std::span<const std::size_t>(displs), std::span<int>(out.gathered));
    comm.wait(r2);
    out.clock_after_gather = comm.wtime();
    return out;
  };
  const Capture base =
      dt::run_forced(4, dt::forced(mpi::BackendKind::kThreads), program);
  EXPECT_GT(base.clock, 0.0);
  EXPECT_GT(base.clock_after_gather, base.clock);
  for (const mpi::BackendKind kind : dt::other_backends()) {
    const Capture got = dt::run_forced(4, dt::forced(kind), program);
    EXPECT_TRUE(got == base)
        << "backend " << static_cast<int>(kind) << " diverged (clock "
        << got.clock << " vs " << base.clock << ", after iallgatherv "
        << got.clock_after_gather << " vs " << base.clock_after_gather
        << ")";
  }
}
