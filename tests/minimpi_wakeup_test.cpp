// Targeted wakeups (see Runtime::condvar): each rank sleeps on its own
// condition variable, and whoever writes the state a rank waits on wakes
// exactly that rank.
//
//  - A bystander rank blocked on a message nobody has sent yet must sleep
//    through other ranks' traffic instead of waking for every message.
//  - Every blocking site must still wake on its event.  The rank that
//    causes the event never blocks in minimpi afterwards: it spins on an
//    atomic that the woken rank sets.  A lost wakeup therefore fails the
//    test after 5 s, instead of being rescued by the deadlock detector
//    (which wakes runnable ranks once every live rank is blocked).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/runtime.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;

namespace {

using dipdc::testing::all_backends;

/// Voluntary context switches of the calling thread so far.
long voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

/// Gives the sleeping rank time to block before the event is triggered.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

/// Set by each woken rank after its blocking call returns.  The waking rank
/// spins on it outside minimpi, so only a real wakeup can set it.
struct Woken {
  std::atomic<int> count{0};
  std::atomic<bool> lost{false};

  void set() { count.fetch_add(1); }
  /// Spins until `n` ranks reported, for at most 5 s of wall time.
  void await(int n = 1) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (count.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        lost = true;
        return;
      }
      std::this_thread::yield();
    }
  }
};

constexpr std::size_t kRendezvousDoubles = 16 * 1024;  // 128 KiB > eager
constexpr std::size_t kDeferredDoubles = 1024;          // 8 KiB > 4 KiB

struct WakeCase {
  const char* name;
  int nranks;
  int woken;  // ranks that must report
  std::function<void(mpi::RuntimeOptions&)> configure;
  std::function<void(mpi::Comm&, Woken&)> body;
};

std::vector<WakeCase> wake_cases() {
  const auto none = [](mpi::RuntimeOptions&) {};
  return {
      {"rendezvous send, woken by a recv consume", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         std::vector<double> big(kRendezvousDoubles, 1.0);
         if (comm.rank() == 0) {
           comm.send(std::span<const double>(big), 1);
           w.set();
         } else {
           settle();
           comm.recv(std::span<double>(big), 0);
           w.await();
         }
       }},
      {"rendezvous send, woken by an irecv post", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         std::vector<double> big(kRendezvousDoubles, 1.0);
         if (comm.rank() == 0) {
           comm.send(std::span<const double>(big), 1);
           w.set();
         } else {
           settle();
           mpi::Request req = comm.irecv(std::span<double>(big), 0);
           w.await();
           comm.wait(req);
         }
       }},
      {"wait on a rendezvous isend", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         std::vector<double> big(kRendezvousDoubles, 1.0);
         if (comm.rank() == 0) {
           mpi::Request req = comm.isend(std::span<const double>(big), 1);
           comm.wait(req);
           w.set();
         } else {
           settle();
           comm.recv(std::span<double>(big), 0);
           w.await();
         }
       }},
      {"wait_any on a rendezvous isend", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         std::vector<double> big(kRendezvousDoubles, 1.0);
         if (comm.rank() == 0) {
           std::vector<mpi::Request> reqs;
           reqs.push_back(comm.isend(std::span<const double>(big), 1));
           (void)comm.wait_any(reqs);
           w.set();
         } else {
           settle();
           comm.recv(std::span<double>(big), 0);
           w.await();
         }
       }},
      {"probe, woken by an unexpected arrival", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         if (comm.rank() == 1) {
           (void)comm.probe(0, 3);
           w.set();
           (void)comm.recv_value<int>(0, 3);
         } else {
           settle();
           comm.send_value(7, 1, 3);
           w.await();
         }
       }},
      {"deferred >4 KiB copy into a posted recv", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         std::vector<double> buf(kDeferredDoubles, 2.0);
         if (comm.rank() == 1) {
           comm.recv(std::span<double>(buf), 0);
           w.set();
         } else {
           settle();
           comm.send(std::span<const double>(buf), 1);
           w.await();
         }
       }},
      {"collective staged receive", 2, 1, none,
       [](mpi::Comm& comm, Woken& w) {
         std::vector<double> buf(kDeferredDoubles, 3.0);
         if (comm.rank() == 1) {
           comm.bcast(std::span<double>(buf), 0);
           w.set();
         } else {
           settle();
           comm.bcast(std::span<double>(buf), 0);
           w.await();
         }
       }},
      // Both ranks wait for an ack that never comes.  Rank 1 blocks last,
      // so its deadlock check expires both waits: its own returns at once,
      // rank 0's needs a wakeup.  No retries, so neither blocks again.
      {"reliable-ack timeout expiry", 2, 1,
       [](mpi::RuntimeOptions& o) {
         o.faults.drop_prob = 1.0;
         o.reliable.max_retries = 0;
       },
       [](mpi::Comm& comm, Woken& w) {
         if (comm.rank() == 1) settle();
         try {
           comm.send_reliable_value(1, 1 - comm.rank());
         } catch (const mpi::MpiError&) {
           // Retry budget exhausted: the expected outcome.
         }
         if (comm.rank() == 0) {
           w.set();
         } else {
           w.await();
         }
       }},
      // The killed rank catches its own RankFailedError and spins until
      // both waiting ranks woke, then dies.
      {"kill while the other ranks wait", 3, 2,
       [](mpi::RuntimeOptions& o) {
         o.faults.kill_rank = 1;
         o.faults.kill_at_call = 1;
       },
       [](mpi::Comm& comm, Woken& w) {
         if (comm.rank() == 1) {
           settle();
           try {
             comm.send_value(1, 0);
           } catch (const mpi::RankFailedError&) {
             w.await(2);
             throw;
           }
         } else {
           try {
             (void)comm.recv_value<int>(1);
           } catch (const mpi::RankFailedError&) {
             w.set();
           }
         }
       }},
  };
}

TEST(Wakeups, BystanderSleepsThroughPeerTraffic) {
  constexpr int kRoundTrips = 2000;
  for (const mpi::BackendKind kind : all_backends()) {
    long bystander = -1;
    mpi::RuntimeOptions options;
    options.backend.kind = kind;
    mpi::run(
        3,
        [&](mpi::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < kRoundTrips; ++i) {
              comm.send_value(i, 1);
              EXPECT_EQ(comm.recv_value<int>(1), i);
            }
            comm.send_value(-1, 2);
          } else if (comm.rank() == 1) {
            for (int i = 0; i < kRoundTrips; ++i) {
              comm.send_value(comm.recv_value<int>(0), 0);
            }
          } else {
            const long before = voluntary_switches();
            EXPECT_EQ(comm.recv_value<int>(0), -1);
            bystander = voluntary_switches() - before;
          }
        },
        options);
    EXPECT_GE(bystander, 0) << mpi::to_string(kind);
    EXPECT_LT(bystander, 100) << mpi::to_string(kind);
  }
}

TEST(Wakeups, EveryBlockingSiteWakesOnItsEvent) {
  for (const mpi::BackendKind kind : all_backends()) {
    for (const WakeCase& c : wake_cases()) {
      SCOPED_TRACE(std::string(c.name) + " on " + mpi::to_string(kind));
      mpi::RuntimeOptions options;
      options.backend.kind = kind;
      c.configure(options);
      Woken woken;
      const auto body = [&](mpi::Comm& comm) { c.body(comm, woken); };
      if (options.faults.kills()) {
        EXPECT_THROW(mpi::run(c.nranks, body, options), mpi::RankFailedError);
      } else {
        mpi::run(c.nranks, body, options);
      }
      EXPECT_FALSE(woken.lost) << "lost wakeup";
      EXPECT_EQ(woken.count.load(), c.woken);
    }
  }
}

}  // namespace
