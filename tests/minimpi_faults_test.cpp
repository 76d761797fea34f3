// Deterministic fault injection and reliable delivery.
//
// The contract under test: the same (plan, seed, program) triple injects
// the identical fault sequence; send_reliable recovers from injected drops
// within its retry budget; duplicates are delivered exactly once; and a
// killed rank degrades the world gracefully — every survivor gets
// RankFailedError instead of hanging.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/faults.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/stats.hpp"

namespace mpi = dipdc::minimpi;

namespace {

mpi::RuntimeOptions with_faults(const mpi::FaultOptions& plan,
                                int max_retries = 8) {
  mpi::RuntimeOptions opts;
  opts.faults = plan;
  opts.reliable.max_retries = max_retries;
  return opts;
}

/// Neighbour ring: every rank plain-sends `messages` ints right and
/// receives as many from the left.  Completes as long as the plan does not
/// drop (dup/delay only).  Values are deliberately not asserted: plain
/// sends have at-least-once semantics under duplication, so a receive may
/// observe a stale duplicate — that is the documented behaviour the
/// reliable layer exists to fix.
mpi::RunResult ring_run(int ranks, int messages,
                        const mpi::RuntimeOptions& opts) {
  return mpi::run(
      ranks,
      [messages](mpi::Comm& comm) {
        const int p = comm.size();
        const int next = (comm.rank() + 1) % p;
        const int prev = (comm.rank() - 1 + p) % p;
        for (int i = 0; i < messages; ++i) {
          comm.send_value(comm.rank() * 1000 + i, next, 0);
          (void)comm.recv_value<int>(prev, 0);
        }
      },
      opts);
}

}  // namespace

TEST(FaultSpec, ParsesEveryClause) {
  mpi::FaultOptions f;
  mpi::ReliableOptions r;
  mpi::parse_fault_spec("drop=0.25,dup=0.1,delay=0.5:2e-6,kill=3@7,retries=5,timeout=1e-4",
                        f, r);
  EXPECT_DOUBLE_EQ(f.drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(f.dup_prob, 0.1);
  EXPECT_DOUBLE_EQ(f.delay_prob, 0.5);
  EXPECT_DOUBLE_EQ(f.delay_seconds, 2e-6);
  EXPECT_EQ(f.kill_rank, 3);
  EXPECT_EQ(f.kill_at_call, 7u);
  EXPECT_EQ(r.max_retries, 5);
  EXPECT_DOUBLE_EQ(r.timeout_seconds, 1e-4);
  EXPECT_TRUE(f.injects());
  EXPECT_TRUE(f.kills());
}

TEST(FaultSpec, KillWithoutCallNumberMeansFirstCall) {
  mpi::FaultOptions f;
  mpi::ReliableOptions r;
  mpi::parse_fault_spec("kill=2", f, r);
  EXPECT_EQ(f.kill_rank, 2);
  EXPECT_EQ(f.kill_at_call, 1u);
}

TEST(FaultSpec, MalformedSpecsThrow) {
  mpi::FaultOptions f;
  mpi::ReliableOptions r;
  EXPECT_THROW(mpi::parse_fault_spec("", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("drop=1.5", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("drop=0.1x", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("drop=", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("bogus=1", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("kill=-1", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("kill=2@0", f, r), mpi::MpiError);
  EXPECT_THROW(mpi::parse_fault_spec("retries=-3", f, r), mpi::MpiError);
}

TEST(FaultInjection, SameSeedInjectsIdenticalSequence) {
  mpi::FaultOptions plan;
  plan.seed = 7;
  plan.dup_prob = 0.3;
  plan.delay_prob = 0.2;

  const auto a = ring_run(4, 50, with_faults(plan));
  const auto b = ring_run(4, 50, with_faults(plan));
  ASSERT_EQ(a.rank_stats.size(), b.rank_stats.size());
  std::uint64_t total_dups = 0;
  for (std::size_t r = 0; r < a.rank_stats.size(); ++r) {
    EXPECT_EQ(a.rank_stats[r].fault_dups, b.rank_stats[r].fault_dups);
    EXPECT_EQ(a.rank_stats[r].fault_delays, b.rank_stats[r].fault_delays);
    EXPECT_EQ(a.sim_times[r], b.sim_times[r]);  // bit-identical
    total_dups += a.rank_stats[r].fault_dups;
  }
  EXPECT_GT(total_dups, 0u);

  // A different seed draws a different sequence.
  mpi::FaultOptions other = plan;
  other.seed = 8;
  const auto c = ring_run(4, 50, with_faults(other));
  bool any_difference = false;
  for (std::size_t r = 0; r < a.rank_stats.size(); ++r) {
    any_difference = any_difference ||
                     a.rank_stats[r].fault_dups != c.rank_stats[r].fault_dups ||
                     a.rank_stats[r].fault_delays !=
                         c.rank_stats[r].fault_delays;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjection, ArmedButZeroProbabilityPlanChangesNothing) {
  // A plan with a seed but all probabilities zero must not perturb the run:
  // injection draws nothing when no message-level fault is armed.
  mpi::FaultOptions plan;
  plan.seed = 12345;
  const auto faulty = ring_run(4, 20, with_faults(plan));
  const auto clean = ring_run(4, 20, mpi::RuntimeOptions{});
  for (std::size_t r = 0; r < clean.rank_stats.size(); ++r) {
    EXPECT_EQ(faulty.sim_times[r], clean.sim_times[r]);
    EXPECT_EQ(faulty.rank_stats[r].transport_messages_sent,
              clean.rank_stats[r].transport_messages_sent);
  }
  EXPECT_EQ(faulty.total_stats().fault_drops, 0u);
}

TEST(FaultInjection, DelayedMessagesStretchSimulatedTime) {
  mpi::FaultOptions plan;
  plan.delay_prob = 1.0;
  plan.delay_seconds = 0.25;  // enormous next to the LogGP terms
  const auto delayed = ring_run(2, 4, with_faults(plan));
  const auto clean = ring_run(2, 4, mpi::RuntimeOptions{});
  EXPECT_EQ(delayed.total_stats().fault_delays, 2u * 4u);
  EXPECT_GT(delayed.max_sim_time(), clean.max_sim_time() + 0.25);
}

TEST(ReliableDelivery, RecoversEveryDroppedMessage) {
  mpi::FaultOptions plan;
  plan.seed = 3;
  plan.drop_prob = 0.3;
  constexpr int kMessages = 40;

  const auto result = mpi::run(
      2,
      [](mpi::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) {
            comm.send_reliable_value(i * 17, 1, 5);
          }
        } else {
          for (int i = 0; i < kMessages; ++i) {
            EXPECT_EQ(comm.recv_reliable_value<int>(0, 5), i * 17);
          }
        }
      },
      with_faults(plan));

  const mpi::CommStats total = result.total_stats();
  EXPECT_GT(total.fault_drops, 0u);         // faults actually fired
  EXPECT_GT(total.reliable_retries, 0u);    // and were recovered by resend
  EXPECT_EQ(total.reliable_retries, total.reliable_timeouts);
  EXPECT_EQ(total.calls_to(mpi::Primitive::kSendReliable),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(total.calls_to(mpi::Primitive::kRecvReliable),
            static_cast<std::uint64_t>(kMessages));
}

TEST(ReliableDelivery, ReliableRunsAreSeedReproducible) {
  mpi::FaultOptions plan;
  plan.seed = 11;
  plan.drop_prob = 0.25;
  auto once = [&] {
    return mpi::run(
        2,
        [](mpi::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 25; ++i) comm.send_reliable_value(i, 1);
          } else {
            for (int i = 0; i < 25; ++i) {
              EXPECT_EQ(comm.recv_reliable_value<int>(0), i);
            }
          }
        },
        with_faults(plan));
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.total_stats().fault_drops, b.total_stats().fault_drops);
  EXPECT_EQ(a.total_stats().reliable_retries,
            b.total_stats().reliable_retries);
  for (std::size_t r = 0; r < a.sim_times.size(); ++r) {
    EXPECT_EQ(a.sim_times[r], b.sim_times[r]);
  }
}

TEST(ReliableDelivery, InjectedDuplicatesAreFilteredExactlyOnce) {
  mpi::FaultOptions plan;
  plan.dup_prob = 1.0;  // every frame is delivered twice
  constexpr int kMessages = 16;

  const auto result = mpi::run(
      2,
      [](mpi::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) {
            comm.send_reliable_value(100 + i, 1);
          }
        } else {
          for (int i = 0; i < kMessages; ++i) {
            EXPECT_EQ(comm.recv_reliable_value<int>(0), 100 + i);
          }
        }
      },
      with_faults(plan));

  const mpi::CommStats total = result.total_stats();
  EXPECT_EQ(total.fault_dups, static_cast<std::uint64_t>(kMessages));
  // The duplicate of frame i is popped (and filtered) while receiving frame
  // i+1; the last frame's duplicate is never consumed.
  EXPECT_EQ(total.reliable_duplicates,
            static_cast<std::uint64_t>(kMessages - 1));
}

TEST(ReliableDelivery, ExhaustedRetryBudgetThrows) {
  mpi::FaultOptions plan;
  plan.drop_prob = 1.0;  // nothing ever arrives
  try {
    mpi::run(
        2,
        [](mpi::Comm& comm) {
          if (comm.rank() == 0) {
            comm.send_reliable_value(42, 1);
          } else {
            (void)comm.recv_reliable_value<int>(0);
          }
        },
        with_faults(plan, /*max_retries=*/2));
    FAIL() << "expected MpiError";
  } catch (const mpi::MpiError& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos);
  }
}

TEST(RankFailure, KilledRankMidCollectiveFailsEverySurvivor) {
  mpi::FaultOptions plan;
  plan.kill_rank = 2;
  plan.kill_at_call = 5;
  std::array<std::atomic<bool>, 4> saw_failure{};

  try {
    mpi::run(
        4,
        [&saw_failure](mpi::Comm& comm) {
          try {
            for (int i = 0; i < 10; ++i) comm.barrier();
          } catch (const mpi::RankFailedError&) {
            saw_failure[static_cast<std::size_t>(comm.rank())] = true;
            throw;
          }
        },
        with_faults(plan));
    FAIL() << "expected RankFailedError";
  } catch (const mpi::RankFailedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 2"), std::string::npos);
    EXPECT_NE(what.find("killed by fault injection"), std::string::npos);
  }
  // Nobody hung: the dead rank threw, and every survivor was unblocked
  // with the same error class.
  for (const auto& saw : saw_failure) EXPECT_TRUE(saw.load());
}

TEST(RankFailure, KilledRankMidP2PUnblocksBlockedReceiver) {
  mpi::FaultOptions plan;
  plan.kill_rank = 1;
  plan.kill_at_call = 1;  // rank 1 dies at its very first primitive call
  std::atomic<bool> receiver_failed{false};

  EXPECT_THROW(
      mpi::run(
          2,
          [&receiver_failed](mpi::Comm& comm) {
            if (comm.rank() == 0) {
              try {
                (void)comm.recv_value<int>(1, 0);  // never arrives
              } catch (const mpi::RankFailedError&) {
                receiver_failed = true;
                throw;
              }
            } else {
              comm.send_value(7, 0, 0);  // dies inside this call
            }
          },
          with_faults(plan)),
      mpi::RankFailedError);
  EXPECT_TRUE(receiver_failed.load());
}

TEST(RankFailure, FaultCountersAppearInTransportReport) {
  mpi::FaultOptions plan;
  plan.seed = 5;
  plan.drop_prob = 0.4;
  const auto result = mpi::run(
      2,
      [](mpi::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 12; ++i) comm.send_reliable_value(i, 1);
        } else {
          for (int i = 0; i < 12; ++i) {
            (void)comm.recv_reliable_value<int>(0);
          }
        }
      },
      with_faults(plan));
  const std::string report = mpi::transport_report(result.total_stats());
  EXPECT_NE(report.find("fault injection:"), std::string::npos);
  EXPECT_NE(report.find("reliable delivery:"), std::string::npos);

  // Fault-free stats keep the report free of fault rows.
  const auto clean = ring_run(2, 2, mpi::RuntimeOptions{});
  EXPECT_EQ(mpi::transport_report(clean.total_stats()).find("fault"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection on split-created communicators.  The injector keys on
// world ranks and user-level p2p frames, so subcomm traffic must see the
// same treatment as world traffic — and collectives (internal frames) must
// stay immune no matter which comm they run on.

TEST(SubcommFaults, ReliableDeliveryRecoversDropsOnSubcomm) {
  mpi::FaultOptions plan;
  plan.seed = 11;
  plan.drop_prob = 0.3;
  mpi::run(
      6,
      [](mpi::Comm& world) {
        // Even/odd subcomms of 3 ranks each; ring of reliable messages
        // inside each subcomm.  Staggered send/recv order: acks are only
        // emitted by recv_reliable, so a ring of simultaneous blocking
        // reliable sends would wait on acks that can never be produced.
        mpi::Comm sub = world.split(world.rank() % 2, world.rank());
        const int p = sub.size();
        const int next = (sub.rank() + 1) % p;
        const int prev = (sub.rank() - 1 + p) % p;
        for (int i = 0; i < 8; ++i) {
          if (sub.rank() % 2 == 0) {
            sub.send_reliable_value(sub.rank() * 100 + i, next, 3);
            const int got = sub.recv_reliable_value<int>(prev, 3);
            EXPECT_EQ(got, prev * 100 + i);
          } else {
            const int got = sub.recv_reliable_value<int>(prev, 3);
            EXPECT_EQ(got, prev * 100 + i);
            sub.send_reliable_value(sub.rank() * 100 + i, next, 3);
          }
        }
      },
      with_faults(plan, /*max_retries=*/32));
}

TEST(SubcommFaults, DuplicatesFilteredExactlyOnceOnSubcomm) {
  mpi::FaultOptions plan;
  plan.seed = 7;
  plan.dup_prob = 0.5;
  mpi::run(
      4,
      [](mpi::Comm& world) {
        mpi::Comm sub = world.split(world.rank() / 2, world.rank());
        if (sub.rank() == 0) {
          for (int i = 0; i < 10; ++i) sub.send_reliable_value(i, 1);
        } else {
          for (int i = 0; i < 10; ++i) {
            // Exactly-once and in order despite duplicated frames.
            EXPECT_EQ(sub.recv_reliable_value<int>(0), i);
          }
        }
      },
      with_faults(plan));
}

TEST(SubcommFaults, CollectivesOnSubcommsAreImmuneToInjection) {
  // drop=1.0 destroys every user p2p frame, yet collectives ride internal
  // channels: a subcomm allreduce must still complete and be exact.
  mpi::FaultOptions plan;
  plan.drop_prob = 1.0;
  plan.delay_prob = 1.0;
  mpi::run(
      6,
      [](mpi::Comm& world) {
        mpi::Comm sub = world.split(world.rank() % 2, world.rank());
        const int sum = sub.allreduce_value(
            world.rank(), [](int a, int b) { return a + b; });
        const int want = world.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
        EXPECT_EQ(sum, want);
      },
      with_faults(plan));
}

TEST(SubcommFaults, KillAfterSplitFailsSurvivorsInBothSubcomms) {
  // Rank 3 dies after the split (its 2nd primitive call).  Rank death
  // degrades the whole world, so survivors blocked in either subcomm —
  // including the one rank 3 never joined — must all see RankFailedError.
  //
  // This test was the long-standing "passes on rerun" flake in this
  // binary.  The earlier version raced on thread scheduling twice over:
  //  (a) it ran a BOUNDED loop of 50 allreduces, silently assuming the
  //      kill (rank 3's 2nd call) lands before the independent even
  //      subcomm drains all 50 — on a loaded one-core host ranks 0/1
  //      could finish first and return cleanly; and
  //  (b) it counted failures only inside the loop, while the split
  //      itself sat outside the try — a survivor scheduled late enough
  //      correctly observes RankFailedError already AT its split call
  //      and slipped past the counter.
  // Neither was a runtime bug: every rank always got RankFailedError.
  // The loop is now unbounded (the even subcomm can never outrun the
  // kill; a genuine propagation bug shows up as a test timeout, not a
  // flake) and the counter wraps the whole rank body, so the outcome is
  // schedule-independent.  Repeated in-process to pin that cheaply.
  mpi::FaultOptions plan;
  plan.kill_rank = 3;
  plan.kill_at_call = 2;
  for (int rep = 0; rep < 10; ++rep) {
    SCOPED_TRACE(rep);
    std::atomic<int> failures{0};
    EXPECT_THROW(
        mpi::run(
            4,
            [&failures](mpi::Comm& world) {
              try {
                mpi::Comm sub = world.split(world.rank() / 2, world.rank());
                for (int i = 0;; ++i) {
                  (void)sub.allreduce_value(i, [](int a, int b) {
                    return a + b;
                  });
                }
              } catch (const mpi::RankFailedError&) {
                failures.fetch_add(1);
                throw;
              }
            },
            with_faults(plan)),
        mpi::RankFailedError);
    // The killed rank observes its own death as RankFailedError too: 4.
    EXPECT_EQ(failures.load(), 4) << "every rank must fail, none may hang";
  }
}

TEST(ReliableDelivery, SoleSurvivorSenderTimesOutInsteadOfHanging) {
  // Regression: when the stall-proof check expires the *calling* thread's
  // own ack timeout, the wakeup used to be lost (the caller was not yet in
  // its condition-variable wait) — with no other live rank to re-notify,
  // the sender slept forever.  Found by mpifuzz: the sole surviving sender
  // must instead burn its retry budget and throw.
  mpi::FaultOptions plan;
  plan.seed = 3;
  try {
    mpi::run(
        2,
        [](mpi::Comm& comm) {
          if (comm.rank() == 0) {
            comm.send_reliable_value(1, 1);  // consumed, acked
            comm.send_reliable_value(2, 1);  // receiver already gone
          } else {
            (void)comm.recv_reliable_value<int>(0);
            // exit without receiving the second message
          }
        },
        with_faults(plan, /*max_retries=*/2));
    FAIL() << "expected MpiError";
  } catch (const mpi::MpiError& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos);
  }
}

TEST(ReliableDelivery, AckTimingIgnoresPostedReceiveDeliveryOrder) {
  // Rank 0 posts an irecv for 64 KiB from rank 1, then send_reliables to
  // rank 2.  Whether rank 1's payload lands before or after the ack
  // (forced here in real time) must not move rank 0's simulated clock:
  // acks ride the control channel, not the ingress link the payload
  // occupies.
  auto clocks_when = [](bool payload_first) {
    std::atomic<bool> posted{false}, sent{false}, acked{false};
    std::array<double, 2> clocks{};  // after send_reliable, after the wait
    mpi::run(3, [&](mpi::Comm& comm) {
      std::vector<double> big(8192, 1.0);
      if (comm.rank() == 0) {
        mpi::Request r = comm.irecv(std::span<double>(big), 1, /*tag=*/1);
        posted = true;
        comm.send_reliable_value(7, 2);
        clocks[0] = comm.wtime();
        acked = true;
        comm.wait(r);
        clocks[1] = comm.wtime();
      } else if (comm.rank() == 1) {
        const std::atomic<bool>& go = payload_first ? posted : acked;
        while (!go) std::this_thread::yield();
        comm.send(std::span<const double>(big), 0, /*tag=*/1);
        sent = true;
      } else {
        while (payload_first && !sent) std::this_thread::yield();
        EXPECT_EQ(comm.recv_reliable_value<int>(0), 7);
      }
    });
    return clocks;
  };
  const std::array<double, 2> a = clocks_when(true);
  const std::array<double, 2> b = clocks_when(false);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}
