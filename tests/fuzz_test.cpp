// Unit tests for the mpifuzz library itself: generator determinism and
// validity invariants, oracle agreement on real executions, event
// filtering with communicator dependency closure, ddmin shrinking on a
// synthetic predicate, and seed-file round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fuzz/check.hpp"
#include "fuzz/execute.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program.hpp"
#include "fuzz/seedfile.hpp"
#include "fuzz/shrink.hpp"
#include "support/error.hpp"

namespace fz = dipdc::fuzz;

namespace {

fz::GenConfig small_config() {
  fz::GenConfig cfg;
  cfg.max_ranks = 6;
  cfg.target_events = 24;
  cfg.max_bytes = 512;
  cfg.fault_spec.clear();  // fault-free unless a test opts in
  return cfg;
}

}  // namespace

TEST(FuzzGenerate, SameSeedSameProgram) {
  const fz::GenConfig cfg = small_config();
  for (std::uint64_t seed : {1ull, 7ull, 12345ull}) {
    const fz::Program a = fz::generate(seed, cfg);
    const fz::Program b = fz::generate(seed, cfg);
    EXPECT_EQ(fz::describe(a), fz::describe(b)) << "seed " << seed;
    EXPECT_EQ(a.nranks, b.nranks);
    EXPECT_EQ(a.fault_spec, b.fault_spec);
    EXPECT_EQ(a.options.eager_threshold, b.options.eager_threshold);
  }
}

TEST(FuzzGenerate, DifferentSeedsDiffer) {
  const fz::GenConfig cfg = small_config();
  EXPECT_NE(fz::describe(fz::generate(1, cfg)),
            fz::describe(fz::generate(2, cfg)));
}

TEST(FuzzGenerate, EventIdsAscendPerRank) {
  // Non-deferred ops must follow the global event order on every rank;
  // deferred waits keep their original event id but may appear later.
  // Checking the weaker invariant that holds for all ops: each rank's
  // op list never references an event id >= num_events, and per-rank
  // non-wait ops are ascending.
  const fz::Program p = fz::generate(42, small_config());
  for (const auto& rank_ops : p.ops) {
    std::uint32_t last = 0;
    for (const fz::Op& op : rank_ops) {
      ASSERT_LT(op.event, p.num_events);
      if (op.kind == fz::OpKind::kWait || op.kind == fz::OpKind::kWaitAll) {
        continue;  // deferred completions may appear out of order
      }
      EXPECT_GE(op.event, last);
      last = op.event;
    }
  }
}

TEST(FuzzGenerate, LossyPlansOnlyUseReliableP2p) {
  // When the drawn plan can drop or duplicate, the generator must route
  // every p2p op through the reliable layer and avoid sendrecv/probe.
  fz::GenConfig cfg = small_config();
  cfg.fault_spec = "drop=0.2,retries=64,timeout=0.001";
  const fz::Program p = fz::generate(9, cfg);
  for (const auto& rank_ops : p.ops) {
    for (const fz::Op& op : rank_ops) {
      EXPECT_NE(op.kind, fz::OpKind::kSend);
      EXPECT_NE(op.kind, fz::OpKind::kRecv);
      EXPECT_NE(op.kind, fz::OpKind::kIsend);
      EXPECT_NE(op.kind, fz::OpKind::kIrecv);
      EXPECT_NE(op.kind, fz::OpKind::kSendrecv);
      EXPECT_NE(op.kind, fz::OpKind::kProbeRecv);
      if (op.kind == fz::OpKind::kRecvReliable && !op.wsources.empty()) {
        EXPECT_EQ(op.peer, dipdc::minimpi::kAnySource)
            << "lossy-plan windows must filter by exact tag, not wildcard";
      }
    }
  }
}

TEST(FuzzOracle, AgreesWithExecutionAcrossSeeds) {
  // The core property: real threaded runs match the sequential oracle.
  // Mix of fault-free and auto-drawn fault plans, ~30 programs total.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    {
      const fz::Program p = fz::generate(seed, small_config());
      const fz::CheckResult r = fz::check(p, fz::execute(p));
      EXPECT_TRUE(r.ok) << "fault-free seed " << seed << "\n" << r.summary();
    }
    {
      fz::GenConfig cfg = small_config();
      cfg.fault_spec = "auto";
      const fz::Program p = fz::generate(seed, cfg);
      const fz::CheckResult r = fz::check(p, fz::execute(p));
      EXPECT_TRUE(r.ok) << "auto-fault seed " << seed << " (plan "
                        << p.fault_spec << ")\n"
                        << r.summary();
    }
  }
}

TEST(FuzzOracle, ContainerProgramsAgreeWithExecutionAcrossSeeds) {
  // Elastic-container events (create / set_weight / repartition) woven into
  // otherwise ordinary programs: the oracle's sequential replay of the
  // weight evolution must predict the exact primitive footprint of every
  // repartition (allgather + allreduce, alltoallv x2 iff the cuts moved)
  // and the post-exchange cut/slab digests.
  fz::GenConfig cfg = small_config();
  cfg.container_ops = true;
  std::size_t reparts = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const fz::Program p = fz::generate(seed, cfg);
    for (const auto& rank_ops : p.ops) {
      for (const fz::Op& op : rank_ops) {
        if (op.kind == fz::OpKind::kContainerRepartition) ++reparts;
      }
    }
    const fz::CheckResult r = fz::check(p, fz::execute(p));
    EXPECT_TRUE(r.ok) << "container seed " << seed << "\n" << r.summary();
  }
  EXPECT_GT(reparts, 0u) << "no seed in [1,12] generated a repartition";
}

TEST(FuzzOracle, IcollectiveProgramsAgreeWithExecutionAcrossSeeds) {
  // Nonblocking collectives (issue + deferred wait) woven into ordinary
  // programs: the oracle must predict the issue-time primitive counts, the
  // kWait counts, and the exact bytes every member's completed buffer
  // holds at wait time — under fault-free and auto-drawn fault plans.
  fz::GenConfig cfg = small_config();
  cfg.icollective_ops = true;
  std::size_t issues = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fz::GenConfig c = cfg;
    if (seed % 3 == 0) c.fault_spec = "auto";
    const fz::Program p = fz::generate(seed, c);
    for (const auto& rank_ops : p.ops) {
      for (const fz::Op& op : rank_ops) {
        if (op.kind == fz::OpKind::kIbcast ||
            op.kind == fz::OpKind::kIreduce ||
            op.kind == fz::OpKind::kIallreduce ||
            op.kind == fz::OpKind::kIallgatherv) {
          ++issues;
        }
      }
    }
    const fz::CheckResult r = fz::check(p, fz::execute(p));
    EXPECT_TRUE(r.ok) << "icollective seed " << seed << "\n" << r.summary();
  }
  EXPECT_GT(issues, 0u) << "no seed in [1,12] generated an icollective";
}

TEST(FuzzOracle, IcollectiveOpsOffRegeneratesLegacyProgramsUnchanged) {
  // Like the container roll, the icollective roll must consume generator
  // randomness only when the feature is on, so pre-icollective corpus
  // seeds keep regenerating bit-identically.
  const fz::GenConfig off = small_config();
  fz::GenConfig defaulted = small_config();
  defaulted.icollective_ops = false;
  for (std::uint64_t seed : {3ull, 19ull, 44ull}) {
    EXPECT_EQ(fz::describe(fz::generate(seed, off)),
              fz::describe(fz::generate(seed, defaulted)));
    const std::string d = fz::describe(fz::generate(seed, off));
    EXPECT_EQ(d.find("ibcast"), std::string::npos);
    EXPECT_EQ(d.find("ireduce"), std::string::npos);
    EXPECT_EQ(d.find("iallreduce"), std::string::npos);
    EXPECT_EQ(d.find("iallgatherv"), std::string::npos);
  }
}

TEST(FuzzGenerate, IcollectiveMembersShareOneWaitDueEvent) {
  // Any member's wait may have to forward for its peers (tree algorithms
  // progress only inside waits), so every member must wait at the same
  // flush: one event boundary must separate all members' earlier ops from
  // their later ones, like a blocking collective at that event.
  fz::GenConfig cfg = small_config();
  cfg.icollective_ops = true;
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const fz::Program p = fz::generate(seed, cfg);
    // Per icollective event: the latest non-wait event a member runs
    // before its wait, and the earliest it runs after.
    std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>> bounds;
    for (const auto& rank_ops : p.ops) {
      for (std::size_t i = 0; i < rank_ops.size(); ++i) {
        const fz::Op& op = rank_ops[i];
        if (op.kind != fz::OpKind::kIbcast &&
            op.kind != fz::OpKind::kIreduce &&
            op.kind != fz::OpKind::kIallreduce &&
            op.kind != fz::OpKind::kIallgatherv) {
          continue;
        }
        std::uint32_t before = op.event;
        std::uint32_t after = p.num_events;
        bool waited = false;
        for (std::size_t j = i + 1; j < rank_ops.size(); ++j) {
          const fz::Op& next = rank_ops[j];
          if (next.kind == fz::OpKind::kWait) {
            if (next.event == op.event && next.req == op.req) waited = true;
            continue;
          }
          if (waited) {
            after = std::min(after, next.event);
          } else {
            before = std::max(before, next.event);
          }
        }
        EXPECT_TRUE(waited) << "seed " << seed << " event " << op.event;
        auto [it, fresh] = bounds.try_emplace(op.event, before, after);
        if (!fresh) {
          it->second.first = std::max(it->second.first, before);
          it->second.second = std::min(it->second.second, after);
        }
      }
    }
    for (const auto& [event, b] : bounds) {
      EXPECT_LT(b.first, b.second)
          << "seed " << seed << ": members of icollective event " << event
          << " wait at different flushes";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "no seed in [1,20] generated an icollective";
}

TEST(FuzzOracle, ContainerOpsOffRegeneratesLegacyProgramsUnchanged) {
  // The container roll must consume generator randomness only when the
  // feature is on, or every checked-in corpus seed would silently describe
  // a different program.
  const fz::GenConfig off = small_config();
  fz::GenConfig defaulted = small_config();
  defaulted.container_ops = false;
  for (std::uint64_t seed : {3ull, 19ull, 44ull}) {
    EXPECT_EQ(fz::describe(fz::generate(seed, off)),
              fz::describe(fz::generate(seed, defaulted)));
    const std::string d = fz::describe(fz::generate(seed, off));
    EXPECT_EQ(d.find("container_"), std::string::npos);
  }
}

TEST(FuzzFilter, ClosureRestoresContainerCreateOfKeptEvents) {
  // Dropping only a container's create event while keeping a set_weight or
  // repartition on it must pull the create back in, exactly like the split
  // chain closure.
  fz::GenConfig cfg = small_config();
  cfg.container_ops = true;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const fz::Program p = fz::generate(seed, cfg);
    std::uint32_t create_event = 0;
    int cid = -1;
    bool has_dependent = false;
    for (const auto& rank_ops : p.ops) {
      for (const fz::Op& op : rank_ops) {
        if (op.kind == fz::OpKind::kContainerCreate && cid < 0) {
          create_event = op.event;
          cid = op.color;
        } else if (cid >= 0 && op.color == cid &&
                   (op.kind == fz::OpKind::kContainerSetWeight ||
                    op.kind == fz::OpKind::kContainerRepartition)) {
          has_dependent = true;
        }
      }
    }
    if (cid < 0 || !has_dependent) continue;
    std::vector<std::uint32_t> all_but_create;
    for (std::uint32_t e = 0; e < p.num_events; ++e) {
      if (e != create_event) all_but_create.push_back(e);
    }
    const fz::Program f = fz::filter_events(p, all_but_create);
    EXPECT_TRUE(std::find(f.kept_events.begin(), f.kept_events.end(),
                          create_event) != f.kept_events.end())
        << "closure did not restore the creating event (seed " << seed << ")";
    // The filtered program must still execute and check clean.
    const fz::CheckResult r = fz::check(f, fz::execute(f));
    EXPECT_TRUE(r.ok) << r.summary();
    return;
  }
  GTEST_FAIL() << "no seed in [1,50] produced a dependent container op";
}

TEST(FuzzSeedfile, IcollectiveFlagSurvivesRoundTrip) {
  fz::GenConfig cfg = small_config();
  cfg.icollective_ops = true;
  const fz::Program p = fz::generate(8, cfg);
  const fz::SeedSpec parsed = fz::parse_seed(
      fz::format_seed(fz::to_seed_spec(p, cfg, /*faults_disabled=*/false)));
  EXPECT_TRUE(parsed.cfg.icollective_ops);
  EXPECT_EQ(fz::describe(p), fz::describe(parsed.materialize()));
}

TEST(FuzzSeedfile, ContainerFlagSurvivesRoundTrip) {
  fz::GenConfig cfg = small_config();
  cfg.container_ops = true;
  const fz::Program p = fz::generate(8, cfg);
  const fz::SeedSpec parsed = fz::parse_seed(
      fz::format_seed(fz::to_seed_spec(p, cfg, /*faults_disabled=*/false)));
  EXPECT_TRUE(parsed.cfg.container_ops);
  EXPECT_EQ(fz::describe(p), fz::describe(parsed.materialize()));
}

TEST(FuzzFilter, ClosureRestoresCreatingSplitOfKeptEvents) {
  // Find a seed whose program splits the world, then drop only the split
  // event while keeping events on the child comm: the dependency closure
  // must pull the creating split back in so the candidate stays valid.
  // Conversely, dropping the split AND every child-comm event must leave a
  // program that never touches a subcomm.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const fz::Program p = fz::generate(seed, small_config());
    std::uint32_t split_event = 0;
    bool has_split = false;
    bool has_child_op = false;  // non-split op on a subcomm
    for (const auto& rank_ops : p.ops) {
      for (const fz::Op& op : rank_ops) {
        if (op.kind == fz::OpKind::kSplit) {
          split_event = op.event;
          has_split = true;
        } else if (op.comm != 0) {
          has_child_op = true;
        }
      }
    }
    if (!has_split || !has_child_op) continue;

    std::vector<std::uint32_t> all_but_split;
    for (std::uint32_t e = 0; e < p.num_events; ++e) {
      if (e != split_event) all_but_split.push_back(e);
    }
    const fz::Program f = fz::filter_events(p, all_but_split);
    EXPECT_TRUE(std::find(f.kept_events.begin(), f.kept_events.end(),
                          split_event) != f.kept_events.end())
        << "closure did not restore the creating split";

    // Drop the split and its dependents: keep only world-comm events.
    std::set<std::uint32_t> child_events{split_event};
    for (const auto& rank_ops : p.ops) {
      for (const fz::Op& op : rank_ops) {
        if (op.comm != 0) child_events.insert(op.event);
      }
    }
    std::vector<std::uint32_t> world_only;
    for (std::uint32_t e = 0; e < p.num_events; ++e) {
      if (!child_events.count(e)) world_only.push_back(e);
    }
    const fz::Program w = fz::filter_events(p, world_only);
    for (const auto& rank_ops : w.ops) {
      for (const fz::Op& op : rank_ops) {
        EXPECT_EQ(op.comm, 0);
        EXPECT_NE(op.kind, fz::OpKind::kSplit);
      }
    }
    return;  // one splitting program is enough
  }
  GTEST_FAIL() << "no seed in [1,50] produced subcomm traffic";
}

TEST(FuzzFilter, FilteredProgramStillChecksClean) {
  const fz::Program p = fz::generate(11, small_config());
  // Keep roughly every other event.
  std::vector<std::uint32_t> keep;
  for (std::uint32_t e = 0; e < p.num_events; e += 2) keep.push_back(e);
  const fz::Program f = fz::filter_events(p, keep);
  const fz::CheckResult r = fz::check(f, fz::execute(f));
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(FuzzShrink, SyntheticPredicateReachesMinimalClosure) {
  // Predicate: "fails" iff a chosen target event is present.  ddmin must
  // reduce to exactly that event plus its communicator dependency closure
  // (the creating split, if the event lives on a subcomm).
  const fz::Program full = fz::generate(23, small_config());
  ASSERT_GT(full.num_events, 4u);
  const std::uint32_t target = full.num_events / 2;
  const auto has_target = [target](const fz::Program& c) {
    return std::find(c.kept_events.begin(), c.kept_events.end(), target) !=
               c.kept_events.end() ||
           c.kept_events.empty();  // unshrunk = everything present
  };
  const fz::ShrinkResult res = fz::shrink(full, has_target);
  EXPECT_TRUE(has_target(res.program));
  // 1-minimality: target plus at most its chain of creating splits.
  EXPECT_LE(res.program.kept_events.size(), 3u)
      << "kept more than the dependency closure";
  EXPECT_GT(res.evaluations, 0);
}

TEST(FuzzSeedfile, RoundTripReproducesProgram) {
  fz::GenConfig cfg = small_config();
  cfg.fault_spec = "auto";
  const fz::Program p = fz::generate(77, cfg);

  const fz::SeedSpec spec = fz::to_seed_spec(p, cfg, /*faults_disabled=*/false);
  const fz::SeedSpec parsed = fz::parse_seed(fz::format_seed(spec));
  const fz::Program q = parsed.materialize();

  EXPECT_EQ(fz::describe(p), fz::describe(q));
  EXPECT_EQ(p.fault_seed, q.fault_seed);
  EXPECT_EQ(p.fault_spec, q.fault_spec);
}

TEST(FuzzSeedfile, RoundTripPreservesShrunkSubsetAndDroppedFaults) {
  fz::GenConfig cfg = small_config();
  cfg.fault_spec = "auto";
  const fz::Program p = fz::generate(31, cfg);
  std::vector<std::uint32_t> keep;
  for (std::uint32_t e = 0; e < p.num_events; e += 3) keep.push_back(e);
  const fz::Program f = fz::filter_events(p, keep);

  const fz::SeedSpec spec = fz::to_seed_spec(f, cfg, /*faults_disabled=*/true);
  const fz::SeedSpec parsed = fz::parse_seed(fz::format_seed(spec));
  EXPECT_TRUE(parsed.faults_disabled);
  const fz::Program q = parsed.materialize();

  // materialize() strips the fault plan (faults_disabled); the ops must
  // match the filtered program exactly.
  fz::Program f_nofaults = f;
  f_nofaults.options.faults = dipdc::minimpi::FaultOptions{};
  f_nofaults.fault_spec.clear();
  EXPECT_EQ(fz::describe(f_nofaults), fz::describe(q));
  EXPECT_TRUE(q.fault_spec.empty());
  EXPECT_EQ(q.options.faults.drop_prob, 0.0);
}

TEST(FuzzSeedfile, FaultFreeConfigSurvivesRoundTrip) {
  // format_seed must write the fault_spec line even when it is empty:
  // parse_seed starts from GenConfig's default ("auto"), and omitting the
  // line would silently turn a fault-free repro into a faulty one.
  fz::GenConfig cfg = small_config();
  ASSERT_TRUE(cfg.fault_spec.empty());
  const fz::Program p = fz::generate(3, cfg);
  const fz::SeedSpec parsed = fz::parse_seed(
      fz::format_seed(fz::to_seed_spec(p, cfg, /*faults_disabled=*/false)));
  EXPECT_TRUE(parsed.cfg.fault_spec.empty());
  EXPECT_EQ(fz::describe(p), fz::describe(parsed.materialize()));
}

TEST(FuzzSeedfile, MalformedInputThrows) {
  EXPECT_THROW((void)fz::parse_seed("seed=notanumber\n"),
               dipdc::support::Error);
  EXPECT_THROW((void)fz::parse_seed("no_equals_sign\n"),
               dipdc::support::Error);
  EXPECT_THROW((void)fz::parse_seed("unknown_key=1\n"),
               dipdc::support::Error);
}

TEST(FuzzProgram, ToCppMentionsEveryRankAndOptions) {
  fz::GenConfig cfg = small_config();
  cfg.fault_spec = "auto";
  const fz::Program p = fz::generate(5, cfg);
  const std::string cpp = fz::to_cpp(p);
  EXPECT_NE(cpp.find("int main"), std::string::npos);
  EXPECT_NE(cpp.find("minimpi::run"), std::string::npos);
  EXPECT_NE(cpp.find("eager_threshold"), std::string::npos);
  for (int r = 0; r < p.nranks; ++r) {
    EXPECT_NE(cpp.find("case " + std::to_string(r) + ":"), std::string::npos)
        << "rank " << r << " missing from emitted repro";
  }
}

TEST(FuzzProgram, RacyIrecvWindowDetection) {
  // The digest drops simulated clocks for programs where a posted irecv
  // overlaps other receive-side communication on the same rank: the link
  // accounting for the posted receive happens at sender-timed delivery,
  // so the clock depends on the real schedule.
  auto make = [](std::initializer_list<fz::OpKind> kinds) {
    fz::Program p;
    p.nranks = 1;
    p.ops.resize(1);
    int next_req = 0;
    for (const fz::OpKind k : kinds) {
      fz::Op op;
      op.kind = k;
      if (k == fz::OpKind::kIrecv || k == fz::OpKind::kIreduce) {
        op.req = next_req++;
      }
      if (k == fz::OpKind::kWait) op.req = --next_req;
      p.ops[0].push_back(op);
    }
    return p;
  };
  using K = fz::OpKind;
  // Stable: the lone posted receive overlaps only local / sender-side ops.
  EXPECT_FALSE(make({K::kIrecv, K::kWait}).has_racy_irecv_window());
  EXPECT_FALSE(make({K::kIrecv, K::kSend, K::kSimCompute, K::kWait})
                   .has_racy_irecv_window());
  EXPECT_FALSE(make({K::kIrecv, K::kContainerSetWeight, K::kWait})
                   .has_racy_irecv_window());
  // send_reliable's ack bypasses the ingress link, so it is a send here.
  EXPECT_FALSE(make({K::kIrecv, K::kSendReliable, K::kWait})
                   .has_racy_irecv_window());
  EXPECT_FALSE(make({K::kRecv, K::kBarrier}).has_racy_irecv_window());
  // Racy: a blocking receive, collective, or repartition inside the
  // window, or two receives posted at once.
  EXPECT_TRUE(make({K::kIrecv, K::kRecv, K::kWait}).has_racy_irecv_window());
  EXPECT_TRUE(
      make({K::kIrecv, K::kBarrier, K::kWait}).has_racy_irecv_window());
  EXPECT_TRUE(make({K::kIrecv, K::kContainerRepartition, K::kWait})
                  .has_racy_irecv_window());
  EXPECT_TRUE(make({K::kIrecv, K::kIrecv, K::kWait, K::kWait})
                  .has_racy_irecv_window());
  // An in-flight icollective counts as one posted receive.
  EXPECT_FALSE(make({K::kIreduce, K::kSend, K::kWait, K::kRecv})
                   .has_racy_irecv_window());
  EXPECT_TRUE(
      make({K::kIreduce, K::kRecv, K::kWait}).has_racy_irecv_window());
  EXPECT_TRUE(make({K::kIreduce, K::kIrecv, K::kWait, K::kWait})
                  .has_racy_irecv_window());
}

TEST(FuzzDigest, StableAcrossRunsForFaultFreePrograms) {
  // Fault-free programs (even with any-source windows) must digest
  // identically across independent executions — the corpus test relies
  // on this for bit-identical replay checks.
  for (std::uint64_t seed : {2ull, 13ull, 29ull}) {
    const fz::Program p = fz::generate(seed, small_config());
    const fz::Expectation e = fz::oracle(p);
    const std::string d1 = fz::digest(p, e, fz::execute(p));
    const std::string d2 = fz::digest(p, e, fz::execute(p));
    EXPECT_EQ(d1, d2) << "seed " << seed;
  }
}
