// mpifuzz program model: a random-but-valid multi-rank communication
// program, represented as per-rank op lists tagged with globally ordered
// event ids (a rank-indexed op DAG).
//
// An *event* is the atomic unit of generation and shrinking: one message
// (its send, its receive, and any deferred wait), one wildcard window, one
// collective invocation across all members, one split, or one local clock
// advance.  Events carry a global total order, and every rank's op list is
// (except for deliberately deferred waits) the restriction of that order to
// the ops the rank participates in.  Executing events in ascending order on
// a single thread is therefore a valid schedule of the whole program, which
// is the deadlock-freedom argument for generated programs and the schedule
// the sequential oracle interprets.
//
// Shrinking removes whole events (an op never survives its event) subject
// to the dependency closure over communicators: a kept event that operates
// on a split-created communicator pulls the (transitive) chain of split
// events that created it back into the kept set, so every shrink candidate
// is a valid program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/options.hpp"
#include "minimpi/types.hpp"

namespace dipdc::fuzz {

enum class OpKind : std::uint8_t {
  // Point-to-point.
  kSend,
  kIsend,
  kSendReliable,
  kRecv,
  kIrecv,
  kProbeRecv,  // probe(src, tag) + recv of exactly the probed message
  kRecvReliable,
  kWait,     // completes request slot `req`
  kWaitAll,  // completes slots [req, req + nreq)
  kSendrecv,
  // Collectives (all members of the comm carry the op).
  kBarrier,
  kBcast,
  kScatter,
  kScatterv,
  kGather,
  kGatherv,
  kAllgather,
  kAllgatherv,
  kReduce,
  kAllreduce,
  kScan,
  kAlltoall,
  kAlltoallv,
  // Structure / local.
  kSplit,
  kSimCompute,
  kSimAdvance,
  // Elastic container (src/container) driven as first-class ops.  Create is
  // the zero-communication from_local() constructor, set_weight is a local
  // weight update (carried by every member; the owner applies it), and
  // repartition is the weight-driven collective transition: one allgather
  // plus one allreduce, plus two alltoallv exchanges when the cuts change.
  kContainerCreate,
  kContainerSetWeight,
  kContainerRepartition,
  // Nonblocking collectives: the issue op allocates a request slot on
  // every member (the whole group falls back to a blocking collective when
  // any member is out of slots) and the shared event id ties the deferred
  // per-member kWait ops back to it, exactly like isend/irecv.  The result
  // observation is emitted at wait time.
  kIbcast,
  kIreduce,
  kIallreduce,
  kIallgatherv,
};

[[nodiscard]] const char* op_kind_name(OpKind k);

enum class ReduceKind : std::uint8_t { kSum, kMin, kMax, kXor };

/// One operation of one rank.  A flat record rather than a variant: only
/// the fields relevant to `kind` are meaningful, which keeps generation,
/// interpretation, and C++ emission straightforward.
struct Op {
  OpKind kind = OpKind::kBarrier;
  std::uint32_t event = 0;  // owning event id (shrink granularity)
  int comm = 0;             // communicator id (0 = world)

  // Point-to-point.  Peers are ranks *within* `comm`; recv ops may use
  // minimpi::kAnySource / kAnyTag.
  int peer = 0;             // dest for sends, source filter for recvs
  int tag = 0;              // send tag, or recv tag filter
  std::uint32_t bytes = 0;  // payload bytes (send) / expected bytes (recv)
  std::uint64_t msg = 0;    // content id: keys the payload byte stream
  int req = -1;             // request slot for isend/irecv/wait
  int nreq = 0;             // kWaitAll: number of consecutive slots
  // Expected receive metadata the oracle needs: the true source comm rank
  // and tag of the message this recv matches (recv ops only).
  int expect_source = 0;
  int expect_tag = 0;
  // kSendrecv second (receive) leg.
  int peer2 = 0;
  int tag2 = 0;
  std::uint32_t bytes2 = 0;
  std::uint64_t msg2 = 0;  // content id of the message this leg receives

  // Any-source window group (stored on each window recv op): candidate
  // sources (comm ranks) and their message content ids.  The executor's
  // k receives may match these in any order; the checker resolves the
  // multiset by source.
  std::vector<int> wsources;
  std::vector<std::uint64_t> wmsgs;

  // Collectives.
  std::uint32_t elems = 0;  // elements contributed per member (equal-size)
  int elem_size = 8;        // 1 or 8 (reductions always 8: std::uint64_t)
  int root = 0;             // comm rank
  ReduceKind rop = ReduceKind::kSum;
  std::vector<std::uint32_t> counts;   // v-variants: per-member counts
  std::vector<std::uint32_t> counts2;  // alltoallv: this rank's recv counts

  // kSplit.  Container ops reuse `color` as the container id, `elems` as
  // the global element count (create), `msg` as the global element index
  // and `amount` as the new weight (set_weight).
  int color = 0;
  int key = 0;
  int result_comm = 0;  // fuzzer-level id of the comm this rank ends up in

  // kSimCompute (flops = mem_bytes = amount) / kSimAdvance (seconds).
  double amount = 0.0;
};

/// Communicator metadata, replayed from split events at generation time.
struct CommInfo {
  int id = 0;
  int parent = -1;                 // -1 for the world comm
  std::uint32_t created_by = 0;    // split event id (0 == world, no creator)
  std::vector<int> members;        // comm rank -> world rank
};

struct Program {
  int nranks = 2;
  std::uint64_t seed = 1;        // generator seed; also keys all content
  std::uint64_t fault_seed = 1;  // forwarded to FaultOptions::seed
  std::string fault_spec;        // human-readable plan ("" = fault-free)
  minimpi::RuntimeOptions options;  // derived from seed by the generator

  std::vector<CommInfo> comms;        // comms[0] is always the world
  std::vector<std::vector<Op>> ops;   // per world rank, program order
  std::uint32_t num_events = 0;       // event ids are [0, num_events)
  /// Events surviving shrinking, ascending; empty means "all events" (the
  /// unshrunk program).  Replay = regenerate from seed, then filter.
  std::vector<std::uint32_t> kept_events;

  [[nodiscard]] std::size_t op_count() const;
  [[nodiscard]] bool has_any_source_window() const;
  /// True when some rank runs receive-side communication while an irecv or
  /// an icollective is in flight (or has two in flight at once).  The
  /// simulated ingress-link accounting for a posted receive happens at
  /// sender-timed delivery, so such programs have schedule-dependent
  /// simulated clocks; the checker leaves their clocks out of the outcome
  /// digest, like any-source windows.
  [[nodiscard]] bool has_racy_irecv_window() const;
  [[nodiscard]] const CommInfo& comm_info(int id) const;
};

/// Keeps only `keep` (event ids): ops of removed events disappear from
/// every rank.  Applies the communicator dependency closure first — a kept
/// event using a split-created comm re-adds the (transitive) chain of
/// creating split events — and records the final set in kept_events.
[[nodiscard]] Program filter_events(const Program& full,
                                    const std::vector<std::uint32_t>& keep);

/// Drops trailing ranks that own no ops (shrinker helper).  Never trims a
/// rank the fault plan kills, and never below one rank.
[[nodiscard]] Program trim_trailing_ranks(const Program& p);

/// One line per op, grouped by rank — the failure-report listing.
[[nodiscard]] std::string describe(const Program& p);

/// Emits a standalone C++ repro (a main() that rebuilds the op sequence
/// against the public minimpi API, using fuzz/content.hpp for payloads).
[[nodiscard]] std::string to_cpp(const Program& p);

}  // namespace dipdc::fuzz
