// Fundamental types of the minimpi message-passing runtime.
//
// minimpi is a from-scratch, thread-backed implementation of the MPI subset
// used by the paper's pedagogic modules (Table II): blocking and
// non-blocking point-to-point communication with tag/source matching
// (including ANY_SOURCE / ANY_TAG and Probe/Get_count), and the collectives
// Barrier, Bcast, Scatter(v), Gather(v), Allgather(v), Reduce, Allreduce,
// Alltoall(v) and Scan.  Every rank runs as one std::thread in the same
// process; messages move between per-rank mailboxes under MPI matching
// semantics (non-overtaking per (source, destination) pair).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dipdc::minimpi {

/// Wildcard source for receive/probe operations (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receive/probe operations (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

/// Result of a receive or probe: who sent, with what tag, how many bytes.
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;

  /// Number of elements of type T in the message (MPI_Get_count).
  template <typename T>
  [[nodiscard]] std::size_t count() const {
    return bytes / sizeof(T);
  }
};

/// User-visible primitives, instrumented per rank.  The enumeration mirrors
/// the rows of the paper's Table II plus the remaining collectives we
/// implement.  Collective-internal point-to-point traffic is *not* counted
/// as Send/Recv: the counters reflect what the module author called.
enum class Primitive : std::size_t {
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWait,
  kSendrecv,
  kProbe,
  kBarrier,
  kBcast,
  kScatter,
  kScatterv,
  kGather,
  kGatherv,
  kAllgather,
  kReduce,
  kAllreduce,
  kAlltoall,
  kAlltoallv,
  kScan,
  kSendReliable,
  kRecvReliable,
  // Nonblocking collectives (issue side; completion is counted as kWait,
  // exactly like Isend/Irecv).  Appended after the reliable primitives so
  // existing trace op codes stay stable.
  kIbcast,
  kIreduce,
  kIallreduce,
  kIallgatherv,
  kCount,  // sentinel
};

inline constexpr std::size_t kPrimitiveCount =
    static_cast<std::size_t>(Primitive::kCount);

/// Human-readable primitive name ("MPI_Send" style, matching the paper).
std::string_view primitive_name(Primitive p);

/// Concrete algorithm executed for one collective invocation; counted per
/// rank in CommStats::algo_uses so benches/tests can verify which code path
/// ran at a given size.  Composite collectives also count their building
/// blocks (e.g. a reduce+bcast allreduce bumps kReduceBinomial and
/// kBcastBinomial too).
enum class CollectiveAlgo : std::size_t {
  kBarrierDissemination,
  kBcastBinomial,
  /// Flat fan-out from the root: the nonblocking broadcast (collectives.cpp
  /// records why it does not use the binomial tree).
  kBcastLinear,
  kScatterLinear,
  kScatterBinomial,
  kScattervLinear,
  kScattervBinomial,
  kGatherLinear,
  kGatherBinomial,
  kGathervLinear,
  kGathervBinomial,
  kAllgatherGatherBcast,
  kAllgatherRing,
  kReduceBinomial,
  kAllreduceReduceBcast,
  kAllreduceRecursiveDoubling,
  kAllreduceRabenseifner,
  kAlltoallPairwise,
  kAlltoallvPairwise,
  kScanLinear,
  kCount,  // sentinel
};

inline constexpr std::size_t kCollectiveAlgoCount =
    static_cast<std::size_t>(CollectiveAlgo::kCount);

/// Human-readable algorithm name ("bcast/binomial" style).
std::string_view collective_algo_name(CollectiveAlgo a);

}  // namespace dipdc::minimpi
