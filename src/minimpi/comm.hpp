// The per-rank communicator: the public face of minimpi.
//
// The typed template methods in this header are thin wrappers over the
// byte-level operations implemented in comm.cpp / collectives.cpp.  All
// message types must be trivially copyable (they travel as raw bytes, as
// with MPI datatypes over contiguous buffers).
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "minimpi/detail.hpp"
#include "minimpi/error.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/stats.hpp"
#include "minimpi/types.hpp"

namespace dipdc::minimpi {

template <typename T>
concept Trivial = std::is_trivially_copyable_v<T>;

/// Handle to a pending non-blocking operation: a p2p isend/irecv, or a
/// nonblocking collective (ibcast/ireduce/iallreduce/iallgatherv).
/// Complete it with Comm::wait()/test()/wait_all()/wait_any().  Destroying
/// an incomplete p2p Request is allowed (the transfer still happens, like a
/// forgotten MPI request leak); destroying an incomplete collective Request
/// abandons its remaining steps (its peers may then never complete) and
/// retracts its posted receive.  Collective requests must be completed on
/// the communicator that issued them, which must not be moved meanwhile.
class Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const {
    return state_ != nullptr || coll_ != nullptr;
  }
  /// Receive status; meaningful after wait()/test() returned success.
  [[nodiscard]] const Status& status() const {
    return coll_ != nullptr ? coll_->status : state_->status;
  }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}
  explicit Request(std::shared_ptr<detail::CollectiveState> coll)
      : coll_(std::move(coll)) {}
  /// Whether wait() can advance without blocking: a p2p request is done,
  /// or a collective finished or may resume (runtime lock held; comm.cpp).
  [[nodiscard]] bool can_progress() const;

  std::shared_ptr<detail::RequestState> state_;
  std::shared_ptr<detail::CollectiveState> coll_;
};

class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;

  /// Rank within this communicator.
  [[nodiscard]] int rank() const { return rank_; }
  /// Number of ranks in this communicator.
  [[nodiscard]] int size() const {
    return group_.empty() ? runtime_->nranks()
                          : static_cast<int>(group_.size());
  }
  /// The underlying world rank (stable across split()).
  [[nodiscard]] int world_rank() const { return world_rank_; }

  /// World ranks of this communicator's members, in comm-rank order.
  [[nodiscard]] std::vector<int> world_group() const {
    if (!group_.empty()) return group_;
    std::vector<int> g(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) g[static_cast<std::size_t>(r)] = r;
    return g;
  }

  /// Simulated wall-clock (seconds since the world started), analogous to
  /// MPI_Wtime under the configured machine model.  Shared across all
  /// communicators of this rank.
  [[nodiscard]] double wtime() const { return state().clock; }

  /// Advances this rank's simulated clock through the machine model's
  /// roofline cost for a kernel of `flops` operations touching `mem_bytes`
  /// bytes of DRAM traffic.
  void sim_compute(double flops, double mem_bytes);

  /// Advances this rank's simulated clock by a fixed duration, accounted
  /// as idle/waiting time (CommStats::sim_idle_seconds), not kernel work.
  void sim_advance(double seconds);

  [[nodiscard]] const CommStats& stats() const { return state().stats; }
  [[nodiscard]] const perfmodel::CostModel& cost_model() const {
    return runtime_->cost();
  }

  // ---- Phase spans ---------------------------------------------------------
  // Named spans bracketing a module's algorithmic phases ("assign",
  // "update", "exchange", ...).  They envelope the operations performed
  // inside them in exported traces and drive the per-phase timers in the
  // metrics registry.  No-ops unless RuntimeOptions::record_trace; `name`
  // must reference static storage (pass a string literal).

  void phase_begin(std::string_view name);
  /// Closes the innermost open phase (no-op when none is open).
  void phase_end();

  /// RAII phase span: `minimpi::Phase p(comm, "assign");`
  class Phase {
   public:
    Phase(Comm& comm, std::string_view name) : comm_(&comm) {
      comm_->phase_begin(name);
    }
    ~Phase() {
      if (comm_ != nullptr) comm_->phase_end();
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Comm* comm_;
  };

  // ---- Point-to-point ----------------------------------------------------

  template <Trivial T>
  void send(std::span<const T> data, int dest, int tag = 0) {
    count_call(Primitive::kSend);
    const TraceStart t0 = trace_begin();
    send_bytes(as_bytes(data), dest, tag, /*internal=*/false);
    trace_end(Primitive::kSend, dest, tag, data.size_bytes(), t0);
  }

  template <Trivial T>
  void send_value(const T& value, int dest, int tag = 0) {
    send(std::span<const T>(&value, 1), dest, tag);
  }

  /// Receives into `data`; the message may be shorter than the buffer (the
  /// status reports the actual size) but must not be longer.
  template <Trivial T>
  Status recv(std::span<T> data, int source = kAnySource, int tag = kAnyTag) {
    count_call(Primitive::kRecv);
    const TraceStart t0 = trace_begin();
    const Status st = recv_bytes(as_writable_bytes(data), source, tag,
                                 /*internal=*/false);
    trace_end(Primitive::kRecv, st.source, st.tag, st.bytes, t0);
    return st;
  }

  template <Trivial T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    const Status st = recv(std::span<T>(&value, 1), source, tag);
    if (st.bytes != sizeof(T)) {
      throw MpiError("recv_value: message size does not match value type");
    }
    return value;
  }

  /// Probes for the next matching message and receives exactly it,
  /// whatever its length (the MPI_Probe + MPI_Get_count + MPI_Recv idiom
  /// Module 3 teaches).
  template <Trivial T>
  std::vector<T> recv_vector(int source = kAnySource, int tag = kAnyTag) {
    const Status st = probe(source, tag);
    std::vector<T> data(st.count<T>());
    recv(std::span<T>(data), st.source, st.tag);
    return data;
  }

  template <Trivial T>
  Request isend(std::span<const T> data, int dest, int tag = 0) {
    count_call(Primitive::kIsend);
    const TraceStart t0 = trace_begin();
    Request req = isend_bytes(as_bytes(data), dest, tag, /*internal=*/false);
    trace_end(Primitive::kIsend, dest, tag, data.size_bytes(), t0);
    return req;
  }

  template <Trivial T>
  Request isend_value(const T& value, int dest, int tag = 0) {
    return isend(std::span<const T>(&value, 1), dest, tag);
  }

  /// Posts a non-blocking receive; `data` must stay alive until completion.
  template <Trivial T>
  Request irecv(std::span<T> data, int source = kAnySource,
                int tag = kAnyTag) {
    count_call(Primitive::kIrecv);
    const TraceStart t0 = trace_begin();
    Request req = irecv_bytes(as_writable_bytes(data), source, tag,
                              /*internal=*/false);
    trace_end(Primitive::kIrecv, source, tag, data.size_bytes(), t0);
    return req;
  }

  /// Blocks until the request completes; returns the receive status.
  Status wait(Request& request);
  /// Blocks until at least one request completes; returns its index and
  /// fills `status` for receives (MPI_Waitany).
  std::size_t wait_any(std::span<Request> requests,
                       Status* status = nullptr);
  /// Non-blocking completion check; fills `status` when true.
  bool test(Request& request, Status* status = nullptr);
  void wait_all(std::span<Request> requests);

  /// Blocks until a matching message is available; the message is left in
  /// place for a subsequent recv.
  Status probe(int source = kAnySource, int tag = kAnyTag);
  /// Non-blocking probe.
  std::optional<Status> iprobe(int source = kAnySource, int tag = kAnyTag);

  // ---- Reliable delivery -------------------------------------------------
  // Acknowledged sends that survive injected message loss: each frame
  // carries a sequence number, the receiver acknowledges it over the
  // lossless control channel, and the sender retransmits when the
  // acknowledgement provably cannot arrive (deterministic timeout).  Both
  // ends must use the reliable variants; duplicates (retransmissions and
  // injected dups) are filtered by sequence number, so delivery is
  // exactly-once per frame.  Requires RuntimeOptions::detect_deadlock.

  /// Acknowledged send; retries up to ReliableOptions::max_retries times.
  /// Throws MpiError when the retry budget is exhausted without an ack.
  template <Trivial T>
  void send_reliable(std::span<const T> data, int dest, int tag = 0) {
    count_call(Primitive::kSendReliable);
    const TraceStart t0 = trace_begin();
    send_reliable_bytes(as_bytes(data), dest, tag);
    trace_end(Primitive::kSendReliable, dest, tag, data.size_bytes(), t0);
  }

  template <Trivial T>
  void send_reliable_value(const T& value, int dest, int tag = 0) {
    send_reliable(std::span<const T>(&value, 1), dest, tag);
  }

  /// Receives one frame sent with send_reliable and acknowledges it.
  template <Trivial T>
  Status recv_reliable(std::span<T> data, int source = kAnySource,
                       int tag = kAnyTag) {
    count_call(Primitive::kRecvReliable);
    const TraceStart t0 = trace_begin();
    const Status st = recv_reliable_bytes(as_writable_bytes(data), source, tag);
    trace_end(Primitive::kRecvReliable, st.source, st.tag, st.bytes, t0);
    return st;
  }

  template <Trivial T>
  T recv_reliable_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    const Status st = recv_reliable(std::span<T>(&value, 1), source, tag);
    if (st.bytes != sizeof(T)) {
      throw MpiError(
          "recv_reliable_value: message size does not match value type");
    }
    return value;
  }

  /// Combined send+receive that is deadlock-safe (internally isend+recv),
  /// as MPI_Sendrecv is.
  template <Trivial T>
  Status sendrecv(std::span<const T> send_data, int dest, int send_tag,
                  std::span<T> recv_data, int source = kAnySource,
                  int recv_tag = kAnyTag) {
    count_call(Primitive::kSendrecv);
    const TraceStart t0 = trace_begin();
    Request sreq = isend_bytes(as_bytes(send_data), dest, send_tag,
                               /*internal=*/false);
    const Status st = recv_bytes(as_writable_bytes(recv_data), source,
                                 recv_tag, /*internal=*/false);
    wait_nocount(sreq);
    trace_end(Primitive::kSendrecv, dest, send_tag,
              send_data.size_bytes() + st.bytes, t0);
    return st;
  }

  // ---- Collectives ---------------------------------------------------------
  // All ranks must call the same collective in the same order; collective
  // payloads are matched by an internal per-communicator sequence number,
  // never by user tags.

  void barrier();

  /// Splits this communicator (MPI_Comm_split): ranks passing the same
  /// non-negative `color` form a new communicator, ordered by (key, rank).
  /// Collective over this communicator.
  [[nodiscard]] Comm split(int color, int key = 0);

  // ---- Shrink-on-failure ---------------------------------------------------

  /// World rank killed by fault injection, or -1.  A rank catching
  /// RankFailedError uses this to tell "a peer died" (recover) from
  /// "I am the dead rank" (rethrow).
  [[nodiscard]] int failed_rank() const { return runtime_->failed_rank(); }

  /// ULFM-style shrink: after catching a RankFailedError caused by a
  /// fault-injection kill, every surviving rank calls shrink() once and
  /// receives a fresh communicator over exactly the survivors (ordered by
  /// world rank).  The agreement barrier purges all pre-failure traffic
  /// and clears the global abort, so the survivors can keep communicating;
  /// pre-failure Requests and in-flight messages are invalidated.  The
  /// dead rank must rethrow instead of calling this.
  [[nodiscard]] Comm shrink();

  template <Trivial T>
  void bcast(std::span<T> data, int root) {
    count_call(Primitive::kBcast);
    const TraceStart t0 = trace_begin();
    bcast_bytes(as_writable_bytes(data), root);
    trace_end(Primitive::kBcast, root, 0, data.size_bytes(), t0);
  }

  template <Trivial T>
  T bcast_value(T value, int root) {
    bcast(std::span<T>(&value, 1), root);
    return value;
  }

  /// Root's `send_data` (size() * chunk elements) is split into equal
  /// chunks, one per rank, received in `recv_data` (chunk elements).
  template <Trivial T>
  void scatter(std::span<const T> send_data, std::span<T> recv_data,
               int root) {
    count_call(Primitive::kScatter);
    const TraceStart t0 = trace_begin();
    scatter_bytes(as_bytes(send_data), as_writable_bytes(recv_data), root);
    trace_end(Primitive::kScatter, root, 0, recv_data.size_bytes(), t0);
  }

  /// Variable-size scatter: rank i receives send_counts[i] elements
  /// starting at displacement displs[i] of root's buffer.
  template <Trivial T>
  void scatterv(std::span<const T> send_data,
                std::span<const std::size_t> send_counts,
                std::span<const std::size_t> displs, std::span<T> recv_data,
                int root) {
    count_call(Primitive::kScatterv);
    const TraceStart t0 = trace_begin();
    scatterv_bytes(as_bytes(send_data), send_counts, displs,
                   as_writable_bytes(recv_data), sizeof(T), root);
    trace_end(Primitive::kScatterv, root, 0, recv_data.size_bytes(), t0);
  }

  template <Trivial T>
  void gather(std::span<const T> send_data, std::span<T> recv_data,
              int root) {
    count_call(Primitive::kGather);
    const TraceStart t0 = trace_begin();
    gather_bytes(as_bytes(send_data), as_writable_bytes(recv_data), root);
    trace_end(Primitive::kGather, root, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T>
  void gatherv(std::span<const T> send_data,
               std::span<const std::size_t> recv_counts,
               std::span<const std::size_t> displs, std::span<T> recv_data,
               int root) {
    count_call(Primitive::kGatherv);
    const TraceStart t0 = trace_begin();
    gatherv_bytes(as_bytes(send_data), recv_counts, displs,
                  as_writable_bytes(recv_data), sizeof(T), root);
    trace_end(Primitive::kGatherv, root, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T>
  void allgather(std::span<const T> send_data, std::span<T> recv_data) {
    count_call(Primitive::kAllgather);
    const TraceStart t0 = trace_begin();
    allgather_bytes(as_bytes(send_data), as_writable_bytes(recv_data));
    trace_end(Primitive::kAllgather, -1, 0, recv_data.size_bytes(), t0);
  }

  /// Variable-size allgather: rank i contributes recv_counts[i] elements,
  /// gathered at displs[i]; everyone receives everything.
  template <Trivial T>
  void allgatherv(std::span<const T> send_data,
                  std::span<const std::size_t> recv_counts,
                  std::span<const std::size_t> displs,
                  std::span<T> recv_data) {
    count_call(Primitive::kAllgather);
    const TraceStart t0 = trace_begin();
    Request req = iallgatherv_bytes(as_bytes(send_data), recv_counts, displs,
                                    as_writable_bytes(recv_data), sizeof(T));
    wait_nocount(req);
    trace_end(Primitive::kAllgather, -1, 0, recv_data.size_bytes(), t0);
  }

  template <Trivial T, typename Op>
  void reduce(std::span<const T> send_data, std::span<T> recv_data, Op op,
              int root) {
    count_call(Primitive::kReduce);
    const TraceStart t0 = trace_begin();
    Request req = ireduce_bytes(as_bytes(send_data),
                                root == rank_ ? as_writable_bytes(recv_data)
                                              : std::span<std::byte>{},
                                sizeof(T), make_reduce_fn<T>(op), root);
    wait_nocount(req);
    trace_end(Primitive::kReduce, root, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T, typename Op>
  void allreduce(std::span<const T> send_data, std::span<T> recv_data,
                 Op op) {
    count_call(Primitive::kAllreduce);
    const TraceStart t0 = trace_begin();
    Request req =
        iallreduce_bytes(as_bytes(send_data), as_writable_bytes(recv_data),
                         sizeof(T), make_reduce_fn<T>(op));
    wait_nocount(req);
    trace_end(Primitive::kAllreduce, -1, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T, typename Op>
  T allreduce_value(const T& value, Op op) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Inclusive prefix reduction over ranks (MPI_Scan).
  template <Trivial T, typename Op>
  void scan(std::span<const T> send_data, std::span<T> recv_data, Op op) {
    count_call(Primitive::kScan);
    const TraceStart t0 = trace_begin();
    scan_bytes(as_bytes(send_data), as_writable_bytes(recv_data), sizeof(T),
               make_reduce_fn<T>(op));
    trace_end(Primitive::kScan, -1, 0, send_data.size_bytes(), t0);
  }

  /// Equal-size all-to-all: rank i's chunk j goes to rank j's chunk i.
  template <Trivial T>
  void alltoall(std::span<const T> send_data, std::span<T> recv_data) {
    count_call(Primitive::kAlltoall);
    const TraceStart t0 = trace_begin();
    alltoall_bytes(as_bytes(send_data), as_writable_bytes(recv_data));
    trace_end(Primitive::kAlltoall, -1, 0, send_data.size_bytes(), t0);
  }

  /// Variable-size all-to-all (MPI_Alltoallv); counts/displs in elements.
  template <Trivial T>
  void alltoallv(std::span<const T> send_data,
                 std::span<const std::size_t> send_counts,
                 std::span<const std::size_t> send_displs,
                 std::span<T> recv_data,
                 std::span<const std::size_t> recv_counts,
                 std::span<const std::size_t> recv_displs) {
    count_call(Primitive::kAlltoallv);
    const TraceStart t0 = trace_begin();
    alltoallv_bytes(as_bytes(send_data), send_counts, send_displs,
                    as_writable_bytes(recv_data), recv_counts, recv_displs,
                    sizeof(T));
    trace_end(Primitive::kAlltoallv, -1, 0, send_data.size_bytes(), t0);
  }

  // ---- Nonblocking collectives ---------------------------------------------
  // Issue returns with a Request that composes with wait()/test()/
  // wait_all()/wait_any(), including mixed sets with p2p requests.  All
  // ranks must issue the same collectives in the same order on a
  // communicator (interleaved freely with blocking collectives); send and
  // receive buffers must stay alive and unmodified until the request
  // completes.  Each icollective runs the same algorithm as its blocking
  // form (blocking X is iX + wait), so results are bit-identical to it.
  // There is no progress thread: issue runs the algorithm up to its first
  // receive, and wait/test/wait_any resume it in program order.  As MPI
  // requires, every member must complete the collective.  The progress
  // rule is stricter than MPI's, because there is no progress engine:
  // only wait/test/wait_any on a request move it, so an interior tree
  // rank forwards nothing while it blocks in a receive or in the wait of
  // another request, and a peer's request may not complete until that
  // rank waits or tests its own.  No member may therefore block on a peer
  // before completing the collective (a cycle ends in DeadlockError).
  // Completing in-flight collectives in issue order on every member is
  // always safe.  ROADMAP item 3 records the progress engine this lacks.

  /// Nonblocking broadcast, flat from the root: the root completes at issue
  /// and every other rank completes as soon as the root's payload arrives,
  /// independent of its peers' waits — posting early and waiting late is
  /// what overlaps the transfer with compute.
  template <Trivial T>
  Request ibcast(std::span<T> data, int root) {
    count_call(Primitive::kIbcast);
    const TraceStart t0 = trace_begin();
    Request req = ibcast_bytes(as_writable_bytes(data), root);
    trace_end(Primitive::kIbcast, root, 0, data.size_bytes(), t0);
    return req;
  }

  /// Nonblocking reduce-to-root (binomial tree, as reduce); `recv_data` is
  /// ignored on non-roots.  Leaves complete at issue; an interior rank
  /// forwards its subtree's partial result only inside its own wait/test.
  template <Trivial T, typename Op>
  Request ireduce(std::span<const T> send_data, std::span<T> recv_data,
                  Op op, int root) {
    count_call(Primitive::kIreduce);
    const TraceStart t0 = trace_begin();
    Request req = ireduce_bytes(as_bytes(send_data),
                                root == rank_ ? as_writable_bytes(recv_data)
                                              : std::span<std::byte>{},
                                sizeof(T), make_reduce_fn<T>(op), root);
    trace_end(Primitive::kIreduce, root, 0, send_data.size_bytes(), t0);
    return req;
  }

  /// Nonblocking allreduce; picks its algorithm exactly as allreduce does.
  template <Trivial T, typename Op>
  Request iallreduce(std::span<const T> send_data, std::span<T> recv_data,
                     Op op) {
    count_call(Primitive::kIallreduce);
    const TraceStart t0 = trace_begin();
    Request req =
        iallreduce_bytes(as_bytes(send_data), as_writable_bytes(recv_data),
                         sizeof(T), make_reduce_fn<T>(op));
    trace_end(Primitive::kIallreduce, -1, 0, send_data.size_bytes(), t0);
    return req;
  }

  /// Nonblocking variable-size allgather (gatherv to rank 0, then bcast):
  /// rank i contributes recv_counts[i] elements, gathered at displs[i] on
  /// every rank.  Every rank receives the result, so every rank's request
  /// completes only after the gather root has waited or tested its own.
  template <Trivial T>
  Request iallgatherv(std::span<const T> send_data,
                      std::span<const std::size_t> recv_counts,
                      std::span<const std::size_t> displs,
                      std::span<T> recv_data) {
    count_call(Primitive::kIallgatherv);
    const TraceStart t0 = trace_begin();
    Request req =
        iallgatherv_bytes(as_bytes(send_data), recv_counts, displs,
                          as_writable_bytes(recv_data), sizeof(T));
    trace_end(Primitive::kIallgatherv, -1, 0, send_data.size_bytes(), t0);
    return req;
  }

 private:
  friend RunResult run(int, const std::function<void(Comm&)>&,
                       RuntimeOptions);

  /// Three-address byte-level reduction: out[i] = op(b[i], a[i]).  `out`
  /// may alias `b` (in-place accumulate); `a` is never written, so adopted
  /// zero-copy payloads can feed reductions directly.
  using ReduceFn =
      std::function<void(const std::byte* a, const std::byte* b,
                         std::byte* out, std::size_t elems,
                         std::size_t elem_size)>;

  /// World communicator for one rank.
  Comm(detail_runtime::Runtime* runtime, int rank)
      : runtime_(runtime), world_rank_(rank), rank_(rank) {}

  /// Split communicator: `group` maps comm ranks to world ranks.
  Comm(detail_runtime::Runtime* runtime, int world_rank, int comm_rank,
       std::vector<int> group, int context)
      : runtime_(runtime),
        world_rank_(world_rank),
        rank_(comm_rank),
        group_(std::move(group)),
        context_(context) {}

  [[nodiscard]] detail::RankState& state() const {
    return runtime_->rank_state(world_rank_);
  }
  /// World rank of communicator rank `peer`.
  [[nodiscard]] int to_world(int peer) const {
    return group_.empty() ? peer
                          : group_[static_cast<std::size_t>(peer)];
  }

  template <Trivial T>
  static std::span<const std::byte> as_bytes(std::span<const T> s) {
    return std::as_bytes(s);
  }
  template <Trivial T>
  static std::span<std::byte> as_writable_bytes(std::span<T> s) {
    return std::as_writable_bytes(s);
  }

  /// Wraps a typed binary operator into the byte-level reduction functor.
  /// Elements are copied in and out with memcpy, so the payload buffers
  /// need no alignment guarantees.
  template <Trivial T, typename Op>
  static ReduceFn make_reduce_fn(Op op) {
    return [op](const std::byte* a, const std::byte* b, std::byte* out,
                std::size_t elems, std::size_t elem_size) {
      for (std::size_t i = 0; i < elems; ++i) {
        T x;
        T y;
        std::memcpy(&x, a + i * elem_size, sizeof(T));
        std::memcpy(&y, b + i * elem_size, sizeof(T));
        const T r = op(y, x);  // out = op(b, a)
        std::memcpy(out + i * elem_size, &r, sizeof(T));
      }
    };
  }

  void count_call(Primitive p) {
    ++state().stats.calls[static_cast<std::size_t>(p)];
    if (runtime_->options().faults.kills()) fault_tick(p);
  }

  /// Timing capture taken at the start of a traced operation: the rank's
  /// simulated clock plus (when RuntimeOptions::trace_wall_time) the real
  /// clock.  Cheap to take even with tracing off — just two reads.
  struct TraceStart {
    double sim = 0.0;
    double wall = 0.0;
  };

  [[nodiscard]] TraceStart trace_begin() const {
    obs::Recorder* rec = runtime_->recorder();
    return {state().clock, rec != nullptr ? rec->wall_now() : 0.0};
  }

  /// Records a user-level operation spanning [t0, now] when tracing is on
  /// (comm.cpp; no-op otherwise).  Consumes the pending message-edge seq
  /// ids stamped by the byte-level transport since t0 was taken.
  void trace_end(Primitive op, int peer, int tag, std::size_t bytes,
                 const TraceStart& t0);

  /// Moves this rank's clock forward by `dt`, or to `t` if that is later,
  /// charging the step as communication time.
  void charge_comm(double dt) {
    state().clock += dt;
    state().stats.sim_comm_seconds += dt;
  }
  void charge_comm_until(double t) {
    detail::RankState& st = state();
    const double completion = std::max(st.clock, t);
    st.stats.sim_comm_seconds += completion - st.clock;
    st.clock = completion;
  }

  // Byte-level transport (comm.cpp).  Every send goes through transmit and
  // every receive through post_recv and finish_recv; `lock` (on the
  // runtime mutex, not yet held) is held when either returns.
  /// Puts one message on the wire: fault draw, envelope, duplicate,
  /// simulated timing, the backend seam, the sender's counters and
  /// Runtime::deliver.  `staged` (collective internals only) is the buffer
  /// `data` views, shared by reference; `lend` lets a blocking rendezvous
  /// send lend `data` itself.  A dropped message comes back as an eager
  /// envelope already marked matched.
  std::shared_ptr<detail::Envelope> transmit(
      std::unique_lock<std::mutex>& lock, std::span<const std::byte> data,
      const detail::StagedBuffer* staged, int dest, int tag, bool internal,
      bool lend, const char* what);
  void send_bytes(std::span<const std::byte> data, int dest, int tag,
                  bool internal);
  Status recv_bytes(std::span<std::byte> data, int source, int tag,
                    bool internal);
  Request isend_bytes(std::span<const std::byte> data, int dest, int tag,
                      bool internal);
  Request irecv_bytes(std::span<std::byte> data, int source, int tag,
                      bool internal);
  Status wait_nocount(Request& request);
  void validate_peer(int peer, const char* what) const;
  void validate_user_tag(int tag, const char* what) const;

  // Reliable-delivery protocol and fault injection (comm.cpp).
  void send_reliable_bytes(std::span<const std::byte> data, int dest, int tag);
  Status recv_reliable_bytes(std::span<std::byte> data, int source, int tag);
  /// Receives an 8-byte acknowledgement header on the control channel, or
  /// gives up when the runtime proves it cannot arrive.  Returns false on
  /// timeout (the simulated clock is charged ReliableOptions::timeout_seconds).
  bool recv_ack_timeout(std::span<std::byte> data, int source, int tag);
  /// Kill-plan hook: throws RankFailedError when this rank reaches the
  /// fault plan's kill_at_call-th primitive call.
  void fault_tick(Primitive p);

  // Zero-copy staging primitives for collective internals (comm.cpp).
  // StagedBuffers ride the normal envelope path — same tags, sizes and
  // simulated costs as plain sends — but the payload travels as a shared
  // pooled buffer that every hop references instead of copying (the tcp
  // seam flattens it into the frame).
  detail::StagedBuffer stage_acquire(std::size_t n);
  detail::StagedBuffer stage_copy(std::span<const std::byte> src);
  void send_staged(const detail::StagedBuffer& data, int dest, int tag);
  // (Staged receives are co_recv_staged, below.)

  // Receive halves shared by recv, irecv, the reliable-ack wait and the
  // collective engine (comm.cpp).  post_recv matches an already-queued
  // message at once (the request comes back done) or posts the receive;
  // complete_recv blocks until it is done; finish_recv adopts a completed
  // receive's clock and counters once, throwing on a truncation error.
  std::shared_ptr<detail::RequestState> post_recv(
      std::unique_lock<std::mutex>& lock, std::span<std::byte> data,
      int source, int tag, bool internal, bool staged);
  Status complete_recv(std::unique_lock<std::mutex>& lock,
                       const std::shared_ptr<detail::RequestState>& req,
                       const char* what);
  Status finish_recv(detail::RequestState& rs);

  void count_algo(CollectiveAlgo a) {
    ++state().stats.algo_uses[static_cast<std::size_t>(a)];
  }

  // Collective building blocks (collectives.cpp).
  /// Reserves `n` internal tags and returns the first; a routine given it
  /// uses tag, tag - 1, ..., tag - n + 1.
  int next_collective_tag(int n = 1);
  void bcast_bytes(std::span<std::byte> data, int root);
  void scatter_bytes(std::span<const std::byte> send,
                     std::span<std::byte> recv, int root);
  void scatterv_bytes(std::span<const std::byte> send,
                      std::span<const std::size_t> counts,
                      std::span<const std::size_t> displs,
                      std::span<std::byte> recv, std::size_t elem_size,
                      int root);
  void gather_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                    int root);
  void gatherv_bytes(std::span<const std::byte> send,
                     std::span<const std::size_t> counts,
                     std::span<const std::size_t> displs,
                     std::span<std::byte> recv, std::size_t elem_size,
                     int root);
  void allgather_bytes(std::span<const std::byte> send,
                       std::span<std::byte> recv);
  void scan_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                  std::size_t elem_size, const ReduceFn& op);
  void alltoall_bytes(std::span<const std::byte> send,
                      std::span<std::byte> recv);
  void alltoallv_bytes(std::span<const std::byte> send,
                       std::span<const std::size_t> send_counts,
                       std::span<const std::size_t> send_displs,
                       std::span<std::byte> recv,
                       std::span<const std::size_t> recv_counts,
                       std::span<const std::size_t> recv_displs,
                       std::size_t elem_size);

  // Nonblocking collectives, which their blocking forms wait on: validate,
  // pick the algorithm, reserve its tags, issue its routine.
  Request ibcast_bytes(std::span<std::byte> data, int root);
  Request ireduce_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t elem_size,
                        ReduceFn op, int root);
  Request iallreduce_bytes(std::span<const std::byte> send,
                           std::span<std::byte> recv, std::size_t elem_size,
                           ReduceFn op);
  Request iallgatherv_bytes(std::span<const std::byte> send,
                            std::span<const std::size_t> counts,
                            std::span<const std::size_t> displs,
                            std::span<std::byte> recv,
                            std::size_t elem_size);

  // The collective engine.  issue() runs a routine up to its first receive
  // (collectives.cpp); complete() is issue() + wait; advance() resumes it in
  // program order — as far as it gets without blocking unless `blocking` —
  // and returns whether it finished (comm.cpp).  co_await co_recv(...)
  // inside a routine posts one internal receive and suspends until it
  // completes: into `data`, or staged (then it yields the StagedBuffer).
  template <bool Staged>
  struct CoRecv;
  CoRecv<false> co_recv(std::span<std::byte> data, int source, int tag);
  CoRecv<true> co_recv_staged(int source, int tag);
  Request issue(detail::CollTask task);
  void complete(detail::CollTask task);
  bool advance(detail::CollectiveState& cs, bool blocking);

  // Collective algorithms (collectives.cpp).  The routines are the only
  // implementation of each algorithm with a nonblocking form; their tags
  // are reserved by the caller at issue, before any routine can suspend.
  /// The scatter/gather family's tree-or-linear choice.
  [[nodiscard]] bool uses_tree(CollectiveAlgorithm choice) const;
  detail::CollTask scatter_tree(std::span<const std::byte> send,
                                std::span<std::byte> recv, int root, int tag);
  detail::CollTask scatterv_tree(std::span<const std::byte> send,
                                 std::span<const std::size_t> counts,
                                 std::span<const std::size_t> displs,
                                 std::span<std::byte> recv,
                                 std::size_t elem_size, int root, int tag);
  detail::CollTask gather_tree(std::span<const std::byte> send,
                               std::span<std::byte> recv, int root, int tag);
  detail::CollTask allgather_ring(std::span<const std::byte> send,
                                  std::span<std::byte> recv, int tag);
  detail::CollTask bcast_tree(std::span<std::byte> data, int root, int tag);
  detail::CollTask bcast_flat(std::span<std::byte> data, int root, int tag);
  detail::CollTask gatherv_linear(std::span<const std::byte> send,
                                  std::span<const std::size_t> counts,
                                  std::span<const std::size_t> displs,
                                  std::span<std::byte> recv,
                                  std::size_t elem_size, int root, int tag);
  detail::CollTask gatherv_tree(std::span<const std::byte> send,
                                std::span<const std::size_t> counts,
                                std::span<const std::size_t> displs,
                                std::span<std::byte> recv,
                                std::size_t elem_size, int root, int tag);
  detail::CollTask allgatherv_gather_bcast(std::span<const std::byte> send,
                                           std::vector<std::size_t> counts,
                                           std::vector<std::size_t> displs,
                                           std::span<std::byte> recv,
                                           std::size_t elem_size, int tag);
  detail::CollTask reduce_tree(std::span<const std::byte> send,
                               std::span<std::byte> recv,
                               std::size_t elem_size, ReduceFn op, int root,
                               int tag);
  detail::CollTask allreduce_reduce_bcast(std::span<const std::byte> send,
                                          std::span<std::byte> recv,
                                          std::size_t elem_size, ReduceFn op,
                                          int tag);
  detail::CollTask allreduce_rd(std::span<const std::byte> send,
                                std::span<std::byte> recv,
                                std::size_t elem_size, ReduceFn op, int tag);
  detail::CollTask allreduce_ring(std::span<const std::byte> send,
                                  std::span<std::byte> recv,
                                  std::size_t elem_size, ReduceFn op, int tag);

  detail_runtime::Runtime* runtime_;
  int world_rank_;
  int rank_;               // rank within this communicator
  std::vector<int> group_;  // comm rank -> world rank; empty = world comm
  int context_ = 0;
  int collective_seq_ = 0;
};

}  // namespace dipdc::minimpi
