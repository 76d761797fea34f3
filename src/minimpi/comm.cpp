// Point-to-point transport: the byte-level operations behind the typed API.
//
// Every send goes through Comm::transmit and every receive through
// Comm::post_recv, and Runtime::match is the one place a message meets its
// receive, whichever arrived first.  Fast-path structure (all
// sim-neutral):
//  - payloads are built OUTSIDE the runtime lock, in pooled buffers or the
//    envelope's inline storage (no allocation for small eager messages);
//  - blocking rendezvous senders lend their buffer to the envelope instead
//    of copying (the sender provably blocks until the receiver consumed it);
//  - large payload copies on the receive side happen outside the lock, with
//    in-flight flags so an unwinding peer never frees memory mid-copy;
//  - unexpected-message matching is indexed by (context, tag) buckets.
#include "minimpi/comm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "minimpi/error.hpp"
#include "minimpi/faults.hpp"
#include "minimpi/trace.hpp"

namespace dipdc::minimpi {

namespace {

/// Builds the payload for an outgoing message.  Called outside the runtime
/// lock; the stats stream is the sender's own (only its thread writes it).
detail::Payload build_payload(std::span<const std::byte> data, bool borrow_ok,
                              detail::BufferPool& pool, CommStats& cs) {
  if (data.empty()) return {};
  if (data.size() <= detail::Payload::kMaxInline) {
    ++cs.inline_messages;
    cs.copied_bytes += data.size();
    return detail::Payload::inline_copy(data);
  }
  if (borrow_ok) {
    cs.zero_copy_bytes += data.size();
    return detail::Payload::borrowed_from(data);
  }
  bool hit = false;
  detail::Buffer buf = pool.acquire(data.size(), &hit);
  ++(hit ? cs.pool_hits : cs.pool_misses);
  cs.copied_bytes += data.size();
  return detail::Payload::owned(std::move(buf), data);
}

/// Channel-introspection tally (RuntimeOptions::record_channels) into one
/// of the acting rank's own maps, so no extra locking: senders tally under
/// their own thread, receivers under theirs.
void record_channel(std::unordered_map<int, detail::ChannelCount>& channels,
                    bool enabled, int peer_world, std::size_t bytes) {
  if (!enabled) return;
  detail::ChannelCount& c = channels[peer_world];
  c.bytes += bytes;
  ++c.messages;
}

}  // namespace

void Comm::validate_peer(int peer, const char* what) const {
  if (peer < 0 || peer >= size()) {
    std::ostringstream os;
    os << what << ": peer rank " << peer << " outside communicator of size "
       << size();
    throw MpiError(os.str());
  }
}

void Comm::validate_user_tag(int tag, const char* what) const {
  if (tag < 0) {
    std::ostringstream os;
    os << what << ": user tags must be non-negative (got " << tag
       << "); negative tags are reserved for collectives";
    throw MpiError(os.str());
  }
}

void Comm::sim_compute(double flops, double mem_bytes) {
  const TraceStart t0 = trace_begin();
  const double dt = cost_model().kernel_time(world_rank_, flops, mem_bytes);
  state().clock += dt;
  state().stats.sim_compute_seconds += dt;
  if (obs::Recorder* rec = runtime_->recorder()) {
    obs::Event e;
    e.rank = world_rank_;
    e.cat = obs::Category::kCompute;
    e.context = context_;
    e.t_start = t0.sim;
    e.t_end = state().clock;
    e.wall_start = t0.wall;
    e.wall_end = rec->wall_now();
    e.name = "compute";
    rec->lane(world_rank_).events.push_back(e);
  }
}

void Comm::sim_advance(double seconds) {
  DIPDC_REQUIRE(seconds >= 0.0, "cannot advance the clock backwards");
  const TraceStart t0 = trace_begin();
  state().clock += seconds;
  // Explicit clock advances model idle/waiting time, not kernel work; they
  // get their own bucket so compute/comm breakdowns stay honest.
  state().stats.sim_idle_seconds += seconds;
  if (obs::Recorder* rec = runtime_->recorder()) {
    obs::Event e;
    e.rank = world_rank_;
    e.cat = obs::Category::kIdle;
    e.context = context_;
    e.t_start = t0.sim;
    e.t_end = state().clock;
    e.wall_start = t0.wall;
    e.wall_end = rec->wall_now();
    e.name = "idle";
    rec->lane(world_rank_).events.push_back(e);
  }
}

std::shared_ptr<detail::Envelope> Comm::transmit(
    std::unique_lock<std::mutex>& lock, std::span<const std::byte> data,
    const detail::StagedBuffer* staged, int dest, int tag, bool internal,
    bool lend, const char* what) {
  validate_peer(dest, what);
  if (!internal) validate_user_tag(tag, what);
  const int wdest = to_world(dest);
  detail::RankState& st = state();
  const RuntimeOptions& opts = runtime_->options();

  // Fault injection applies to user p2p traffic only; collective-internal
  // messages and reliable-delivery acknowledgements ride the lossless
  // control channel.  The draw consumes the rank's fault stream whether or
  // not a fault fires, so the injected sequence depends only on (plan seed,
  // rank, message ordinal).
  detail::FaultDecision fault;
  if (!internal && opts.faults.injects()) {
    fault = detail::draw_fault(opts.faults, st.fault_rng);
  }
  auto env = runtime_->acquire_envelope();
  env->source = rank_;
  env->src_world = world_rank_;
  env->dest = wdest;
  env->tag = tag;
  env->context = context_;
  env->internal = internal;
  // Observability: every user p2p message gets a world-unique edge id.
  // Dropped messages allocate one too (the send event shows an edge no
  // receive ever completes), so edge numbering is independent of the fault
  // plan's outcomes.
  if (obs::Recorder* rec = internal ? nullptr : runtime_->recorder()) {
    env->trace_seq = rec->alloc_seq(world_rank_);
    st.last_tx_seq = env->trace_seq;
  }
  auto count_sent = [&] {
    st.stats.transport_bytes_sent += data.size();
    ++st.stats.transport_messages_sent;
    if (internal) return;
    st.stats.p2p_bytes_sent += data.size();
    ++st.stats.p2p_messages_sent;
    record_channel(st.channel_sent, opts.record_channels, wdest, data.size());
  };
  if (fault.drop) {
    // The message vanishes on the wire.  The sender cannot tell: it pays
    // the same local costs and counters as a delivered eager send.  A
    // rendezvous-sized payload is lost fire-and-forget too — blocking on a
    // handshake that can never happen would hang the sender by design.
    ++st.stats.fault_drops;
    count_sent();
    env->matched = true;
    lock.lock();
    return env;
  }

  // Collective-internal messages are always eager: real MPI collectives
  // never deadlock, and the linear root loops must not serialize on
  // rendezvous handshakes.
  env->rendezvous = !internal && data.size() > opts.eager_threshold;
  if (staged != nullptr && staged->len != 0) {
    // Every hop of a tree or ring forward references the same bytes; the
    // buffer is never mutated once sent (collectives uphold that).
    env->payload = detail::Payload::shared_view(*staged);
    st.stats.zero_copy_bytes += staged->len;
  } else {
    // Only a blocking rendezvous sender may lend its frame, and only to a
    // receiver in this address space: across the tcp seam the borrow
    // degrades to a copy (fail safe, never dangle).
    env->payload = build_payload(
        data, lend && env->rendezvous && runtime_->backend_shares_memory(),
        runtime_->buffer_pool(), st.stats);
  }

  // Simulated-timing fields are computed BEFORE the transport seam so they
  // travel inside the frame and delivery reconstructs the identical event
  // on every backend.  No lock needed: st.clock is mutated only by this
  // thread and the cost model is immutable.
  const double alpha = cost_model().message_time(world_rank_, wdest, 0);
  env->arrival_head = st.clock + alpha + fault.delay;
  if (fault.delay > 0.0) ++st.stats.fault_delays;
  env->byte_time =
      cost_model().message_time(world_rank_, wdest, data.size()) - alpha;

  // A duplicated message is a spurious eager retransmission of the same
  // logical message (same edge and timing): its payload is an independent
  // copy, never a borrow of the user's frame, and it never takes part in
  // the rendezvous handshake.
  std::shared_ptr<detail::Envelope> dup;
  if (fault.duplicate) {
    ++st.stats.fault_dups;
    dup = runtime_->acquire_envelope();
    *dup = *env;
    dup->rendezvous = false;
    dup->payload = build_payload(data, /*borrow_ok=*/false,
                                 runtime_->buffer_pool(), st.stats);
  }

  // Cross the transport seam (identity on the threads backend; a serialize/
  // round-trip/deserialize through the socket pair on tcp).
  env = runtime_->transport_envelope(std::move(env));
  if (dup) dup = runtime_->transport_envelope(std::move(dup));

  lock.lock();
  count_sent();
  runtime_->deliver(lock, env);
  if (dup) {
    st.stats.transport_bytes_sent += data.size();
    ++st.stats.transport_messages_sent;
    runtime_->deliver(lock, dup);
  }
  return env;
}

void Comm::send_bytes(std::span<const std::byte> data, int dest, int tag,
                      bool internal) {
  std::unique_lock<std::mutex> lock(runtime_->mutex(), std::defer_lock);
  const auto env = transmit(lock, data, nullptr, dest, tag, internal,
                            /*lend=*/true, "send");
  if (!env->rendezvous) {
    // The eager sender only pays its local injection overhead (LogP "o");
    // the wire latency is experienced by the receiver.
    charge_comm(cost_model().send_overhead());
    return;
  }
  if (!env->matched) ++state().stats.rendezvous_stalls;
  try {
    runtime_->blocking_wait(lock, world_rank_, "Send (rendezvous)",
                            [&env] { return env->matched; });
  } catch (...) {
    // The envelope may borrow this frame's `data`; make sure nobody can
    // touch it after we unwind: drop it from the mailbox if still
    // queued, or wait out a receiver's in-flight copy.
    detail::Mailbox& mb = runtime_->mailbox(env->dest);
    if (!mb.unexpected.remove(env.get())) {
      while (!env->matched) runtime_->condvar(world_rank_).wait(lock);
    }
    throw;
  }
  charge_comm_until(env->completion_time);
}

Status Comm::recv_bytes(std::span<std::byte> data, int source, int tag,
                        bool internal) {
  if (source != kAnySource) validate_peer(source, "recv");
  if (!internal && tag != kAnyTag) validate_user_tag(tag, "recv");
  std::unique_lock<std::mutex> lock(runtime_->mutex(), std::defer_lock);
  return complete_recv(
      lock, post_recv(lock, data, source, tag, internal, /*staged=*/false),
      "Recv");
}

Request Comm::isend_bytes(std::span<const std::byte> data, int dest, int tag,
                          bool internal) {
  // Isend returns immediately, so the payload never borrows the user's
  // buffer (the sender may mutate it before the receiver matches).
  std::unique_lock<std::mutex> lock(runtime_->mutex(), std::defer_lock);
  auto req = std::make_shared<detail::RequestState>();
  req->kind = detail::RequestState::Kind::kSend;
  req->envelope = transmit(lock, data, nullptr, dest, tag, internal,
                           /*lend=*/false, "isend");
  // The non-blocking send itself only pays injection overhead; a rendezvous
  // Isend defers the synchronization to wait().
  charge_comm(cost_model().send_overhead());
  if (!req->envelope->rendezvous) {
    req->done = true;
    req->completion_time = state().clock;
  }
  return Request(req);
}

Request Comm::irecv_bytes(std::span<std::byte> data, int source, int tag,
                          bool internal) {
  if (source != kAnySource) validate_peer(source, "irecv");
  if (!internal && tag != kAnyTag) validate_user_tag(tag, "irecv");
  std::unique_lock<std::mutex> lock(runtime_->mutex(), std::defer_lock);
  return Request(
      post_recv(lock, data, source, tag, internal, /*staged=*/false));
}

std::shared_ptr<detail::RequestState> Comm::post_recv(
    std::unique_lock<std::mutex>& lock, std::span<std::byte> data,
    int source, int tag, bool internal, bool staged) {
  auto req = std::make_shared<detail::RequestState>();
  req->buffer = data.data();
  req->capacity =
      staged ? std::numeric_limits<std::size_t>::max() : data.size();
  req->want_staged = staged;
  req->source_filter = source;
  req->tag_filter = tag;
  req->context = context_;
  req->internal = internal;
  req->post_time = state().clock;

  lock.lock();
  detail::Mailbox& mb = runtime_->mailbox(world_rank_);
  const auto m = mb.unexpected.find(source, tag, context_, internal);
  if (!m) {
    mb.posted.push_back(req);
    return req;
  }
  const std::shared_ptr<detail::Envelope> env = m->handle();
  mb.unexpected.erase(*m);
  runtime_->match(lock, *req, *env);
  // The receive completed at post, so the posting operation's own trace
  // event carries the edge (a later wait finds req->trace_seq consumed).
  if (!internal && req->error.empty()) {
    state().last_rx_seq = std::exchange(req->trace_seq, 0);
  }
  return req;
}

Status Comm::complete_recv(std::unique_lock<std::mutex>& lock,
                           const std::shared_ptr<detail::RequestState>& req,
                           const char* what) {
  if (!req->done) {
    try {
      runtime_->blocking_wait(lock, world_rank_, what,
                              [&req] { return req->done; });
    } catch (...) {
      runtime_->retract(lock, world_rank_, req);  // keep the buffer safe
      throw;
    }
  }
  return finish_recv(*req);
}

Status Comm::finish_recv(detail::RequestState& rs) {
  if (!rs.error.empty()) throw MpiError(rs.error);
  charge_comm_until(rs.completion_time);
  if (std::exchange(rs.consumed, true)) return rs.status;
  detail::RankState& st = state();
  (rs.staged_shared ? st.stats.zero_copy_bytes : st.stats.copied_bytes) +=
      rs.status.bytes;
  if (rs.staged.storage != nullptr && !rs.staged_shared) {
    ++(rs.staged_pool_hit ? st.stats.pool_hits : st.stats.pool_misses);
  }
  if (!rs.internal) {
    st.stats.p2p_bytes_received += rs.status.bytes;
    ++st.stats.p2p_messages_received;
    record_channel(st.channel_received, runtime_->options().record_channels,
                   rs.src_world, rs.status.bytes);
    // Hand the matched message's edge to the completing operation's trace
    // event (zero when the receive matched at post and its event took it).
    if (rs.trace_seq != 0) st.last_rx_seq = std::exchange(rs.trace_seq, 0);
  }
  return rs.status;
}

detail::StagedBuffer Comm::stage_acquire(std::size_t n) {
  bool hit = false;
  detail::Buffer buf = runtime_->buffer_pool().acquire(n, &hit);
  CommStats& cs = state().stats;
  ++(hit ? cs.pool_hits : cs.pool_misses);
  return detail::StagedBuffer{std::move(buf), 0, n};
}

detail::StagedBuffer Comm::stage_copy(std::span<const std::byte> src) {
  detail::StagedBuffer sb = stage_acquire(src.size());
  if (!src.empty()) {
    std::memcpy(sb.storage->data(), src.data(), src.size());
  }
  state().stats.copied_bytes += src.size();
  return sb;
}

void Comm::send_staged(const detail::StagedBuffer& data, int dest, int tag) {
  // Staged traffic is collective-internal, and therefore eager.  A shared
  // staging buffer crossing the tcp seam is flattened into the frame; the
  // refcounted buffer stays valid throughout.
  std::unique_lock<std::mutex> lock(runtime_->mutex(), std::defer_lock);
  transmit(lock, data.view(), &data, dest, tag, /*internal=*/true,
           /*lend=*/false, "send");
  charge_comm(cost_model().send_overhead());
}

void Comm::trace_end(Primitive op, int peer, int tag, std::size_t bytes,
                     const TraceStart& t0) {
  obs::Recorder* const rec = runtime_->recorder();
  if (rec == nullptr) return;
  detail::RankState& st = state();
  obs::Event e;
  e.rank = world_rank_;
  e.op = op_code(op);
  e.cat = primitive_category(op);
  e.peer = peer;
  e.tag = tag;
  e.context = context_;
  e.bytes = bytes;
  // Consume the message edges the byte-level transport stamped since t0
  // was taken (at most one each way per user operation).
  e.seq_out = std::exchange(st.last_tx_seq, 0);
  e.seq_in = std::exchange(st.last_rx_seq, 0);
  e.t_start = t0.sim;
  e.t_end = st.clock;
  e.wall_start = t0.wall;
  e.wall_end = rec->wall_now();
  e.name = primitive_name(op);
  // The lane belongs to this rank's thread, so no lock is needed.
  rec->lane(world_rank_).events.push_back(e);
}

void Comm::phase_begin(std::string_view name) {
  obs::Recorder* const rec = runtime_->recorder();
  if (rec == nullptr) return;
  state().phase_stack.push_back(
      detail::PhaseFrame{name, state().clock, rec->wall_now()});
}

void Comm::phase_end() {
  obs::Recorder* const rec = runtime_->recorder();
  if (rec == nullptr) return;
  detail::RankState& st = state();
  if (st.phase_stack.empty()) return;
  const detail::PhaseFrame frame = st.phase_stack.back();
  st.phase_stack.pop_back();
  obs::Event e;
  e.rank = world_rank_;
  e.cat = obs::Category::kPhase;
  e.context = context_;
  e.t_start = frame.sim_start;
  e.t_end = st.clock;
  e.wall_start = frame.wall_start;
  e.wall_end = rec->wall_now();
  e.name = frame.name;
  rec->lane(world_rank_).events.push_back(e);
}

Status Comm::wait(Request& request) {
  count_call(Primitive::kWait);
  const TraceStart t0 = trace_begin();
  const Status st = wait_nocount(request);
  trace_end(Primitive::kWait, st.source, st.tag, st.bytes, t0);
  return st;
}

detail::CollectiveState::CollectiveState(detail_runtime::Runtime* rt,
                                         int rank, CollTask task)
    : top(task.release()),
      runtime(rt),
      world_rank(rank),
      world_alive(rt->live_flag()) {
  top.promise().state = this;
}

detail::CollectiveState::~CollectiveState() {
  if (!top.done() && pending && *world_alive) {
    // Never leave a sender writing into (or able to match) a receive whose
    // buffer may be about to go away with the abandoned routine.
    std::unique_lock<std::mutex> lock(runtime->mutex());
    runtime->retract(lock, world_rank, pending);
  }
  top.destroy();
}

bool Comm::advance(detail::CollectiveState& cs, bool blocking) {
  while (!cs.top.done()) {
    {
      std::unique_lock<std::mutex> lock(runtime_->mutex());
      if (!cs.pending->done) {
        if (!blocking) return false;
        runtime_->blocking_wait(lock, world_rank_, "Recv (collective)",
                                [&cs] { return cs.pending->done; });
      }
    }
    cs.resume.resume();
  }
  // A failed routine stays failed: every later wait rethrows.
  if (cs.top.promise().error) std::rethrow_exception(cs.top.promise().error);
  return true;
}

bool Request::can_progress() const {
  if (coll_ != nullptr) return coll_->top.done() || coll_->pending->done;
  return state_->kind == detail::RequestState::Kind::kSend
             ? (state_->done || state_->envelope->matched)
             : state_->done;
}

Status Comm::wait_nocount(Request& request) {
  if (!request.valid()) throw MpiError("wait on an empty Request");
  if (request.coll_ != nullptr) {
    advance(*request.coll_, /*blocking=*/true);
    return request.coll_->status;
  }
  const auto rs = request.state_;
  std::unique_lock<std::mutex> lock(runtime_->mutex());
  if (rs->kind == detail::RequestState::Kind::kRecv) {
    return complete_recv(lock, rs, "Wait (Irecv)");
  }
  if (!rs->done) {  // a rendezvous Isend
    const auto& env = rs->envelope;
    runtime_->blocking_wait(lock, world_rank_, "Wait (Isend rendezvous)",
                            [&env] { return env->matched; });
    rs->done = true;
    rs->completion_time = env->completion_time;
  }
  charge_comm_until(rs->completion_time);
  return Status{};
}

std::size_t Comm::wait_any(std::span<Request> requests, Status* status) {
  count_call(Primitive::kWait);
  if (requests.empty()) throw MpiError("wait_any on an empty request list");
  for (const Request& r : requests) {
    if (!r.valid()) throw MpiError("wait_any on an empty Request");
  }
  for (;;) {
    std::size_t which = requests.size();
    {
      std::unique_lock<std::mutex> lock(runtime_->mutex());
      runtime_->blocking_wait(lock, world_rank_, "Waitany", [&] {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          if (requests[i].can_progress()) {
            which = i;
            return true;
          }
        }
        return false;
      });
    }
    // A collective may only have advanced as far as its next receive.
    if (test(requests[which], status)) return which;
  }
}

bool Comm::test(Request& request, Status* status) {
  if (!request.valid()) throw MpiError("test on an empty Request");
  if (request.coll_ != nullptr) {
    if (!advance(*request.coll_, /*blocking=*/false)) return false;
  } else {
    std::unique_lock<std::mutex> lock(runtime_->mutex());
    if (!request.can_progress()) return false;
  }
  // Completes without blocking (adopts clocks/counters idempotently).
  const Status st = wait_nocount(request);
  // test and wait_any record no trace event of their own; drop the pending
  // message edge so it cannot leak into the next traced operation.
  state().last_rx_seq = 0;
  if (status != nullptr) *status = st;
  return true;
}

void Comm::wait_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) wait(r);
  }
}

Status Comm::probe(int source, int tag) {
  count_call(Primitive::kProbe);
  const TraceStart t_begin = trace_begin();
  if (source != kAnySource) validate_peer(source, "probe");
  if (tag != kAnyTag) validate_user_tag(tag, "probe");

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  detail::Mailbox& mb = runtime_->mailbox(world_rank_);
  const detail::Envelope* found = nullptr;
  auto find_match = [&]() -> bool {
    if (auto m =
            mb.unexpected.find(source, tag, context_, /*internal=*/false)) {
      found = m->handle().get();
      return true;
    }
    return false;
  };
  runtime_->blocking_wait(lock, world_rank_, "Probe", find_match);
  // Probing reveals the envelope metadata once the message head arrives;
  // the payload itself is ingested by the subsequent receive.
  charge_comm_until(found->arrival_head);
  lock.unlock();
  trace_end(Primitive::kProbe, found->source, found->tag,
            found->payload.size(), t_begin);
  return Status{found->source, found->tag, found->payload.size()};
}

std::optional<Status> Comm::iprobe(int source, int tag) {
  if (source != kAnySource) validate_peer(source, "iprobe");
  if (tag != kAnyTag) validate_user_tag(tag, "iprobe");

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  detail::Mailbox& mb = runtime_->mailbox(world_rank_);
  if (auto m = mb.unexpected.find(source, tag, context_, /*internal=*/false)) {
    const auto& env = m->handle();
    return Status{env->source, env->tag, env->payload.size()};
  }
  return std::nullopt;
}

void Comm::fault_tick(Primitive p) {
  const FaultOptions& plan = runtime_->options().faults;
  if (world_rank_ != plan.kill_rank) return;
  detail::RankState& st = state();
  if (++st.primitive_calls != plan.kill_at_call) return;
  std::ostringstream os;
  os << "rank " << world_rank_ << " killed by fault injection at primitive "
     << "call " << plan.kill_at_call << " (" << primitive_name(p) << ")";
  const std::string why = os.str();
  // Publish the death before unwinding so every survivor — blocked now or
  // blocking later — gets RankFailedError instead of hanging.
  runtime_->note_rank_killed(world_rank_, why);
  throw RankFailedError(why);
}

void Comm::send_reliable_bytes(std::span<const std::byte> data, int dest,
                               int tag) {
  validate_peer(dest, "send_reliable");
  validate_user_tag(tag, "send_reliable");
  DIPDC_REQUIRE(runtime_->options().detect_deadlock,
                "send_reliable requires detect_deadlock: deterministic "
                "acknowledgement timeouts piggyback on global-stall proofs");
  detail::RankState& st = state();
  const int wdest = to_world(dest);
  const std::uint64_t seq = ++st.reliable_next_seq[wdest];

  std::vector<std::byte> frame(sizeof(detail::ReliableHeader) + data.size());
  const detail::ReliableHeader hdr{seq};
  std::memcpy(frame.data(), &hdr, sizeof(hdr));
  if (!data.empty()) {
    std::memcpy(frame.data() + sizeof(hdr), data.data(), data.size());
  }

  const ReliableOptions& ro = runtime_->options().reliable;
  for (int attempt = 0; attempt <= ro.max_retries; ++attempt) {
    if (attempt > 0) ++st.stats.reliable_retries;
    send_bytes(frame, dest, tag, /*internal=*/false);
    for (;;) {
      detail::ReliableHeader ack{};
      const bool got = recv_ack_timeout(
          std::as_writable_bytes(std::span<detail::ReliableHeader>(&ack, 1)),
          dest, detail::kReliableAckTag);
      if (!got) break;  // provably lost: retransmit
      if (ack.seq == seq) return;
      // A stale acknowledgement for an earlier frame (its duplicate was
      // acked twice); discard it and keep waiting for ours.
    }
  }
  std::ostringstream os;
  os << "send_reliable: no acknowledgement from rank " << dest << " (tag "
     << tag << ") after " << ro.max_retries
     << " retransmissions — retry budget exhausted";
  throw MpiError(os.str());
}

Status Comm::recv_reliable_bytes(std::span<std::byte> data, int source,
                                 int tag) {
  detail::RankState& st = state();
  std::vector<std::byte> frame(sizeof(detail::ReliableHeader) + data.size());
  for (;;) {
    const Status raw = recv_bytes(frame, source, tag, /*internal=*/false);
    if (raw.bytes < sizeof(detail::ReliableHeader)) {
      throw MpiError(
          "recv_reliable: frame lacks a sequence header — the peer must "
          "send with send_reliable");
    }
    detail::ReliableHeader hdr{};
    std::memcpy(&hdr, frame.data(), sizeof(hdr));
    // Acknowledge every frame, duplicates included: the sender may be
    // retransmitting precisely because an earlier copy went unacknowledged
    // from its point of view.  Acks ride the lossless control channel.
    const detail::ReliableHeader ack{hdr.seq};
    send_bytes(std::as_bytes(std::span<const detail::ReliableHeader>(&ack, 1)),
               raw.source, detail::kReliableAckTag, /*internal=*/true);
    std::uint64_t& delivered = st.reliable_delivered_seq[to_world(raw.source)];
#ifdef DIPDC_MUTATE_RELIABLE_DUP
    // Planted bug (fuzzer-validation builds only, -DDIPDC_MUTATION=
    // reliable-dup): off-by-one high-water mark lets an injected duplicate
    // of the most recently delivered frame through as a fresh message.
    if (hdr.seq < delivered) {
#else
    if (hdr.seq <= delivered) {
#endif
      // Retransmission or injected duplicate of an already-delivered frame.
      ++st.stats.reliable_duplicates;
      continue;
    }
    delivered = hdr.seq;
    const std::size_t payload = raw.bytes - sizeof(hdr);
    if (payload > 0) {
      std::memcpy(data.data(), frame.data() + sizeof(hdr), payload);
    }
    return Status{raw.source, raw.tag, payload};
  }
}

bool Comm::recv_ack_timeout(std::span<std::byte> data, int source,
                            int tag) {
  std::unique_lock<std::mutex> lock(runtime_->mutex(), std::defer_lock);
  const auto req =
      post_recv(lock, data, source, tag, /*internal=*/true, /*staged=*/false);
  // Let the wait expire when the runtime proves the whole world is stalled
  // (the ack provably cannot arrive).
  detail_runtime::Runtime::WaitOutcome outcome;
  try {
    outcome = runtime_->blocking_wait_for(
        lock, world_rank_, "Recv (reliable ack)",
        [&req] { return req->done; }, /*can_timeout=*/true);
  } catch (...) {
    runtime_->retract(lock, world_rank_, req);  // keep `data` safe
    throw;
  }
  if (outcome == detail_runtime::Runtime::WaitOutcome::kTimedOut) {
    // The timeout may have raced an arriving ack: finish its copy, or
    // withdraw the receive when the ack is provably lost.
    runtime_->retract(lock, world_rank_, req);
  }
  if (!req->done) {
    charge_comm(runtime_->options().reliable.timeout_seconds);
    ++state().stats.reliable_timeouts;
    return false;
  }
  finish_recv(*req);
  return true;
}

}  // namespace dipdc::minimpi
