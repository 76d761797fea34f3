#include "fuzz/generate.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "minimpi/faults.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dipdc::fuzz {

namespace {

/// Re-serialises a fault plan so Program::fault_spec always matches
/// Program::options (the generator may clamp kill ranks after parsing).
std::string format_fault_spec(const minimpi::FaultOptions& f,
                              const minimpi::ReliableOptions& rel) {
  std::ostringstream os;
  const char* sep = "";
  auto clause = [&](auto&&... parts) {
    os << sep;
    (os << ... << parts);
    sep = ",";
  };
  if (f.drop_prob > 0) clause("drop=", f.drop_prob);
  if (f.dup_prob > 0) clause("dup=", f.dup_prob);
  if (f.delay_prob > 0) clause("delay=", f.delay_prob, ":", f.delay_seconds);
  if (f.kill_rank >= 0) clause("kill=", f.kill_rank, "@", f.kill_at_call);
  if (os.tellp() == 0) return "";
  clause("retries=", rel.max_retries);
  clause("timeout=", rel.timeout_seconds);
  return os.str();
}

/// Per-rank bookkeeping for non-blocking requests.
struct SlotState {
  std::set<int> free;  // free request slots, lowest first
  SlotState() {
    for (int i = 0; i < 16; ++i) free.insert(i);
  }
};

struct PendingWait {
  int rank = 0;
  int slot = 0;
  int comm = 0;
  std::uint32_t event = 0;  // the owning isend/irecv event (shared id)
  std::uint32_t due = 0;    // flush at the first event >= due
};

class Generator {
 public:
  Generator(std::uint64_t seed, const GenConfig& cfg)
      : cfg_(cfg), rng_(support::make_stream(seed, 0xF0CC)) {
    p_.seed = seed;
    p_.fault_seed = cfg.fault_seed ? cfg.fault_seed : seed ^ 0xFA017ull;
  }

  Program run() {
    setup_world();
    setup_options();
    setup_faults();
    slots_.resize(static_cast<std::size_t>(p_.nranks));
    const auto target = static_cast<std::uint32_t>(cfg_.target_events);
    for (event_ = 0; event_ < target; ++event_) {
      flush_due_waits(event_);
      emit_event();
    }
    flush_due_waits(~0u);
    p_.num_events = event_;
    return std::move(p_);
  }

 private:
  // ---- setup --------------------------------------------------------------

  void setup_world() {
    const int lo = 2;
    const int hi = std::max(lo, cfg_.max_ranks);
    p_.nranks = lo + static_cast<int>(rng_.uniform_index(
                         static_cast<std::size_t>(hi - lo + 1)));
    CommInfo world;
    world.id = 0;
    world.parent = -1;
    world.members.resize(static_cast<std::size_t>(p_.nranks));
    for (int r = 0; r < p_.nranks; ++r) {
      world.members[static_cast<std::size_t>(r)] = r;
    }
    p_.comms.push_back(std::move(world));
    p_.ops.assign(static_cast<std::size_t>(p_.nranks), {});
  }

  void setup_options() {
    minimpi::RuntimeOptions& o = p_.options;
    o.record_trace = true;
    o.record_channels = true;
    // Exercise the full matrix of transport and collective code paths.
    const std::size_t et = rng_.uniform_index(3);
    o.eager_threshold = et == 0 ? 48 : et == 1 ? 512 : 64 * 1024;
    using CA = minimpi::CollectiveAlgorithm;
    const CA scatter_algos[] = {CA::kAuto, CA::kClassic, CA::kTree};
    const CA allreduce_algos[] = {CA::kAuto, CA::kClassic,
                                  CA::kRecursiveDoubling, CA::kRing};
    const CA allgather_algos[] = {CA::kAuto, CA::kClassic, CA::kRing};
    o.collectives.scatter = scatter_algos[rng_.uniform_index(3)];
    o.collectives.gather = scatter_algos[rng_.uniform_index(3)];
    o.collectives.allreduce = allreduce_algos[rng_.uniform_index(4)];
    o.collectives.allgather = allgather_algos[rng_.uniform_index(3)];
  }

  void setup_faults() {
    std::string spec = cfg_.fault_spec;
    if (spec == "auto") {
      std::ostringstream os;
      const char* sep = "";
      if (rng_.uniform() < 0.35) {
        os << "drop=" << (rng_.uniform() < 0.5 ? 0.05 : 0.2);
        sep = ",";
      }
      if (rng_.uniform() < 0.35) {
        os << sep << "dup=" << (rng_.uniform() < 0.5 ? 0.05 : 0.2);
        sep = ",";
      }
      if (rng_.uniform() < 0.4) {
        os << sep << "delay=" << (rng_.uniform() < 0.5 ? 0.1 : 0.3)
           << ":1e-5";
        sep = ",";
      }
      if (rng_.uniform() < 0.2) {
        os << sep << "kill="
           << rng_.uniform_index(static_cast<std::size_t>(p_.nranks)) << "@"
           << 1 + rng_.uniform_index(40);
      }
      spec = os.str();
    }
    if (spec.empty()) {
      p_.fault_spec.clear();
      return;
    }
    minimpi::parse_fault_spec(spec, p_.options.faults, p_.options.reliable);
    minimpi::FaultOptions& f = p_.options.faults;
    if (f.kill_rank >= p_.nranks) f.kill_rank %= p_.nranks;
    if (f.drop_prob > 0) {
      // A generous budget makes "retry budget exhausted" practically
      // impossible, so every failure the fuzzer reports is a real mismatch.
      p_.options.reliable.max_retries = 64;
    }
    f.seed = p_.fault_seed;
    p_.fault_spec = format_fault_spec(f, p_.options.reliable);
  }

  // ---- event emission -----------------------------------------------------

  [[nodiscard]] bool lossy() const {
    const minimpi::FaultOptions& f = p_.options.faults;
    return f.drop_prob > 0 || f.dup_prob > 0;
  }

  [[nodiscard]] int base_tag() const {
    return 1 + static_cast<int>(event_) * 8;
  }

  [[nodiscard]] std::uint64_t msg_id(int k) const {
    return (static_cast<std::uint64_t>(event_) << 4) |
           static_cast<std::uint64_t>(k);
  }

  [[nodiscard]] std::uint32_t draw_bytes() {
    switch (rng_.uniform_index(4)) {
      case 0: return static_cast<std::uint32_t>(rng_.uniform_index(65));
      case 1: return static_cast<std::uint32_t>(rng_.uniform_index(257));
      case 2:
        return static_cast<std::uint32_t>(
            rng_.uniform_index(cfg_.max_bytes + 1));
      default: {
        // Straddle the eager/rendezvous boundary.
        const auto et =
            static_cast<std::uint32_t>(p_.options.eager_threshold);
        const std::uint32_t lo = et > 32 ? et - 32 : 0;
        const std::uint32_t w = 64;
        return std::min(cfg_.max_bytes,
                        lo + static_cast<std::uint32_t>(rng_.uniform_index(w)));
      }
    }
  }

  /// A live communicator with at least `min_size` members.
  [[nodiscard]] const CommInfo* pick_comm(std::size_t min_size) {
    std::vector<const CommInfo*> eligible;
    for (const CommInfo& c : p_.comms) {
      if (c.members.size() >= min_size) eligible.push_back(&c);
    }
    if (eligible.empty()) return nullptr;
    return eligible[rng_.uniform_index(eligible.size())];
  }

  std::vector<Op>& ops_of(int world_rank) {
    return p_.ops[static_cast<std::size_t>(world_rank)];
  }

  [[nodiscard]] int alloc_slot(int world_rank) {
    SlotState& s = slots_[static_cast<std::size_t>(world_rank)];
    if (s.free.empty()) return -1;
    const int slot = *s.free.begin();
    s.free.erase(s.free.begin());
    return slot;
  }

  void defer_wait(int world_rank, int slot, int comm) {
    pending_.push_back({world_rank, slot, comm, event_,
                        event_ + 1 + static_cast<std::uint32_t>(
                                         rng_.uniform_index(3))});
  }

  void flush_due_waits(std::uint32_t now) {
    // FIFO per rank: requests are waited in the order they were posted.
    std::vector<PendingWait> later;
    for (const PendingWait& w : pending_) {
      if (w.due > now) {
        later.push_back(w);
        continue;
      }
      Op op;
      op.kind = OpKind::kWait;
      op.event = w.event;
      op.comm = w.comm;
      op.req = w.slot;
      ops_of(w.rank).push_back(op);
      slots_[static_cast<std::size_t>(w.rank)].free.insert(w.slot);
    }
    pending_ = std::move(later);
  }

  void emit_event() {
    // Container events draw first (their own roll, consumed only when the
    // feature is on, so legacy seeds regenerate bit-identically).
    if (cfg_.container_ops && rng_.uniform_index(100) < 22) {
      emit_container();
      return;
    }
    // Icollective events likewise roll only when the feature is on, after
    // the container roll so either flag alone reproduces older streams.
    if (cfg_.icollective_ops && rng_.uniform_index(100) < 20) {
      emit_icollective();
      return;
    }
    // Weighted event-kind draw; a kind that cannot apply (world too small,
    // lossy plan, comm budget) falls through to an exact p2p message.
    const std::size_t roll = rng_.uniform_index(100);
    if (roll < 34) {
      emit_p2p();
    } else if (roll < 46) {
      emit_window();
    } else if (roll < 68) {
      emit_collective();
    } else if (roll < 74) {
      if (lossy()) {
        emit_p2p();  // sendrecv cannot go through the reliable layer
      } else {
        emit_sendrecv();
      }
    } else if (roll < 80) {
      if (p_.comms.size() < 5) {
        emit_split();
      } else {
        emit_collective();
      }
    } else if (roll < 90) {
      emit_sim();
    } else {
      emit_p2p();
    }
  }

  void emit_p2p() {
    const CommInfo* c = pick_comm(2);
    DIPDC_REQUIRE(c != nullptr, "world always has >= 2 ranks");
    const auto pc = c->members.size();
    const int src = static_cast<int>(rng_.uniform_index(pc));
    int dst = static_cast<int>(rng_.uniform_index(pc - 1));
    if (dst >= src) ++dst;
    const int wsrc = c->members[static_cast<std::size_t>(src)];
    const int wdst = c->members[static_cast<std::size_t>(dst)];
    const int tag = base_tag();
    const std::uint32_t bytes = draw_bytes();
    const bool reliable = lossy() || rng_.uniform() < 0.2;

    Op send;
    send.event = event_;
    send.comm = c->id;
    send.peer = dst;
    send.tag = tag;
    send.bytes = bytes;
    send.msg = msg_id(0);
    if (reliable) {
      send.kind = OpKind::kSendReliable;
    } else if (rng_.uniform() < 0.5) {
      const int slot = alloc_slot(wsrc);
      if (slot >= 0) {
        send.kind = OpKind::kIsend;
        send.req = slot;
      } else {
        send.kind = OpKind::kSend;
      }
    } else {
      send.kind = OpKind::kSend;
    }
    ops_of(wsrc).push_back(send);
    if (send.kind == OpKind::kIsend) defer_wait(wsrc, send.req, c->id);

    Op recv;
    recv.event = event_;
    recv.comm = c->id;
    recv.peer = src;
    recv.tag = tag;
    recv.bytes = bytes;
    recv.msg = send.msg;
    recv.expect_source = src;
    recv.expect_tag = tag;
    if (reliable) {
      recv.kind = OpKind::kRecvReliable;
    } else {
      const std::size_t v = rng_.uniform_index(4);
      if (v == 0) {
        recv.kind = OpKind::kProbeRecv;
      } else if (v == 1) {
        const int slot = alloc_slot(wdst);
        if (slot >= 0) {
          recv.kind = OpKind::kIrecv;
          recv.req = slot;
        } else {
          recv.kind = OpKind::kRecv;
        }
      } else {
        recv.kind = OpKind::kRecv;
      }
    }
    ops_of(wdst).push_back(recv);
    if (recv.kind == OpKind::kIrecv) defer_wait(wdst, recv.req, c->id);
  }

  void emit_window() {
    // Any-source windows need >= 2 distinct senders; any-tag needs one.
    // Lossy plans force the any-source form: its exact tag keeps stale
    // reliable frames (retransmissions, duplicates) from earlier events out
    // of the match, whereas a wildcard-*tag* receive would match a lingering
    // frame of the wrong size and abort with a truncation error.
    const bool any_source = lossy() || rng_.uniform() < 0.5;
    const CommInfo* c = pick_comm(any_source ? 3 : 2);
    if (c == nullptr) {
      emit_p2p();
      return;
    }
    const auto pc = c->members.size();
    const int recv_rank = static_cast<int>(rng_.uniform_index(pc));
    const int wrecv = c->members[static_cast<std::size_t>(recv_rank)];
    const bool reliable = lossy() || rng_.uniform() < 0.25;
    const std::uint32_t bytes =
        1 + static_cast<std::uint32_t>(
                rng_.uniform_index(std::min<std::uint32_t>(cfg_.max_bytes,
                                                           512)));

    if (any_source) {
      // k messages with the same (unique) tag from k distinct senders; the
      // receiver accepts them in any order and the checker resolves the
      // multiset by source.
      std::vector<int> senders;
      for (std::size_t i = 0; i < pc; ++i) {
        if (static_cast<int>(i) != recv_rank) {
          senders.push_back(static_cast<int>(i));
        }
      }
      for (std::size_t i = senders.size(); i > 1; --i) {  // Fisher-Yates
        std::swap(senders[i - 1], senders[rng_.uniform_index(i)]);
      }
      const std::size_t k =
          2 + rng_.uniform_index(std::min<std::size_t>(3, senders.size() - 1));
      senders.resize(k);
      const int tag = base_tag();
      std::vector<std::uint64_t> msgs;
      for (std::size_t i = 0; i < k; ++i) {
        msgs.push_back(msg_id(static_cast<int>(i)));
        Op send;
        send.kind = reliable ? OpKind::kSendReliable : OpKind::kSend;
        send.event = event_;
        send.comm = c->id;
        send.peer = recv_rank;
        send.tag = tag;
        send.bytes = bytes;
        send.msg = msgs.back();
        ops_of(c->members[static_cast<std::size_t>(senders[i])])
            .push_back(send);
      }
      for (std::size_t i = 0; i < k; ++i) {
        Op recv;
        recv.kind = reliable ? OpKind::kRecvReliable : OpKind::kRecv;
        recv.event = event_;
        recv.comm = c->id;
        recv.peer = minimpi::kAnySource;
        recv.tag = tag;
        recv.bytes = bytes;
        recv.wsources = senders;
        recv.wmsgs = msgs;
        ops_of(wrecv).push_back(recv);
      }
    } else {
      // One sender, k messages with distinct tags; non-overtaking delivery
      // makes "recv i sees tag base+i" a hard guarantee the wildcard-tag
      // matching must honour.
      int send_rank = static_cast<int>(rng_.uniform_index(pc - 1));
      if (send_rank >= recv_rank) ++send_rank;
      const int wsend = c->members[static_cast<std::size_t>(send_rank)];
      const std::size_t k = 2 + rng_.uniform_index(3);
      for (std::size_t i = 0; i < k; ++i) {
        Op send;
        send.kind = reliable ? OpKind::kSendReliable : OpKind::kSend;
        send.event = event_;
        send.comm = c->id;
        send.peer = recv_rank;
        send.tag = base_tag() + static_cast<int>(i);
        send.bytes = bytes;
        send.msg = msg_id(static_cast<int>(i));
        ops_of(wsend).push_back(send);
      }
      for (std::size_t i = 0; i < k; ++i) {
        Op recv;
        recv.kind = reliable ? OpKind::kRecvReliable : OpKind::kRecv;
        recv.event = event_;
        recv.comm = c->id;
        recv.peer = send_rank;
        recv.tag = minimpi::kAnyTag;
        recv.bytes = bytes;
        recv.msg = msg_id(static_cast<int>(i));
        recv.expect_source = send_rank;
        recv.expect_tag = base_tag() + static_cast<int>(i);
        ops_of(wrecv).push_back(recv);
      }
    }
  }

  void emit_collective() {
    const CommInfo* c = pick_comm(1);
    DIPDC_REQUIRE(c != nullptr, "world comm always exists");
    const auto pc = c->members.size();
    static constexpr OpKind kKinds[] = {
        OpKind::kBarrier,   OpKind::kBcast,     OpKind::kScatter,
        OpKind::kScatterv,  OpKind::kGather,    OpKind::kGatherv,
        OpKind::kAllgather, OpKind::kAllgatherv, OpKind::kReduce,
        OpKind::kAllreduce, OpKind::kScan,      OpKind::kAlltoall,
        OpKind::kAlltoallv,
    };
    Op op;
    op.kind = kKinds[rng_.uniform_index(std::size(kKinds))];
    op.event = event_;
    op.comm = c->id;
    op.root = static_cast<int>(rng_.uniform_index(pc));
    op.elem_size = rng_.uniform() < 0.5 ? 1 : 8;
    op.elems = 1 + static_cast<std::uint32_t>(rng_.uniform_index(64));
    op.rop = static_cast<ReduceKind>(rng_.uniform_index(4));
    switch (op.kind) {
      case OpKind::kReduce:
      case OpKind::kAllreduce:
      case OpKind::kScan:
        op.elem_size = 8;  // reductions operate on std::uint64_t
        break;
      case OpKind::kAlltoall:
        op.elems = 1 + static_cast<std::uint32_t>(rng_.uniform_index(16));
        break;
      case OpKind::kScatterv:
      case OpKind::kGatherv:
      case OpKind::kAllgatherv:
        for (std::size_t i = 0; i < pc; ++i) {
          op.counts.push_back(
              static_cast<std::uint32_t>(rng_.uniform_index(33)));
        }
        break;
      case OpKind::kAlltoallv:
        break;  // per-member rows drawn below
      default:
        break;
    }
    if (op.kind == OpKind::kAlltoallv) {
      // Full count matrix m[i][j]: rank i sends m[i][j] elements to rank j.
      std::vector<std::vector<std::uint32_t>> m(pc);
      for (std::size_t i = 0; i < pc; ++i) {
        for (std::size_t j = 0; j < pc; ++j) {
          m[i].push_back(static_cast<std::uint32_t>(rng_.uniform_index(17)));
        }
      }
      for (std::size_t i = 0; i < pc; ++i) {
        Op mine = op;
        mine.counts = m[i];  // send counts (row)
        for (std::size_t j = 0; j < pc; ++j) {
          mine.counts2.push_back(m[j][i]);  // recv counts (column)
        }
        ops_of(c->members[i]).push_back(mine);
      }
      return;
    }
    for (std::size_t i = 0; i < pc; ++i) {
      ops_of(c->members[i]).push_back(op);
    }
  }

  void emit_icollective() {
    const CommInfo* c = pick_comm(1);
    DIPDC_REQUIRE(c != nullptr, "world comm always exists");
    // The issue needs a request slot on every member; if any member is
    // out, the whole group degrades to a blocking collective (slot
    // availability is generator state, so the choice is deterministic).
    for (const int w : c->members) {
      if (slots_[static_cast<std::size_t>(w)].free.empty()) {
        emit_collective();
        return;
      }
    }
    const auto pc = c->members.size();
    static constexpr OpKind kKinds[] = {
        OpKind::kIbcast, OpKind::kIreduce, OpKind::kIallreduce,
        OpKind::kIallgatherv,
    };
    Op op;
    op.kind = kKinds[rng_.uniform_index(std::size(kKinds))];
    op.event = event_;
    op.comm = c->id;
    op.root = static_cast<int>(rng_.uniform_index(pc));
    op.elem_size = rng_.uniform() < 0.5 ? 1 : 8;
    op.elems = 1 + static_cast<std::uint32_t>(rng_.uniform_index(64));
    op.rop = static_cast<ReduceKind>(rng_.uniform_index(4));
    if (op.kind == OpKind::kIreduce || op.kind == OpKind::kIallreduce) {
      op.elem_size = 8;  // reductions operate on std::uint64_t
    }
    if (op.kind == OpKind::kIallgatherv) {
      for (std::size_t i = 0; i < pc; ++i) {
        op.counts.push_back(
            static_cast<std::uint32_t>(rng_.uniform_index(33)));
      }
    }
    // All members wait at one shared due event.  A member's wait may have
    // to forward for its peers (tree algorithms progress only inside
    // waits), so the waits act like one blocking collective at that event
    // and the sequential-schedule deadlock argument carries over.
    const std::uint32_t due =
        event_ + 1 + static_cast<std::uint32_t>(rng_.uniform_index(3));
    for (const int w : c->members) {
      Op mine = op;
      mine.req = alloc_slot(w);
      ops_of(w).push_back(mine);
      pending_.push_back({w, mine.req, c->id, event_, due});
    }
  }

  void emit_sendrecv() {
    const CommInfo* c = pick_comm(2);
    DIPDC_REQUIRE(c != nullptr, "world always has >= 2 ranks");
    const auto pc = c->members.size();
    const int a = static_cast<int>(rng_.uniform_index(pc));
    int b = static_cast<int>(rng_.uniform_index(pc - 1));
    if (b >= a) ++b;
    const int tag_ab = base_tag();
    const int tag_ba = base_tag() + 1;
    const std::uint32_t bytes_ab = draw_bytes();
    const std::uint32_t bytes_ba = draw_bytes();
    const std::uint64_t msg_ab = msg_id(0);
    const std::uint64_t msg_ba = msg_id(1);

    Op opa;
    opa.kind = OpKind::kSendrecv;
    opa.event = event_;
    opa.comm = c->id;
    opa.peer = b;
    opa.tag = tag_ab;
    opa.bytes = bytes_ab;
    opa.msg = msg_ab;
    opa.peer2 = b;
    opa.tag2 = tag_ba;
    opa.bytes2 = bytes_ba;
    opa.msg2 = msg_ba;
    opa.expect_source = b;
    opa.expect_tag = tag_ba;
    ops_of(c->members[static_cast<std::size_t>(a)]).push_back(opa);

    Op opb;
    opb.kind = OpKind::kSendrecv;
    opb.event = event_;
    opb.comm = c->id;
    opb.peer = a;
    opb.tag = tag_ba;
    opb.bytes = bytes_ba;
    opb.msg = msg_ba;
    opb.peer2 = a;
    opb.tag2 = tag_ab;
    opb.bytes2 = bytes_ab;
    opb.msg2 = msg_ab;
    opb.expect_source = a;
    opb.expect_tag = tag_ab;
    ops_of(c->members[static_cast<std::size_t>(b)]).push_back(opb);
  }

  void emit_split() {
    const CommInfo* picked = pick_comm(2);
    if (picked == nullptr) {
      emit_collective();
      return;
    }
    // Copy: pushing child comms below reallocates p_.comms.
    const CommInfo parent = *picked;
    const auto pc = parent.members.size();
    const std::size_t ncolors =
        1 + rng_.uniform_index(std::min<std::size_t>(3, pc));
    struct Member {
      int parent_rank;
      int color;
      int key;
    };
    std::vector<Member> members;
    for (std::size_t i = 0; i < pc; ++i) {
      members.push_back({static_cast<int>(i),
                         static_cast<int>(rng_.uniform_index(ncolors)),
                         static_cast<int>(rng_.uniform_index(4))});
    }
    // One child comm per non-empty color, members ordered by (key, parent
    // rank) — mirroring Comm::split()'s ordering rule.
    std::vector<int> result_comm(pc, 0);
    for (std::size_t color = 0; color < ncolors; ++color) {
      std::vector<Member> group;
      for (const Member& m : members) {
        if (m.color == static_cast<int>(color)) group.push_back(m);
      }
      if (group.empty()) continue;
      std::stable_sort(group.begin(), group.end(),
                       [](const Member& x, const Member& y) {
                         return x.key != y.key ? x.key < y.key
                                               : x.parent_rank < y.parent_rank;
                       });
      CommInfo child;
      child.id = static_cast<int>(p_.comms.size());
      child.parent = parent.id;
      child.created_by = event_;
      for (const Member& m : group) {
        child.members.push_back(
            parent.members[static_cast<std::size_t>(m.parent_rank)]);
        result_comm[static_cast<std::size_t>(m.parent_rank)] = child.id;
      }
      p_.comms.push_back(std::move(child));
    }
    for (std::size_t i = 0; i < pc; ++i) {
      Op op;
      op.kind = OpKind::kSplit;
      op.event = event_;
      op.comm = parent.id;
      op.color = members[i].color;
      op.key = members[i].key;
      op.result_comm = result_comm[i];
      ops_of(parent.members[i]).push_back(op);
    }
  }

  void emit_container() {
    // At most three live containers per program; every op is carried by
    // every member of the owning comm (create and repartition because they
    // are collective, set_weight so the owner — wherever the element lives
    // after earlier repartitions — can apply it without the generator
    // mirroring the cut evolution).
    const bool create =
        containers_.empty() ||
        (containers_.size() < 3 && rng_.uniform() < 0.3);
    if (create) {
      const CommInfo* c = pick_comm(1);
      DIPDC_REQUIRE(c != nullptr, "world comm always exists");
      ContainerState st;
      st.id = next_container_++;
      st.comm = c->id;
      st.total = 8 + static_cast<std::uint32_t>(rng_.uniform_index(57));
      Op op;
      op.kind = OpKind::kContainerCreate;
      op.event = event_;
      op.comm = c->id;
      op.color = st.id;
      op.elems = st.total;
      for (const int w : c->members) ops_of(w).push_back(op);
      containers_.push_back(st);
      return;
    }
    const ContainerState& st =
        containers_[rng_.uniform_index(containers_.size())];
    const CommInfo& c = p_.comm_info(st.comm);
    Op op;
    op.event = event_;
    op.comm = st.comm;
    op.color = st.id;
    if (rng_.uniform() < 0.6) {
      op.kind = OpKind::kContainerSetWeight;
      op.msg = rng_.uniform_index(st.total);  // global element index
      op.amount = 0.25 * static_cast<double>(1 + rng_.uniform_index(64));
    } else {
      op.kind = OpKind::kContainerRepartition;
    }
    for (const int w : c.members) ops_of(w).push_back(op);
  }

  void emit_sim() {
    const int rank =
        static_cast<int>(rng_.uniform_index(static_cast<std::size_t>(
            p_.nranks)));
    Op op;
    op.event = event_;
    if (rng_.uniform() < 0.5) {
      op.kind = OpKind::kSimCompute;
      op.amount = 1e3 * static_cast<double>(1 + rng_.uniform_index(1000));
    } else {
      op.kind = OpKind::kSimAdvance;
      op.amount = 1e-6 * static_cast<double>(1 + rng_.uniform_index(1000));
    }
    ops_of(rank).push_back(op);
  }

  struct ContainerState {
    int id = 0;
    int comm = 0;
    std::uint32_t total = 0;
  };

  GenConfig cfg_;
  support::Xoshiro256 rng_;
  Program p_;
  std::uint32_t event_ = 0;
  std::vector<SlotState> slots_;
  std::vector<PendingWait> pending_;
  std::vector<ContainerState> containers_;
  int next_container_ = 1;
};

}  // namespace

Program generate(std::uint64_t seed, const GenConfig& cfg) {
  return Generator(seed, cfg).run();
}

}  // namespace dipdc::fuzz
