#include "fuzz/program.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_set>

#include "support/error.hpp"

namespace dipdc::fuzz {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kSend: return "send";
    case OpKind::kIsend: return "isend";
    case OpKind::kSendReliable: return "send_reliable";
    case OpKind::kRecv: return "recv";
    case OpKind::kIrecv: return "irecv";
    case OpKind::kProbeRecv: return "probe+recv";
    case OpKind::kRecvReliable: return "recv_reliable";
    case OpKind::kWait: return "wait";
    case OpKind::kWaitAll: return "wait_all";
    case OpKind::kSendrecv: return "sendrecv";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kBcast: return "bcast";
    case OpKind::kScatter: return "scatter";
    case OpKind::kScatterv: return "scatterv";
    case OpKind::kGather: return "gather";
    case OpKind::kGatherv: return "gatherv";
    case OpKind::kAllgather: return "allgather";
    case OpKind::kAllgatherv: return "allgatherv";
    case OpKind::kReduce: return "reduce";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kScan: return "scan";
    case OpKind::kAlltoall: return "alltoall";
    case OpKind::kAlltoallv: return "alltoallv";
    case OpKind::kSplit: return "split";
    case OpKind::kSimCompute: return "sim_compute";
    case OpKind::kSimAdvance: return "sim_advance";
    case OpKind::kContainerCreate: return "container_create";
    case OpKind::kContainerSetWeight: return "container_set_weight";
    case OpKind::kContainerRepartition: return "container_repartition";
    case OpKind::kIbcast: return "ibcast";
    case OpKind::kIreduce: return "ireduce";
    case OpKind::kIallreduce: return "iallreduce";
    case OpKind::kIallgatherv: return "iallgatherv";
  }
  return "?";
}

std::size_t Program::op_count() const {
  std::size_t n = 0;
  for (const auto& rank_ops : ops) n += rank_ops.size();
  return n;
}

bool Program::has_any_source_window() const {
  for (const auto& rank_ops : ops) {
    for (const Op& op : rank_ops) {
      if ((op.kind == OpKind::kRecv || op.kind == OpKind::kIrecv ||
           op.kind == OpKind::kRecvReliable) &&
          op.peer == minimpi::kAnySource) {
        return true;
      }
    }
  }
  return false;
}

bool Program::has_racy_irecv_window() const {
  for (const auto& rank_ops : ops) {
    std::set<int> posted;  // slots holding an irecv or icollective
    for (const Op& op : rank_ops) {
      switch (op.kind) {
        case OpKind::kIrecv:
        // An in-flight icollective holds at most one posted receive from
        // issue until its wait, exactly like an irecv.
        case OpKind::kIbcast:
        case OpKind::kIreduce:
        case OpKind::kIallreduce:
        case OpKind::kIallgatherv:
          posted.insert(op.req);
          // Two posted receives complete in sender real-time order.
          if (posted.size() > 1) return true;
          break;
        case OpKind::kWait:
          posted.erase(op.req);
          break;
        case OpKind::kWaitAll:
          for (int s = op.req; s < op.req + op.nreq; ++s) posted.erase(s);
          break;
        case OpKind::kSend:
        case OpKind::kSendReliable:
        case OpKind::kIsend:
        case OpKind::kSimCompute:
        case OpKind::kSimAdvance:
        case OpKind::kContainerCreate:
        case OpKind::kContainerSetWeight:
          // No receive-side link accounting at this rank's mailbox
          // (send_reliable's ack bypasses the ingress link).
          break;
        default:
          // Blocking receives, probe, sendrecv, split, collectives and
          // repartition all serialize the ingress link in program order;
          // a concurrently posted irecv accounts at sender-timed delivery
          // instead, so the interleaving (and the simulated clock) depends
          // on the real schedule.
          if (!posted.empty()) return true;
          break;
      }
    }
  }
  return false;
}

const CommInfo& Program::comm_info(int id) const {
  for (const CommInfo& c : comms) {
    if (c.id == id) return c;
  }
  DIPDC_REQUIRE(false, "unknown communicator id in fuzz program");
  return comms.front();  // unreachable
}

Program filter_events(const Program& full,
                      const std::vector<std::uint32_t>& keep) {
  // Communicator dependency closure: an event touching comm C requires the
  // whole chain of split events that created C (and C's ancestors).  Build
  // comm -> required split events, then iterate to a fixed point because a
  // split event itself operates on the parent comm.  Container ops have the
  // analogous dependency on their kContainerCreate event (which in turn
  // pulls its comm's split chain through the same fixed point).
  std::unordered_set<std::uint32_t> kept(keep.begin(), keep.end());
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_set<int> live_comms;       // comms some kept event touches
    std::unordered_set<int> live_containers;  // container ids likewise
    for (const auto& rank_ops : full.ops) {
      for (const Op& op : rank_ops) {
        if (!kept.count(op.event)) continue;
        live_comms.insert(op.comm);
        if (op.kind == OpKind::kSplit) live_comms.insert(op.result_comm);
        if (op.kind == OpKind::kContainerSetWeight ||
            op.kind == OpKind::kContainerRepartition) {
          live_containers.insert(op.color);
        }
      }
    }
    for (const CommInfo& c : full.comms) {
      if (c.parent < 0 || !live_comms.count(c.id)) continue;
      if (!kept.count(c.created_by)) {
        kept.insert(c.created_by);
        changed = true;
      }
    }
    for (const auto& rank_ops : full.ops) {
      for (const Op& op : rank_ops) {
        if (op.kind != OpKind::kContainerCreate) continue;
        if (!live_containers.count(op.color) || kept.count(op.event)) continue;
        kept.insert(op.event);
        changed = true;
      }
    }
  }

  Program out = full;
  out.ops.assign(static_cast<std::size_t>(full.nranks), {});
  for (int r = 0; r < full.nranks; ++r) {
    for (const Op& op : full.ops[static_cast<std::size_t>(r)]) {
      if (kept.count(op.event)) {
        out.ops[static_cast<std::size_t>(r)].push_back(op);
      }
    }
  }
  out.kept_events.assign(kept.begin(), kept.end());
  std::sort(out.kept_events.begin(), out.kept_events.end());
  return out;
}

Program trim_trailing_ranks(const Program& p) {
  int last = p.nranks - 1;
  const int kill = p.options.faults.kill_rank;
  while (last > 0 && p.ops[static_cast<std::size_t>(last)].empty() &&
         last != kill) {
    --last;
  }
  if (last == p.nranks - 1) return p;
  Program out = p;
  out.nranks = last + 1;
  out.ops.resize(static_cast<std::size_t>(out.nranks));
  return out;
}

namespace {

void describe_op(std::ostringstream& os, const Op& op) {
  os << "e" << op.event << " " << op_kind_name(op.kind);
  if (op.comm != 0) os << " comm" << op.comm;
  switch (op.kind) {
    case OpKind::kSend:
    case OpKind::kIsend:
    case OpKind::kSendReliable:
      os << " dst=" << op.peer << " tag=" << op.tag << " bytes=" << op.bytes;
      if (op.req >= 0) os << " req=" << op.req;
      break;
    case OpKind::kRecv:
    case OpKind::kIrecv:
    case OpKind::kProbeRecv:
    case OpKind::kRecvReliable:
      os << " src=" << (op.peer == minimpi::kAnySource ? "*" :
                        std::to_string(op.peer))
         << " tag=" << (op.tag == minimpi::kAnyTag ? "*" :
                        std::to_string(op.tag))
         << " bytes=" << op.bytes;
      if (op.req >= 0) os << " req=" << op.req;
      break;
    case OpKind::kWait:
      os << " req=" << op.req;
      break;
    case OpKind::kWaitAll:
      os << " req=[" << op.req << ".." << op.req + op.nreq - 1 << "]";
      break;
    case OpKind::kSendrecv:
      os << " dst=" << op.peer << " stag=" << op.tag << " sbytes=" << op.bytes
         << " src=" << op.peer2 << " rtag=" << op.tag2
         << " rbytes=" << op.bytes2;
      break;
    case OpKind::kBcast:
    case OpKind::kScatter:
    case OpKind::kGather:
    case OpKind::kReduce:
      os << " root=" << op.root << " elems=" << op.elems << "x"
         << op.elem_size;
      break;
    case OpKind::kIbcast:
    case OpKind::kIreduce:
      os << " root=" << op.root << " elems=" << op.elems << "x"
         << op.elem_size << " req=" << op.req;
      break;
    case OpKind::kIallreduce:
      os << " elems=" << op.elems << "x" << op.elem_size << " req=" << op.req;
      break;
    case OpKind::kIallgatherv:
      os << " counts=[";
      for (std::size_t i = 0; i < op.counts.size(); ++i) {
        os << (i ? "," : "") << op.counts[i];
      }
      os << "]x" << op.elem_size << " req=" << op.req;
      break;
    case OpKind::kScatterv:
    case OpKind::kGatherv:
    case OpKind::kAllgatherv:
      os << (op.kind == OpKind::kAllgatherv ? "" : " root=")
         << (op.kind == OpKind::kAllgatherv ? "" : std::to_string(op.root))
         << " counts=[";
      for (std::size_t i = 0; i < op.counts.size(); ++i) {
        os << (i ? "," : "") << op.counts[i];
      }
      os << "]x" << op.elem_size;
      break;
    case OpKind::kAllgather:
    case OpKind::kAllreduce:
    case OpKind::kScan:
    case OpKind::kAlltoall:
    case OpKind::kAlltoallv:
      os << " elems=" << op.elems << "x" << op.elem_size;
      break;
    case OpKind::kSplit:
      os << " color=" << op.color << " key=" << op.key << " -> comm"
         << op.result_comm;
      break;
    case OpKind::kSimCompute:
    case OpKind::kSimAdvance:
      os << " amount=" << op.amount;
      break;
    case OpKind::kContainerCreate:
      os << " cid=" << op.color << " total=" << op.elems;
      break;
    case OpKind::kContainerSetWeight:
      os << " cid=" << op.color << " elem=" << op.msg << " w=" << op.amount;
      break;
    case OpKind::kContainerRepartition:
      os << " cid=" << op.color;
      break;
    case OpKind::kBarrier:
      break;
  }
  os << "\n";
}

}  // namespace

std::string describe(const Program& p) {
  std::ostringstream os;
  os << "program seed=" << p.seed << " fault_seed=" << p.fault_seed
     << " ranks=" << p.nranks << " events=" << p.num_events
     << " ops=" << p.op_count();
  if (!p.fault_spec.empty()) os << " faults=\"" << p.fault_spec << "\"";
  if (!p.kept_events.empty()) {
    os << " kept=[";
    for (std::size_t i = 0; i < p.kept_events.size(); ++i) {
      os << (i ? "," : "") << p.kept_events[i];
    }
    os << "]";
  }
  os << "\n";
  for (int r = 0; r < p.nranks; ++r) {
    os << "rank " << r << ":\n";
    for (const Op& op : p.ops[static_cast<std::size_t>(r)]) {
      os << "  ";
      describe_op(os, op);
    }
  }
  return os.str();
}

namespace {

std::string cpp_int(int v) {
  if (v == minimpi::kAnySource) return "minimpi::kAnySource";
  return std::to_string(v);
}

std::string cpp_tag(int v) {
  if (v == minimpi::kAnyTag) return "minimpi::kAnyTag";
  return std::to_string(v);
}

/// Emits the per-rank body of the repro: a switch over comm.rank() with the
/// ops of each rank written against the public minimpi API.
void emit_rank_body(std::ostringstream& os, const Program& p, int rank) {
  const std::string ind = "      ";
  // Map fuzzer comm ids to local variable names: comm 0 is `comm` itself,
  // split results are `c<id>` (std::optional<minimpi::Comm> would not work:
  // Comm is move-only and returned by value, so use plain locals in order).
  auto comm_var = [](int id) {
    if (id == 0) return std::string("comm");
    std::string name = "c";
    name += std::to_string(id);
    return name;
  };
  bool used_req = false;
  bool used_icoll = false;
  for (const Op& op : p.ops[static_cast<std::size_t>(rank)]) {
    if (op.req >= 0 || op.kind == OpKind::kWaitAll) used_req = true;
    if (op.kind == OpKind::kIbcast || op.kind == OpKind::kIreduce ||
        op.kind == OpKind::kIallreduce ||
        op.kind == OpKind::kIallgatherv) {
      used_icoll = true;
    }
  }
  if (used_req) {
    os << ind << "std::vector<minimpi::Request> reqs(16);\n";
  }
  if (used_icoll) {
    os << ind << "std::vector<fuzz::IcollBuffers> ibufs(16);\n";
  }
  for (const Op& op : p.ops[static_cast<std::size_t>(rank)]) {
    const std::string c = comm_var(op.comm) + ".";
    os << ind << "// e" << op.event << "\n";
    switch (op.kind) {
      case OpKind::kSend:
        os << ind << "{ auto m = fuzz::message_bytes(kSeed, " << op.msg
           << "ull, " << op.bytes << ");\n"
           << ind << "  " << c << "send(std::span<const std::uint8_t>(m), "
           << op.peer << ", " << op.tag << "); }\n";
        break;
      case OpKind::kSendReliable:
        os << ind << "{ auto m = fuzz::message_bytes(kSeed, " << op.msg
           << "ull, " << op.bytes << ");\n"
           << ind << "  " << c
           << "send_reliable(std::span<const std::uint8_t>(m), " << op.peer
           << ", " << op.tag << "); }\n";
        break;
      case OpKind::kIsend:
        os << ind << "{ static auto m = fuzz::message_bytes(kSeed, " << op.msg
           << "ull, " << op.bytes << ");\n"
           << ind << "  reqs[" << op.req << "] = " << c
           << "isend(std::span<const std::uint8_t>(m), " << op.peer << ", "
           << op.tag << "); }\n";
        break;
      case OpKind::kRecv:
        os << ind << "{ std::vector<std::uint8_t> m(" << op.bytes << ");\n"
           << ind << "  " << c << "recv(std::span<std::uint8_t>(m), "
           << cpp_int(op.peer) << ", " << cpp_tag(op.tag) << "); }\n";
        break;
      case OpKind::kRecvReliable:
        os << ind << "{ std::vector<std::uint8_t> m(" << op.bytes << ");\n"
           << ind << "  " << c << "recv_reliable(std::span<std::uint8_t>(m), "
           << cpp_int(op.peer) << ", " << cpp_tag(op.tag) << "); }\n";
        break;
      case OpKind::kProbeRecv:
        os << ind << "{ auto st = " << c << "probe(" << cpp_int(op.peer)
           << ", " << cpp_tag(op.tag) << ");\n"
           << ind << "  std::vector<std::uint8_t> m(st.bytes);\n"
           << ind << "  " << c << "recv(std::span<std::uint8_t>(m), "
           << "st.source, st.tag); }\n";
        break;
      case OpKind::kIrecv:
        os << ind << "{ static std::vector<std::uint8_t> m(" << op.bytes
           << ");\n"
           << ind << "  reqs[" << op.req << "] = " << c
           << "irecv(std::span<std::uint8_t>(m), " << cpp_int(op.peer) << ", "
           << cpp_tag(op.tag) << "); }\n";
        break;
      case OpKind::kWait:
        os << ind << comm_var(op.comm) << ".wait(reqs[" << op.req << "]);\n";
        break;
      case OpKind::kWaitAll:
        os << ind << "for (int i = " << op.req << "; i < "
           << op.req + op.nreq << "; ++i) " << comm_var(op.comm)
           << ".wait(reqs[i]);\n";
        break;
      case OpKind::kSendrecv:
        os << ind << "{ auto s = fuzz::message_bytes(kSeed, " << op.msg
           << "ull, " << op.bytes << ");\n"
           << ind << "  std::vector<std::uint8_t> r(" << op.bytes2 << ");\n"
           << ind << "  " << c << "sendrecv(std::span<const std::uint8_t>(s), "
           << op.peer << ", " << op.tag << ", std::span<std::uint8_t>(r), "
           << cpp_int(op.peer2) << ", " << cpp_tag(op.tag2) << "); }\n";
        break;
      case OpKind::kBarrier:
        os << ind << c << "barrier();\n";
        break;
      default:
        // Remaining collectives follow the same pattern; the repro keeps
        // them explicit but compact via the run_collective helper emitted
        // in the preamble.
        os << ind << "run_collective(" << comm_var(op.comm) << ", kSeed, "
           << static_cast<int>(op.kind) << ", " << op.event << "ull, "
           << op.elems << ", " << op.elem_size << ", " << op.root << ", "
           << static_cast<int>(op.rop) << ", {";
        for (std::size_t i = 0; i < op.counts.size(); ++i) {
          os << (i ? "," : "") << op.counts[i];
        }
        os << "}, {";
        for (std::size_t i = 0; i < op.counts2.size(); ++i) {
          os << (i ? "," : "") << op.counts2[i];
        }
        os << "});\n";
        break;
      case OpKind::kSplit:
        os << ind << "minimpi::Comm " << comm_var(op.result_comm) << " = "
           << c << "split(" << op.color << ", " << op.key << ");\n";
        break;
      case OpKind::kSimCompute:
        os << ind << c << "sim_compute(" << op.amount << ", " << op.amount
           << ");\n";
        break;
      case OpKind::kSimAdvance:
        os << ind << c << "sim_advance(" << op.amount << ");\n";
        break;
      case OpKind::kContainerCreate:
        os << ind << "auto k" << op.color
           << " = container::Container<std::uint64_t>::from_local("
           << comm_var(op.comm) << ", " << op.elems << ", 1,\n"
           << ind << "    fuzz::container_block(kSeed, " << op.color << ", "
           << op.elems << ", " << comm_var(op.comm) << ".size(), "
           << comm_var(op.comm) << ".rank()));\n";
        break;
      case OpKind::kContainerSetWeight:
        os << ind << "{ const std::size_t g = " << op.msg << "ull;\n"
           << ind << "  if (g >= k" << op.color << ".global_begin() && g < k"
           << op.color << ".global_begin() + k" << op.color << ".count())\n"
           << ind << "    k" << op.color << ".set_weight(g - k" << op.color
           << ".global_begin(), " << op.amount << "); }\n";
        break;
      case OpKind::kContainerRepartition:
        os << ind << "(void)k" << op.color << ".repartition();\n";
        break;
      case OpKind::kIbcast:
      case OpKind::kIreduce:
      case OpKind::kIallreduce:
      case OpKind::kIallgatherv:
        // Issue through the shared helper; the deferred kWait above
        // completes the slot like any other request.
        os << ind << "reqs[" << op.req << "] = fuzz::issue_icollective("
           << comm_var(op.comm) << ", kSeed, " << static_cast<int>(op.kind)
           << ", " << op.event << "ull, " << op.elems << ", " << op.elem_size
           << ", " << op.root << ", " << static_cast<int>(op.rop) << ", {";
        for (std::size_t i = 0; i < op.counts.size(); ++i) {
          os << (i ? "," : "") << op.counts[i];
        }
        os << "}, ibufs[" << op.req << "]);\n";
        break;
    }
  }
}

}  // namespace

std::string to_cpp(const Program& p) {
  std::ostringstream os;
  os << "// Auto-generated mpifuzz repro: seed=" << p.seed
     << " fault_seed=" << p.fault_seed << " ranks=" << p.nranks;
  if (!p.fault_spec.empty()) os << " faults=\"" << p.fault_spec << "\"";
  bool has_container_ops = false;
  for (const auto& rank_ops : p.ops) {
    for (const Op& op : rank_ops) {
      if (op.kind == OpKind::kContainerCreate ||
          op.kind == OpKind::kContainerSetWeight ||
          op.kind == OpKind::kContainerRepartition) {
        has_container_ops = true;
      }
    }
  }
  os << "\n"
     << "// Build inside the dipdc tree and link against minimpi + fuzz.\n"
     << "#include <cstdint>\n#include <span>\n#include <vector>\n\n"
     << (has_container_ops ? "#include \"container/container.hpp\"\n" : "")
     << "#include \"fuzz/content.hpp\"\n"
     << "#include \"fuzz/repro_util.hpp\"\n"
     << "#include \"minimpi/comm.hpp\"\n"
     << "#include \"minimpi/faults.hpp\"\n"
     << "#include \"minimpi/runtime.hpp\"\n\n"
     << "using namespace dipdc;\nusing dipdc::fuzz::run_collective;\n\n"
     << "int main() {\n"
     << "  constexpr std::uint64_t kSeed = " << p.seed << "ull;\n"
     << "  minimpi::RuntimeOptions opt;\n"
     << "  opt.record_trace = true;\n  opt.record_channels = true;\n";
  // The eager/rendezvous switchover and collective algorithm choices can be
  // load-bearing for a bug; replicate the generated options exactly.
  const auto algo = [](minimpi::CollectiveAlgorithm a) {
    switch (a) {
      case minimpi::CollectiveAlgorithm::kAuto: return "kAuto";
      case minimpi::CollectiveAlgorithm::kClassic: return "kClassic";
      case minimpi::CollectiveAlgorithm::kTree: return "kTree";
      case minimpi::CollectiveAlgorithm::kRecursiveDoubling:
        return "kRecursiveDoubling";
      case minimpi::CollectiveAlgorithm::kRing: return "kRing";
    }
    return "kAuto";
  };
  os << "  opt.eager_threshold = " << p.options.eager_threshold << ";\n"
     << "  opt.collectives.scatter = minimpi::CollectiveAlgorithm::"
     << algo(p.options.collectives.scatter) << ";\n"
     << "  opt.collectives.gather = minimpi::CollectiveAlgorithm::"
     << algo(p.options.collectives.gather) << ";\n"
     << "  opt.collectives.allreduce = minimpi::CollectiveAlgorithm::"
     << algo(p.options.collectives.allreduce) << ";\n"
     << "  opt.collectives.allgather = minimpi::CollectiveAlgorithm::"
     << algo(p.options.collectives.allgather) << ";\n";
  if (!p.fault_spec.empty()) {
    os << "  minimpi::parse_fault_spec(\"" << p.fault_spec
       << "\", opt.faults, opt.reliable);\n"
       << "  opt.faults.seed = " << p.fault_seed << "ull;\n";
  }
  os << "  minimpi::run(" << p.nranks << ", [&](minimpi::Comm& comm) {\n"
     << "    switch (comm.rank()) {\n";
  for (int r = 0; r < p.nranks; ++r) {
    os << "    case " << r << ": {\n";
    emit_rank_body(os, p, r);
    os << "      break;\n    }\n";
  }
  os << "    default: break;\n    }\n  }, opt);\n  return 0;\n}\n";
  return os.str();
}

}  // namespace dipdc::fuzz
