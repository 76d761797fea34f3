// Per-layer breakdown of one traced call.
//
// The call's wall time telescopes into three disjoint parts on the
// slowest rank (the one whose body ran longest):
//
//   call wall = run overhead          (run() wall minus that rank's body)
//             + that rank's phases    (module phase spans, wall stamps)
//             + unattributed          (body time no phase span covers)
//
// Category spans (p2p, collective, wait) nest inside phases and are
// summed over all ranks instead; they answer "which runtime layer", the
// telescoping parts answer "which module step".
#include <algorithm>
#include <cmath>
#include <map>

#include "bench.hpp"

namespace perfbench {

const std::vector<std::string>& phase_names() {
  static const std::vector<std::string> names = {
      // distmatrix
      "scatter", "compute", "combine",
      // kmeans_tcp
      "distribute", "assign", "update",
      // sort_stream
      "stream_read", "stream_comm", "stream_compute", "local_sort",
      // serve_hotspot
      "serve.scatter", "serve.execute", "serve.gather"};
  return names;
}

Breakdown break_down(const Call& call) {
  Breakdown b;
  std::size_t slowest = 0;
  for (std::size_t r = 0; r < call.bodies.size(); ++r) {
    const auto [begin, end] = call.bodies[r];
    if (end - begin > b.slowest_body_s) {
      b.slowest_body_s = end - begin;
      slowest = r;
    }
  }
  b.run_overhead_s = call.wall_s - b.slowest_body_s;

  std::map<std::string, std::vector<double>> per_rank;  // phase -> rank sums
  std::vector<std::pair<double, double>> spans;         // slowest rank's
  for (const mpi::TraceEvent& e : call.result.trace) {
    b.events += 1.0;
    const double d = e.wall_end - e.wall_start;
    switch (e.cat) {
      case dipdc::obs::Category::kPhase: {
        auto& sums = per_rank[std::string(e.name)];
        sums.resize(call.bodies.size(), 0.0);
        sums[static_cast<std::size_t>(e.rank)] += d;
        if (static_cast<std::size_t>(e.rank) == slowest) {
          spans.emplace_back(e.wall_start, e.wall_end);
        }
        break;
      }
      case dipdc::obs::Category::kP2P: b.p2p_s += d; break;
      case dipdc::obs::Category::kCollective: b.collective_s += d; break;
      case dipdc::obs::Category::kWait: b.wait_s += d; break;
      default: break;
    }
  }
  for (const auto& [name, sums] : per_rank) {
    b.phase_wall.emplace_back(name, *std::max_element(sums.begin(), sums.end()));
    b.slowest_phase.emplace_back(name, sums[slowest]);
  }

  std::sort(spans.begin(), spans.end());
  double prev_end = -1.0;
  for (const auto& [start, end] : spans) {
    if (end < start) b.inconsistency = "a phase span ends before it starts";
    if (start < prev_end) b.inconsistency = "phase spans overlap";
    prev_end = std::max(prev_end, end);
    b.slowest_phases_s += end - start;
  }
  b.unattributed_s = b.slowest_body_s - b.slowest_phases_s;

  const double sum = b.run_overhead_s + b.slowest_phases_s + b.unattributed_s;
  if (b.run_overhead_s < 0.0) {
    b.inconsistency = "a rank body outlasts run()";
  } else if (b.unattributed_s < 0.0) {
    b.inconsistency = "phases outlast the slowest rank's body";
  } else if (std::abs(sum - call.wall_s) > 1e-9 * call.wall_s) {
    b.inconsistency = "overhead + phases + unattributed != call wall";
  }
  return b;
}

}  // namespace perfbench
