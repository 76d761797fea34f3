// Shared declarations of the module benchmark (see perfbench/README.md).
//
// A workload owns one module's inputs and outputs.  One *call* is one
// minimpi::run of the module's public entry point on kRanks ranks.
// main.cpp times calls with tracing off for the end-to-end
// metrics, and runs traced calls separately for the per-layer breakdown
// (breakdown.cpp).  Every call's output is checked, outside the timed
// region, against a reference the workload computes once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/runtime.hpp"

namespace perfbench {

namespace mpi = dipdc::minimpi;

/// Every workload runs on three ranks.  All threads of a run share one
/// CPU (see pin_to_one_cpu in main.cpp).
inline constexpr int kRanks = 3;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (v is reordered); 0 for an empty vector.
double median(std::vector<double> v);

/// Named metrics in print order, each with its unit.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  /// Value of `name` (0 when absent).
  [[nodiscard]] double get(std::string_view name) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// One timing of one dispatched kernel on a workload's own inputs.  Ops and
/// bytes are computed from the array sizes (not measured: cache misses are
/// not counted).
struct KernelProbe {
  std::string kernel;   // distance_rows | assign_points | bucket_indices |
                        // count_in_rect
  double wall_s = 0.0;  // median over repetitions of one kernel pass
  double ops = 0.0;
  double bytes = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual mpi::BackendKind backend() const {
    return mpi::BackendKind::kThreads;
  }
  /// Builds the inputs from the seed, replacing earlier ones; this is what
  /// setup_s times (sort_stream includes its chunk-file spill).
  virtual void setup() = 0;
  /// Computes, untimed, the reference check() compares against.
  virtual void prepare_reference() = 0;
  /// One rank's share of one call.  Writes only that rank's output slot.
  virtual void body(mpi::Comm& comm) = 0;
  /// Checks the last call's outputs: empty when correct, else the reason.
  [[nodiscard]] virtual std::string check() const = 0;
  /// Damages the last call's output so that check() must fail.
  virtual void corrupt() = 0;
  /// Work items one call completes (distance pairs, point-iterations,
  /// keys, answered queries).
  [[nodiscard]] virtual double items() const = 0;
  /// Times this workload's kernel on its own inputs, outside run().
  [[nodiscard]] virtual KernelProbe probe_kernel() = 0;
  /// Per-layer metrics only this workload can supply (serve.*, dataio.*);
  /// every name it does not set reads 0.
  virtual void layer_metrics(Metrics& /*out*/) const {}
};

/// The four workloads by name; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir);
/// Names accepted by make_workload.
const std::vector<std::string>& workload_names();

/// One call: one minimpi::run of the workload, timed around run() and
/// around each rank's body.
struct Call {
  double wall_s = 0.0;
  /// Per-rank body span, seconds since the call started.
  std::vector<std::pair<double, double>> bodies;
  mpi::RunResult result;
};

Call run_call(Workload& w, bool traced);

/// Per-call layer breakdown of a traced call (breakdown.cpp).
struct Breakdown {
  /// Phase name -> max over ranks of that rank's summed span wall time.
  std::vector<std::pair<std::string, double>> phase_wall;
  /// Phase name -> the slowest rank's summed span wall time (the slowest
  /// rank is the one with the longest body).
  std::vector<std::pair<std::string, double>> slowest_phase;
  double slowest_body_s = 0.0;
  double slowest_phases_s = 0.0;
  double unattributed_s = 0.0;
  double run_overhead_s = 0.0;
  /// Category span wall time summed over ranks.
  double p2p_s = 0.0;
  double collective_s = 0.0;
  double wait_s = 0.0;
  double events = 0.0;
  /// Empty when the parts are non-negative, the slowest rank's phases do
  /// not overlap, and overhead + phases + unattributed == call wall.
  std::string inconsistency;
};

Breakdown break_down(const Call& call);

/// Phase names the modules emit, per workload, in print order.
const std::vector<std::string>& phase_names();

}  // namespace perfbench
