// perfbench: entry point of the module benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR]
//   perfbench --self-test [--scratch DIR]
//
// --trace 0 times calls with tracing off and prints the end-to-end
// metrics; --trace 1 runs traced calls and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  perfbench/README.md explains every metric.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "kernels/dispatch.hpp"
#include "minimpi/stats.hpp"

namespace perfbench {
namespace {

/// Setups are timed between timed calls, one after a call whenever they
/// have so far taken less than kSetupShare of the window, and at least
/// kMinSetups in all; setup_s is their median.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupShare = 0.05;
/// Timed calls are made until --seconds have passed and at least this
/// many calls exist, so the tail percentile always has ten calls beyond it.
constexpr std::size_t kMinCalls = 20;
/// Untimed warm-up calls before the measured window (checked like all).
constexpr int kWarmupCalls = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test = false;
  std::string scratch = ".bench_build/tmp";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n"
               "       perfbench --self-test [--scratch DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used);
      } else if (flag == "--scratch") {
        a.scratch = v;
        used = v.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (used != v.size()) usage("malformed value for " + flag);
    } catch (const std::logic_error&) {
      usage("malformed value for " + flag);
    }
  }
  if (a.self_test) return a;
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 120.0) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// ------------------------------------------------------------ host print

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Restricts the process to the highest-numbered CPU it may use and
/// returns that CPU.  Called before any thread starts, so rank and helper
/// threads inherit it.
///
/// On a shared virtual machine, a run that keeps three or four virtual
/// CPUs busy loses time to the host in bursts that last minutes, and
/// calls that hand messages across CPUs wait on cross-CPU wake-ups.  Both
/// moved median call walls 2x between runs of equal work.  On one CPU a
/// handoff is a context switch, and the medians of repeated runs agree to
/// within a few percent.
std::size_t pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::size_t cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &set)) --cpu;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpu;
}

/// Host fingerprint, one JSON object on one line, printed with every
/// result so a figure always names the machine and build it came from.
void print_host(int nproc, std::size_t cpu) {
  const bool simd = dipdc::kernels::simd_supported();
  const char* isa =
      dipdc::kernels::isa_name(dipdc::kernels::resolve(dipdc::kernels::Policy::kAuto));
  const std::string build = PERFBENCH_BUILD_TYPE;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf(
      "host {\"nproc\": %d, \"pinned_cpu\": %zu, \"simd_supported\": %s, "
      "\"isa\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"release\": %s, \"llc_bytes\": %ld}\n",
      nproc, cpu, simd ? "true" : "false", isa, kCompiler, build.c_str(),
      build == "Release" ? "true" : "false", llc);
  if (build != "Release") {
    std::printf("WARNING: %s build; wall-clock figures are not comparable "
                "with Release baselines\n",
                build.c_str());
  }
}

// ------------------------------------------------------------ call loop

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counts calls and failures.  A call fails when run() throws or when the
/// workload's check rejects its output; checks run outside the timing.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::optional<Call> call(Workload& w, bool traced) {
    ++attempted;
    try {
      Call c = run_call(w, traced);
      const std::string why = w.check();
      if (why.empty()) return c;
      std::printf("FAILED call %zu: %s\n", attempted, why.c_str());
    } catch (const std::exception& e) {
      std::printf("FAILED call %zu: %s\n", attempted, e.what());
    }
    ++failed;
    return std::nullopt;
  }
};

void print_result(const Tally& t, const Metrics& m) {
  std::string json = "{\"correct\": ";
  json += t.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.items()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Highest whole percentile p of `walls` that still has at least ten
/// calls above it (nearest-rank).  Returns {p, value}.
std::pair<int, double> tail(std::vector<double> walls) {
  if (walls.empty()) return {0, 0.0};
  std::sort(walls.begin(), walls.end());
  const auto n = static_cast<double>(walls.size());
  const int p =
      std::max(0, static_cast<int>(std::floor(100.0 * (n - 10.0) / n)));
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(p) / 100.0 * n));
  return {p, walls[std::max<std::size_t>(rank, 1) - 1]};
}

/// Runs calls until `seconds` have passed (and at least `min_calls`);
/// returns the completed calls' walls through `on_call`.
template <typename OnCall>
void call_window(Workload& w, Tally& t, bool traced, double seconds,
                 std::size_t min_calls, OnCall&& on_call) {
  const Clock::time_point start = Clock::now();
  std::size_t made = 0;
  while (made < min_calls ||
         seconds_between(start, Clock::now()) < seconds) {
    ++made;
    if (std::optional<Call> c = t.call(w, traced)) on_call(*c);
  }
}

int run_timed(Workload& w, const Args& a) {
  w.setup();
  w.prepare_reference();
  Tally t;
  for (int i = 0; i < kWarmupCalls; ++i) (void)t.call(w, false);

  // Setup is deterministic, so repeating it leaves the same inputs.  Its
  // samples are spread over the window so they see the same host
  // conditions as the calls; timed back to back first thing in a process,
  // a sub-millisecond setup mostly measures a cold CPU.
  std::vector<double> setups;
  double setup_total = 0.0;
  const auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_total += setups.back();
  };
  const std::size_t before = t.attempted;
  std::vector<double> walls;
  const Clock::time_point window = Clock::now();
  call_window(w, t, false, a.seconds, kMinCalls, [&](const Call& c) {
    walls.push_back(c.wall_s);
    if (setup_total < kSetupShare * seconds_between(window, Clock::now())) {
      timed_setup();
    }
  });
  while (setups.size() < kMinSetups) timed_setup();
  const std::size_t timed = t.attempted - before;

  const double total = mean(walls) * static_cast<double>(walls.size());
  const auto [pct, tail_s] = tail(walls);
  Metrics m;
  m.set("wall_p50_s", median(walls), "s");
  m.set("wall_tail_s", tail_s, "s");
  m.set("items_per_s",
        total > 0.0 ? w.items() * static_cast<double>(walls.size()) / total
                    : 0.0,
        "1/s");
  m.set("setup_s", median(setups), "s");
  m.set("peak_rss_mib", peak_rss_mib(), "MiB");
  const double fail_ratio =
      static_cast<double>(t.failed) / static_cast<double>(t.attempted);
  m.set("pass_ratio", 1.0 - fail_ratio, "ratio");

  std::printf("workload %s seed %llu: %zu timed calls (+%d warm-up)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              timed, kWarmupCalls);
  std::printf("  wall_p50_s   %.6f s    (median of %zu calls)\n",
              m.get("wall_p50_s"), walls.size());
  std::printf("  wall_tail_s  %.6f s    (p%d of %zu calls)\n", tail_s, pct,
              walls.size());
  std::printf("  items_per_s  %.6g 1/s\n", m.get("items_per_s"));
  std::printf("  setup_s      %.6f s    (median of %zu setups)\n",
              m.get("setup_s"), setups.size());
  std::printf("  peak_rss_mib %.1f MiB\n", m.get("peak_rss_mib"));
  std::printf("  fail_ratio   %.6g       (%zu of %zu calls failed)\n",
              fail_ratio, t.failed, t.attempted);
  print_result(t, m);
  return 0;
}

// ------------------------------------------------------------ traced run

/// Per-layer metrics of one traced call (module, minimpi, backend, obs,
/// perfmodel); medians over calls are taken afterwards.
Metrics call_layers(const Call& c, const Breakdown& b) {
  Metrics m;
  std::map<std::string, double> wall(b.phase_wall.begin(), b.phase_wall.end());
  const dipdc::obs::Registry reg = mpi::build_metrics(c.result);
  for (const std::string& p : phase_names()) {
    m.set("phase." + p + ".wall_s", wall.count(p) ? wall[p] : 0.0, "s");
  }
  for (const std::string& p : phase_names()) {
    m.set("phase." + p + ".sim_s", reg.gauge("phase." + p + ".seconds"), "s");
  }
  m.set("modules.unattributed_ratio",
        b.slowest_body_s > 0.0 ? b.unattributed_s / b.slowest_body_s : 0.0,
        "ratio");

  const mpi::CommStats s = c.result.total_stats();
  m.set("minimpi.collective.wall_s", b.collective_s, "s");
  m.set("minimpi.p2p.wall_s", b.p2p_s, "s");
  m.set("minimpi.wait.wall_s", b.wait_s, "s");
  m.set("minimpi.messages", static_cast<double>(s.transport_messages_sent),
        "count");
  m.set("minimpi.bytes", static_cast<double>(s.transport_bytes_sent), "B");
  m.set("minimpi.copied_bytes", static_cast<double>(s.copied_bytes), "B");
  m.set("minimpi.zero_copy_bytes", static_cast<double>(s.zero_copy_bytes),
        "B");
  const double pool = static_cast<double>(s.pool_hits + s.pool_misses);
  m.set("minimpi.pool_hit_ratio",
        pool > 0.0 ? static_cast<double>(s.pool_hits) / pool : 0.0, "ratio");
  m.set("minimpi.rendezvous_stalls", static_cast<double>(s.rendezvous_stalls),
        "count");
  m.set("minimpi.run_overhead_s", b.run_overhead_s, "s");
  m.set("backend.frames", static_cast<double>(s.backend_frames), "count");
  m.set("backend.wire_bytes", static_cast<double>(s.backend_wire_bytes), "B");
  m.set("obs.events", b.events, "count");
  m.set("perfmodel.sim_makespan_s", c.result.max_sim_time(), "s");
  m.set("perfmodel.sim_compute_s", s.sim_compute_seconds, "s");
  m.set("perfmodel.sim_comm_s", s.sim_comm_seconds, "s");
  m.set("perfmodel.sim_idle_s", s.sim_idle_seconds, "s");
  return m;
}

/// Prints the shares of the traced call wall, averaged over calls (means of
/// the parts add up to 100%, medians would not): the telescoping parts on
/// the slowest rank, and the category spans averaged over ranks.
void print_shares(const std::vector<Breakdown>& breakdowns,
                  const std::vector<double>& walls) {
  std::map<std::string, std::vector<double>> part;
  std::vector<std::string> order = {"run_overhead"};
  for (std::size_t i = 0; i < breakdowns.size(); ++i) {
    const Breakdown& b = breakdowns[i];
    const double wall = walls[i];
    part["run_overhead"].push_back(b.run_overhead_s / wall);
    for (const auto& [name, s] : b.slowest_phase) {
      if (!part.count(name)) order.push_back(name);
      part[name].push_back(s / wall);
    }
    part["unattributed"].push_back(b.unattributed_s / wall);
    part["p2p"].push_back(b.p2p_s / (wall * kRanks));
    part["collective"].push_back(b.collective_s / (wall * kRanks));
    part["wait"].push_back(b.wait_s / (wall * kRanks));
  }
  order.push_back("unattributed");
  std::printf("  shares of call wall, slowest rank (these add up to 100%%):\n");
  for (const std::string& name : order) {
    std::printf("    %-16s %6.1f%%\n", name.c_str(), 100.0 * mean(part[name]));
  }
  std::printf("  shares of rank wall, all ranks: p2p %.1f%%  collective %.1f%%"
              "  wait %.1f%%\n",
              100.0 * mean(part["p2p"]), 100.0 * mean(part["collective"]),
              100.0 * mean(part["wait"]));
}

int run_traced(Workload& w, const Args& a) {
  w.setup();
  w.prepare_reference();

  Tally t;
  (void)t.call(w, false);  // warm-up
  // A third of the window untraced gives the baseline the tracing
  // overhead is measured against; the rest is traced.
  std::vector<double> plain;
  call_window(w, t, false, a.seconds / 3.0, 5,
              [&](const Call& c) { plain.push_back(c.wall_s); });
  std::vector<Metrics> per_call;
  std::vector<double> traced_walls;
  std::vector<Breakdown> breakdowns;
  call_window(w, t, true, a.seconds * 2.0 / 3.0, 5, [&](const Call& c) {
    Breakdown b = break_down(c);
    if (!b.inconsistency.empty()) {
      std::printf("FAILED breakdown: %s\n", b.inconsistency.c_str());
      ++t.failed;
      return;
    }
    per_call.push_back(call_layers(c, b));
    traced_walls.push_back(c.wall_s);
    breakdowns.push_back(std::move(b));
  });
  const KernelProbe probe = w.probe_kernel();

  Metrics m;
  if (!per_call.empty()) {
    for (const auto& [name, vu] : per_call.front().items()) {
      std::vector<double> v;
      for (const Metrics& pc : per_call) v.push_back(pc.get(name));
      m.set(name, median(std::move(v)), vu.second);
    }
  }
  for (const char* k :
       {"distance_rows", "assign_points", "bucket_indices", "count_in_rect"}) {
    const bool mine = probe.kernel == k;
    const std::string base = std::string("kernels.") + k;
    m.set(base + ".wall_s", mine ? probe.wall_s : 0.0, "s");
    m.set(base + ".ops", mine ? probe.ops : 0.0, "ops_computed");
    m.set(base + ".bytes", mine ? probe.bytes : 0.0, "B_computed");
    m.set(base + ".ops_per_byte",
          mine && probe.bytes > 0.0 ? probe.ops / probe.bytes : 0.0, "ops/B");
  }
  m.set("kernels.isa",
        dipdc::kernels::resolve(dipdc::kernels::Policy::kAuto) ==
                dipdc::kernels::Isa::kSimd
            ? 1.0
            : 0.0,
        "flag");
  for (const char* d : {"dataio.spill.wall_s", "dataio.spill.bytes",
                        "dataio.read.wall_s", "dataio.read.bytes"}) {
    m.set(d, 0.0, std::string(d).ends_with("wall_s") ? "s" : "B");
  }
  const double plain_p50 = median(plain);
  const double traced_p50 = median(traced_walls);
  m.set("obs.trace_overhead_ratio",
        plain_p50 > 0.0 ? traced_p50 / plain_p50 : 0.0, "ratio");
  const double sim = m.get("perfmodel.sim_makespan_s");
  m.set("perfmodel.wall_per_sim", sim > 0.0 ? plain_p50 / sim : 0.0, "ratio");
  for (const char* s : {"serve.sim_p50_s", "serve.sim_p99_s"}) m.set(s, 0.0, "s");
  m.set("serve.sim_achieved_qps", 0.0, "1/s");
  m.set("serve.reject_ratio", 0.0, "ratio");
  m.set("serve.entries_checked", 0.0, "count");
  w.layer_metrics(m);

  std::printf("workload %s seed %llu: %zu traced calls, %zu untraced\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              traced_walls.size(), plain.size());
  std::printf("  call wall p50: traced %.6f s, untraced %.6f s\n", traced_p50,
              plain_p50);
  print_shares(breakdowns, traced_walls);
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-34s %.9g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  print_result(t, m);
  return 0;
}

// ------------------------------------------------------------ self-test

/// Each workload's check accepts a real call and rejects a corrupted one,
/// and the breakdown rejects overlapping phase spans.
int self_test(const Args& a) {
  int bad = 0;
  for (const std::string& name : workload_names()) {
    auto w = make_workload(name, 7, a.scratch);
    w->setup();
    w->prepare_reference();
    Tally t;
    const bool ran = t.call(*w, false).has_value();
    w->corrupt();
    const bool caught = !w->check().empty();
    std::printf("self-test %-13s real call %s, corrupted output %s\n",
                name.c_str(), ran ? "passes" : "FAILS",
                caught ? "fails the check" : "PASSES THE CHECK");
    if (!ran || !caught) ++bad;
  }
  Call c;
  c.wall_s = 1.0;
  c.bodies = {{0.0, 0.9}};
  for (const double start : {0.1, 0.3}) {
    mpi::TraceEvent e;
    e.cat = dipdc::obs::Category::kPhase;
    e.name = "compute";
    e.wall_start = start;
    e.wall_end = start + 0.4;  // the second span starts inside the first
    c.result.trace.push_back(e);
  }
  const bool overlap_caught = !break_down(c).inconsistency.empty();
  c.result.trace.pop_back();
  const bool clean_accepted = break_down(c).inconsistency.empty();
  std::printf("self-test breakdown    overlapping phases %s, clean %s\n",
              overlap_caught ? "rejected" : "ACCEPTED",
              clean_accepted ? "accepted" : "REJECTED");
  if (!overlap_caught || !clean_accepted) ++bad;
  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  // A fixed mmap threshold: glibc otherwise raises it after each large
  // free, later large buffers then come from arenas that keep freed memory
  // resident, and peak RSS depends on thread timing instead of on what the
  // workload holds (sort_stream read 105-113 MiB that way, 58-59 MiB with
  // the fixed threshold).
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    if (a.self_test) return self_test(a);
    auto w = make_workload(a.workload, a.seed, a.scratch);
    if (!w) usage("unknown workload " + a.workload);
    const int nproc = online_cpus();
    print_host(nproc, pin_to_one_cpu());
    return a.trace == 1 ? run_traced(*w, a) : run_timed(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
