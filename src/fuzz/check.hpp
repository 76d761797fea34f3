// mpifuzz checker: diffs an ExecutionOutcome against the sequential
// oracle's Expectation, plus internal-consistency invariants on the run
// itself (trace well-formedness, sim-time accounting, channel symmetry).
#pragma once

#include <string>
#include <vector>

#include "fuzz/execute.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program.hpp"

namespace dipdc::fuzz {

struct CheckResult {
  bool ok = true;
  std::vector<std::string> failures;

  [[nodiscard]] std::string summary(std::size_t max_lines = 8) const;
};

/// Verifies the outcome against the expectation.  Invariants checked:
///  * kill plans: the run aborts with RankFailedError iff the oracle proves
///    the kill fires; nothing else is checked on expected kills
///  * exact per-rank primitive call counts (CommStats::calls)
///  * one trace event per counted call; per-rank trace times well-formed
///    (t_start <= t_end) and monotonically non-decreasing
///  * per-rank sim clock equals compute + comm + idle buckets (1e-9 rel)
///  * exact user-p2p byte/message totals and per-channel sent == received
///    (only when the fault plan cannot drop or duplicate)
///  * reliable retries == expired ack timeouts; both zero without drops
///  * every receive saw the expected (source, tag, payload); any-source
///    windows resolve by source with each sender matched exactly once
///  * every collective produced the expected result buffer
///
/// A run that aborts with "retry budget exhausted" is a failure even under
/// an armed drop plan: the generator arms 64 retries, so a genuine
/// exhaustion has probability ~drop^65 — in practice it always means a
/// frame was displaced and its sender never acknowledged.
[[nodiscard]] CheckResult check(const Program& p, const Expectation& e,
                                const ExecutionOutcome& out);

/// Convenience: oracle + check in one call.
[[nodiscard]] CheckResult check(const Program& p,
                                const ExecutionOutcome& out);

/// Outcome of replaying one program on every transport backend
/// (threads, tcp) and comparing against the threads run.
struct BackendEquivalence {
  bool ok = true;
  /// Failures, each prefixed with the backend that produced it.
  std::vector<std::string> failures;

  [[nodiscard]] std::string summary(std::size_t max_lines = 8) const;
};

/// Cross-backend conformance oracle: executes `p` once per backend and
/// requires (a) every leg to pass check() against the sequential oracle
/// and (b) the outcome digests to be bit-identical to the threads leg.
/// Digest equality is only asserted for plans that cannot drop/duplicate
/// or kill — under lossy plans the retry/stall counters inside the digest
/// depend on thread scheduling and differ even between two runs on the
/// SAME backend (each leg still must pass the oracle).
[[nodiscard]] BackendEquivalence check_across_backends(const Program& p);

/// Canonical fingerprint of an outcome, for bit-identical replay checks:
/// calls, p2p totals, channels, and observation payloads.  Any-source
/// window groups are canonicalised by sorting on (source, payload hash);
/// sim times and fault/reliable counters are included only for programs
/// without any-source windows (wildcard arrival order is scheduling-
/// dependent and may shift simulated timing).
[[nodiscard]] std::string digest(const Program& p, const Expectation& e,
                                 const ExecutionOutcome& out);

}  // namespace dipdc::fuzz
