// One benchmark run: generate a workload from its seed, compute the exact
// reference, build the served stack, drive it (check pass, closed loop),
// and report end-to-end metrics - or, with tracing, add an open-loop
// phase, replay a sample one request at a time and report the per-layer
// ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checker.h"
#include "stack.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;          // < 1 shrinks the inputs (smoke tests)
  std::string tmpdir = ".";    // where the FASTA copy / .aidx live
  std::string spans_out;       // traced run: spans as JSON lines
  // Open-loop runs need at least this many samples for a valid p95.
  std::size_t min_open_samples = 200;
  // Fault injection for the benchmark's own tests: off by one in the
  // reference score of pool query 0's best hit, so every served answer to
  // that query must be judged wrong.
  bool inject_wrong_reference = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;  // no wrong answer anywhere
  bool valid = true;    // the generator kept its schedule
  std::string invalid_reason;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // errors, incomplete or degraded answers
  std::size_t wrong = 0;
  std::string first_wrong;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable report lines
};

// Tallies of answers checked against the reference.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::string first_wrong;
  void add(const Check& c);
  void merge(const Tally& o);
};

// check_response, plus the response id the in-order wire protocol owes.
Check judge(const Reference& ref, const WorkloadSpec& spec,
            const std::vector<std::size_t>& qs, std::int64_t id,
            const aalign::service::WireResponse& resp);

aalign::service::WireRequest make_request(const WorkloadSpec& spec,
                                          const Inputs& in,
                                          const std::vector<std::size_t>& qs,
                                          std::int64_t id);

// Nominal DP cells of a request: query residues x database residues.
double nominal_cells(const Inputs& in, const std::vector<std::size_t>& qs);

// What the untraced phases hand to the traced replay.
struct UntracedSummary {
  double mean_queue_ms = 0.0;
  double late_p99_ms = 0.0;
  std::size_t backlog = 0;
  // Every request's pool queries in issue order (profile-cache replay).
  std::vector<std::vector<std::size_t>> issued;
};

struct TraceContext {
  const WorkloadSpec& spec;
  const Serving& serving;
  const Inputs& in;
  const Reference& ref;
  Stack& stack;
  const std::string& aidx;  // fleet only
  const UntracedSummary& untraced;
  std::vector<std::vector<std::size_t>> sample;  // requests to replay
  double budget_s = 1.0;  // the untraced replay gets a third of it
  std::string spans_out;
};

// The traced replay; appends the per-layer metrics to `out`.
void traced_replay(const TraceContext& ctx, RunResult& out, Tally& tally);

RunResult run_benchmark(const RunOptions& opt);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const RunResult& r);

}  // namespace perfbench
