#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "schedule.h"
#include "seq/fasta.h"
#include "service/client.h"
#include "stats.h"
#include "store/builder.h"

namespace perfbench {

namespace svc = aalign::service;
using Clock = std::chrono::steady_clock;

namespace {

// Requests from a sender that ran this late (p99) are not the schedule
// the workload names, so the run is invalid rather than a number.
constexpr double kMaxLateMs = 25.0;
// A response later than this is a failure (a wedged stack must not hang
// the run; the wall-clock cap in main() is the last resort).
constexpr auto kResponseTimeout = std::chrono::seconds(60);
// Readiness probe: shorter than the filter's minimum query, so it scans
// every subject once and touches every layer the workload uses.
constexpr const char* kProbe = "MKTAYIAKQRQISFVKSHFSRQ";
// Windows of the closed loop and segments of its latency samples
// (stats.h). Other tenants of the shared host stall it for a second or
// two at a time and only ever make a window slower, so a run reports its
// calmer quarter: the upper quartile of the windows' throughput and the
// lower quartile of the segments' percentiles (README.md). A segment
// holds at least kSegmentSamples samples, so that its 95th percentile
// has 5 samples beyond it.
constexpr std::size_t kRateWindows = 20;
constexpr std::size_t kMaxLatencySegments = 128;
constexpr std::size_t kSegmentSamples = 100;
constexpr double kCalmRateQuantile = 75.0;
constexpr double kCalmLatencyQuantile = 25.0;

// The p-th percentile latency of a run's calmer quarter.
double calm_latency(const std::vector<double>& v, double p) {
  return segmented_percentile(
      v, p, std::min(kMaxLatencySegments, v.size() / kSegmentSamples),
      kCalmLatencyQuantile);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

int client_threads_cap() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Stack construction until the probe is answered.
std::unique_ptr<Stack> set_up(const WorkloadSpec& spec, const Serving& s,
                              const std::string& path, double* seconds) {
  const auto t0 = Clock::now();
  std::unique_ptr<Stack> stack = spec.shards > 0
                                     ? build_fleet(s, path, spec.shards)
                                     : build_single(s, path);
  svc::ServiceClient client("127.0.0.1", stack->port());
  svc::WireRequest probe;
  probe.queries = {kProbe};
  probe.top_k = 1;
  probe.allow_degraded = false;
  const svc::WireResponse resp = client.call(probe);
  *seconds = ms_between(t0, Clock::now()) / 1e3;
  if (!resp.ok) {
    throw std::runtime_error("readiness probe failed: " + resp.message);
  }
  return stack;
}

struct CheckPass {
  Tally tally;
  double recall = 0.0;
  std::vector<std::vector<std::size_t>> issued;
};

// Every distinct pool query once (batched like the workload's requests):
// the recall figure, and the warm-up of every layer before timing.
CheckPass check_pass(const WorkloadSpec& spec, const Inputs& in,
                     const Reference& ref, std::uint16_t port) {
  CheckPass out;
  svc::ServiceClient client("127.0.0.1", port);
  double recall_sum = 0.0;
  for (std::size_t first = 0; first < in.pool.size();
       first += spec.queries_per_request) {
    std::vector<std::size_t> qs;
    for (std::size_t q = first;
         q < std::min(in.pool.size(), first + spec.queries_per_request); ++q) {
      qs.push_back(q);
    }
    const std::int64_t id = static_cast<std::int64_t>(first) + 1;
    const svc::WireResponse resp = client.call(make_request(spec, in, qs, id));
    const Check c = judge(ref, spec, qs, id, resp);
    out.tally.add(c);
    if (c.verdict != Verdict::Failed) {
      for (std::size_t r = 0; r < qs.size() && r < resp.results.size(); ++r) {
        recall_sum += recall(ref, qs[r], resp.results[r]);
      }
    }
    out.issued.push_back(std::move(qs));
  }
  out.recall = recall_sum / static_cast<double>(in.pool.size());
  return out;
}

struct PhaseOut {
  Tally tally;
  double wall_s = 0.0;  // closed loop only
  std::vector<double> latency_ms;  // +inf for a failed request
  std::vector<Interval> work;      // correct answers: s from phase start
  double queue_ms_sum = 0.0;
  std::size_t responses = 0;
  double late_p99_ms = 0.0;
  std::size_t backlog = 0;
  std::vector<std::vector<std::size_t>> issued;
};

// The workload's batch requests, in stream order.
std::vector<std::vector<std::size_t>> batch_stream(const WorkloadSpec& spec) {
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t r = 0; r < spec.pool; ++r) {
    out.push_back(batch_request(spec, r));
  }
  return out;
}

// Closed loop on one connection: the next request goes out when the
// previous one is answered, until `seconds` have passed. With one
// request in flight nothing queues, so latency is the service time a
// single client sees.
PhaseOut closed_loop(const WorkloadSpec& spec, const Inputs& in,
                     const Reference& ref, std::uint16_t port,
                     double seconds) {
  PhaseOut out;
  const auto batches = batch_stream(spec);
  svc::ServiceClient client("127.0.0.1", port);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t r = 0; Clock::now() < deadline; ++r) {
    std::vector<std::size_t> qs = batches[r % batches.size()];
    const std::int64_t id = static_cast<std::int64_t>(r) + 1;
    const svc::WireRequest req = make_request(spec, in, qs, id);
    const auto t0 = Clock::now();
    const svc::WireResponse resp = client.call(req);
    const auto t1 = Clock::now();
    const Check chk = judge(ref, spec, qs, id, resp);
    out.tally.add(chk);
    const bool ok = chk.verdict == Verdict::Ok;
    out.latency_ms.push_back(ok ? ms_between(t0, t1) : kInf);
    if (ok) {
      out.work.push_back({ms_between(start, t0) / 1e3,
                          ms_between(start, t1) / 1e3, nominal_cells(in, qs)});
    }
    if (resp.ok) {
      out.queue_ms_sum += resp.queue_ms;
      ++out.responses;
    }
    out.issued.push_back(std::move(qs));
  }
  out.wall_s = ms_between(start, Clock::now()) / 1e3;
  return out;
}

// Open loop: a seeded Poisson schedule, sent on time whatever the stack
// does, over up to 4 connections (one sender - this thread - and a reader
// per connection, so client threads never exceed nproc). Latency runs
// from each request's due time.
PhaseOut open_loop(const WorkloadSpec& spec, const Inputs& in,
                   const Reference& ref, std::uint16_t port,
                   const std::vector<Arrival>& schedule) {
  PhaseOut out;
  const std::size_t n = schedule.size();
  const std::size_t conns = static_cast<std::size_t>(
      std::clamp(client_threads_cap() - 1, 1, 4));
  std::vector<std::unique_ptr<svc::ServiceClient>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<svc::ServiceClient>("127.0.0.1", port));
  }
  std::vector<svc::WireRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(make_request(spec, in, {schedule[i].query},
                                static_cast<std::int64_t>(i) + 1));
    out.issued.push_back({schedule[i].query});
  }
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(n), sent(n), done(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule[i].due_s));
  }
  std::vector<std::uint8_t> ok(n, 0);
  std::mutex mu;
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c] {
      Tally mine;
      double queue_sum = 0.0;
      std::size_t responses = 0;
      for (std::size_t i = c; i < n; i += conns) {
        const svc::WireResponse resp =
            clients[c]->read_response_until(due[i] + kResponseTimeout);
        done[i] = Clock::now();
        const Check chk = judge(ref, spec, {schedule[i].query},
                                reqs[i].id, resp);
        mine.add(chk);
        ok[i] = chk.verdict == Verdict::Ok ? 1 : 0;
        if (resp.ok) {
          queue_sum += resp.queue_ms;
          ++responses;
        }
        if (!resp.ok && resp.error == svc::ErrorCode::DeadlineExceeded) {
          // Timed out: the pairing of later responses on this connection
          // is lost, so the rest of its requests count as failed.
          for (std::size_t j = i + conns; j < n; j += conns) {
            done[j] = Clock::now();
            mine.add({Verdict::Failed, "connection abandoned"});
          }
          break;
        }
      }
      const std::lock_guard<std::mutex> lock(mu);
      out.tally.merge(mine);
      out.queue_ms_sum += queue_sum;
      out.responses += responses;
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    sent[i] = Clock::now();
    clients[i % conns]->send_only(reqs[i]);
  }
  for (std::thread& t : readers) t.join();

  std::vector<double> late;
  for (std::size_t i = 0; i < n; ++i) {
    late.push_back(ms_between(due[i], sent[i]));
    out.latency_ms.push_back(ok[i] ? ms_between(due[i], done[i]) : kInf);
    if (done[i] > due.back()) ++out.backlog;
  }
  out.late_p99_ms = percentile(late, 99.0);
  return out;
}

Reference with_wrong_score(const Reference& ref) {
  std::vector<std::vector<long>> scores;
  std::vector<std::vector<std::uint8_t>> kept;
  for (std::size_t q = 0; q < ref.pool_size(); ++q) {
    scores.push_back(ref.scores(q));
    kept.push_back(ref.kept(q));
  }
  scores[0][ref.exhaustive_top(0).front().index] += 1;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < ref.subjects(); ++i) ids.push_back(ref.id(i));
  return Reference(std::move(scores), std::move(kept), std::move(ids),
                   ref.top_k());
}

std::string fmt(double v) {
  if (std::isinf(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Check judge(const Reference& ref, const WorkloadSpec& spec,
            const std::vector<std::size_t>& qs, std::int64_t id,
            const svc::WireResponse& resp) {
  if (resp.ok && resp.id != id) {
    return {Verdict::Wrong, "response id " + std::to_string(resp.id) +
                                " answers request " + std::to_string(id)};
  }
  return check_response(ref, qs, !spec.filter_off, resp);
}

void Tally::add(const Check& c) {
  ++attempted;
  if (c.verdict == Verdict::Failed) ++failed;
  if (c.verdict == Verdict::Wrong) {
    if (wrong == 0) first_wrong = c.reason;
    ++wrong;
  }
}

void Tally::merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  if (wrong == 0 && o.wrong > 0) first_wrong = o.first_wrong;
  wrong += o.wrong;
}

svc::WireRequest make_request(const WorkloadSpec& spec, const Inputs& in,
                              const std::vector<std::size_t>& qs,
                              std::int64_t id) {
  svc::WireRequest req;
  req.id = id;
  for (std::size_t q : qs) req.queries.push_back(in.pool[q]);
  req.top_k = spec.top_k;
  req.allow_degraded = false;
  if (spec.filter_off) {
    req.filter = aalign::filter::FilterMode::Off;
    req.filter_explicit = true;
  }
  return req;
}

double nominal_cells(const Inputs& in, const std::vector<std::size_t>& qs) {
  double residues = 0.0;
  for (std::size_t q : qs) residues += static_cast<double>(in.pool[q].size());
  return residues * static_cast<double>(in.total_residues);
}

RunResult run_benchmark(const RunOptions& opt) {
  const WorkloadSpec spec = workload_spec(opt.workload, opt.scale);
  const Serving serving = default_serving();
  const Inputs in = generate(spec, opt.seed);
  Reference ref = compute_reference(in, spec, *serving.matrix,
                                    serving.cfg.pen, serving.isa,
                                    serving.threads);
  if (opt.inject_wrong_reference) ref = with_wrong_score(ref);

  const bool fleet = spec.shards > 0;
  const TempFile data(opt.tmpdir + "/perfbench-" +
                      std::to_string(::getpid()) +
                      (fleet ? ".aidx" : ".fasta"));
  if (fleet) {
    aalign::seq::Database db(serving.matrix->alphabet(), in.subjects);
    // Small index shards, so the residue-balanced slices are even.
    aalign::store::BuildParams params;
    params.shard_target_residues = std::max<std::size_t>(
        1, in.total_residues / (16 * spec.shards));
    aalign::store::write_index(data.path(), db, *serving.matrix, params);
  } else {
    aalign::seq::write_fasta_file(data.path(), in.subjects);
  }

  RunResult res;
  Tally tally;
  std::vector<double> setups(1, 0.0);
  ::malloc_trim(0);
  const std::size_t rss0 = rss_bytes();
  std::unique_ptr<Stack> stack = set_up(spec, serving, data.path(), &setups[0]);

  CheckPass check = check_pass(spec, in, ref, stack->port());
  tally.merge(check.tally);
  // The open loop runs in the traced run only (README.md): its latency on
  // the shared host swings with how fast idle vCPUs are woken, so it is
  // reported in the ledger, not gated.
  const bool has_open = opt.trace && spec.open_rate_qps > 0.0;
  const double open_s = has_open ? opt.seconds * spec.open_share : 0.0;
  PhaseOut closed =
      closed_loop(spec, in, ref, stack->port(), opt.seconds - open_s);
  tally.merge(closed.tally);
  PhaseOut open;
  if (has_open) {
    const std::size_t count = std::max(
        opt.min_open_samples,
        static_cast<std::size_t>(std::ceil(spec.open_rate_qps * open_s)));
    open = open_loop(spec, in, ref, stack->port(),
                     poisson_schedule(opt.seed ^ 0x09e71009ULL,
                                      spec.open_rate_qps, count,
                                      in.pool.size(), spec.zipf_s));
    tally.merge(open.tally);
    if (open.late_p99_ms > kMaxLateMs) {
      res.valid = false;
      res.invalid_reason = "open-loop sender fell behind its schedule (p99 " +
                           fmt(open.late_p99_ms) + " ms late)";
    }
  }
  const std::size_t rss1 = rss_bytes();
  const double served_gcups =
      windowed_rate(closed.work, 0.0, closed.wall_s, kRateWindows,
                    kCalmRateQuantile) /
      1e9;

  if (opt.trace) {
    const PhaseOut& queued = has_open ? open : closed;
    UntracedSummary untraced;
    untraced.mean_queue_ms =
        queued.responses > 0
            ? queued.queue_ms_sum / static_cast<double>(queued.responses)
            : 0.0;
    untraced.late_p99_ms = open.late_p99_ms;
    untraced.backlog = open.backlog;
    untraced.issued = std::move(check.issued);
    for (auto* p : {&closed, &open}) {
      untraced.issued.insert(untraced.issued.end(), p->issued.begin(),
                             p->issued.end());
    }
    TraceContext ctx{spec, serving, in, ref, *stack, data.path(), untraced,
                     {}, 0.3 * opt.seconds, opt.spans_out};
    ctx.sample = batch_stream(spec);
    traced_replay(ctx, res, tally);
    res.metrics.push_back({"bench.open_p50_ms",
                           has_open ? calm_latency(open.latency_ms, 50.0) : 0.0,
                           "ms"});
    res.metrics.push_back({"bench.open_p95_ms",
                           has_open ? calm_latency(open.latency_ms, 95.0) : 0.0,
                           "ms"});
  }
  stack.reset();

  // Further constructions for a steadier set-up median (rss_mb above
  // covers the first one only). The probe's full scan is most of each
  // (120-240 ms); the fleet's is the noisier.
  const int extra = fleet ? 20 : 14;
  for (int i = 0; i < extra; ++i) {
    double s = 0.0;
    set_up(spec, serving, data.path(), &s).reset();
    setups.push_back(s);
  }

  res.attempted = tally.attempted;
  res.failed = tally.failed;
  res.wrong = tally.wrong;
  res.first_wrong = tally.first_wrong;
  res.correct = tally.wrong == 0;
  const double error_rate =
      tally.attempted > 0 ? static_cast<double>(tally.failed + tally.wrong) /
                                static_cast<double>(tally.attempted)
                          : 1.0;

  char line[512];
  std::snprintf(line, sizeof(line),
                "# workload %s seed %llu: %zu subjects, %zu residues, pool "
                "%zu, isa %s, %d threads",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
                in.subjects.size(), in.total_residues, in.pool.size(),
                aalign::simd::isa_name(serving.isa), serving.threads);
  res.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "# closed loop: %zu requests on 1 connection in %.3f s "
                "(%.2f req/s)",
                closed.latency_ms.size(), closed.wall_s,
                static_cast<double>(closed.latency_ms.size()) / closed.wall_s);
  res.notes.push_back(line);
  if (has_open) {
    std::snprintf(line, sizeof(line),
                  "# open loop: %zu samples at %.1f req/s, sender p99 late "
                  "%.3f ms, backlog %zu",
                  open.latency_ms.size(), spec.open_rate_qps,
                  open.late_p99_ms, open.backlog);
    res.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "# error_rate %.6f (%zu failed, %zu wrong of %zu)", error_rate,
                tally.failed, tally.wrong, tally.attempted);
  res.notes.push_back(line);

  if (!opt.trace) {
    res.metrics = {
        {"setup_s", median(setups), "s"},
        {"served_gcups", served_gcups, "GCUPS"},
        {"p50_ms", calm_latency(closed.latency_ms, 50.0), "ms"},
        {"p95_ms", calm_latency(closed.latency_ms, 95.0), "ms"},
        {"recall", check.recall, "ratio"},
        {"success_rate", 1.0 - error_rate, "ratio"},
        {"rss_mb",
         (static_cast<double>(rss1) - static_cast<double>(rss0)) /
             (1024.0 * 1024.0),
         "MiB"},
    };
  }
  for (const Metric& m : res.metrics) {
    res.notes.push_back("# " + m.name + " = " + fmt(m.value) + " " + m.unit);
  }
  return res;
}

std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed + r.wrong);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
