// The traced replay behind the per-layer ledger. A sample of the
// workload's requests is replayed one at a time through the same stack,
// first untraced, then traced. The root span is the client round trip,
// its children the server's own queue_ms / exec_ms, and isolated calls -
// on the same inputs, from this file - into each layer's public functions.
// Counts come from public return values (BatchStats, SearchResult,
// FilterStats, KernelStats), so the ledger also works in a build without
// the metrics registry.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>

#include "bench.h"
#include "core/query_context.h"
#include "obs/json.h"
#include "search/batch_scheduler.h"
#include "search/thread_pool.h"
#include "search/top_k.h"
#include "service/client.h"
#include "stats.h"

namespace perfbench {

namespace svc = aalign::service;
using Clock = std::chrono::steady_clock;

namespace {

struct Span {
  std::size_t request = 0;
  std::string name;
  std::string parent;
  int shard = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}

  // Runs `fn` as span `name`; returns its duration in ms.
  double time(std::size_t request, const std::string& name,
              const std::string& parent, int shard,
              const std::function<void()>& fn) {
    const double start = now_ms();
    fn();
    const double end = now_ms();
    spans_.push_back({request, name, parent, shard, start, end});
    return end - start;
  }

  // A span the server measured (reported in the response).
  void add(std::size_t request, const std::string& name,
           const std::string& parent, double start_ms, double dur_ms) {
    spans_.push_back({request, name, parent, -1, start_ms, start_ms + dur_ms});
  }

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      aalign::obs::Json j = aalign::obs::Json::object();
      j.set("request", s.request);
      j.set("name", s.name);
      j.set("parent", s.parent);
      j.set("shard", s.shard);
      j.set("start_ms", s.start_ms);
      j.set("end_ms", s.end_ms);
      out << j.dump() << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <class Fn>
double median_ms_of(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return median(v);
}

}  // namespace

void traced_replay(const TraceContext& ctx, RunResult& out, Tally& tally) {
  const WorkloadSpec& spec = ctx.spec;
  const Serving& serving = ctx.serving;
  const bool fleet = spec.shards > 0;
  const auto& shards = ctx.stack.shards;
  const std::size_t ns = shards.size();
  const auto& alphabet = serving.matrix->alphabet();

  std::vector<std::vector<std::uint8_t>> encoded_pool;
  for (const std::string& q : ctx.in.pool) {
    encoded_pool.push_back(alphabet.encode(q));
  }

  // The services' schedulers are private to their executors; the replay
  // runs its own, built from each shard's effective options, over a copy
  // of each shard's database.
  std::vector<aalign::seq::Database> dbs;
  std::vector<std::unique_ptr<aalign::search::BatchScheduler>> scheds;
  for (const auto& shard : shards) {
    dbs.push_back(shard->database());
    scheds.push_back(std::make_unique<aalign::search::BatchScheduler>(
        *serving.matrix, serving.cfg, shard->options().search));
  }
  const aalign::search::SearchOptions& opt0 = shards.front()->options().search;
  const aalign::filter::FilterMode mode =
      spec.filter_off ? aalign::filter::FilterMode::Off : opt0.filter.mode;
  const bool filtering = aalign::filter::filter_active(
      mode, serving.cfg.kind == aalign::AlignKind::Local);

  std::vector<double> exec, wire, parse_us, ser_us, gw_over, skew,
      scan_ms, run_ms, topk_us, unattributed, build_us;
  double survivors = 0, candidates = 0, occ_sum = 0, occ_n = 0, dedup = 0,
         queries = 0, cells = 0, busy = 0, nominal_shard = 0, promotions = 0,
         scanned = 0, scan_cols = 0, cols = 0, lazy = 0;

  svc::ServiceClient client("127.0.0.1", ctx.stack.port());
  const auto after = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };

  // The untraced replay: the same connection and requests, with nothing
  // but building the request, the round trip and the check in the loop.
  // bench.trace_overhead is the traced loop's wall time over this one's,
  // on the requests both replayed.
  std::vector<double> plain_ms;
  const auto plain_stop = after(ctx.budget_s / 3.0);
  for (std::size_t i = 0; i < ctx.sample.size(); ++i) {
    if (i > 0 && Clock::now() >= plain_stop) break;
    const auto t0 = Clock::now();
    const std::vector<std::size_t>& qs = ctx.sample[i];
    const std::int64_t id = static_cast<std::int64_t>(i) + 1;
    tally.add(judge(ctx.ref, spec, qs, id,
                    client.call(make_request(spec, ctx.in, qs, id))));
    plain_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }

  Recorder rec(Clock::now());
  std::vector<double> traced_ms;
  const auto deadline = after(ctx.budget_s);
  for (std::size_t i = 0; i < plain_ms.size(); ++i) {
    if (i > 0 && Clock::now() >= deadline) break;
    const double t_iter = rec.now_ms();
    const std::vector<std::size_t>& qs = ctx.sample[i];
    const std::int64_t id = static_cast<std::int64_t>(i) + 1;
    const svc::WireRequest req = make_request(spec, ctx.in, qs, id);

    const double t_root = rec.now_ms();
    svc::WireResponse resp;
    const double round_trip = rec.time(i, "client.round_trip", "", -1,
                                       [&] { resp = client.call(req); });
    const Check chk = judge(ctx.ref, spec, qs, id, resp);
    tally.add(chk);
    rec.add(i, "service.queue", "client.round_trip", t_root, resp.queue_ms);
    rec.add(i, "service.exec", "client.round_trip", t_root + resp.queue_ms,
            resp.exec_ms);
    exec.push_back(resp.exec_ms);
    wire.push_back(round_trip - resp.queue_ms - resp.exec_ms);

    const std::string line = svc::request_json(req).dump();
    const double parse = rec.time(i, "service.parse", "client.round_trip", -1,
                                  [&] {
                                    svc::WireRequest parsed;
                                    svc::parse_request(
                                        aalign::obs::Json::parse(line),
                                        parsed);
                                  });
    std::string dumped;
    const double ser = rec.time(i, "service.serialize", "client.round_trip",
                                -1, [&] {
                                  dumped = svc::response_json(resp).dump();
                                });
    parse_us.push_back(parse * 1e3);
    ser_us.push_back(ser * 1e3);

    std::vector<std::vector<std::uint8_t>> enc;
    double q_residues = 0;
    for (std::size_t q : qs) {
      enc.push_back(encoded_pool[q]);
      q_residues += static_cast<double>(encoded_pool[q].size());
    }

    double direct_max = 0, direct_sum = 0, scan_max = 0, run_max = 0,
           topk_max = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      const int sid = static_cast<int>(s);
      const aalign::search::SearchOptions& sopt = shards[s]->options().search;
      if (fleet) {
        const double d = rec.time(i, "gateway.shard_execute",
                                  "client.round_trip", sid,
                                  [&] { shards[s]->execute(req); });
        direct_max = std::max(direct_max, d);
        direct_sum += d;
      }
      if (filtering) {
        std::vector<std::uint8_t> alive;
        const double d = rec.time(i, "filter.scan", "search.run", sid, [&] {
          for (const auto& e : enc) {
            const aalign::filter::FilterStats fs =
                sopt.filter.index->scan(e, serving.isa, alive);
            survivors += static_cast<double>(fs.survivors);
            candidates += static_cast<double>(fs.candidates);
          }
        });
        scan_max = std::max(scan_max, d);
      }
      scheds[s]->set_filter_mode(mode);
      std::vector<aalign::search::SearchResult> results;
      const double run = rec.time(i, "search.run", "service.exec", sid, [&] {
        results = scheds[s]->run(enc, dbs[s]);
      });
      run_max = std::max(run_max, run);
      const aalign::search::BatchStats& st = scheds[s]->last_stats();
      occ_sum += st.occupancy;
      occ_n += 1;
      dedup += static_cast<double>(st.dedup_queries);
      queries += static_cast<double>(st.queries);
      cells += static_cast<double>(st.cells);
      busy += st.busy_seconds;
      nominal_shard +=
          q_residues * static_cast<double>(dbs[s].total_residues());
      for (const auto& r : results) {
        promotions += static_cast<double>(r.promotions);
        scanned += r.filtered ? static_cast<double>(r.filter_stats.survivors)
                              : static_cast<double>(dbs[s].size());
        scan_cols += static_cast<double>(r.stats.scan_columns);
        cols += static_cast<double>(r.stats.columns);
        lazy += static_cast<double>(r.stats.lazy_steps);
      }
      const auto& gmap = shards[s]->options().global_index_map;
      const double topk = rec.time(i, "search.topk", "service.exec", sid, [&] {
        for (const auto& r : results) {
          aalign::search::select_top_k_mapped(r.scores, spec.top_k, gmap);
        }
      });
      topk_max = std::max(topk_max, topk);
    }
    for (const auto& e : enc) {
      build_us.push_back(
          1e3 * rec.time(i, "score.profile_build", "search.run", -1, [&] {
            aalign::core::QueryContext built(*serving.matrix, serving.cfg,
                                             opt0.query, e);
            (void)built;
          }));
    }
    if (!filtering) {
      survivors += static_cast<double>(enc.size() * dbs.front().size());
      candidates += static_cast<double>(enc.size() * dbs.front().size());
    }
    scan_ms.push_back(scan_max);
    run_ms.push_back(run_max);
    topk_us.push_back(topk_max * 1e3);
    double attributed = parse + ser + run_max + topk_max;
    if (fleet) {
      gw_over.push_back(round_trip - direct_max);
      skew.push_back(ratio(direct_max, direct_sum / static_cast<double>(ns)));
      attributed += gw_over.back();
    } else {
      attributed += resp.queue_ms;
    }
    unattributed.push_back(round_trip - attributed);
    traced_ms.push_back(rec.now_ms() - t_iter);
  }
  if (!ctx.spans_out.empty() && !rec.write(ctx.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 ctx.spans_out.c_str());
  }

  // Isolated calls outside the request loop.
  const int shard_threads = std::max(1, opt0.threads);
  const double pool_start_us =
      1e3 * median_ms_of(50, [&] {
        aalign::search::parallel_for_work_stealing(
            static_cast<std::size_t>(shard_threads), shard_threads,
            [](int, std::size_t) {});
      });
  const double store_open_ms =
      fleet ? median_ms_of(5, [&] { open_shards(serving, ctx.aidx, ns); })
            : 0.0;
  // The executor's profile LRU, replayed over every request of the run in
  // issue order (one executor per service, so this is its exact traffic).
  aalign::search::QueryProfileCache cache(opt0.profile_cache_capacity);
  for (const auto& qs : ctx.untraced.issued) {
    for (std::size_t q : qs) {
      cache.get_or_build(*serving.matrix, serving.cfg, opt0.query,
                         encoded_pool[q]);
    }
  }
  double plain_sum = 0.0, traced_sum = 0.0;
  for (std::size_t i = 0; i < traced_ms.size(); ++i) {
    plain_sum += plain_ms[i];
    traced_sum += traced_ms[i];
  }

  out.metrics = {
      {"service.queue_ms", ctx.untraced.mean_queue_ms, "ms"},
      {"service.exec_ms", median(exec), "ms"},
      {"service.wire_ms", median(wire), "ms"},
      {"service.parse_us", median(parse_us), "us"},
      {"service.serialize_us", median(ser_us), "us"},
      {"gateway.overhead_ms", fleet ? median(gw_over) : 0.0, "ms"},
      {"gateway.shard_skew", fleet ? median(skew) : 1.0, "ratio"},
      {"store.open_ms", store_open_ms, "ms"},
      {"filter.scan_ms", median(scan_ms), "ms"},
      {"filter.survivor_rate", ratio(survivors, candidates), "ratio"},
      {"search.run_ms", median(run_ms), "ms"},
      {"search.occupancy", ratio(occ_sum, occ_n), "ratio"},
      {"search.pool_start_us", pool_start_us, "us"},
      {"search.profile_hit_rate",
       ratio(static_cast<double>(cache.hits()),
             static_cast<double>(cache.hits() + cache.misses())),
       "ratio"},
      {"search.dedup_rate", ratio(dedup, queries), "ratio"},
      {"search.topk_us", median(topk_us), "us"},
      {"score.profile_build_us", median(build_us), "us"},
      {"core.kernel_gcups", ratio(cells, busy) / 1e9, "GCUPS"},
      {"core.cells_ratio", ratio(cells, nominal_shard), "ratio"},
      {"core.promotions_per_subject", ratio(promotions, scanned), "ratio"},
      {"core.scan_column_share", ratio(scan_cols, cols), "ratio"},
      {"core.lazy_steps_per_column", ratio(lazy, cols), "ratio"},
      {"unattributed_ms", median(unattributed), "ms"},
      {"bench.late_ms", ctx.untraced.late_p99_ms, "ms"},
      {"bench.backlog", static_cast<double>(ctx.untraced.backlog), "count"},
      {"bench.trace_overhead", ratio(traced_sum, plain_sum), "ratio"},
  };
  char line[160];
  std::snprintf(line, sizeof(line),
                "# replay: %zu requests untraced, %zu traced",
                plain_ms.size(), traced_ms.size());
  out.notes.push_back(line);
}

}  // namespace perfbench
