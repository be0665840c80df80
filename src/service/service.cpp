#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <stdexcept>

#include "filter/signature.h"
#include "obs/metrics.h"
#include "search/batch_scheduler.h"
#include "search/top_k.h"

namespace aalign::service {

namespace {

std::uint64_t us_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

ErrorCode code_for(core::StopReason r) {
  return r == core::StopReason::DeadlineExceeded ? ErrorCode::DeadlineExceeded
                                                 : ErrorCode::Cancelled;
}

const char* counter_for(ErrorCode c) {
  return c == ErrorCode::DeadlineExceeded ? "service.deadline_exceeded"
                                          : "service.cancelled";
}

}  // namespace

AlignService::AlignService(const score::ScoreMatrix& matrix, AlignConfig cfg,
                           seq::Database db, ServiceOptions opt)
    : matrix_(matrix),
      cfg_(cfg),
      opt_(opt),
      db_(std::move(db)),
      queue_(opt.queue_capacity) {
  cfg_.validate();
  if (!opt_.global_index_map.empty() &&
      opt_.global_index_map.size() != db_.size()) {
    throw std::invalid_argument(
        "ServiceOptions::global_index_map size does not match the database");
  }
  // Sort once at startup; every request then searches the same permuted
  // storage (results are reported in original-index terms regardless).
  if (opt_.search.sort_database) db_.sort_by_length_desc();
  opt_.search.sort_database = false;
  // Hit selection is per request (top_k varies); the schedulers always
  // keep the full score vector and skip their own selection.
  opt_.search.top_k = 0;
  opt_.search.keep_all_scores = true;
  // Signature index over the sorted storage, built once here and shared
  // read-only by every executor's scheduler. Requests route around it per
  // call ("filter": off|on|auto); Auto only activates for local alignment,
  // so other configs skip the build entirely.
  if (cfg_.kind == AlignKind::Local && !db_.empty() &&
      opt_.search.filter.index == nullptr) {
    opt_.search.filter.index = std::make_shared<filter::SignatureIndex>(
        db_, opt_.search.filter.params);
  }

  const int n = std::max(1, opt_.executors);
  executors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
}

AlignService::~AlignService() { shutdown(); }

void AlignService::shutdown() {
  queue_.close();
  MutexLock lock(shutdown_mu_);
  if (joined_) return;
  joined_ = true;
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
}

std::string AlignService::validate(const WireRequest& req,
                                   ErrorCode* code) const {
  *code = ErrorCode::InvalidRequest;
  if (req.queries.empty()) return "request carries no queries";
  if (req.queries.size() > opt_.max_queries) {
    return "too many queries (" + std::to_string(req.queries.size()) +
           " > limit " + std::to_string(opt_.max_queries) + ")";
  }
  if (req.top_k == 0) return "top_k must be >= 1";
  if (req.top_k > opt_.max_top_k) {
    return "top_k " + std::to_string(req.top_k) + " exceeds limit " +
           std::to_string(opt_.max_top_k);
  }
  for (const std::string& q : req.queries) {
    if (q.empty()) return "queries must be non-empty";
    if (q.size() > opt_.max_query_len) {
      *code = ErrorCode::QueryTooLong;
      return "query of " + std::to_string(q.size()) +
             " residues exceeds limit " + std::to_string(opt_.max_query_len);
    }
  }
  if (db_.empty()) {
    *code = ErrorCode::EmptyDatabase;
    return "service database is empty";
  }
  return "";
}

std::shared_ptr<PendingRequest> AlignService::submit(WireRequest req) {
  obs::Registry& reg = obs::registry();
  std::shared_ptr<PendingRequest> p = make_pending(std::move(req));

  ErrorCode code = ErrorCode::None;
  const std::string err = validate(p->req, &code);
  if (!err.empty()) {
    reg.counter("service.rejected").add();
    p->complete(error_response(p->req.id, code, err));
    return p;
  }

  reg.histogram("service.queue_depth").record(queue_.depth());
  std::shared_ptr<PendingRequest> victim;
  switch (queue_.push(p, &victim)) {
    case RequestQueue::PushOutcome::Accepted:
      reg.counter("service.accepted").add();
      break;
    case RequestQueue::PushOutcome::AcceptedShed:
      reg.counter("service.accepted").add();
      reg.counter("service.shed").add();
      victim->complete(error_response(
          victim->req.id, ErrorCode::Overloaded,
          "shed by admission control: queue full, earliest deadline"));
      break;
    case RequestQueue::PushOutcome::RejectedShed:
      reg.counter("service.shed").add();
      p->complete(error_response(
          p->req.id, ErrorCode::Overloaded,
          "shed by admission control: queue full, earliest deadline"));
      break;
    case RequestQueue::PushOutcome::Closed:
      p->complete(error_response(p->req.id, ErrorCode::ServerShutdown,
                                 "server is draining"));
      break;
  }
  return p;
}

WireResponse AlignService::execute(WireRequest req) {
  return submit(std::move(req))->wait();
}

void AlignService::executor_loop(int executor_id) {
  // Per-executor schedulers so concurrent executors never share mutable
  // scheduler state; each keeps its profile LRU warm across requests.
  // The degraded path pins the int8 tier: saturated lanes keep the 8-bit
  // rail instead of being re-run wider (scores may clip, never exceed).
  search::SearchOptions exact_opt = opt_.search;
  search::SearchOptions degraded_opt = exact_opt;
  degraded_opt.query.width = ScoreWidth::W8;
  search::BatchScheduler exact(matrix_, cfg_, exact_opt);
  search::BatchScheduler degraded(matrix_, cfg_, degraded_opt);

  obs::Registry& reg = obs::registry();
  while (std::shared_ptr<PendingRequest> p = queue_.pop()) {
    const auto dequeued = std::chrono::steady_clock::now();
    reg.histogram("service.queue_wait_us")
        .record(us_between(p->arrival, dequeued));

    // A request that is already stopped (deadline passed while queued, or
    // the client hung up) never touches the kernels.
    if (p->cancel.stop_requested()) {
      const ErrorCode code = code_for(p->cancel.stop_reason());
      reg.counter(counter_for(code)).add();
      p->complete(error_response(p->req.id, code,
                                 "request stopped before execution"));
      continue;
    }

    const bool degrade = p->req.allow_degraded &&
                         queue_.depth() >= opt_.degrade_depth;
    WireResponse resp;
    resp.id = p->req.id;
    resp.degraded = degrade;
    try {
      std::vector<std::vector<std::uint8_t>> encoded;
      encoded.reserve(p->req.queries.size());
      for (const std::string& q : p->req.queries) {
        encoded.push_back(matrix_.alphabet().encode(q));
      }
      search::BatchScheduler& sched = degrade ? degraded : exact;
      sched.set_filter_mode(p->req.filter_explicit ? p->req.filter
                                                   : opt_.search.filter.mode);
      const std::vector<search::SearchResult> results =
          sched.run(encoded, db_, &p->cancel);

      const auto finished = std::chrono::steady_clock::now();
      resp.ok = true;
      resp.queue_ms = static_cast<double>(us_between(p->arrival, dequeued)) /
                      1000.0;
      resp.exec_ms = static_cast<double>(us_between(dequeued, finished)) /
                     1000.0;
      // Shard-slice serving: ties break on (and wire hits carry) the
      // fleet-global original index, so a gateway merge over disjoint
      // slices reproduces the single-process ranking bit-for-bit.
      const std::span<const std::size_t> gmap(opt_.global_index_map);
      for (const search::SearchResult& r : results) {
        resp.filtered = resp.filtered || r.filtered;
        WireResult out;
        for (const search::SearchHit& hit :
             search::select_top_k_mapped(r.scores, p->req.top_k, gmap)) {
          // Filter-dropped subjects carry the sentinel score and sort as a
          // contiguous suffix; they never surface as hits.
          if (hit.score == filter::kDroppedScore) break;
          const std::size_t wire_index =
              gmap.empty() ? hit.index : gmap[hit.index];
          out.hits.push_back(WireHit{
              wire_index, db_.by_original(hit.index).id, hit.score});
        }
        resp.results.push_back(std::move(out));
      }
      if (degrade) reg.counter("service.degraded").add();
      reg.counter("service.completed").add();
      reg.histogram("service.latency_us")
          .record(us_between(p->arrival, finished));
    } catch (const core::CancelledError& e) {
      // The cancellation contract (core/cancel.h): no partial scores
      // escaped; every worker quit within one stride-chunk.
      const ErrorCode code = code_for(e.reason());
      reg.counter(counter_for(code)).add();
      resp = error_response(p->req.id, code, e.what());
    } catch (const std::exception& e) {
      resp = error_response(p->req.id, ErrorCode::Internal, e.what());
    }
    p->complete(std::move(resp));
  }
  (void)executor_id;
}

}  // namespace aalign::service
