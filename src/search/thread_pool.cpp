#include "search/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>

#include "obs/instrument.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aalign::search {

int default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// One worker's deque. A plain mutex-guarded deque: every pop/steal costs a
// short critical section, which is noise next to one alignment kernel call,
// and keeps the steal-half transfer trivially race-free (no ABA, no bounded
// ring). Padded out to a cache line so neighbouring locks don't false-share.
struct alignas(64) WorkerDeque {
  Mutex mu{"search.pool.deque"};
  std::deque<std::size_t> items AALIGN_GUARDED_BY(mu);
};

}  // namespace

void parallel_for_work_stealing(
    std::size_t count, int threads,
    const std::function<void(int, std::size_t)>& fn, PoolStats* stats,
    const core::CancelToken* cancel) {
  threads = std::max(1, threads);
  if (stats != nullptr) *stats = PoolStats{};
  if (threads == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      if (core::stop_requested(cancel)) core::throw_cancelled(*cancel);
      fn(0, i);
    }
    return;
  }
  const int T = threads;
  std::vector<WorkerDeque> deques(static_cast<std::size_t>(T));

  // Striped initial distribution: item i starts on worker i % T. With a
  // longest-first sorted workload every worker gets an equal slice of each
  // size class, and the front-pop below preserves the global big-items-
  // first order within each worker.
  for (std::size_t i = 0; i < count; ++i) {
    deques[i % static_cast<std::size_t>(T)].items.push_back(i);
  }

  std::atomic<std::size_t> remaining{count};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  Mutex error_mu{"search.pool.error"};
  std::atomic<std::uint64_t> steals{0}, stolen_items{0}, steal_scans{0};

  auto worker = [&](int id) {
    WorkerDeque& own = deques[static_cast<std::size_t>(id)];
    std::vector<std::size_t> grabbed;  // steal transfer buffer
    int idle_rounds = 0;
    try {
      while (!abort.load(std::memory_order_acquire) &&
             remaining.load(std::memory_order_acquire) > 0) {
        // One token poll per item: a fired token stops every worker from
        // picking up new work; the item currently inside fn() finishes
        // its own (chunk-bounded) cancellation path.
        if (core::stop_requested(cancel)) break;
        std::size_t item = 0;
        bool have = false;
        {
          MutexLock lock(own.mu);
          if (!own.items.empty()) {
            item = own.items.front();
            own.items.pop_front();
            have = true;
          }
        }
        if (!have) {
          // Steal half of some victim's tail. The victim lock is released
          // before touching our own deque, so no thread ever holds two
          // locks - the scheme cannot deadlock.
          grabbed.clear();
          for (int off = 1; off < T; ++off) {
            WorkerDeque& victim =
                deques[static_cast<std::size_t>((id + off) % T)];
            if (!victim.mu.try_lock()) continue;  // contended: try the next
            const std::size_t n = victim.items.size();
            if (n > 0) {
              const std::size_t take = (n + 1) / 2;  // steal-half, round up
              grabbed.assign(victim.items.end() - static_cast<long>(take),
                             victim.items.end());
              victim.items.erase(
                  victim.items.end() - static_cast<long>(take),
                  victim.items.end());
            }
            victim.mu.unlock();
            if (!grabbed.empty()) break;
          }
          if (grabbed.empty()) {
            steal_scans.fetch_add(1, std::memory_order_relaxed);
            // Nothing to steal anywhere: another worker is finishing the
            // tail. Yield, then back off harder so a long-running item
            // doesn't get starved by spinning siblings.
            if (++idle_rounds > 64) {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            } else {
              std::this_thread::yield();
            }
            continue;
          }
          idle_rounds = 0;
          steals.fetch_add(1, std::memory_order_relaxed);
          stolen_items.fetch_add(grabbed.size(), std::memory_order_relaxed);
          item = grabbed.front();
          {
            MutexLock lock(own.mu);
            own.items.insert(own.items.end(), grabbed.begin() + 1,
                             grabbed.end());
          }
        }
        idle_rounds = 0;
        fn(id, item);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    } catch (...) {
      {
        MutexLock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(T) - 1);
  for (int t = 1; t < T; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();

  PoolStats run_stats;
  run_stats.steals = steals.load();
  run_stats.stolen_items = stolen_items.load();
  run_stats.steal_scans = steal_scans.load();
  // Every pool user (DatabaseSearch, BatchScheduler, inter-sequence tiles)
  // funnels through here, so this is the single pool.* reporting point.
  obs::record_pool_stats(run_stats);
  if (stats != nullptr) *stats = run_stats;
  if (first_error) std::rethrow_exception(first_error);
  // All workers are joined (the pool is reusable); if the token stopped
  // the run before every item executed, surface it - partial effects must
  // never be mistaken for a completed run.
  if (cancel != nullptr && remaining.load(std::memory_order_acquire) > 0 &&
      cancel->stop_requested()) {
    core::throw_cancelled(*cancel);
  }
}

}  // namespace aalign::search
