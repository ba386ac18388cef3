#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "src/util/check.h"
#include "src/util/metrics.h"
#include "src/util/thread_annotations.h"

namespace fxrz {

namespace {

// Saturation gauges for `fxrz_verify stats` and the serve bench: when the
// serving layer sheds load, the first question is whether the pool (not
// the submission queue) was the bottleneck. Every ThreadPool instance
// writes the same two gauges (last writer wins); in practice the process
// has one shared pool, and a transient mixed reading still flags
// saturation, which is all a gauge promises.
struct PoolMetrics {
  metrics::Gauge& queue_depth = metrics::GetGauge(
      "fxrz_threadpool_queue_depth",
      "Tasks waiting in the ThreadPool queue (not yet picked up)");
  metrics::Gauge& inflight = metrics::GetGauge(
      "fxrz_threadpool_inflight",
      "Submitted ThreadPool tasks not yet finished (queued + running)");
};

PoolMetrics& PMetrics() {
  static PoolMetrics* m = new PoolMetrics();  // never destroyed
  return *m;
}

// How long an idle worker, or a caller waiting for its last blocks, spins
// before it blocks on a condition variable. On a VM a blocked thread halts
// its vCPU, and waking a halted vCPU took up to 5-8 ms on a loaded host, so
// an sz compression at 128^3 whose workers slept between its parallel
// sections ran between 1x and 2x its unloaded time, following the
// neighbours' load. 5 ms spans the serial gaps inside one compression:
// each worker then blocks about once per compression, at its end.
constexpr std::chrono::microseconds kSpinBudget{5000};

// Spins until ready() holds (returns true) or kSpinBudget has passed
// (returns false). It yields now and then, so a spinning thread gives its
// vCPU to any runnable thread that shares it.
template <typename Ready>
bool SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    FXRZ_CHECK(!shutdown_);
    queue_.push(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
    ++in_flight_;
    PMetrics().queue_depth.Set(static_cast<double>(queue_.size()));
    PMetrics().inflight.Set(static_cast<double>(in_flight_));
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    all_done_.Wait(mu_, [this]() FXRZ_REQUIRES(mu_) {
      return in_flight_ == 0;
    });
    std::swap(error, first_error_);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    SpinUntil([this] { return queued_.load(std::memory_order_relaxed) > 0; });
    {
      MutexLock lock(mu_);
      task_available_.Wait(mu_, [this]() FXRZ_REQUIRES(mu_) {
        return shutdown_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      queued_.store(queue_.size(), std::memory_order_relaxed);
      PMetrics().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      PMetrics().inflight.Set(static_cast<double>(in_flight_));
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool* SharedThreadPool() {
  // Leaked on purpose: workers must not be joined from static destructors
  // that may run after other globals the queued tasks touch.
  static ThreadPool* pool =
      new ThreadPool(std::thread::hardware_concurrency());
  return pool;
}

namespace {

// Shared state of one ParallelForBlocked call. Helpers and the caller claim
// blocks from `next` until the range is exhausted; the caller then waits for
// the last claimed block to finish.
struct BlockedState {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t total_blocks = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  // lock-free: block claim/completion tickets; relaxed fetch_add suffices
  // for claiming, and `done` pairs its release increment with the caller's
  // acquire load in the wait predicate.
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  AnnotatedMutex mu;
  CondVar cv;
  std::exception_ptr error FXRZ_GUARDED_BY(mu);

  void Drain() {
    for (;;) {
      const size_t block = next.fetch_add(1, std::memory_order_relaxed);
      if (block >= total_blocks) return;
      const size_t lo = begin + block * grain;
      const size_t hi = std::min(end, lo + grain);
      try {
        (*body)(lo, hi);
      } catch (...) {
        MutexLock lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1) + 1 == total_blocks) {
        MutexLock lock(mu);  // pair with the caller's wait
        cv.NotifyAll();
      }
    }
  }

  std::exception_ptr TakeError() {
    MutexLock lock(mu);
    return error;
  }
};

}  // namespace

void ParallelForBlocked(ThreadPool* pool, size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& body,
                        size_t grain) {
  FXRZ_CHECK(pool != nullptr);
  if (begin >= end) return;
  const size_t n = end - begin;
  if (grain == 0) {
    // ~8 blocks per worker for load balancing without dispatch overhead.
    grain = std::max<size_t>(1, n / ((pool->num_threads() + 1) * 8));
  }
  if (grain >= n) {  // one block: no helper could take any of it
    body(begin, end);
    return;
  }

  auto state = std::make_shared<BlockedState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->total_blocks = (n + grain - 1) / grain;
  state->body = &body;

  // The caller works too, so only total_blocks - 1 helpers can ever be busy.
  const size_t helpers =
      std::min(pool->num_threads(), state->total_blocks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { state->Drain(); });
  }
  state->Drain();
  SpinUntil([&] {
    return state->done.load(std::memory_order_acquire) == state->total_blocks;
  });
  {
    MutexLock lock(state->mu);
    state->cv.Wait(state->mu, [&] {
      return state->done.load(std::memory_order_acquire) ==
             state->total_blocks;
    });
  }
  if (std::exception_ptr error = state->TakeError()) {
    std::rethrow_exception(error);
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  ParallelForBlocked(
      pool, begin, end,
      [&fn](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace fxrz
