// Fixed-size thread pool used by the codec stages, the fused analysis
// kernels, chunked compression, random-forest training, and the
// parallel-dump simulator.

#ifndef FXRZ_UTIL_THREAD_POOL_H_
#define FXRZ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/thread_annotations.h"

namespace fxrz {

// A minimal work-queue thread pool. Tasks are std::function<void()>; use
// ParallelFor / ParallelForBlocked for the common indexed-loop case. An
// idle worker spins for up to 5 ms before it blocks, so back-to-back
// parallel sections do not wait for sleeping threads to wake.
class ThreadPool {
 public:
  // Creates `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains the queue and joins all workers.
  ~ThreadPool();

  // Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished. If any task exited via
  // an exception since the last Wait, the first captured exception is
  // rethrown here (and cleared); the remaining tasks still ran.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  AnnotatedMutex mu_;
  std::queue<std::function<void()>> queue_ FXRZ_GUARDED_BY(mu_);
  CondVar task_available_;
  CondVar all_done_;
  std::exception_ptr first_error_ FXRZ_GUARDED_BY(mu_);
  size_t in_flight_ FXRZ_GUARDED_BY(mu_) = 0;
  // lock-free: copy of queue_.size(), stored under mu_ and read without it
  // by idle workers that spin before they block; a stale read only ends a
  // spin early or late, since the task itself is taken under mu_.
  std::atomic<size_t> queued_{0};
  bool shutdown_ FXRZ_GUARDED_BY(mu_) = false;
};

// Lazily constructed process-wide pool sized to the hardware concurrency.
// Every codec stage and analysis kernel runs its parallel sections here;
// sharing one pool keeps nested parallel sections from multiplying OS
// threads.
ThreadPool* SharedThreadPool();

// Runs body(lo, hi) over disjoint sub-ranges that cover [begin, end), each
// at most `grain` indices wide (grain 0 picks a size that spreads the range
// across the pool). A range of one block runs on the calling thread before
// anything is allocated or submitted. The calling thread claims ranges
// too, so nested calls -- including from inside pool workers -- always make
// progress and cannot deadlock. Exceptions thrown by `body` are rethrown to
// the caller after the whole range has been processed (first exception
// wins). It returns once every block is done, which may be before its
// helper tasks have left the pool; a caller that needs an idle pool calls
// pool->Wait().
void ParallelForBlocked(ThreadPool* pool, size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& body,
                        size_t grain = 0);

// Runs fn(i) for i in [begin, end) and blocks until done. Dispatch happens
// in blocks of `grain` indices so per-index std::function overhead stays off
// fine-grained loops. fn must be safe to invoke concurrently for distinct i.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain = 0);

}  // namespace fxrz

#endif  // FXRZ_UTIL_THREAD_POOL_H_
