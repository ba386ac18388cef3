// Runs a test body with every SharedThreadPool() worker parked on a gate,
// so each parallel section inside it runs on the calling thread alone, in
// index order. A result computed this way is the serial reference that a
// run on the free pool must match.

#ifndef FXRZ_TESTS_UTIL_WORKERS_PARKED_H_
#define FXRZ_TESTS_UTIL_WORKERS_PARKED_H_

#include <atomic>
#include <cstddef>
#include <thread>

#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace fxrz {

// Parks every worker, runs fn(), then releases the workers and waits until
// the pool is idle again (helper tasks queued by fn's parallel sections
// find no work left and return).
template <typename Fn>
void WithWorkersParked(Fn&& fn) {
  ThreadPool* pool = SharedThreadPool();
  AnnotatedMutex mu;
  CondVar cv;
  bool release = false;
  std::atomic<size_t> parked{0};
  for (size_t i = 0; i < pool->num_threads(); ++i) {
    pool->Submit([&] {
      parked.fetch_add(1);
      MutexLock lock(mu);
      cv.Wait(mu, [&]() FXRZ_REQUIRES(mu) { return release; });
    });
  }
  while (parked.load() < pool->num_threads()) std::this_thread::yield();
  fn();
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.NotifyAll();
  pool->Wait();
}

}  // namespace fxrz

#endif  // FXRZ_TESTS_UTIL_WORKERS_PARKED_H_
