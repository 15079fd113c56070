// Fixed-size worker pool behind the CPU update kernels (Adam, FP16 upscale,
// gradient accumulation).
//
// Two entry points:
//   * submit()       — enqueue an arbitrary task, get a std::future.
//   * parallel_for() — block-partition an index range across the workers and
//                      wait for completion (the shape of every Adam/convert
//                      kernel in this library).
//
// Shutdown contract: the destructor sets stopping_ under the lock, wakes
// every worker, and joins. Workers keep draining queued tasks after
// stopping_ flips — only an *empty* queue lets a worker exit — so a task
// submitted before the destructor started still runs, and the future
// returned for it stays redeemable. submit() racing the destructor throws
// instead of enqueueing work nobody will execute.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/common.hpp"
#include "util/mutex.hpp"

namespace mlpo {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its result. Throws if the pool is
  /// shutting down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(begin, end) over contiguous chunks of [0, n) in parallel and wait.
  /// Chunk count equals pool size; remainder spread over leading chunks.
  /// The calling thread also executes one chunk, so a pool of K threads gives
  /// K+1-way parallelism for this call.
  ///
  /// Ranges below `min_parallel` run inline on the calling thread: for the
  /// element-wise kernels this pool serves, dispatch overhead exceeds the
  /// work itself well past 10^4 elements, and in scaled-time emulation that
  /// overhead would be multiplied into phantom virtual-time charges.
  void parallel_for(u64 n, const std::function<void(u64, u64)>& fn,
                    u64 min_parallel = 64 * 1024);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ MLPO_GUARDED_BY(mutex_);
  bool stopping_ MLPO_GUARDED_BY(mutex_) = false;
};

}  // namespace mlpo
