#include "util/thread_pool.hpp"

#include <algorithm>

namespace mlpo {

namespace {
// The pool whose worker_loop() runs on this thread, if any.
thread_local const ThreadPool* tls_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // only reachable when stopping_
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(u64 n, const std::function<void(u64, u64)>& fn,
                              u64 min_parallel) {
  if (n == 0) return;
  // A task of this pool that fans out would wait on chunks queued behind
  // itself and its busy siblings: with every worker doing so, none is left
  // to run them. Run such calls inline.
  if (n < min_parallel || tls_current_pool == this) {
    fn(0, n);
    return;
  }
  const u64 parts = std::min<u64>(n, workers_.size() + 1);
  const u64 base = n / parts;
  const u64 rem = n % parts;

  std::vector<std::future<void>> futs;
  futs.reserve(parts - 1);
  u64 begin = 0;
  u64 first_end = 0;
  for (u64 p = 0; p < parts; ++p) {
    const u64 len = base + (p < rem ? 1 : 0);
    const u64 end = begin + len;
    if (p == 0) {
      first_end = end;  // reserved for the calling thread
    } else {
      futs.push_back(submit([=, &fn] { fn(begin, end); }));
    }
    begin = end;
  }
  fn(0, first_end);
  for (auto& f : futs) f.get();
}

}  // namespace mlpo
