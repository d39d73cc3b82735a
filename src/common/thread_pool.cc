#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace newslink {

namespace {

/// The pool whose WorkerLoop is running on this thread (null on external
/// threads). Lets ParallelFor detect reentrancy: a worker that blocked in
/// Wait() would deadlock once every worker is occupied by its caller.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (t_worker_pool == this) {
    // Called from one of our own workers (e.g. a submitted task fans out):
    // Wait() below would block this worker while the loop tasks sit behind
    // it in the queue — with all workers occupied by such callers, nobody
    // ever drains the queue. Run the loop inline on this thread instead.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One task per worker strided over [0, n): cheap for small n, balanced
  // enough for our document-granularity workloads. The caller waits for
  // its own tasks only, not for the whole pool to go idle: a long-lived
  // pool shared by concurrent callers would otherwise hold each of them
  // until nobody else has work queued.
  std::atomic<size_t> next{0};
  const size_t workers = std::min(n, threads_.size());
  size_t running = workers;  // guarded by mu_
  for (size_t w = 0; w < workers; ++w) {
    Submit([this, &next, &running, n, &fn] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--running == 0) all_done_.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [&running] { return running == 0; });
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace newslink
