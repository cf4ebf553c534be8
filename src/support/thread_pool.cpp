#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>

namespace kojak::support {

namespace {

/// The pool whose worker_loop runs on this thread; null on other threads.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Join here, not via jthread's destructor: members destroy in reverse
  // declaration order, so tasks_/mutex_/cv_ would be gone before workers_
  // (declared first) joins — a worker still draining the queue would read
  // freed memory.
  for (std::jthread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

bool ThreadPool::owns_current_thread() const noexcept {
  return current_pool == this;
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t tasks = std::min(workers == 0 ? size() : workers, n);
  if (tasks <= 1 || owns_current_thread()) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  std::latch done(static_cast<std::ptrdiff_t>(tasks));
  {
    std::lock_guard lock(mutex_);
    for (std::size_t worker = 0; worker < tasks; ++worker) {
      tasks_.emplace([&, worker] {
        while (!failed) {
          const std::size_t i = next++;
          if (i >= n) break;
          try {
            body(i, worker);
          } catch (...) {
            const std::lock_guard error_lock(error_mutex);
            if (i < error_index) {
              error_index = i;
              error = std::current_exception();
            }
            failed = true;
          }
        }
        done.count_down();
      });
    }
  }
  cv_.notify_all();
  done.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace kojak::support
