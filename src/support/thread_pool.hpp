#ifndef KOJAK_SUPPORT_THREAD_POOL_HPP
#define KOJAK_SUPPORT_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace kojak::support {

/// Fixed-size worker pool whose only entry point is parallel_for. Every
/// in-process fan-out in the library (the simulator's PE timelines, the
/// analyzer's context fan-out, the batch analyzer's runs, the executor's
/// partition scans and CTE waves) goes through it. Results are always
/// reduced in a deterministic order by the caller, so pooled execution
/// never changes output (only wall time).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool owns_current_thread() const noexcept;

  /// Runs body(i, worker) for every i in [0, n) on min(workers, n) tasks
  /// (workers == 0 means size()) and blocks until all of them returned.
  /// Each task claims indices one at a time from a shared counter; `worker`
  /// is the task's id in [0, tasks), so callers can index per-worker state.
  ///
  /// Errors: once an index has thrown, tasks stop claiming new ones. Every
  /// lower index was claimed before it and still runs, so the exception
  /// rethrown — the lowest failing index's — is the one the serial loop
  /// would have raised first.
  ///
  /// Runs inline on the caller, as worker 0 and in index order, when there
  /// is at most one task or when the caller is itself one of this pool's
  /// workers: nested use degrades to serial instead of deadlocking a pool
  /// whose workers all wait on it.
  void parallel_for(
      std::size_t n, std::size_t workers,
      const std::function<void(std::size_t i, std::size_t worker)>& body);

 private:
  void worker_loop();

  std::vector<std::jthread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace kojak::support

#endif  // KOJAK_SUPPORT_THREAD_POOL_HPP
