#include "util/thread_pool.h"

#include <cstdlib>
#include <string>

namespace itdb {

namespace {

/// The innermost installed cancellation token (see CancellationScope).
thread_local const CancellationToken* t_cancellation_token = nullptr;

}  // namespace

CancellationScope::CancellationScope(const CancellationToken* token)
    : saved_(t_cancellation_token) {
  t_cancellation_token = token;
}

CancellationScope::~CancellationScope() { t_cancellation_token = saved_; }

const CancellationToken* CurrentCancellationToken() {
  return t_cancellation_token;
}

Status CheckCancellation() {
  const CancellationToken* token = t_cancellation_token;
  if (token == nullptr || !token->Expired()) return Status::Ok();
  return Status::ResourceExhausted(token->cancelled() ? "cancelled"
                                                      : "deadline exceeded");
}

ThreadPool::ThreadPool(int num_workers) { EnsureWorkers(num_workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::EnsureWorkers(int count) {
  if (count > kMaxWorkers) count = kMaxWorkers;
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++tasks_submitted_;
    const auto depth = static_cast<std::int64_t>(queue_.size());
    if (depth > queue_depth_max_) queue_depth_max_ = depth;
  }
  cv_.notify_one();
}

ThreadPool::PoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats out;
  out.tasks_submitted = tasks_submitted_;
  out.queue_depth_max = queue_depth_max_;
  out.workers = static_cast<int>(workers_.size());
  return out;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutting down with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(0);
  return pool;
}

int ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("ITDB_THREADS")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 1) {
      return parsed > kMaxWorkers ? kMaxWorkers : static_cast<int>(parsed);
    }
  }
  // hardware_concurrency() re-reads /sys on every call (~2us); the machine's
  // core count cannot change mid-process, so resolve it once.  ITDB_THREADS
  // above stays dynamic (tests set it mid-process).
  static const int hw = [] {
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }();
  return hw;
}

}  // namespace itdb
