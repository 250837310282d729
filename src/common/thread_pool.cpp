#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/obs/metrics.hpp"

namespace spmvml {

namespace {
thread_local int tls_worker_index = -1;

// Handles are cheap {registry, id} values; function-local statics keep
// the name lookup off the per-task path. Several pools share the series
// (the pipeline runs one pool at a time).
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge g =
      obs::MetricsRegistry::global().gauge("pool.queue_depth");
  return g;
}
obs::Counter& tasks_counter() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("pool.tasks_completed");
  return c;
}
obs::Histogram& wait_histogram() {
  static obs::Histogram h =
      obs::MetricsRegistry::global().histogram("pool.task_wait_s");
  return h;
}
obs::Histogram& run_histogram() {
  static obs::Histogram h =
      obs::MetricsRegistry::global().histogram("pool.task_run_s");
  return h;
}
}  // namespace

namespace {
std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  task_started_ns_ =
      std::make_unique<std::atomic<std::int64_t>[]>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) task_started_ns_[i].store(-1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::worker_index() { return tls_worker_index; }

void ThreadPool::publish_depth() {
  queue_depth_gauge().set(
      static_cast<double>(ready_.size() + delayed_.size()));
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back({std::move(task), Clock::now()});
    ++pending_;
    publish_depth();
  }
  work_cv_.notify_one();
}

void ThreadPool::submit_after(double delay_s, std::function<void()> task) {
  if (delay_s <= 0.0) {
    submit(std::move(task));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    DelayedTask t;
    t.ready_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(delay_s));
    t.seq = delayed_seq_++;
    t.fn = std::move(task);
    delayed_.push(std::move(t));
    ++pending_;
    publish_depth();
  }
  // A worker may be sleeping past the new deadline; wake one to re-arm.
  work_cv_.notify_one();
}

void ThreadPool::promote_due(Clock::time_point now) {
  while (!delayed_.empty() && delayed_.top().ready_at <= now) {
    // priority_queue::top() is const; the task is moved out via const_cast
    // immediately before pop, which is safe because no other accessor
    // observes the moved-from element.
    // Queue wait counts from promotion, not submit_after: the deadline
    // delay is intentional backoff, not queue pressure.
    ready_.push_back(
        {std::move(const_cast<DelayedTask&>(delayed_.top()).fn), now});
    delayed_.pop();
  }
}

void ThreadPool::worker_loop(int index) {
  tls_worker_index = index;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    promote_due(Clock::now());
    if (!ready_.empty()) {
      // promote_due may have made several tasks runnable at once; chain a
      // wake-up so sibling workers pick up the rest.
      if (ready_.size() > 1) work_cv_.notify_one();
      ReadyTask task = std::move(ready_.front());
      ready_.pop_front();
      publish_depth();
      lock.unlock();
      const Clock::time_point started = Clock::now();
      wait_histogram().observe(
          std::chrono::duration<double>(started - task.enqueued).count());
      task_started_ns_[index].store(steady_ns(), std::memory_order_release);
      task.fn();
      // Release the closure's captures before bookkeeping so wait_idle()
      // returning implies task state has been destroyed.
      task.fn = nullptr;
      task_started_ns_[index].store(-1, std::memory_order_release);
      run_histogram().observe(
          std::chrono::duration<double>(Clock::now() - started).count());
      tasks_counter().inc();
      lock.lock();
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    ++idle_;
    if (!delayed_.empty()) {
      // Copy the deadline: wait_until keeps a reference to its argument
      // while the mutex is released, and a concurrent submit_after can
      // reallocate the queue's storage under it.
      const Clock::time_point deadline = delayed_.top().ready_at;
      work_cv_.wait_until(lock, deadline);
    } else {
      work_cv_.wait(lock);
    }
    --idle_;
  }
}

std::vector<ThreadPool::Heartbeat> ThreadPool::heartbeats() const {
  std::vector<Heartbeat> out(workers_.size());
  const std::int64_t now = steady_ns();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const std::int64_t started =
        task_started_ns_[i].load(std::memory_order_acquire);
    if (started >= 0) {
      out[i].busy = true;
      out[i].busy_s = static_cast<double>(now - started) * 1e-9;
    }
  }
  return out;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

namespace {

/// One cooperative_for call, shared by the caller and its helper tasks.
/// A helper that starts after the cursor ran out touches nothing but
/// this state, which its shared_ptr keeps alive.
struct CooperativeRun {
  const std::function<void(std::int64_t)>* body = nullptr;
  std::int64_t n = 0;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first thrown; guarded by mu

  void claim() {
    std::int64_t completed = 0;
    for (;;) {
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      ++completed;
    }
    if (completed > 0 &&
        done.fetch_add(completed, std::memory_order_acq_rel) + completed ==
            n) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::cooperative_for(
    std::int64_t n, const std::function<void(std::int64_t)>& body) {
  if (n <= 0) return;
  auto run = std::make_shared<CooperativeRun>();
  run->body = &body;
  run->n = n;
  // Only idle workers get a helper: a queued helper behind busy workers
  // would start after the caller had run every index itself.
  std::int64_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_ > ready_.size())
      helpers = std::min<std::int64_t>(
          static_cast<std::int64_t>(idle_ - ready_.size()), n - 1);
  }
  for (std::int64_t h = 0; h < helpers; ++h) submit([run] { run->claim(); });
  run->claim();  // the caller participates
  std::unique_lock<std::mutex> lock(run->mu);
  run->cv.wait(lock, [&] {
    return run->done.load(std::memory_order_acquire) == n;
  });
  if (run->error) std::rethrow_exception(run->error);
}

}  // namespace spmvml
