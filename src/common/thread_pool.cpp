#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace spmvml {

namespace {
thread_local int tls_worker_index = -1;
thread_local ThreadPool* tls_pool = nullptr;  // the pool the thread works for

/// How long a thread that took part in a cooperative_for polls before it
/// sleeps: the caller for helpers still running, a helper for the next
/// loop. Loops come back to back (100 SpMVs, merge-CSR's two phases), and
/// waking a parked thread costs more than a short loop.
constexpr std::chrono::microseconds kCooperativeSpin{50};

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
  const int n = std::max(0, threads);
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

int ThreadPool::participants() const {
  return size() + (tls_pool == this ? 0 : 1);
}

int ThreadPool::participant_index() const {
  return tls_pool == this ? tls_worker_index : size();
}

ThreadPool& ThreadPool::current() {
  if (tls_pool != nullptr) return *tls_pool;
  // Leaked on purpose: its workers stay parked until the process exits.
  static ThreadPool* const process = new ThreadPool(
      static_cast<int>(std::thread::hardware_concurrency()) - 1);
  return *process;
}

void ThreadPool::publish_depth() {
  ready_size_.store(ready_.size(), std::memory_order_relaxed);
  queue_depth_gauge().set(
      static_cast<double>(ready_.size() + delayed_.size()));
}

void ThreadPool::submit(std::function<void()> task) {
  SPMVML_ENSURE(!workers_.empty(), "submit on a pool with no workers");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back({std::move(task), Clock::now()});
    ++pending_;
    publish_depth();
  }
  work_cv_.notify_one();
}

void ThreadPool::submit_after(double delay_s, std::function<void()> task) {
  SPMVML_ENSURE(!workers_.empty(), "submit on a pool with no workers");
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
  if (delayed_.empty() || delayed_.top().ready_at > now) return;
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
  publish_depth();
}

/// One cooperative_for call, shared by the caller and its helper tasks.
/// A helper that starts after the cursor ran out touches nothing but
/// this state, which its shared_ptr keeps alive.
struct ThreadPool::CooperativeRun {
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

std::shared_ptr<ThreadPool::CooperativeRun> ThreadPool::post(
    std::shared_ptr<CooperativeRun> run) {
  while (open_lock_.test_and_set(std::memory_order_acquire))
    std::this_thread::yield();
  open_run_.swap(run);
  open_lock_.clear(std::memory_order_release);
  return run;
}

std::shared_ptr<ThreadPool::CooperativeRun> ThreadPool::posted() {
  while (open_lock_.test_and_set(std::memory_order_acquire))
    std::this_thread::yield();
  std::shared_ptr<CooperativeRun> run = open_run_;
  open_lock_.clear(std::memory_order_release);
  return run;
}

void ThreadPool::worker_loop(int index) {
  tls_worker_index = index;
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  bool spin = false;  // the last task was a cooperative_for helper
  for (;;) {
    promote_due(Clock::now());
    if (!ready_.empty()) {
      // promote_due may have made several tasks runnable at once; chain a
      // wake-up so sibling workers pick up the rest.
      if (ready_.size() > 1) work_cv_.notify_one();
      ReadyTask task = std::move(ready_.front());
      ready_.pop_front();
      publish_depth();
      if (!task.helper) busy_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      const Clock::time_point started = Clock::now();
      wait_histogram().observe(
          std::chrono::duration<double>(started - task.enqueued).count());
      task_started_ns_[index].store(steady_ns(), std::memory_order_release);
      task.fn();
      spin = task.helper;
      // Release the closure's captures before bookkeeping so wait_idle()
      // returning implies task state has been destroyed.
      task.fn = nullptr;
      // Free for the next task from here on: one queued now is picked up
      // right after the bookkeeping below, without a wake-up.
      if (!task.helper) busy_.fetch_sub(1, std::memory_order_relaxed);
      task_started_ns_[index].store(-1, std::memory_order_release);
      run_histogram().observe(
          std::chrono::duration<double>(Clock::now() - started).count());
      tasks_counter().inc();
      lock.lock();
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    if (spin) {
      // Poll without blocking on mu_: helpers that blocked on it while
      // their loop's caller queued them would be handed the lock one
      // futex wake-up at a time. A loop posted meanwhile is joined
      // directly; cooperative_for queues no helper for a polling worker.
      spin = false;
      lock.unlock();
      spinning_.fetch_add(1);
      std::uint64_t seen = open_epoch_.load();
      const auto join_posted = [&] {
        const std::uint64_t epoch = open_epoch_.load();
        if (epoch == seen) return false;
        seen = epoch;
        task_started_ns_[index].store(steady_ns(), std::memory_order_release);
        posted()->claim();
        task_started_ns_[index].store(-1, std::memory_order_release);
        return true;
      };
      Clock::time_point until = Clock::now() + kCooperativeSpin;
      while (!(ready_size_.load(std::memory_order_relaxed) > 0 &&
               lock.try_lock()) &&
             Clock::now() < until) {
        if (join_posted())
          until = Clock::now() + kCooperativeSpin;
        else
          std::this_thread::yield();
      }
      // cooperative_for posts its loop before it counts the polling
      // workers, and a worker stops counting before its last look: so
      // either the caller queues this worker a helper, or the worker sees
      // the post here (both sequentially consistent).
      spinning_.fetch_sub(1);
      if (lock.owns_lock()) lock.unlock();
      join_posted();
      lock.lock();
      continue;
    }
    if (!delayed_.empty()) {
      // Copy the deadline: wait_until keeps a reference to its argument
      // while the mutex is released, and a concurrent submit_after can
      // reallocate the queue's storage under it.
      const Clock::time_point deadline = delayed_.top().ready_at;
      work_cv_.wait_until(lock, deadline);
    } else {
      work_cv_.wait(lock);
    }
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

void ThreadPool::cooperative_for(
    std::int64_t n, const std::function<void(std::int64_t)>& body) {
  if (n <= 0) return;
  auto run = std::make_shared<CooperativeRun>();
  run->body = &body;
  run->n = n;
  // Workers still polling after a loop join this one from its post.
  if (n > 1 && !workers_.empty()) {
    post(run);
    open_epoch_.fetch_add(1);
  }
  // Every other worker that is not busy gets a helper task: a queued
  // helper behind a busy worker would start after the caller had run
  // every index itself. A worker inside another loop's helper is not
  // busy, as that helper ends with its loop's last index. All helpers are
  // queued under one lock and woken by one notify, so the caller starts
  // on its own indices at once.
  const std::int64_t helpers = std::clamp<std::int64_t>(
      size() - busy_.load(std::memory_order_relaxed) -
          static_cast<std::int64_t>(
              ready_size_.load(std::memory_order_relaxed)) -
          spinning_.load(),
      0, n - 1);
  if (helpers > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    const Clock::time_point now = Clock::now();
    for (std::int64_t h = 0; h < helpers; ++h)
      ready_.push_back({[run] { run->claim(); }, now, /*helper=*/true});
    pending_ += static_cast<std::size_t>(helpers);
    publish_depth();
  }
  if (helpers == 1) work_cv_.notify_one();
  if (helpers > 1) work_cv_.notify_all();
  run->claim();  // the caller participates
  const Clock::time_point spin_until = Clock::now() + kCooperativeSpin;
  while (run->done.load(std::memory_order_acquire) != n &&
         Clock::now() < spin_until)
    std::this_thread::yield();
  std::unique_lock<std::mutex> lock(run->mu);
  run->cv.wait(lock, [&] {
    return run->done.load(std::memory_order_acquire) == n;
  });
  if (run->error) std::rethrow_exception(run->error);
}

}  // namespace spmvml
