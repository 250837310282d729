// Shared work-queue thread pool with deadline-delayed resubmission.
//
// The pool exists for the embarrassingly-parallel stages of the pipeline
// (corpus collection above all): tasks are opaque callables pulled from a
// FIFO ready queue by a fixed set of workers. Two properties matter more
// than raw throughput:
//
//  * submit_after(delay, task) parks a task in a deadline min-heap instead
//    of sleeping inside a worker. This is how transient-retry backoff
//    yields the worker: the retrying task re-enters the ready queue when
//    its deadline passes, and the worker runs other matrices meanwhile.
//    A pool of T workers can therefore overlap arbitrarily many backoff
//    waits, where the serial collector blocked on every one.
//  * wait_idle() gives the submitting thread a barrier over *all* work,
//    including tasks that are currently parked on a deadline and tasks
//    that tasks themselves submitted (resumable state machines).
//  * cooperative_for() spreads a fixed set of indices over the calling
//    thread and the idle workers. It is the in-batch parallelism of
//    serving: a worker serving one request uses its idle peers for the
//    Matrix Market parse and the feature scan. It is also the one
//    parallel runtime of the library: parallel_for (common/parallel.hpp)
//    runs on ThreadPool::current().
//
// Determinism note: the pool makes no ordering promises — callers that
// need deterministic output must index results by task identity (see
// collect_corpus's plan-indexed slot array), never by completion order.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spmvml {

class ThreadPool {
 public:
  /// Spin up `threads` workers (negative clamps to 0). A pool of zero
  /// workers runs cooperative_for on the caller alone; it never runs a
  /// submitted task, so submit() and submit_after() refuse it.
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding tasks are completed before the workers
  /// join (destruction waits for idle).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for immediate execution.
  void submit(std::function<void()> task);

  /// Enqueue a task that becomes runnable `delay_s` seconds from now.
  /// Negative or zero delay degrades to submit(). The calling worker
  /// returns immediately — nobody sleeps holding a pool slot.
  void submit_after(double delay_s, std::function<void()> task);

  /// Block until every submitted task (immediate and delayed, including
  /// tasks submitted by running tasks) has finished.
  void wait_idle();

  /// Run body(i) for every i in [0, n) and return when all have finished.
  /// The calling thread, the workers still polling after an earlier loop
  /// and one helper task per other worker not busy with other work (at
  /// most n - 1) claim indices from one atomic cursor. The caller always
  /// takes part, so a busy pool degrades to the caller running every
  /// index alone, and a pool worker may call this without waiting on its
  /// peers.
  /// Indices run in no fixed order: write results to per-index slots. The
  /// first exception a body throws is rethrown once every index is done.
  void cooperative_for(std::int64_t n,
                       const std::function<void(std::int64_t)>& body);

  int size() const { return static_cast<int>(workers_.size()); }

  /// Threads that can take part in a cooperative_for issued by the
  /// calling thread: the workers, plus the caller unless it is one of
  /// them.
  int participants() const;

  /// The calling thread's slot in [0, participants()): a worker's index,
  /// or size() for a thread outside this pool.
  int participant_index() const;

  /// The pool parallel loops run on when none is named: the calling
  /// worker's own pool, or, for any thread outside a pool, the process
  /// pool of hardware_concurrency() - 1 workers (with the caller, one
  /// participant per hardware thread). The process pool starts on first
  /// use and is never torn down, so a loop may run during static
  /// destruction.
  static ThreadPool& current();

  /// Index of the calling pool worker in [0, size()), or -1 when called
  /// from a thread outside this pool. Lets tasks address per-worker state
  /// (e.g. a private oracle set) without locking.
  static int worker_index();

  /// Liveness snapshot of one worker: whether it is inside a task right
  /// now, and for how long. Workers stamp a heartbeat when a task starts
  /// and clear it when the task returns; a watchdog (the serving
  /// subsystem's) reads the stamps to find stuck workers without any
  /// cooperation from the task itself.
  struct Heartbeat {
    bool busy = false;
    double busy_s = 0.0;  // time inside the current task (0 when idle)
  };

  /// One entry per worker. Lock-free reads of the per-worker atomic
  /// stamps — safe to call from any thread at any rate.
  std::vector<Heartbeat> heartbeats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct DelayedTask {
    Clock::time_point ready_at;
    std::uint64_t seq = 0;  // FIFO tie-break for equal deadlines
    std::function<void()> fn;
    bool operator>(const DelayedTask& o) const {
      return ready_at != o.ready_at ? ready_at > o.ready_at : seq > o.seq;
    }
  };

  void worker_loop(int index);
  /// Move due delayed tasks onto the ready queue. Caller holds mu_.
  void promote_due(Clock::time_point now);

  struct ReadyTask {
    std::function<void()> fn;
    Clock::time_point enqueued;  // ready-queue entry (promotion for delayed)
    bool helper = false;         // a cooperative_for helper
  };

  /// Update ready_size_ and the pool.queue_depth gauge. Caller holds mu_.
  void publish_depth();

  /// One cooperative_for call, shared by its caller and its helpers.
  struct CooperativeRun;
  /// Make `run` the posted loop; the loop it replaces is returned, to be
  /// released outside the lock.
  std::shared_ptr<CooperativeRun> post(std::shared_ptr<CooperativeRun> run);
  /// The posted loop.
  std::shared_ptr<CooperativeRun> posted();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here
  std::condition_variable idle_cv_;   // wait_idle waits here
  std::deque<ReadyTask> ready_;
  std::priority_queue<DelayedTask, std::vector<DelayedTask>,
                      std::greater<DelayedTask>>
      delayed_;
  std::uint64_t delayed_seq_ = 0;
  std::size_t pending_ = 0;  // submitted (ready + delayed + running)
  std::atomic<std::int64_t> busy_{0};  // workers inside a non-helper task
  std::atomic<std::size_t> ready_size_{0};  // ready_.size(), read unlocked
  /// The latest cooperative_for, posted for workers still polling after
  /// a loop: they join it without a queued helper task or mu_.
  /// open_lock_ is a spin lock over open_run_ (behind a mutex, a joining
  /// worker would sleep until the poster woke it); open_epoch_ counts
  /// posts.
  std::atomic_flag open_lock_;
  std::shared_ptr<CooperativeRun> open_run_;
  std::atomic<std::uint64_t> open_epoch_{0};
  std::atomic<std::int64_t> spinning_{0};  // workers polling for a loop
  bool stop_ = false;
  /// Per-worker task-start stamps (steady-clock ns; -1 = idle). Sized at
  /// construction, written only by the owning worker.
  std::unique_ptr<std::atomic<std::int64_t>[]> task_started_ns_;
  std::vector<std::thread> workers_;
};

}  // namespace spmvml
