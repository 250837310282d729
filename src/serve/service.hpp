// The online serving loop: bounded request queue -> micro-batches ->
// batched inference on the thread pool.
//
// Life of a request (DESIGN.md §5f, hardening §5h, ingest §5i):
//
//   submit() ── admission control ──> dispatch shard ──> dispatcher
//     (reject "overloaded" when full;      │  launches up to max_batch
//      shed when the estimated queue       │  pending requests the moment
//      wait cannot meet the deadline       │  a batch slot is free
//      or the admission target)            v
//                                 thread-pool batch task: resolve
//               features (ingest + feature caches), run the classifier
//               ONCE per batch, per-format regressors for indirect and
//               predict requests, fulfil callbacks, free the slot
//
// Work-conserving micro-batching: at most `threads` batches run at once
// (one slot per pool worker, claimed by compare-exchange). A dispatcher
// launches its pending requests as soon as a slot is free, so an idle
// service answers a lone request without waiting; requests accumulate
// into larger batches only while every worker is busy.
//
// Sharded dispatch: submit() round-robins requests across dispatch_shards
// independent {mutex, queue, dispatcher thread} shards, so producers no
// longer serialize on one queue lock. The slot count is global: a
// finishing batch wakes every dispatcher, and whichever shard has work
// claims the freed slot. dispatch_shards = 1 is a single dispatcher.
//
// Ingestion: matrix files resolve through the MatrixCache (matrix_cache.hpp)
// — stat-cache content keys, a byte-budget LRU of parsed CSRs served as
// borrowed refcounted views, binary sidecar loads, and single-flight miss
// coalescing. A repeat request costs two stat() calls and two hash-map
// lookups; the text parse happens once per distinct file content.
//
// The serving ladder: every request stands on one Rung, chosen by its
// mode, and only ever falls:
//
//   indirect (argmin of regressors; predict rides this rung too)
//     └─> direct classifier    (regress stage down / no perf model /
//           │                   deadline too close for the regressors)
//           └─> static CSR     (feature or inference stage down; CSR
//                 │             needs no model and no features, so the
//                 │             selection is always valid)
//                 └─> failed   (errors; predict has no floor below its
//                               own rung, so any fall fails it)
//
// The batch runs four stages — features, classify, regress, finalize
// (feasibility, argmin, materialize) — described by one table row each:
// name, circuit breaker, chaos site, fallback rung and the response's
// stage_*_ms field. One driver applies the cross-cutting concerns from
// the row: the breaker gate (an open breaker drops the request to the
// row's rung), chaos draws with a bounded per-request retry budget, the
// trace span, the stage timer and the breaker outcome. Materialize's row
// keeps the rung: a failed conversion still serves the selection,
// unbuilt. Deadlines: when the measured per-item regressor cost (EWMA
// over past batches) no longer fits an indirect request's remaining
// budget, it falls to the direct rung instead of missing the deadline.
//
// A watchdog thread (enabled by watchdog_ms > 0) reads the pool's
// per-worker heartbeats; when a worker has been inside one task longer
// than the budget, every overdue in-flight batch has its undelivered
// requests failed cleanly. Responses are delivered through a once-only
// slot (an atomic exchange), so a stuck worker that eventually finishes
// becomes a no-op instead of a double callback.
//
// Hot-swap: each batch pins the registry's current bundle once; a swap
// mid-batch is invisible to that batch and takes effect from the next.
// Swaps never touch the ingest cache: a borrowed matrix view stays valid
// across any number of swaps and evictions.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/chaos/chaos.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/arch.hpp"
#include "learn/trainer.hpp"
#include "serve/breaker.hpp"
#include "serve/feature_cache.hpp"
#include "serve/matrix_cache.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
#include "serve/scorecard.hpp"

namespace spmvml::serve {

/// Rungs of the serving ladder, lowest first.
enum class Rung : int { kFailed = 0, kCsr = 1, kDirect = 2, kIndirect = 3 };

/// One request's state inside a batch (defined in service.cpp).
struct Slot;

struct ServiceConfig {
  /// Batch-inference workers (thread pool size), clamped to >= 1.
  int threads = 1;
  /// Coalesce at most this many requests per inference batch.
  std::size_t max_batch = 16;
  /// Admission control: pending requests beyond this are rejected.
  /// The capacity is global across dispatch shards.
  std::size_t queue_capacity = 256;
  /// Feature-cache entries (0 disables the cache).
  std::size_t cache_capacity = 512;
  /// Materialized-matrix ingest cache: byte budget for parsed CSR
  /// instances (serve --ingest-cache-mb; 0 disables caching, every load
  /// re-parses but single-flight coalescing still applies).
  std::size_t ingest_cache_bytes = 256ull << 20;
  /// Dispatch shards (serve --shards): independent pending queues and
  /// dispatcher threads; submit round-robins across them. 1 = a single
  /// dispatcher.
  int dispatch_shards = 1;
  /// Precision assumed by the memory-feasibility gate.
  Precision precision = Precision::kDouble;
  /// Default memory budget in GB (0 = unconstrained); a request's
  /// mem_budget_gb overrides it.
  double mem_budget_gb = 0.0;
  /// Deadline-feasibility load shedding: when > 0, a request whose
  /// estimated queue wait (queue depth x per-item cost EWMA / workers)
  /// exceeds this target is shed at admission with an honest
  /// "shed:overload" instead of joining a queue it cannot clear. A
  /// request carrying a deadline is additionally shed when the estimate
  /// already exceeds the deadline. 0 keeps the seed behavior (reject
  /// only when the queue is full).
  double admission_target_ms = 0.0;
  /// Per-request transient-fault retry budget (all stages combined).
  int max_retries = 2;
  /// Watchdog budget: when > 0, a batch in flight longer than this while
  /// a pool worker is stuck inside one task has its requests failed
  /// cleanly. 0 disables the watchdog thread entirely.
  double watchdog_ms = 0.0;
  /// Tuning shared by the per-stage circuit breakers (features,
  /// inference, regress, materialize).
  BreakerConfig breaker;
  /// Online learning loop (serve --learn; DESIGN.md §5k). Off by
  /// default: with enabled == false the trainer is never constructed,
  /// no shadow probes run, and serving behavior is byte-identical to a
  /// build without the subsystem.
  learn::TrainerConfig learn;
};

class Service {
 public:
  using Callback = std::function<void(const Response&)>;

  Service(ServiceConfig config, ModelRegistry& registry);
  ~Service();  // drains: all accepted requests get a response

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Asynchronous submit; `done` runs exactly once, on a worker thread
  /// (or inline for admission rejections). Never throws: failures are
  /// delivered as ok=false responses.
  void submit(Request req, Callback done);

  /// Future-returning submit.
  std::future<Response> submit(Request req);

  /// Synchronous convenience: submit + wait.
  Response call(Request req);

  /// Stop accepting, drain the queue, run every outstanding batch and
  /// callback, then return. Idempotent; the destructor calls it.
  void shutdown();

  const FeatureCache& cache() const { return cache_; }
  const MatrixCache& ingest() const { return ingest_; }
  /// Prediction scorecard: one entry per materialized conversion+SpMV
  /// (predicted vs measured GFLOPS, chosen-vs-best regret). The drift
  /// feed for the continual-retraining loop.
  const Scorecard& scorecard() const { return scorecard_; }
  /// Online trainer; nullptr unless the service runs with learn.enabled.
  const learn::OnlineTrainer* learner() const { return trainer_.get(); }

  struct Counters {
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;  // per-request errors (bad path, parse, ...)
    std::uint64_t shed = 0;    // admission-shed (subset of rejected)
    std::uint64_t retries = 0;          // transient-fault retries spent
    std::uint64_t watchdog_killed = 0;  // requests failed by the watchdog
    std::uint64_t breaker_trips = 0;    // sum over the stage breakers
  };
  Counters counters() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Once-only response delivery: the batch worker and the watchdog race
  /// benignly for the same slot; the exchange guarantees exactly one wins.
  struct ResponseSlot {
    Callback done;
    std::atomic<bool> delivered{false};
    /// Win the right to respond (worker vs. watchdog race). The winner
    /// must account *before* calling done(): once the callback runs,
    /// the caller may read Service::counters() and must see this request.
    bool claim() { return !delivered.exchange(true); }
  };

  struct Pending {
    Request req;
    std::shared_ptr<ResponseSlot> slot;
    Clock::time_point enqueued;
  };

  /// One dispatch shard: its own pending queue, lock, and dispatcher
  /// thread. Producers touch exactly one shard per submit.
  struct DispatchShard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::thread dispatcher;  // started in the Service constructor body
  };

  /// Watchdog view of one in-flight batch. The batch is shared
  /// read-only, so the watchdog fails its requests without touching the
  /// worker's state.
  using Batch = std::shared_ptr<const std::vector<Pending>>;
  struct Inflight {
    Clock::time_point started;
    Batch batch;
  };

  void dispatcher_loop(std::size_t shard_index);
  /// Take one of the `threads` batch slots; false when all are in use.
  bool claim_slot();
  /// Return a slot and wake every dispatcher under its shard lock, so a
  /// dispatcher that just found no free slot cannot miss the wakeup.
  void release_slot();
  /// Run a batch on the pool; the caller has claimed its slot.
  void launch_batch(std::vector<Pending> batch);
  void process_batch(const Batch& shared);
  void watchdog_loop();
  void kill_overdue(Clock::time_point now);
  /// Stage 1 for one request: features (and the row digest when the
  /// matrix is scanned) from inline values, the feature cache or an
  /// extraction. A materialize request also keeps a borrowed ingest
  /// view of the CSR for the stage-4 conversion.
  void resolve_features(const Request& req, Slot& s);
  /// Stage 4's conversion, timed SpMV, scorecard entry and shadow probe.
  void materialize(const Request& req, Slot& s, const ModelBundle& bundle,
                   const FeasibilityFn& feasible);

  /// One row of the stage table.
  struct Stage {
    const char* span;                 // trace span name
    CircuitBreaker breaker;           // named after the stage
    std::optional<chaos::Site> site;  // retryable chaos site, if any
    Rung floor;                       // where a request falls when down
    double Response::*ms;             // the response's stage_*_ms field
    const char* open_reason;          // "breaker:<name>"
    const char* chaos_reason;         // "chaos:<site>"
    const char* predict_open;   // predict's error when the breaker is open
    const char* predict_chaos;  // ... when a fault outlives the budget
  };
  enum StageId : std::size_t { kFeatures, kClassify, kRegress, kFinalize };

  /// The driver's per-request gate: false, after dropping the request to
  /// the stage's floor, when the stage's breaker is open.
  bool admit(Stage& st, Slot& s);
  /// The stage's chaos draw for one request: transient errors (and, when
  /// `retry_corrupt`, corruption) re-roll within the request's retry
  /// budget with linear backoff. Returns the fault that stands.
  chaos::Fault draw_fault(const Stage& st, Slot& s, bool retry_corrupt);

  ServiceConfig cfg_;
  ModelRegistry& registry_;
  FeatureCache cache_;
  MatrixCache ingest_;
  Scorecard scorecard_;
  ThreadPool pool_;

  /// The stage table, indexed by StageId (rows in service.cpp).
  std::array<Stage, 4> stages_;

  /// Constructed only when cfg_.learn.enabled; declared after the pool
  /// and scorecard it references so it is destroyed first (shutdown()
  /// stops it explicitly before the pool drains).
  std::unique_ptr<learn::OnlineTrainer> trainer_;
  /// Round-robin cursor for the shadow-probe format choice (learning
  /// mode only): which extra format the next materialize request times.
  std::atomic<std::uint64_t> probe_seq_{0};

  std::vector<std::unique_ptr<DispatchShard>> shards_;
  std::atomic<bool> stopping_{false};
  /// Round-robin cursor for submit()'s shard choice.
  std::atomic<std::uint64_t> submit_seq_{0};
  /// Requests sitting in shard queues (global, for the capacity gate).
  std::atomic<std::uint64_t> total_queued_{0};
  /// Batches claimed by a dispatcher and not yet finished, <= threads.
  /// Only batches count: nested feature-block tasks and the online
  /// trainer share pool_ but hold no slot.
  std::atomic<int> running_batches_{0};
  std::once_flag shutdown_once_;

  std::mutex inflight_mu_;
  std::uint64_t inflight_seq_ = 0;
  std::map<std::uint64_t, Inflight> inflight_;

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> retried_{0};
  std::atomic<std::uint64_t> watchdog_killed_{0};
  /// EWMA of per-item regressor cost (ms) across all formats; 0 until
  /// the first indirect/predict batch measures it.
  std::atomic<double> indirect_item_cost_ms_{0.0};
  /// EWMA of total per-item batch cost (ms): drives admission shedding.
  /// Asymmetric smoothing — falls fast (cache-warm batches should stop
  /// the shedding quickly), rises slowly (one slow batch is not a
  /// regime change).
  std::atomic<double> batch_item_cost_ms_{0.0};
  /// Items admitted but not yet finished: shard queues plus running
  /// batches. Queue depth alone misses the up to `threads` batches
  /// already on the workers.
  std::atomic<std::uint64_t> backlog_{0};

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace spmvml::serve
