#include "serve/service.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "features/features.hpp"
#include "gpusim/fault.hpp"
#include "ml/dataset.hpp"
#include "sparse/arena.hpp"

namespace spmvml::serve {

/// One request's state through the batch stages.
struct Slot {
  Response rsp;
  Rung rung = Rung::kFailed;
  std::uint64_t identity = 0;  // chaos draw key, stable across retries
  FeatureVector features;
  /// Row digest for the memory-feasibility mask; absent when the matrix
  /// was never scanned (inline features, or the stage went down first).
  std::optional<RowSummary> summary;
  /// Borrowed ingest view, kept only for materialize requests. Pins the
  /// CSR against cache eviction for the life of the batch.
  std::shared_ptr<const Csr<double>> view;
  bool counted = false;  // select_feasible() bumped serve.select itself
};

namespace {

constexpr double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64, 128};
/// Linear backoff step between retries of a faulted stage.
constexpr double kRetryBackoffMs = 0.5;

using PricedFormats = std::vector<std::pair<Format, double>>;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Clamp config knobs before any member (and the dispatcher threads,
/// which start in the constructor body) can read them.
ServiceConfig sanitize(ServiceConfig cfg) {
  cfg.threads = cfg.threads < 1 ? 1 : cfg.threads;
  cfg.max_batch = std::max<std::size_t>(cfg.max_batch, 1);
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  cfg.dispatch_shards = std::max(cfg.dispatch_shards, 1);
  cfg.admission_target_ms = std::max(cfg.admission_target_ms, 0.0);
  cfg.max_retries = std::max(cfg.max_retries, 0);
  cfg.watchdog_ms = std::max(cfg.watchdog_ms, 0.0);
  return cfg;
}

std::string format_ms(double ms) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << ms;
  return os.str();
}

/// Drop `s` to `target` for `reason`; a request never climbs back up.
/// Predict has no floor below its own rung — its answer is the
/// regressor pass — so a fall fails it with `predict_error` instead.
/// Every other mode is served degraded and keeps its first reason.
void fall(Slot& s, Rung target, std::string_view reason,
          const char* predict_error) {
  if (target < s.rung && s.rsp.mode == RequestMode::kPredict) {
    s.rung = Rung::kFailed;
    s.rsp.error = predict_error;
    return;
  }
  s.rung = std::min(s.rung, target);
  s.rsp.degraded = true;
  if (s.rsp.degrade_reason.empty()) s.rsp.degrade_reason = reason;
}

/// The one exception-to-response mapping: "<category>: <what>", with
/// anything outside the error taxonomy reported as "generic".
void fail(Slot& s, const std::exception& e) {
  const auto* err = dynamic_cast<const Error*>(&e);
  s.rung = Rung::kFailed;
  s.rsp.ok = false;
  s.rsp.error =
      err != nullptr ? error_category_name(err->category()) : "generic";
  s.rsp.error.append(": ").append(e.what());
}

/// Predicted SpMV time of every modeled format, in microseconds.
PricedFormats price_formats(const PerfModel& perf,
                            const FeatureVector& features) {
  PricedFormats priced;
  priced.reserve(perf.formats().size());
  for (const Format f : perf.formats())
    priced.emplace_back(f, perf.predict_seconds(features, f) * 1e6);
  return priced;
}

/// The cheapest priced format that `feasible` admits (every format when
/// it is empty): the first one on ties, nullptr when none is admitted.
const std::pair<Format, double>* cheapest(const PricedFormats& priced,
                                          const FeasibilityFn& feasible = {}) {
  const std::pair<Format, double>* best = nullptr;
  for (const auto& p : priced)
    if ((!feasible || feasible(p.first)) &&
        (best == nullptr || p.second < best->second))
      best = &p;
  return best;
}

/// Perf-model GFLOPS of `f` for `flops` of work; 0 when `f` is unpriced.
double priced_gflops(const PricedFormats& priced, Format f, double flops) {
  for (const auto& [g, us] : priced)
    if (g == f && us > 0.0) return flops / (us * 1e-6) / 1e9;
  return 0.0;
}

/// One timed SpMV (x = 1, y = 0) on a built format, in seconds. The
/// vectors are thread_local like the conversion arena, so steady state
/// allocates nothing. Clamped: a sub-resolution measurement must not
/// produce an infinite GFLOPS figure.
double time_spmv(const AnyMatrix<double>& built, const Csr<double>& csr) {
  thread_local std::vector<double> x, y;
  x.assign(static_cast<std::size_t>(csr.cols()), 1.0);
  y.assign(static_cast<std::size_t>(csr.rows()), 0.0);
  WallTimer timer;
  built.spmv(x, y);
  return std::max(timer.seconds(), 1e-9);
}

}  // namespace

Service::Service(ServiceConfig config, ModelRegistry& registry)
    : cfg_(sanitize(config)),
      registry_(registry),
      cache_(cfg_.cache_capacity),
      ingest_(cfg_.ingest_cache_bytes),
      pool_(cfg_.threads),
      // The stage table. Materialize's floor is the rung the request
      // already stands on: the selection is served, just not built.
      stages_{{
          {"serve.features", {"features", cfg_.breaker},
           chaos::Site::kFeatureExtract, Rung::kCsr,
           &Response::stage_features_ms, "breaker:features",
           "chaos:feature_extract",
           "unavailable: feature stage breaker open (predict has no "
           "degradation floor)",
           "io: injected feature-extract fault persisted past the retry "
           "budget"},
          {"serve.classify", {"inference", cfg_.breaker},
           chaos::Site::kInference, Rung::kCsr, &Response::stage_classify_ms,
           "breaker:inference", "chaos:inference",
           "unavailable: inference breaker open (predict has no degradation "
           "floor)",
           "model-format: injected inference fault persisted past the retry "
           "budget"},
          {"serve.regress", {"regress", cfg_.breaker}, std::nullopt,
           Rung::kDirect, &Response::stage_regress_ms, "breaker:regress",
           nullptr,
           "unavailable: regress breaker open (predict has no degradation "
           "floor)",
           nullptr},
          {"serve.finalize", {"materialize", cfg_.breaker},
           chaos::Site::kMaterialize, Rung::kIndirect,
           &Response::stage_finalize_ms, "breaker:materialize",
           "chaos:materialize", nullptr, nullptr},
      }} {
  const auto n_shards = static_cast<std::size_t>(cfg_.dispatch_shards);
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i)
    shards_.push_back(std::make_unique<DispatchShard>());
  // Dispatchers start only after every shard exists: release_slot()
  // walks the whole shard vector.
  for (std::size_t i = 0; i < n_shards; ++i)
    shards_[i]->dispatcher = std::thread([this, i] { dispatcher_loop(i); });
  if (cfg_.watchdog_ms > 0.0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
  if (cfg_.learn.enabled)
    trainer_ = std::make_unique<learn::OnlineTrainer>(cfg_.learn, scorecard_,
                                                      registry_, pool_);
  obs::log_info("serve.start")
      .kv("threads", pool_.size())
      .kv("max_batch", static_cast<std::uint64_t>(cfg_.max_batch))
      .kv("queue_capacity", static_cast<std::uint64_t>(cfg_.queue_capacity))
      .kv("dispatch_shards", static_cast<std::uint64_t>(n_shards))
      .kv("ingest_cache_mb",
          static_cast<std::uint64_t>(cfg_.ingest_cache_bytes >> 20))
      .kv("admission_target_ms", cfg_.admission_target_ms)
      .kv("watchdog_ms", cfg_.watchdog_ms);
}

Service::~Service() { shutdown(); }

void Service::submit(Request req, Callback done) {
  // Sampling was decided once at parse; it travels with the request (so
  // it survives the shard queue and the batch hand-off) and only turns into
  // events while a trace is actually recording.
  const bool sampled = req.trace_sampled && obs::trace_enabled();
  if (sampled) obs::trace_instant("req.admit", req.id);
  Response reject;
  reject.id = req.id;
  reject.mode = req.mode;
  const std::size_t shard_index =
      submit_seq_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  DispatchShard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load(std::memory_order_relaxed)) {
      reject.error = "rejected: service is shutting down";
    } else {
      // Deadline-feasibility shedding: admitting a request the queue
      // cannot clear in time only manufactures a deadline miss (or an
      // unbounded latency tail); reject it honestly instead. The wait
      // estimate is backlog x per-item batch cost over the worker
      // count; before the first batch the EWMA is 0 and everything is
      // admitted (the seed behavior).
      const double item_ms = batch_item_cost_ms_.load(std::memory_order_relaxed);
      const double est_wait_ms =
          item_ms > 0.0
              ? static_cast<double>(backlog_.load(std::memory_order_relaxed)) *
                    item_ms / static_cast<double>(pool_.size())
              : 0.0;
      reject.est_wait_ms = est_wait_ms;
      // Reserve a queue slot; the capacity gate is global across shards.
      const std::uint64_t depth =
          total_queued_.fetch_add(1, std::memory_order_relaxed);
      if (depth >= cfg_.queue_capacity) {
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        reject.error = "rejected: queue full (overloaded)";
        reject.shed = "shed:queue_full";
      } else {
        const bool over_target = cfg_.admission_target_ms > 0.0 &&
                                 est_wait_ms > cfg_.admission_target_ms;
        const bool misses_deadline =
            req.deadline_ms > 0.0 && est_wait_ms > req.deadline_ms;
        if (!over_target && !misses_deadline) {
          backlog_.fetch_add(1, std::memory_order_relaxed);
          shard.queue.push_back(
              Pending{std::move(req),
                      std::make_shared<ResponseSlot>(std::move(done)),
                      Clock::now()});
          obs::MetricsRegistry::global().gauge("serve.queue_depth").set(
              static_cast<double>(depth + 1));
          shard.cv.notify_one();
          return;
        }
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        const bool by_deadline = misses_deadline && !over_target;
        reject.shed = by_deadline ? "shed:deadline" : "shed:overload";
        reject.error = "rejected: estimated queue wait " +
                       format_ms(est_wait_ms) + "ms exceeds " +
                       (by_deadline ? "the request deadline"
                                    : "the admission target");
      }
    }
  }
  // Deliver the rejection outside the lock; the callback may do I/O.
  if (sampled) obs::trace_instant("req.shed", reject.id);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().counter("serve.rejected").inc();
  if (!reject.shed.empty()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global()
        .counter("serve." + std::string(reject.shed).replace(4, 1, "."))
        .inc();
  }
  done(reject);
}

std::future<Response> Service::submit(Request req) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(std::move(req),
         [promise](const Response& r) { promise->set_value(r); });
  return future;
}

Response Service::call(Request req) { return submit(std::move(req)).get(); }

void Service::shutdown() {
  stopping_.store(true);
  // Lock-fence every shard: any submit that read stopping_ == false has
  // finished its push (and its notify) by the time we have held that
  // shard's mutex, so the wakeups below cannot miss a late enqueue.
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
  }
  for (auto& s : shards_) s->cv.notify_all();
  std::call_once(shutdown_once_, [this] {
    for (auto& s : shards_)
      if (s->dispatcher.joinable()) s->dispatcher.join();
    // The trainer stops before the pool drains: its poll thread must not
    // submit new training tasks once wait_idle() starts counting.
    if (trainer_) trainer_->stop();
    pool_.wait_idle();
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    obs::log_info("serve.stop")
        .kv("served", served_.load())
        .kv("rejected", rejected_.load())
        .kv("degraded", degraded_.load())
        .kv("shed", shed_.load())
        .kv("watchdog_killed", watchdog_killed_.load());
  });
}

Service::Counters Service::counters() const {
  Counters c;
  c.served = served_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.retries = retried_.load(std::memory_order_relaxed);
  c.watchdog_killed = watchdog_killed_.load(std::memory_order_relaxed);
  for (const Stage& st : stages_) c.breaker_trips += st.breaker.trips();
  return c;
}

bool Service::claim_slot() {
  int running = running_batches_.load();
  while (running < cfg_.threads)
    if (running_batches_.compare_exchange_weak(running, running + 1))
      return true;
  return false;
}

void Service::release_slot() {
  running_batches_.fetch_sub(1);
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->cv.notify_one();
  }
}

void Service::launch_batch(std::vector<Pending> batch) {
  total_queued_.fetch_sub(batch.size(), std::memory_order_relaxed);
  obs::MetricsRegistry::global().gauge("serve.queue_depth").set(
      static_cast<double>(total_queued_.load(std::memory_order_relaxed)));
  Batch shared = std::make_shared<const std::vector<Pending>>(std::move(batch));
  pool_.submit([this, shared] {
    process_batch(shared);
    release_slot();
  });
}

void Service::dispatcher_loop(std::size_t shard_index) {
  DispatchShard& self = *shards_[shard_index];
  std::unique_lock<std::mutex> lock(self.mu);
  for (;;) {
    // Work-conserving gate: launch the moment there is work and a free
    // slot. Requests wait here only while every slot is busy, and they
    // leave together as one batch. Shutdown still drains the queue
    // through the same gate.
    self.cv.wait(lock, [&] {
      if (self.queue.empty()) return stopping_.load(std::memory_order_relaxed);
      return claim_slot();
    });
    if (self.queue.empty()) return;  // stopping, and nothing left to run

    const std::size_t n = std::min(self.queue.size(), cfg_.max_batch);
    std::vector<Pending> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(self.queue.front()));
      self.queue.pop_front();
    }
    lock.unlock();
    launch_batch(std::move(batch));
    lock.lock();
  }
}

void Service::watchdog_loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      std::max(1.0, cfg_.watchdog_ms / 4.0));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, period);
    if (watchdog_stop_) return;
    lock.unlock();
    kill_overdue(Clock::now());
    lock.lock();
  }
}

void Service::kill_overdue(Clock::time_point now) {
  // Only act when a pool worker is demonstrably stuck inside one task —
  // an overdue batch whose worker is still making progress across tasks
  // is latency, not a hang, and the breakers own that.
  if (std::ranges::none_of(pool_.heartbeats(), [&](const auto& hb) {
        return hb.busy && hb.busy_s * 1e3 >= cfg_.watchdog_ms;
      }))
    return;

  std::vector<Inflight> victims;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    std::erase_if(inflight_, [&](const auto& entry) {
      if (ms_between(entry.second.started, now) < cfg_.watchdog_ms)
        return false;
      victims.push_back(entry.second);
      return true;
    });
  }
  auto& registry_metrics = obs::MetricsRegistry::global();
  for (const Inflight& v : victims) {
    for (const Pending& p : *v.batch) {
      if (!p.slot->claim()) continue;
      Response r;
      r.id = p.req.id;
      r.mode = p.req.mode;
      r.error = "watchdog: batch exceeded the " + format_ms(cfg_.watchdog_ms) +
                "ms budget (worker stuck); request failed cleanly";
      r.latency_ms = ms_between(v.started, now);
      failed_.fetch_add(1, std::memory_order_relaxed);
      watchdog_killed_.fetch_add(1, std::memory_order_relaxed);
      registry_metrics.counter("serve.watchdog.killed").inc();
      registry_metrics.counter("serve.error").inc();
      obs::log_warn("serve.watchdog.kill")
          .kv("id", r.id)
          .kv("batch_age_ms", r.latency_ms);
      p.slot->done(r);
    }
  }
}

bool Service::admit(Stage& st, Slot& s) {
  if (st.breaker.allow(Clock::now())) return true;
  fall(s, st.floor, st.open_reason, st.predict_open);
  return false;
}

chaos::Fault Service::draw_fault(const Stage& st, Slot& s,
                                 bool retry_corrupt) {
  for (int attempt = 0;; ++attempt) {
    const chaos::Fault fault =
        chaos::hit(*st.site, chaos::with_attempt(s.identity, attempt));
    const bool retryable =
        fault.kind == chaos::FaultKind::kError ||
        (retry_corrupt && fault.kind == chaos::FaultKind::kCorrupt);
    if (!retryable || s.rsp.retries >= cfg_.max_retries) {
      chaos::apply_latency(fault);
      return fault;
    }
    ++s.rsp.retries;
    retried_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global().counter("serve.retries").inc();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        kRetryBackoffMs * (attempt + 1)));
  }
}

void Service::resolve_features(const Request& req, Slot& s) {
  Stage& st = stages_[kFeatures];
  const bool inline_features = !req.features.empty();
  if (inline_features)
    std::copy(req.features.begin(), req.features.end(),
              s.features.values.begin());
  else if (!admit(st, s))
    return;
  try {
    if (inline_features) {
      // A materialize request needs only the CSR master copy, and it
      // comes from the ingest cache: a repeat matrix costs zero parses.
      if (req.materialize)
        s.view = ingest_.load(req.matrix_path, &pool_).matrix;
      return;
    }
    WallTimer stage_timer;
    // Chaos site cache_lookup: a failed cache shard fails open to a
    // miss — features are recomputed, never served stale or wrong.
    const chaos::Fault cache_fault =
        chaos::hit(chaos::Site::kCacheLookup, s.identity);
    chaos::apply_latency(cache_fault);
    const bool cache_usable =
        !cache_fault || cache_fault.kind == chaos::FaultKind::kLatency;

    // Zero-copy fast path: resolve the content key from the stat cache
    // (two stat() calls, no reads) and serve cached features without
    // ever touching the matrix bytes.
    std::optional<CachedFeatures> cached;
    if (cache_usable)
      if (const auto key = ingest_.resolve_key(req.matrix_path))
        cached = cache_.get(*key);
    bool ok = true;
    std::shared_ptr<const Csr<double>> view;
    if (!cached) {
      // Feature miss (or the cache is chaos-disabled): materialize the
      // matrix through the ingest cache — LRU hit, sidecar bulk read, or
      // text parse, whichever is cheapest — then extract.
      MatrixCache::View loaded = ingest_.load(req.matrix_path, &pool_);
      view = std::move(loaded.matrix);
      if (cache_usable) cached = cache_.get(loaded.key);
      if (!cached) {
        // Chaos site feature_extract: corruption perturbs the extracted
        // vector, which then never enters the cache.
        const chaos::Fault fault = draw_fault(st, s, false);
        ok = fault.kind != chaos::FaultKind::kError;
        if (!ok) {
          fall(s, st.floor, st.chaos_reason, st.predict_chaos);
        } else {
          // The pool workers cooperate on the blocked scan and the caller
          // participates, so this is safe even though we ARE a worker.
          s.features = extract_features(*view, pool_);
          s.summary = summarize(*view);
          if (fault.kind == chaos::FaultKind::kCorrupt)
            for (double& v : s.features.values) v = -v;
          else
            cache_.put(loaded.key, CachedFeatures{s.features, *s.summary});
        }
      }
    }
    if (cached) {
      s.features = cached->features;
      s.summary = cached->summary;
      s.rsp.cache_hit = true;
    }
    st.breaker.record(ok, stage_timer.millis(), Clock::now());
    if (req.materialize)
      s.view = view != nullptr ? std::move(view)
                               : ingest_.load(req.matrix_path, &pool_).matrix;
  } catch (const std::exception& e) {
    if (!inline_features) st.breaker.record(false, 0.0, Clock::now());
    fail(s, e);
  }
}

void Service::process_batch(const Batch& shared) {
  const std::vector<Pending>& batch = *shared;
  obs::TraceSpan span("serve.batch");
  span.arg("size", static_cast<std::uint64_t>(batch.size()));
  auto& registry_metrics = obs::MetricsRegistry::global();
  registry_metrics.histogram("serve.batch_size", kBatchBounds)
      .observe(static_cast<double>(batch.size()));

  const std::shared_ptr<const ModelBundle> bundle = registry_.current();
  const auto picked_up = Clock::now();

  // Register with the watchdog before doing any work: a hang anywhere
  // below must be recoverable from outside this thread.
  std::uint64_t inflight_id = 0;
  if (cfg_.watchdog_ms > 0.0) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_id = ++inflight_seq_;
    inflight_.emplace(inflight_id, Inflight{picked_up, shared});
  }

  std::vector<Slot> slots(batch.size());
  const bool tracing = obs::trace_enabled();
  const auto sampled = [&](std::size_t i) {
    return tracing && batch[i].req.trace_sampled;
  };
  // The stage driver: one trace span and one wall timer per stage. The
  // stages run at batch granularity, so every request in the batch
  // reports the same per-stage times ("stage_ms").
  double stage_ms[std::tuple_size_v<decltype(stages_)>] = {};
  const auto run_stage = [&](StageId id, auto&& body) {
    obs::TraceSpan stage_span(stages_[id].span);
    WallTimer stage_timer;
    body(stages_[id]);
    stage_ms[id] = stage_timer.millis();
  };

  // --- Stage 1: features (ingest + caches + Table II extraction). ---
  run_stage(kFeatures, [&](Stage&) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Slot& s = slots[i];
      const Request& req = batch[i].req;
      s.rsp.id = req.id;
      s.rsp.mode = req.mode;
      s.rsp.batch = batch.size();
      s.rsp.queue_ms = ms_between(batch[i].enqueued, picked_up);
      registry_metrics.histogram("serve.queue_s", obs::default_latency_bounds_s())
          .observe(s.rsp.queue_ms / 1e3);
      // Queue wait started on the submitting thread and ended here, so
      // it is recorded retroactively.
      if (sampled(i))
        obs::trace_complete("req.queue", s.rsp.queue_ms * 1e3, s.rsp.id);
      if (bundle == nullptr) {
        s.rsp.error = "model-format: no model installed in the registry";
        continue;
      }
      s.rsp.model_version = bundle->version;
      s.rung = req.mode == RequestMode::kSelect ? Rung::kDirect
                                                : Rung::kIndirect;
      s.identity =
          chaos::identity_hash(!req.id.empty() ? req.id : req.matrix_path);
      WallTimer request_timer;
      resolve_features(req, s);
      if (sampled(i))
        obs::trace_complete("req.features", request_timer.millis() * 1e3,
                            s.rsp.id);
    }
  });

  // --- Stage 2: one batched classifier pass over every live request. ---
  // The direct prediction is computed for all modes: select/predict use
  // it directly, indirect keeps it as the rung to fall to.
  run_stage(kClassify, [&](Stage& st) {
    ml::Matrix x;
    std::vector<std::size_t> rows;  // slot index per matrix row
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].rung < Rung::kDirect || !admit(st, slots[i])) continue;
      x.push_back(slots[i].features.select(bundle->selector->feature_set()));
      rows.push_back(i);
    }
    if (x.empty()) return;
    WallTimer classify_timer;
    const std::vector<int> labels =
        bundle->selector->classifier().predict_batch(x);
    const double per_item_ms =
        classify_timer.millis() / static_cast<double>(rows.size());
    const auto candidates = bundle->selector->candidates();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      Slot& s = slots[rows[k]];
      // Chaos site inference: per-request faults over the batched result
      // (the labels are already computed, so a retry costs only the
      // draw). A fault that stands — or a corrupted label — drops the
      // request to CSR rather than ever serving an invalid selection.
      const chaos::Fault fault = draw_fault(st, s, false);
      const bool injected = fault.kind == chaos::FaultKind::kError ||
                            fault.kind == chaos::FaultKind::kCorrupt;
      const bool valid = !injected && labels[k] >= 0 &&
                         labels[k] < static_cast<int>(candidates.size());
      st.breaker.record(valid, per_item_ms, Clock::now());
      if (injected) {
        fall(s, st.floor, st.chaos_reason, st.predict_chaos);
      } else if (!valid) {
        s.rung = Rung::kFailed;
        s.rsp.error = "model-format: classifier produced out-of-range label";
      } else {
        s.rsp.format = s.rsp.predicted =
            candidates[static_cast<std::size_t>(labels[k])];
        if (sampled(rows[k])) obs::trace_instant("req.infer", s.rsp.id);
      }
    }
  });

  // --- Stage 3: the regressor pass for indirect and predict requests. ---
  // Triage first: without regressors, with the regress breaker open, or
  // when the remaining deadline cannot fit the (EWMA-estimated) pass, an
  // indirect request falls to the direct prediction computed above.
  run_stage(kRegress, [&](Stage& st) {
    const double est_ms =
        indirect_item_cost_ms_.load(std::memory_order_relaxed);
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (s.rung != Rung::kIndirect) continue;
      if (bundle->perf == nullptr) {
        fall(s, Rung::kDirect, "no_perf_model",
             "model-format: no perf model installed (predict needs "
             "--perf-model)");
        continue;
      }
      if (!admit(st, s)) continue;
      const double deadline = batch[i].req.deadline_ms;
      const double remaining =
          deadline - ms_between(batch[i].enqueued, Clock::now());
      if (s.rsp.mode == RequestMode::kIndirect && deadline > 0.0 &&
          (remaining <= 0.0 || remaining < est_ms)) {
        fall(s, Rung::kDirect, "deadline", nullptr);
        continue;
      }
      rows.push_back(i);
    }
    if (rows.empty()) return;
    WallTimer regress_timer;
    for (const std::size_t i : rows)
      slots[i].rsp.predicted_us =
          price_formats(*bundle->perf, slots[i].features);
    const double per_item_ms =
        regress_timer.millis() / static_cast<double>(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k)
      st.breaker.record(true, per_item_ms, Clock::now());
    const double prev = indirect_item_cost_ms_.load(std::memory_order_relaxed);
    indirect_item_cost_ms_.store(
        prev <= 0.0 ? per_item_ms : 0.8 * prev + 0.2 * per_item_ms,
        std::memory_order_relaxed);
  });

  // --- Stage 4: finalization (feasibility, argmin, materialize). ---
  // Replies are delivered in a separate pass below, after the admission
  // cost EWMA is updated: a caller woken by its response must observe a
  // backlog estimate that already accounts for this batch.
  run_stage(kFinalize, [&](Stage&) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      const Request& req = batch[i].req;
      if (s.rung == Rung::kFailed) continue;
      s.rsp.ok = true;
      // CSR is the universal floor: valid for every matrix, needs no
      // model and no features.
      if (s.rung == Rung::kCsr) s.rsp.format = s.rsp.predicted = Format::kCsr;
      const double budget_gb =
          req.mem_budget_gb > 0.0 ? req.mem_budget_gb : cfg_.mem_budget_gb;
      FeasibilityFn feasible;
      if (budget_gb > 0.0 && s.summary)
        feasible = make_memory_feasibility(
            *s.summary, cfg_.precision,
            static_cast<std::int64_t>(budget_gb * 1e9));
      try {
        if (s.rung == Rung::kIndirect && req.mode == RequestMode::kIndirect) {
          // Argmin of predicted times over feasible formats; nothing
          // feasible lands on the CSR floor, mirroring select_feasible.
          const PricedFormats& priced = s.rsp.predicted_us;
          const auto* pick = cheapest(priced, feasible);
          const auto is_csr = [](const auto& p) {
            return p.first == Format::kCsr;
          };
          SPMVML_ENSURE_CAT(
              pick != nullptr || std::ranges::any_of(priced, is_csr),
              ErrorCategory::kInfeasibleFormat,
              "no modeled format is feasible under the memory budget");
          s.rsp.predicted = cheapest(priced)->first;
          s.rsp.format = pick != nullptr ? pick->first : Format::kCsr;
          s.rsp.fallback = s.rsp.format != s.rsp.predicted;
        } else if (s.rung == Rung::kDirect && feasible) {
          const Selection sel =
              bundle->selector->select_feasible(s.features, feasible);
          s.rsp.predicted = sel.predicted;
          s.rsp.format = sel.format;
          s.rsp.fallback = sel.fallback;
          s.counted = true;
        }
        if (req.materialize && s.view != nullptr)
          materialize(req, s, *bundle, feasible);
      } catch (const std::exception& e) {
        fail(s, e);
      }
    }
  });

  // Admission shedding feeds on the measured per-item batch cost. Updated
  // before delivery: once a caller sees its response, the next submit()
  // must price the queue with this batch's cost already folded in. The
  // smoothing is asymmetric: cost drops (caches warming up after a cold
  // start) are tracked fast so the shed gate reopens quickly, cost rises
  // slowly so one anomalous batch does not trigger a shed storm.
  const double per_item_ms =
      ms_between(picked_up, Clock::now()) / static_cast<double>(batch.size());
  const double prev = batch_item_cost_ms_.load(std::memory_order_relaxed);
  const double alpha = per_item_ms < prev ? 0.5 : 0.2;
  batch_item_cost_ms_.store(
      prev > 0.0 ? (1.0 - alpha) * prev + alpha * per_item_ms : per_item_ms,
      std::memory_order_relaxed);
  backlog_.fetch_sub(batch.size(), std::memory_order_relaxed);

  // --- Stage 5: reply + per-response accounting. ---
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& s = slots[i];
    const Pending& item = batch[i];
    s.rsp.latency_ms = ms_between(item.enqueued, Clock::now());
    s.rsp.has_stage_ms = true;  // to_json only renders it on ok responses
    for (std::size_t k = 0; k < stages_.size(); ++k)
      s.rsp.*stages_[k].ms = stage_ms[k];
    if (sampled(i))
      obs::trace_complete("req.done", s.rsp.latency_ms * 1e3, s.rsp.id);
    if (!item.slot->claim()) continue;  // watchdog got there first
    // Account before invoking the callback: the moment done() runs,
    // the caller may wake and read counters(), which must already
    // include this request.
    if (s.rsp.ok && !s.counted && item.req.mode != RequestMode::kPredict)
      registry_metrics
          .counter(std::string("serve.select.") + format_name(s.rsp.format))
          .inc();
    if (s.rsp.ok && s.rsp.degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
      registry_metrics.counter("serve.degraded").inc();
      if (s.rsp.degrade_reason == "deadline")
        registry_metrics.counter("serve.deadline_degraded").inc();
    }
    if (!s.rsp.ok) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      registry_metrics.counter("serve.error").inc();
    }
    registry_metrics.histogram("serve.latency_s", obs::default_latency_bounds_s())
        .observe(s.rsp.latency_ms / 1e3);
    served_.fetch_add(1, std::memory_order_relaxed);
    registry_metrics.counter("serve.requests").inc();
    item.slot->done(s.rsp);
  }

  if (inflight_id != 0) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(inflight_id);
  }
}

void Service::materialize(const Request& req, Slot& s,
                          const ModelBundle& bundle,
                          const FeasibilityFn& feasible) {
  Stage& st = stages_[kFinalize];
  // Conversion stage down, or a conversion fault (corruption included)
  // that outlives the retry budget: the selection is still served and
  // the caller builds the format itself.
  if (!admit(st, s)) return;
  const chaos::Fault fault = draw_fault(st, s, true);
  if (fault.kind == chaos::FaultKind::kError ||
      fault.kind == chaos::FaultKind::kCorrupt) {
    st.breaker.record(false, 0.0, Clock::now());
    fall(s, st.floor, st.chaos_reason, st.predict_chaos);
    return;
  }
  // One conversion arena per worker thread: a stream of requests reuses
  // its buffers, so the steady-state conversion performs no heap
  // allocation. The borrowed view is read-only; the arena copies what
  // it needs.
  thread_local ConversionArena<double> arena;
  WallTimer materialize_timer;  // conversion, then the whole stage
  const AnyMatrix<double>& built = arena.convert(s.rsp.format, *s.view);
  s.rsp.convert_ms = materialize_timer.millis();
  s.rsp.format_bytes = built.bytes();
  s.rsp.materialized = true;
  st.breaker.record(true, s.rsp.convert_ms, Clock::now());
  obs::MetricsRegistry::global()
      .counter(std::string("serve.materialize.") + format_name(s.rsp.format))
      .inc();

  // Prediction scorecard: this is the one place the service holds both
  // the model's opinion and a real, just-built format — run one SpMV on
  // it and ledger predicted vs measured.
  const double spmv_s = time_spmv(built, *s.view);
  s.rsp.spmv_ms = spmv_s * 1e3;
  const double flops = 2.0 * static_cast<double>(s.view->nnz());
  s.rsp.measured_gflops = flops / spmv_s / 1e9;

  ScorecardEntry entry{
      .features_hash = features_fingerprint(s.features.values),
      .features = s.features.values,
      .chosen = s.rsp.format,
      .predicted_best = s.rsp.format,
      .measured_gflops = s.rsp.measured_gflops,
      .model_version = s.rsp.model_version};
  // Per-format predicted times: reuse the regressor pass when stage 3
  // ran it, otherwise price the formats here (the conversion+SpMV just
  // done dwarfs this pass).
  PricedFormats repriced;
  const PricedFormats& priced =
      !s.rsp.predicted_us.empty() || bundle.perf == nullptr
          ? s.rsp.predicted_us
          : (repriced = price_formats(*bundle.perf, s.features));
  if (const auto* best = cheapest(priced)) {
    entry.predicted_best = best->first;
    entry.predicted_gflops = priced_gflops(priced, s.rsp.format, flops);
    s.rsp.predicted_gflops = entry.predicted_gflops;
    for (const auto& [f, us] : priced)
      if (f == s.rsp.format && us > 0.0 && best->second > 0.0)
        entry.regret = us / best->second - 1.0;
  }
  scorecard_.record(entry);

  // Shadow probe (learning mode only): convert and time ONE extra format
  // so the replay buffer accumulates per-format measured truth — the
  // labels the retraining loop needs. The probe entry rides the
  // scorecard ring flagged probe=true (excluded from the traffic
  // aggregates) and never touches the served response.
  const bool sampled = req.trace_sampled && obs::trace_enabled();
  const auto probe_formats = bundle.perf != nullptr
                                 ? bundle.perf->formats()
                                 : bundle.selector->candidates();
  if (trainer_ != nullptr && probe_formats.size() > 1) {
    // Mix the matrix fingerprint into the rotation: a bare counter
    // resonates with cyclic traffic (N matrices polled round-robin with
    // N divisible by the format count probes the SAME format for a given
    // matrix forever), leaving whole formats unmeasured on a regime.
    // Hashing decorrelates the probe choice from the arrival pattern
    // while staying deterministic for a fixed request order.
    const std::uint64_t pseq =
        hash_combine(entry.features_hash,
                     probe_seq_.fetch_add(1, std::memory_order_relaxed));
    Format probe_fmt = probe_formats[pseq % probe_formats.size()];
    if (probe_fmt == s.rsp.format)
      probe_fmt = probe_formats[(pseq + 1) % probe_formats.size()];
    if (probe_fmt != s.rsp.format && (!feasible || feasible(probe_fmt))) {
      try {
        WallTimer probe_timer;
        const double probe_s =
            time_spmv(arena.convert(probe_fmt, *s.view), *s.view);
        ScorecardEntry probe = entry;
        probe.probe = true;
        probe.chosen = probe_fmt;
        probe.measured_gflops = flops / probe_s / 1e9;
        probe.predicted_gflops = priced_gflops(priced, probe_fmt, flops);
        probe.regret = 0.0;
        scorecard_.record(probe);
        if (sampled)
          obs::trace_complete("req.probe", probe_timer.millis() * 1e3,
                              s.rsp.id);
      } catch (const Error&) {
        // A probe that cannot convert is just a missing measurement; the
        // response is already complete.
        obs::MetricsRegistry::global().counter("serve.probe.failed").inc();
      }
    }
  }
  if (sampled)
    obs::trace_complete("req.materialize", materialize_timer.millis() * 1e3,
                        s.rsp.id);
}

}  // namespace spmvml::serve
