#include "core/label_collector.hpp"

#include <charconv>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "gpusim/row_summary.hpp"

namespace spmvml {

namespace {

// Collection-level accounting, one registry series per CollectStats
// field (the oracle separately counts every measure() call by status;
// these count *final* cell outcomes after retries).
struct CollectMetrics {
  obs::Counter cells_measured;
  obs::Counter cells_failed_oom;
  obs::Counter cells_failed_timeout;
  obs::Counter cells_failed_transient;
  obs::Counter retries;
  obs::Counter matrices_kept;
  obs::Counter matrices_dropped_prefilter;
  obs::Counter matrices_dropped_all_failed;
  obs::Counter cache_hits;
  obs::Counter resumed_records;
  obs::Counter checkpoints;
};

CollectMetrics& collect_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static CollectMetrics m{
      reg.counter("collect.cells.measured"),
      reg.counter("collect.cells.failed.oom"),
      reg.counter("collect.cells.failed.timeout"),
      reg.counter("collect.cells.failed.transient"),
      reg.counter("collect.retries"),
      reg.counter("collect.matrices.kept"),
      reg.counter("collect.matrices.dropped_prefilter"),
      reg.counter("collect.matrices.dropped_all_failed"),
      reg.counter("collect.cache.hits"),
      reg.counter("collect.resume.records"),
      reg.counter("collect.checkpoints"),
  };
  return m;
}

}  // namespace

int MatrixRecord::best_among(int arch, Precision prec,
                             std::span<const Format> candidates) const {
  SPMVML_ENSURE(!candidates.empty(), "no candidate formats");
  int best = -1;
  double best_t = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!valid(arch, prec, candidates[i])) continue;
    const double t = time(arch, prec, candidates[i]);
    if (t < best_t) {
      best_t = t;
      best = static_cast<int>(i);
    }
  }
  return best;
}

int MatrixRecord::num_valid(int arch, Precision prec) const {
  int n = 0;
  for (Format f : kAllFormats)
    if (valid(arch, prec, f)) ++n;
  return n;
}

bool MatrixRecord::fully_valid() const {
  for (int a = 0; a < kNumArchs; ++a)
    for (int p = 0; p < kNumPrecisions; ++p)
      if (num_valid(a, static_cast<Precision>(p)) != kNumFormats) return false;
  return true;
}

double backoff_delay_s(const CollectOptions& options, int attempt) {
  if (options.backoff_base_s <= 0.0) return 0.0;
  // exp2 saturates to +inf for huge exponents, so the min() against the
  // cap is well-defined for any retry budget (1 << attempt would be UB
  // past 30 on 32-bit int).
  const double factor = std::exp2(static_cast<double>(std::min(attempt, 1023)));
  return std::min(options.backoff_base_s * factor, options.backoff_cap_s);
}

namespace {

constexpr std::size_t kCellsPerMatrix = static_cast<std::size_t>(kNumArchs) *
                                        kNumPrecisions * kNumFormats;

/// Per-plan-entry accounting, merged into CollectStats in plan order so
/// totals match the serial run exactly.
struct EntryStats {
  bool attempted = false;
  bool dropped_prefilter = false;
  bool dropped_all_failed = false;
  std::size_t failed_cells = 0;
  std::size_t oom_cells = 0;
  std::size_t timeout_cells = 0;
  std::size_t transient_cells = 0;
  std::size_t transient_retries = 0;

  void merge_into(CollectStats& s) const {
    s.attempted += attempted ? 1 : 0;
    s.dropped_prefilter += dropped_prefilter ? 1 : 0;
    s.dropped_all_failed += dropped_all_failed ? 1 : 0;
    s.failed_cells += failed_cells;
    s.oom_cells += oom_cells;
    s.timeout_cells += timeout_cells;
    s.transient_cells += transient_cells;
    s.transient_retries += transient_retries;

    // merge_into runs exactly once per plan entry, at assembly, on both
    // the serial and the parallel path (a restored entry's stats are
    // empty), so it doubles as the registry sink. A run that dies on an
    // exception never assembles and merges nothing — same as CollectStats.
    CollectMetrics& m = collect_metrics();
    if (attempted && !dropped_prefilter) m.cells_measured.add(kCellsPerMatrix);
    if (oom_cells > 0) m.cells_failed_oom.add(oom_cells);
    if (timeout_cells > 0) m.cells_failed_timeout.add(timeout_cells);
    if (transient_cells > 0) m.cells_failed_transient.add(transient_cells);
    if (transient_retries > 0) m.retries.add(transient_retries);
    if (dropped_prefilter) m.matrices_dropped_prefilter.inc();
    if (dropped_all_failed) m.matrices_dropped_all_failed.inc();
    if (attempted && !dropped_prefilter && !dropped_all_failed)
      m.matrices_kept.inc();
  }
};

void count_failed_cell(MeasurementStatus status, EntryStats& stats) {
  ++stats.failed_cells;
  switch (status) {
    case MeasurementStatus::kOom: ++stats.oom_cells; break;
    case MeasurementStatus::kTimeout: ++stats.timeout_cells; break;
    case MeasurementStatus::kTransient: ++stats.transient_cells; break;
    case MeasurementStatus::kOk: break;
  }
}

/// Measure one cell, retrying transient failures with capped exponential
/// backoff. Structural failures (OOM, timeout) return immediately. Serial
/// path only — the parallel collector requeues on the pool instead of
/// sleeping.
Measurement measure_with_retry(const MeasurementOracle& oracle,
                               const RowSummary& summary, Format f,
                               std::uint64_t seed,
                               const CollectOptions& options,
                               EntryStats& stats) {
  obs::TraceSpan span("collect.cell");
  span.arg("format", static_cast<int>(f));
  Measurement m;
  int attempts = 1;
  for (int attempt = 0;; ++attempt, ++attempts) {
    m = oracle.measure(summary, f, seed, attempt);
    if (!is_retryable(m.status) || attempt >= options.max_retries) break;
    ++stats.transient_retries;
    const double delay = backoff_delay_s(options, attempt);
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
  span.arg("attempts", attempts).arg("ok", static_cast<int>(m.ok()));
  return m;
}

/// §IV-C as a wholesale filter, kept for the fault-free configuration
/// (the ELL image is by far the largest; 12 bytes per padded slot).
/// With faults enabled, infeasible formats fail per-cell instead.
bool prefilter_drops(const RowSummary& summary, const CollectOptions& options) {
  if (options.faults.enabled || options.format_memory_limit <= 0) return false;
  const double ell_bytes = static_cast<double>(summary.rows) *
                           static_cast<double>(summary.row_max) * 12.0;
  return ell_bytes > static_cast<double>(options.format_memory_limit);
}

std::vector<MeasurementOracle> make_oracle_set(const CollectOptions& options) {
  const auto archs = paper_testbeds();
  SPMVML_ENSURE(archs.size() == kNumArchs, "expected two testbeds");
  MeasurementConfig measurement = options.measurement;
  measurement.faults = options.faults;
  std::vector<MeasurementOracle> oracles;
  for (const auto& arch : archs)
    for (int p = 0; p < kNumPrecisions; ++p)
      oracles.emplace_back(arch, static_cast<Precision>(p), measurement,
                           options.cost);
  return oracles;
}

/// One plan entry's outcome, kept in plan order. An entry is either
/// restored from the checkpoint (its stats stay empty) or run here.
struct EntrySlot {
  MatrixRecord rec;
  bool kept = false;  // rec belongs in the corpus
  bool done = false;  // restored, or finished in this run
  EntryStats stats;
};

/// Restore a checkpoint matching this plan into `slots` and return the
/// number of restored records. A checkpoint is the *set* of finished
/// records: each row marks done the one plan entry whose GenSpec seed it
/// carries, in whatever order the entries finished. A row whose seed
/// matches no entry, more than one, or an entry another row already took
/// makes the checkpoint stale, and the run starts from scratch. Entries
/// dropped before the checkpoint left no row, so they run again: that
/// costs time, not identity.
std::size_t restore_checkpoint(const CorpusPlan& plan,
                               const CollectOptions& options,
                               std::vector<EntrySlot>& slots) {
  if (options.checkpoint_path.empty() ||
      !std::filesystem::exists(options.checkpoint_path))
    return 0;
  LabeledCorpus cached;
  try {
    std::size_t cached_plan = 0, cached_done = 0;
    std::uint64_t cached_hash = 0;
    cached = load_corpus_csv(options.checkpoint_path, &cached_plan,
                             &cached_hash, &cached_done);
    if (cached_plan != plan.size() || cached_hash != plan_fingerprint(plan) ||
        cached_done > plan.size() || cached.size() > cached_done)
      return 0;
  } catch (const Error&) {
    return 0;  // corrupt or stale checkpoint: re-collect from scratch
  }
  constexpr std::size_t kAmbiguous = std::numeric_limits<std::size_t>::max();
  std::unordered_map<std::uint64_t, std::size_t> entry_of_seed;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto [it, fresh] = entry_of_seed.emplace(plan.specs[i].seed, i);
    if (!fresh) it->second = kAmbiguous;
  }
  for (const MatrixRecord& rec : cached.records) {
    const auto it = entry_of_seed.find(rec.seed);
    if (it == entry_of_seed.end() || it->second == kAmbiguous ||
        slots[it->second].done) {
      std::fill(slots.begin(), slots.end(), EntrySlot{});
      return 0;
    }
    EntrySlot& slot = slots[it->second];
    slot.rec = rec;
    slot.kept = slot.done = true;
  }
  collect_metrics().resumed_records.add(cached.size());
  obs::log_info("collect.resume")
      .kv("checkpoint", options.checkpoint_path)
      .kv("records", cached.size());
  return cached.size();
}

/// True when finishing the `completed`-th entry of this run is due a
/// checkpoint.
bool checkpoint_due(const CollectOptions& options, std::size_t completed) {
  return !options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
         completed % options.checkpoint_every == 0;
}

/// The checkpoint image: every done entry's record, in plan order.
LabeledCorpus checkpoint_records(const std::vector<EntrySlot>& slots) {
  LabeledCorpus snapshot;
  for (const EntrySlot& slot : slots)
    if (slot.done && slot.kept) snapshot.records.push_back(slot.rec);
  return snapshot;
}

void write_checkpoint(const CollectOptions& options, const CorpusPlan& plan,
                      std::uint64_t fingerprint, const LabeledCorpus& snapshot,
                      std::size_t done) {
  save_corpus_csv(options.checkpoint_path, snapshot, plan.size(), fingerprint,
                  done);
  collect_metrics().checkpoints.inc();
  obs::trace_instant("collect.checkpoint");
  obs::log_debug("collect.checkpoint")
      .kv("done", done)
      .kv("records", snapshot.records.size());
}

/// Records and stats merge in plan order, never in completion order, so
/// the corpus is the same for every thread count and checkpoint history.
LabeledCorpus assemble_corpus(std::vector<EntrySlot>& slots,
                              std::size_t restored) {
  LabeledCorpus corpus;
  corpus.records.reserve(slots.size());
  corpus.stats.resumed_records = restored;
  for (EntrySlot& slot : slots) {
    slot.stats.merge_into(corpus.stats);
    if (slot.kept) corpus.records.push_back(slot.rec);
  }
  corpus.stats.kept = corpus.records.size();
  return corpus;
}

/// Fill the spec-derived part of a record (everything except timings).
/// Returns false when the §IV-C prefilter drops the matrix.
bool prepare_record(const GenSpec& spec, int bucket,
                    const CollectOptions& options, MatrixRecord& rec,
                    RowSummary& summary, EntryStats& stats) {
  // Labels read the sparsity pattern alone: no value array is drawn.
  const CsrPattern pattern = generate_pattern(spec);
  summary = summarize(pattern);
  stats.attempted = true;
  if (prefilter_drops(summary, options)) {
    stats.dropped_prefilter = true;
    return false;
  }
  rec.seed = spec.seed;
  rec.bucket = bucket;
  rec.family = static_cast<int>(spec.family);
  rec.rows = static_cast<double>(pattern.rows);
  rec.cols = static_cast<double>(pattern.cols);
  rec.nnz = static_cast<double>(pattern.col_idx.size());
  rec.features = extract_features(pattern);
  return true;
}

LabeledCorpus collect_corpus_serial(const CorpusPlan& plan,
                                    const CollectOptions& options) {
  const std::uint64_t fingerprint = plan_fingerprint(plan);
  std::vector<EntrySlot> slots(plan.size());
  const std::size_t restored = restore_checkpoint(plan, options, slots);
  std::size_t done = restored, completed = 0;

  // One oracle per (arch, precision); they share the cost parameters.
  const std::vector<MeasurementOracle> oracles = make_oracle_set(options);

  for (std::size_t m = 0; m < plan.size(); ++m) {
    EntrySlot& slot = slots[m];
    if (slot.done) continue;
    obs::TraceSpan mspan("collect.matrix");
    mspan.arg("index", static_cast<std::uint64_t>(m))
        .arg("seed", plan.specs[m].seed);
    RowSummary summary;
    EntryStats& entry = slot.stats;
    if (prepare_record(plan.specs[m], plan.bucket_of[m], options, slot.rec,
                       summary, entry)) {
      std::size_t valid_cells = 0;
      for (int a = 0; a < kNumArchs; ++a) {
        for (int p = 0; p < kNumPrecisions; ++p) {
          const auto& oracle =
              oracles[static_cast<std::size_t>(a * kNumPrecisions + p)];
          for (int f = 0; f < kNumFormats; ++f) {
            const Measurement cell =
                measure_with_retry(oracle, summary, static_cast<Format>(f),
                                   slot.rec.seed, options, entry);
            slot.rec.seconds[static_cast<std::size_t>(a)]
                            [static_cast<std::size_t>(p)]
                            [static_cast<std::size_t>(f)] = cell.seconds;
            if (cell.ok())
              ++valid_cells;
            else
              count_failed_cell(cell.status, entry);
          }
        }
      }
      // A matrix is only dropped wholesale when *every* cell failed —
      // there is nothing to learn from it.
      entry.dropped_all_failed = valid_cells == 0;
      slot.kept = valid_cells > 0;
    }
    slot.done = true;
    ++done;
    ++completed;
    if (checkpoint_due(options, completed) && done < plan.size())
      write_checkpoint(options, plan, fingerprint, checkpoint_records(slots),
                       done);
    if (options.progress) options.progress(done, plan.size());
  }
  LabeledCorpus corpus = assemble_corpus(slots, restored);
  if (!options.checkpoint_path.empty())
    save_corpus_csv(options.checkpoint_path, corpus, plan.size(), fingerprint,
                    plan.size());
  return corpus;
}

// ---------------------------------------------------------------------------
// Parallel collection.
//
// Each plan entry is one resumable task: generate the pattern → summarize
// → extract_features → measure all cells. Tasks are submitted largest
// first (largest_first(plan)), so the matrices that bound the run's
// critical path start at once instead of last. When a cell needs
// transient-retry backoff the task snapshots its position (cell index +
// attempt) and requeues itself on the pool with a deadline instead of
// sleeping, so the worker immediately moves on to another matrix.
// Finished entries land in plan-indexed slots; the assembled corpus is
// therefore bitwise identical to the serial run for any thread count.
// Checkpoints hold the set of finished records and are written under the
// lock, so `done` in successive images only grows.

struct MatrixTask {
  std::size_t index = 0;
  bool prepared = false;
  bool dropped = false;
  RowSummary summary;
  MatrixRecord rec;
  std::size_t cell = 0;  // linear over (arch, precision, format)
  int attempt = 0;
  std::size_t valid_cells = 0;
  EntryStats stats;
};

struct ParallelCollectContext {
  const CorpusPlan& plan;
  const CollectOptions& options;
  std::uint64_t fingerprint = 0;

  ThreadPool pool;
  // One oracle set per worker: task state never shares oracle storage
  // with another in-flight matrix.
  std::vector<std::vector<MeasurementOracle>> worker_oracles;

  std::mutex mu;
  std::vector<EntrySlot> slots;
  std::size_t done = 0;       // done slots: restored + finished here
  std::size_t completed = 0;  // entries finished in this run
  std::exception_ptr error;
  bool cancelled = false;

  ParallelCollectContext(const CorpusPlan& p, const CollectOptions& o,
                         int threads)
      : plan(p), options(o), pool(threads) {
    for (int t = 0; t < pool.size(); ++t)
      worker_oracles.push_back(make_oracle_set(options));
  }
};

void finish_entry(ParallelCollectContext& ctx, const MatrixTask& task) {
  std::lock_guard<std::mutex> lock(ctx.mu);
  EntrySlot& slot = ctx.slots[task.index];
  slot.kept = task.prepared && !task.dropped && task.valid_cells > 0;
  if (slot.kept) slot.rec = task.rec;
  slot.stats = task.stats;
  slot.done = true;
  ++ctx.done;
  ++ctx.completed;

  if (ctx.cancelled) return;  // draining after a failure: stay quiet
  const CollectOptions& opt = ctx.options;
  try {
    if (checkpoint_due(opt, ctx.completed) && ctx.done < ctx.plan.size())
      write_checkpoint(opt, ctx.plan, ctx.fingerprint,
                       checkpoint_records(ctx.slots), ctx.done);
    // Serialized under the lock, so `done` is monotonic exactly like the
    // serial path's.
    if (opt.progress) opt.progress(ctx.done, ctx.plan.size());
  } catch (...) {
    // Cancel before the lock drops: otherwise another worker could finish
    // an entry and report progress before run_matrix_task's handler runs.
    ctx.cancelled = true;
    throw;
  }
}

void run_matrix_task(ParallelCollectContext& ctx,
                     const std::shared_ptr<MatrixTask>& task) {
  try {
    {
      std::lock_guard<std::mutex> lock(ctx.mu);
      // After a failure, never-started entries drain as no-ops, but
      // entries with partial progress (including ones parked in backoff)
      // run to completion so the final checkpoint keeps their work.
      if (ctx.cancelled && !task->prepared) return;
    }
    // One span per task *segment*: a matrix parked for backoff shows as
    // several collect.matrix slices with the requeue gap between them.
    obs::TraceSpan mspan("collect.matrix");
    mspan.arg("index", static_cast<std::uint64_t>(task->index));
    if (!task->prepared) {
      const std::size_t m = task->index;
      task->dropped =
          !prepare_record(ctx.plan.specs[m], ctx.plan.bucket_of[m],
                          ctx.options, task->rec, task->summary, task->stats);
      task->prepared = true;
      if (task->dropped) {
        finish_entry(ctx, *task);
        return;
      }
    }

    const int wi = ThreadPool::worker_index();
    const auto& oracles =
        ctx.worker_oracles[wi >= 0 ? static_cast<std::size_t>(wi) : 0];
    while (task->cell < kCellsPerMatrix) {
      const auto machine = task->cell / kNumFormats;
      const int f = static_cast<int>(task->cell % kNumFormats);
      Measurement cell;
      {
        obs::TraceSpan cspan("collect.cell");
        cspan.arg("format", f).arg("attempt", task->attempt);
        cell = oracles[machine].measure(task->summary, static_cast<Format>(f),
                                        task->rec.seed, task->attempt);
        cspan.arg("ok", static_cast<int>(cell.ok()));
      }
      if (is_retryable(cell.status) &&
          task->attempt < ctx.options.max_retries) {
        ++task->stats.transient_retries;
        const double delay = backoff_delay_s(ctx.options, task->attempt);
        ++task->attempt;
        if (delay > 0.0) {
          // Yield the worker: park this matrix until the deadline and let
          // the pool run other entries meanwhile.
          obs::trace_instant("collect.backoff_requeue");
          obs::log_debug("collect.backoff_requeue")
              .kv("index", static_cast<std::uint64_t>(task->index))
              .kv("cell", static_cast<std::uint64_t>(task->cell))
              .kv("delay_s", delay);
          auto self = task;
          ctx.pool.submit_after(
              delay, [&ctx, self] { run_matrix_task(ctx, self); });
          return;
        }
        continue;  // backoff disabled: retry in place
      }
      const auto a = machine / kNumPrecisions;
      const auto p = machine % kNumPrecisions;
      task->rec.seconds[a][p][static_cast<std::size_t>(f)] = cell.seconds;
      if (cell.ok())
        ++task->valid_cells;
      else
        count_failed_cell(cell.status, task->stats);
      task->attempt = 0;
      ++task->cell;
    }
    finish_entry(ctx, *task);
  } catch (...) {
    std::lock_guard<std::mutex> lock(ctx.mu);
    if (!ctx.error) ctx.error = std::current_exception();
    ctx.cancelled = true;
  }
}

LabeledCorpus collect_corpus_parallel(const CorpusPlan& plan,
                                      const CollectOptions& options,
                                      int threads) {
  ParallelCollectContext ctx(plan, options, threads);
  ctx.fingerprint = plan_fingerprint(plan);
  ctx.slots.resize(plan.size());
  const std::size_t restored = restore_checkpoint(plan, options, ctx.slots);
  ctx.done = restored;

  for (const std::size_t m : largest_first(plan)) {
    if (ctx.slots[m].done) continue;
    auto task = std::make_shared<MatrixTask>();
    task->index = m;
    ctx.pool.submit([&ctx, task] { run_matrix_task(ctx, task); });
  }
  ctx.pool.wait_idle();
  if (ctx.error) {
    // A "killed" run still leaves every finished record on disk, so the
    // next invocation resumes instead of starting over. In-flight tasks
    // kept finishing after the failure (only queued work is drained), so
    // this image holds everything completed. The pool is idle, so writing
    // it needs no lock.
    if (!options.checkpoint_path.empty() && ctx.completed > 0)
      write_checkpoint(options, plan, ctx.fingerprint,
                       checkpoint_records(ctx.slots), ctx.done);
    std::rethrow_exception(ctx.error);
  }

  LabeledCorpus corpus = assemble_corpus(ctx.slots, restored);
  if (!options.checkpoint_path.empty())
    save_corpus_csv(options.checkpoint_path, corpus, plan.size(),
                    ctx.fingerprint, plan.size());
  return corpus;
}

}  // namespace

LabeledCorpus collect_corpus(const CorpusPlan& plan,
                             const CollectOptions& options) {
  const int threads = options.threads > 0 ? options.threads : thread_count();
  obs::TraceSpan span("collect.corpus");
  span.arg("matrices", static_cast<std::uint64_t>(plan.size()))
      .arg("threads", threads);
  obs::log_info("collect.start")
      .kv("matrices", plan.size())
      .kv("threads", threads)
      .kv("faults", options.faults.enabled);
  WallTimer timer;
  LabeledCorpus corpus = threads <= 1
                             ? collect_corpus_serial(plan, options)
                             : collect_corpus_parallel(plan, options, threads);
  obs::log_info("collect.done")
      .kv("wall_s", timer.seconds())
      .kv("kept", corpus.stats.kept)
      .kv("failed_cells", corpus.stats.failed_cells)
      .kv("retries", corpus.stats.transient_retries)
      .kv("resumed", corpus.stats.resumed_records);
  return corpus;
}

void save_corpus_csv(const std::string& path, const LabeledCorpus& corpus,
                     std::size_t plan_size, std::uint64_t plan_hash,
                     std::size_t done) {
  // Write to a temp file and rename so a kill mid-write never leaves a
  // truncated checkpoint behind (rename within a directory is atomic).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                      "cannot open " + tmp + " for writing");
    out << "# spmvml oracle v" << kOracleVersion << " plan " << plan_size
        << " hash " << plan_hash << " done " << done << '\n';
    out << "seed,bucket,family,rows,cols,nnz";
    for (int f = 0; f < kNumFeatures; ++f) out << ',' << feature_name(f);
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (int f = 0; f < kNumFormats; ++f)
          out << ",t_a" << a << "p" << p << "f" << f;
    out << '\n';
    out.precision(17);
    for (const auto& r : corpus.records) {
      out << r.seed << ',' << r.bucket << ',' << r.family << ',' << r.rows
          << ',' << r.cols << ',' << r.nnz;
      for (int f = 0; f < kNumFeatures; ++f) out << ',' << r.features[f];
      for (int a = 0; a < kNumArchs; ++a)
        for (int p = 0; p < kNumPrecisions; ++p)
          for (int f = 0; f < kNumFormats; ++f) {
            const double t = r.seconds[static_cast<std::size_t>(a)]
                                      [static_cast<std::size_t>(p)]
                                      [static_cast<std::size_t>(f)];
            // Failed cells round-trip as the literal "nan".
            if (std::isfinite(t))
              out << ',' << t;
            else
              out << ",nan";
          }
      out << '\n';
    }
    SPMVML_ENSURE_CAT(out.good(), ErrorCategory::kIo,
                      "write failed for " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

void save_corpus_csv(const std::string& path, const LabeledCorpus& corpus,
                     std::size_t plan_size) {
  save_corpus_csv(path, corpus, plan_size, 0, plan_size);
}

namespace {

/// Zero-allocation cursor over one CSV line: std::from_chars directly on
/// the raw character range. Checkpoints re-read the whole cache on every
/// resume, so row parsing is a measurable startup cost; from_chars is
/// several times faster than istringstream + std::stod and still
/// round-trips precision-17 doubles, "nan" cells and integer seeds
/// exactly.
class CsvCursor {
 public:
  explicit CsvCursor(const std::string& line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  double next_double() { return next<double>(); }
  std::uint64_t next_u64() { return next<std::uint64_t>(); }

 private:
  template <typename T>
  T next() {
    if (!first_) {
      SPMVML_ENSURE_CAT(p_ < end_ && *p_ == ',', ErrorCategory::kParse,
                        "truncated CSV row");
      ++p_;
    }
    first_ = false;
    T value{};
    const auto [ptr, ec] = std::from_chars(p_, end_, value);
    SPMVML_ENSURE_CAT(ec == std::errc{}, ErrorCategory::kParse,
                      "bad CSV cell");
    p_ = ptr;
    return value;
  }

  const char* p_;
  const char* end_;
  bool first_ = true;
};

}  // namespace

LabeledCorpus load_corpus_csv(const std::string& path,
                              std::size_t* cached_plan_size,
                              std::uint64_t* cached_plan_hash,
                              std::size_t* cached_done) {
  std::ifstream in(path);
  SPMVML_ENSURE_CAT(in.good(), ErrorCategory::kIo, "cannot open " + path);
  std::string line;
  SPMVML_ENSURE_CAT(static_cast<bool>(std::getline(in, line)),
                    ErrorCategory::kParse, "empty CSV");
  const std::string prefix =
      "# spmvml oracle v" + std::to_string(kOracleVersion) + " plan ";
  SPMVML_ENSURE_CAT(line.rfind(prefix, 0) == 0, ErrorCategory::kParse,
                    "corpus cache written by a different oracle version — "
                    "delete " + path);
  {
    const char* p = line.data() + prefix.size();
    const char* end = line.data() + line.size();
    std::size_t plan_size = 0, done = 0;
    std::uint64_t hash = 0;
    auto field = [&](const char* keyword, auto& value) -> bool {
      if (keyword != nullptr) {
        while (p < end && *p == ' ') ++p;
        const std::size_t klen = std::strlen(keyword);
        if (end - p < static_cast<std::ptrdiff_t>(klen) ||
            std::string_view(p, klen) != keyword)
          return false;
        p += klen;
        while (p < end && *p == ' ') ++p;
      }
      const auto [ptr, ec] = std::from_chars(p, end, value);
      p = ptr;
      return ec == std::errc{};
    };
    SPMVML_ENSURE_CAT(field(nullptr, plan_size) && field("hash", hash) &&
                          field("done", done),
                      ErrorCategory::kParse,
                      "corpus cache header malformed — delete " + path);
    if (cached_plan_size != nullptr) *cached_plan_size = plan_size;
    if (cached_plan_hash != nullptr) *cached_plan_hash = hash;
    if (cached_done != nullptr) *cached_done = done;
  }
  SPMVML_ENSURE_CAT(static_cast<bool>(std::getline(in, line)),
                    ErrorCategory::kParse, "missing CSV header");

  LabeledCorpus corpus;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    CsvCursor row(line);
    MatrixRecord r;
    // Seed must round-trip exactly — parse as integer, not double.
    r.seed = row.next_u64();
    r.bucket = static_cast<int>(row.next_double());
    r.family = static_cast<int>(row.next_double());
    r.rows = row.next_double();
    r.cols = row.next_double();
    r.nnz = row.next_double();
    for (int f = 0; f < kNumFeatures; ++f)
      r.features.values[static_cast<std::size_t>(f)] = row.next_double();
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (int f = 0; f < kNumFormats; ++f)
          r.seconds[static_cast<std::size_t>(a)][static_cast<std::size_t>(p)]
                   [static_cast<std::size_t>(f)] = row.next_double();
    corpus.records.push_back(r);
  }
  return corpus;
}

LabeledCorpus load_or_collect(const std::string& cache_path,
                              const CorpusPlan& plan,
                              const CollectOptions& options) {
  if (std::filesystem::exists(cache_path)) {
    try {
      std::size_t cached_plan = 0, cached_done = 0;
      std::uint64_t cached_hash = 0;
      LabeledCorpus cached = load_corpus_csv(cache_path, &cached_plan,
                                             &cached_hash, &cached_done);
      if (cached_plan == plan.size() &&
          cached_hash == plan_fingerprint(plan) &&
          cached_done == plan.size()) {
        collect_metrics().cache_hits.inc();
        obs::log_info("collect.cache_hit")
            .kv("path", cache_path)
            .kv("records", cached.size());
        return cached;
      }
      // Plan changed (different SPMVML_CORPUS_SCALE / seed / contents) or
      // the cache is a partial checkpoint: fall through to collection,
      // which resumes matching checkpoints by itself.
    } catch (const Error&) {
      // Stale or corrupt cache (e.g. oracle version bump): re-collect.
    }
  }
  CollectOptions opts = options;
  if (opts.checkpoint_path.empty()) opts.checkpoint_path = cache_path;
  return collect_corpus(plan, opts);
}

}  // namespace spmvml
