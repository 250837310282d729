// Label collection (§IV-B): run the measurement oracle for every matrix in
// a corpus plan and keep one compact record per matrix — features plus the
// mean execution time for all 7 formats x 2 GPUs x 2 precisions.
//
// Matrices are generated, scanned and discarded one at a time (the full
// corpus would not fit in memory), and the result can be cached to CSV so
// every bench after the first starts instantly. Labels read only the
// sparsity pattern, so collection generates the pattern alone
// (generate_pattern) and never draws a value array.
//
// Fault tolerance: with fault injection enabled (CollectOptions::faults)
// individual (arch, precision, format) cells can fail — OOM, timeout, or
// transient launch failure. Transients are retried with capped exponential
// backoff; cells that stay failed are recorded as NaN (a validity mask)
// instead of dropping the whole matrix, reproducing the paper's §IV-C
// exclusion as a *policy* rather than a hard-coded filter. Collection can
// checkpoint to the cache file every N finished matrices, so a killed run
// resumes without re-measuring completed matrices. A checkpoint is the
// *set* of finished records; resume matches each row to the plan entry
// with its GenSpec seed, and a row matching no entry or several makes the
// checkpoint stale.
//
// Parallelism: with CollectOptions::threads > 1 (or SPMVML_THREADS set)
// plan entries are processed concurrently by a shared thread pool,
// largest estimated nnz first (largest_first), so the matrices that set
// the critical path start at once. Every record is a pure function of its
// GenSpec, so results are assembled into a plan-indexed slot array and
// the returned corpus — and any CSV written from it — is bitwise
// identical to the serial run for every thread count. Entries finish out
// of plan order, which is why checkpoints are sets, not prefixes.
// Transient-retry backoff is a deadline-based requeue on the pool: a
// waiting matrix never stalls a worker.
#pragma once

#include <array>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "features/features.hpp"
#include "gpusim/oracle.hpp"
#include "synth/corpus.hpp"

namespace spmvml {

inline constexpr int kNumArchs = 2;  // 0 = K80c, 1 = P100

/// Everything the studies need to know about one corpus matrix.
struct MatrixRecord {
  std::uint64_t seed = 0;      // GenSpec seed (matrix identity)
  int bucket = 0;              // Table-I bucket index
  int family = 0;              // MatrixFamily
  double rows = 0, cols = 0, nnz = 0;
  FeatureVector features;
  /// seconds[arch][precision][format] — mean of `reps` timed runs, or NaN
  /// for cells whose measurement failed (the validity mask).
  std::array<std::array<std::array<double, kNumFormats>, kNumPrecisions>,
             kNumArchs>
      seconds{};

  double time(int arch, Precision prec, Format f) const {
    return seconds[static_cast<std::size_t>(arch)]
                  [static_cast<std::size_t>(prec)]
                  [static_cast<std::size_t>(f)];
  }

  /// True when the cell holds a usable measurement (finite, positive).
  bool valid(int arch, Precision prec, Format f) const {
    const double t = time(arch, prec, f);
    return std::isfinite(t) && t > 0.0;
  }

  /// Number of valid cells for one (arch, precision) machine config.
  int num_valid(int arch, Precision prec) const;

  /// True when every cell of every machine config measured successfully.
  bool fully_valid() const;

  double gflops(int arch, Precision prec, Format f) const {
    return 2.0 * nnz / time(arch, prec, f) / 1e9;
  }

  /// argmin over *valid* `candidates` of time(); returns index into
  /// candidates, or -1 when no candidate has a valid measurement.
  int best_among(int arch, Precision prec,
                 std::span<const Format> candidates) const;
};

/// Failure/recovery accounting for one collection run.
struct CollectStats {
  std::size_t attempted = 0;           // plan entries processed
  std::size_t kept = 0;                // records in the corpus
  std::size_t dropped_prefilter = 0;   // legacy §IV-C wholesale filter
  std::size_t dropped_all_failed = 0;  // every cell failed
  std::size_t failed_cells = 0;        // cells invalid after retries
  std::size_t oom_cells = 0;
  std::size_t timeout_cells = 0;
  std::size_t transient_cells = 0;     // transient after retry budget
  std::size_t transient_retries = 0;   // retry attempts issued
  std::size_t resumed_records = 0;     // restored from a checkpoint
};

struct LabeledCorpus {
  std::vector<MatrixRecord> records;
  CollectStats stats;

  std::size_t size() const { return records.size(); }
};

struct CollectOptions {
  MeasurementConfig measurement;
  CostParams cost;
  /// Fault injection (copied into measurement.faults at collection time).
  /// Disabled by default — the oracle is infallible, as in the seed.
  FaultConfig faults;
  /// §IV-C exclusion: the paper dropped ~400 of 2700 matrices that "did
  /// not fit in the GPU memory or failed to execute for one or more
  /// storage formats". With faults *disabled* we reproduce that as a
  /// wholesale pre-filter: drop matrices whose ELL image exceeds this
  /// budget (the K80c's 12 GB by default); 0 disables the filter. With
  /// faults enabled the filter is skipped — infeasible formats fail
  /// per-cell instead and the matrix is kept.
  std::int64_t format_memory_limit = 12LL * 1000 * 1000 * 1000;
  /// Transient-failure retry budget per cell (capped exponential backoff).
  int max_retries = 3;
  /// Base backoff sleep in seconds (doubles per retry, capped at
  /// backoff_cap_s). 0 disables sleeping — the schedule is still computed
  /// and the retry accounting still happens, which is what tests want.
  double backoff_base_s = 0.0;
  double backoff_cap_s = 1.0;
  /// When non-empty, collection checkpoints the finished records here
  /// each time this run finishes another `checkpoint_every` matrices, and
  /// resumes from them on restart (plan fingerprint must match).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 25;
  /// Called after each matrix with (done, total); pass {} to disable.
  /// With threads > 1 the callback runs on worker threads but is always
  /// serialized (done is monotonic); a throwing callback cancels the run.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Worker threads: 1 = the serial loop, >1 = the deterministic parallel
  /// pipeline, 0 = read SPMVML_THREADS (default 1).
  int threads = 0;
};

/// Backoff sleep before retry `attempt + 1` of a transient failure:
/// base * 2^attempt, capped at backoff_cap_s and safe for arbitrarily
/// large attempt counts (the doubling saturates instead of overflowing).
/// Returns 0 when backoff is disabled (base <= 0).
double backoff_delay_s(const CollectOptions& options, int attempt);

/// Generate + summarise + measure every matrix in the plan.
LabeledCorpus collect_corpus(const CorpusPlan& plan,
                             const CollectOptions& options = {});

/// CSV round-trip for the cache. `plan_size` records how many matrices
/// the generating plan had (collection may keep fewer after the §IV-C
/// exclusion); `plan_hash` is the plan fingerprint; `done` is how many
/// plan entries have been processed (== plan_size for a complete corpus,
/// less for a checkpoint, whose records are the finished subset in plan
/// order). Failed cells round-trip as NaN. The loader can
/// return the header fields via the out-parameters.
void save_corpus_csv(const std::string& path, const LabeledCorpus& corpus,
                     std::size_t plan_size, std::uint64_t plan_hash,
                     std::size_t done);
/// Back-compat overload: hash 0, done == plan_size.
void save_corpus_csv(const std::string& path, const LabeledCorpus& corpus,
                     std::size_t plan_size);
LabeledCorpus load_corpus_csv(const std::string& path,
                              std::size_t* cached_plan_size = nullptr,
                              std::uint64_t* cached_plan_hash = nullptr,
                              std::size_t* cached_done = nullptr);

/// Load from `cache_path` if present, complete, and matching the plan's
/// size and content fingerprint; otherwise collect (checkpointing to the
/// cache file, resuming any matching partial checkpoint) and save. The
/// workhorse entry point for all benches.
LabeledCorpus load_or_collect(const std::string& cache_path,
                              const CorpusPlan& plan,
                              const CollectOptions& options = {});

}  // namespace spmvml
