// Shared pieces of the benchmark: options, the declared metric set, the
// per-run report, input generation and the model bundle every workload
// except `train` serves from.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/format_selector.hpp"
#include "core/perf_model.hpp"
#include "ledger.hpp"
#include "sparse/csr.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace spmvml::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // The measured phase; BENCHMARK.json's run_seconds, which every run
  // that is compared with another must use.
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;  // scratch for inputs and models; removed at exit
  std::string cli_path;  // the spmvml CLI the serving workloads start
  std::string trace_path;  // Chrome trace written by a traced run
  int threads = 1;       // hardware threads used for OpenMP and collection
};

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json's
/// `end_to_end`, same order).
std::span<const MetricDef> end_to_end_metrics();
/// The per-layer metrics every traced run prints (`per_layer`).
std::span<const MetricDef> per_layer_metrics();
/// The workloads, in BENCHMARK.json order.
std::span<const char* const> workload_names();

/// Lower-case metric-name form of a format ("merge-CSR" -> "merge_csr").
std::string format_key(Format f);

/// Everything one run produces.
class RunReport {
 public:
  RunReport();

  /// Set a declared metric; throws for an undeclared name.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  /// Record a failed output check (empty `problem` = passed).
  void check(const std::string& problem);
  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

  /// Free-form numeric details for the results file (ladder steps, sample
  /// counts, array sizes...).
  void note(const std::string& key, double value) { notes_[key] = value; }
  const std::map<std::string, double>& notes() const { return notes_; }

  /// The samples a metric was computed from (set-up times, per-matrix
  /// solve times, serving latencies...), kept for the results file.
  void add_series(const std::string& name, std::vector<double> values) {
    series_[name] = std::move(values);
  }
  const std::map<std::string, std::vector<double>>& series() const {
    return series_;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<LayerRow> layers;  // traced runs only

 private:
  std::map<std::string, double> values_;
  std::map<std::string, double> notes_;
  std::map<std::string, std::vector<double>> series_;
  std::vector<std::string> problems_;
};

/// How big each workload is; `--smoke` shrinks every input and phase.
/// Input shapes (sizes, nonzeros per row, families, popularity) are fixed
/// here; the seed only varies the structure the generators draw, so every
/// seed samples the same workload.
struct Sizing {
  double bundle_scale;     // corpus plan the served bundle trains on
  int setups;              // set-ups per run; setup_s is their median
  int hot_matrices;
  index_t hot_rows_min, hot_rows_max;
  double hot_rate;
  int cold_matrices;
  index_t cold_rows_min, cold_rows_max;
  double cold_rate;
  std::vector<double> solve_nnz;  // nnz per solve size class
  int solve_iterations;
  std::vector<double> train_scales;  // corpus-plan scale per training class
  double holdout_scale;
};

Sizing sizing(bool smoke);

/// The corpus plan the served bundle trains on: fixed, so every run of
/// every seed serves the same models.
inline constexpr std::uint64_t kBundlePlanSeed = 2018;

/// make_corpus_plan(scale, plan_seed), with every matrix's structure
/// redrawn from `structure_seed` unless it is 0: the sizes, families and
/// shape knobs — and so the labeling work — stay those of the plan.
struct TrainPlan {
  double scale = 0.0;
  std::uint64_t plan_seed = kBundlePlanSeed;
  std::uint64_t structure_seed = 0;
};

CorpusPlan make_plan(const TrainPlan& plan);

/// One training job: what it cost and where it saved its models.
struct TrainJob {
  std::string selector_path;
  std::string perf_model_path;
  std::size_t matrices = 0;
  double seconds = 0.0;  // wall time, process start to exit
  double collect_s = 0.0;
  double fit_selector_s = 0.0;
  double fit_perf_model_s = 0.0;
  double peak_rss_mb = 0.0;  // the job process's peak resident set
};

/// Label `plan` with collect_corpus at `threads`, fit the xgboost selector
/// and perf model (set12, P100, double) — what `spmvml train` /
/// `train-perf` do — and save both under `dir`. Like `spmvml train`, the
/// job runs as a process of its own: this binary, started again with
/// --train-job. (A forked child would hang in its first OpenMP region
/// once the parent has used OpenMP.)
TrainJob run_train_job(const TrainPlan& plan, int threads,
                       const std::string& dir);

/// The body of that process; `argv` holds what run_train_job passed
/// after --train-job. Returns the exit status.
int train_job_main(int argc, char** argv);

/// One synthetic square matrix of `family` with `rows` rows and about
/// `row_mu` nonzeros per row; `seed` only drives the generator's draws.
Csr<double> make_matrix(MatrixFamily family, index_t rows, double row_mu,
                        std::uint64_t seed);

/// Return freed heap to the OS and restart the VmHWM peak from the
/// current resident set, so a later peak_rss_mb("self") covers only
/// what ran in between.
void reset_peak_rss();

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

}  // namespace spmvml::bench
