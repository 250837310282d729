#include "common.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common/error.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "core/label_collector.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "synth/corpus.hpp"
#include "workloads.hpp"

extern char** environ;

namespace spmvml::bench {

namespace {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Per-format metric names follow kAllFormats order.
std::vector<MetricDef> build_per_layer() {
  std::vector<MetricDef> defs = {
      {"mmio.read_mnnz_s", "Mnnz/s"},
      {"csr_binary.read_gbs", "GB/s"},
      {"matrix_cache.hit_ratio", "frac"},
      {"matrix_cache.parses", "count"},
      {"matrix_cache.sidecar_loads", "count"},
      {"matrix_cache.evictions", "count"},
      {"features.extract_mnnz_s", "Mnnz/s"},
      {"feature_cache.hit_ratio", "frac"},
      {"format_selector.select_us", "us"},
      {"perf_model.predict_all_us", "us"},
      {"serve.generator_frac", "frac"},
      {"serve.transport_frac", "frac"},
      {"serve.queue_frac", "frac"},
      {"serve.features_frac", "frac"},
      {"serve.classify_frac", "frac"},
      {"serve.regress_frac", "frac"},
      {"serve.finalize_frac", "frac"},
      {"serve.convert_frac", "frac"},
      {"serve.kernel_frac", "frac"},
      {"serve.unaccounted_frac", "frac"},
      {"serve.batch_size_mean", "count"},
      {"serve.max_rps", "1/s"},
      {"serve.requests_per_cpu_s", "1/s"},
  };
  for (const Format f : kAllFormats) {
    const std::string key = "convert." + format_key(f);
    defs.push_back({key + ".fresh_ns_per_nnz", "ns/nnz"});
    defs.push_back({key + ".warm_ns_per_nnz", "ns/nnz"});
  }
  for (const Format f : kAllFormats) {
    const std::string key = "spmv." + format_key(f);
    defs.push_back({key + ".gflops_serial", "GFLOPS"});
    defs.push_back({key + ".gflops_parallel", "GFLOPS"});
    defs.push_back({key + ".bw_frac", "frac"});
  }
  const std::vector<MetricDef> rest = {
      {"spmv.parallel_speedup_geomean", "x"},
      {"membw.triad_gbs_1t", "GB/s"},
      {"membw.triad_gbs_nt", "GB/s"},
      {"select.slowdown_geomean", "x"},
      {"select.slowdown_worst", "x"},
      {"select.top1_frac", "frac"},
      {"select.fallbacks", "count"},
      {"collect.matrices_per_s", "1/s"},
      {"collect.parallel_efficiency", "frac"},
      {"synth.generate_mnnz_s", "Mnnz/s"},
      {"gpusim.summarize_us", "us"},
      {"gpusim.measure_all_us", "us"},
      {"fit.selector_s", "s"},
      {"fit.perf_model_s", "s"},
      {"solve.load_frac", "frac"},
      {"solve.features_frac", "frac"},
      {"solve.select_frac", "frac"},
      {"solve.convert_frac", "frac"},
      {"solve.spmv_frac", "frac"},
      {"solve.unaccounted_frac", "frac"},
      {"solve.gflops_geomean", "GFLOPS"},
      {"solve.gflops_min", "GFLOPS"},
      {"train.accuracy", "frac"},
      {"train.rme", "frac"},
      {"trace.overhead_frac", "frac"},
      {"ops.fail_frac", "frac"},
      {"ops.tail_samples", "count"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

constexpr const char* kWorkloads[] = {"serve-hot", "serve-cold", "solve",
                                      "train"};

const MetricDef* find_def(const std::string& name) {
  for (const auto& d : end_to_end_metrics())
    if (name == d.name) return &d;
  for (const auto& d : per_layer_metrics())
    if (name == d.name) return &d;
  return nullptr;
}

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }

std::span<const MetricDef> per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

std::span<const char* const> workload_names() { return kWorkloads; }

std::string format_key(Format f) {
  std::string key = format_name(f);
  for (char& c : key) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (c == '-') c = '_';
  }
  return key;
}

RunReport::RunReport() {
  // Per-layer metrics of a layer the workload never calls stay 0: the
  // layer did no work in this workload.
  for (const auto& d : per_layer_metrics()) values_[d.name] = 0.0;
}

void RunReport::set(const std::string& name, double value) {
  if (find_def(name) == nullptr)
    throw std::logic_error("undeclared metric " + name);
  values_[name] = value;
}

double RunReport::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void RunReport::check(const std::string& problem) {
  if (!problem.empty()) problems_.push_back(problem);
}

Sizing sizing(bool smoke) {
  if (smoke) {
    return Sizing{.bundle_scale = 0.02,
                  .setups = 1,
                  .hot_matrices = 4,
                  .hot_rows_min = 1000,
                  .hot_rows_max = 4000,
                  .hot_rate = 500,
                  .cold_matrices = 12,
                  .cold_rows_min = 1000,
                  .cold_rows_max = 8000,
                  .cold_rate = 50,
                  .solve_nnz = {20e3, 80e3},
                  .solve_iterations = 20,
                  .train_scales = {0.01, 0.02},
                  .holdout_scale = 0.02};
  }
  return Sizing{.bundle_scale = 0.05,
                .setups = 3,
                .hot_matrices = 8,
                .hot_rows_min = 2000,
                .hot_rows_max = 20000,
                .hot_rate = 1000,
                .cold_matrices = 96,
                .cold_rows_min = 2000,
                .cold_rows_max = 20000,
                .cold_rate = 50,
                .solve_nnz = {50e3, 500e3, 1e6},
                .solve_iterations = 100,
                .train_scales = {0.01, 0.02, 0.04},
                .holdout_scale = 0.05};
}

CorpusPlan make_plan(const TrainPlan& plan) {
  CorpusPlan p = make_corpus_plan(plan.scale, plan.plan_seed);
  if (plan.structure_seed != 0)
    for (GenSpec& spec : p.specs)
      spec.seed = hash_combine(plan.structure_seed, spec.seed);
  return p;
}

namespace {

constexpr int kP100 = 1;

std::string job_arg(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int train_job_main(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "--train-job: expected 6 arguments, got %d\n", argc);
    return 2;
  }
  try {
    TrainPlan plan;
    plan.scale = std::stod(argv[0]);
    plan.plan_seed = std::stoull(argv[1]);
    plan.structure_seed = std::stoull(argv[2]);
    CollectOptions options;
    options.threads = std::stoi(argv[3]);
    const std::string selector_path = argv[4];
    const std::string perf_model_path = argv[5];

    double t0 = now_s();
    const LabeledCorpus corpus = collect_corpus(make_plan(plan), options);
    const double collect_s = now_s() - t0;
    t0 = now_s();
    FormatSelector selector(ModelKind::kXgboost, FeatureSet::kSet12, kAllFormats);
    selector.fit(corpus, kP100, Precision::kDouble);
    const double fit_selector_s = now_s() - t0;
    t0 = now_s();
    PerfModel perf(RegressorKind::kXgboost, FeatureSet::kSet12, kAllFormats);
    perf.fit(corpus, kP100, Precision::kDouble);
    const double fit_perf_model_s = now_s() - t0;

    std::ofstream sel_out(selector_path);
    selector.save(sel_out);
    std::ofstream perf_out(perf_model_path);
    perf.save(perf_out);
    SPMVML_ENSURE_CAT(sel_out.good() && perf_out.good(), ErrorCategory::kIo,
                      "cannot write " + selector_path + " or " + perf_model_path);
    // The job's own peak: ru_maxrss of a spawned child would also count
    // the parent's, whose memory the child shares until it execs.
    std::printf("%zu %.17g %.17g %.17g %.17g\n", corpus.size(), collect_s,
                fit_selector_s, fit_perf_model_s, peak_rss_mb("self"));
    return std::fflush(stdout) == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--train-job: %s\n", e.what());
    return 1;
  }
}

TrainJob run_train_job(const TrainPlan& plan, int threads,
                       const std::string& dir) {
  TrainJob job;
  job.selector_path = dir + "/selector.model";
  job.perf_model_path = dir + "/perf.model";
  const std::string log_path = dir + "/train-job.stderr";
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::vector<std::string> argv = {
      self, "--train-job", job_arg(plan.scale), std::to_string(plan.plan_seed),
      std::to_string(plan.structure_seed), std::to_string(threads),
      job.selector_path, job.perf_model_path};

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const double t0 = now_s();
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (rc == 0) {
    char buf[256];
    ssize_t n;
    while ((n = ::read(out[0], buf, sizeof buf)) != 0) {
      if (n > 0) text.append(buf, static_cast<std::size_t>(n));
      else if (errno != EINTR) break;
    }
  }
  ::close(out[0]);
  if (rc != 0) throw std::runtime_error("cannot start the training job");
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  job.seconds = now_s() - t0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(text.c_str(), "%zu %lf %lf %lf %lf", &job.matrices,
                  &job.collect_s, &job.fit_selector_s, &job.fit_perf_model_s,
                  &job.peak_rss_mb) != 5)
    throw std::runtime_error("the training job failed; see " + log_path);
  return job;
}

Csr<double> make_matrix(MatrixFamily family, index_t rows, double row_mu,
                        std::uint64_t seed) {
  GenSpec spec;
  spec.family = family;
  spec.rows = rows;
  spec.cols = rows;
  spec.row_mu = row_mu;
  spec.row_cv = 0.6;
  spec.alpha = 2.0;
  spec.band_frac = 0.01;
  spec.block_size = 8;
  spec.seed = seed;
  return generate(spec);
}

void finish_trace(const Options& options, std::vector<obs::TraceEvent> extra,
                  RunReport& report) {
  std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  obs::trace_stop();
  events.insert(events.end(), std::make_move_iterator(extra.begin()),
                std::make_move_iterator(extra.end()));
  report.layers = layer_table(events);
  if (!options.trace_path.empty()) {
    std::ofstream out(options.trace_path);
    obs::write_trace_json(out, events);
  }
}

void report_setup(const std::vector<double>& setup_s, RunReport& report) {
  report.set("setup_s", median(setup_s));
  report.add_series("setup_s", setup_s);
}

void reset_peak_rss() {
  // Hand freed heap back first, so set-up's garbage is not counted.
  malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM (Linux 4.0+); where the kernel
  // refuses, the peak simply keeps covering the whole process.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace spmvml::bench
