#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "checks.hpp"
#include "core/label_collector.hpp"
#include "features/features.hpp"
#include "gpusim/oracle.hpp"
#include "machine.hpp"
#include "sparse/arena.hpp"
#include "sparse/csr_binary.hpp"
#include "sparse/mmio.hpp"
#include "sparse/parallel_spmv.hpp"
#include "stats.hpp"
#include "synth/corpus.hpp"

namespace spmvml::bench {

namespace {

/// Best per-call seconds over `samples` timings of `inner` calls each.
template <typename Fn>
double min_seconds(int samples, int inner, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int s = 0; s < samples; ++s) {
    const double t0 = now_s();
    for (int i = 0; i < inner; ++i) fn();
    best = std::min(best, (now_s() - t0) / inner);
  }
  return best;
}

// Triad arrays are sized at four times the last-level cache sysfs
// reports, capped so three arrays stay near 1 GiB on shared machines;
// both sizes are recorded in the results file.
constexpr std::size_t kTriadMinBytes = 64ull << 20;
constexpr std::size_t kTriadCapBytes = 384ull << 20;

// Results of timed calls land here so the calls cannot be optimized away.
volatile double g_sink = 0.0;

struct FormatStats {
  std::vector<double> fresh_ns, warm_ns, gflops_serial, gflops_parallel,
      bw_frac;
};

}  // namespace

bool has_parallel_kernel(Format f) {
  return f == Format::kCsr || f == Format::kEll || f == Format::kHyb ||
         f == Format::kSell || f == Format::kMergeCsr;
}

void solve_spmv(const AnyMatrix<double>& m, std::span<const double> x,
                std::span<double> y) {
  switch (m.format()) {
    case Format::kCsr: spmv_parallel(m.get<Csr<double>>(), x, y); return;
    case Format::kEll: spmv_parallel(m.get<Ell<double>>(), x, y); return;
    case Format::kHyb: spmv_parallel(m.get<Hyb<double>>(), x, y); return;
    case Format::kSell: spmv_parallel(m.get<Sell<double>>(), x, y); return;
    case Format::kMergeCsr:
      spmv_parallel(m.get<MergeCsr<double>>(), x, y);
      return;
    default: m.spmv(x, y); return;
  }
}

double triad_gbs(std::size_t array_bytes, int threads, int reps) {
  const std::size_t n = array_bytes / sizeof(double);
  const auto len = static_cast<std::int64_t>(n);
  // Left uninitialized so the first touch below places pages on the
  // threads that later stream them.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < len; ++i) pa[i] = pb[i] + 3.0 * pc[i];
    best = std::min(best, now_s() - t0);
  }
  if (pa[n / 2] != 7.0) return 0.0;  // keeps the stores observable
  return 24.0 * static_cast<double>(n) / best / 1e9;
}

void run_layer_probes(const Options& options, const ProbeSet& probes,
                      RunReport& report) {
  const double start = now_s();
  // Memory bandwidth roofline.
  const Machine machine = describe_machine();
  const auto wanted = static_cast<std::size_t>(4 * machine.llc_bytes);
  const std::size_t array_bytes =
      std::clamp(wanted, kTriadMinBytes, kTriadCapBytes);
  const double triad_1t = triad_gbs(array_bytes, 1, 4);
  const double triad_nt = triad_gbs(array_bytes, options.threads, 4);
  report.set("membw.triad_gbs_1t", triad_1t);
  report.set("membw.triad_gbs_nt", triad_nt);
  report.note("membw.llc_bytes", static_cast<double>(machine.llc_bytes));
  report.note("membw.array_bytes_wanted", static_cast<double>(wanted));
  report.note("membw.array_bytes", static_cast<double>(array_bytes));

  double mmio_nnz = 0, mmio_s = 0, bin_bytes = 0, bin_s = 0;
  double feat_nnz = 0, feat_s = 0, summarize_s = 0, measure_s = 0;
  double select_s = 0, predict_s = 0;
  std::array<FormatStats, kNumFormats> per_format;
  std::vector<double> speedups, slowdowns;
  int top1 = 0;
  int fallbacks = 0;
  const MeasurementOracle oracle(tesla_p100(), Precision::kDouble);
  const std::size_t n_matrices = probes.matrices.size();

  for (std::size_t i = 0; i < n_matrices; ++i) {
    const Csr<double>& csr = *probes.matrices[i];
    const auto nnz = static_cast<double>(csr.nnz());
    const std::string path = probes.dir + "/probe" + std::to_string(i) + ".mtx";

    // Ingest: text parse and sidecar bulk load, both from the page cache.
    if (csr.nnz() <= 1'000'000) {
      write_matrix_market(path, csr);
      mmio_s += min_seconds(2, 1, [&] { (void)read_matrix_market(path); });
      mmio_nnz += nnz;
      std::remove(path.c_str());
    }
    const std::string bin = csr_sidecar_path(path);
    write_csr_binary(bin, csr);
    bin_s += min_seconds(3, 1, [&] { (void)read_csr_binary(bin); });
    bin_bytes += static_cast<double>(std::filesystem::file_size(bin));
    std::remove(bin.c_str());

    FeatureVector features;
    feat_s += min_seconds(3, 1, [&] { features = extract_features(csr); });
    feat_nnz += nnz;
    RowSummary summary;
    summarize_s += min_seconds(3, 1, [&] { summary = summarize(csr); });
    measure_s += min_seconds(3, 1, [&] {
      g_sink = oracle.measure_all(summary, i + 1)[0].seconds;
    });
    if (probes.selector != nullptr)
      select_s += min_seconds(3, 200, [&] {
        g_sink = static_cast<int>(probes.selector->select(features));
      });
    if (probes.perf_model != nullptr)
      predict_s += min_seconds(3, 200, [&] {
        g_sink = probes.perf_model->predict_all(features)[0];
      });

    // Host truth over every format that fits the budget.
    const auto feasible = make_memory_feasibility(
        summary, Precision::kDouble, static_cast<std::int64_t>(kProbeBudgetBytes));
    std::vector<double> x(static_cast<std::size_t>(csr.cols()));
    for (std::size_t j = 0; j < x.size(); ++j)
      x[j] = 1.0 + 0.125 * static_cast<double>(j % 7);
    std::vector<double> y_ref(static_cast<std::size_t>(csr.rows()));
    spmv_reference(csr, x, y_ref);
    std::vector<double> y_serial(y_ref.size()), y_parallel(y_ref.size());
    const int inner = std::max(1, static_cast<int>(2e6 / std::max(nnz, 1.0)));
    ConversionArena<double> arena;
    std::array<double, kNumFormats> solve_time;
    solve_time.fill(std::numeric_limits<double>::infinity());
    Format best = Format::kCsr;
    for (const Format f : kAllFormats) {
      if (!feasible(f)) continue;
      auto& fs = per_format[static_cast<std::size_t>(f)];
      fs.fresh_ns.push_back(min_seconds(2, 1, [&] {
        g_sink = static_cast<double>(AnyMatrix<double>::build(f, csr).bytes());
      }) * 1e9 / nnz);
      arena.convert(f, csr);
      fs.warm_ns.push_back(
          min_seconds(3, 1, [&] { arena.convert(f, csr); }) * 1e9 / nnz);
      const AnyMatrix<double>& m = arena.convert(f, csr);
      const double t_serial =
          min_seconds(5, inner, [&] { m.spmv(x, y_serial); });
      const double t_parallel =
          min_seconds(5, inner, [&] { solve_spmv(m, x, y_parallel); });
      if (std::memcmp(y_serial.data(), y_parallel.data(),
                      y_serial.size() * sizeof(double)) != 0)
        report.check(std::string("serial and parallel SpMV differ for ") +
                     format_name(f) + " on probe matrix " + std::to_string(i));
      const std::string wrong = check_vector(y_serial, y_ref, 1e-9);
      if (!wrong.empty())
        report.check(std::string(format_name(f)) + " SpMV on probe matrix " +
                     std::to_string(i) + ": " + wrong);
      fs.gflops_serial.push_back(2.0 * nnz / t_serial / 1e9);
      fs.gflops_parallel.push_back(2.0 * nnz / t_parallel / 1e9);
      const bool parallel = has_parallel_kernel(f);
      const double bytes = static_cast<double>(m.bytes()) +
                           8.0 * static_cast<double>(csr.cols() + csr.rows());
      const double t = parallel ? t_parallel : t_serial;
      fs.bw_frac.push_back(bytes / t / 1e9 / (parallel ? triad_nt : triad_1t));
      if (parallel) speedups.push_back(t_serial / t_parallel);
      solve_time[static_cast<std::size_t>(f)] = t;
      if (t < solve_time[static_cast<std::size_t>(best)]) best = f;
    }
    if (probes.selector != nullptr) {
      const Selection sel = probes.selector->select_feasible(features, feasible);
      const double slowdown = solve_time[static_cast<std::size_t>(sel.format)] /
                              solve_time[static_cast<std::size_t>(best)];
      slowdowns.push_back(slowdown);
      top1 += sel.format == best ? 1 : 0;
      fallbacks += sel.fallback ? 1 : 0;
    }
  }

  const double n = static_cast<double>(std::max<std::size_t>(n_matrices, 1));
  if (mmio_s > 0) report.set("mmio.read_mnnz_s", mmio_nnz / mmio_s / 1e6);
  if (bin_s > 0) report.set("csr_binary.read_gbs", bin_bytes / bin_s / 1e9);
  if (feat_s > 0) report.set("features.extract_mnnz_s", feat_nnz / feat_s / 1e6);
  report.set("gpusim.summarize_us", summarize_s / n * 1e6);
  report.set("gpusim.measure_all_us", measure_s / n * 1e6);
  report.set("format_selector.select_us", select_s / n * 1e6);
  report.set("perf_model.predict_all_us", predict_s / n * 1e6);
  for (const Format f : kAllFormats) {
    const auto& fs = per_format[static_cast<std::size_t>(f)];
    const std::string c = "convert." + format_key(f);
    const std::string s = "spmv." + format_key(f);
    report.set(c + ".fresh_ns_per_nnz", geomean(fs.fresh_ns));
    report.set(c + ".warm_ns_per_nnz", geomean(fs.warm_ns));
    report.set(s + ".gflops_serial", geomean(fs.gflops_serial));
    report.set(s + ".gflops_parallel", geomean(fs.gflops_parallel));
    report.set(s + ".bw_frac", geomean(fs.bw_frac));
    report.note(s + ".matrices", static_cast<double>(fs.bw_frac.size()));
  }
  report.set("spmv.parallel_speedup_geomean", geomean(speedups));
  if (!slowdowns.empty()) {
    report.set("select.slowdown_geomean", geomean(slowdowns));
    report.set("select.slowdown_worst",
               *std::max_element(slowdowns.begin(), slowdowns.end()));
    report.set("select.top1_frac",
               top1 / static_cast<double>(slowdowns.size()));
  }
  report.set("select.fallbacks", fallbacks);
  report.note("probe.matrices", static_cast<double>(n_matrices));

  // Collection scaling on a small fixed corpus plan (every Table-I
  // bucket, so the largest matrix bounds the speed-up as it does in real
  // plans): one thread against all of them.
  const CorpusPlan plan = make_corpus_plan(0.02, kBundlePlanSeed);
  CollectOptions one;
  one.threads = 1;
  CollectOptions all;
  all.threads = options.threads;
  double t0 = now_s();
  (void)collect_corpus(plan, one);
  const double t_one = now_s() - t0;
  t0 = now_s();
  (void)collect_corpus(plan, all);
  const double t_all = now_s() - t0;
  report.set("collect.parallel_efficiency",
             t_one / (static_cast<double>(options.threads) * t_all));
  report.note("collect.probe_matrices", static_cast<double>(plan.size()));
  report.note("collect.probe_1t_s", t_one);
  report.note("collect.probe_nt_s", t_all);
  report.note("probe.seconds", now_s() - start);
}

}  // namespace spmvml::bench
