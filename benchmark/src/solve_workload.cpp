// solve: the paper's user, an iterative solver that asks the selector
// which format to run its SpMVs in.
//
// Nine matrices — banded, uniform-random and power-law, each at about
// 50k nnz (fits one core's L2), 500k nnz (fits the L2 of all cores) and
// 1M nnz (larger than all L2) — are stored as binary CSR sidecars. Per
// matrix: read_csr_binary -> extract_features -> select_feasible under a
// 2 GB budget -> AnyMatrix::build -> 100 SpMV iterations (spmv_parallel
// where the format has one, otherwise AnyMatrix::spmv). Passes solve
// every matrix once until the run's time has passed, and each matrix's
// fastest solve is its time. Kernels and conversion dominate; the
// serving layers are idle.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "checks.hpp"
#include "loadgen.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "features/features.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/row_summary.hpp"
#include "probes.hpp"
#include "sparse/csr_binary.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace spmvml::bench {

namespace {

constexpr double kSolveBudgetBytes = 2e9;
struct SolveFamily {
  MatrixFamily family;
  double row_mu;
};
constexpr SolveFamily kSolveFamilies[] = {{MatrixFamily::kBanded, 12.0},
                                          {MatrixFamily::kUniformRandom, 8.0},
                                          {MatrixFamily::kPowerLaw, 10.0}};

struct SolveMatrix {
  std::string path;
  double nnz = 0.0;
  std::vector<double> seconds;  // one per pass
  std::string format;
  bool fallback = false;
};

struct SolveOutcome {
  double seconds = 0.0;
  Format format = Format::kCsr;
  bool fallback = false;
};

/// One full solve of one matrix, each step in its own bench.solve.* span.
/// With `check`, the first SpMV is also compared against the reference.
SolveOutcome solve_once(const SolveMatrix& sm, const FormatSelector& selector,
                        int iterations, RunReport* check) {
  SolveOutcome out;
  const double t0 = now_s();
  obs::TraceSpan whole("bench.solve.matrix");
  Csr<double> csr;
  {
    obs::TraceSpan span("bench.solve.load");
    csr = read_csr_binary(sm.path);
  }
  FeatureVector features;
  {
    obs::TraceSpan span("bench.solve.features");
    features = extract_features(csr);
  }
  Selection sel;
  {
    obs::TraceSpan span("bench.solve.select");
    const RowSummary summary = summarize(csr);
    sel = selector.select_feasible(
        features, make_memory_feasibility(summary, Precision::kDouble,
                                          static_cast<std::int64_t>(kSolveBudgetBytes)));
  }
  AnyMatrix<double> m;
  {
    obs::TraceSpan span("bench.solve.convert");
    m = AnyMatrix<double>::build(sel.format, csr);
  }
  std::vector<double> x(static_cast<std::size_t>(csr.cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(csr.rows()));
  {
    obs::TraceSpan span("bench.solve.spmv");
    for (int it = 0; it < iterations; ++it) {
      solve_spmv(m, x, y);
      std::swap(x, y);
      if (it % 10 == 9) {
        // Power-iteration rescale, often enough that no value overflows.
        double peak = 0.0;
        for (const double v : x) peak = std::max(peak, std::abs(v));
        const double s = peak > 0.0 ? 1.0 / peak : 1.0;
        for (double& v : x) v *= s;
      }
    }
  }
  out.seconds = now_s() - t0;
  out.format = sel.format;
  out.fallback = sel.fallback;
  if (check != nullptr) {
    std::vector<double> x0(x.size()), y_ref(y.size());
    for (std::size_t j = 0; j < x0.size(); ++j)
      x0[j] = 1.0 + 0.125 * static_cast<double>(j % 7);
    solve_spmv(m, x0, y);
    spmv_reference(csr, x0, y_ref);
    const std::string wrong = check_vector(y, y_ref, 1e-9);
    if (!wrong.empty())
      check->check(sm.path + " (" + format_name(sel.format) + "): " + wrong);
    for (const double v : x)
      if (!std::isfinite(v)) {
        check->check(sm.path + ": the iteration produced a non-finite value");
        break;
      }
  }
  return out;
}

/// Passes over every matrix, one solve each, until `seconds` have passed
/// (at least one pass). The first solve of each matrix is checked against
/// the reference. Returns the number of solves run.
std::uint64_t run_passes(std::vector<SolveMatrix>& matrices,
                         const FormatSelector& selector, const Sizing& sz,
                         double seconds, RunReport& report) {
  std::uint64_t solves = 0;
  const double start = now_s();
  do {
    for (SolveMatrix& sm : matrices) {
      const SolveOutcome r = solve_once(sm, selector, sz.solve_iterations,
                                        sm.seconds.empty() ? &report : nullptr);
      sm.seconds.push_back(r.seconds);
      sm.format = format_name(r.format);
      sm.fallback = r.fallback;
      ++solves;
    }
  } while (now_s() - start < seconds);
  return solves;
}

/// Each matrix's time: its fastest solve. Every solve of a matrix does
/// the same work, so the spread between them is the machine's.
std::vector<double> per_matrix_seconds(const std::vector<SolveMatrix>& ms) {
  std::vector<double> v;
  for (const auto& m : ms)
    v.push_back(*std::min_element(m.seconds.begin(), m.seconds.end()));
  return v;
}

}  // namespace

void run_solve(const Options& o, RunReport& report) {
  const Sizing sz = sizing(o.smoke);
  std::vector<SolveMatrix> matrices;
  double gen_s = 0.0, gen_nnz = 0.0;
  for (const double nnz : sz.solve_nnz) {
    for (const SolveFamily& f : kSolveFamilies) {
      const double t0 = now_s();
      const Csr<double> csr =
          make_matrix(f.family, static_cast<index_t>(nnz / f.row_mu), f.row_mu,
                      hash_combine(o.seed, matrices.size() + 1));
      gen_s += now_s() - t0;
      gen_nnz += static_cast<double>(csr.nnz());
      SolveMatrix sm;
      sm.path = o.work_dir + "/solve" + std::to_string(matrices.size()) +
                ".spmvml-csr";
      sm.nnz = static_cast<double>(csr.nnz());
      write_csr_binary(sm.path, csr);
      matrices.push_back(std::move(sm));
    }
  }
  report.set("synth.generate_mnnz_s", gen_nnz / gen_s / 1e6);

  // Set-up, repeated: train the bundle and load the selector from disk
  // the way a solver would.
  TrainJob bundle;
  std::vector<double> setups;
  FormatSelector selector(ModelKind::kXgboost, FeatureSet::kSet12, kAllFormats);
  for (int k = 0; k < sz.setups; ++k) {
    const double t0 = now_s();
    bundle = run_train_job(TrainPlan{.scale = sz.bundle_scale}, o.threads,
                           o.work_dir);
    std::ifstream in(bundle.selector_path);
    selector = FormatSelector::load_selector(in);
    setups.push_back(now_s() - t0);
  }
  report_setup(setups, report);
  report.set("collect.matrices_per_s",
             static_cast<double>(bundle.matrices) / bundle.collect_s);
  report.set("fit.selector_s", bundle.fit_selector_s);
  report.set("fit.perf_model_s", bundle.fit_perf_model_s);

  if (!o.trace) {
    reset_peak_rss();
    report.attempted = run_passes(matrices, selector, sz, o.seconds, report);
    const std::vector<double> t = per_matrix_seconds(matrices);
    const Tail tl = tail(t);
    report.set("p50_ms", median(t) * 1e3);
    report.set("tail_ms", tl.value * 1e3);
    report.note("tail.percentile", tl.percentile);
    report.note("tail.samples", static_cast<double>(tl.samples));
    report.set("peak_rss_mb", peak_rss_mb("self"));
  } else {
    report.attempted = run_passes(matrices, selector, sz, o.seconds / 2, report);
    const std::vector<double> plain = per_matrix_seconds(matrices);
    for (auto& m : matrices) m.seconds.clear();
    obs::trace_start("");
    report.attempted += run_passes(matrices, selector, sz, o.seconds / 2, report);
    const std::vector<double> traced = per_matrix_seconds(matrices);
    finish_trace(o, {}, report);
    double sum_plain = 0.0, sum_traced = 0.0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      sum_plain += plain[i];
      sum_traced += traced[i];
    }
    report.set("trace.overhead_frac", sum_traced / sum_plain - 1.0);
    const double total = total_ms(report.layers, "bench.solve.matrix");
    const auto frac = [&](const char* span) {
      return total > 0.0 ? self_ms(report.layers, span) / total : 0.0;
    };
    report.set("solve.load_frac", frac("bench.solve.load"));
    report.set("solve.features_frac", frac("bench.solve.features"));
    report.set("solve.select_frac", frac("bench.solve.select"));
    report.set("solve.convert_frac", frac("bench.solve.convert"));
    report.set("solve.spmv_frac", frac("bench.solve.spmv"));
    const double unaccounted = frac("bench.solve.matrix");
    report.set("solve.unaccounted_frac", unaccounted);
    report.check(unaccounted <= 0.05
                     ? std::string()
                     : "solve step spans cover only " +
                           std::to_string(100.0 * (1.0 - unaccounted)) +
                           "% of the solve time");
  }

  std::vector<double> gflops;
  const std::vector<double> t = per_matrix_seconds(matrices);
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const SolveMatrix& sm = matrices[i];
    gflops.push_back(2.0 * sm.nnz * sz.solve_iterations / t[i] / 1e9);
    const std::string key = "matrix" + std::to_string(i);
    report.note(key + ".nnz", sm.nnz);
    report.note(key + ".seconds", t[i]);
    report.add_series(key + ".solve_s", sm.seconds);
    report.note(key + ".format." + sm.format, 1);
    if (sm.fallback) report.note(key + ".fallback", 1);
  }
  report.set("solve.gflops_geomean", geomean(gflops));
  report.set("solve.gflops_min", *std::min_element(gflops.begin(), gflops.end()));
  report.set("ops.tail_samples", static_cast<double>(matrices.size()));

  if (o.trace) {
    std::ifstream perf_in(bundle.perf_model_path);
    const PerfModel perf = PerfModel::load_model(perf_in);
    std::vector<Csr<double>> loaded;
    for (const auto& sm : matrices) loaded.push_back(read_csr_binary(sm.path));
    ProbeSet probes;
    for (const auto& m : loaded) probes.matrices.push_back(&m);
    probes.selector = &selector;
    probes.perf_model = &perf;
    probes.dir = o.work_dir;
    run_layer_probes(o, probes, report);
  }
}

}  // namespace spmvml::bench
