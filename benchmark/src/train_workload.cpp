// train: the path `spmvml train` / `train-perf` take — the only workload
// where labeling and model fitting dominate.
//
// A round is one training job, a process of its own like `spmvml train`:
// collect_corpus at one thread per CPU, then the xgboost selector and the
// xgboost perf model (set12, P100, double), saved to files. Three plan
// sizes (scale 0.01, 0.02 and 0.04 of the paper's 2299 matrices) are the
// operations: rounds cycle through them until the run's time has passed,
// and each one's fastest round is its time. The models fitted on the
// largest plan are scored on a held-out plan labeled during set-up:
// selection accuracy against the oracle's best format, and the perf
// model's relative mean error against the oracle's times. Plan shapes
// are fixed; the seed redraws every matrix's structure.
#include <algorithm>
#include <fstream>

#include "checks.hpp"
#include "common/obs/trace.hpp"
#include "core/label_collector.hpp"
#include "core/study.hpp"
#include "ml/metrics.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace spmvml::bench {

namespace {

constexpr int kP100 = 1;
// Seven-way holdout accuracy well below what a working fit on the largest
// plan reaches; under it the fitted model is broken, not merely slower.
constexpr double kAccuracyFloor = 0.5;

struct PlanClass {
  TrainPlan plan;
  std::vector<TrainJob> rounds;
};

/// Rounds cycle through the plan classes, smallest first, until `seconds`
/// have passed (at least one cycle), so a slow stretch of the machine
/// lands on every class alike. The last job trains on the largest plan,
/// so its models are the ones left under `dir`.
std::vector<PlanClass> run_classes(const Options& o, const Sizing& sz,
                                   double seconds) {
  std::vector<PlanClass> classes(sz.train_scales.size());
  for (std::size_t c = 0; c < classes.size(); ++c)
    classes[c].plan = TrainPlan{.scale = sz.train_scales[c],
                                .plan_seed = kBundlePlanSeed,
                                .structure_seed = o.seed};
  const double start = now_s();
  do {
    for (PlanClass& pc : classes) {
      obs::TraceSpan span("bench.train.round");
      span.arg("round", static_cast<std::uint64_t>(pc.rounds.size()));
      pc.rounds.push_back(run_train_job(pc.plan, o.threads, o.work_dir));
    }
  } while (now_s() - start < seconds);
  return classes;
}

/// A class's time: its fastest round. The work of every round is the
/// same, so the spread between rounds is the machine's.
double class_seconds(const PlanClass& pc) {
  double best = pc.rounds.front().seconds;
  for (const TrainJob& r : pc.rounds) best = std::min(best, r.seconds);
  return best;
}

/// Child spans of each traced round, laid out from the job's own
/// timings: collect, then the two fits. What they leave of the round —
/// process start, saving the models, exit — is the round's self time.
std::vector<obs::TraceEvent> round_children(const std::vector<PlanClass>& classes) {
  std::vector<const TrainJob*> jobs;  // in the order the rounds ran
  for (std::size_t k = 0; k < classes.front().rounds.size(); ++k)
    for (const PlanClass& pc : classes)
      if (k < pc.rounds.size()) jobs.push_back(&pc.rounds[k]);
  std::vector<obs::TraceEvent> out;
  std::size_t next = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (e.name != "bench.train.round" || next >= jobs.size()) continue;
    const TrainJob& job = *jobs[next++];
    double at = e.ts_us;
    for (const auto& [name, seconds] :
         {std::pair{"bench.train.collect", job.collect_s},
          std::pair{"bench.train.fit_selector", job.fit_selector_s},
          std::pair{"bench.train.fit_perf_model", job.fit_perf_model_s}}) {
      obs::TraceEvent child;
      child.name = name;
      child.tid = e.tid;
      child.ts_us = at;
      child.dur_us = std::clamp(seconds * 1e6, 0.0, e.ts_us + e.dur_us - at);
      at += child.dur_us;
      out.push_back(std::move(child));
    }
  }
  return out;
}

}  // namespace

void run_train(const Options& o, RunReport& report) {
  const Sizing sz = sizing(o.smoke);

  // Set-up, repeated: label the held-out plan the models are scored on.
  LabeledCorpus holdout;
  ClassificationStudy study;
  std::vector<double> setups;
  CollectOptions options;
  options.threads = o.threads;
  const CorpusPlan holdout_plan =
      make_plan(TrainPlan{.scale = sz.holdout_scale,
                          .plan_seed = kBundlePlanSeed + 1,
                          .structure_seed = o.seed});
  for (int k = 0; k < sz.setups; ++k) {
    const double t0 = now_s();
    holdout = collect_corpus(holdout_plan, options);
    study = make_classification_study(holdout, kP100, Precision::kDouble,
                                      kAllFormats, FeatureSet::kSet12);
    setups.push_back(now_s() - t0);
  }
  report_setup(setups, report);

  std::vector<PlanClass> classes;
  if (!o.trace) {
    classes = run_classes(o, sz, o.seconds);
  } else {
    const std::vector<PlanClass> plain = run_classes(o, sz, o.seconds / 2);
    obs::trace_start("");
    classes = run_classes(o, sz, o.seconds / 2);
    finish_trace(o, round_children(classes), report);
    double sum_plain = 0.0, sum_traced = 0.0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      sum_plain += class_seconds(plain[c]);
      sum_traced += class_seconds(classes[c]);
    }
    report.set("trace.overhead_frac", sum_traced / sum_plain - 1.0);
  }

  std::vector<double> class_s;
  double collected = 0.0, collect_s = 0.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const PlanClass& pc = classes[c];
    const double t = class_seconds(pc);
    class_s.push_back(t);
    std::vector<double> round_s;
    for (const TrainJob& r : pc.rounds) {
      collected += static_cast<double>(r.matrices);
      collect_s += r.collect_s;
      round_s.push_back(r.seconds);
    }
    report.attempted += pc.rounds.size();
    const std::string key = "class" + std::to_string(c);
    report.note(key + ".matrices", static_cast<double>(pc.rounds.front().matrices));
    report.note(key + ".seconds", t);
    report.add_series(key + ".round_s", std::move(round_s));
  }
  std::vector<double> peaks, fit_sel, fit_perf;
  for (const TrainJob& r : classes.back().rounds) {
    peaks.push_back(r.peak_rss_mb);
    fit_sel.push_back(r.fit_selector_s);
    fit_perf.push_back(r.fit_perf_model_s);
  }
  if (!o.trace) {
    // The operations are the plan classes: the middle one is the median,
    // the largest the slowest.
    const Tail tl = tail(class_s);
    report.set("p50_ms", median(class_s) * 1e3);
    report.set("tail_ms", tl.value * 1e3);
    report.note("tail.percentile", tl.percentile);
    report.note("tail.samples", static_cast<double>(tl.samples));
    // A training job's peak resident set, on the largest plan.
    report.set("peak_rss_mb", median(peaks));
    report.add_series("peak_rss_mb", peaks);
  }
  report.set("ops.tail_samples", static_cast<double>(class_s.size()));
  report.set("collect.matrices_per_s", collected / collect_s);
  report.set("fit.selector_s", median(fit_sel));
  report.set("fit.perf_model_s", median(fit_perf));

  // Score the models the last job fitted on the largest plan. Not timed:
  // it is the benchmark's check, not the user's work.
  std::ifstream sel_in(classes.back().rounds.back().selector_path);
  const FormatSelector selector = FormatSelector::load_selector(sel_in);
  std::ifstream perf_in(classes.back().rounds.back().perf_model_path);
  const PerfModel perf = PerfModel::load_model(perf_in);
  std::vector<int> predicted;
  for (const auto& x : study.data.x) predicted.push_back(selector.predict_label(x));
  const double accuracy = ml::accuracy(study.data.labels, predicted);
  std::vector<double> measured, predicted_s;
  for (const MatrixRecord& rec : holdout.records) {
    for (const Format f : kAllFormats) {
      if (!rec.valid(kP100, Precision::kDouble, f)) continue;
      measured.push_back(rec.time(kP100, Precision::kDouble, f));
      predicted_s.push_back(perf.predict_seconds(rec.features, f));
    }
  }
  report.set("train.accuracy", accuracy);
  report.set("train.rme", ml::relative_mean_error(measured, predicted_s));
  if (!o.smoke)
    report.check(check_floor("holdout selection accuracy", accuracy,
                             kAccuracyFloor));

  if (o.trace) {
    // Probe matrices: eight held-out specs spread over the nnz range.
    std::vector<GenSpec> specs = holdout_plan.specs;
    std::sort(specs.begin(), specs.end(), [](const GenSpec& a, const GenSpec& b) {
      return a.row_mu * static_cast<double>(a.rows) <
             b.row_mu * static_cast<double>(b.rows);
    });
    std::vector<Csr<double>> probe_matrices;
    double gen_s = 0.0, gen_nnz = 0.0;
    for (std::size_t k = 0; k < 8; ++k) {
      const double t0 = now_s();
      probe_matrices.push_back(generate(specs[(specs.size() - 1) * k / 8]));
      gen_s += now_s() - t0;
      gen_nnz += static_cast<double>(probe_matrices.back().nnz());
    }
    report.set("synth.generate_mnnz_s", gen_nnz / gen_s / 1e6);
    ProbeSet probes;
    for (const auto& m : probe_matrices) probes.matrices.push_back(&m);
    probes.selector = &selector;
    probes.perf_model = &perf;
    probes.dir = o.work_dir;
    run_layer_probes(o, probes, report);
  }
}

}  // namespace spmvml::bench
