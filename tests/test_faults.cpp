// Fault-injection and fault-tolerance tests: deterministic fault model,
// per-cell failure recording with retries, checkpoint/resume, partial-label
// training, feasibility-aware serving, and corrupt model streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/format_selector.hpp"
#include "core/indirect.hpp"
#include "core/label_collector.hpp"
#include "core/perf_model.hpp"
#include "gpusim/fault.hpp"
#include "ml/metrics.hpp"

namespace spmvml {
namespace {

/// Power-law spec with a hub row: the ELL image explodes (rows * row_max)
/// while CSR stays proportional to nnz.
GenSpec ell_hostile_spec() {
  GenSpec spec;
  spec.family = MatrixFamily::kPowerLaw;
  spec.rows = 40000;
  spec.cols = 40000;
  spec.row_mu = 8;
  spec.alpha = 1.2;
  spec.seed = 2024;
  return spec;
}

TEST(FaultModel, DisabledIsInfallible) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  MeasurementOracle oracle(tesla_k40c(), Precision::kDouble);
  for (Format f : kAllFormats)
    EXPECT_TRUE(oracle.measure(s, f, 1).ok());
}

TEST(FaultModel, StructuralOomOnEllBlowUp) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  MeasurementConfig config;
  config.faults.enabled = true;
  config.faults.device_memory_override = 50'000'000;  // 50 MB device
  MeasurementOracle oracle(tesla_k40c(), Precision::kDouble, config);

  const auto ell = oracle.measure(s, Format::kEll, 1);
  EXPECT_EQ(ell.status, MeasurementStatus::kOom);
  EXPECT_TRUE(std::isnan(ell.seconds));
  const auto csr = oracle.measure(s, Format::kCsr, 1);
  EXPECT_TRUE(csr.ok());
  EXPECT_GT(csr.seconds, 0.0);
}

TEST(FaultModel, OomIsNotRetryable) {
  EXPECT_FALSE(is_retryable(MeasurementStatus::kOom));
  EXPECT_FALSE(is_retryable(MeasurementStatus::kTimeout));
  EXPECT_TRUE(is_retryable(MeasurementStatus::kTransient));
}

TEST(FaultModel, WatchdogTimeout) {
  const auto m = generate(make_small_plan(1, 5).specs[0]);
  const auto s = summarize(m);
  MeasurementConfig config;
  config.faults.enabled = true;
  config.faults.timeout_seconds = 1e-12;  // everything exceeds this
  MeasurementOracle oracle(tesla_p100(), Precision::kSingle, config);
  const auto r = oracle.measure(s, Format::kCsr, 1);
  EXPECT_EQ(r.status, MeasurementStatus::kTimeout);
}

TEST(FaultModel, TransientIsDeterministicPerAttemptAndRetryable) {
  const auto m = generate(make_small_plan(1, 5).specs[0]);
  const auto s = summarize(m);
  MeasurementConfig config;
  config.faults.enabled = true;
  config.faults.transient_rate = 0.5;
  MeasurementOracle a(tesla_k40c(), Precision::kDouble, config);
  MeasurementOracle b(tesla_k40c(), Precision::kDouble, config);

  bool saw_ok = false, saw_transient = false;
  double ok_seconds = 0.0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto ra = a.measure(s, Format::kCsr, 7, attempt);
    const auto rb = b.measure(s, Format::kCsr, 7, attempt);
    EXPECT_EQ(ra.status, rb.status);  // pure function of identity+attempt
    if (ra.ok()) {
      // Timing is attempt-invariant: a retried success must report the
      // same mean as a first-try success.
      if (saw_ok) EXPECT_DOUBLE_EQ(ra.seconds, ok_seconds);
      ok_seconds = ra.seconds;
      saw_ok = true;
    } else {
      EXPECT_EQ(ra.status, MeasurementStatus::kTransient);
      saw_transient = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_transient);
}

TEST(FaultModel, DeviceBytesRankFormatsSanely) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  const double ell = format_device_bytes(s, Format::kEll, Precision::kDouble);
  const double csr = format_device_bytes(s, Format::kCsr, Precision::kDouble);
  const double coo = format_device_bytes(s, Format::kCoo, Precision::kDouble);
  EXPECT_GT(ell, 10.0 * csr);  // padding blow-up dominates
  EXPECT_GT(coo, 0.0);
  // Double precision images are strictly larger than single.
  EXPECT_GT(csr, format_device_bytes(s, Format::kCsr, Precision::kSingle));
}

// ---------------------------------------------------------------------------
// Collection: per-cell failures, retries, no wholesale drops.

TEST(FaultyCollection, RecordsPerCellFailuresWithoutDroppingMatrices) {
  const auto plan = make_small_plan(24, 4242);
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.3;  // ~15% of matrices keep >=1 failed cell
  const auto corpus = collect_corpus(plan, opts);

  // Zero wholesale drops: every matrix had at least one surviving cell.
  EXPECT_EQ(corpus.size(), plan.size());
  EXPECT_EQ(corpus.stats.dropped_all_failed, 0u);
  EXPECT_EQ(corpus.stats.dropped_prefilter, 0u);
  EXPECT_GT(corpus.stats.failed_cells, 0u);
  EXPECT_GT(corpus.stats.transient_retries, corpus.stats.failed_cells);

  std::size_t matrices_with_failures = 0;
  for (const auto& rec : corpus.records)
    if (!rec.fully_valid()) ++matrices_with_failures;
  EXPECT_GT(matrices_with_failures, 0u);
  EXPECT_LT(matrices_with_failures, corpus.size());  // not everything failed
}

TEST(FaultyCollection, MonsterEllMatrixKeptWithInvalidEllCells) {
  CorpusPlan plan = make_small_plan(3, 77);
  plan.specs.push_back(ell_hostile_spec());
  plan.bucket_of.push_back(3);

  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.device_memory_override = 50'000'000;  // 50 MB device
  const auto corpus = collect_corpus(plan, opts);

  // §IV-C as a policy: the monster is kept, only its ELL cells fail.
  ASSERT_EQ(corpus.size(), plan.size());
  EXPECT_GT(corpus.stats.oom_cells, 0u);
  const auto& monster = corpus.records.back();
  for (int a = 0; a < kNumArchs; ++a)
    for (int p = 0; p < kNumPrecisions; ++p) {
      EXPECT_FALSE(monster.valid(a, static_cast<Precision>(p), Format::kEll));
      EXPECT_TRUE(monster.valid(a, static_cast<Precision>(p), Format::kCsr));
    }
  // best_among never points at the invalid format.
  const int best = monster.best_among(0, Precision::kDouble, kAllFormats);
  ASSERT_GE(best, 0);
  EXPECT_NE(kAllFormats[static_cast<std::size_t>(best)], Format::kEll);
}

TEST(FaultyCollection, RetriesRecoverMostTransients) {
  const auto plan = make_small_plan(12, 99);
  CollectOptions no_retry;
  no_retry.faults.enabled = true;
  no_retry.faults.transient_rate = 0.3;
  no_retry.max_retries = 0;
  const auto without = collect_corpus(plan, no_retry);

  CollectOptions with_retry = no_retry;
  with_retry.max_retries = 4;
  const auto with = collect_corpus(plan, with_retry);

  EXPECT_GT(without.stats.failed_cells, 0u);
  EXPECT_LT(with.stats.failed_cells, without.stats.failed_cells);
}

TEST(FaultyCollection, NanCellsRoundTripThroughCsv) {
  const auto plan = make_small_plan(8, 4242);
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.35;
  opts.max_retries = 0;  // keep plenty of failed cells
  const auto corpus = collect_corpus(plan, opts);
  EXPECT_GT(corpus.stats.failed_cells, 0u);

  const auto path = testing::TempDir() + "/spmvml_nan_roundtrip.csv";
  save_corpus_csv(path, corpus, plan.size());
  const auto loaded = load_corpus_csv(path);
  ASSERT_EQ(loaded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    for (int a = 0; a < kNumArchs; ++a)
      for (int p = 0; p < kNumPrecisions; ++p)
        for (Format f : kAllFormats) {
          const auto prec = static_cast<Precision>(p);
          ASSERT_EQ(loaded.records[i].valid(a, prec, f),
                    corpus.records[i].valid(a, prec, f));
          if (corpus.records[i].valid(a, prec, f))
            EXPECT_DOUBLE_EQ(loaded.records[i].time(a, prec, f),
                             corpus.records[i].time(a, prec, f));
        }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Training on partial labels.

TEST(PartialLabels, StudyLabelsNeverPointAtInvalidCells) {
  const auto plan = make_small_plan(20, 31);
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.35;
  opts.max_retries = 0;
  const auto corpus = collect_corpus(plan, opts);

  const auto study = make_classification_study(
      corpus, 0, Precision::kDouble, kAllFormats, FeatureSet::kSet12);
  ASSERT_FALSE(study.data.labels.empty());
  for (std::size_t i = 0; i < study.data.labels.size(); ++i) {
    const auto label = static_cast<std::size_t>(study.data.labels[i]);
    EXPECT_TRUE(std::isfinite(study.times[i][label]));
  }
}

TEST(PartialLabels, RegressionStudySkipsInvalidCells) {
  const auto plan = make_small_plan(16, 31);
  CollectOptions clean;
  const auto full = collect_corpus(plan, clean);
  CollectOptions faulty;
  faulty.faults.enabled = true;
  faulty.faults.transient_rate = 0.35;
  faulty.max_retries = 0;
  const auto partial = collect_corpus(plan, faulty);
  EXPECT_GT(partial.stats.failed_cells, 0u);

  const auto study_full = make_format_regression_study(
      full, 1, Precision::kDouble, Format::kCsr, FeatureSet::kSet1);
  const auto study_partial = make_format_regression_study(
      partial, 1, Precision::kDouble, Format::kCsr, FeatureSet::kSet1);
  EXPECT_LE(study_partial.data.x.size(), study_full.data.x.size());
  for (double t : study_partial.seconds) EXPECT_TRUE(std::isfinite(t));
}

TEST(PartialLabels, SelectorAccuracyStaysCloseToFaultFree) {
  // §IV-C-like regime: ~15% of matrices carry at least one failing format.
  const auto plan = make_small_plan(150, 2018);
  CollectOptions clean;
  const auto corpus_clean = collect_corpus(plan, clean);
  CollectOptions faulty;
  faulty.faults.enabled = true;
  faulty.faults.transient_rate = 0.3;
  const auto corpus_faulty = collect_corpus(plan, faulty);

  ASSERT_EQ(corpus_faulty.size(), plan.size());  // zero wholesale drops
  std::size_t with_failures = 0;
  for (const auto& rec : corpus_faulty.records)
    if (!rec.fully_valid()) ++with_failures;
  // The injected rate should land in the §IV-C ballpark (15% of 2700).
  EXPECT_GT(with_failures, plan.size() / 20);
  EXPECT_LT(with_failures, plan.size() / 2);

  // Train one selector per corpus, evaluate both against the fault-free
  // ground truth.
  const auto truth = make_classification_study(
      corpus_clean, 0, Precision::kDouble, kAllFormats, FeatureSet::kSet12);
  auto accuracy_of = [&](const LabeledCorpus& corpus) {
    FormatSelector selector(ModelKind::kXgboost, FeatureSet::kSet12,
                            kAllFormats, /*fast=*/true);
    selector.fit(corpus, 0, Precision::kDouble);
    std::vector<int> pred;
    for (const auto& row : truth.data.x)
      pred.push_back(selector.predict_label(row));
    return ml::accuracy(truth.data.labels, pred);
  };
  const double acc_clean = accuracy_of(corpus_clean);
  const double acc_faulty = accuracy_of(corpus_faulty);
  EXPECT_NEAR(acc_faulty, acc_clean, 0.02);  // within 2 accuracy points
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

struct AbortCollection {};

TEST(Checkpoint, KilledRunResumesWithoutRemeasuring) {
  const auto plan = make_small_plan(16, 1234);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_test.csv";
  std::remove(path.c_str());

  CollectOptions opts;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 4;
  opts.progress = [](std::size_t done, std::size_t) {
    if (done == 10) throw AbortCollection{};  // simulate a kill mid-run
  };
  EXPECT_THROW(collect_corpus(plan, opts), AbortCollection);
  ASSERT_TRUE(std::filesystem::exists(path));

  CollectOptions resume;
  resume.checkpoint_path = path;
  const auto resumed = collect_corpus(plan, resume);
  // The checkpoint covered the first 8 matrices; only the rest re-ran.
  EXPECT_EQ(resumed.stats.resumed_records, 8u);
  EXPECT_EQ(resumed.stats.attempted, plan.size() - 8);
  EXPECT_EQ(resumed.size(), plan.size());

  // Identical to an uninterrupted collection.
  const auto full = collect_corpus(plan);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed.records[i].seed, full.records[i].seed);
    EXPECT_DOUBLE_EQ(
        resumed.records[i].time(0, Precision::kDouble, Format::kHyb),
        full.records[i].time(0, Precision::kDouble, Format::kHyb));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedPlanIgnoresCheckpoint) {
  const auto plan_a = make_small_plan(8, 1);
  const auto plan_b = make_small_plan(8, 2);  // same size, different content
  const auto path = testing::TempDir() + "/spmvml_checkpoint_mismatch.csv";
  std::remove(path.c_str());

  CollectOptions opts;
  opts.checkpoint_path = path;
  collect_corpus(plan_a, opts);

  const auto corpus_b = collect_corpus(plan_b, opts);
  EXPECT_EQ(corpus_b.stats.resumed_records, 0u);
  EXPECT_EQ(corpus_b.stats.attempted, plan_b.size());
  EXPECT_EQ(corpus_b.records[0].seed, plan_b.specs[0].seed);
  std::remove(path.c_str());
}

TEST(Checkpoint, PlanFingerprintSeparatesSameSizePlans) {
  EXPECT_NE(plan_fingerprint(make_small_plan(6, 77)),
            plan_fingerprint(make_small_plan(6, 78)));
  EXPECT_EQ(plan_fingerprint(make_small_plan(6, 77)),
            plan_fingerprint(make_small_plan(6, 77)));
}

// Checkpoint / resume under largest-first parallel dispatch: entries finish
// out of plan order, so a checkpoint is the set of finished records and
// resume matches its rows to plan entries by seed.

/// Transient faults retried in place (no backoff): a worker keeps its
/// matrix until it finishes, so at most `threads` entries are in flight
/// and a kill leaves the largest-first tail of the plan never started.
CollectOptions retrying_options(int threads) {
  CollectOptions opts;
  opts.faults.enabled = true;
  opts.faults.transient_rate = 0.2;
  opts.threads = threads;
  return opts;
}

/// True when the checkpoint's records are plan entries 0..k-1, the only
/// shape a checkpoint had before dispatch went largest-first.
bool is_plan_prefix(const CorpusPlan& plan, const LabeledCorpus& records) {
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records.records[i].seed != plan.specs[i].seed) return false;
  return true;
}

std::string corpus_text(const LabeledCorpus& corpus, const CorpusPlan& plan,
                        const std::string& path) {
  save_corpus_csv(path, corpus, plan.size(), plan_fingerprint(plan),
                  plan.size());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

/// Run `plan` until `kill_at` entries are done, then throw; the collector
/// leaves a checkpoint at `path`. Returns its records.
LabeledCorpus kill_run(const CorpusPlan& plan, CollectOptions opts,
                       const std::string& path, std::size_t kill_at) {
  opts.checkpoint_path = path;
  opts.checkpoint_every = 3;
  opts.progress = [kill_at](std::size_t done, std::size_t) {
    if (done >= kill_at) throw AbortCollection{};
  };
  EXPECT_THROW(collect_corpus(plan, opts), AbortCollection);
  EXPECT_TRUE(std::filesystem::exists(path));
  LabeledCorpus recorded = load_corpus_csv(path);
  EXPECT_LT(recorded.size(), plan.size()) << "the kill left nothing to resume";
  return recorded;
}

/// Resume from the checkpoint at `path` with `opts` and check the result
/// against an uninterrupted run: byte-identical, and nothing recorded in
/// the checkpoint measured again.
void expect_resume_matches(const CorpusPlan& plan, const CollectOptions& opts,
                           const std::string& path, std::size_t recorded) {
  ASSERT_GT(recorded, 0u);
  CollectOptions resume = opts;
  resume.checkpoint_path = path;
  const LabeledCorpus resumed = collect_corpus(plan, resume);
  std::remove(path.c_str());
  EXPECT_EQ(resumed.stats.resumed_records, recorded);
  // Nothing is dropped on these plans, so every entry is either restored
  // or attempted, never both.
  EXPECT_EQ(resumed.stats.attempted, plan.size() - recorded);
  CollectOptions fresh = opts;
  fresh.threads = 1;
  const LabeledCorpus full = collect_corpus(plan, fresh);
  EXPECT_EQ(full.stats.kept, plan.size());
  EXPECT_EQ(corpus_text(resumed, plan, path), corpus_text(full, plan, path));
}

TEST(Checkpoint, ParallelKillThenResumeRemeasuresNoRecordedEntry) {
  const auto plan = make_small_plan(14, 4711);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_set.csv";
  std::remove(path.c_str());
  const CollectOptions opts = retrying_options(4);
  // At most 8 + 3 entries start before the kill, so the one dispatched
  // last (a low plan index) never runs and the set is not a prefix.
  ASSERT_LT(largest_first(plan).back(), 8u);
  const LabeledCorpus recorded = kill_run(plan, opts, path, 8);
  EXPECT_GE(recorded.size(), 8u);
  EXPECT_FALSE(is_plan_prefix(plan, recorded));
  expect_resume_matches(plan, opts, path, recorded.size());
}

TEST(Checkpoint, SerialCheckpointResumesInParallel) {
  const auto plan = make_small_plan(12, 4712);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_s2p.csv";
  std::remove(path.c_str());
  const LabeledCorpus recorded =
      kill_run(plan, retrying_options(1), path, 7);
  EXPECT_EQ(recorded.size(), 6u);  // the serial checkpoint at 6 of 12
  EXPECT_TRUE(is_plan_prefix(plan, recorded));
  expect_resume_matches(plan, retrying_options(4), path, recorded.size());
}

TEST(Checkpoint, ParallelCheckpointResumesSerially) {
  const auto plan = make_small_plan(12, 4716);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_p2s.csv";
  std::remove(path.c_str());
  ASSERT_LT(largest_first(plan).back(), 5u);  // as above: never started
  const LabeledCorpus recorded =
      kill_run(plan, retrying_options(4), path, 5);
  EXPECT_FALSE(is_plan_prefix(plan, recorded));
  expect_resume_matches(plan, retrying_options(1), path, recorded.size());
}

TEST(Checkpoint, OutOfOrderRecordSetResumes) {
  // A checkpoint is a set: rows in any order, with gaps, restore the
  // entries whose seeds they carry.
  const auto plan = make_small_plan(9, 4714);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_gaps.csv";
  const LabeledCorpus full = collect_corpus(plan);
  LabeledCorpus partial;
  for (std::size_t i : {7u, 2u, 4u}) partial.records.push_back(full.records[i]);
  save_corpus_csv(path, partial, plan.size(), plan_fingerprint(plan), 3);
  expect_resume_matches(plan, CollectOptions{}, path, 3);
}

TEST(Checkpoint, UnmatchedOrDuplicateSeedMakesCheckpointStale) {
  const auto plan = make_small_plan(8, 4715);
  const auto path = testing::TempDir() + "/spmvml_checkpoint_stale.csv";
  const LabeledCorpus full = collect_corpus(plan);
  for (int variant = 0; variant < 2; ++variant) {
    LabeledCorpus partial;
    partial.records = {full.records[0], full.records[3]};
    if (variant == 0)
      partial.records[1].seed ^= 0x1;  // a seed no plan entry carries
    else
      partial.records[1] = partial.records[0];  // one entry claimed twice
    save_corpus_csv(path, partial, plan.size(), plan_fingerprint(plan), 2);
    CollectOptions resume;
    resume.checkpoint_path = path;
    const LabeledCorpus resumed = collect_corpus(plan, resume);
    EXPECT_EQ(resumed.stats.resumed_records, 0u) << "variant " << variant;
    EXPECT_EQ(resumed.stats.attempted, plan.size()) << "variant " << variant;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Feasibility-aware serving.

TEST(Feasibility, MemoryPredicateRejectsEllOnSkewedMatrix) {
  const auto m = generate(ell_hostile_spec());
  const auto s = summarize(m);
  const auto feasible =
      make_memory_feasibility(s, Precision::kDouble, 50'000'000);
  EXPECT_FALSE(feasible(Format::kEll));
  EXPECT_TRUE(feasible(Format::kCsr));
}

TEST(Feasibility, SelectorFallsBackToFeasibleFormat) {
  // A classifier that always predicts ELL (trained on single-class data).
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(static_cast<int>(Format::kEll));
  }
  selector.fit(x, labels);

  const auto matrix = generate(ell_hostile_spec());
  const auto s = summarize(matrix);
  ASSERT_EQ(selector.select(matrix), Format::kEll);

  const std::int64_t budget = 50'000'000;
  const auto feasible = make_memory_feasibility(s, Precision::kDouble, budget);
  const Selection sel = selector.select_feasible(matrix, feasible);
  EXPECT_EQ(sel.predicted, Format::kEll);
  EXPECT_TRUE(sel.fallback);
  EXPECT_NE(sel.format, Format::kEll);
  // The contract --mem-budget relies on: the served format always fits.
  EXPECT_LE(format_device_bytes(s, sel.format, Precision::kDouble),
            static_cast<double>(budget));
}

TEST(Feasibility, NoFallbackWhenPredictionFits) {
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(static_cast<int>(Format::kCsr));
  }
  selector.fit(x, labels);
  const auto matrix = generate(make_small_plan(1, 3).specs[0]);
  const auto s = summarize(matrix);
  const Selection sel = selector.select_feasible(
      matrix, make_memory_feasibility(s, Precision::kDouble,
                                      tesla_k40c().mem_bytes));
  EXPECT_FALSE(sel.fallback);
  EXPECT_EQ(sel.format, sel.predicted);
}

TEST(Feasibility, CsrIsTheFloorWhenNothingFits) {
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(static_cast<int>(Format::kEll));
  }
  selector.fit(x, labels);
  const auto matrix = generate(make_small_plan(1, 3).specs[0]);
  const Selection sel =
      selector.select_feasible(matrix, [](Format) { return false; });
  EXPECT_TRUE(sel.fallback);
  EXPECT_EQ(sel.format, Format::kCsr);
}

TEST(Feasibility, ThrowsInfeasibleWhenCsrNotACandidate) {
  const std::array<Format, 2> candidates = {Format::kEll, Format::kHyb};
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          candidates, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    x.push_back({static_cast<double>(i), 1.0, 2.0, 3.0, 4.0});
    labels.push_back(0);
  }
  selector.fit(x, labels);
  const auto matrix = generate(make_small_plan(1, 3).specs[0]);
  try {
    selector.select_feasible(matrix, [](Format) { return false; });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInfeasibleFormat);
  }
}

TEST(Feasibility, IndirectSelectorPicksBestFeasibleByPredictedTime) {
  const auto corpus = collect_corpus(make_small_plan(40, 808));
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                  kAllFormats, /*fast=*/true);
  model.fit(corpus, 0, Precision::kDouble);
  IndirectSelector selector(std::move(model));

  const auto matrix = generate(ell_hostile_spec());
  const auto features = extract_features(matrix);
  const auto s = summarize(matrix);
  const std::int64_t budget = 50'000'000;
  const auto sel = selector.select_feasible(
      features, make_memory_feasibility(s, Precision::kDouble, budget));
  EXPECT_LE(format_device_bytes(s, sel.format, Precision::kDouble),
            static_cast<double>(budget));
  // Among feasible formats, nothing has a smaller predicted time.
  const auto predicted = selector.model().predict_all(features);
  const auto formats = selector.model().formats();
  for (std::size_t i = 0; i < formats.size(); ++i) {
    if (format_device_bytes(s, formats[i], Precision::kDouble) >
        static_cast<double>(budget))
      continue;
    EXPECT_GE(predicted[i] + 1e-15,
              selector.model().predict_seconds(features, sel.format));
  }
}

// ---------------------------------------------------------------------------
// Corrupt model streams: no crash, no hang, a clean spmvml::Error.

FormatSelector trained_selector() {
  FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                          kAllFormats, /*fast=*/true);
  ml::Matrix x;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    x.push_back({static_cast<double>(i % 7), static_cast<double>(i % 3), 1.0,
                 2.0, 3.0});
    labels.push_back(i % 3);
  }
  selector.fit(x, labels);
  return selector;
}

PerfModel trained_perf_model() {
  const auto corpus = collect_corpus(make_small_plan(12, 66));
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kAllFormats, /*fast=*/true);
  model.fit(corpus, 0, Precision::kDouble);
  return model;
}

void expect_model_format_error(const std::string& payload, bool selector) {
  std::istringstream in(payload);
  try {
    if (selector)
      FormatSelector::load_selector(in);
    else
      PerfModel::load_model(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelFormat) << e.what();
  }
}

TEST(CorruptModels, TruncatedSelectorStreamsThrowCleanly) {
  std::ostringstream out;
  trained_selector().save(out);
  const std::string full = out.str();
  for (const double frac : {0.0, 0.1, 0.5, 0.9})
    expect_model_format_error(
        full.substr(0, static_cast<std::size_t>(frac *
                                                static_cast<double>(full.size()))),
        /*selector=*/true);
}

TEST(CorruptModels, MangledTagRejected) {
  std::ostringstream out;
  trained_selector().save(out);
  std::string payload = out.str();
  payload.replace(payload.find("format_selector"), 15, "format_sZlector");
  expect_model_format_error(payload, /*selector=*/true);
}

TEST(CorruptModels, AbsurdVectorSizeRejected) {
  // Kind + feature set are plausible; the candidate vector claims 10^12
  // entries. The absurd-size guard must fire instead of allocating.
  expect_model_format_error("format_selector\n0\n0\n1000000000000 1 2\n",
                            /*selector=*/true);
}

TEST(CorruptModels, TruncatedPerfModelStreamsThrowCleanly) {
  std::ostringstream out;
  trained_perf_model().save(out);
  const std::string full = out.str();
  for (const double frac : {0.0, 0.2, 0.6, 0.95})
    expect_model_format_error(
        full.substr(0, static_cast<std::size_t>(frac *
                                                static_cast<double>(full.size()))),
        /*selector=*/false);
}

TEST(CorruptModels, PerfModelMangledTagRejected) {
  std::ostringstream out;
  trained_perf_model().save(out);
  std::string payload = out.str();
  payload.replace(payload.find("perf_model"), 10, "pref_model");
  expect_model_format_error(payload, /*selector=*/false);
}

TEST(CorruptModels, WrongKindValueRejected) {
  std::istringstream in("format_selector\n99\n0\n6 0 1 2 3 4 5\n");
  EXPECT_THROW(FormatSelector::load_selector(in), Error);
}

}  // namespace
}  // namespace spmvml
