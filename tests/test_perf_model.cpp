// Performance model + indirect classification tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/indirect.hpp"
#include "core/perf_model.hpp"
#include "ml/metrics.hpp"

namespace spmvml {
namespace {

const LabeledCorpus& shared_corpus() {
  static const LabeledCorpus corpus = collect_corpus(make_small_plan(50, 808));
  return corpus;
}

TEST(PerfModel, PredictsPositiveSeconds) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  for (const auto& rec : shared_corpus().records) {
    for (Format f : kAllFormats)
      EXPECT_GT(model.predict_seconds(rec.features, f), 0.0);
  }
}

TEST(PerfModel, InSampleRmeIsSmallForTrees) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet123,
                  kAllFormats, true);
  model.fit(shared_corpus(), 1, Precision::kDouble);
  std::vector<double> measured, predicted;
  for (const auto& rec : shared_corpus().records) {
    measured.push_back(rec.time(1, Precision::kDouble, Format::kCsr));
    predicted.push_back(model.predict_seconds(rec.features, Format::kCsr));
  }
  EXPECT_LT(ml::relative_mean_error(measured, predicted), 0.25);
}

TEST(PerfModel, PredictAllMatchesPerFormatCalls) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kSingle);
  const auto& rec = shared_corpus().records[3];
  const auto all = model.predict_all(rec.features);
  ASSERT_EQ(all.size(), kAllFormats.size());
  for (std::size_t i = 0; i < kAllFormats.size(); ++i)
    EXPECT_DOUBLE_EQ(all[i], model.predict_seconds(rec.features,
                                                   kAllFormats[i]));
}

TEST(PerfModel, UnmodeledFormatThrows) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                  kBasicFormats, true);
  model.fit(shared_corpus(), 0, Precision::kSingle);
  EXPECT_THROW(model.predict_seconds(shared_corpus().records[0].features,
                                     Format::kCoo),
               Error);
}

TEST(JointPerfModel, PredictsPerFormatDifferences) {
  JointPerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet12,
                       kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  const auto& rec = shared_corpus().records[1];
  // Predictions must at least vary across formats for a skewed matrix.
  double lo = 1e300, hi = 0.0;
  for (Format f : kAllFormats) {
    const double t = model.predict_seconds(rec.features, f);
    EXPECT_GT(t, 0.0);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_GT(hi / lo, 1.0);
}

TEST(IndirectSelector, SelectsModeledFormat) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet123,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  IndirectSelector sel(std::move(model));
  const Format f = sel.select(shared_corpus().records[0].features);
  EXPECT_NE(std::find(kAllFormats.begin(), kAllFormats.end(), f),
            kAllFormats.end());
}

TEST(IndirectSelector, InfeasiblePickFallsToNextBestPredicted) {
  PerfModel model(RegressorKind::kDecisionTree, FeatureSet::kSet123,
                  kAllFormats, true);
  model.fit(shared_corpus(), 0, Precision::kDouble);
  IndirectSelector sel(std::move(model));
  for (const auto& rec : shared_corpus().records) {
    const Format unconstrained = sel.select(rec.features);
    const Selection open =
        sel.select_feasible(rec.features, [](Format) { return true; });
    EXPECT_EQ(open.format, unconstrained);
    EXPECT_EQ(open.predicted, unconstrained);
    EXPECT_FALSE(open.fallback);

    // Forbid the model's pick: the next-fastest predicted format wins.
    const Selection s = sel.select_feasible(
        rec.features, [&](Format f) { return f != unconstrained; });
    EXPECT_EQ(s.predicted, unconstrained);
    EXPECT_NE(s.format, unconstrained);
    EXPECT_TRUE(s.fallback);
    const auto predicted = sel.model().predict_all(rec.features);
    const auto formats = sel.model().formats();
    const auto at = std::find(formats.begin(), formats.end(), s.format);
    ASSERT_NE(at, formats.end());
    const double chosen =
        predicted[static_cast<std::size_t>(at - formats.begin())];
    for (std::size_t i = 0; i < formats.size(); ++i) {
      if (formats[i] == unconstrained) continue;
      EXPECT_LE(chosen, predicted[i]);
    }
  }
}

TEST(IndirectSelector, NothingFeasibleFallsBackToCsrOrThrows) {
  const auto& features = shared_corpus().records[0].features;
  const auto none = [](Format) { return false; };
  PerfModel with_csr(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                     kAllFormats, true);
  with_csr.fit(shared_corpus(), 0, Precision::kDouble);
  const IndirectSelector sel(std::move(with_csr));
  const Selection s = sel.select_feasible(features, none);
  EXPECT_EQ(s.format, Format::kCsr);
  EXPECT_EQ(s.predicted, sel.select(features));
  EXPECT_TRUE(s.fallback);
  EXPECT_THROW(sel.select_feasible(features, FeasibilityFn{}), Error);

  // Without CSR among the modeled formats there is no floor to fall to.
  const std::vector<Format> no_csr = {Format::kEll, Format::kHyb};
  PerfModel without_csr(RegressorKind::kDecisionTree, FeatureSet::kSet1,
                        no_csr, true);
  without_csr.fit(shared_corpus(), 0, Precision::kDouble);
  const IndirectSelector bare(std::move(without_csr));
  try {
    bare.select_feasible(features, none);
    ADD_FAILURE() << "expected Error(kInfeasibleFormat)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInfeasibleFormat);
  }
}

TEST(PerfModel, MlpRegressorsPredictFiniteSeconds) {
  // The paper's MLP and MLP-ensemble regressors (§VI), in fast mode.
  EXPECT_STRNE(regressor_name(RegressorKind::kMlp),
               regressor_name(RegressorKind::kMlpEnsemble));
  for (const RegressorKind kind :
       {RegressorKind::kMlp, RegressorKind::kMlpEnsemble}) {
    PerfModel model(kind, FeatureSet::kSet12, kBasicFormats, true);
    model.fit(shared_corpus(), 0, Precision::kDouble);
    for (const auto& rec : shared_corpus().records) {
      for (const double t : model.predict_all(rec.features)) {
        EXPECT_TRUE(std::isfinite(t)) << regressor_name(kind);
        EXPECT_GT(t, 0.0) << regressor_name(kind);
      }
    }
  }
}

TEST(ToleranceAccuracy, ExactAndTolerantScoring) {
  // Sample 0: chose best (10 vs 12). Sample 1: chose 10.4 vs best 10.
  const std::vector<std::vector<double>> times = {{10.0, 12.0},
                                                  {10.4, 10.0}};
  const std::vector<int> chosen = {0, 0};
  EXPECT_DOUBLE_EQ(tolerance_accuracy(chosen, times, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(tolerance_accuracy(chosen, times, 0.05), 1.0);
}

TEST(ToleranceAccuracy, RejectsBadChoice) {
  EXPECT_THROW(tolerance_accuracy({5}, {{1.0, 2.0}}, 0.0), Error);
}

TEST(SelectionSlowdowns, RatiosAgainstBest) {
  const std::vector<std::vector<double>> times = {{10.0, 20.0},
                                                  {30.0, 10.0}};
  const auto s = selection_slowdowns({1, 1}, times);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
}

}  // namespace
}  // namespace spmvml
