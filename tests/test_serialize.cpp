// Serialization round-trip tests: every model family must predict
// identically after save -> load, and corrupt streams must be rejected.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/format_selector.hpp"
#include "core/perf_model.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"

namespace spmvml {
namespace {

void make_data(ml::Matrix& x, std::vector<int>& labels,
               std::vector<double>& targets, int n = 200) {
  Rng rng(42);
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    x.push_back({a, b});
    labels.push_back(a + b > 1.0 ? 1 : (a > 0.7 ? 2 : 0));
    targets.push_back(3.0 * a - b);
  }
}

template <typename Model>
void expect_same_classifier(const Model& original, Model& restored,
                            const ml::Matrix& x) {
  for (const auto& row : x) {
    EXPECT_EQ(original.predict(row), restored.predict(row));
    const auto pa = original.predict_proba(row);
    const auto pb = restored.predict_proba(row);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k)
      EXPECT_DOUBLE_EQ(pa[k], pb[k]);
  }
}

TEST(Serialize, DecisionTreeClassifierRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::DecisionTreeClassifier model;
  model.fit(x, labels);
  std::stringstream s;
  model.save(s);
  ml::DecisionTreeClassifier restored;
  restored.load(s);
  expect_same_classifier(model, restored, x);
}

TEST(Serialize, DecisionTreeRegressorRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::DecisionTreeRegressor model;
  model.fit(x, targets);
  std::stringstream s;
  model.save(s);
  ml::DecisionTreeRegressor restored;
  restored.load(s);
  for (const auto& row : x)
    EXPECT_DOUBLE_EQ(model.predict(row), restored.predict(row));
}

TEST(Serialize, GbtClassifierRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::GbtParams p;
  p.n_estimators = 15;
  ml::GbtClassifier model(p);
  model.fit(x, labels);
  std::stringstream s;
  model.save(s);
  ml::GbtClassifier restored;
  restored.load(s);
  expect_same_classifier(model, restored, x);
  // Importance survives the round trip.
  EXPECT_EQ(model.feature_importance_weight(),
            restored.feature_importance_weight());
}

TEST(Serialize, GbtRegressorRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::GbtParams p;
  p.n_estimators = 20;
  ml::GbtRegressor model(p);
  model.fit(x, targets);
  std::stringstream s;
  model.save(s);
  ml::GbtRegressor restored;
  restored.load(s);
  for (const auto& row : x)
    EXPECT_DOUBLE_EQ(model.predict(row), restored.predict(row));
}

TEST(Serialize, SvmRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::SvmClassifier model;
  model.fit(x, labels);
  std::stringstream s;
  model.save(s);
  ml::SvmClassifier restored;
  restored.load(s);
  expect_same_classifier(model, restored, x);
}

TEST(Serialize, MlpClassifierRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::MlpParams p;
  p.hidden = {8, 4};
  p.epochs = 5;
  ml::MlpClassifier model(p);
  model.fit(x, labels);
  std::stringstream s;
  model.save(s);
  ml::MlpClassifier restored(p);
  restored.load(s);
  expect_same_classifier(model, restored, x);
}

TEST(Serialize, MlpEnsembleRegressorRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::MlpParams p;
  p.hidden = {8};
  p.epochs = 5;
  ml::MlpEnsembleRegressor model(p, 3);
  model.fit(x, targets);
  std::stringstream s;
  model.save(s);
  ml::MlpEnsembleRegressor restored(p, 3);
  restored.load(s);
  for (const auto& row : x)
    EXPECT_DOUBLE_EQ(model.predict(row), restored.predict(row));
}

TEST(Serialize, MlpEnsembleClassifierRoundTrip) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets);
  ml::MlpParams p;
  p.hidden = {8};
  p.epochs = 5;
  ml::MlpEnsembleClassifier model(p, 3);
  model.fit(x, labels);
  std::stringstream s;
  model.save(s);
  // The member count comes from the stream, not the constructor.
  ml::MlpEnsembleClassifier restored(p, 1);
  restored.load(s);
  expect_same_classifier(model, restored, x);
}

TEST(Serialize, MlpPerfModelRoundTrip) {
  const auto corpus = collect_corpus(make_small_plan(30, 77));
  for (const RegressorKind kind :
       {RegressorKind::kMlp, RegressorKind::kMlpEnsemble}) {
    PerfModel model(kind, FeatureSet::kSet12, kBasicFormats, /*fast=*/true);
    model.fit(corpus, 1, Precision::kSingle);
    std::stringstream s;
    model.save(s);
    const PerfModel restored = PerfModel::load_model(s);
    ASSERT_EQ(restored.formats().size(), kBasicFormats.size());
    for (const auto& rec : corpus.records)
      for (Format f : kBasicFormats)
        EXPECT_DOUBLE_EQ(model.predict_seconds(rec.features, f),
                         restored.predict_seconds(rec.features, f))
            << regressor_name(kind);
  }
}

TEST(Serialize, FormatSelectorRoundTrip) {
  const auto corpus = collect_corpus(make_small_plan(40, 99));
  FormatSelector selector(ModelKind::kXgboost, FeatureSet::kSet12,
                          kAllFormats, /*fast=*/true);
  selector.fit(corpus, 0, Precision::kDouble);

  std::stringstream s;
  selector.save(s);
  const FormatSelector restored = FormatSelector::load_selector(s);
  EXPECT_EQ(restored.feature_set(), FeatureSet::kSet12);
  ASSERT_EQ(restored.candidates().size(), kAllFormats.size());
  for (const auto& rec : corpus.records)
    EXPECT_EQ(selector.select(rec.features), restored.select(rec.features));
}

TEST(Serialize, PerfModelRoundTrip) {
  const auto corpus = collect_corpus(make_small_plan(30, 77));
  PerfModel model(RegressorKind::kXgboost, FeatureSet::kSet12, kAllFormats,
                  /*fast=*/true);
  model.fit(corpus, 1, Precision::kDouble);
  std::stringstream s;
  model.save(s);
  const PerfModel restored = PerfModel::load_model(s);
  for (const auto& rec : corpus.records)
    for (Format f : kAllFormats)
      EXPECT_DOUBLE_EQ(model.predict_seconds(rec.features, f),
                       restored.predict_seconds(rec.features, f));
}

TEST(Serialize, UnfittedPerfModelSaveThrows) {
  PerfModel model(RegressorKind::kXgboost, FeatureSet::kSet1, kAllFormats);
  std::stringstream s;
  EXPECT_THROW(model.save(s), Error);
}

TEST(Serialize, RejectsWrongTag) {
  std::stringstream s;
  s << "not_a_model 5\n";
  ml::DecisionTreeClassifier model;
  EXPECT_THROW(model.load(s), Error);
}

TEST(Serialize, RejectsTruncatedStream) {
  ml::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
  make_data(x, labels, targets, 50);
  ml::GbtParams p;
  p.n_estimators = 5;
  ml::GbtClassifier model(p);
  model.fit(x, labels);
  std::stringstream s;
  model.save(s);
  const std::string full = s.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  ml::GbtClassifier restored;
  EXPECT_THROW(restored.load(cut), Error);
}

TEST(Serialize, RejectsAbsurdSizes) {
  std::stringstream s;
  s << "scaler\n99999999999 1.0\n";
  ml::StandardScaler scaler;
  EXPECT_THROW(scaler.load(s), Error);
}

// --- Model-file envelope -------------------------------------------------

/// A fitted selector whose save() output the envelope tests mangle.
std::string saved_selector() {
  static const std::string bytes = [] {
    const auto corpus = collect_corpus(make_small_plan(20, 44));
    FormatSelector selector(ModelKind::kDecisionTree, FeatureSet::kSet1,
                            kAllFormats, /*fast=*/true);
    selector.fit(corpus, 0, Precision::kDouble);
    std::stringstream s;
    selector.save(s);
    return s.str();
  }();
  return bytes;
}

void expect_model_format_error(const std::string& bytes) {
  std::stringstream s(bytes);
  try {
    FormatSelector::load_selector(s);
    FAIL() << "expected Error(kModelFormat)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelFormat);
  }
}

TEST(Envelope, HeaderLeadsTheFile) {
  const std::string bytes = saved_selector();
  EXPECT_EQ(bytes.rfind("spmvml-model 1 format_selector ", 0), 0u);
  std::stringstream s(bytes);
  const FormatSelector restored = FormatSelector::load_selector(s);
  EXPECT_EQ(restored.candidates().size(), kAllFormats.size());
}

TEST(Envelope, ChecksumCatchesPayloadBitflip) {
  std::string bytes = saved_selector();
  // Flip one payload character well past the header line.
  const auto pos = bytes.find('\n') + 10;
  bytes[pos] = bytes[pos] == '0' ? '1' : '0';
  expect_model_format_error(bytes);
}

TEST(Envelope, RejectsTruncatedPayload) {
  const std::string bytes = saved_selector();
  expect_model_format_error(bytes.substr(0, bytes.size() - 7));
}

TEST(Envelope, RejectsForeignMagicAndVersion) {
  expect_model_format_error("random junk that is not a model\n");
  std::string bytes = saved_selector();
  // "spmvml-model 1 ..." -> claim format version 9.
  bytes[std::string("spmvml-model ").size()] = '9';
  expect_model_format_error(bytes);
}

TEST(Envelope, RejectsKindMismatch) {
  // A selector file is not a perf model: the kind field catches the
  // cross-load before any payload parsing.
  std::stringstream s(saved_selector());
  try {
    PerfModel::load_model(s);
    FAIL() << "expected Error(kModelFormat)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelFormat);
    EXPECT_NE(std::string(e.what()).find("kind mismatch"), std::string::npos);
  }
}

}  // namespace
}  // namespace spmvml
