// MLP tests: classification/regression convergence, target standardisation,
// ensemble averaging, seed determinism, batched == per-sample forward.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "thread_counts.hpp"

namespace spmvml::ml {
namespace {

MlpParams small_net() {
  MlpParams p;
  p.hidden = {16, 8};
  p.epochs = 60;
  return p;
}

TEST(Mlp, ClassifiesBlobs) {
  Matrix x;
  std::vector<int> y;
  Rng rng(1);
  const double cx[3] = {0.0, 4.0, 2.0};
  const double cy[3] = {0.0, 0.0, 3.5};
  for (int i = 0; i < 450; ++i) {
    const int k = i % 3;
    x.push_back({cx[k] + rng.normal(0.0, 0.6), cy[k] + rng.normal(0.0, 0.6)});
    y.push_back(k);
  }
  MlpClassifier mlp(small_net());
  mlp.fit(x, y);
  EXPECT_GT(accuracy(y, mlp.predict_batch(x)), 0.93);
}

TEST(Mlp, SolvesXor) {
  Matrix x;
  std::vector<int> y;
  Rng rng(2);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    x.push_back({a, b});
    y.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  auto p = small_net();
  p.epochs = 150;
  MlpClassifier mlp(p);
  mlp.fit(x, y);
  EXPECT_GT(accuracy(y, mlp.predict_batch(x)), 0.9);
}

TEST(Mlp, ProbabilitiesSumToOne) {
  Matrix x = {{0.0}, {1.0}, {2.0}, {3.0}};
  std::vector<int> y = {0, 0, 1, 1};
  auto p = small_net();
  p.epochs = 20;
  MlpClassifier mlp(p);
  mlp.fit(x, y);
  const auto probs = mlp.predict_proba({1.5});
  double sum = 0.0;
  for (double v : probs) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, DeterministicForSeed) {
  Matrix x;
  std::vector<int> y;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(i % 2);
  }
  auto p = small_net();
  p.epochs = 10;
  MlpClassifier a(p), b(p);
  a.fit(x, y);
  b.fit(x, y);
  for (const auto& row : x) {
    const auto pa = a.predict_proba(row), pb = b.predict_proba(row);
    for (std::size_t k = 0; k < pa.size(); ++k)
      EXPECT_DOUBLE_EQ(pa[k], pb[k]);
  }
}

TEST(MlpRegressor, FitsLinearMap) {
  Matrix x;
  std::vector<double> y;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-1.0, 1.0), b = rng.uniform(-1.0, 1.0);
    x.push_back({a, b});
    y.push_back(2.0 * a - b + 0.5);
  }
  auto p = small_net();
  p.epochs = 120;
  MlpRegressor mlp(p);
  mlp.fit(x, y);
  double max_err = 0.0;
  for (std::size_t i = 0; i < 50; ++i)
    max_err = std::max(max_err, std::abs(mlp.predict(x[i]) - y[i]));
  EXPECT_LT(max_err, 0.25);
}

TEST(MlpRegressor, HandlesLargeTargetScaleViaStandardisation) {
  // Targets around 1e6: without internal y-standardisation the net could
  // not move its output there in a few dozen Adam steps.
  Matrix x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x.push_back({v});
    y.push_back(1e6 + 1e5 * v);
  }
  auto p = small_net();
  p.epochs = 100;
  MlpRegressor mlp(p);
  mlp.fit(x, y);
  EXPECT_NEAR(mlp.predict({0.5}), 1.05e6, 2e4);
}

TEST(MlpEnsembleClassifier, AtLeastAsGoodAsTypicalMember) {
  Matrix x;
  std::vector<int> y;
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    const int k = i % 2;
    x.push_back({(k == 0 ? -1.0 : 1.0) + rng.normal(0.0, 0.9)});
    y.push_back(k);
  }
  auto p = small_net();
  p.epochs = 30;
  MlpEnsembleClassifier ens(p, 5);
  ens.fit(x, y);
  MlpClassifier single(p);
  single.fit(x, y);
  EXPECT_GE(accuracy(y, ens.predict_batch(x)) + 0.03, accuracy(y, single.predict_batch(x)));
}

TEST(MlpEnsembleRegressor, AveragesMembers) {
  Matrix x;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x.push_back({v});
    y.push_back(std::sin(6.0 * v));
  }
  auto p = small_net();
  p.epochs = 60;
  MlpEnsembleRegressor ens(p, 3);
  ens.fit(x, y);
  double sse_ens = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = ens.predict(x[i]) - y[i];
    sse_ens += e * e;
  }
  EXPECT_LT(std::sqrt(sse_ens / static_cast<double>(x.size())), 0.3);
}

TEST(MlpEnsemble, RejectsZeroMembers) {
  EXPECT_THROW(MlpEnsembleRegressor(MlpParams{}, 0), Error);
}

TEST(Mlp, BatchedForwardMatchesPerSampleBitwise) {
  // Serving and training run the batched forward pass; one-shot predict
  // runs forward(). Both must give the same bytes for every row, whatever
  // the batch size and wherever a row sits in its batch — including the
  // short last batch when the batch size does not divide the rows.
  constexpr int kRows = 500, kIn = 17, kOut = 6;
  detail::MlpNet net;
  net.init(kIn, kOut, MlpParams{});
  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(kRows) * kIn);
  for (double& v : x) v = rng.normal();

  std::vector<std::vector<double>> expect;
  for (int r = 0; r < kRows; ++r)
    expect.push_back(net.forward(
        std::vector<double>(x.begin() + r * kIn, x.begin() + (r + 1) * kIn)));

  detail::MlpBatchScratch scratch;  // reused across batch sizes on purpose
  at_each_thread_count([&](ThreadPool& pool, int threads) {
    for (const int batch : {1, 3, 64, 256, kRows}) {
      for (int begin = 0; begin < kRows; begin += batch) {
        const int rows = std::min(batch, kRows - begin);
        const double* out =
            net.forward_batch(x.data() + begin * kIn, rows, scratch, pool);
        for (int r = 0; r < rows; ++r)
          ASSERT_EQ(
              std::memcmp(out + r * kOut,
                          expect[static_cast<std::size_t>(begin + r)].data(),
                          kOut * sizeof(double)),
              0)
              << "batch " << batch << ", row " << begin + r << ", threads "
              << threads;
      }
    }
  });
}

TEST(Mlp, RejectsEmptyTrainingData) {
  MlpClassifier mlp;
  EXPECT_THROW(mlp.fit({}, {}), Error);
}

}  // namespace
}  // namespace spmvml::ml
