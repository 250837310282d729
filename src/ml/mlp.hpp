// Multi-layer perceptron (§II-B.3) and MLP ensembles (§VI).
//
// Architecture follows §IV-D: three hidden layers of 96/48/16 ReLU units,
// mini-batches of 16, trained with Adam. Classification uses softmax
// cross-entropy; regression a linear head on MSE with internally
// standardised targets. Inputs are standardised internally.
// The ensemble (§VI-A) averages the predictions of independently
// initialised members — the paper's "MLP ensemble regressor".
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.hpp"
#include "ml/model.hpp"

namespace spmvml::ml {

struct MlpParams {
  std::vector<int> hidden = {96, 48, 16};
  int epochs = 60;
  int batch_size = 16;
  double learning_rate = 1e-3;
  double weight_decay = 1e-5;
  std::uint64_t seed = 13;
};

namespace detail {

struct MlpLayer {
  int in = 0, out = 0;
  std::vector<double> w;  // out x in, row-major
  std::vector<double> b;
  // Adam moments.
  std::vector<double> mw, vw, mb, vb;
};

/// Reusable per-layer activation buffers for forward_batch. Passing the
/// same scratch across calls eliminates every per-sample allocation in
/// the training and batch-inference hot paths.
struct MlpBatchScratch {
  std::vector<std::vector<double>> act;  // act[l]: rows x layers[l].out
};

/// Dense feed-forward core shared by the classifier/regressor wrappers.
/// Training (backprop + Adam) lives in mlp.cpp.
class MlpNet {
 public:
  /// Build layers for `in` inputs and `out` raw outputs.
  void init(int in, int out, const MlpParams& p);

  /// Forward pass; returns raw output activations (no softmax).
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Forward `rows` samples stored contiguously row-major in `x`
  /// (rows x in). Returns a pointer to the rows x out raw outputs, owned
  /// by `scratch` and valid until its next use. The GEMMs run on `pool`.
  /// Deterministic: results are bitwise identical to per-sample forward()
  /// for any thread count.
  const double* forward_batch(const double* x, int rows,
                              MlpBatchScratch& scratch,
                              ThreadPool& pool = ThreadPool::current()) const;

  std::vector<MlpLayer>& layers() { return layers_; }
  const std::vector<MlpLayer>& layers() const { return layers_; }
  const MlpParams& params() const { return params_; }
  std::int64_t& step() { return step_; }

  /// Weights/biases only (Adam moments are training state, not saved).
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  std::vector<MlpLayer> layers_;
  MlpParams params_;
  std::int64_t step_ = 0;
};

/// Run `epochs` of minibatch Adam. `grad_out(i, raw, grad)` must fill
/// `grad` with dLoss/draw for sample i given raw outputs `raw`, and
/// return the sample's loss. The loss feeds the per-epoch observability
/// series (ml.mlp.epoch_loss / epoch spans) only — it never influences
/// the optimisation, so training results are unchanged by logging state.
void train_mlp(
    MlpNet& net, const Matrix& x,
    const std::function<double(std::size_t, const std::vector<double>&,
                               std::vector<double>&)>& grad_out);

}  // namespace detail

class MlpClassifier final : public Classifier {
 public:
  explicit MlpClassifier(MlpParams params = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;
  int predict(const std::vector<double>& row) const override;
  std::vector<double> predict_proba(
      const std::vector<double>& row) const override;

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  MlpParams params_;
  int num_classes_ = 0;
  StandardScaler scaler_;
  detail::MlpNet net_;
};

class MlpRegressor final : public Regressor {
 public:
  explicit MlpRegressor(MlpParams params = {});

  void fit(const Matrix& x, const std::vector<double>& y) override;
  double predict(const std::vector<double>& row) const override;

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  MlpParams params_;
  StandardScaler scaler_;
  double y_mean_ = 0.0, y_std_ = 1.0;
  detail::MlpNet net_;
};

/// Averages `n_members` MLP classifiers with different seeds.
class MlpEnsembleClassifier final : public Classifier {
 public:
  explicit MlpEnsembleClassifier(MlpParams params = {}, int n_members = 5);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  int predict(const std::vector<double>& row) const override;
  std::vector<double> predict_proba(
      const std::vector<double>& row) const override;

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  MlpParams params_;
  int n_members_;
  std::vector<MlpClassifier> members_;
};

/// Averages `n_members` MLP regressors — the paper's ensemble regressor.
class MlpEnsembleRegressor final : public Regressor {
 public:
  explicit MlpEnsembleRegressor(MlpParams params = {}, int n_members = 5);

  void fit(const Matrix& x, const std::vector<double>& y) override;
  double predict(const std::vector<double>& row) const override;

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  MlpParams params_;
  int n_members_;
  std::vector<MlpRegressor> members_;
};

}  // namespace spmvml::ml
