#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/gemm.hpp"
#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "ml/serialize.hpp"

namespace spmvml::ml {
namespace detail {

void MlpNet::init(int in, int out, const MlpParams& p) {
  SPMVML_ENSURE(in > 0 && out > 0, "bad layer sizes");
  params_ = p;
  step_ = 0;
  layers_.clear();
  Rng rng(hash_combine(p.seed, 0x31337ULL));
  std::vector<int> sizes = {in};
  sizes.insert(sizes.end(), p.hidden.begin(), p.hidden.end());
  sizes.push_back(out);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    MlpLayer layer;
    layer.in = sizes[l];
    layer.out = sizes[l + 1];
    const auto n = static_cast<std::size_t>(layer.in) *
                   static_cast<std::size_t>(layer.out);
    layer.w.resize(n);
    // He initialisation for ReLU layers.
    const double scale = std::sqrt(2.0 / layer.in);
    for (auto& w : layer.w) w = rng.normal(0.0, scale);
    layer.b.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.mw.assign(n, 0.0);
    layer.vw.assign(n, 0.0);
    layer.mb.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.vb.assign(static_cast<std::size_t>(layer.out), 0.0);
    layers_.push_back(std::move(layer));
  }
}

const double* MlpNet::forward_batch(const double* x, int rows,
                                    MlpBatchScratch& scratch,
                                    ThreadPool& pool) const {
  const std::size_t L = layers_.size();
  scratch.act.resize(L);
  const double* cur = x;
  for (std::size_t l = 0; l < L; ++l) {
    const auto& layer = layers_[l];
    auto& out = scratch.act[l];
    out.resize(static_cast<std::size_t>(rows) *
               static_cast<std::size_t>(layer.out));
    gemm_nt(rows, layer.out, layer.in, cur, layer.w.data(), layer.b.data(),
            out.data(), pool);
    if (l + 1 < L)
      for (double& v : out) v = v > 0.0 ? v : 0.0;  // ReLU on hidden layers
    cur = out.data();
  }
  return cur;
}

std::vector<double> MlpNet::forward(const std::vector<double>& x) const {
  // Batch-of-one through the GEMM path; the thread-local scratch makes
  // repeated inference allocation-free after the first call per thread.
  thread_local MlpBatchScratch scratch;
  const double* out = forward_batch(x.data(), 1, scratch);
  return std::vector<double>(out, out + layers_.back().out);
}

namespace {

/// Adam step with decoupled weight decay on one parameter array.
void adam(std::vector<double>& w, std::vector<double>& m,
          std::vector<double>& v, const std::vector<double>& g,
          double lr, double decay, std::int64_t t) {
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  const double c1 = 1.0 - std::pow(b1, static_cast<double>(t));
  const double c2 = 1.0 - std::pow(b2, static_cast<double>(t));
  for (std::size_t i = 0; i < w.size(); ++i) {
    m[i] = b1 * m[i] + (1.0 - b1) * g[i];
    v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
    const double mhat = m[i] / c1;
    const double vhat = v[i] / c2;
    w[i] -= lr * (mhat / (std::sqrt(vhat) + eps) + decay * w[i]);
  }
}

}  // namespace

void train_mlp(
    MlpNet& net, const Matrix& x,
    const std::function<double(std::size_t, const std::vector<double>&,
                               std::vector<double>&)>& grad_out) {
  const MlpParams& p = net.params();
  auto& layers = net.layers();
  const std::size_t n = x.size();
  const std::size_t L = layers.size();
  const auto B = static_cast<std::size_t>(std::max(1, p.batch_size));
  const auto in0 = static_cast<std::size_t>(layers.front().in);
  const int out_dim = layers.back().out;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(hash_combine(p.seed, 0xbadC0deULL));

  // Contiguous row-major mini-batch buffers, allocated once and reused
  // for every batch of every epoch: packed inputs, post-activation
  // outputs per layer (via forward_batch), pre-activation deltas, and
  // gradient accumulators. The whole inner loop is GEMM-shaped —
  // per-sample work is only the tiny output-gradient callback.
  std::vector<double> xb(B * in0);
  MlpBatchScratch scratch;
  std::vector<std::vector<double>> delta(L);
  std::vector<std::vector<double>> gw(L), gb(L);
  for (std::size_t l = 0; l < L; ++l) {
    delta[l].resize(B * static_cast<std::size_t>(layers[l].out));
    gw[l].resize(layers[l].w.size());
    gb[l].resize(layers[l].b.size());
  }
  std::vector<double> raw(static_cast<std::size_t>(out_dim));
  std::vector<double> out_grad;

  // Per-epoch observability handles. Function-local statics keep the
  // name lookups off the training path entirely.
  static obs::Counter epochs_counter =
      obs::MetricsRegistry::global().counter("ml.mlp.epochs");
  static obs::Gauge loss_gauge =
      obs::MetricsRegistry::global().gauge("ml.mlp.epoch_loss");
  static obs::Histogram epoch_hist = obs::MetricsRegistry::global().histogram(
      "ml.mlp.epoch_s", obs::default_latency_bounds_s());

  for (int epoch = 0; epoch < p.epochs; ++epoch) {
    obs::TraceSpan epoch_span("mlp.epoch");
    epoch_span.arg("epoch", epoch);
    WallTimer epoch_timer;
    double epoch_loss = 0.0;

    // Fisher–Yates reshuffle each epoch.
    for (std::size_t i = n; i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

    for (std::size_t start = 0; start < n; start += B) {
      const std::size_t stop = std::min(n, start + B);
      const int bsz = static_cast<int>(stop - start);
      const double inv_batch = 1.0 / static_cast<double>(bsz);

      // Pack the shuffled batch rows into one contiguous block.
      for (std::size_t s = start; s < stop; ++s)
        std::copy(x[order[s]].begin(), x[order[s]].end(),
                  xb.begin() + (s - start) * in0);

      // Forward all samples at once; scratch.act[l] caches the
      // post-activation values backward needs.
      const double* top = net.forward_batch(xb.data(), bsz, scratch);

      // Output gradients, one callback per sample (output dims are tiny).
      auto& dtop = delta[L - 1];
      for (std::size_t s = start; s < stop; ++s) {
        const std::size_t row = (s - start) * static_cast<std::size_t>(out_dim);
        std::copy(top + row, top + row + out_dim, raw.begin());
        epoch_loss += grad_out(order[s], raw, out_grad);
        std::copy(out_grad.begin(), out_grad.end(), dtop.begin() + row);
      }

      // Backward: weight/bias gradients reduce over the batch; delta
      // propagation is one GEMM against the layer's weights followed by
      // the ReLU mask of the cached activations.
      for (std::size_t l = L; l-- > 0;) {
        const auto& layer = layers[l];
        const double* a_in = l == 0 ? xb.data() : scratch.act[l - 1].data();
        gemm_tn(layer.out, layer.in, bsz, delta[l].data(), a_in,
                gw[l].data());
        for (double& g : gw[l]) g *= inv_batch;
        for (int o = 0; o < layer.out; ++o) {
          double sum = 0.0;
          for (int s = 0; s < bsz; ++s)
            sum += delta[l][static_cast<std::size_t>(s) *
                                static_cast<std::size_t>(layer.out) +
                            static_cast<std::size_t>(o)];
          gb[l][static_cast<std::size_t>(o)] = sum * inv_batch;
        }
        if (l == 0) break;
        auto& prev = delta[l - 1];
        gemm_nn(bsz, layer.in, layer.out, delta[l].data(), layer.w.data(),
                prev.data());
        // ReLU derivative of the hidden activation.
        const auto& act_prev = scratch.act[l - 1];
        const std::size_t count =
            static_cast<std::size_t>(bsz) * static_cast<std::size_t>(layer.in);
        for (std::size_t i = 0; i < count; ++i)
          if (act_prev[i] <= 0.0) prev[i] = 0.0;
      }

      ++net.step();
      for (std::size_t l = 0; l < L; ++l) {
        adam(layers[l].w, layers[l].mw, layers[l].vw, gw[l], p.learning_rate,
             p.weight_decay, net.step());
        adam(layers[l].b, layers[l].mb, layers[l].vb, gb[l], p.learning_rate,
             0.0, net.step());
      }
    }

    const double mean_loss =
        n > 0 ? epoch_loss / static_cast<double>(n) : 0.0;
    epochs_counter.inc();
    loss_gauge.set(mean_loss);
    epoch_hist.observe(epoch_timer.seconds());
    epoch_span.arg("loss", mean_loss);
    obs::log_debug("mlp.epoch")
        .kv("epoch", epoch)
        .kv("loss", mean_loss)
        .kv("wall_s", epoch_timer.seconds());
  }
}

void MlpNet::save(std::ostream& out) const {
  io::write_tag(out, "mlpnet");
  io::write_scalar(out, layers_.size());
  for (const auto& l : layers_) {
    io::write_scalar(out, l.in);
    io::write_scalar(out, l.out);
    io::write_vector(out, l.w);
    io::write_vector(out, l.b);
  }
}

void MlpNet::load(std::istream& in) {
  io::read_tag(in, "mlpnet");
  const auto count = io::read_scalar<std::size_t>(in);
  SPMVML_ENSURE(count < 64, "model stream corrupt: layer count");
  layers_.assign(count, {});
  for (auto& l : layers_) {
    l.in = io::read_scalar<int>(in);
    l.out = io::read_scalar<int>(in);
    l.w = io::read_vector<double>(in);
    l.b = io::read_vector<double>(in);
    SPMVML_ENSURE(l.w.size() == static_cast<std::size_t>(l.in) *
                                     static_cast<std::size_t>(l.out) &&
                      l.b.size() == static_cast<std::size_t>(l.out),
                  "model stream corrupt: layer shapes");
    // Fresh (zero) Adam moments: the loaded net is inference-ready and
    // can also be fine-tuned from an optimizer cold start.
    l.mw.assign(l.w.size(), 0.0);
    l.vw.assign(l.w.size(), 0.0);
    l.mb.assign(l.b.size(), 0.0);
    l.vb.assign(l.b.size(), 0.0);
  }
  step_ = 0;
}

namespace {

/// Signed log compression (see svm.cpp): counts span decades; z-scores on
/// raw counts leave extreme outliers that blow up ReLU nets.
double mlp_slog(double v) {
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

ml::Matrix slog_all(const Matrix& x) {
  Matrix out = x;
  for (auto& row : out)
    for (auto& v : row) v = mlp_slog(v);
  return out;
}

std::vector<double> slog_row(const std::vector<double>& row) {
  std::vector<double> out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j) out[j] = mlp_slog(row[j]);
  return out;
}

}  // namespace

}  // namespace detail

void MlpClassifier::save(std::ostream& out) const {
  io::write_tag(out, "mlp_classifier");
  io::write_scalar(out, num_classes_);
  scaler_.save(out);
  net_.save(out);
}

void MlpClassifier::load(std::istream& in) {
  io::read_tag(in, "mlp_classifier");
  num_classes_ = io::read_scalar<int>(in);
  scaler_.load(in);
  net_.load(in);
}

void MlpRegressor::save(std::ostream& out) const {
  io::write_tag(out, "mlp_regressor");
  io::write_scalar(out, y_mean_);
  io::write_scalar(out, y_std_);
  scaler_.save(out);
  net_.save(out);
}

void MlpRegressor::load(std::istream& in) {
  io::read_tag(in, "mlp_regressor");
  y_mean_ = io::read_scalar<double>(in);
  y_std_ = io::read_scalar<double>(in);
  scaler_.load(in);
  net_.load(in);
}

void MlpEnsembleClassifier::save(std::ostream& out) const {
  io::write_tag(out, "mlp_ensemble_classifier");
  io::write_scalar(out, members_.size());
  for (const auto& m : members_) m.save(out);
}

void MlpEnsembleClassifier::load(std::istream& in) {
  io::read_tag(in, "mlp_ensemble_classifier");
  const auto count = io::read_scalar<std::size_t>(in);
  SPMVML_ENSURE(count >= 1 && count < 1024, "bad ensemble size");
  members_.assign(count, MlpClassifier(params_));
  for (auto& m : members_) m.load(in);
}

void MlpEnsembleRegressor::save(std::ostream& out) const {
  io::write_tag(out, "mlp_ensemble_regressor");
  io::write_scalar(out, members_.size());
  for (const auto& m : members_) m.save(out);
}

void MlpEnsembleRegressor::load(std::istream& in) {
  io::read_tag(in, "mlp_ensemble_regressor");
  const auto count = io::read_scalar<std::size_t>(in);
  SPMVML_ENSURE(count >= 1 && count < 1024, "bad ensemble size");
  members_.assign(count, MlpRegressor(params_));
  for (auto& m : members_) m.load(in);
}

MlpClassifier::MlpClassifier(MlpParams params) : params_(params) {}

void MlpClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  SPMVML_ENSURE(!x.empty() && x.size() == y.size(), "bad training data");
  num_classes_ = *std::max_element(y.begin(), y.end()) + 1;
  const Matrix logged = detail::slog_all(x);
  scaler_.fit(logged);
  const Matrix xs = scaler_.transform(logged);
  net_.init(static_cast<int>(xs.front().size()), num_classes_, params_);
  detail::train_mlp(
      net_, xs,
      [&](std::size_t i, const std::vector<double>& raw,
          std::vector<double>& grad) {
        // Softmax cross-entropy gradient: p - onehot.
        grad.resize(raw.size());
        const double mx = *std::max_element(raw.begin(), raw.end());
        double denom = 0.0;
        for (std::size_t k = 0; k < raw.size(); ++k) {
          grad[k] = std::exp(raw[k] - mx);
          denom += grad[k];
        }
        for (std::size_t k = 0; k < raw.size(); ++k) {
          grad[k] /= denom;
          if (static_cast<int>(k) == y[i]) grad[k] -= 1.0;
        }
        // CE loss = -log p(y) = log(sum exp(raw - mx)) - (raw[y] - mx).
        return mx + std::log(denom) - raw[static_cast<std::size_t>(y[i])];
      });
}

std::vector<double> MlpClassifier::predict_proba(
    const std::vector<double>& row) const {
  auto raw = net_.forward(scaler_.transform(detail::slog_row(row)));
  const double mx = *std::max_element(raw.begin(), raw.end());
  double denom = 0.0;
  for (double& v : raw) {
    v = std::exp(v - mx);
    denom += v;
  }
  for (double& v : raw) v /= denom;
  return raw;
}

int MlpClassifier::predict(const std::vector<double>& row) const {
  const auto p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

MlpRegressor::MlpRegressor(MlpParams params) : params_(params) {}

void MlpRegressor::fit(const Matrix& x, const std::vector<double>& y) {
  SPMVML_ENSURE(!x.empty() && x.size() == y.size(), "bad training data");
  const Matrix logged = detail::slog_all(x);
  scaler_.fit(logged);
  const Matrix xs = scaler_.transform(logged);
  StreamingStats ys;
  for (double v : y) ys.add(v);
  y_mean_ = ys.mean();
  y_std_ = ys.stddev() > 1e-12 ? ys.stddev() : 1.0;

  net_.init(static_cast<int>(xs.front().size()), 1, params_);
  detail::train_mlp(net_, xs,
                    [&](std::size_t i, const std::vector<double>& raw,
                        std::vector<double>& grad) {
                      grad.resize(1);
                      const double target = (y[i] - y_mean_) / y_std_;
                      grad[0] = raw[0] - target;  // d/draw of 0.5*(raw-t)^2
                      return 0.5 * grad[0] * grad[0];
                    });
}

double MlpRegressor::predict(const std::vector<double>& row) const {
  const auto raw = net_.forward(scaler_.transform(detail::slog_row(row)));
  // Clamp to a few standard units: a diverged activation must not produce
  // astronomically wrong (and RME-dominating) extrapolations.
  const double z = std::clamp(raw[0], -6.0, 6.0);
  return z * y_std_ + y_mean_;
}

MlpEnsembleClassifier::MlpEnsembleClassifier(MlpParams params, int n_members)
    : params_(params), n_members_(n_members) {
  SPMVML_ENSURE(n_members_ >= 1, "ensemble needs members");
}

void MlpEnsembleClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  members_.clear();
  for (int m = 0; m < n_members_; ++m) {
    MlpParams p = params_;
    p.seed = hash_combine(params_.seed, static_cast<std::uint64_t>(m) + 41);
    members_.emplace_back(p);
    members_.back().fit(x, y);
  }
}

std::vector<double> MlpEnsembleClassifier::predict_proba(
    const std::vector<double>& row) const {
  SPMVML_ENSURE(!members_.empty(), "ensemble not fitted");
  std::vector<double> acc;
  for (const auto& m : members_) {
    const auto p = m.predict_proba(row);
    if (acc.empty()) acc.assign(p.size(), 0.0);
    for (std::size_t k = 0; k < p.size(); ++k) acc[k] += p[k];
  }
  for (double& v : acc) v /= static_cast<double>(members_.size());
  return acc;
}

int MlpEnsembleClassifier::predict(const std::vector<double>& row) const {
  const auto p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

MlpEnsembleRegressor::MlpEnsembleRegressor(MlpParams params, int n_members)
    : params_(params), n_members_(n_members) {
  SPMVML_ENSURE(n_members_ >= 1, "ensemble needs members");
}

void MlpEnsembleRegressor::fit(const Matrix& x, const std::vector<double>& y) {
  members_.clear();
  for (int m = 0; m < n_members_; ++m) {
    MlpParams p = params_;
    p.seed = hash_combine(params_.seed, static_cast<std::uint64_t>(m) + 83);
    members_.emplace_back(p);
    members_.back().fit(x, y);
  }
}

double MlpEnsembleRegressor::predict(const std::vector<double>& row) const {
  SPMVML_ENSURE(!members_.empty(), "ensemble not fitted");
  double sum = 0.0;
  for (const auto& m : members_) sum += m.predict(row);
  return sum / static_cast<double>(members_.size());
}

}  // namespace spmvml::ml
