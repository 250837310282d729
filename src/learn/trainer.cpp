#include "learn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"

#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"

namespace spmvml::learn {

namespace {

/// Holdout scoring of one picking policy: mean measured regret (best
/// measured GFLOPS / picked measured GFLOPS - 1) plus the mean relative
/// prediction error on the picked format (|predicted - measured| /
/// measured GFLOPS) — the calibration signal that breaks regret ties.
struct RegretAccum {
  double sum = 0.0;
  double rel_err_sum = 0.0;
  int n = 0;
  void add(const ReplaySample& s, Format pick, double predicted_seconds) {
    const double picked = s.mean_gflops(pick);
    const double best = s.mean_gflops(s.best_format());
    if (picked > 0.0 && best > 0.0) {
      sum += best / picked - 1.0;
      const double nnz = s.features[kNnzTot];
      if (nnz > 0.0 && predicted_seconds > 0.0 &&
          std::isfinite(predicted_seconds)) {
        const double predicted_gflops = 2.0 * nnz / (predicted_seconds * 1e9);
        rel_err_sum += std::abs(predicted_gflops - picked) / picked;
      }
      ++n;
    }
  }
  double mean() const { return n > 0 ? sum / n : -1.0; }
  double mean_rel_err() const { return n > 0 ? rel_err_sum / n : -1.0; }
};

/// argmin of predicted seconds over the formats this sample measured
/// (regret is only defined against measured truth). Returns kNumFormats
/// when no modeled format was measured.
template <typename PredictSeconds>
Format measured_argmin(const ReplaySample& s, std::span<const Format> formats,
                       PredictSeconds&& predict) {
  Format best = static_cast<Format>(kNumFormats);
  double best_t = 0.0;
  for (const Format f : formats) {
    if (s.count[static_cast<std::size_t>(f)] == 0) continue;
    const double t = predict(f);
    if (!std::isfinite(t)) continue;
    if (best == static_cast<Format>(kNumFormats) || t < best_t) {
      best = f;
      best_t = t;
    }
  }
  return best;
}

}  // namespace

OnlineTrainer::OnlineTrainer(const TrainerConfig& cfg,
                             const serve::Scorecard& scorecard,
                             serve::ModelRegistry& registry, ThreadPool& pool)
    : cfg_(cfg),
      scorecard_(scorecard),
      registry_(registry),
      pool_(pool),
      replay_(cfg.replay_capacity, hash_combine(cfg.seed, 0x4c45414eULL)),
      drift_(cfg.drift) {
  stats_.enabled = cfg_.enabled;
  last_retrain_ = std::chrono::steady_clock::now();
  if (cfg_.enabled) poller_ = std::thread([this] { poll_loop(); });
}

OnlineTrainer::~OnlineTrainer() { stop(); }

void OnlineTrainer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (poller_.joinable()) poller_.join();
  // A training task may still be queued or running on the shared pool;
  // it captures `this`, so destruction must wait for it.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !train_inflight_; });
}

void OnlineTrainer::poke() { cv_.notify_all(); }

void OnlineTrainer::poll_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::duration<double>(cfg_.poll_every_s));
    if (stop_) break;
    drain_once();
    // Retrain when drift fired or the periodic interval elapsed — with
    // enough replay data, no retrain already in flight, and outside the
    // churn-limiting gap.
    const auto now = std::chrono::steady_clock::now();
    const double since_last =
        std::chrono::duration<double>(now - last_retrain_).count();
    const bool periodic_due =
        cfg_.retrain_every_s > 0.0 && since_last >= cfg_.retrain_every_s;
    if ((drift_pending_ || periodic_due) && !train_inflight_ &&
        since_last >= cfg_.min_retrain_gap_s &&
        replay_.size() >= cfg_.min_samples) {
      drift_pending_ = false;
      train_inflight_ = true;
      last_retrain_ = now;
      ++stats_.retrains;
      obs::MetricsRegistry::global().counter("serve.trainer.retrains").inc();
      pool_.submit([this] { train(); });
    }
  }
}

void OnlineTrainer::drain_once() {
  // Caller holds mu_. The scorecard has its own lock; nothing in the
  // scorecard ever calls back into the trainer, so the order is safe.
  static obs::Counter drift_trips =
      obs::MetricsRegistry::global().counter("serve.trainer.drift_trips");
  static obs::Gauge replay_size =
      obs::MetricsRegistry::global().gauge("serve.trainer.replay_size");
  const auto drained = scorecard_.drain_since(cursor_);
  cursor_ = drained.next_seq;
  ++stats_.polls;
  stats_.drained += drained.entries.size();
  stats_.dropped += drained.dropped;
  for (const auto& e : drained.entries) {
    replay_.add(e);
    if (!e.probe && drift_.observe(e)) {
      drift_pending_ = true;
      drift_trips.inc();
      obs::log_info("serve.trainer.drift_trip")
          .kv("replay_size", replay_.size())
          .kv("rme", drift_.stats().last_rme)
          .kv("accuracy", drift_.stats().last_accuracy);
    }
  }
  replay_size.set(static_cast<double>(replay_.size()));
}

void OnlineTrainer::train() {
  static obs::Counter swaps =
      obs::MetricsRegistry::global().counter("serve.trainer.swaps");
  static obs::Counter discards =
      obs::MetricsRegistry::global().counter("serve.trainer.discards");
  static obs::Counter aborted =
      obs::MetricsRegistry::global().counter("serve.trainer.aborted");
  obs::TraceSpan span("serve.trainer.retrain");

  enum class Outcome { kSwapped, kDiscarded, kAborted };
  Outcome outcome = Outcome::kAborted;
  std::string detail;
  std::uint64_t published = 0;
  double cand_regret = -1.0;
  double live_regret = -1.0;
  double cand_rme = -1.0;
  double live_rme = -1.0;

  try {
    const auto live = registry_.current();
    const auto samples = replay_.snapshot();
    if (!live || !live->selector) {
      detail = "no live bundle";
    } else if (samples.size() < cfg_.min_samples) {
      detail = "replay thinner than min_samples";
    } else {
      // Deterministic holdout split, keyed by the features fingerprint:
      // a matrix stays on the same side of the split across retrains.
      std::vector<const ReplaySample*> fit_set, holdout;
      for (const auto& s : samples) {
        const double u = static_cast<double>(
                             hash_combine(cfg_.seed, s.features_hash) >> 11) *
                         0x1.0p-53;
        (u < cfg_.holdout_fraction ? holdout : fit_set).push_back(&s);
      }

      const FeatureSet sel_fs = live->selector->feature_set();
      const FeatureSet perf_fs =
          live->perf ? live->perf->feature_set() : sel_fs;
      const std::vector<Format> candidates(live->selector->candidates().begin(),
                                           live->selector->candidates().end());

      // Per-format regression sets: measured (features -> log10 seconds).
      // Samples with >= 2 measured formats carry real "which format won"
      // evidence; enough of them must exist before a retrain is viable.
      std::size_t multi_measured = 0;
      std::vector<Format> perf_formats;
      std::vector<ml::Matrix> perf_x(kNumFormats);
      std::vector<std::vector<double>> perf_y(kNumFormats);
      for (const ReplaySample* s : fit_set) {
        FeatureVector fv;
        fv.values = s->features;
        const double nnz = fv[kNnzTot];
        if (nnz <= 0.0) continue;
        for (int f = 0; f < kNumFormats; ++f) {
          const double g = s->mean_gflops(static_cast<Format>(f));
          if (g <= 0.0) continue;
          perf_x[static_cast<std::size_t>(f)].push_back(fv.select(perf_fs));
          perf_y[static_cast<std::size_t>(f)].push_back(
              seconds_to_regression_target(2.0 * nnz / (g * 1e9)));
        }
        if (s->measured_formats() >= 2) ++multi_measured;
      }
      for (int f = 0; f < kNumFormats; ++f)
        if (!perf_x[static_cast<std::size_t>(f)].empty())
          perf_formats.push_back(static_cast<Format>(f));

      if (multi_measured < cfg_.min_labeled) {
        detail = "too few multi-format-labeled samples";
      } else if (perf_formats.empty()) {
        detail = "no per-format measurements";
      } else {
        std::vector<ml::Matrix> fit_x;
        std::vector<std::vector<double>> fit_y;
        for (const Format f : perf_formats) {
          fit_x.push_back(std::move(perf_x[static_cast<std::size_t>(f)]));
          fit_y.push_back(std::move(perf_y[static_cast<std::size_t>(f)]));
        }
        PerfModel perf(cfg_.regressor_kind, perf_fs, perf_formats, cfg_.fast);
        perf.fit_samples(fit_x, fit_y);
        auto perf_ptr = std::make_shared<const PerfModel>(std::move(perf));

        // Distill the classifier from the candidate regressors' argmin
        // (the paper's indirect classification, deployed): select-mode
        // picks then agree with the ranking the holdout validation
        // below actually scores. Training it on raw per-sample argmax
        // labels instead would let single noisy measurements flip
        // labels and leave the served selector inconsistent with the
        // validated perf model.
        ml::Matrix cls_x;
        std::vector<int> cls_y;
        for (const ReplaySample* s : fit_set) {
          FeatureVector fv;
          fv.values = s->features;
          if (fv[kNnzTot] <= 0.0) continue;
          Format pick = static_cast<Format>(kNumFormats);
          double pick_t = 0.0;
          for (const Format f : perf_ptr->formats()) {
            const double t = perf_ptr->predict_seconds(fv, f);
            if (!std::isfinite(t) || t <= 0.0) continue;
            if (pick == static_cast<Format>(kNumFormats) || t < pick_t) {
              pick = f;
              pick_t = t;
            }
          }
          const auto it = std::find(candidates.begin(), candidates.end(), pick);
          if (it == candidates.end()) continue;
          cls_x.push_back(fv.select(sel_fs));
          cls_y.push_back(static_cast<int>(it - candidates.begin()));
        }
        auto selector = std::make_shared<FormatSelector>(
            cfg_.selector_kind, sel_fs, candidates, cfg_.fast);
        selector->fit(cls_x, cls_y);

        // Holdout validation: both bundles pick a format per sample from
        // the formats that sample actually measured; mean measured
        // regret decides. The candidate must strictly beat the live
        // bundle (no live perf model = nothing to lose to).
        RegretAccum cand, prev;
        for (const ReplaySample* s : holdout) {
          if (s->measured_formats() < 2) continue;
          FeatureVector fv;
          fv.values = s->features;
          const Format cand_pick = measured_argmin(
              *s, perf_ptr->formats(),
              [&](Format f) { return perf_ptr->predict_seconds(fv, f); });
          if (cand_pick == static_cast<Format>(kNumFormats)) continue;
          if (live->perf) {
            const Format live_pick = measured_argmin(
                *s, live->perf->formats(),
                [&](Format f) { return live->perf->predict_seconds(fv, f); });
            if (live_pick == static_cast<Format>(kNumFormats)) continue;
            prev.add(*s, live_pick,
                     live->perf->predict_seconds(fv, live_pick));
          }
          cand.add(*s, cand_pick, perf_ptr->predict_seconds(fv, cand_pick));
        }
        cand_regret = cand.mean();
        live_regret = prev.mean();
        cand_rme = cand.mean_rel_err();
        live_rme = prev.mean_rel_err();

        bool publish;
        if (!live->perf) {
          publish = true;  // candidate adds capability the live bundle lacks
          detail = "no live perf model to beat";
        } else if (cand.n == 0 || prev.n == 0) {
          publish = false;
          detail = "no comparable holdout samples";
        } else {
          publish = cand_regret < live_regret;
          // Regret tie-break: when one format wins the whole holdout
          // slice (common on a single backend), every competent bundle
          // ties at regret ~0 and regret alone can never rotate a stale
          // model out. Regrets within kRegretTieTol count as tied —
          // replay means come from single timed SpMVs, so a few percent
          // is measurement noise, not a real selection gap. A candidate
          // that picks no worse than that AND prices the holdout
          // markedly closer to measured truth (clear relative and
          // absolute margin) still wins — calibrated predictions drive
          // indirect mode and predicted_us even when picks agree.
          constexpr double kRegretTieTol = 0.05;
          if (!publish && cand_regret <= live_regret + kRegretTieTol &&
              cand_rme >= 0.0 && live_rme >= 0.0 &&
              cand_rme + 0.05 < live_rme && cand_rme < 0.9 * live_rme) {
            publish = true;
            detail = "regret tie broken on holdout prediction error";
          }
          if (!publish) detail = "candidate did not beat live bundle";
        }

        if (publish) {
          try {
            published =
                registry_.install(std::move(selector), std::move(perf_ptr),
                                  live->version);
            outcome = Outcome::kSwapped;
          } catch (const Error& e) {
            // Raced by another publisher or failed probe validation;
            // the registry journaled the details.
            outcome = Outcome::kDiscarded;
            detail = e.what();
          }
        } else {
          outcome = Outcome::kDiscarded;
        }
      }
    }
  } catch (const std::exception& e) {
    outcome = Outcome::kAborted;
    detail = e.what();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (outcome) {
      case Outcome::kSwapped:
        ++stats_.swaps;
        stats_.last_published_version = published;
        break;
      case Outcome::kDiscarded:
        ++stats_.discards;
        break;
      case Outcome::kAborted:
        ++stats_.aborted;
        break;
    }
    stats_.last_candidate_regret = cand_regret;
    stats_.last_live_regret = live_regret;
    stats_.last_candidate_rme = cand_rme;
    stats_.last_live_rme = live_rme;
    train_inflight_ = false;
    // Notify under the lock: once stop() sees !train_inflight_ it may
    // destroy cv_, so this task must be done with it before unlocking.
    cv_.notify_all();
  }

  switch (outcome) {
    case Outcome::kSwapped:
      swaps.inc();
      span.arg("outcome", "swap").arg("version", published);
      obs::log_info("serve.trainer.swap")
          .kv("version", published)
          .kv("candidate_regret", cand_regret)
          .kv("live_regret", live_regret)
          .kv("candidate_rme", cand_rme)
          .kv("live_rme", live_rme);
      break;
    case Outcome::kDiscarded:
      discards.inc();
      span.arg("outcome", "discard").arg("reason", detail);
      obs::log_info("serve.trainer.discard")
          .kv("reason", detail)
          .kv("candidate_regret", cand_regret)
          .kv("live_regret", live_regret);
      break;
    case Outcome::kAborted:
      aborted.inc();
      span.arg("outcome", "abort").arg("reason", detail);
      obs::log_warn("serve.trainer.abort").kv("reason", detail);
      break;
  }
}

OnlineTrainer::Stats OnlineTrainer::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  s.replay = replay_.stats();
  s.drift = drift_.stats();
  return s;
}

}  // namespace spmvml::learn
