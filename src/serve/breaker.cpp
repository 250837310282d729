#include "serve/breaker.hpp"

#include <algorithm>

#include "common/obs/log.hpp"
#include "common/obs/metrics.hpp"

namespace spmvml::serve {

namespace {

BreakerConfig sanitize(BreakerConfig cfg) {
  cfg.window = std::max(cfg.window, 1);
  cfg.error_threshold = std::clamp(cfg.error_threshold, 0.0, 1.0);
  cfg.ewma_alpha = std::clamp(cfg.ewma_alpha, 0.01, 1.0);
  cfg.open_cooldown_ms = std::max(cfg.open_cooldown_ms, 0.0);
  cfg.half_open_probes = std::max(cfg.half_open_probes, 1);
  return cfg;
}

}  // namespace

CircuitBreaker::CircuitBreaker(std::string name, BreakerConfig config)
    : name_(std::move(name)), cfg_(sanitize(config)) {
  publish_state(state_);
}

void CircuitBreaker::publish_state(BreakerState s) {
  obs::MetricsRegistry::global()
      .gauge("serve.breaker." + name_ + ".state")
      .set(static_cast<double>(static_cast<int>(s)));
}

void CircuitBreaker::trip(Clock::time_point now) {
  state_ = BreakerState::kOpen;
  opened_at_ = now;
  half_open_successes_ = 0;
  window_total_ = 0;
  window_errors_ = 0;
  ++trips_;
  publish_state(state_);
  obs::MetricsRegistry::global()
      .counter("serve.breaker." + name_ + ".trips")
      .inc();
  obs::log_warn("serve.breaker.open")
      .kv("stage", name_)
      .kv("latency_ewma_ms", latency_ewma_ms_);
}

bool CircuitBreaker::allow(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen: {
      const double since_ms =
          std::chrono::duration<double, std::milli>(now - opened_at_).count();
      if (since_ms < cfg_.open_cooldown_ms) return false;
      state_ = BreakerState::kHalfOpen;
      half_open_successes_ = 0;
      publish_state(state_);
      obs::log_info("serve.breaker.half_open").kv("stage", name_);
      return true;
    }
  }
  return true;
}

void CircuitBreaker::record(bool ok, double latency_ms,
                            Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (latency_ms >= 0.0) {
    latency_ewma_ms_ = have_latency_
                           ? (1.0 - cfg_.ewma_alpha) * latency_ewma_ms_ +
                                 cfg_.ewma_alpha * latency_ms
                           : latency_ms;
    have_latency_ = true;
  }

  if (state_ == BreakerState::kHalfOpen) {
    if (!ok) {
      trip(now);  // a failed probe reopens; the cooldown restarts
      return;
    }
    if (++half_open_successes_ >= cfg_.half_open_probes) {
      state_ = BreakerState::kClosed;
      window_total_ = 0;
      window_errors_ = 0;
      publish_state(state_);
      obs::log_info("serve.breaker.closed").kv("stage", name_);
    }
    return;
  }
  if (state_ != BreakerState::kClosed) return;  // open: stale outcome

  ++window_total_;
  ++samples_;
  if (!ok) ++window_errors_;
  if (cfg_.latency_threshold_ms > 0.0 && have_latency_ &&
      latency_ewma_ms_ > cfg_.latency_threshold_ms &&
      samples_ >= static_cast<std::uint64_t>(cfg_.window)) {
    trip(now);
    return;
  }
  if (window_total_ >= static_cast<std::uint64_t>(cfg_.window)) {
    const double frac = static_cast<double>(window_errors_) /
                        static_cast<double>(window_total_);
    if (frac >= cfg_.error_threshold && window_errors_ > 0) {
      trip(now);
    } else {
      // Tumble the window so old outcomes age out deterministically.
      window_total_ = 0;
      window_errors_ = 0;
    }
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

double CircuitBreaker::latency_ewma_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_ewma_ms_;
}

std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

}  // namespace spmvml::serve
