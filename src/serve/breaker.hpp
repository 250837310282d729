// Per-stage circuit breaker for the serving request path.
//
// A stage that keeps failing (or keeps missing its latency budget) must
// stop being *tried*: every doomed attempt burns worker time that
// healthy requests need, and under a fault burst the retry traffic
// alone can collapse the service. The breaker is the standard three-
// state machine:
//
//   closed ──(error rate or latency EWMA over threshold)──> open
//   open   ──(cooldown elapsed)──> half-open
//   half-open ──(probe successes)──> closed
//             ──(any probe failure)──> open (cooldown restarts)
//
// While a stage's breaker is open the Service walks down the
// degradation ladder instead of calling the stage: indirect requests
// fall back to the direct classifier, and when the classifier stage
// itself is open, to the static CSR answer (always valid, needs no
// model and no features).
//
// Time is passed in explicitly (steady_clock time_points), so the state
// machine is unit-testable without sleeping; callers use Clock::now().
// All methods are thread-safe; the lock is per-breaker and the critical
// sections are a handful of arithmetic ops.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace spmvml::serve {

enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

struct BreakerConfig {
  /// Sliding outcome window: the error-rate trip needs at least this
  /// many recorded outcomes and fires when the windowed error fraction
  /// reaches `error_threshold`.
  int window = 16;
  double error_threshold = 0.5;
  /// Latency trip: EWMA of recorded stage latency above this opens the
  /// breaker (0 disables the latency trip).
  double latency_threshold_ms = 0.0;
  double ewma_alpha = 0.2;
  /// open -> half-open after this cooldown.
  double open_cooldown_ms = 100.0;
  /// Consecutive half-open successes required to close again.
  int half_open_probes = 3;
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  CircuitBreaker(std::string name, BreakerConfig config);

  /// May the caller attempt the stage right now? Closed: yes. Open:
  /// no, until the cooldown promotes to half-open (this call performs
  /// the promotion). Half-open: yes — traffic is the probe.
  bool allow(Clock::time_point now);

  /// Record one stage outcome. Failures and latency feed the trip
  /// conditions; in half-open, `half_open_probes` consecutive successes
  /// close the breaker and any failure reopens it.
  void record(bool ok, double latency_ms, Clock::time_point now);

  BreakerState state() const;
  double latency_ewma_ms() const;
  std::uint64_t trips() const;
  const std::string& name() const { return name_; }

 private:
  void trip(Clock::time_point now);   // -> open (caller holds mu_)
  void publish_state(BreakerState s); // metrics gauge (caller holds mu_)

  const std::string name_;
  const BreakerConfig cfg_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  Clock::time_point opened_at_{};
  // Sliding window as counters over the last `window` outcomes: a ring
  // of booleans would do, but counts are all the trip needs.
  std::uint64_t window_total_ = 0;
  std::uint64_t window_errors_ = 0;
  std::uint64_t samples_ = 0;  // lifetime outcomes (latency-trip warmup)
  double latency_ewma_ms_ = 0.0;
  bool have_latency_ = false;
  int half_open_successes_ = 0;
  std::uint64_t trips_ = 0;
};

}  // namespace spmvml::serve
