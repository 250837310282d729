#include "serve/scorecard.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/obs/metrics.hpp"
#include "ml/serialize.hpp"

namespace spmvml::serve {

namespace {

constexpr double kRelErrBounds[] = {0.01, 0.02, 0.05, 0.1, 0.2,
                                    0.5,  1.0,  2.0,  5.0};

double rel_err(const ScorecardEntry& e) {
  if (e.predicted_gflops <= 0.0 || e.measured_gflops <= 0.0) return -1.0;
  return std::abs(e.predicted_gflops - e.measured_gflops) / e.measured_gflops;
}

}  // namespace

std::uint64_t features_fingerprint(std::span<const double> values) {
  // Hash the IEEE-754 bytes: bit-identical features (the cache key
  // property the feature cache already relies on) get identical
  // fingerprints across runs and processes.
  std::string bytes(values.size() * sizeof(double), '\0');
  if (!values.empty())
    std::memcpy(bytes.data(), values.data(), bytes.size());
  return ml::io::fnv1a64(bytes);
}

Scorecard::Scorecard(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void Scorecard::apply(const ScorecardEntry& e, int sign) {
  if (e.probe) return;  // shadow measurements stay out of the aggregates
  window_scored_ += sign;
  if (e.chosen == e.predicted_best) window_hits_ += sign;
  window_regret_sum_ += sign * e.regret;
  const double err = rel_err(e);
  if (err >= 0.0) {
    window_rel_err_sum_ += sign * err;
    window_rel_err_count_ += sign;
  }
}

Scorecard::Summary Scorecard::summary_locked() const {
  Summary s;
  s.total = total_;
  s.window = ring_.size();
  s.scored = static_cast<std::size_t>(std::max<std::int64_t>(window_scored_, 0));
  if (window_scored_ > 0) {
    const double scored = static_cast<double>(window_scored_);
    s.accuracy = static_cast<double>(window_hits_) / scored;
    s.mean_regret = window_regret_sum_ / scored;
    s.rme = window_rel_err_count_ > 0
                ? window_rel_err_sum_ /
                      static_cast<double>(window_rel_err_count_)
                : 0.0;
  }
  return s;
}

void Scorecard::record(const ScorecardEntry& e) {
  static obs::Counter records =
      obs::MetricsRegistry::global().counter("serve.scorecard.records");
  static obs::Counter probes =
      obs::MetricsRegistry::global().counter("serve.scorecard.probes");
  static obs::Counter hits =
      obs::MetricsRegistry::global().counter("serve.scorecard.hits");
  static obs::Gauge accuracy =
      obs::MetricsRegistry::global().gauge("serve.scorecard.accuracy");
  static obs::Gauge mean_regret =
      obs::MetricsRegistry::global().gauge("serve.scorecard.mean_regret");
  static obs::Gauge rme =
      obs::MetricsRegistry::global().gauge("serve.scorecard.rme");
  static obs::Histogram rel_err_hist = obs::MetricsRegistry::global().histogram(
      "serve.scorecard.rel_err", kRelErrBounds);

  Summary snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      apply(ring_[next_], -1);  // evict the oldest
      ring_[next_] = e;
    }
    next_ = (next_ + 1) % capacity_;
    apply(e, +1);
    ++total_;
    snap = summary_locked();
  }

  records.inc();
  if (e.probe) {
    probes.inc();
    return;  // shadow measurement: the traffic-facing gauges stand pat
  }
  if (e.chosen == e.predicted_best) hits.inc();
  accuracy.set(snap.accuracy);
  mean_regret.set(snap.mean_regret);
  rme.set(snap.rme);
  const double err = rel_err(e);
  if (err >= 0.0) rel_err_hist.observe(err);
}

std::vector<ScorecardEntry> Scorecard::entries() const {
  return drain_since(0).entries;  // every retained entry, oldest first
}

Scorecard::Drained Scorecard::drain_since(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  Drained out;
  out.next_seq = total_;
  // Retained entries carry sequence numbers [total_ - window, total_);
  // entry k (the k-th record() ever) lives in slot k % capacity_.
  const std::uint64_t oldest = total_ - ring_.size();
  const std::uint64_t first = std::max(seq, oldest);
  if (seq < oldest) out.dropped = oldest - seq;
  if (first < total_) {
    out.entries.reserve(static_cast<std::size_t>(total_ - first));
    for (std::uint64_t s = first; s < total_; ++s)
      out.entries.push_back(ring_[static_cast<std::size_t>(s % capacity_)]);
  }
  return out;
}

Scorecard::Summary Scorecard::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summary_locked();
}

}  // namespace spmvml::serve
